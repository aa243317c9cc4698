"""Exhaustive backtracking engines for total prime, prime, and coprime
labelings, plus the odd-label counting certificate for unions with stacks of
triangles.

Searches are complete and deterministic for a fixed SearchConfig.  Pruning:

* adjacent vertices must stay coprime, checked the moment the second
  endpoint is labeled;
* once the last edge at a degree->=2 vertex is placed, the incident edge
  labels must have gcd 1;
* odd-label counting: even vertex labels form an independent set, so each
  component needs at least (order - independence number) odd vertex labels;
  every vertex of degree >= 2 needs an odd incident edge (all-even incident
  labels share the factor 2), and one odd edge can serve two such vertices
  only when it joins them directly, which bounds the odd edge labels still
  required from below.  A branch dies when the total remaining demand
  exceeds the unused odd labels, or a class has fewer open slots than its
  remaining demand.

* forest parity placement: on forests, the even labels still to be placed
  must fit an independent set of unassigned vertices with no even-labeled
  neighbor; the maximum such set is computed exactly by leaf-stripping.

Variable order: vertex-only searches pick the most constrained vertex next
(fewest compatible unused values, then most labeled neighbors, then index),
which keeps backtracking shallow even on 50-vertex trees.  The combined
search labels vertices in a Prim-style sweep seeded at the highest-degree
vertex, then edges grouped by that vertex order so each vertex's incident
set completes early.  Values are tried ascending unless a shuffle seed is
set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from math import gcd
from random import Random
from typing import Optional

from .errors import InvalidParameterError, NotFoundWithinBoundError
from .graphs import Edge, FamilySpec, Graph, build_family
from .labeling import Labeling

FOUND = "found"
EXHAUSTED = "exhausted_no_solution"
BUDGET_EXCEEDED = "budget_exceeded"

INFEASIBLE = "infeasible"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and knobs; results are deterministic for a fixed config.

    ``symmetry_breaking`` pins the smallest vertex label to vertex 0, which
    is sound only for vertex-transitive inputs (cycles, complete graphs); the
    caller is responsible for that judgement.
    """

    node_budget: int = 100_000_000
    time_budget: Optional[float] = None
    symmetry_breaking: bool = False
    randomize: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node_budget <= 0:
            raise InvalidParameterError("node budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise InvalidParameterError("time budget must be positive")


@dataclass
class SearchOutcome:
    status: str
    labeling: Optional[Labeling]
    nodes_explored: int
    elapsed: float

    def to_json_dict(self) -> dict:
        out = {
            "status": self.status,
            "nodes": self.nodes_explored,
            "ms": int(self.elapsed * 1000),
        }
        if self.labeling is not None:
            out["labeling"] = self.labeling.to_json_dict()
        return out


class _OutOfBudget(Exception):
    pass


def _independence_number(g: Graph, comp: list[int]) -> int:
    """Exact maximum independent set size for small components."""
    if len(comp) > 30:
        return len(comp)  # give up on the bound; stays sound
    adj = {v: set(g.adjacency[v]) & set(comp) for v in comp}

    def rec(active: frozenset) -> int:
        if not active:
            return 0
        v = max(active, key=lambda x: len(adj[x] & active))
        if len(adj[v] & active) <= 1:
            # isolated vertices and disjoint edges remain
            edges = sum(len(adj[x] & active) for x in active) // 2
            return len(active) - edges
        without = rec(active - {v})
        with_v = 1 + rec(active - {v} - adj[v])
        return max(without, with_v)

    return rec(frozenset(comp))


def _component_requirements(g: Graph):
    """Per-component odd vertex-label demands and the vertex->class map."""
    comps = g.components()
    comp_of = [0] * g.n
    for cid, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = cid
    reqs = [len(comp) - _independence_number(g, comp) for comp in comps]
    sizes = [len(comp) for comp in comps]
    return reqs, sizes, comp_of


def _forest_independence(adjacency, eligible: list[bool]) -> int:
    """Exact maximum independent set on an induced forest by leaf-stripping."""
    n = len(eligible)
    active = [bool(e) for e in eligible]
    deg = [0] * n
    stack = []
    remaining = 0
    for v in range(n):
        if active[v]:
            remaining += 1
            deg[v] = sum(1 for u in adjacency[v] if eligible[u])
            if deg[v] <= 1:
                stack.append(v)
    alpha = 0
    while remaining:
        if not stack:  # cannot happen on a forest, guard anyway
            break
        v = stack.pop()
        if not active[v]:
            continue
        alpha += 1
        active[v] = False
        remaining -= 1
        for u in adjacency[v]:
            if active[u]:  # drop the unique active neighbor of the leaf
                active[u] = False
                remaining -= 1
                for w in adjacency[u]:
                    if active[w]:
                        deg[w] -= 1
                        if deg[w] <= 1:
                            stack.append(w)
                break
    return alpha


def _value_order(limit: int, seed: Optional[int]) -> list[int]:
    values = list(range(1, limit + 1))
    if seed is not None:
        Random(seed).shuffle(values)
    return values


def _vertex_order(g: Graph) -> list[int]:
    """Prim-style sweep: highest degree first, then greedily the vertex with
    the most already-ordered neighbors (ties by degree, then index).

    Every vertex after the first in its component has an ordered neighbor, so
    adjacent-coprimality conflicts surface immediately instead of after deep
    unconstrained assignments.
    """
    n = g.n
    ordered: list[int] = []
    placed = [False] * n
    seen_nbrs = [0] * n
    for _ in range(n):
        best = None
        best_key = None
        for v in range(n):
            if placed[v]:
                continue
            key = (seen_nbrs[v], g.degree(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        ordered.append(best)
        placed[best] = True
        for u in g.adjacency[best]:
            seen_nbrs[u] += 1
    return ordered


class _Engine:
    """Shared state for the vertex and total searches."""

    def __init__(self, g: Graph, cfg: SearchConfig, limit: int):
        self.g = g
        self.cfg = cfg
        self.limit = limit
        self.values = _value_order(limit, cfg.randomize)
        self.used = [False] * (limit + 1)
        self.vlab = [0] * g.n
        self.nodes = 0
        self.deadline = (
            time.perf_counter() + cfg.time_budget if cfg.time_budget else None
        )
        reqs, sizes, comp_of = _component_requirements(g)
        self.vreq = reqs
        self.vodd = [0] * len(reqs)
        self.vopen = sizes
        self.vdeficit = sum(reqs)
        self.vertex_class = comp_of
        self.odds_left = (limit + 1) // 2
        self.vorder = _vertex_order(g)

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.cfg.node_budget:
            raise _OutOfBudget
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.perf_counter() > self.deadline:
                raise _OutOfBudget

    def vertex_ok(self, v: int, val: int) -> bool:
        vlab = self.vlab
        for u in self.g.adjacency[v]:
            lu = vlab[u]
            if lu and gcd(lu, val) > 1:
                return False
        if self.cfg.symmetry_breaking:
            if v == 0:
                for u in range(self.g.n):
                    if u != 0 and vlab[u] and vlab[u] < val:
                        return False
            elif vlab[0] and val < vlab[0]:
                return False
        return True

    def place_vertex(self, v: int, val: int) -> None:
        self.used[val] = True
        self.vlab[v] = val
        cls = self.vertex_class[v]
        self.vopen[cls] -= 1
        if val & 1:
            self.odds_left -= 1
            if self.vodd[cls] < self.vreq[cls]:
                self.vdeficit -= 1
            self.vodd[cls] += 1

    def unplace_vertex(self, v: int, val: int) -> None:
        cls = self.vertex_class[v]
        if val & 1:
            self.vodd[cls] -= 1
            if self.vodd[cls] < self.vreq[cls]:
                self.vdeficit += 1
            self.odds_left += 1
        self.vopen[cls] += 1
        self.vlab[v] = 0
        self.used[val] = False

    def vertex_classes_open(self, cls: int) -> bool:
        return self.vreq[cls] - self.vodd[cls] <= self.vopen[cls]


class _VertexEngine(_Engine):
    """Injective vertex labeling into 1..limit with coprime adjacency."""

    def __init__(self, g: Graph, cfg: SearchConfig, limit: int):
        super().__init__(g, cfg, limit)
        self.is_forest = g.m == g.n - len(g.components())

    def _even_placement_ok(self, unassigned: int) -> bool:
        """On forests: the evens still forced onto vertices must fit an
        independent set of unassigned vertices with no even neighbor."""
        evens_needed = unassigned - self.odds_left
        if evens_needed <= 0:
            return True
        g = self.g
        vlab = self.vlab
        eligible = [False] * g.n
        for v in range(g.n):
            if vlab[v]:
                continue
            if any(vlab[u] and vlab[u] % 2 == 0 for u in g.adjacency[v]):
                continue
            eligible[v] = True
        return _forest_independence(g.adjacency, eligible) >= evens_needed

    def _pick_vertex(self):
        """Most constrained unassigned vertex and its current domain size."""
        g = self.g
        vlab = self.vlab
        used = self.used
        best = None
        best_key = None
        for v in range(g.n):
            if vlab[v]:
                continue
            assigned = [vlab[u] for u in g.adjacency[v] if vlab[u]]
            domain = 0
            for val in self.values:
                if used[val]:
                    continue
                if all(gcd(val, a) == 1 for a in assigned):
                    domain += 1
            key = (domain, -len(assigned), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
                if domain == 0:
                    break
        return best, best_key[0]

    def run(self) -> bool:
        if self.vdeficit > self.odds_left:
            return False
        if any(r > s for r, s in zip(self.vreq, self.vopen)):
            return False
        return self._assign(0)

    def _assign(self, count: int) -> bool:
        if count == self.g.n:
            return True
        v, domain = self._pick_vertex()
        if domain == 0:
            return False
        used = self.used
        cls = self.vertex_class[v]
        for val in self.values:
            if used[val]:
                continue
            if not self.vertex_ok(v, val):
                continue
            self.spend()
            self.place_vertex(v, val)
            if (
                self.vdeficit <= self.odds_left
                and self.vertex_classes_open(cls)
                and (not self.is_forest or self._even_placement_ok(self.g.n - count - 1))
                and self._assign(count + 1)
            ):
                return True
            self.unplace_vertex(v, val)
        return False

    def labeling(self) -> Labeling:
        return Labeling(list(self.vlab), {})


class _TotalEngine(_Engine):
    """Bijective labeling of vertices and edges onto 1..n+m."""

    def __init__(self, g: Graph, cfg: SearchConfig):
        super().__init__(g, cfg, g.n + g.m)
        index_of = {e: i for i, e in enumerate(g.edges)}
        eorder: list[int] = []
        listed = set()
        for v in self.vorder:
            for u in g.adjacency[v]:
                ei = index_of[(u, v) if u < v else (v, u)]
                if ei not in listed:
                    listed.add(ei)
                    eorder.append(ei)
        self.slots = [("v", v) for v in self.vorder] + [("e", ei) for ei in eorder]
        self.elab = [0] * g.m
        self.pending = [g.degree(v) for v in range(g.n)]
        self.egcd = [0] * g.n
        # odd-edge coverage bookkeeping for vertices of degree >= 2; the
        # degree-exactly-2 subset gets its own (often tighter) pair pool
        internal = [g.degree(v) >= 2 for v in range(g.n)]
        d2 = [g.degree(v) == 2 for v in range(g.n)]
        self.internal_vertices = [v for v in range(g.n) if internal[v]]
        self.d2_vertices = [v for v in range(g.n) if d2[v]]
        self.odd_inc = [0] * g.n
        self.pair_candidates = [
            ei for ei, (u, v) in enumerate(g.edges) if internal[u] and internal[v]
        ]
        self.d2_pair_candidates = [
            ei for ei, (u, v) in enumerate(g.edges) if d2[u] and d2[v]
        ]
        self.unassigned_edges = g.m

    @staticmethod
    def _cover_need(uncovered, candidates, elab, edges, odd_inc) -> int:
        cnt = 0
        for v in uncovered:
            if odd_inc[v] == 0:
                cnt += 1
        if cnt == 0:
            return 0
        pairs = 0
        for ei in candidates:
            if elab[ei] == 0:
                u, v = edges[ei]
                if odd_inc[u] == 0 and odd_inc[v] == 0:
                    pairs += 1
        return max((cnt + 1) // 2, cnt - pairs)

    def edge_need(self) -> int:
        """Lower bound on odd edge labels still required.

        Every internal vertex without an odd incident edge still needs one; a
        single odd edge serves two of them only along an unassigned edge
        joining two such vertices.  Restricting the same count to vertices of
        degree exactly 2 can only pair along degree2-degree2 edges, which is
        sometimes the sharper bound; take the max of both.
        """
        elab = self.elab
        edges = self.g.edges
        odd_inc = self.odd_inc
        need = self._cover_need(
            self.internal_vertices, self.pair_candidates, elab, edges, odd_inc
        )
        need_d2 = self._cover_need(
            self.d2_vertices, self.d2_pair_candidates, elab, edges, odd_inc
        )
        return max(need, need_d2)

    def feasible(self) -> bool:
        need = self.edge_need()
        if self.vdeficit + need > self.odds_left:
            return False
        return need <= self.unassigned_edges

    def run(self) -> bool:
        if not self.feasible():
            return False
        if any(r > s for r, s in zip(self.vreq, self.vopen)):
            return False
        return self._assign(0)

    def _assign(self, idx: int) -> bool:
        if idx == len(self.slots):
            return True
        kind, obj = self.slots[idx]
        if kind == "v":
            return self._assign_vertex(idx, obj)
        return self._assign_edge(idx, obj)

    def _assign_vertex(self, idx: int, v: int) -> bool:
        used = self.used
        cls = self.vertex_class[v]
        for val in self.values:
            if used[val]:
                continue
            if not self.vertex_ok(v, val):
                continue
            self.spend()
            self.place_vertex(v, val)
            if (
                self.vertex_classes_open(cls)
                and self.feasible()
                and self._assign(idx + 1)
            ):
                return True
            self.unplace_vertex(v, val)
        return False

    def _assign_edge(self, idx: int, ei: int) -> bool:
        u, v = self.g.edges[ei]
        used = self.used
        egcd = self.egcd
        pending = self.pending
        odd_inc = self.odd_inc
        check_u = self.g.degree(u) >= 2
        check_v = self.g.degree(v) >= 2
        for val in self.values:
            if used[val]:
                continue
            if check_u and pending[u] == 1 and gcd(egcd[u], val) != 1:
                continue
            if check_v and pending[v] == 1 and gcd(egcd[v], val) != 1:
                continue
            self.spend()
            used[val] = True
            self.elab[ei] = val
            old_u, old_v = egcd[u], egcd[v]
            egcd[u] = gcd(old_u, val)
            egcd[v] = gcd(old_v, val)
            pending[u] -= 1
            pending[v] -= 1
            self.unassigned_edges -= 1
            odd = val & 1
            if odd:
                self.odds_left -= 1
                odd_inc[u] += 1
                odd_inc[v] += 1
            if self.feasible() and self._assign(idx + 1):
                return True
            if odd:
                odd_inc[u] -= 1
                odd_inc[v] -= 1
                self.odds_left += 1
            self.unassigned_edges += 1
            pending[u] += 1
            pending[v] += 1
            egcd[u], egcd[v] = old_u, old_v
            used[val] = False
            self.elab[ei] = 0
        return False

    def labeling(self) -> Labeling:
        return Labeling(
            list(self.vlab),
            {e: self.elab[i] for i, e in enumerate(self.g.edges)},
        )


def _run(engine, started: float) -> SearchOutcome:
    try:
        found = engine.run()
    except _OutOfBudget:
        return SearchOutcome(
            BUDGET_EXCEEDED, None, engine.nodes, time.perf_counter() - started
        )
    elapsed = time.perf_counter() - started
    if found:
        return SearchOutcome(FOUND, engine.labeling(), engine.nodes, elapsed)
    return SearchOutcome(EXHAUSTED, None, engine.nodes, elapsed)


def find_total_prime(g: Graph, cfg: Optional[SearchConfig] = None) -> SearchOutcome:
    """Decide total prime labelability by complete backtracking."""
    cfg = cfg or SearchConfig()
    started = time.perf_counter()
    if g.n == 0:
        return SearchOutcome(FOUND, Labeling([], {}), 0, 0.0)
    return _run(_TotalEngine(g, cfg), started)


def find_prime(g: Graph, cfg: Optional[SearchConfig] = None) -> SearchOutcome:
    """Decide prime labelability (vertex bijection onto 1..n)."""
    cfg = cfg or SearchConfig()
    started = time.perf_counter()
    if g.n == 0:
        return SearchOutcome(FOUND, Labeling([], {}), 0, 0.0)
    return _run(_VertexEngine(g, cfg, g.n), started)


def find_coprime(
    g: Graph, bound: int, cfg: Optional[SearchConfig] = None
) -> SearchOutcome:
    """Decide coprime labelability with labels drawn from 1..bound."""
    if bound < g.n:
        raise InvalidParameterError("bound below vertex count")
    cfg = cfg or SearchConfig()
    started = time.perf_counter()
    if g.n == 0:
        return SearchOutcome(FOUND, Labeling([], {}), 0, 0.0)
    return _run(_VertexEngine(g, cfg, bound), started)


@dataclass
class MinimumCoprimeResult:
    status: str
    value: Optional[int]
    labeling: Optional[Labeling]
    nodes_explored: int
    elapsed: float


def minimum_coprime_number(
    g: Graph, k_max: int, cfg: Optional[SearchConfig] = None
) -> MinimumCoprimeResult:
    """Smallest bound in [n, k_max] admitting a coprime labeling, with witness.

    Bounds are tried in increasing order, each by complete search, so the
    first hit is the minimum coprime number.  Budgets apply cumulatively
    across bounds.  Raises NotFoundWithinBoundError when every bound up to
    ``k_max`` is exhausted without a labeling.
    """
    if k_max < g.n:
        raise InvalidParameterError("k_max below vertex count")
    cfg = cfg or SearchConfig()
    started = time.perf_counter()
    nodes_total = 0
    for bound in range(g.n, k_max + 1):
        remaining = cfg.node_budget - nodes_total
        time_left = None
        if cfg.time_budget is not None:
            time_left = cfg.time_budget - (time.perf_counter() - started)
        if remaining <= 0 or (time_left is not None and time_left <= 0):
            return MinimumCoprimeResult(
                BUDGET_EXCEEDED, None, None, nodes_total, time.perf_counter() - started
            )
        bound_cfg = replace(cfg, node_budget=remaining, time_budget=time_left)
        outcome = find_coprime(g, bound, bound_cfg)
        nodes_total += outcome.nodes_explored
        elapsed = time.perf_counter() - started
        if outcome.status == FOUND:
            return MinimumCoprimeResult(
                FOUND, bound, outcome.labeling, nodes_total, elapsed
            )
        if outcome.status == BUDGET_EXCEEDED:
            return MinimumCoprimeResult(
                BUDGET_EXCEEDED, None, None, nodes_total, elapsed
            )
    raise NotFoundWithinBoundError(
        f"no coprime labeling with max label <= {k_max}"
    )


@dataclass(frozen=True)
class OddCountCertificate:
    """Parity-counting verdict for a graph of given order unioned with
    ``copies`` disjoint triangles.

    Each triangle forces at least two odd vertex labels and two odd edge
    labels, so ``needed_odd = 4 * copies``.  The label pool is largest when
    the base graph is complete, giving ``available_odd``.  ``infeasible``
    whenever demand exceeds supply; that is guaranteed once
    ``copies > threshold = order*(order+1)/2``.
    """

    status: str
    needed_odd: int
    available_odd: int
    threshold: int
    order: int
    copies: int

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "needed_odd": self.needed_odd,
            "available_odd": self.available_odd,
            "threshold": self.threshold,
            "order": self.order,
            "copies": self.copies,
        }


def union_c3_infeasibility_certificate(order: int, copies: int) -> OddCountCertificate:
    if order < 2 or copies < 1:
        raise InvalidParameterError("need order >= 2 and copies >= 1")
    triangle_pool = order * (order + 1) // 2
    needed = 4 * copies
    available = (6 * copies + triangle_pool + 1) // 2
    status = INFEASIBLE if needed > available else INCONCLUSIVE
    return OddCountCertificate(status, needed, available, triangle_pool, order, copies)


def doubled_union_reduction(cycle_lengths: list[int]) -> Graph:
    """Union of the given cycles, doubled: a total prime labeling of the
    single union induces a prime labeling of the doubled one."""
    lens = list(cycle_lengths)
    if not lens or any(c < 3 for c in lens):
        raise InvalidParameterError("cycle lengths must all be at least 3")
    members = tuple(FamilySpec("cycle", n=c) for c in lens)
    return build_family(FamilySpec("union", members=members + members))


def doubled_union_prime_transport(
    cycle_lengths: list[int], total_labeling: Labeling
) -> Labeling:
    """Carry a total prime labeling of a union of cycles onto the vertices of
    the doubled union: first copies keep the vertex labels, second copies take
    the edge labels in cycle order."""
    lens = list(cycle_lengths)
    if not lens or any(c < 3 for c in lens):
        raise InvalidParameterError("cycle lengths must all be at least 3")
    size = sum(lens)
    out = [0] * (2 * size)
    offset = 0
    for c in lens:
        for j in range(c):
            out[offset + j] = total_labeling.vertex_labels[offset + j]
            e: Edge = (offset + j, offset + j + 1) if j < c - 1 else (offset, offset + c - 1)
            out[size + offset + j] = total_labeling.edge_labels[e]
        offset += c
    return Labeling(out, {})
