"""Exhaustive backtracking engines for total prime, prime, and coprime
labelings, plus the odd-label counting certificate for unions with stacks of
triangles.

Searches are complete and deterministic for a fixed SearchConfig.

Representation: label sets are Python ints used as bitsets, bit x standing
for label x.  A table of conflict masks (bit y of the mask of x is set when
gcd(x, y) > 1) is built on first use, grown when a larger label limit is
asked for and kept at module level; smaller limits mask it down.  The
engines keep a ``free`` mask of unused labels and, per unlabeled vertex, a
``blocked`` mask: the union of the conflict masks of its labeled neighbors,
updated when a neighbor is labeled and restored from a trail when the label
is taken back.  A vertex's domain is ``free & ~blocked[v]``; candidate
values are read off its set bits.

Pruning:

* adjacent vertices must stay coprime: a vertex only takes values in its
  domain;
* the last edge at a degree->=2 vertex must be coprime to the gcd of the
  labels already on its other edges, one more conflict mask;
* odd-label counting: even vertex labels form an independent set, so each
  component needs at least (order - independence number) odd vertex labels
  (exact up to 30 vertices, none asked of a larger component);
  every vertex of degree >= 2 needs an odd incident edge (all-even incident
  labels share the factor 2), and one odd edge can serve two such vertices
  only when it joins them directly, which bounds the odd edge labels still
  required from below.  A branch dies when the total remaining demand
  exceeds the unused odd labels.  The edge bound is kept as state: the
  counts of uncovered vertices and of unassigned edges joining two of them
  change only when an edge is labeled, and are updated there in place.
  The edge demand never exceeds the unassigned edges: an uncovered vertex
  keeps an unassigned incident edge, since the last-edge rule forces its
  last edge odd, so the unassigned edges cover every uncovered vertex.
* forest parity placement: on forests, the even labels still to be placed
  must fit an independent set of unassigned vertices with no even-labeled
  neighbor.  Eligibility is read off ``blocked``, whose bit 2 is set exactly
  when v has an even-labeled neighbor.  The largest such set comes from one
  greedy pass up a breadth-first spanning forest, built once per engine
  beside the class demands (once per ``minimum_coprime_number`` call): a
  vertex is taken when it is eligible and none of its children was, which
  is exact on a forest.  The same pass with every vertex eligible gives the
  independence number of a tree component for odd-label counting; other
  components get it by branching.

Checks before a placement: a value counts as a node when it is tried, but
a check whose outcome the current state already decides runs before
``place_vertex`` rewrites the neighbors' masks.  The odd-label count is one
(an even vertex label leaves it unchanged, an odd one breaks it exactly
when the vertex's class has its odd labels and none is spare), in both
engines; in the vertex engine, so is a value that would empty the domain of
an unlabeled neighbor, which the child's choice of vertex would find.  The
forest rule and the edge-phase checks run after the label is placed.

Exhausted states: the vertex engine keeps one table per engine (one per
``find_prime``/``find_coprime`` call, one per bound of
``minimum_coprime_number``; nothing is kept across calls) from a state key
to the nodes spent by a subtree searched from that state to exhaustion.
When a key comes back, the recorded count is added to ``nodes`` and the
subtree is not searched again; a count that passes ``node_budget`` stops
the search exactly where ``spend()`` would have, and a hit also checks the
deadline.  Only a subtree that returned no labeling after spending at least
one node is stored: every placement below it was undone, so the state at
its exit is the state at its entry.  Keys are built and looked up only once
the table holds an entry, so a search that never fails builds none.  The
table keeps two generations so that memory stays bounded on long searches:
new entries go to the newer one, a lookup reads both, and when the newer
one holds ``_GENERATION_CAP`` entries it becomes the older one and the
previous older one is dropped.  The states a search is still coming back
to are mostly recent, so they survive the turnover; a dropped state is
searched again and spends the nodes its replay would have added.  Node
counts, statuses and labelings are those of the search without the table.

The key packs fields of ``limit + 1`` bits: ``free``; each class's count of
odd vertex labels; per vertex in index order 1 when labeled, else
``blocked[v] & (free | 4)``.  A field of an unlabeled vertex never has bit 0
set, so it cannot be taken for a labeled one.  Everything the subtree reads
follows from the key: the domains ``free & ~blocked[v]``; ``labeled_nbrs``,
from the labeled set; ``odds_left``, the odd bits of ``free``;
``vdeficit``, from the odd counts; the neighbor-wipeout check;
``place_vertex``'s updates, since blocked labels that are no longer free
stay out of every later domain; the forest rule's eligibility, as bit 2 of
``blocked[v]`` is set exactly when v has an even-labeled neighbor; and
symmetry breaking, which keeps vertex 0's label below every other label, so
that the label it compares against (vertex 0's, or the smallest elsewhere
while vertex 0 is unlabeled) is the smallest label not in ``free``.

Variable order: vertex-only searches pick the most constrained vertex next
(smallest domain by ``bit_count``, then most labeled neighbors, then index),
which keeps backtracking shallow even on 50-vertex trees.  The combined
search labels all vertices first, in a Prim-style sweep seeded at the
highest-degree vertex, then all edges grouped by that vertex order so each
vertex's incident set completes early.  Values are tried ascending unless a
shuffle seed is set.
"""

from __future__ import annotations

import time
from math import gcd, isqrt
from random import Random
from typing import NamedTuple, Optional

from .errors import InvalidParameterError, NotFoundWithinBoundError
from .graphs import Edge, FamilySpec, Graph, build_family
from .labeling import Labeling

FOUND = "found"
EXHAUSTED = "exhausted_no_solution"
BUDGET_EXCEEDED = "budget_exceeded"

INFEASIBLE = "infeasible"
INCONCLUSIVE = "inconclusive"


class SearchConfig:
    """Budgets and knobs; results are deterministic for a fixed config.

    ``symmetry_breaking`` pins the smallest vertex label to vertex 0, which
    is sound only for vertex-transitive inputs (cycles, complete graphs); the
    caller is responsible for that judgement.  Configs are immutable.
    """

    __slots__ = ("node_budget", "time_budget", "symmetry_breaking", "randomize")

    node_budget: int
    time_budget: Optional[float]
    symmetry_breaking: bool
    randomize: Optional[int]

    def __init__(
        self,
        node_budget: int = 100_000_000,
        time_budget: Optional[float] = None,
        symmetry_breaking: bool = False,
        randomize: Optional[int] = None,
    ) -> None:
        if node_budget <= 0:
            raise InvalidParameterError("node budget must be positive")
        # written so that NaN, which compares False both ways, is refused
        if time_budget is not None and not time_budget > 0:
            raise InvalidParameterError("time budget must be positive")
        init = object.__setattr__
        init(self, "node_budget", node_budget)
        init(self, "time_budget", time_budget)
        init(self, "symmetry_breaking", symmetry_breaking)
        init(self, "randomize", randomize)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable SearchConfig")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable SearchConfig")

    def _key(self) -> tuple:
        return (self.node_budget, self.time_budget, self.symmetry_breaking, self.randomize)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"SearchConfig(node_budget={self.node_budget!r}, time_budget={self.time_budget!r}, "
            f"symmetry_breaking={self.symmetry_breaking!r}, randomize={self.randomize!r})"
        )

    # pickle and copy rebuild through __init__, since assignment is refused
    def __reduce__(self):
        return SearchConfig, self._key()


class SearchOutcome(NamedTuple):
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
    """Exact maximum independent set size of a component, by branching."""
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


def _forest_independent_set(bottom_up, parent, vlab, blocked) -> list[int]:
    """A maximum independent set of the forest induced on the vertices that
    are unlabeled and have no even-labeled neighbor (bit 2 of ``blocked``),
    in one greedy pass: a vertex is taken when it is eligible and none of its
    children was.  ``bottom_up`` lists each vertex after its children in the
    spanning forest given by ``parent``."""
    child_taken = [False] * len(parent)
    taken = []
    for v in bottom_up:
        if not vlab[v] and not blocked[v] & 4 and not child_taken[v]:
            child_taken[parent[v]] = True
            taken.append(v)
    return taken


def _component_requirements(g: Graph):
    """Per-component odd vertex-label demands, the vertex->class map, and a
    breadth-first spanning forest for ``_forest_independent_set``: its
    vertices listed so that each follows its children, and each vertex's
    parent (a root is its own).

    A component needs at least (order - independence number) odd labels.
    The independence number is exact up to 30 vertices: from the greedy pass
    over the spanning forest on a tree, by branching on any other component.
    """
    n = g.n
    adjacency = g.adjacency
    comp_of = [-1] * n
    parent = list(range(n))
    order: list[int] = []
    comps = []
    for root in range(n):
        if comp_of[root] >= 0:
            continue
        comp_of[root] = len(comps)
        comp = [root]
        for x in comp:  # breadth first: comp grows as it is read
            for y in adjacency[x]:
                if comp_of[y] < 0:
                    comp_of[y] = len(comps)
                    parent[y] = x
                    comp.append(y)
        comps.append(comp)
        order += comp
    bottom_up = order[::-1]
    nothing = [0] * n
    tree_alpha = [0] * len(comps)
    for v in _forest_independent_set(bottom_up, parent, nothing, nothing):
        tree_alpha[comp_of[v]] += 1
    reqs = []
    for cid, comp in enumerate(comps):
        if len(comp) > 30:
            alpha = len(comp)  # give up on the bound; stays sound
        elif sum(map(g.degree, comp)) == 2 * len(comp) - 2:
            alpha = tree_alpha[cid]
        else:
            alpha = _independence_number(g, comp)
        reqs.append(len(comp) - alpha)
    return reqs, comp_of, bottom_up, parent


def _value_rank(limit: int, seed: Optional[int]) -> Optional[list[int]]:
    """Each value's place in the seeded shuffle of 1..limit (None: ascending)."""
    if seed is None:
        return None
    values = list(range(1, limit + 1))
    Random(seed).shuffle(values)
    rank = [0] * (limit + 1)
    for place, val in enumerate(values):
        rank[val] = place
    return rank


# Entries a generation of the vertex engine's table of exhausted states
# holds before it turns over (see the module docstring), so the table holds
# at most twice as many.  An entry takes about 240 bytes on grid 6x6, so the
# table stays under about 4 MB there; the largest table on the search_deep
# benchmark holds 3,481 entries.
_GENERATION_CAP = 8_192

# Conflict masks up to the largest label limit asked for so far, built on
# first use: bit y of ``_CONFLICTS[x]`` is set when 1 <= y <= top and
# gcd(x, y) > 1 (index 0 is unused and holds 0).  Smaller limits mask it down,
# so the process keeps one table.
_CONFLICTS: list[int] = [0]


def _conflict_masks(limit: int) -> list[int]:
    """The conflict mask of every value up to ``limit``."""
    global _CONFLICTS
    if limit >= len(_CONFLICTS):
        # at least doubling the table lets the increasing bounds of
        # minimum_coprime_number rebuild it only a logarithmic number of times
        top = max(limit, 2 * (len(_CONFLICTS) - 1))
        # smallest prime factor sieve, then each value's mask is the union
        # of the multiples of its prime factors
        spf = list(range(top + 1))
        for p in range(2, isqrt(top) + 1):
            if spf[p] == p:
                for k in range(p * p, top + 1, p):
                    if spf[k] == k:
                        spf[k] = p
        table = [0] * (top + 1)
        multiples: dict[int, int] = {}
        for x in range(2, top + 1):
            p = spf[x]
            if p not in multiples:
                # bits p, 2p, ..., (top // p) * p as one geometric series
                reps = top // p + 1
                multiples[p] = ((1 << (p * reps)) - 1) // ((1 << p) - 1) - 1
            rest = x // p
            while rest % p == 0:
                rest //= p
            table[x] = table[rest] | multiples[p]
        _CONFLICTS = table
    if limit == len(_CONFLICTS) - 1:
        return _CONFLICTS
    keep = (2 << limit) - 1
    return [mask & keep for mask in _CONFLICTS[: limit + 1]]


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
    """Shared state for the vertex and total searches.

    ``free`` has bit x set while label x is unused; for unlabeled v,
    ``blocked[v]`` has bit x set when x shares a prime with the label of some
    labeled neighbor of v, so the values v may still take are
    ``free & ~blocked[v]``.  ``labeled_nbrs`` counts those neighbors and
    breaks ties in the vertex engine's choice of vertex.  A placement leaves
    both alone at its labeled neighbors, which never read them.
    """

    def __init__(self, g: Graph, cfg: SearchConfig, limit: int, requirements=None):
        self.g = g
        self.cfg = cfg
        self.limit = limit
        self.rank = _value_rank(limit, cfg.randomize)
        self.conflict = _conflict_masks(limit)
        self.free = (2 << limit) - 2
        self.blocked = [0] * g.n
        self.labeled_nbrs = [0] * g.n
        self.trail: list[int] = []  # blocked masks overwritten by place_vertex
        self.vlab = [0] * g.n
        self.nodes = 0
        self.deadline = (
            time.perf_counter() + cfg.time_budget if cfg.time_budget else None
        )
        reqs, comp_of, self.bottom_up, self.parent = (
            requirements or _component_requirements(g)
        )
        self.vreq = reqs
        self.vodd = [0] * len(reqs)
        self.vdeficit = sum(reqs)
        self.vertex_class = comp_of
        self.odds_left = (limit + 1) // 2

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.cfg.node_budget:
            raise _OutOfBudget
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.perf_counter() > self.deadline:
                raise _OutOfBudget

    def values_in(self, mask: int) -> list[int]:
        """The values whose bits are set in ``mask``, in try order."""
        values = []
        while mask:
            low = mask & -mask
            values.append(low.bit_length() - 1)
            mask ^= low
        if self.rank is not None:
            values.sort(key=self.rank.__getitem__)
        return values

    def vertex_values(self, v: int, allowed: int) -> list[int]:
        """The values of ``allowed`` (a mask) in try order, less those that
        symmetry breaking rules out for v."""
        values = self.values_in(allowed)
        if self.cfg.symmetry_breaking:
            vlab = self.vlab
            if v == 0:
                others = [vlab[u] for u in range(1, self.g.n) if vlab[u]]
                values = [val for val in values if all(val <= lu for lu in others)]
            elif vlab[0]:
                values = [val for val in values if val >= vlab[0]]
        return values

    def odd_values_fail(self, v: int, need: int = 0) -> bool:
        """Whether an odd label at v breaks the odd-label count: it does when
        v's class already has its odd vertex labels and none is spare.  Even
        labels leave the count as it was, and the count held before v."""
        cls = self.vertex_class[v]
        return self.vodd[cls] >= self.vreq[cls] and self.vdeficit + need == self.odds_left

    def place_vertex(self, v: int, val: int) -> None:
        self.free ^= 1 << val
        vlab = self.vlab
        vlab[v] = val
        conflict = self.conflict[val]
        blocked = self.blocked
        labeled_nbrs = self.labeled_nbrs
        trail = self.trail
        for u in self.g.adjacency[v]:
            if not vlab[u]:
                trail.append(blocked[u])
                blocked[u] |= conflict
                labeled_nbrs[u] += 1
        if val & 1:
            cls = self.vertex_class[v]
            self.odds_left -= 1
            if self.vodd[cls] < self.vreq[cls]:
                self.vdeficit -= 1
            self.vodd[cls] += 1

    def unplace_vertex(self, v: int, val: int) -> None:
        if val & 1:
            cls = self.vertex_class[v]
            self.vodd[cls] -= 1
            if self.vodd[cls] < self.vreq[cls]:
                self.vdeficit += 1
            self.odds_left += 1
        blocked = self.blocked
        labeled_nbrs = self.labeled_nbrs
        trail = self.trail
        vlab = self.vlab
        for u in reversed(self.g.adjacency[v]):
            if not vlab[u]:
                blocked[u] = trail.pop()
                labeled_nbrs[u] -= 1
        vlab[v] = 0
        self.free ^= 1 << val


class _VertexEngine(_Engine):
    """Injective vertex labeling into 1..limit with coprime adjacency."""

    def __init__(self, g: Graph, cfg: SearchConfig, limit: int, requirements=None):
        super().__init__(g, cfg, limit, requirements)
        self.is_forest = g.m == g.n - len(self.vreq)
        # state key -> nodes spent by a subtree searched to exhaustion from
        # it, in two generations: new entries go to ``exhausted``, and a full
        # ``exhausted`` becomes ``older``, dropping the previous ``older``
        self.exhausted: dict[int, int] = {}
        self.older: dict[int, int] = {}

    def _even_placement_ok(self, unassigned: int) -> bool:
        """On forests: the evens still forced onto vertices must fit an
        independent set of unassigned vertices with no even neighbor."""
        evens_needed = unassigned - self.odds_left
        return evens_needed <= 0 or len(
            _forest_independent_set(self.bottom_up, self.parent, self.vlab, self.blocked)
        ) >= evens_needed

    def _state_key(self) -> int:
        """The current state's key; the module docstring says what it packs
        and why that is all the subtree below it reads."""
        width = self.limit + 1
        free = self.free
        key = free
        for odd in self.vodd:
            key = key << width | odd
        seen = free | 4
        blocked = self.blocked
        vlab = self.vlab
        for v in range(self.g.n):
            key = key << width | (1 if vlab[v] else blocked[v] & seen)
        return key

    def _replay(self, spent: int) -> None:
        """Count an exhausted subtree's nodes again without searching it,
        stopping where spend() would have."""
        self.nodes += spent
        if self.nodes > self.cfg.node_budget:
            self.nodes = self.cfg.node_budget + 1
            raise _OutOfBudget
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise _OutOfBudget

    def _pick_vertex(self) -> tuple[int, int]:
        """The unassigned vertex minimising (domain size, -labeled neighbors,
        index), with its domain as a mask; stops early at an empty domain."""
        free = self.free
        blocked = self.blocked
        labeled_nbrs = self.labeled_nbrs
        vlab = self.vlab
        best, best_allowed = -1, 0
        best_size, best_nbrs = self.limit + 1, 0
        for v in range(self.g.n):
            if vlab[v]:
                continue
            allowed = free & ~blocked[v]
            size = allowed.bit_count()
            if size < best_size or (size == best_size and labeled_nbrs[v] > best_nbrs):
                best, best_allowed = v, allowed
                best_size, best_nbrs = size, labeled_nbrs[v]
                if size == 0:
                    break
        return best, best_allowed

    def run(self) -> bool:
        if self.vdeficit > self.odds_left:
            return False
        return self._assign(0)

    def _assign(self, count: int) -> bool:
        if count == self.g.n:
            return True
        v, allowed = self._pick_vertex()
        if not allowed:
            return False
        key = None
        if self.exhausted:  # a search that never fails builds no key
            key = self._state_key()
            spent = self.exhausted.get(key)
            if spent is None:
                spent = self.older.get(key)
            if spent is not None:
                self._replay(spent)
                return False
        start = self.nodes
        odd_fails = self.odd_values_fail(v)
        # a value that empties the domain of an unlabeled neighbor fails in
        # the child's _pick_vertex before it spends a node, so it is refused
        # here before place_vertex rewrites the neighbors' masks
        free, blocked, vlab = self.free, self.blocked, self.vlab
        domains = [free & ~blocked[u] for u in self.g.adjacency[v] if not vlab[u]]
        conflict = self.conflict
        for val in self.vertex_values(v, allowed):
            self.spend()
            if val & 1 and odd_fails:
                continue
            keep = ~(conflict[val] | 1 << val)
            if not all(map(keep.__and__, domains)):
                continue
            self.place_vertex(v, val)
            if (
                not self.is_forest or self._even_placement_ok(self.g.n - count - 1)
            ) and self._assign(count + 1):
                return True
            self.unplace_vertex(v, val)
        if self.nodes > start:
            # every placement is undone, so the state is the one at entry
            if len(self.exhausted) >= _GENERATION_CAP:
                self.older, self.exhausted = self.exhausted, {}
            self.exhausted[self._state_key() if key is None else key] = self.nodes - start
        return False

    def labeling(self) -> Labeling:
        return Labeling(list(self.vlab), {})


class _CoverPool:
    """Vertices that each still need an odd incident edge label, and the
    unassigned edges joining two of them, counted in place as labels land.

    Every vertex of degree >= 2 needs an odd incident edge (all-even incident
    labels share the factor 2); one odd edge serves two such vertices only
    along an unassigned edge joining them, so at least
    ``max(ceil(uncovered / 2), uncovered - pairs)`` odd edge labels are still
    required.
    """

    __slots__ = ("member", "is_pair", "pairs_at", "uncovered", "pairs")

    def __init__(self, g: Graph, member: list[bool]):
        self.member = member
        self.is_pair = [member[u] and member[v] for u, v in g.edges]
        self.pairs_at: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for ei, (u, v) in enumerate(g.edges):
            if self.is_pair[ei]:
                self.pairs_at[u].append((ei, v))
                self.pairs_at[v].append((ei, u))
        self.uncovered = sum(member)
        self.pairs = sum(self.is_pair)

    def need(self) -> int:
        cnt = self.uncovered
        if cnt == 0:
            return 0
        return max((cnt + 1) // 2, cnt - self.pairs)

    def count_edge(
        self, ei: int, u: int, v: int, odd: int, step: int, elab, odd_inc
    ) -> None:
        """Take edge ei = (u, v) out of the counts (``step`` -1, right after it
        is labeled) or put it back (+1, right before its label is cleared);
        at both moments ``odd_inc`` does not count its label."""
        if self.is_pair[ei] and not odd_inc[u] and not odd_inc[v]:
            self.pairs += step
        if not odd:
            return
        member = self.member
        for x in (u, v):
            if member[x] and not odd_inc[x]:
                self.uncovered += step
                for e2, w in self.pairs_at[x]:
                    if not elab[e2] and not odd_inc[w]:
                        self.pairs += step


class _TotalEngine(_Engine):
    """Bijective labeling of vertices and edges onto 1..n+m.

    Vertices are labeled first in ``vorder``, then edges in ``eorder``.
    """

    def __init__(self, g: Graph, cfg: SearchConfig):
        super().__init__(g, cfg, g.n + g.m)
        self.vorder = _vertex_order(g)
        index_of = {e: i for i, e in enumerate(g.edges)}
        eorder: list[int] = []
        listed = set()
        for v in self.vorder:
            for u in g.adjacency[v]:
                ei = index_of[(u, v) if u < v else (v, u)]
                if ei not in listed:
                    listed.add(ei)
                    eorder.append(ei)
        self.eorder = eorder
        self.elab = [0] * g.m
        self.internal = [g.degree(v) >= 2 for v in range(g.n)]
        self.pending = [g.degree(v) for v in range(g.n)]
        self.egcd = [0] * g.n
        self.odd_inc = [0] * g.n
        # the degree-exactly-2 pool pairs only along degree2-degree2 edges,
        # which is sometimes the sharper bound; the need is the max of both
        # (one pool when the two vertex sets coincide)
        d2 = [g.degree(v) == 2 for v in range(g.n)]
        self.pools = [_CoverPool(g, self.internal)]
        if d2 != self.internal:
            self.pools.append(_CoverPool(g, d2))
        self.need = max(pool.need() for pool in self.pools)

    def feasible(self) -> bool:
        """The odd labels left must cover the odd vertex labels and the odd
        edge labels still required; vertex placements never move ``need``."""
        return self.vdeficit + self.need <= self.odds_left

    def run(self) -> bool:
        return self.feasible() and self._assign_vertex(0)

    def _assign_vertex(self, i: int) -> bool:
        if i == self.g.n:
            return self._assign_edge(0)
        v = self.vorder[i]
        odd_fails = self.odd_values_fail(v, self.need)
        for val in self.vertex_values(v, self.free & ~self.blocked[v]):
            self.spend()
            if val & 1 and odd_fails:
                continue
            self.place_vertex(v, val)
            if self._assign_vertex(i + 1):
                return True
            self.unplace_vertex(v, val)
        return False

    def _assign_edge(self, j: int) -> bool:
        if j == len(self.eorder):
            return True
        ei = self.eorder[j]
        u, v = self.g.edges[ei]
        elab = self.elab
        egcd = self.egcd
        pending = self.pending
        odd_inc = self.odd_inc
        pools = self.pools
        # the last edge at a vertex of degree >= 2 must be coprime to the gcd
        # of the labels already on its other edges
        allowed = self.free
        if self.internal[u] and pending[u] == 1:
            allowed &= ~self.conflict[egcd[u]]
        if self.internal[v] and pending[v] == 1:
            allowed &= ~self.conflict[egcd[v]]
        for val in self.values_in(allowed):
            self.spend()
            self.free ^= 1 << val
            elab[ei] = val
            old_u, old_v = egcd[u], egcd[v]
            egcd[u] = gcd(old_u, val)
            egcd[v] = gcd(old_v, val)
            pending[u] -= 1
            pending[v] -= 1
            odd = val & 1
            need = self.need
            for pool in pools:
                pool.count_edge(ei, u, v, odd, -1, elab, odd_inc)
            self.need = max(pool.need() for pool in pools)
            if odd:
                self.odds_left -= 1
                odd_inc[u] += 1
                odd_inc[v] += 1
            if self.feasible() and self._assign_edge(j + 1):
                return True
            if odd:
                odd_inc[u] -= 1
                odd_inc[v] -= 1
                self.odds_left += 1
            for pool in pools:
                pool.count_edge(ei, u, v, odd, 1, elab, odd_inc)
            self.need = need
            pending[u] += 1
            pending[v] += 1
            egcd[u], egcd[v] = old_u, old_v
            elab[ei] = 0
            self.free ^= 1 << val
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
    return find_coprime(g, g.n, cfg)


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


class MinimumCoprimeResult(NamedTuple):
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
    requirements = _component_requirements(g)  # the same for every bound
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
        bound_cfg = SearchConfig(remaining, time_left, cfg.symmetry_breaking, cfg.randomize)
        outcome = _run(
            _VertexEngine(g, bound_cfg, bound, requirements), time.perf_counter()
        )
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


class OddCountCertificate(NamedTuple):
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
