"""Exhaustive backtracking engines for total prime, prime, and coprime
labelings, plus the odd-label counting certificate for unions with stacks of
triangles.

Searches are complete and deterministic for a fixed SearchConfig.  One loop
labels the vertices for every search: ``_VertexEngine``.  The total search,
``_TotalEngine``, is that loop into 1..n+m, in a fixed vertex order, with the
odd edge labels still required (``need``) in its odd-label count; its leaf,
reached once every vertex is labeled, is the edge phase.

Representation: label sets are Python ints used as bitsets, bit x standing
for label x.  Each engine builds its own table of conflict masks up to its
label limit (bit y of the mask of x is set when gcd(x, y) > 1), sieving the
primes as it goes; nothing is kept between calls.  The engines keep a
``free`` mask of unused labels and, per unlabeled vertex, a ``blocked``
mask: the union of the conflict masks of its labeled neighbors, updated
when a neighbor is labeled and restored from a trail when the label is
taken back.  A vertex's domain is ``free & ~blocked[v]``; candidate values
are read off its set bits.

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
  exceeds the unused odd labels.  The edge bound is kept as engine state:
  per pool of vertices, the counts of uncovered members and of unassigned
  edges joining two of them.  They change only when an edge is labeled; the
  edge's step sets them after a label of each parity and restores the ones
  it found.
  The edge demand never exceeds the unassigned edges: an uncovered vertex
  keeps an unassigned incident edge, since the last-edge rule forces its
  last edge odd, so the unassigned edges cover every uncovered vertex.
* forest parity placement: on forests, the even labels still to be placed
  must fit an independent set of unassigned vertices with no even-labeled
  neighbor.  Eligibility is read off ``blocked``, whose bit 2 is set exactly
  when v has an even-labeled neighbor.  The largest such set comes from one
  greedy pass up a breadth-first spanning forest, built once per engine
  beside the class demands (so once per search call): a
  vertex is taken when it is eligible and none of its children was, which
  is exact on a forest.  The same pass with every vertex eligible gives the
  independence number of a tree component for odd-label counting; other
  components get it by branching.

Checks before a placement: a value counts as a node when it is tried, but
a check whose outcome the current state already decides runs before
``place_vertex`` rewrites the neighbors' masks.  The odd-label count is one:
an even vertex label leaves it unchanged, and an odd one breaks it exactly
when the vertex's class has its odd labels and none is spare, counting
``need`` (0 outside the total search).  A value that would empty the domain
of an unlabeled neighbor is another, as that neighbor could take nothing
below it; in the most-constrained order the child's choice of vertex finds
the empty domain before it spends a node.  The forest rule and the
edge-phase checks run after the label is placed.

Exhausted states: the vertex engine keeps one table per label limit (per
search call, and per bound of ``minimum_coprime_number``; nothing is kept
across calls) from a state key to the nodes spent by a subtree searched
from that state to exhaustion; the total search's edge phase stores its own
states in the same table.  When a key comes back, the recorded count is
added to ``nodes`` and the subtree is not searched again; a count that
passes ``node_budget`` stops the search exactly where ``spend()`` would
have, and a hit also checks the deadline.
Only a subtree that returned no labeling after spending at least one node
is stored: every placement below it was undone, so the state at its exit is
the state at its entry.  A state is looked up before its vertex is picked;
one whose pick finds an empty domain spends no node and is never stored.
Keys are built and looked up only once the table holds an entry, so a
search that never fails builds none.  The table keeps two generations so
that memory stays bounded on long searches: new entries go to the newer
one, a lookup reads both, and an entry that would take the newer one past
``_GENERATION_CAP`` entries or ``_GENERATION_BYTES`` of keys first makes it
the older one, dropping the previous older one.  The states a search is
still coming back to are mostly recent, so they survive the turnover; a
dropped state is searched again and spends the nodes its replay would have
added.  Node counts, statuses and labelings are those of the search without
the table.

The key joins fields of ``limit // 8 + 1`` bytes each, so it is built in
time linear in its length: ``free``; each class's count of odd vertex
labels; per vertex in index order 1 when labeled, else
``blocked[v] & (free | 4)``.  A field of an unlabeled vertex never has bit 0
set, so it cannot be taken for a labeled one.  Everything the subtree reads
follows from the key: the domains ``free & ~blocked[v]``; ``labeled_nbrs``,
from the labeled set; ``odds_left()``, from ``free``;
``vdeficit``, from the odd counts; the neighbor-wipeout check;
``place_vertex``'s updates, since blocked labels that are no longer free
stay out of every later domain; the forest rule's eligibility, as bit 2 of
``blocked[v]`` is set exactly when v has an even-labeled neighbor; and
symmetry breaking, which keeps vertex 0's label below every other label, so
that the label it compares against (vertex 0's, or the smallest elsewhere
while vertex 0 is unlabeled) is the smallest label not in ``free``.

The key stays exact when the edge phase is the leaf.  The edge phase never
reads a vertex label: it reads ``free`` and its own state (edge labels, the
gcd of the labeled edges at each vertex, the cover counts), which it restores
on exit.  ``need`` is constant during the vertex phase, and ``vdeficit`` is
0 once every vertex is labeled, since the even labels of a component form an
independent set.

An edge-phase key, taken before the j-th edge of the edge order, holds
``free`` and then the incident gcd of each open vertex, one of degree >= 2
with an edge still to label, in index order.  That is all the phase reads
from there.  ``free`` has m - j bits, so it fixes j: the labeled edges,
the open vertices, ``odds_left()``, and the vertices edge j is the last
edge of (those that leave the open set after it), whose gcds are all the
last-edge rule reads.  A vertex-phase key opens with a ``free`` of more
than m bits, so the two kinds of key never meet.  A vertex has an odd
incident edge exactly when its gcd is odd, and a vertex of degree >= 2
whose edges are all labeled has gcd 1 by the last-edge rule, so each pool's
counts (uncovered members, unlabeled edges joining two of them) and
``need`` follow from the open gcds.

Variable order: the vertex engine picks the most constrained vertex next
(smallest domain by ``bit_count``, then most labeled neighbors, then index),
which keeps backtracking shallow even on 50-vertex trees.  The total search
replaces that choice with a Prim-style sweep seeded at the highest-degree
vertex, and labels the edges grouped by that vertex order so each vertex's
incident set completes early.  Values are tried ascending, each peeled as
the lowest set bit of the mask of untried values, unless a shuffle seed is
set; then the seeded order of all labels is read through the mask.  No
search step lists its domain.

Explicit stack: ``_assign`` and ``_assign_edge`` return True or False when
the state decides at once, else a step: a generator that tries one vertex's
or edge's values, yields each sub-search and is sent its result.  ``_drive``
runs the steps on a list of suspended generators, so no search touches the
interpreter's recursion limit, however many labels deep it goes.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from math import gcd
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


class _SearchConfigFields(NamedTuple):
    node_budget: int = 100_000_000
    time_budget: Optional[float] = None
    symmetry_breaking: bool = False
    randomize: Optional[int] = None


class SearchConfig(_SearchConfigFields):
    """Budgets and knobs; results are deterministic for a fixed config.

    ``symmetry_breaking`` pins the smallest vertex label to vertex 0, which
    is sound only for vertex-transitive inputs (cycles, complete graphs,
    prisms, cycle powers); the caller is responsible for that judgement.
    Every way of making a config (the constructor, ``_make``, ``_replace``,
    copy and pickle) checks the budgets.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        if cfg.node_budget <= 0:
            raise InvalidParameterError("node budget must be positive")
        # written so that NaN, which compares False both ways, is refused
        if cfg.time_budget is not None and not cfg.time_budget > 0:
            raise InvalidParameterError("time budget must be positive")
        return cfg

    # the inherited _make builds the tuple directly, skipping the checks
    _make = classmethod(lambda cls, fields: cls(*fields))


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
    adjacency = g.adjacency
    adj = {v: set(adjacency[v]) & set(comp) for v in comp}

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
        elif sum(len(adjacency[v]) for v in comp) == 2 * len(comp) - 2:
            alpha = tree_alpha[cid]
        else:
            alpha = _independence_number(g, comp)
        reqs.append(len(comp) - alpha)
    return reqs, comp_of, bottom_up, parent


# Entries a generation of the vertex engine's table of exhausted states
# holds before it turns over (see the module docstring), so the table holds
# at most twice as many.  An entry takes about 240 bytes on grid 6x6, so the
# table stays under about 4 MB there; the largest table on the search_deep
# benchmark holds 3,481 entries.  A generation also holds at most
# ``_GENERATION_BYTES`` of keys, counted as they are stored, which caps it
# below ``_GENERATION_CAP`` once keys average more than 256 bytes (a
# vertex-phase key of n vertices and limit L takes about n * L / 8 bytes:
# 63 KB on a 500-cycle's total search).
_GENERATION_CAP = 8_192
_GENERATION_BYTES = 2 << 20


def _conflict_masks(limit: int) -> list[int]:
    """The conflict mask of every value up to ``limit``: bit y of entry x is
    set when 1 <= y <= limit and gcd(x, y) > 1 (entries 0 and 1 hold 0).

    The table sieves itself: an entry still 0 when the loop reaches it is a
    prime, whose multiples mask is ORed into the entry of each multiple."""
    keep = (2 << limit) - 1
    table = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if table[p]:
            continue
        # bits p, 2p, ..., (limit // p) * p, doubling the run of multiples
        multiples, span = 1 << p, p
        while span < limit:
            multiples |= multiples << span
            span *= 2
        multiples &= keep
        for x in range(p, limit + 1, p):
            table[x] |= multiples
    return table


def _vertex_order(g: Graph) -> list[int]:
    """Prim-style sweep: highest degree first, then greedily the vertex with
    the most already-ordered neighbors (ties by degree, then index).

    Every vertex after the first in its component has an ordered neighbor, so
    adjacent-coprimality conflicts surface immediately instead of after deep
    unconstrained assignments.
    """
    adjacency = g.adjacency
    degrees = list(map(len, adjacency))
    placed = [False] * g.n
    seen_nbrs = [0] * g.n
    # the smallest entry is the vertex to place next; a vertex's newest entry
    # is its smallest, since seen_nbrs only grows, so older ones are skipped
    heap = [(0, -d, v) for v, d in enumerate(degrees)]
    heapify(heap)
    ordered: list[int] = []
    while heap:
        best = heappop(heap)[2]
        if placed[best]:
            continue
        ordered.append(best)
        placed[best] = True
        for u in adjacency[best]:
            if not placed[u]:
                seen_nbrs[u] += 1
                heappush(heap, (-seen_nbrs[u], -degrees[u], u))
    return ordered


class _VertexEngine:
    """Injective vertex labeling into 1..limit with coprime adjacency.

    ``free`` has bit x set while label x is unused; for unlabeled v,
    ``blocked[v]`` has bit x set when x shares a prime with the label of some
    labeled neighbor of v, so the values v may still take are
    ``free & ~blocked[v]``.  ``labeled_nbrs`` counts those neighbors and
    breaks ties in the choice of vertex.  A placement leaves both alone at its
    labeled neighbors, which never read them.  ``need`` is the number of odd
    edge labels still required: 0 here, kept by the total engine.

    A search call runs on one engine, so its node count and deadline span the
    call; ``minimum_coprime_number`` moves it between bounds with
    ``set_limit``, sound as an exhausted search has undone every placement.

    CPython 3.11 keeps at most 29 attributes of an instance inline; a 30th
    moves them all into a dict, which makes every attribute read slower and
    the engine's set-up twice as slow, so this engine stays within 29 (the
    total engine's edge phase takes it past them).
    """

    def __init__(self, g: Graph, cfg: SearchConfig, limit: int):
        self.started = time.perf_counter()
        self.g = g
        self.adjacency = g.adjacency  # read at every node
        self.cfg = cfg
        self.node_budget = cfg.node_budget  # an attribute reads faster per node
        self.blocked = [0] * g.n
        self.labeled_nbrs = [0] * g.n
        self.trail: list[int] = []  # blocked masks overwritten by place_vertex
        self.vlab = [0] * g.n
        self.nodes = 0
        self.deadline = self.started + cfg.time_budget if cfg.time_budget else None
        reqs, comp_of, bottom_up, parent = _component_requirements(g)
        self.vreq = reqs
        self.vodd = [0] * len(reqs)
        self.vdeficit = sum(reqs)
        self.vertex_class = comp_of
        self.need = 0
        # the spanning forest the forest rule reads, kept on forests only
        self.forest = (bottom_up, parent) if g.m == g.n - len(reqs) else None
        self.set_limit(limit)

    def set_limit(self, limit: int) -> None:
        """Label into 1..limit, every label free and the table of exhausted
        states empty: all that depends on the limit.  No vertex is labeled."""
        self.limit = limit
        self.order = None  # values are tried ascending, or in this order
        if self.cfg.randomize is not None:
            self.order = list(range(1, limit + 1))
            Random(self.cfg.randomize).shuffle(self.order)
        self.conflict = _conflict_masks(limit)
        self.free = (2 << limit) - 2
        # the odd labels: bits 1, 3, 5, ... up to limit, twice 1 + 4 + 16 + ...
        self.odd_labels = (4 ** ((limit + 1) // 2) - 1) // 3 * 2
        # state key -> nodes spent by a subtree searched to exhaustion from
        # it, in two generations: new entries go to ``exhausted``, and a full
        # ``exhausted`` becomes ``older``, dropping the previous ``older``
        self.exhausted: dict[bytes, int] = {}
        self.older: dict[bytes, int] = {}
        self.exhausted_bytes = 0  # the bytes of the keys in ``exhausted``
        # each field of a state key takes this many bytes: every field is
        # below 2 ** (limit + 1), or is at most 4 when limit < 2
        self.field_bytes = limit // 8 + 1
        # the fields of labeled vertices and of vertices with no labeled
        # neighbor are the same every time, so they are made once
        self.labeled_field = (1).to_bytes(self.field_bytes, "little")
        self.unblocked_field = bytes(self.field_bytes)

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _OutOfBudget
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.perf_counter() > self.deadline:
                raise _OutOfBudget

    def seeded(self, mask: int):
        """The values of ``mask`` in the seeded order, read as they are tried."""
        return (x for x in self.order if mask >> x & 1)

    def odds_left(self) -> int:
        """The number of odd labels still unused."""
        return (self.free & self.odd_labels).bit_count()

    def feasible(self) -> bool:
        """The odd labels left must cover the odd vertex labels and the odd
        edge labels still required; vertex placements never move ``need``."""
        return self.vdeficit + self.need <= self.odds_left()

    def odd_values_fail(self, v: int) -> bool:
        """Whether an odd label at v breaks the odd-label count: it does when
        v's class already has its odd vertex labels and none is spare.  Even
        labels leave the count as it was, and the count held before v."""
        cls = self.vertex_class[v]
        return self.vodd[cls] >= self.vreq[cls] and self.vdeficit + self.need == self.odds_left()

    def place_vertex(self, v: int, val: int) -> None:
        self.free ^= 1 << val
        vlab = self.vlab
        vlab[v] = val
        conflict = self.conflict[val]
        blocked = self.blocked
        labeled_nbrs = self.labeled_nbrs
        trail = self.trail
        for u in self.adjacency[v]:
            if not vlab[u]:
                trail.append(blocked[u])
                blocked[u] |= conflict
                labeled_nbrs[u] += 1
        if val & 1:
            cls = self.vertex_class[v]
            if self.vodd[cls] < self.vreq[cls]:
                self.vdeficit -= 1
            self.vodd[cls] += 1

    def unplace_vertex(self, v: int, val: int) -> None:
        if val & 1:
            cls = self.vertex_class[v]
            self.vodd[cls] -= 1
            if self.vodd[cls] < self.vreq[cls]:
                self.vdeficit += 1
        blocked = self.blocked
        labeled_nbrs = self.labeled_nbrs
        trail = self.trail
        vlab = self.vlab
        for u in reversed(self.adjacency[v]):
            if not vlab[u]:
                blocked[u] = trail.pop()
                labeled_nbrs[u] -= 1
        vlab[v] = 0
        self.free ^= 1 << val

    def _even_placement_ok(self, unassigned: int) -> bool:
        """On forests: the evens still forced onto vertices must fit an
        independent set of unassigned vertices with no even neighbor."""
        evens_needed = unassigned - self.odds_left()
        return evens_needed <= 0 or len(
            _forest_independent_set(*self.forest, self.vlab, self.blocked)
        ) >= evens_needed

    def _state_key(self) -> bytes:
        """The current state's key; the module docstring says what it packs
        and why that is all the subtree below it reads."""
        size = self.field_bytes
        free = self.free
        seen = free | 4
        labeled, unblocked = self.labeled_field, self.unblocked_field
        parts = [free.to_bytes(size, "little")]
        for odd in self.vodd:
            parts.append(odd.to_bytes(size, "little"))
        for lab, mask in zip(self.vlab, self.blocked):
            if lab:
                parts.append(labeled)
            else:
                parts.append((mask & seen).to_bytes(size, "little") if mask else unblocked)
        return b"".join(parts)

    def _replayed(self, key: bytes) -> bool:
        """Whether the subtree at ``key`` was searched to exhaustion; if so,
        count its nodes again without searching it, stopping where spend()
        would have."""
        spent = self.exhausted.get(key)
        if spent is None:
            spent = self.older.get(key)
            if spent is None:
                return False
        self.nodes += spent
        if self.nodes > self.node_budget:
            self.nodes = self.node_budget + 1
            raise _OutOfBudget
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise _OutOfBudget
        return True

    def _store(self, key: bytes, spent: int) -> None:
        """Record that the subtree at ``key`` spent ``spent`` nodes and found
        nothing, turning the generations over first when the newer one is
        full."""
        if (
            len(self.exhausted) >= _GENERATION_CAP
            or self.exhausted_bytes + len(key) > _GENERATION_BYTES
        ):
            self.older, self.exhausted, self.exhausted_bytes = self.exhausted, {}, 0
        self.exhausted[key] = spent
        self.exhausted_bytes += len(key)

    def _pick_vertex(self, count: int) -> tuple[int, int]:
        """The unassigned vertex minimising (domain size, -labeled neighbors,
        index), with its domain as a mask; stops early at an empty domain.
        ``count`` vertices are labeled so far."""
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

    def _leaf(self):
        """The search of what is left once every vertex is labeled: none."""
        return True

    def _assign(self, count: int):
        """The search of the vertices left once ``count`` are labeled."""
        if count == self.g.n:
            return self._leaf()
        key = None
        if self.exhausted:  # a search that never fails builds no key
            key = self._state_key()
            if self._replayed(key):
                return False
        v, allowed = self._pick_vertex(count)
        if not allowed:
            return False
        return self._try_vertex(count, v, allowed, key)

    def _try_vertex(self, count: int, v: int, allowed: int, key):
        """The step that tries v's values; ``key`` is None if not built."""
        free, blocked, vlab = self.free, self.blocked, self.vlab
        if self.cfg.symmetry_breaking:  # vertex 0 takes the smallest label
            if v == 0:
                used = ((2 << self.limit) - 2) & ~free  # the labels placed so far
                if used:
                    allowed &= ((used & -used) << 1) - 1
            elif vlab[0]:
                allowed &= -(1 << vlab[0])
        start = self.nodes
        odd_fails = self.odd_values_fail(v)
        # a value that empties the domain of an unlabeled neighbor leaves that
        # neighbor nothing to take, so it is refused here before place_vertex
        # rewrites the neighbors' masks
        domains = [free & ~blocked[u] for u in self.adjacency[v] if not vlab[u]]
        conflict = self.conflict
        seeded = None if self.order is None else self.seeded(allowed)
        while allowed:
            val = (allowed & -allowed).bit_length() - 1 if seeded is None else next(seeded)
            allowed ^= 1 << val
            self.spend()
            if val & 1 and odd_fails:
                continue
            keep = ~(conflict[val] | 1 << val)
            if not all(map(keep.__and__, domains)):
                continue
            self.place_vertex(v, val)
            if (
                self.forest is None or self._even_placement_ok(self.g.n - count - 1)
            ) and (yield self._assign(count + 1)):
                return True
            self.unplace_vertex(v, val)
        if self.nodes > start:
            # every placement is undone, so the state is the one at entry
            self._store(self._state_key() if key is None else key, self.nodes - start)
        return False

    def labeling(self) -> Labeling:
        return Labeling(list(self.vlab), {})


def _odd_edge_need(uncovered: list[int], pairs: list[int]) -> int:
    """The odd edge labels still required.  Every vertex of degree >= 2 needs
    an odd incident edge (all-even incident labels share the factor 2), and
    one odd edge serves two such vertices only along an unlabeled edge joining
    them, so a pool of c uncovered members and p such edges between them
    needs at least max(ceil(c / 2), c - p)."""
    return max(max((c + 1) // 2, c - p) for c, p in zip(uncovered, pairs))


class _TotalEngine(_VertexEngine):
    """Bijective labeling of vertices and edges onto 1..n+m.

    The vertex engine labels the vertices in ``vorder``, with the odd edge
    labels still required counted in ``need``; its leaf labels the edges in
    ``eorder``, grouped by that vertex order so each vertex's incident set
    completes early.
    """

    def __init__(self, g: Graph, cfg: SearchConfig):
        super().__init__(g, cfg, g.n + g.m)
        self.vorder = _vertex_order(g)
        place = [0] * g.n
        for i, v in enumerate(self.vorder):
            place[v] = i

        def earlier_end_first(ei: int) -> tuple[int, int]:
            u, v = g.edges[ei]
            return (place[u], v) if place[u] < place[v] else (place[v], u)

        self.eorder = sorted(range(g.m), key=earlier_end_first)
        self.elab = [0] * g.m
        # the gcd of the labels on each vertex's labeled edges (0 while none)
        self.egcd = [0] * g.n
        degrees = list(map(len, self.adjacency))
        internal = [d >= 2 for d in degrees]
        # bit v of open_masks[j] is set when v has degree >= 2 and an edge in
        # eorder[j:]: the vertices whose incident gcd the edge phase reads
        # from edge j on; open_masks[m] is 0
        self.open_masks = [0] * (g.m + 1)
        # per vertex, its edges as (place in eorder, other end), latest first
        self.edges_at: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        open_mask = 0
        for j in reversed(range(g.m)):
            u, v = g.edges[self.eorder[j]]
            open_mask |= internal[u] << u | internal[v] << v
            self.open_masks[j] = open_mask
            self.edges_at[u].append((j, v))
            self.edges_at[v].append((j, u))
        # the pools of vertices whose odd-edge need is counted: the
        # degree-exactly-2 pool pairs only along degree2-degree2 edges, which
        # is sometimes the sharper bound; the need is the max of both (one
        # pool when the two vertex sets coincide).  A member is uncovered
        # while no labeled edge at it is odd, that is while its gcd is even.
        d2 = [d == 2 for d in degrees]
        self.pools = [internal] if d2 == internal else [internal, d2]
        # per pool, the counts of uncovered members and of unlabeled edges
        # joining two of them
        self.uncovered = [sum(member) for member in self.pools]
        self.pairs = [sum(m[u] and m[v] for u, v in g.edges) for m in self.pools]
        self.need = _odd_edge_need(self.uncovered, self.pairs)

    def _cover_after(self, j: int, u: int, v: int, odd: int):
        """``uncovered``, ``pairs`` and ``need`` once edge ``eorder[j]`` =
        (u, v) takes a label, odd or not: the edge leaves the pairs, and an
        odd label covers u and v, taking their pairs along.  Coverage is read
        off the gcds, so this runs before they count edge j."""
        egcd = self.egcd
        even_u, even_v = not egcd[u] & 1, not egcd[v] & 1
        both = even_u and even_v
        # an even label changes nothing unless both ends are uncovered, an
        # odd one nothing unless either is
        if not (both or odd and (even_u or even_v)):
            return self.uncovered, self.pairs, self.need
        uncovered, pairs = [], []
        for member, c, p in zip(self.pools, self.uncovered, self.pairs):
            p -= both and member[u] and member[v]
            for x in (u, v) if odd else ():
                if member[x] and not egcd[x] & 1:
                    c -= 1
                    # the edges after j, none of which joins u and v
                    for k, w in self.edges_at[x]:
                        if k <= j:
                            break
                        p -= member[w] and not egcd[w] & 1
            uncovered.append(c)
            pairs.append(p)
        return uncovered, pairs, _odd_edge_need(uncovered, pairs)

    def _pick_vertex(self, count: int) -> tuple[int, int]:
        v = self.vorder[count]
        return v, self.free & ~self.blocked[v]

    def _leaf(self):
        return self._assign_edge(0)

    def _edge_key(self, j: int) -> bytes:
        """The key of the edge phase's state before edge ``eorder[j]``; the
        module docstring says why it fixes all that the phase reads."""
        size = self.field_bytes
        egcd = self.egcd
        parts = [self.free.to_bytes(size, "little")]
        open_mask = self.open_masks[j]
        while open_mask:
            low = open_mask & -open_mask
            parts.append(egcd[low.bit_length() - 1].to_bytes(size, "little"))
            open_mask ^= low
        return b"".join(parts)

    def _assign_edge(self, j: int):
        """The search of edges ``eorder[j:]``."""
        if j == len(self.eorder):
            return True
        key = None
        if self.exhausted:
            key = self._edge_key(j)
            if self._replayed(key):
                return False
        return self._try_edge(j, key)

    def _try_edge(self, j: int, key):
        """The step that tries the values of edge ``eorder[j]``."""
        start = self.nodes
        ei = self.eorder[j]
        u, v = self.g.edges[ei]
        elab = self.elab
        egcd = self.egcd
        # the last edge at a vertex of degree >= 2 must be coprime to the gcd
        # of the labels already on its other edges; edge j is the last of
        # the vertices that drop out of the open set after it
        allowed = self.free
        closing = self.open_masks[j] & ~self.open_masks[j + 1]
        if closing >> u & 1:
            allowed &= ~self.conflict[egcd[u]]
        if closing >> v & 1:
            allowed &= ~self.conflict[egcd[v]]
        # the cover state at entry, and after an even and an odd label (each
        # made when a label of that parity is first tried)
        entry = self.uncovered, self.pairs, self.need
        after = [None, None]
        seeded = None if self.order is None else self.seeded(allowed)
        while allowed:
            val = (allowed & -allowed).bit_length() - 1 if seeded is None else next(seeded)
            allowed ^= 1 << val
            self.spend()
            self.free ^= 1 << val
            elab[ei] = val
            odd = val & 1
            if after[odd] is None:
                after[odd] = self._cover_after(j, u, v, odd)
            self.uncovered, self.pairs, self.need = after[odd]
            old_u, old_v = egcd[u], egcd[v]
            egcd[u] = gcd(old_u, val)
            egcd[v] = gcd(old_v, val)
            if self.feasible() and (yield self._assign_edge(j + 1)):
                return True
            egcd[u], egcd[v] = old_u, old_v
            self.uncovered, self.pairs, self.need = entry
            elab[ei] = 0
            self.free ^= 1 << val
        if self.nodes > start:
            self._store(self._edge_key(j) if key is None else key, self.nodes - start)
        return False

    def labeling(self) -> Labeling:
        return Labeling(
            list(self.vlab),
            {e: self.elab[i] for i, e in enumerate(self.g.edges)},
        )


def _drive(search) -> bool:
    """Run a search (True, False or a step; see the module docstring) to its
    end, each step waiting, suspended, while its sub-searches run."""
    suspended = []
    while True:
        if search.__class__ is bool:
            result = search
        else:
            suspended.append(search)
            result = None
        while suspended:
            try:
                search = suspended[-1].send(result)
                break
            except StopIteration as done:
                suspended.pop()
                result = done.value
        else:
            return result


def _run(engine) -> SearchOutcome:
    try:
        found = engine.feasible() and _drive(engine._assign(0))
    except _OutOfBudget:
        return SearchOutcome(
            BUDGET_EXCEEDED, None, engine.nodes, time.perf_counter() - engine.started
        )
    elapsed = time.perf_counter() - engine.started
    if found:
        return SearchOutcome(FOUND, engine.labeling(), engine.nodes, elapsed)
    return SearchOutcome(EXHAUSTED, None, engine.nodes, elapsed)


def find_total_prime(g: Graph, cfg: Optional[SearchConfig] = None) -> SearchOutcome:
    """Decide total prime labelability by complete backtracking."""
    return _run(_TotalEngine(g, cfg or SearchConfig()))


def find_prime(g: Graph, cfg: Optional[SearchConfig] = None) -> SearchOutcome:
    """Decide prime labelability (vertex bijection onto 1..n)."""
    return find_coprime(g, g.n, cfg)


def find_coprime(
    g: Graph, bound: int, cfg: Optional[SearchConfig] = None
) -> SearchOutcome:
    """Decide coprime labelability with labels drawn from 1..bound."""
    if bound < g.n:
        raise InvalidParameterError("bound below vertex count")
    return _run(_VertexEngine(g, cfg or SearchConfig(), bound))


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
    first hit is the minimum coprime number.  One engine runs every bound,
    with one node count and one deadline, as a single search would: the
    deadline is checked every 1,024 nodes and at each replay.  Raises
    NotFoundWithinBoundError when every bound up to ``k_max`` is exhausted
    without a labeling.
    """
    if k_max < g.n:
        raise InvalidParameterError("k_max below vertex count")
    engine = _VertexEngine(g, cfg or SearchConfig(), g.n)
    while True:
        status, labeling, nodes, elapsed = _run(engine)
        if status != EXHAUSTED:
            value = engine.limit if status == FOUND else None
            return MinimumCoprimeResult(status, value, labeling, nodes, elapsed)
        if engine.limit == k_max:
            raise NotFoundWithinBoundError(f"no coprime labeling with max label <= {k_max}")
        engine.set_limit(engine.limit + 1)


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
