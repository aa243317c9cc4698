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
  when v has an even-labeled neighbor.  The largest such set is the greedy
  one up a breadth-first spanning forest, built once per engine beside the
  class demands (so once per search call): a vertex is taken when it is
  eligible and none of its children was, which is exact on a forest.  The
  greedy set depends only on which vertices are eligible, so it is kept
  rather than recounted: a placement or removal at v rechecks v and, for an
  even label, its neighbors, each recheck walking up the parent chain only
  while a vertex's taken flag flips, and the count of taken vertices is
  always the one a fresh pass gives.  That pass with every vertex eligible
  gives the independence number of a tree component for odd-label
  counting; other components get it by branching.

Checks before a placement: a value counts as a node when it is tried, but
a check whose outcome the current state already decides runs before the
placement rewrites the neighbors' masks.  The odd-label count is one:
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
passes ``node_budget`` stops the search exactly where counting its nodes
one by one would have, and a hit also checks the deadline.
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
follows from the key: the domains ``free & ~blocked[v]``; ``labeled_nbrs``
and ``frontier``, from the labeled set; the odd labels left, from ``free``;
``vdeficit``, from the odd counts; the neighbor-wipeout check; a
placement's updates, since blocked labels that are no longer free stay out
of every later domain; the forest rule's eligibility, as bit 2 of
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
the open vertices, the odd labels left, and the vertices edge j is the last
edge of (those that leave the open set after it), whose gcds are all the
last-edge rule reads.  A vertex-phase key opens with a ``free`` of more
than m bits, so the two kinds of key never meet.  A vertex has an odd
incident edge exactly when its gcd is odd, and a vertex of degree >= 2
whose edges are all labeled has gcd 1 by the last-edge rule, so each pool's
counts (uncovered members, unlabeled edges joining two of them) and
``need`` follow from the open gcds.

Variable order: the vertex engine picks the most constrained vertex next
(smallest domain by ``bit_count``, then most labeled neighbors, then index),
which keeps backtracking shallow even on 50-vertex trees.  It reads only the
touched vertices, those in ``frontier``, in index order: an untouched vertex
has domain ``free`` and no labeled neighbor, so every touched one beats it,
and with none touched the pick is the first unlabeled vertex, domain
``free``.  The total search replaces that choice with a Prim-style sweep
seeded at the highest-degree vertex, and labels the edges grouped by that
vertex order so each vertex's incident set completes early.  Values are tried ascending, each peeled as
the lowest set bit of the mask of untried values, unless a shuffle seed is
set; then the seeded order of all labels is read through the mask.  No
search step lists its domain.

One loop: ``_VertexEngine.search`` runs every step of both phases.  A step
tries one vertex's or edge's values; entering the state below a value either
replays it, refuses it at once (an empty domain, or a closed edge with no
value) or sets up its step, whose caller's locals are pushed on an explicit
list of step records and popped when the step has tried every value.  So no
search touches the interpreter's recursion limit, however many labels deep
it goes.  The loop keeps ``free``, ``nodes``, ``vdeficit``, ``frontier``
and the forest count in locals and writes them back however it ends, so
``minimum_coprime_number``'s next bound and a budget outcome read them.
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
        # written so that NaN, which compares False both ways, is refused
        if not cfg.node_budget > 0:
            raise InvalidParameterError("node budget must be positive")
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
    """Per-component odd vertex-label demands, the vertex->class map, a
    breadth-first spanning forest for ``_forest_independent_set`` (its
    vertices listed so that each follows its children, and each vertex's
    parent, a root being its own) and that pass's set with every vertex
    eligible.

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
    greedy = _forest_independent_set(bottom_up, parent, nothing, nothing)
    tree_alpha = [0] * len(comps)
    for v in greedy:
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
    return reqs, comp_of, bottom_up, parent, greedy


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
    breaks ties in the choice of vertex; bit v of ``frontier`` is set while v
    is unlabeled and has a labeled neighbor.  A placement leaves ``blocked``
    and ``labeled_nbrs`` alone at its labeled neighbors, which never read
    them.  ``need`` is the number of odd edge labels still required: 0 here,
    kept by the total engine.  On forests, ``forest`` holds the spanning
    forest's ``parent``, the greedy pass's taken flags and each vertex's count
    of taken children, and ``forest_count`` the number taken.

    A search call runs on one engine, so its node count and deadline span the
    call; ``minimum_coprime_number`` moves it between bounds with
    ``set_limit``, sound as an exhausted search has undone every placement.
    """

    __slots__ = (
        "started", "g", "cfg", "blocked", "labeled_nbrs", "vlab", "frontier",
        "nodes", "deadline", "vreq", "vodd", "vdeficit", "vertex_class", "need",
        "forest", "forest_count", "vorder",
        # set by set_limit
        "limit", "order", "conflict", "free", "odd_labels", "exhausted",
        "older", "exhausted_bytes", "field_bytes", "labeled_field",
        "unblocked_field",
    )

    def __init__(self, g: Graph, cfg: SearchConfig, limit: int):
        self.started = time.perf_counter()
        self.g = g
        self.cfg = cfg
        # the total engine's fixed vertex order; None picks by domain
        self.vorder = None
        self.blocked = [0] * g.n
        self.labeled_nbrs = [0] * g.n
        self.vlab = [0] * g.n
        self.frontier = 0
        self.nodes = 0
        self.deadline = self.started + cfg.time_budget if cfg.time_budget else None
        reqs, comp_of, _, parent, greedy = _component_requirements(g)
        self.vreq = reqs
        self.vodd = [0] * len(reqs)
        self.vdeficit = sum(reqs)
        self.vertex_class = comp_of
        self.need = 0
        # the forest rule's state, kept on forests only: every vertex is
        # eligible while none is labeled
        self.forest = None
        self.forest_count = 0
        if g.m == g.n - len(reqs):
            taken = [False] * g.n
            kids = [0] * g.n
            for v in greedy:
                taken[v] = True
                if parent[v] != v:
                    kids[parent[v]] += 1
            self.forest = (parent, taken, kids)
            self.forest_count = len(greedy)
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

    def seeded(self, mask: int):
        """The values of ``mask`` in the seeded order, read as they are tried."""
        return (x for x in self.order if mask >> x & 1)

    def feasible(self) -> bool:
        """The odd labels left must cover the odd vertex labels and the odd
        edge labels still required; vertex placements never move ``need``."""
        return self.vdeficit + self.need <= (self.free & self.odd_labels).bit_count()

    def _state_key(self, free: int) -> bytes:
        """The key of the current state, whose unused labels are ``free``; the
        module docstring says what it packs and why that is all the subtree
        below it reads."""
        size = self.field_bytes
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

    def search(self) -> bool:
        """Search on from the state with no vertex labeled: True with the
        labeling in place, or False with every placement undone; raises
        _OutOfBudget where the node budget or the deadline runs out.

        One loop runs the steps of both phases (see the module docstring).
        The state changed at every node lives in locals, written back however
        the search ends."""
        g = self.g
        n = g.n
        adjacency = g.adjacency
        vlab, blocked, labeled_nbrs = self.vlab, self.blocked, self.labeled_nbrs
        vodd, vreq, vertex_class = self.vodd, self.vreq, self.vertex_class
        conflict, odd_labels, order, limit = self.conflict, self.odd_labels, self.order, self.limit
        symmetry_breaking = self.cfg.symmetry_breaking
        budget, deadline, need = self.cfg.node_budget, self.deadline, self.need
        vorder, forest = self.vorder, self.forest
        if forest is not None:
            parent, taken, kids = forest
        if vorder is not None:
            edges, eorder, elab, egcd = g.edges, self.eorder, self.elab, self.egcd
            open_masks = self.open_masks
        free, nodes, vdeficit = self.free, self.nodes, self.vdeficit
        frontier, forest_count = self.frontier, self.forest_count
        trail: list[int] = []  # blocked masks that placements overwrote
        # the locals of the suspended steps, as lists: a tuple the interpreter
        # frees is kept for reuse, so a deep search's would outlive it
        stack: list[list] = []
        count = 0  # the vertices labeled
        j = -1  # the current step's place in eorder, or -1 for a vertex step
        enter, undo, recheck = True, False, False
        try:
            while True:
                if undo:
                    # take the current step's value back
                    undo = False
                    if j >= 0:
                        egcd[eu], egcd[ev] = old_u, old_v
                        self.uncovered, self.pairs, self.need = entry
                        need = entry[2]
                        elab[ei] = 0
                        free ^= 1 << val
                    elif not count:
                        return False  # the root state was refused
                    else:
                        vlab[v] = 0
                        count -= 1
                        if val & 1:
                            cls = vertex_class[v]
                            vodd[cls] -= 1
                            if vodd[cls] < vreq[cls]:
                                vdeficit += 1
                        for u in reversed(adjacency[v]):
                            if not vlab[u]:
                                blocked[u] = trail.pop()
                                labeled_nbrs[u] -= 1
                        free ^= 1 << val
                        frontier = entry_frontier
                        recheck = forest is not None
                if recheck:
                    # the forest rule's greedy set after v's placement or
                    # removal: v's eligibility changed, and its neighbors'
                    # with an even label
                    recheck = False
                    for x in (v,) if val & 1 else (v, *adjacency[v]):
                        while True:  # up the forest while a flag flips
                            now = not (vlab[x] or blocked[x] & 4 or kids[x])
                            if now == taken[x]:
                                break
                            taken[x] = now
                            forest_count += 1 if now else -1
                            if parent[x] == x:
                                break
                            x = parent[x]
                            kids[x] += 1 if now else -1
                    # the even labels still forced onto vertices must fit it
                    if enter and forest_count < n - count - (free & odd_labels).bit_count():
                        enter, undo = False, True
                        continue
                if enter:
                    # the state below the current step's value: replayed if
                    # it was searched to exhaustion, else its step is set up
                    enter = False
                    edge_phase = count == n
                    if edge_phase and (vorder is None or j + 1 == len(eorder)):
                        return True
                    new_key = None
                    if self.exhausted:  # a search that never fails builds no key
                        new_key = self._edge_key(j + 1, free) if edge_phase else self._state_key(free)
                        spent = self.exhausted.get(new_key)
                        if spent is None:
                            spent = self.older.get(new_key)
                        if spent is not None:
                            nodes += spent
                            if nodes > budget:
                                nodes = budget + 1
                                raise _OutOfBudget
                            if deadline is not None and time.perf_counter() > deadline:
                                raise _OutOfBudget
                            undo = True
                            continue
                    if not edge_phase:
                        if vorder is not None:
                            new_v = vorder[count]
                            new_allowed = free & ~blocked[new_v]
                        elif frontier:
                            # the most constrained vertex is a touched one
                            best, most = limit + 1, 0
                            rest = frontier
                            while rest:
                                low = rest & -rest
                                u = low.bit_length() - 1
                                rest ^= low
                                domain = free & ~blocked[u]
                                size = domain.bit_count()
                                if size < best or size == best and labeled_nbrs[u] > most:
                                    new_v, new_allowed, best, most = u, domain, size, labeled_nbrs[u]
                                    if not size:
                                        break
                        else:
                            new_v, new_allowed = vlab.index(0), free
                    else:
                        # the last edge at a vertex of degree >= 2 must be
                        # coprime to the gcd of the labels on its other edges;
                        # the next edge is the last of the vertices that drop
                        # out of the open set after it
                        new_ei = eorder[j + 1]
                        x, y = edges[new_ei]
                        new_allowed = free
                        closing = open_masks[j + 1] & ~open_masks[j + 2]
                        if closing >> x & 1:
                            new_allowed &= ~conflict[egcd[x]]
                        if closing >> y & 1:
                            new_allowed &= ~conflict[egcd[y]]
                    if not new_allowed:
                        undo = True
                        continue
                    # suspend the current step, if any
                    if j >= 0:
                        stack.append(
                            [j, ei, eu, ev, allowed, val, key, start, entry, after, seeded, old_u, old_v]
                        )
                    elif count:
                        stack.append(
                            [v, allowed, val, key, start, odd_fails, domains, seeded, entry_frontier]
                        )
                    allowed, key, start = new_allowed, new_key, nodes
                    if not edge_phase:
                        v = new_v
                        entry_frontier = frontier
                        if symmetry_breaking:  # vertex 0 takes the smallest label
                            if v == 0:
                                used = ((2 << limit) - 2) & ~free  # the labels placed so far
                                if used:
                                    allowed &= ((used & -used) << 1) - 1
                            elif vlab[0]:
                                allowed &= -(1 << vlab[0])
                        # an odd label breaks the odd-label count when v's
                        # class has its odd labels and none is spare
                        cls = vertex_class[v]
                        odd_fails = (
                            vodd[cls] >= vreq[cls]
                            and vdeficit + need == (free & odd_labels).bit_count()
                        )
                        domains = []
                        for u in adjacency[v]:
                            if not vlab[u]:
                                domains.append(free & ~blocked[u])
                    else:
                        j, ei, eu, ev = j + 1, new_ei, x, y
                        # the cover state at entry, and after an even and an
                        # odd label (each made when first tried)
                        entry = self.uncovered, self.pairs, self.need
                        after = [None, None]
                    seeded = None if order is None else self.seeded(allowed)
                # the current step tries its next value
                while allowed:
                    if seeded is None:
                        bit = allowed & -allowed
                        val = bit.bit_length() - 1
                    else:
                        val = next(seeded)
                        bit = 1 << val
                    allowed ^= bit
                    nodes += 1
                    if nodes > budget or (
                        deadline is not None and not nodes & 1023 and time.perf_counter() > deadline
                    ):
                        raise _OutOfBudget
                    if j >= 0:
                        free ^= bit
                        elab[ei] = val
                        odd = val & 1
                        cover = after[odd]
                        if cover is None:
                            cover = after[odd] = self._cover_after(j, eu, ev, odd)
                        self.uncovered, self.pairs, self.need = cover
                        need = cover[2]
                        old_u, old_v = egcd[eu], egcd[ev]
                        egcd[eu] = gcd(old_u, val)
                        egcd[ev] = gcd(old_v, val)
                        if vdeficit + need <= (free & odd_labels).bit_count():
                            enter = True
                        else:
                            undo = True
                        break
                    if val & 1 and odd_fails:
                        continue
                    # a value that empties the domain of an unlabeled neighbor
                    # leaves that neighbor nothing: refused unplaced
                    keep = ~(conflict[val] | bit)
                    wiped = False
                    for domain in domains:
                        if not domain & keep:
                            wiped = True
                            break
                    if wiped:
                        continue
                    vlab[v] = val
                    count += 1
                    free ^= bit
                    mask = conflict[val]
                    frontier = entry_frontier & ~(1 << v)
                    for u in adjacency[v]:
                        if not vlab[u]:
                            trail.append(blocked[u])
                            blocked[u] |= mask
                            labeled_nbrs[u] += 1
                            frontier |= 1 << u
                    if val & 1:
                        cls = vertex_class[v]
                        if vodd[cls] < vreq[cls]:
                            vdeficit -= 1
                        vodd[cls] += 1
                    enter, recheck = True, forest is not None
                    break
                else:
                    # every value is tried and undone: the state at entry
                    if nodes > start:
                        if key is None:
                            key = self._edge_key(j, free) if j >= 0 else self._state_key(free)
                        self._store(key, nodes - start)
                    if j > 0:
                        j, ei, eu, ev, allowed, val, key, start, entry, after, seeded, old_u, old_v = (
                            stack.pop()
                        )
                    elif not count:
                        return False
                    else:
                        v, allowed, val, key, start, odd_fails, domains, seeded, entry_frontier = (
                            stack.pop()
                        )
                        j = -1
                    undo = True
        finally:
            self.free, self.nodes, self.vdeficit = free, nodes, vdeficit
            self.frontier, self.forest_count = frontier, forest_count

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

    The search labels the vertices in ``vorder``, with the odd edge labels
    still required counted in ``need``, and then the edges in ``eorder``,
    grouped by that vertex order so each vertex's incident set completes
    early.
    """

    __slots__ = (
        "eorder", "elab", "egcd", "open_masks", "edges_at", "pools", "uncovered",
        "pairs",
    )

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
        degrees = list(map(len, g.adjacency))
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

    def _edge_key(self, j: int, free: int) -> bytes:
        """The key of the edge phase's state before edge ``eorder[j]``, with
        ``free`` unused; the module docstring says why it fixes all that the
        phase reads."""
        size = self.field_bytes
        egcd = self.egcd
        parts = [free.to_bytes(size, "little")]
        open_mask = self.open_masks[j]
        while open_mask:
            low = open_mask & -open_mask
            parts.append(egcd[low.bit_length() - 1].to_bytes(size, "little"))
            open_mask ^= low
        return b"".join(parts)

    def labeling(self) -> Labeling:
        return Labeling(
            list(self.vlab),
            {e: self.elab[i] for i, e in enumerate(self.g.edges)},
        )


def _run(engine) -> SearchOutcome:
    try:
        found = engine.feasible() and engine.search()
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
