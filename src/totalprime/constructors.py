"""Explicit total prime labelings, one operation per graph family, plus three
generic extension operations (Hamiltonian graph + prime labeling, Hamiltonian
graph + coprime labeling, tree + prime labeling).

Every operation returns a ConstructionResult whose labeling must pass
``verify_total_prime`` on the returned graph; the test suite enforces this
across large parameter grids.  Two primitives write every edge label:
``_labeling`` gives a list of canonical edges a list of values in order and
the remaining edges the unused labels ascending over the canonical edge
order, so results are fully deterministic and snapshot-testable; ``_extend``
is the extension step of the Hamiltonian theorems (the closed cycle, then the
chord, take consecutive labels from a base).  Cycle with chord and the
two-page book are instances of the prime-labeling extension; complete graphs,
prisms and stacked rectangular prisms are instances of the coprime-labeling
extension with bound m-1, their cycles taken from
``graphs.canonical_hamiltonian``.  The other families list their edge
sequences for ``_labeling``.  ``notes`` records the construction-time choices
(chord position, swap applied, prime used, values skipped) so callers can
assert against them.

The registry at the end of the module is the one map from family to
construction: ``construct`` labels a FamilySpec, ``soundness_grid`` yields the
parameter grid every constructor is verified over, and ``GALLERY`` lists the
showcase instances.
"""

from __future__ import annotations

from math import gcd
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from . import numtheory
from .errors import (
    BoundViolatedError,
    InvalidParameterError,
    NotATreeError,
    NotCoprimeError,
    NotPrimeLabelingError,
    UnsupportedCaseError,
)
from .graphs import (
    Edge,
    FamilySpec,
    Graph,
    HamiltonianData,
    _need,
    build_family,
    canonical_hamiltonian,
    validate_hamiltonian,
)
from .labeling import Labeling, verify_coprime, verify_prime


class ConstructionResult(NamedTuple):
    graph: Graph
    labeling: Labeling
    notes: Mapping = MappingProxyType({})


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _labeling(g: Graph, vl: list[int], edges: list[Edge], values: Iterable[int]) -> Labeling:
    """Give the canonical ``edges`` the ``values`` in order; every other edge
    takes the unused labels ascending over the canonical edge order."""
    el = dict(zip(edges, values, strict=True))
    if len(el) < g.m:
        used = set(vl)
        used.update(el.values())
        leftovers = [lab for lab in range(1, g.n + g.m + 1) if lab not in used]
        rest = [e for e in g.edges if e not in el]
        el.update(zip(rest, leftovers, strict=True))
    return Labeling(vl, el)


def _extend(
    g: Graph, vl: list[int], ham: HamiltonianData, start: int, notes: dict
) -> ConstructionResult:
    """The extension step: the closed cycle takes start+1..start+n from its
    first vertex on, the chord start+n+1, the other edges what is left."""
    cyc = tuple(ham.cycle)
    edges = [_norm(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])]
    edges.append(_norm(*ham.chord))
    values = range(start + 1, start + g.n + 2)
    return ConstructionResult(g, _labeling(g, vl, edges, values), notes)


def helm(rim: int) -> ConstructionResult:
    """Hub gets 1; rim/pendant pairs get consecutive or consecutive-odd
    values; every rim vertex sees a consecutive pair of edge labels."""
    n = rim
    g = build_family(FamilySpec("helm", n=n))
    vl = [0] * g.n
    vl[0] = 1
    vl[1] = 2
    vl[n + 1] = 3
    for i in range(2, n + 1):
        vl[n + i] = 2 * i       # pendant of rim vertex i
        vl[i] = 2 * i + 1
    edges = []
    for i in range(1, n + 1):
        edges += [(i, n + i), (i, i + 1) if i < n else (1, n)]  # pendant, then rim
    edges += [(0, i) for i in range(1, n + 1)]  # spokes, consecutive at the hub
    return ConstructionResult(g, _labeling(g, vl, edges, range(2 * n + 2, 5 * n + 2)), {})


def cycle_with_chord(cycle_len: int, chord: int = 3) -> ConstructionResult:
    """Vertices 1..n in cycle order; edges n+1..2n around, chord 2n+1.

    ``chord`` is the 1-based cycle position joined to position 1 and must
    satisfy 2 < chord < n.  This is ``extend_prime_hamiltonian`` on the
    identity labeling, written out for speed.
    """
    n, k = cycle_len, chord
    g = build_family(FamilySpec("cycle_chord", n=n, k=k))
    edges = [*zip(range(n - 1), range(1, n)), (0, n - 1), (0, k - 1)]
    return ConstructionResult(
        g, _labeling(g, list(range(1, n + 1)), edges, range(n + 1, 2 * n + 2)), {"chord": k}
    )


def extend_prime_hamiltonian(
    g: Graph, prime_labels: Labeling, ham: HamiltonianData
) -> ConstructionResult:
    """Extend a prime labeling: cycle edges n+1..2n, chord 2n+1, rest ascending.

    Every vertex picks up two consecutively labeled incident edges from the
    cycle (the chord base from the closing edge and the chord), so the
    incident-gcd condition holds no matter how the leftovers land.
    """
    report = verify_prime(g, prime_labels)
    if not report.valid:
        raise NotPrimeLabelingError(
            f"vertex labeling is not prime ({len(report.violations)} violations)"
        )
    validate_hamiltonian(g, ham)
    notes = {"cycle_start": ham.cycle[0], "chord": tuple(ham.chord)}
    return _extend(g, list(prime_labels.vertex_labels), ham, g.n, notes)


def extend_coprime_hamiltonian(
    g: Graph, coprime_labels: Labeling, bound: int, ham: HamiltonianData
) -> ConstructionResult:
    """Extend a coprime labeling with max label ``bound``: the cycle and chord
    take bound+1..bound+n+1 and the remaining edges soak up every unused value
    below the bound plus the tail above it.

    Requires ``bound <= m - 1`` so that bound+n+1 still fits inside 1..n+m.
    """
    if bound > g.m - 1:
        raise BoundViolatedError(f"bound {bound} exceeds edge count - 1 = {g.m - 1}")
    report = verify_coprime(g, coprime_labels, bound)
    if not report.valid:
        raise NotCoprimeError(
            f"vertex labeling is not coprime ({len(report.violations)} violations)"
        )
    validate_hamiltonian(g, ham)
    notes = {"cycle_start": ham.cycle[0], "chord": tuple(ham.chord), "bound": bound}
    return _extend(g, list(coprime_labels.vertex_labels), ham, bound, notes)


def snake(cycle_len: int, cycles: int) -> ConstructionResult:
    """Chain of cycles sharing a path: vertices are labeled sequentially along
    the chain, edges ring by ring with the last ring reversed so the final
    path vertex still sees consecutive edge labels."""
    k, n = cycle_len, cycles
    if n < 2:
        raise InvalidParameterError("a single ring is a plain cycle; need >= 2")
    g = build_family(FamilySpec("snake", k=k, n=n))
    edges: list[Edge] = []
    for i in range(n):
        a = i * (k - 1)  # ring i runs from path vertex a over a+1.. to a+k-1
        ring = [(j, j + 1) for j in range(a, a + k - 1)]
        if i == n - 1:
            ring.reverse()
        edges += [(a, a + k - 1), *ring]
    # vertex indexing follows the labeling traversal, so labels are index + 1
    vl = list(range(1, g.n + 1))
    return ConstructionResult(g, _labeling(g, vl, edges, range(g.n + 1, g.n + g.m + 1)), {})


def book(page_len: int, pages: int) -> ConstructionResult:
    """Pages share one spine edge; edge labels run consecutively along the
    alternating page-by-page trail between the two spine vertices.

    Two pages form a cycle with the spine as its chord, labeled by
    ``extend_prime_hamiltonian``.  Even page length: spine vertices get 2 and
    1 and the spine takes the last label.  Odd page length: one spine vertex
    gets 1, the other the largest prime p in range; the trail skips two values
    around p (which pair depends on whether 3 divides p+1) and the spine takes
    the skipped non-prime.
    """
    k, n = page_len, pages
    spec = FamilySpec("book", k=k, n=n)
    g = build_family(spec)
    if n == 2:
        ham = canonical_hamiltonian(g, spec)
        vl = [0] * g.n
        for pos, vtx in enumerate(ham.cycle):
            vl[vtx] = pos + 1
        return _extend(g, vl, ham, g.n, {"case": "two_pages", "chord": k})
    total = g.n + g.m
    edges: list[Edge] = []
    for i in range(n):
        a = 2 + i * (k - 2)  # page i runs from spine vertex 0 over a..a+k-3 to 1
        page = [(0, a), *((j, j + 1) for j in range(a, a + k - 3)), (1, a + k - 3)]
        if i % 2 == 1:
            page.reverse()
        edges += page
    edges.append((0, 1))
    if k % 2 == 0:
        vl = [2, 1, *range(3, g.n + 1)]
        values: Iterable[int] = range(n * (k - 2) + 3, total + 1)
        notes: dict = {"case": "even"}
    else:
        p = numtheory.largest_prime_leq(total)
        # spine takes p+1 when 3 divides it, else p-1; when p+1 overflows the
        # label range (p is the top label itself) only p-1 is available, and
        # the trail is then gapless so no flank condition arises
        spine = p + 1 if (p + 1) % 3 == 0 and p + 1 <= total else p - 1
        if spine == p + 1 and p + 2 <= total:
            flanks = (p - 1, p + 2)
        elif spine == p - 1 and p + 1 <= total:
            flanks = (p - 2, p + 1)
        else:
            flanks = None
        # the labels flanking the gap stay coprime: the 3-divisibility split
        # keeps both off multiples of 3
        assert flanks is None or gcd(*flanks) == 1
        vl = [1, p, *range(2, g.n)]
        values = [t for t in range(n * (k - 2) + 2, total + 1) if t != p and t != spine]
        values.append(spine)
        notes = {"case": "odd", "prime": p, "spine_label": spine, "skipped": (p, spine)}
    return ConstructionResult(g, _labeling(g, vl, edges, values), notes)


def complete(order: int) -> ConstructionResult:
    """Vertices get 1 and the first order-1 primes, a coprime labeling with
    bound m-1; ``extend_coprime_hamiltonian`` then labels the cycle 0..n-1 and
    the chord to the third vertex."""
    n = order
    if n < 4:
        raise InvalidParameterError("order 3 is an odd cycle; need order >= 4")
    spec = FamilySpec("complete", n=n)
    g = build_family(spec)
    ham = canonical_hamiltonian(g, spec)
    vl = [1] + [numtheory.nth_prime(i) for i in range(1, n)]
    return _extend(g, vl, ham, g.m - 1, {"chord": ham.chord})


_WINDMILL_BLADE_LABELS = {
    4: lambda i: (4 * i - 1, 4 * i, 4 * i + 1),
    5: lambda i: (6 * i - 3, 6 * i - 2, 6 * i - 1, 6 * i + 1),
}


def _windmill_k6_labels(i: int) -> tuple[int, ...]:
    # exactly one of 10i-7, 10i-5, 10i-3 is divisible by 3
    if (10 * i - 7) % 3 == 0:
        return (10 * i - 5, 10 * i - 3, 10 * i - 2, 10 * i - 1, 10 * i + 1)
    if (10 * i - 5) % 3 == 0:
        return (10 * i - 7, 10 * i - 4, 10 * i - 3, 10 * i - 1, 10 * i + 1)
    return (10 * i - 7, 10 * i - 5, 10 * i - 4, 10 * i - 1, 10 * i + 1)


def windmill(clique: int, copies: int, scheme: Optional[str] = None) -> ConstructionResult:
    """Copies of a clique glued at one hub, labeled along a closed trail.

    Two constructions exist: ``pair`` handles exactly two copies of any
    clique of size >= 4; ``k4``/``k5``/``k6`` handle any number of copies of
    those fixed clique sizes.  With ``scheme=None`` the fixed-size scheme
    wins when both apply.  Both walk each blade hub -> blade in index order
    -> hub, blade after blade, with consecutive edge labels.
    """
    n, m = clique, copies
    if n < 3 or m < 1:
        raise InvalidParameterError("windmill needs clique >= 3 and copies >= 1")
    if m == 1:
        raise UnsupportedCaseError("one copy is the complete graph; use complete()")
    if n == 3:
        raise UnsupportedCaseError(
            "triangle windmills go through the search engine, not a fixed scheme"
        )
    if scheme is None:
        scheme = f"k{n}" if n in (4, 5, 6) else ("pair" if m == 2 else None)
        if scheme is None:
            raise UnsupportedCaseError(
                f"no construction for clique {n} with {m} copies"
            )
    if scheme == "pair":
        if m != 2 or n < 4:
            raise InvalidParameterError("pair scheme needs exactly 2 copies, clique >= 4")
        primes = [numtheory.nth_prime(i) for i in range(1, 2 * n - 2)]
        vl = [1, *primes[: n - 1], 4, *primes[n - 1:]]
        start = n * n - n
    elif scheme in ("k4", "k5", "k6"):
        if n != int(scheme[1]):
            raise InvalidParameterError(f"scheme {scheme} needs clique {scheme[1]}")
        vl = [1]
        for i in range(1, m + 1):
            vl += _windmill_k6_labels(i) if n == 6 else _WINDMILL_BLADE_LABELS[n](i)
        start = {4: 4 * m + 2, 5: 9 * m + 2, 6: 14 * m + 2}[n]
    else:
        raise InvalidParameterError(f"unknown windmill scheme {scheme!r}")
    g = build_family(FamilySpec("windmill", n=n, m=m))
    edges: list[Edge] = []
    for i in range(m):
        a, b = 1 + i * (n - 1), (i + 1) * (n - 1)  # blade i is a..b
        edges += [(0, a), *((j, j + 1) for j in range(a, b)), (0, b)]
    values = range(start, start + len(edges))
    return ConstructionResult(g, _labeling(g, vl, edges, values), {"case": scheme})


_PRISM_BASE_U = (1, 4, 5, 9, 10)
_PRISM_BASE_V = (2, 3, 7, 8, 11)


def prism(cycle_len: int) -> ConstructionResult:
    """Two stacked cycles: vertex labels repeat a block of five shifted by 12;
    when the closing pair would go even-even, the first four labels swap.
    The labels stay below 3n, so ``extend_coprime_hamiltonian`` with bound
    m-1 = 3n-1 labels the edges.

    Block values for indices past the first block always come from the
    unswapped base; the swap touches the first block only, otherwise the
    junction between blocks one and two would lose coprimality.
    """
    n = cycle_len
    spec = FamilySpec("prism", n=n)
    g = build_family(spec)
    vl = [0] * (2 * n)
    for i in range(1, n + 1):
        block, j = divmod(i - 1, 5)
        vl[i - 1] = 12 * block + _PRISM_BASE_U[j]
        vl[n + i - 1] = 12 * block + _PRISM_BASE_V[j]
    residue = (n - 1) % 5 + 1
    swap = residue in (1, 4)  # the inner closing label would be even otherwise
    if swap:
        vl[0], vl[n] = 2, 1
        vl[1], vl[n + 1] = 3, 4
    notes = {"swap_applied": swap, "block_residue": residue}
    return _extend(g, vl, canonical_hamiltonian(g, spec), g.m - 1, notes)


_RECT_BASE = ((1, 2, 3, 5), (9, 11, 7, 8))  # rows (u, v, w, x) at heights 1, 2


def stacked_rect_prism(height: int) -> ConstructionResult:
    """Stack of 4-cycles: vertex labels repeat a block of two levels shifted
    by 12, a coprime labeling with bound m-1; ``extend_coprime_hamiltonian``
    then labels a Hamiltonian sweep up and down the four columns with a chord
    across the bottom cycle."""
    n = height
    if n < 2:
        raise InvalidParameterError("stack needs height at least 2")
    spec = FamilySpec("stacked_prism", m=4, n=n)
    g = build_family(spec)
    vl = [0] * (4 * n)
    for i in range(1, n + 1):
        block, j = divmod(i - 1, 2)
        for row in range(4):
            vl[row * n + i - 1] = 12 * block + _RECT_BASE[j][row]
    ham = canonical_hamiltonian(g, spec)
    return _extend(g, vl, ham, g.m - 1, {"chord": ham.chord})


def bistar(left: int, right: int) -> ConstructionResult:
    """Two star centers joined by an edge: odd labels go to the left star's
    edges and the bridge, even labels pair each leaf with its edge."""
    m, n = left, right
    g = build_family(FamilySpec("bistar", m=m, n=n))
    vl = [1, 2, *range(4, 2 * m + 3, 2), *range(2 * m + 5, 2 * m + 2 * n + 4, 2)]
    edges = [(0, v) for v in range(2, m + 2)] + [(0, 1)]
    edges += [(1, v) for v in range(m + 2, m + n + 2)]
    values = [*range(3, 2 * m + 4, 2), *range(2 * m + 4, 2 * m + 2 * n + 3, 2)]
    return ConstructionResult(g, _labeling(g, vl, edges, values), {})


def _tree_path_cover(tree: Graph) -> list[list[int]]:
    """Edge-disjoint paths whose interiors cover every vertex of degree >= 2.

    Repeatedly take the smallest-index internal vertex not yet interior to a
    path and grow two walks from it along smallest-index unused edges; each
    walk stops at a leaf or upon touching a previously finished path.
    """
    used_edges: set[Edge] = set()
    covered = [False] * tree.n
    interior = [False] * tree.n
    paths: list[list[int]] = []

    def walk(start: int, first: int) -> list[int]:
        seq = [start, first]
        used_edges.add(_norm(start, first))
        cur = first
        while tree.degree(cur) >= 2 and not covered[cur]:
            nxt = next(
                u for u in tree.adjacency[cur] if _norm(cur, u) not in used_edges
            )
            used_edges.add(_norm(cur, nxt))
            seq.append(nxt)
            cur = nxt
        return seq

    while True:
        pivot = next(
            (v for v in range(tree.n) if tree.degree(v) >= 2 and not interior[v]),
            None,
        )
        if pivot is None:
            break
        first_two = [u for u in tree.adjacency[pivot]][:2]
        left = walk(pivot, first_two[0])
        right = walk(pivot, first_two[1])
        path = list(reversed(left)) + right[1:]
        for v in path:
            covered[v] = True
        for v in path[1:-1]:
            interior[v] = True
        paths.append(path)
    return paths


def extend_prime_tree(tree: Graph, prime_labels: Labeling) -> ConstructionResult:
    """Extend a prime labeling of a tree by labeling a path cover: each path's
    edges take consecutive values, so every internal vertex sees two
    consecutive incident edge labels; leftover edges get the remaining values
    ascending."""
    if tree.m != tree.n - 1 or not tree.is_connected():
        raise NotATreeError("input graph is not a tree")
    report = verify_prime(tree, prime_labels)
    if not report.valid:
        raise NotPrimeLabelingError(
            f"vertex labeling is not prime ({len(report.violations)} violations)"
        )
    paths = _tree_path_cover(tree)
    edges = [_norm(a, b) for path in paths for a, b in zip(path, path[1:])]
    values = range(tree.n + 1, tree.n + 1 + len(edges))
    return ConstructionResult(
        tree,
        _labeling(tree, list(prime_labels.vertex_labels), edges, values),
        {"paths": [tuple(p) for p in paths]},
    )


def _stacked_prism(spec: FamilySpec) -> ConstructionResult:
    if spec.m != 4:
        raise UnsupportedCaseError(
            "direct labelings cover stacked prisms with m = 4 only; use mcn + search"
        )
    return stacked_rect_prism(_need(spec, "n", 2))


# Constructors whose parameter range is the graph family's pass the spec's
# values straight through: build_family checks them before any label is set.
_CONSTRUCTIONS: dict[str, Callable[[FamilySpec], ConstructionResult]] = {
    "helm": lambda s: helm(s.n),
    "cycle_chord": lambda s: cycle_with_chord(s.n, 3 if s.k is None else s.k),
    "snake": lambda s: snake(s.k, _need(s, "n", 2)),
    "book": lambda s: book(s.k, s.n),
    "complete": lambda s: complete(_need(s, "n", 4)),
    "windmill": lambda s, scheme=None: windmill(_need(s, "n", 3), _need(s, "m", 1), scheme),
    "prism": lambda s: prism(s.n),
    "stacked_prism": _stacked_prism,
    "bistar": lambda s: bistar(s.m, s.n),
}


def construct(spec: FamilySpec, scheme: Optional[str] = None) -> ConstructionResult:
    """The explicit total prime labeling of a family instance.

    ``scheme`` forces one of the windmill constructions (see ``windmill``);
    every other family has a single construction.  Raises
    UnsupportedCaseError for families without one and InvalidParameterError,
    naming the parameter, for missing or too-small parameters.
    """
    make = _CONSTRUCTIONS.get(spec.family)
    if make is None:
        raise UnsupportedCaseError(f"no direct labeling for family {spec.family!r}")
    if scheme is None:
        return make(spec)
    if spec.family != "windmill":
        raise InvalidParameterError(f"{spec.family} has no construction schemes")
    return make(spec, scheme)


class Instance(NamedTuple):
    """A named registry instance; ``construct(spec, scheme)`` labels it and
    ``build_family(spec)`` builds just its graph."""

    name: str
    spec: FamilySpec
    scheme: Optional[str] = None


def soundness_grid() -> Iterator[Instance]:
    """Every constructor over its parameter grid: 22,200 instances."""
    for n in range(3, 201):
        yield Instance(f"helm {n}", FamilySpec("helm", n=n))
    for n in range(4, 201):
        for k in range(3, n):
            yield Instance(f"cycle_chord {n} k={k}", FamilySpec("cycle_chord", n=n, k=k))
    for k in range(3, 13):
        for n in range(2, 13):
            yield Instance(f"snake {k}x{n}", FamilySpec("snake", k=k, n=n))
    for k in range(3, 12):
        for n in range(3, 12):
            yield Instance(f"book {k}x{n}", FamilySpec("book", k=k, n=n))
    for n in range(4, 61):
        yield Instance(f"complete {n}", FamilySpec("complete", n=n))
    for n in range(4, 41):
        yield Instance(f"windmill pair {n}", FamilySpec("windmill", n=n, m=2), "pair")
    for n in (4, 5, 6):
        for m in range(2, 41):
            yield Instance(f"windmill {n}x{m}", FamilySpec("windmill", n=n, m=m))
    for n in range(3, 301):
        yield Instance(f"prism {n}", FamilySpec("prism", n=n))
    for n in range(2, 201):
        yield Instance(f"rect stack {n}", FamilySpec("stacked_prism", m=4, n=n))
    for m in range(1, 41):
        for n in range(1, 41):
            yield Instance(f"bistar {m}x{n}", FamilySpec("bistar", m=m, n=n))


GALLERY = (
    Instance("helm_4", FamilySpec("helm", n=4)),
    Instance("cycle_9_chord_5", FamilySpec("cycle_chord", n=9, k=5)),
    Instance("snake_5x3", FamilySpec("snake", k=5, n=3)),
    Instance("book_5x3", FamilySpec("book", k=5, n=3)),
    Instance("complete_6", FamilySpec("complete", n=6)),
    Instance("windmill_4x3", FamilySpec("windmill", n=4, m=3)),
    Instance("prism_12", FamilySpec("prism", n=12)),
    Instance("rect_stack_4", FamilySpec("stacked_prism", m=4, n=4)),
    Instance("bistar_4x5", FamilySpec("bistar", m=4, n=5)),
)
