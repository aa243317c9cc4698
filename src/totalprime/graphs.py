"""Graph families with deterministic vertex indexing.

Conventions used throughout: hub/centre vertices come first, then cycle or
path vertices in traversal order, then pendants.  Edges are stored as
``(u, v)`` pairs with ``u < v``, sorted lexicographically, so "canonical edge
order" always means the order of ``Graph.edges``.  Graphs are frozen: every
builder passes its roles in at construction.  A graph's neighbour lists are
built on the first read of ``Graph.adjacency`` and kept, so a graph that is
only labeled and verified never builds them.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (
    InvalidHamiltonianDataError,
    InvalidParameterError,
    MalformedTreeError,
    NoCanonicalCycleError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .labeling import Labeling

Edge = tuple[int, int]
RoleMap = dict[str, Union[int, list[int]]]


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Edges may be given in any orientation and order; construction stores
    them canonically (``u < v``, sorted) and rejects self-loops, duplicates,
    out-of-range endpoints, an ``n`` that is not an int >= 0 and ``roles``
    that are neither None nor a dict.  Graphs are immutable; equality
    compares ``n``, ``edges`` and ``roles``.
    ``adjacency``, the sorted neighbour lists, is derived from the edges on
    its first read and kept; a reader that loops over vertices binds it once.
    """

    __slots__ = ("n", "edges", "roles", "_adjacency")

    n: int
    edges: tuple[Edge, ...]
    roles: RoleMap

    def __init__(
        self, n: int, edges: Iterable[Iterable[int]], roles: Optional[RoleMap] = None
    ) -> None:
        if type(n) is not int or n < 0:
            raise InvalidParameterError(f"graph field 'n' is not a vertex count: {n!r}")
        if roles is None:
            roles = {}
        elif not isinstance(roles, dict):
            raise InvalidParameterError(f"graph field 'roles' is not an object: {roles!r}")
        init = object.__setattr__
        init(self, "n", n)
        init(self, "edges", _index_edges(n, edges))
        init(self, "roles", _copy_roles(roles))
        init(self, "_adjacency", None)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, ascending; built on the first read.

        The lists come out sorted because the edges are walked in sorted
        order: every ``(w, x)`` with ``w < x`` precedes every ``(x, y)``.
        """
        adjacency = self._adjacency
        if adjacency is None:
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            adjacency = tuple(map(tuple, nbrs))
            object.__setattr__(self, "_adjacency", adjacency)
        return adjacency

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Graph")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable Graph")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges, self.roles) == (other.n, other.edges, other.roles)

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r}, roles={self.roles!r})"

    # pickle and copy rebuild through __init__, since assignment is refused
    def __reduce__(self):
        return Graph, (self.n, self.edges, self.roles)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.adjacency[u]

    def components(self) -> list[list[int]]:
        adjacency = self.adjacency
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in adjacency[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        queue.append(y)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "roles": _copy_roles(self.roles),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        """Build from ``to_json_dict`` output, rejecting malformed documents
        with an InvalidParameterError that names the bad field."""
        if not isinstance(data, dict):
            raise InvalidParameterError("graph JSON must be an object")
        n, edges, roles = data.get("n"), data.get("edges"), data.get("roles")
        if not isinstance(edges, list):
            raise InvalidParameterError(f"graph field 'edges' is not a list: {edges!r}")
        if isinstance(roles, dict):
            # only flat roles, so that the graph's copy shares nothing with data
            for name, value in roles.items():
                if type(value) is not int and not (type(value) is list and {*map(type, value)} <= {int}):
                    raise InvalidParameterError(f"graph role {name!r} is not an int or a list of ints")
        return cls(n, edges, roles)  # which refuses roles that are not an object


def _copy_roles(roles: RoleMap) -> RoleMap:
    """A copy that shares no list with ``roles``, so that a graph owns its
    roles and its JSON document does not alias them."""
    return {k: list(v) if isinstance(v, list) else v for k, v in roles.items()}


def _index_edges(n: int, edges: Iterable[Iterable[int]]) -> tuple[Edge, ...]:
    """The canonical edge tuple of a raw edge list; the one place an edge
    list is checked.

    Each edge is checked for shape and self-loops as it is read.  Ranges and
    duplicates are checked on the sorted list in bulk, and only a list that
    fails is walked again, to name its first bad edge in sorted order.
    """
    norm = []
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            u = v = None
        if type(u) is not int or type(v) is not int:
            raise InvalidParameterError(f"edge {e!r} is not a pair of vertex indices")
        if u < v:
            norm.append(e if type(e) is tuple else (u, v))  # a canonical pair is kept
        elif u > v:
            norm.append((v, u))
        else:
            raise InvalidParameterError(f"self-loop at vertex {u}")
    norm.sort()
    if norm and (
        norm[0][0] < 0 or max(map(itemgetter(1), norm)) >= n or len(set(norm)) < len(norm)
    ):
        prev = None
        for e in norm:
            u, v = e
            if u < 0 or v >= n:
                raise InvalidParameterError(
                    f"edge ({u}, {v}) invalid for a graph of order {n}"
                )
            if e == prev:
                raise InvalidParameterError(f"duplicate edge ({u}, {v})")
            prev = e
    return tuple(norm)


# the older name of the constructor, kept for callers that use it
make_graph = Graph


class FamilySpec(NamedTuple):
    """Tagged family name plus its integer parameters.

    Which parameters are read depends on the family: ``n`` is the main size,
    ``m`` a secondary size (windmill copies, grid rows, stacked-prism cycle
    length, bistar left side), ``k`` a cycle length / chord offset / power.
    Trees carry an explicit edge list; unions carry member specs.
    """

    family: str
    n: Optional[int] = None
    m: Optional[int] = None
    k: Optional[int] = None
    edges: Optional[tuple[Edge, ...]] = None
    members: Optional[tuple["FamilySpec", ...]] = None


def _need(spec: FamilySpec, attr: str, minimum: int) -> int:
    value = getattr(spec, attr)
    if value is None or value < minimum:
        raise InvalidParameterError(
            f"{spec.family} needs {attr} >= {minimum}, got {value}"
        )
    return value


def _cycle_edges(offset: int, n: int) -> list[Edge]:
    out = list(zip(range(offset, offset + n - 1), range(offset + 1, offset + n)))
    out.append((offset, offset + n - 1))
    return out


def _build_path(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 1)
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def _build_cycle(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 3)
    return Graph(n, _cycle_edges(0, n))


def _build_star(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 1)
    return Graph(n + 1, ((0, i) for i in range(1, n + 1)), {"center": 0})


def _build_wheel(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 3)
    edges = [(0, i) for i in range(1, n + 1)] + _cycle_edges(1, n)
    roles = {"center": 0, "cycle": list(range(1, n + 1))}
    return Graph(n + 1, edges, roles)


def _build_helm(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 3)
    edges = [(0, i) for i in range(1, n + 1)]              # spokes
    edges += _cycle_edges(1, n)                            # rim
    edges += [(i, n + i) for i in range(1, n + 1)]         # pendants
    roles = {
        "center": 0,
        "cycle": list(range(1, n + 1)),
        "pendants": list(range(n + 1, 2 * n + 1)),
    }
    return Graph(2 * n + 1, edges, roles)


def _build_cycle_chord(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 4)
    k = spec.k if spec.k is not None else 3
    if not 2 < k < n:
        raise InvalidParameterError(
            f"chord offset must satisfy 2 < k < n, got k={k} for n={n}"
        )
    edges = _cycle_edges(0, n) + [(0, k - 1)]
    return Graph(n, edges, {"cycle": list(range(n)), "chord": [0, k - 1]})


def _build_snake(spec: FamilySpec) -> Graph:
    k = _need(spec, "k", 3)
    n = _need(spec, "n", 1)

    def v(i: int) -> int:  # path vertex i, 1-based
        return (i - 1) * (k - 1)

    edges = []
    for i in range(1, n + 1):
        ring = [v(i)] + [v(i) + j for j in range(1, k - 1)] + [v(i + 1)]
        edges += list(zip(ring, ring[1:]))
        edges.append((v(i), v(i + 1)))
    roles = {"path": [v(i) for i in range(1, n + 2)]}
    return Graph(n * (k - 1) + 1, edges, roles)


def _build_book(spec: FamilySpec) -> Graph:
    k = _need(spec, "k", 3)
    n = _need(spec, "n", 2)

    def x(i: int, j: int) -> int:
        return 2 + (i - 1) * (k - 2) + (j - 1)

    edges = [(0, 1)]
    for i in range(1, n + 1):
        page = [0] + [x(i, j) for j in range(1, k - 1)] + [1]
        edges += list(zip(page, page[1:]))
    return Graph(n * (k - 2) + 2, edges, {"spine": [0, 1]})


def _build_complete(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 1)
    return Graph(n, combinations(range(n), 2))


def _build_windmill(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 3)
    m = _need(spec, "m", 1)
    edges = []
    for i in range(m):
        clique = [0] + list(range(1 + i * (n - 1), 1 + (i + 1) * (n - 1)))
        edges += list(combinations(clique, 2))
    return Graph(m * (n - 1) + 1, edges, {"hub": 0})


def _build_friendship(spec: FamilySpec) -> Graph:
    m = _need(spec, "m", 1)
    return _build_windmill(FamilySpec("windmill", n=3, m=m))


def _build_bistar(spec: FamilySpec) -> Graph:
    m = _need(spec, "m", 1)
    n = _need(spec, "n", 1)
    edges = [(0, 1)]
    edges += [(0, 1 + i) for i in range(1, m + 1)]
    edges += [(1, m + 1 + j) for j in range(1, n + 1)]
    roles = {
        "centers": [0, 1],
        "left_leaves": list(range(2, m + 2)),
        "right_leaves": list(range(m + 2, m + n + 2)),
    }
    return Graph(m + n + 2, edges, roles)


def _build_prism(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 3)
    edges = _product_edges(
        _build_path(FamilySpec("path", n=2)), _build_cycle(FamilySpec("cycle", n=n))
    )
    roles = {"u_cycle": list(range(n)), "v_cycle": list(range(n, 2 * n))}
    return Graph(2 * n, edges, roles)


def _build_stacked_prism(spec: FamilySpec) -> Graph:
    m = _need(spec, "m", 3)
    n = _need(spec, "n", 1)
    return cartesian_product(
        _build_cycle(FamilySpec("cycle", n=m)), _build_path(FamilySpec("path", n=n))
    )


def _build_grid(spec: FamilySpec) -> Graph:
    m = _need(spec, "m", 1)
    n = _need(spec, "n", 1)
    return cartesian_product(
        _build_path(FamilySpec("path", n=m)), _build_path(FamilySpec("path", n=n))
    )


def _build_ladder(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 1)
    return _build_grid(FamilySpec("grid", m=2, n=n))


def _build_path_power(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 1)
    k = _need(spec, "k", 1)
    return graph_power(_build_path(FamilySpec("path", n=n)), k)


def _build_cycle_power(spec: FamilySpec) -> Graph:
    n = _need(spec, "n", 3)
    k = _need(spec, "k", 1)
    return graph_power(_build_cycle(FamilySpec("cycle", n=n)), k)


def _build_tree(spec: FamilySpec) -> Graph:
    edges = list(spec.edges or ())
    if not edges:
        n = spec.n if spec.n is not None else 1
        if n != 1:
            raise MalformedTreeError("a tree without edges must have one vertex")
        return Graph(1, ())
    # a tree on m edges has m + 1 vertices; other orders fail the checks below
    n = spec.n if spec.n is not None else len(edges) + 1
    try:
        g = Graph(n, edges)
    except InvalidParameterError as exc:
        raise MalformedTreeError(str(exc)) from exc
    if g.m != g.n - 1 or not g.is_connected():
        raise MalformedTreeError("edge list is not a tree")
    return g


def _build_union(spec: FamilySpec) -> Graph:
    if not spec.members:
        raise InvalidParameterError("union needs at least one member")
    return disjoint_union([build_family(member) for member in spec.members])


# family -> (builder, the FamilySpec fields it reads); the CLI rejects a
# family flag whose field is not listed
_BUILDERS = {
    "path": (_build_path, ("n",)),
    "cycle": (_build_cycle, ("n",)),
    "star": (_build_star, ("n",)),
    "wheel": (_build_wheel, ("n",)),
    "helm": (_build_helm, ("n",)),
    "cycle_chord": (_build_cycle_chord, ("n", "k")),
    "snake": (_build_snake, ("n", "k")),
    "book": (_build_book, ("n", "k")),
    "complete": (_build_complete, ("n",)),
    "windmill": (_build_windmill, ("n", "m")),
    "friendship": (_build_friendship, ("m",)),
    "bistar": (_build_bistar, ("n", "m")),
    "prism": (_build_prism, ("n",)),
    "stacked_prism": (_build_stacked_prism, ("n", "m")),
    "grid": (_build_grid, ("n", "m")),
    "ladder": (_build_ladder, ("n",)),
    "path_power": (_build_path_power, ("n", "k")),
    "cycle_power": (_build_cycle_power, ("n", "k")),
    "tree": (_build_tree, ("n", "edges")),
    "union": (_build_union, ("members",)),
}

FAMILIES = tuple(_BUILDERS)


def build_family(spec: FamilySpec) -> Graph:
    """Construct the requested family with its documented vertex ordering."""
    try:
        builder, _ = _BUILDERS[spec.family]
    except KeyError:
        raise InvalidParameterError(f"unknown family {spec.family!r}") from None
    return builder(spec)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex ``(a, b)`` gets index ``a * h.n + b``."""
    if g.n == 0 or h.n == 0:
        raise InvalidParameterError("product factors must be nonempty")
    return Graph(g.n * h.n, _product_edges(g, h))


def _product_edges(g: Graph, h: Graph) -> list[Edge]:
    edges = []
    for a, b in g.edges:
        edges += [(a * h.n + c, b * h.n + c) for c in range(h.n)]
    for c, d in h.edges:
        edges += [(a * h.n + c, a * h.n + d) for a in range(g.n)]
    return edges


def graph_power(g: Graph, k: int) -> Graph:
    """Edges between all vertex pairs at distance at most ``k`` in ``g``."""
    if k < 1:
        raise InvalidParameterError("power must be at least 1")
    adjacency = g.adjacency
    edges = []
    for src in range(g.n):
        # BFS truncated at depth k
        dist = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            if dist[x] == k:
                continue
            for y in adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        edges += [(src, other) for other in dist if other > src]
    return Graph(g.n, edges, g.roles)


def disjoint_union(graphs: list[Graph]) -> Graph:
    if not graphs:
        raise InvalidParameterError("union of nothing")
    edges = []
    roles: RoleMap = {}
    offset = 0
    for idx, g in enumerate(graphs):
        edges += [(u + offset, v + offset) for u, v in g.edges]
        roles[f"component_{idx}"] = list(range(offset, offset + g.n))
        offset += g.n
    return Graph(offset, edges, roles)


class HamiltonianData(NamedTuple):
    """A Hamiltonian cycle plus one chord based at the cycle's first vertex.

    ``cycle`` is a permutation of the vertices, as any sequence; consecutive
    entries (and the wrap-around pair) are adjacent.  ``chord`` is a
    non-cycle edge with one endpoint at ``cycle[0]``.
    """

    cycle: Sequence[int]
    chord: Edge


def validate_hamiltonian(g: Graph, ham: HamiltonianData) -> None:
    cyc = tuple(ham.cycle)
    if g.n < 3 or sorted(cyc) != list(range(g.n)):
        raise InvalidHamiltonianDataError("cycle is not a permutation of the vertices")
    adjacency = g.adjacency
    for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
        if b not in adjacency[a]:
            raise InvalidHamiltonianDataError(f"cycle step ({a}, {b}) is not an edge")
    u, v = ham.chord
    if not g.has_edge(u, v):
        raise InvalidHamiltonianDataError(f"chord ({u}, {v}) is not an edge")
    if cyc[0] not in (u, v):
        raise InvalidHamiltonianDataError("chord must touch the cycle's first vertex")
    other = v if cyc[0] == u else u
    pos = cyc.index(other)
    if pos in (1, len(cyc) - 1):
        raise InvalidHamiltonianDataError("chord duplicates a cycle edge")


def _ham(g: Graph, cycle: list[int], chord: Edge) -> HamiltonianData:
    chord = (chord[0], chord[1]) if chord[0] < chord[1] else (chord[1], chord[0])
    data = HamiltonianData(tuple(cycle), chord)
    validate_hamiltonian(g, data)
    return data


def _rotate_to_chord(g: Graph, cycle: list[int]) -> HamiltonianData:
    """Pick the smallest non-cycle edge and rotate its base to position 0."""
    pos = {v: i for i, v in enumerate(cycle)}
    n = len(cycle)
    cycle_edges = set()
    for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
        cycle_edges.add((a, b) if a < b else (b, a))
    for u, v in g.edges:  # lexicographic: first chord wins
        if (u, v) not in cycle_edges:
            rotated = cycle[pos[u]:] + cycle[: pos[u]]
            return _ham(g, rotated, (u, v))
    raise NoCanonicalCycleError("graph has no chord off the Hamiltonian cycle")


def canonical_hamiltonian(g: Graph, spec: FamilySpec) -> HamiltonianData:
    """Construction-specific Hamiltonian cycle and chord for supported families.

    Supported: cycle_chord, two-page book, complete, prism, stacked_prism
    (height >= 2), grid/ladder with an even side, path_power (k >= 2),
    cycle_power (k >= 2, n >= 4).  Anything else raises
    NoCanonicalCycleError; use the search module instead.
    """
    fam = spec.family
    if fam == "cycle_chord":
        return _ham(g, list(range(g.n)), (0, (3 if spec.k is None else spec.k) - 1))

    if fam == "book" and spec.n == 2:
        # out along page one from spine vertex 0 to 1, back along page two
        k = _need(spec, "k", 3)
        return _ham(g, [0, *range(2, k), 1, *range(2 * k - 3, k - 1, -1)], (0, 1))

    if fam == "complete":
        if g.n < 4:
            raise NoCanonicalCycleError("complete graphs below order 4 have no chord")
        return _ham(g, list(range(g.n)), (0, 2))

    if fam == "prism":
        n = _need(spec, "n", 3)
        cyc = list(range(n)) + list(range(2 * n - 1, n - 1, -1))
        return _ham(g, cyc, (0, n - 1))

    if fam == "stacked_prism":
        rows = _need(spec, "m", 3)
        cols = _need(spec, "n", 1)
        if cols < 2:
            raise NoCanonicalCycleError("height-1 stacks are plain cycles")
        if rows % 2 == 0:
            # alternate column direction row by row; closes since rows is even
            cyc = []
            for a in range(rows):
                rng = range(cols) if a % 2 == 0 else range(cols - 1, -1, -1)
                cyc += [a * cols + b for b in rng]
            return _ham(g, cyc, (0, cols))
        # odd row count: sweep ring 0, boustrophedon rings 1.. over rows 1..,
        # then come home down row 0's column
        cyc = [a * cols for a in range(rows)]
        for b in range(1, cols):
            rng = range(rows - 1, 0, -1) if b % 2 == 1 else range(1, rows)
            cyc += [a * cols + b for a in rng]
        cyc += [b for b in range(cols - 1, 0, -1)]
        return _ham(g, cyc, (0, (rows - 1) * cols))

    if fam in ("grid", "ladder"):
        rows = 2 if fam == "ladder" else _need(spec, "m", 1)
        cols = _need(spec, "n", 1)
        if rows < 2 or cols < 2:
            raise NoCanonicalCycleError("need both grid sides at least 2")
        if rows % 2 == 1 and cols % 2 == 1:
            raise NoCanonicalCycleError("odd-by-odd grids have no Hamiltonian cycle")
        transpose = rows % 2 == 1  # boustrophedon needs an even row count
        R, C = (cols, rows) if transpose else (rows, cols)

        def vid(a: int, b: int) -> int:
            return b * cols + a if transpose else a * cols + b

        cyc = [vid(0, b) for b in range(C)]
        for a in range(1, R):
            rng = range(C - 1, 0, -1) if a % 2 == 1 else range(1, C)
            cyc += [vid(a, b) for b in rng]
        cyc += [vid(a, 0) for a in range(R - 1, 0, -1)]
        return _rotate_to_chord(g, cyc)

    if fam == "path_power":
        n = _need(spec, "n", 3)
        k = _need(spec, "k", 1)
        if k < 2:
            raise NoCanonicalCycleError("plain paths have no Hamiltonian cycle")
        if g.m <= g.n:
            raise NoCanonicalCycleError("no spare edge for a chord")
        evens = list(range(0, n, 2))
        odds = list(range(n - 1 if n % 2 == 0 else n - 2, 0, -2))
        return _rotate_to_chord(g, evens + odds)

    if fam == "cycle_power":
        n = _need(spec, "n", 3)
        k = _need(spec, "k", 1)
        if k < 2 or n < 4:
            raise NoCanonicalCycleError("plain cycles have no chord")
        return _ham(g, list(range(n)), (0, 2))

    raise NoCanonicalCycleError(f"no canonical Hamiltonian recipe for {fam!r}")


def to_dot(g: Graph, labeling: Optional["Labeling"] = None, name: str = "G") -> str:
    """Render as Graphviz DOT, with labels on nodes/edges when supplied."""
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        text = labeling.vertex_labels[v] if labeling is not None else v
        lines.append(f'  v{v} [label="{text}"];')
    for u, v in g.edges:
        if labeling is not None and labeling.edge_labels:
            lines.append(f'  v{u} -- v{v} [label="{labeling.edge_labels[(u, v)]}"];')
        else:
            lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
