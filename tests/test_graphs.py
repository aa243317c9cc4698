import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from totalprime.errors import (
    InvalidHamiltonianDataError,
    InvalidParameterError,
    MalformedTreeError,
    NoCanonicalCycleError,
)
from totalprime.graphs import (
    FamilySpec,
    Graph,
    HamiltonianData,
    build_family,
    canonical_hamiltonian,
    cartesian_product,
    disjoint_union,
    graph_power,
    make_graph,
    to_dot,
    validate_hamiltonian,
)


def spec(family, **kw):
    return FamilySpec(family, **kw)


class TestGraphBasics:
    def test_edges_normalized_and_sorted(self):
        g = make_graph(4, [(3, 1), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2), (1, 3))
        assert g.adjacency[0] == (1, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_graph(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_graph(3, [(0, 3)])

    def test_json_round_trip(self):
        g = build_family(spec("helm", n=4))
        again = Graph.from_json_dict(g.to_json_dict())
        assert again == g

    def test_equality_compares_fields_not_edge_order(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)], {"hub": 1})
        assert g == Graph(4, [(3, 2), (2, 1), (1, 0)], {"hub": 1})
        assert g != Graph(4, g.edges)
        assert g != (g.n, g.edges, g.roles)
        assert repr(g) == "Graph(n=4, edges=((0, 1), (1, 2), (2, 3)), roles={'hub': 1})"

    @pytest.mark.parametrize(
        "record, field",
        [
            (make_graph(3, [(0, 1)]), "n"),
            (make_graph(3, [(0, 1)]), "adjacency"),
            (FamilySpec("prism", n=5), "n"),
        ],
    )
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 4)
        with pytest.raises(AttributeError):
            delattr(record, field)

    def test_family_spec_repr(self):
        assert repr(FamilySpec("prism", n=5)) == (
            "FamilySpec(family='prism', n=5, m=None, k=None, edges=None, members=None)"
        )

    def test_graph_pickles_and_copies(self):
        g = build_family(spec("helm", n=4))
        for again in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert again == g and again.adjacency == g.adjacency

    def test_graph_owns_its_roles(self):
        roles = {"hub": 0, "path": [1, 2]}
        g = Graph(3, [(0, 1)], roles)
        roles["hub"] = 2
        roles["path"].append(0)
        assert g.roles == {"hub": 0, "path": [1, 2]}
        data = {"n": 3, "edges": [[0, 1]], "roles": {"path": [1, 2]}}
        h = Graph.from_json_dict(data)
        data["roles"]["path"].append(0)
        assert h.roles == {"path": [1, 2]}
        other = copy.copy(h)
        other.roles["path"].append(0)
        assert h.roles == {"path": [1, 2]}
        h.to_json_dict()["roles"]["path"].append(0)
        assert h.roles == {"path": [1, 2]}

    def test_components(self):
        g = build_family(
            spec("union", members=(spec("cycle", n=3), spec("path", n=2)))
        )
        assert g.components() == [[0, 1, 2], [3, 4]]


# (family spec, expected |V|, expected |E|) closed forms
SIZE_CASES = [
    (spec("helm", n=3), 7, 9),
    (spec("helm", n=10), 21, 30),
    (spec("cycle_chord", n=9, k=5), 9, 10),
    (spec("wheel", n=5), 6, 10),
    (spec("snake", k=3, n=2), 5, 6),
    (spec("snake", k=5, n=3), 13, 15),
    (spec("book", k=3, n=4), 6, 9),
    (spec("book", k=5, n=3), 11, 13),
    (spec("complete", n=6), 6, 15),
    (spec("windmill", n=4, m=3), 10, 18),
    (spec("windmill", n=6, m=2), 11, 30),
    (spec("friendship", m=4), 9, 12),
    (spec("prism", n=3), 6, 9),
    (spec("prism", n=12), 24, 36),
    (spec("stacked_prism", m=4, n=2), 8, 12),
    (spec("stacked_prism", m=5, n=3), 15, 25),
    (spec("grid", m=2, n=5), 10, 13),
    (spec("ladder", n=4), 8, 10),
    (spec("bistar", m=4, n=5), 11, 10),
    (spec("path", n=6), 6, 5),
    (spec("cycle", n=6), 6, 6),
    (spec("star", n=5), 6, 5),
]


class TestFamilySizes:
    @pytest.mark.parametrize("fspec,nv,ne", SIZE_CASES)
    def test_closed_forms(self, fspec, nv, ne):
        g = build_family(fspec)
        assert (g.n, g.m) == (nv, ne)

    @pytest.mark.parametrize("n", range(3, 25))
    def test_helm_grid(self, n):
        g = build_family(spec("helm", n=n))
        assert (g.n, g.m) == (2 * n + 1, 3 * n)

    @pytest.mark.parametrize("k,n", [(k, n) for k in (3, 4, 7) for n in (2, 3, 6)])
    def test_book_grid(self, k, n):
        g = build_family(spec("book", k=k, n=n))
        assert (g.n, g.m) == (n * (k - 2) + 2, n * (k - 1) + 1)

    @pytest.mark.parametrize("n,m", [(n, m) for n in (4, 5, 6) for m in (2, 5)])
    def test_windmill_grid(self, n, m):
        g = build_family(spec("windmill", n=n, m=m))
        assert (g.n, g.m) == (m * (n - 1) + 1, m * n * (n - 1) // 2)

    def test_union_of_two_triangles(self):
        g = build_family(spec("union", members=(spec("cycle", n=3),) * 2))
        assert (g.n, g.m) == (6, 6)
        assert len(g.components()) == 2

    def test_helm_roles(self):
        g = build_family(spec("helm", n=3))
        assert g.roles["center"] == 0
        assert g.roles["cycle"] == [1, 2, 3]
        assert g.roles["pendants"] == [4, 5, 6]

    @pytest.mark.parametrize(
        "bad",
        [
            spec("helm", n=2),
            spec("cycle", n=2),
            spec("cycle_chord", n=4, k=2),
            spec("cycle_chord", n=4, k=4),
            spec("snake", k=2, n=2),
            spec("windmill", n=2, m=2),
            spec("prism", n=2),
            spec("bistar", m=0, n=1),
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(InvalidParameterError):
            build_family(bad)

    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError):
            build_family(spec("moebius", n=4))


class TestTrees:
    def test_explicit_tree(self):
        g = build_family(spec("tree", edges=((0, 1), (1, 2), (1, 3))))
        assert (g.n, g.m) == (4, 3)

    def test_cycle_rejected(self):
        with pytest.raises(MalformedTreeError):
            build_family(spec("tree", edges=((0, 1), (1, 2), (0, 2))))

    def test_forest_rejected(self):
        with pytest.raises(MalformedTreeError):
            build_family(spec("tree", n=4, edges=((0, 1), (2, 3))))

    def test_single_vertex(self):
        g = build_family(spec("tree", n=1, edges=()))
        assert (g.n, g.m) == (1, 0)


class TestProductsAndPowers:
    @pytest.mark.parametrize(
        "a,b,nv,ne",
        [
            (spec("path", n=2), spec("cycle", n=3), 6, 9),
            (spec("path", n=2), spec("path", n=2), 4, 4),
            (spec("cycle", n=4), spec("path", n=2), 8, 12),
        ],
    )
    def test_product_counts(self, a, b, nv, ne):
        g = cartesian_product(build_family(a), build_family(b))
        assert (g.n, g.m) == (nv, ne)

    def test_smallest_grid_is_a_cycle(self):
        g = build_family(spec("grid", m=2, n=2))
        assert (g.n, g.m) == (4, 4)
        assert all(g.degree(v) == 2 for v in range(4))
        assert g.is_connected()

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
    )
    def test_product_count_formula(self, a, b):
        g = build_family(spec("path", n=a))
        h = build_family(spec("cycle", n=b + 2))
        prod = cartesian_product(g, h)
        assert prod.n == g.n * h.n
        assert prod.m == g.n * h.m + h.n * g.m

    def test_path_square_edge_count(self):
        assert build_family(spec("path_power", n=8, k=2)).m == 2 * 8 - 3

    def test_cycle_cube_edge_count(self):
        assert build_family(spec("cycle_power", n=8, k=3)).m == 3 * 8

    def test_high_power_of_short_path_is_complete(self):
        g = build_family(spec("path_power", n=3, k=5))
        assert g.edges == build_family(spec("complete", n=3)).edges

    def test_power_one_is_identity(self):
        g = build_family(spec("helm", n=4))
        assert graph_power(g, 1) == g

    @pytest.mark.parametrize("base", [spec("path", n=7), spec("cycle", n=9)])
    def test_power_monotone(self, base):
        g = build_family(base)
        prev = set()
        for k in range(1, 5):
            cur = set(graph_power(g, k).edges)
            assert prev <= cur
            prev = cur

    def test_power_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            graph_power(build_family(spec("path", n=3)), 0)

    def test_union_offsets(self):
        g = disjoint_union(
            [build_family(spec("cycle", n=3)), build_family(spec("cycle", n=4))]
        )
        assert g.n == 7
        assert (3, 4) in g.edges


HAM_SPECS = [
    spec("cycle_chord", n=4),
    spec("cycle_chord", n=9, k=5),
    spec("book", k=3, n=2),
    spec("book", k=6, n=2),
    spec("complete", n=4),
    spec("complete", n=8),
    spec("prism", n=3),
    spec("prism", n=8),
    spec("stacked_prism", m=3, n=2),
    spec("stacked_prism", m=3, n=5),
    spec("stacked_prism", m=4, n=2),
    spec("stacked_prism", m=4, n=6),
    spec("stacked_prism", m=5, n=2),
    spec("stacked_prism", m=5, n=4),
    spec("stacked_prism", m=6, n=3),
    spec("ladder", n=3),
    spec("ladder", n=8),
    spec("grid", m=2, n=4),
    spec("grid", m=4, n=3),
    spec("grid", m=3, n=4),
    spec("grid", m=4, n=5),
    spec("path_power", n=4, k=2),
    spec("path_power", n=9, k=2),
    spec("path_power", n=8, k=3),
    spec("cycle_power", n=6, k=2),
    spec("cycle_power", n=8, k=3),
]


class TestCanonicalHamiltonian:
    @pytest.mark.parametrize("fspec", HAM_SPECS)
    def test_structurally_valid(self, fspec):
        g = build_family(fspec)
        ham = canonical_hamiltonian(g, fspec)
        validate_hamiltonian(g, ham)
        # chord offset strictly inside the cycle
        other = ham.chord[1] if ham.cycle[0] == ham.chord[0] else ham.chord[0]
        pos = ham.cycle.index(other)
        assert 2 <= pos <= g.n - 2

    def test_complete_uses_identity_cycle(self):
        fspec = spec("complete", n=4)
        ham = canonical_hamiltonian(build_family(fspec), fspec)
        assert ham.cycle == (0, 1, 2, 3)
        assert ham.chord == (0, 2)

    def test_prism_cycle_shape(self):
        fspec = spec("prism", n=3)
        ham = canonical_hamiltonian(build_family(fspec), fspec)
        assert ham.cycle == (0, 1, 2, 5, 4, 3)
        assert ham.chord == (0, 2)

    def test_two_page_book_cycle_shape(self):
        # out along page one (vertices 2, 3) to spine vertex 1, back along page two
        fspec = spec("book", k=4, n=2)
        ham = canonical_hamiltonian(build_family(fspec), fspec)
        assert ham.cycle == (0, 2, 3, 1, 5, 4)
        assert ham.chord == (0, 1)

    def test_rect_stack_cycle_shape(self):
        # columns alternate direction: first up, second down, third up, last down
        fspec = spec("stacked_prism", m=4, n=2)
        ham = canonical_hamiltonian(build_family(fspec), fspec)
        assert ham.cycle == (0, 1, 3, 2, 4, 5, 7, 6)
        assert ham.chord == (0, 2)  # bottom edge between the first two columns

    @pytest.mark.parametrize(
        "fspec",
        [
            spec("path", n=5),
            spec("helm", n=4),
            spec("grid", m=3, n=3),
            spec("ladder", n=1),
            spec("grid", m=2, n=2),
            spec("path_power", n=3, k=2),
            spec("cycle_power", n=6, k=1),
            spec("stacked_prism", m=3, n=1),
            spec("book", k=4, n=3),
        ],
    )
    def test_unsupported_raises(self, fspec):
        g = build_family(fspec)
        with pytest.raises(NoCanonicalCycleError):
            canonical_hamiltonian(g, fspec)

    def test_validate_rejects_non_cycle(self):
        g = build_family(spec("complete", n=4))
        with pytest.raises(InvalidHamiltonianDataError):
            validate_hamiltonian(g, HamiltonianData((0, 1, 2), (0, 2)))

    def test_validate_rejects_cycle_edge_chord(self):
        g = build_family(spec("complete", n=4))
        with pytest.raises(InvalidHamiltonianDataError):
            validate_hamiltonian(g, HamiltonianData((0, 1, 2, 3), (0, 1)))

    def test_validate_rejects_detached_chord(self):
        g = build_family(spec("complete", n=5))
        with pytest.raises(InvalidHamiltonianDataError):
            validate_hamiltonian(g, HamiltonianData((0, 1, 2, 3, 4), (1, 3)))


class TestDot:
    def test_plain_graph(self):
        text = to_dot(build_family(spec("path", n=3)))
        assert "v0 -- v1" in text and text.startswith("graph G {")

    def test_labeled_graph(self):
        from totalprime.constructors import helm

        result = helm(3)
        text = to_dot(result.graph, result.labeling)
        assert 'v0 [label="1"];' in text
        assert '[label="14"]' in text
