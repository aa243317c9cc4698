from math import gcd

import pytest
from hypothesis import given, strategies as st

from conftest import assert_total_prime
from totalprime.constructors import (
    bistar,
    book,
    complete,
    construct,
    cycle_with_chord,
    extend_coprime_hamiltonian,
    extend_prime_hamiltonian,
    extend_prime_tree,
    helm,
    prism,
    snake,
    stacked_rect_prism,
    windmill,
)
from totalprime.errors import (
    BoundViolatedError,
    InvalidHamiltonianDataError,
    InvalidParameterError,
    NotATreeError,
    NotCoprimeError,
    NotPrimeLabelingError,
    UnsupportedCaseError,
)
from totalprime.graphs import (
    FamilySpec,
    HamiltonianData,
    build_family,
    canonical_hamiltonian,
    make_graph,
)
from totalprime.labeling import Labeling, verify_coprime
from totalprime.search import find_prime, minimum_coprime_number


class TestHelm:
    def test_smallest_instance_exact(self):
        r = helm(3)
        assert r.labeling.vertex_labels == [1, 2, 5, 7, 3, 4, 6]
        assert r.labeling.edge_labels == {
            (1, 4): 8, (2, 5): 10, (3, 6): 12,
            (1, 2): 9, (2, 3): 11, (1, 3): 13,
            (0, 1): 14, (0, 2): 15, (0, 3): 16,
        }
        assert_total_prime(r.graph, r.labeling, "helm 3")

    def test_label_count(self):
        r = helm(4)
        labels = list(r.labeling.vertex_labels) + list(r.labeling.edge_labels.values())
        assert sorted(labels) == list(range(1, 22))  # 5n + 1 labels

    def test_rim_one_mod_three(self):
        # rims of size 7, 10, ... are where naive consecutive schemes break
        for n in (7, 10, 13):
            r = helm(n)
            assert_total_prime(r.graph, r.labeling, f"helm {n}")

    def test_grid(self):
        for n in range(3, 40):
            r = helm(n)
            assert_total_prime(r.graph, r.labeling, f"helm {n}")

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            helm(2)


class TestCycleWithChord:
    def test_smallest_instance_exact(self):
        r = cycle_with_chord(4, 3)
        assert r.labeling.vertex_labels == [1, 2, 3, 4]
        assert r.labeling.edge_labels == {
            (0, 1): 5, (1, 2): 6, (2, 3): 7, (0, 3): 8, (0, 2): 9,
        }
        assert_total_prime(r.graph, r.labeling, "cycle+chord 4")

    def test_nine_with_middle_chord(self):
        r = cycle_with_chord(9, 5)
        assert r.notes["chord"] == 5
        assert_total_prime(r.graph, r.labeling, "cycle+chord 9/5")

    @pytest.mark.parametrize("n,k", [(4, 2), (4, 4), (5, 5), (6, 2)])
    def test_adjacent_chord_rejected(self, n, k):
        with pytest.raises(InvalidParameterError):
            cycle_with_chord(n, k)

    def test_grid_all_offsets(self):
        for n in range(4, 30):
            for k in range(3, n):
                r = cycle_with_chord(n, k)
                assert_total_prime(r.graph, r.labeling, f"cycle+chord {n}/{k}")


class TestSnake:
    def test_smallest_instance_exact(self):
        r = snake(3, 2)
        assert r.labeling.vertex_labels == [1, 2, 3, 4, 5]
        assert r.labeling.edge_labels == {
            (0, 2): 6, (0, 1): 7, (1, 2): 8,
            (2, 4): 9, (3, 4): 10, (2, 3): 11,
        }
        assert_total_prime(r.graph, r.labeling, "snake 3x2")

    def test_pentagon_chain(self):
        r = snake(5, 3)
        assert (r.graph.n, r.graph.m) == (13, 15)
        assert_total_prime(r.graph, r.labeling, "snake 5x3")

    def test_single_ring_rejected(self):
        with pytest.raises(InvalidParameterError):
            snake(3, 1)

    def test_grid(self):
        for k in range(3, 10):
            for n in range(2, 8):
                r = snake(k, n)
                assert_total_prime(r.graph, r.labeling, f"snake {k}x{n}")

    @given(st.integers(1, 500), st.integers(3, 500))
    def test_path_vertex_labels_coprime(self, i, k):
        # consecutive shared-path vertices carry labels (i-1)(k-1)+1, i(k-1)+1
        assert gcd((i - 1) * (k - 1) + 1, i * (k - 1) + 1) == 1


class TestBook:
    def test_triangular_three_pages_exact(self):
        r = book(3, 3)
        assert r.labeling.vertex_labels == [1, 11, 2, 3, 4]
        assert r.notes == {
            "case": "odd", "prime": 11, "spine_label": 12, "skipped": (11, 12),
        }
        assert r.labeling.edge_labels[(0, 1)] == 12
        trail = sorted(
            lab for e, lab in r.labeling.edge_labels.items() if e != (0, 1)
        )
        assert trail == [5, 6, 7, 8, 9, 10]
        assert_total_prime(r.graph, r.labeling, "book 3x3")

    def test_square_three_pages_exact(self):
        r = book(4, 3)
        assert r.labeling.vertex_labels == [2, 1, 3, 4, 5, 6, 7, 8]
        assert r.notes == {"case": "even"}
        assert r.labeling.edge_labels[(0, 1)] == 18
        assert_total_prime(r.graph, r.labeling, "book 4x3")

    def test_pentagon_pages(self):
        r = book(5, 3)
        assert_total_prime(r.graph, r.labeling, "book 5x3")

    def test_two_pages_take_the_chord_route(self):
        r = book(4, 2)
        assert r.notes["case"] == "two_pages"
        assert_total_prime(r.graph, r.labeling, "book 4x2")

    def test_grid_both_parities(self):
        cases = set()
        for k in range(3, 12):
            for n in range(2, 12):
                r = book(k, n)
                cases.add(r.notes["case"])
                assert_total_prime(r.graph, r.labeling, f"book {k}x{n}")
        assert {"even", "odd", "two_pages"} <= cases

    def test_odd_case_spine_branches_both_hit(self):
        spines = set()
        for k in range(3, 12, 2):
            for n in range(3, 12):
                r = book(k, n)
                p = r.notes["prime"]
                spines.add(r.notes["spine_label"] - p)  # +1 or -1
        assert spines == {-1, 1}

    def test_too_few_pages(self):
        with pytest.raises(InvalidParameterError):
            book(3, 1)


class TestComplete:
    def test_order_four_exact(self):
        r = complete(4)
        assert r.labeling.vertex_labels == [1, 2, 3, 5]
        assert r.labeling.edge_labels == {
            (0, 1): 6, (1, 2): 7, (2, 3): 8, (0, 3): 9, (0, 2): 10, (1, 3): 4,
        }
        assert_total_prime(r.graph, r.labeling, "complete 4")

    def test_order_six(self):
        r = complete(6)
        assert_total_prime(r.graph, r.labeling, "complete 6")

    def test_triangle_rejected(self):
        with pytest.raises(InvalidParameterError):
            complete(3)

    def test_grid(self):
        for n in range(4, 30):
            r = complete(n)
            assert_total_prime(r.graph, r.labeling, f"complete {n}")

    def test_prime_labels_fit_under_cycle_block(self):
        for n in (4, 10, 25, 60):
            r = complete(n)
            cycle_base = (n * n - n - 2) // 2
            assert max(r.labeling.vertex_labels) <= cycle_base


class TestWindmill:
    def test_pair_of_cliques_exact(self):
        r = windmill(4, 2, scheme="pair")
        assert r.labeling.vertex_labels == [1, 2, 3, 5, 4, 7, 11]
        el = r.labeling.edge_labels
        first = [el[(0, 1)], el[(1, 2)], el[(2, 3)], el[(0, 3)]]
        second = [el[(0, 4)], el[(4, 5)], el[(5, 6)], el[(0, 6)]]
        assert first == [12, 13, 14, 15] and second == [16, 17, 18, 19]
        assert_total_prime(r.graph, r.labeling, "windmill pair 4")

    def test_three_squares_exact(self):
        r = windmill(4, 2, scheme="k4")
        assert r.labeling.vertex_labels == [1, 3, 4, 5, 7, 8, 9]
        el = r.labeling.edge_labels
        trail = [
            el[(0, 1)], el[(1, 2)], el[(2, 3)], el[(0, 3)],
            el[(0, 4)], el[(4, 5)], el[(5, 6)], el[(0, 6)],
        ]
        assert trail == list(range(10, 18))
        leftovers = sorted(set(el.values()) - set(trail))
        assert leftovers == [2, 6, 18, 19]
        assert_total_prime(r.graph, r.labeling, "windmill k4 m=2")

    def test_default_scheme_prefers_fixed_size(self):
        assert windmill(4, 2).notes["case"] == "k4"
        assert windmill(7, 2).notes["case"] == "pair"

    def test_figure_sized_instance(self):
        r = windmill(4, 3)
        assert_total_prime(r.graph, r.labeling, "windmill 4x3")

    def test_grids(self):
        for n in range(4, 25):
            r = windmill(n, 2, scheme="pair")
            assert_total_prime(r.graph, r.labeling, f"windmill pair {n}")
        for n in (4, 5, 6):
            for m in range(2, 25):
                r = windmill(n, m)
                assert_total_prime(r.graph, r.labeling, f"windmill {n}x{m}")

    @pytest.mark.parametrize(
        "n,m,exc",
        [
            (3, 2, UnsupportedCaseError),
            (4, 1, UnsupportedCaseError),
            (7, 3, UnsupportedCaseError),
            (2, 2, InvalidParameterError),
        ],
    )
    def test_unsupported(self, n, m, exc):
        with pytest.raises(exc):
            windmill(n, m)

    @given(st.integers(1, 100_000))
    def test_exactly_one_case_applies_per_clique(self, i):
        hits = [x for x in (10 * i - 7, 10 * i - 5, 10 * i - 3) if x % 3 == 0]
        assert len(hits) == 1


class TestPrism:
    def test_triangle_exact(self):
        r = prism(3)
        assert r.labeling.vertex_labels == [1, 4, 5, 2, 3, 7]
        el = r.labeling.edge_labels
        ring = [el[(0, 1)], el[(1, 2)], el[(2, 5)], el[(4, 5)], el[(3, 4)], el[(0, 3)]]
        assert ring == [9, 10, 11, 12, 13, 14]
        assert el[(0, 2)] == 15  # chord
        assert el[(1, 4)] == 6 and el[(3, 5)] == 8  # leftover rung and inner closing
        assert r.notes == {"swap_applied": False, "block_residue": 3}
        assert_total_prime(r.graph, r.labeling, "prism 3")

    def test_swap_case(self):
        r = prism(6)
        vl = r.labeling.vertex_labels
        assert r.notes["swap_applied"] and r.notes["block_residue"] == 1
        assert (vl[0], vl[6], vl[1], vl[7]) == (2, 1, 3, 4)
        assert (vl[5], vl[11]) == (13, 14)
        assert gcd(vl[5], vl[0]) == 1
        assert_total_prime(r.graph, r.labeling, "prism 6")

    def test_figure_sized_instance(self):
        r = prism(12)
        assert_total_prime(r.graph, r.labeling, "prism 12")

    def test_all_residues(self):
        seen = set()
        for n in range(3, 60):
            r = prism(n)
            seen.add((r.notes["block_residue"], r.notes["swap_applied"]))
            assert_total_prime(r.graph, r.labeling, f"prism {n}")
        assert seen == {(1, True), (2, False), (3, False), (4, True), (5, False)}

    def test_vertex_labels_below_edge_labels(self):
        for n in range(3, 60):
            r = prism(n)
            assert max(r.labeling.vertex_labels) < 3 * n

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            prism(2)


class TestStackedRectPrism:
    def test_smallest_instance_exact(self):
        r = stacked_rect_prism(2)
        assert r.labeling.vertex_labels == [1, 9, 2, 11, 3, 7, 5, 8]
        el = r.labeling.edge_labels
        assert el[(0, 2)] == 20  # chord across the bottom square
        assert el[(1, 7)] == 4 and el[(3, 5)] == 6 and el[(4, 6)] == 10
        assert_total_prime(r.graph, r.labeling, "rect stack 2")

    def test_figure_sized_instance(self):
        r = stacked_rect_prism(4)
        assert_total_prime(r.graph, r.labeling, "rect stack 4")

    def test_vertex_labels_fit_below_sweep(self):
        for n in range(2, 60):
            r = stacked_rect_prism(n)
            assert max(r.labeling.vertex_labels) <= 8 * n - 5
            assert_total_prime(r.graph, r.labeling, f"rect stack {n}")

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            stacked_rect_prism(1)


class TestBistar:
    def test_smallest_instance_exact(self):
        r = bistar(1, 1)
        assert r.labeling.vertex_labels == [1, 2, 4, 7]
        assert r.labeling.edge_labels == {(0, 1): 5, (0, 2): 3, (1, 3): 6}
        assert_total_prime(r.graph, r.labeling, "bistar 1x1")

    def test_figure_sized_instance(self):
        r = bistar(4, 5)
        assert_total_prime(r.graph, r.labeling, "bistar 4x5")

    def test_overlap_prone_sizes(self):
        # the (4, 6) shape is where naive schemes collide labels
        r = bistar(4, 6)
        assert_total_prime(r.graph, r.labeling, "bistar 4x6")

    def test_grid_both_orders(self):
        for m in range(1, 15):
            for n in range(1, 15):
                r = bistar(m, n)
                assert_total_prime(r.graph, r.labeling, f"bistar {m}x{n}")

    def test_empty_side_rejected(self):
        with pytest.raises(InvalidParameterError):
            bistar(0, 3)


class TestExtendPrimeHamiltonian:
    def test_square_with_chord(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
        ham = HamiltonianData((0, 1, 2, 3), (0, 2))
        r = extend_prime_hamiltonian(g, Labeling([1, 2, 3, 4]), ham)
        assert r.labeling.edge_labels == {
            (0, 1): 5, (1, 2): 6, (2, 3): 7, (0, 3): 8, (0, 2): 9,
        }
        assert_total_prime(r.graph, r.labeling, "square+chord extension")

    @pytest.mark.parametrize("cycle", [[0, 1, 2, 3, 4], range(5)], ids=["list", "range"])
    def test_any_sequence_cycle_same_as_tuple(self, cycle):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        lab = Labeling([1, 2, 3, 4, 5])
        r = extend_prime_hamiltonian(g, lab, HamiltonianData(cycle, (0, 2)))
        tupled = extend_prime_hamiltonian(g, lab, HamiltonianData((0, 1, 2, 3, 4), (0, 2)))
        assert r.labeling == tupled.labeling
        assert_total_prime(r.graph, r.labeling, "sequence-cycle extension")

    def test_ladder_via_search(self):
        fspec = FamilySpec("ladder", n=3)
        g = build_family(fspec)
        prime = find_prime(g)
        r = extend_prime_hamiltonian(g, prime.labeling, canonical_hamiltonian(g, fspec))
        assert_total_prime(r.graph, r.labeling, "ladder 3 extension")

    def test_rejects_non_prime_labeling(self):
        g = build_family(FamilySpec("cycle", n=4))
        with pytest.raises(NotPrimeLabelingError):
            extend_prime_hamiltonian(
                g, Labeling([2, 4, 1, 3]), HamiltonianData((0, 1, 2, 3), (0, 2))
            )

    def test_rejects_bad_hamiltonian_data(self):
        g = build_family(FamilySpec("path", n=3))
        with pytest.raises(InvalidHamiltonianDataError):
            extend_prime_hamiltonian(
                g, Labeling([1, 2, 3]), HamiltonianData((0, 1, 2), (0, 2))
            )


class TestExtendCoprimeHamiltonian:
    def test_triangular_stack(self):
        fspec = FamilySpec("stacked_prism", m=3, n=2)
        g = build_family(fspec)
        res = minimum_coprime_number(g, 12)
        assert res.value == 7 <= g.m - 1
        r = extend_coprime_hamiltonian(
            g, res.labeling, res.value, canonical_hamiltonian(g, fspec)
        )
        assert_total_prime(r.graph, r.labeling, "triangular stack extension")

    def test_cycle_square(self):
        fspec = FamilySpec("cycle_power", n=6, k=2)
        g = build_family(fspec)
        res = minimum_coprime_number(g, 12)
        assert res.value == 7
        r = extend_coprime_hamiltonian(
            g, res.labeling, res.value, canonical_hamiltonian(g, fspec)
        )
        assert_total_prime(r.graph, r.labeling, "cycle square extension")

    def test_bound_at_edge_count_rejected(self):
        fspec = FamilySpec("cycle_power", n=6, k=2)
        g = build_family(fspec)
        lab = Labeling([1, 2, 3, 5, 7, 11])
        assert verify_coprime(g, lab, 11).valid
        with pytest.raises(BoundViolatedError):
            extend_coprime_hamiltonian(g, lab, g.m, canonical_hamiltonian(g, fspec))

    def test_rejects_non_coprime(self):
        fspec = FamilySpec("cycle_power", n=6, k=2)
        g = build_family(fspec)
        with pytest.raises(NotCoprimeError):
            extend_coprime_hamiltonian(
                g, Labeling([2, 4, 6, 8, 10, 11]), 11, canonical_hamiltonian(g, fspec)
            )


class TestTheoremInstances:
    """Family constructors that are the extension theorems applied to the
    family's own vertex labels and canonical Hamiltonian data; labelings
    must agree exactly (notes differ by design)."""

    @pytest.mark.parametrize(
        "fspec",
        [FamilySpec("cycle_chord", n=n, k=k) for n in range(4, 13) for k in range(3, n)]
        + [FamilySpec("book", k=k, n=2) for k in range(3, 16)],
        ids=lambda s: f"{s.family}-n{s.n}-k{s.k}",
    )
    def test_prime_extension(self, fspec):
        g = build_family(fspec)
        r = construct(fspec)
        ext = extend_prime_hamiltonian(
            g, Labeling(r.labeling.vertex_labels), canonical_hamiltonian(g, fspec)
        )
        assert ext.labeling == r.labeling

    @pytest.mark.parametrize(
        "fspec",
        [FamilySpec("complete", n=n) for n in range(4, 21)]
        + [FamilySpec("prism", n=n) for n in range(3, 31)]
        + [FamilySpec("stacked_prism", m=4, n=n) for n in range(2, 21)],
        ids=lambda s: f"{s.family}-n{s.n}-k{s.k}",
    )
    def test_coprime_extension(self, fspec):
        g = build_family(fspec)
        r = construct(fspec)
        ext = extend_coprime_hamiltonian(
            g, Labeling(r.labeling.vertex_labels), g.m - 1, canonical_hamiltonian(g, fspec)
        )
        assert ext.labeling == r.labeling


class TestExtendPrimeTree:
    def test_path_is_single_cover(self):
        g = build_family(FamilySpec("path", n=3))
        r = extend_prime_tree(g, Labeling([1, 2, 3]))
        assert r.notes["paths"] == [(0, 1, 2)]
        assert r.labeling.edge_labels == {(0, 1): 4, (1, 2): 5}
        assert_total_prime(r.graph, r.labeling, "path cover")

    def test_claw(self):
        g = build_family(FamilySpec("star", n=3))
        r = extend_prime_tree(g, Labeling([1, 2, 3, 4]))
        assert r.notes["paths"] == [(1, 0, 2)]
        assert r.labeling.edge_labels == {(0, 1): 5, (0, 2): 6, (0, 3): 7}
        assert gcd(gcd(5, 6), 7) == 1
        assert_total_prime(r.graph, r.labeling, "claw cover")

    def test_binary_tree_four_levels(self):
        edges = tuple((i, 2 * i + 1) for i in range(7)) + tuple(
            (i, 2 * i + 2) for i in range(7)
        )
        g = build_family(FamilySpec("tree", n=15, edges=edges))
        prime = find_prime(g)
        r = extend_prime_tree(g, prime.labeling)
        assert_total_prime(r.graph, r.labeling, "binary tree cover")

    def test_cover_invariants(self):
        edges = ((0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (4, 6), (2, 7))
        g = build_family(FamilySpec("tree", edges=edges))
        prime = find_prime(g)
        r = extend_prime_tree(g, prime.labeling)
        paths = r.notes["paths"]
        # interiors cover each internal vertex exactly once
        interior = [v for p in paths for v in p[1:-1]]
        assert sorted(interior) == sorted(v for v in range(g.n) if g.degree(v) >= 2)
        # paths are pairwise edge-disjoint
        seen = set()
        for p in paths:
            for e in zip(p, p[1:]):
                e = tuple(sorted(e))
                assert e not in seen
                seen.add(e)
        # consecutive labels along each path
        lab = r.labeling.edge_labels
        for p in paths:
            labels = [lab[tuple(sorted(e))] for e in zip(p, p[1:])]
            assert labels == list(range(labels[0], labels[0] + len(labels)))
        assert_total_prime(r.graph, r.labeling, "cover invariants")

    def test_rejects_cycle(self):
        g = build_family(FamilySpec("cycle", n=4))
        with pytest.raises(NotATreeError):
            extend_prime_tree(g, Labeling([1, 2, 3, 4]))

    def test_rejects_non_prime(self):
        g = build_family(FamilySpec("star", n=3))
        with pytest.raises(NotPrimeLabelingError):
            extend_prime_tree(g, Labeling([2, 4, 1, 3]))
