import random
import re
import runpy
from collections import defaultdict
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import totalprime
from totalprime.errors import BoundTooSmallError, SizeMismatchError
from totalprime.graphs import FamilySpec, build_family, make_graph
from totalprime.labeling import (
    ADJACENT_NOT_COPRIME,
    INCIDENT_SHARED_FACTOR,
    NON_BIJECTIVE,
    Labeling,
    VerificationReport,
    Violation,
    verify_coprime,
    verify_prime,
    verify_total_prime,
)

grid_sample = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "bench" / "gen.py")
)["grid_sample"]


def helm3_labeling():
    # hub 1; rim 2,5,7; pendants 3,4,6; pendant edges 8,10,12; rim edges
    # 9,11,13; spokes 14,15,16
    return Labeling(
        [1, 2, 5, 7, 3, 4, 6],
        {
            (1, 4): 8, (2, 5): 10, (3, 6): 12,
            (1, 2): 9, (2, 3): 11, (1, 3): 13,
            (0, 1): 14, (0, 2): 15, (0, 3): 16,
        },
    )


class TestTotalPrime:
    def test_helm3_instance_valid(self):
        g = build_family(FamilySpec("helm", n=3))
        report = verify_total_prime(g, helm3_labeling())
        assert report.valid and not report.violations

    def test_triangle_parity_conflict(self):
        # edges 4 and 6 meet at the vertex labeled 1
        g = build_family(FamilySpec("cycle", n=3))
        lab = Labeling([1, 2, 3], {(0, 1): 4, (1, 2): 5, (0, 2): 6})
        report = verify_total_prime(g, lab)
        assert not report.valid
        kinds = {(v.kind, v.vertices) for v in report.violations}
        assert (INCIDENT_SHARED_FACTOR, (0,)) in kinds
        shared = [v for v in report.violations if v.kind == INCIDENT_SHARED_FACTOR]
        assert shared[0].gcd == 2

    def test_sequential_labels_on_clique_plus_triangles_fail(self):
        # identity-style bijection on K_5 with two triangles: guaranteed bad
        members = (
            FamilySpec("complete", n=5),
            FamilySpec("cycle", n=3),
            FamilySpec("cycle", n=3),
        )
        g = build_family(FamilySpec("union", members=members))
        lab = Labeling(
            list(range(1, g.n + 1)),
            {e: g.n + i + 1 for i, e in enumerate(g.edges)},
        )
        report = verify_total_prime(g, lab)
        assert not report.valid
        assert any(v.kind == ADJACENT_NOT_COPRIME for v in report.violations)

    def test_all_violations_reported(self):
        g = build_family(FamilySpec("cycle", n=4))
        lab = Labeling([2, 4, 6, 8], {(0, 1): 1, (1, 2): 3, (2, 3): 5, (0, 3): 7})
        report = verify_total_prime(g, lab)
        assert len([v for v in report.violations if v.kind == ADJACENT_NOT_COPRIME]) == 4

    def test_bijectivity_out_of_range_and_duplicate(self):
        g = build_family(FamilySpec("path", n=2))
        report = verify_total_prime(g, Labeling([1, 9], {(0, 1): 1}))
        kinds = [v.kind for v in report.violations]
        assert kinds.count(NON_BIJECTIVE) == 2  # 9 out of range, 1 duplicated

    def test_pendants_carry_no_edge_condition(self):
        # middle vertex sees gcd(2, 4) = 2; the two pendants are not flagged
        g = build_family(FamilySpec("path", n=3))
        report = verify_total_prime(g, Labeling([1, 3, 5], {(0, 1): 2, (1, 2): 4}))
        assert [v.vertices for v in report.violations] == [(1,)]

    def test_pendant_gcds_read_no_neighbour_lists(self):
        # a pendant's incident gcd is its one edge label, so these labelings
        # take the degree check, which counts degrees off the edges
        for result in (totalprime.helm(5), totalprime.bistar(2, 3)):
            assert verify_total_prime(result.graph, result.labeling).valid
            assert result.graph._adjacency is None

    def test_degree_zero_vertex_accepted(self):
        g = make_graph(3, [(0, 1)])
        report = verify_total_prime(g, Labeling([1, 2, 3], {(0, 1): 4}))
        assert not report.valid or report.valid  # shape accepted
        assert verify_total_prime(g, Labeling([1, 2, 3], {(0, 1): 4})).valid

    def test_size_mismatch(self):
        g = build_family(FamilySpec("cycle", n=4))
        with pytest.raises(SizeMismatchError):
            verify_total_prime(g, Labeling([1, 2, 3], {}))

    def test_missing_edge_key(self):
        g = build_family(FamilySpec("cycle", n=3))
        with pytest.raises(SizeMismatchError):
            verify_total_prime(g, Labeling([1, 2, 3], {(0, 1): 4, (1, 2): 5}))

    def test_edge_keys_are_read_not_written(self):
        # a defaultdict with a wrong key is a mismatch, and is left as it was
        g = build_family(FamilySpec("cycle", n=3))
        el = defaultdict(int, {(0, 1): 4, (1, 2): 5, (0, 3): 6})
        with pytest.raises(SizeMismatchError):
            verify_total_prime(g, Labeling([1, 2, 3], el))
        assert sorted(el) == [(0, 1), (0, 3), (1, 2)]

    @given(st.permutations(list(range(6))))
    def test_edge_order_insensitive(self, perm):
        # shuffling the edge input order never changes the verdict
        base_edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        shuffled = [base_edges[i] for i in perm]
        g = make_graph(5, shuffled)
        lab = Labeling([1, 2, 3, 4, 5], {e: i + 6 for i, e in enumerate(sorted(base_edges))})
        ref = verify_total_prime(make_graph(5, base_edges), lab)
        assert verify_total_prime(g, lab).valid == ref.valid


def _reference_verify_total_prime(g, labeling):
    """The total verifier as it was before a bijection was accepted by one
    sort: two key sets for the shape, every label through the listing loop."""
    if len(labeling.vertex_labels) != g.n:
        raise SizeMismatchError(f"{len(labeling.vertex_labels)} vertex labels for order {g.n}")
    if set(labeling.edge_labels) != set(g.edges):
        raise SizeMismatchError("edge label keys do not match the edge set")
    el, vl = labeling.edge_labels, labeling.vertex_labels
    edge_labels = []
    incident = [0] * g.n
    for e in g.edges:
        lab = el[e]
        edge_labels.append(lab)
        u, v = e
        incident[u] = gcd(incident[u], lab)
        incident[v] = gcd(incident[v], lab)
    limit = g.n + g.m
    violations = []
    seen = {}
    for lab, subject in zip([*vl, *edge_labels], [*range(g.n), *g.edges]):
        if not 1 <= lab <= limit:
            violations.append(Violation(NON_BIJECTIVE, label=lab, note=f"out of range at {subject}"))
        elif lab in seen:
            violations.append(
                Violation(NON_BIJECTIVE, label=lab, note=f"duplicate at {subject} and {seen[lab]}")
            )
        else:
            seen[lab] = subject
    if not violations and len(seen) != limit:
        missing = min(set(range(1, limit + 1)) - set(seen))
        violations.append(Violation(NON_BIJECTIVE, label=missing, note="label never used"))
    for u, v in g.edges:
        d = gcd(vl[u], vl[v])
        if d != 1:
            violations.append(Violation(ADJACENT_NOT_COPRIME, (u, v), gcd=d))
    violations += [
        Violation(INCIDENT_SHARED_FACTOR, (v,), gcd=d)
        for v, d in enumerate(incident)
        if d != 1 and g.degree(v) >= 2
    ]
    return VerificationReport.from_violations(violations)


def _corruptions(labeling, rnd):
    """Four broken copies of a valid labeling: two labels swapped, one label
    duplicated, one out of range (0, negative or past n + m), and one edge
    key missing."""
    vl, el = list(labeling.vertex_labels), dict(labeling.edge_labels)
    slots = [("v", i) for i in range(len(vl))] + [("e", e) for e in el]
    total = len(slots)

    def read(slot):
        return vl[slot[1]] if slot[0] == "v" else el[slot[1]]

    def copy_with(changes):
        v2, e2 = list(vl), dict(el)
        for (kind, key), lab in changes:
            (v2 if kind == "v" else e2)[key] = lab
        return Labeling(v2, e2)

    a, b = rnd.sample(slots, 2)
    yield copy_with([(a, read(b)), (b, read(a))])
    yield copy_with([(a, read(b))])
    yield copy_with([(a, rnd.choice([0, -read(a), total + 1 + rnd.randrange(3)]))])
    short = dict(el)
    del short[rnd.choice(list(short))]
    yield Labeling(vl, short)


def test_total_verifier_matches_the_reference_on_the_grid():
    # every labeling of the benchmark's seed-1 grid draw, and broken copies
    # of each: the same report, violations in the same order, or the same error
    rnd = random.Random(1)
    kinds = set()
    for item in grid_sample(1, 4000):
        result = getattr(totalprime, item.ctor)(*item.args, **dict(item.kwargs))
        g = result.graph
        assert verify_total_prime(g, result.labeling) == _reference_verify_total_prime(
            g, result.labeling
        ), item
        for bad in _corruptions(result.labeling, rnd):
            try:
                expected = _reference_verify_total_prime(g, bad)
            except SizeMismatchError as exc:
                with pytest.raises(SizeMismatchError, match=re.escape(str(exc))):
                    verify_total_prime(g, bad)
                kinds.add("size")
                continue
            assert verify_total_prime(g, bad) == expected, item
            kinds.update(v.kind for v in expected.violations)
    assert kinds == {"size", NON_BIJECTIVE, ADJACENT_NOT_COPRIME, INCIDENT_SHARED_FACTOR}


class TestPrime:
    def test_path_sequential(self):
        g = build_family(FamilySpec("path", n=3))
        assert verify_prime(g, Labeling([1, 2, 3])).valid

    def test_triangle_sequential(self):
        g = build_family(FamilySpec("cycle", n=3))
        assert verify_prime(g, Labeling([1, 2, 3])).valid

    def test_clique_of_four_fails(self):
        g = build_family(FamilySpec("complete", n=4))
        report = verify_prime(g, Labeling([1, 2, 3, 4]))
        assert not report.valid
        assert any(v.gcd == 2 for v in report.violations)

    def test_edge_labels_rejected(self):
        g = build_family(FamilySpec("path", n=2))
        with pytest.raises(SizeMismatchError):
            verify_prime(g, Labeling([1, 2], {(0, 1): 3}))


class TestCoprime:
    def test_shifted_labels_on_square(self):
        g = build_family(FamilySpec("cycle", n=4))
        assert verify_coprime(g, Labeling([2, 3, 4, 5]), 5).valid

    def test_bound_too_small(self):
        g = build_family(FamilySpec("cycle", n=4))
        with pytest.raises(BoundTooSmallError):
            verify_coprime(g, Labeling([1, 2, 3, 4]), 3)

    def test_out_of_bound_label(self):
        g = build_family(FamilySpec("path", n=2))
        report = verify_coprime(g, Labeling([1, 7]), 5)
        assert not report.valid
        assert report.violations[0].kind == NON_BIJECTIVE

    @pytest.mark.parametrize(
        "fam", [FamilySpec("path", n=5), FamilySpec("cycle", n=4), FamilySpec("star", n=4)]
    )
    def test_prime_iff_coprime_at_bound_n(self, fam):
        g = build_family(fam)
        lab = Labeling(list(range(1, g.n + 1)))
        assert verify_prime(g, lab).valid == verify_coprime(g, lab, g.n).valid


class TestLabelingJson:
    def test_round_trip(self):
        lab = helm3_labeling()
        again = Labeling.from_json_dict(lab.to_json_dict())
        assert again.vertex_labels == lab.vertex_labels
        assert again.edge_labels == lab.edge_labels

    def test_vertex_only_default_is_read_only(self):
        lab = Labeling([1, 2])
        assert lab == Labeling([1, 2], {}) and lab.to_json_dict()["edge_labels"] == []
        with pytest.raises(TypeError):
            lab.edge_labels[(0, 1)] = 3
        assert Labeling([3, 4]).edge_labels == {}
