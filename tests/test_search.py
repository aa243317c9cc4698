import itertools
import pickle
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import assert_total_prime
from totalprime import search
from totalprime.constructors import bistar, helm, snake
from totalprime.errors import InvalidParameterError, NotFoundWithinBoundError
from totalprime.graphs import FamilySpec, build_family, make_graph
from totalprime.labeling import verify_coprime, verify_prime
from totalprime.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    INCONCLUSIVE,
    INFEASIBLE,
    SearchConfig,
    doubled_union_prime_transport,
    doubled_union_reduction,
    find_coprime,
    find_prime,
    find_total_prime,
    minimum_coprime_number,
    union_c3_infeasibility_certificate,
)


def cycle(n):
    return build_family(FamilySpec("cycle", n=n))


def cycle_union(*lengths):
    members = tuple(FamilySpec("cycle", n=c) for c in lengths)
    return build_family(FamilySpec("union", members=members))


class TestFindTotalPrime:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_cycles_found(self, n):
        out = find_total_prime(cycle(n))
        assert out.status == FOUND
        assert_total_prime(cycle(n), out.labeling, f"cycle {n}")

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_cycles_exhausted(self, n):
        out = find_total_prime(cycle(n))
        assert out.status == EXHAUSTED

    @pytest.mark.parametrize("lengths", [(3, 3), (3, 4)])
    def test_unions_with_a_triangle_exhausted(self, lengths):
        assert find_total_prime(cycle_union(*lengths)).status == EXHAUSTED

    def test_trivial_graphs(self):
        assert find_total_prime(make_graph(1, [])).status == FOUND
        out = find_total_prime(build_family(FamilySpec("path", n=2)))
        assert out.status == FOUND
        assert sorted(out.labeling.vertex_labels + [out.labeling.edge_labels[(0, 1)]]) == [1, 2, 3]

    def test_agrees_with_constructions(self):
        for name, g in [
            ("helm 3", helm(3).graph),
            ("snake 3x3", snake(3, 3).graph),
            ("bistar 2x3", bistar(2, 3).graph),
        ]:
            out = find_total_prime(g)
            assert out.status == FOUND, name
            assert_total_prime(g, out.labeling, name)

    def test_budget_exceeded(self):
        out = find_total_prime(snake(3, 3).graph, SearchConfig(node_budget=10))
        assert out.status == BUDGET_EXCEEDED
        assert out.nodes_explored == 11

    def test_budget_monotone(self):
        g = cycle(8)
        small = find_total_prime(g, SearchConfig(node_budget=5))
        assert small.status == BUDGET_EXCEEDED
        done = find_total_prime(g, SearchConfig(node_budget=10_000))
        bigger = find_total_prime(g, SearchConfig(node_budget=100_000))
        assert done.status == bigger.status == FOUND
        assert done.nodes_explored == bigger.nodes_explored
        assert done.labeling.vertex_labels == bigger.labeling.vertex_labels

    def test_symmetry_breaking_keeps_verdicts(self):
        for n in (5, 6):
            plain = find_total_prime(cycle(n))
            pinned = find_total_prime(cycle(n), SearchConfig(symmetry_breaking=True))
            assert plain.status == pinned.status

    @given(st.permutations(list(range(5))))
    @settings(max_examples=25, deadline=None)
    def test_exhaustion_stable_under_relabeling(self, perm):
        edges = [(perm[i], perm[(i + 1) % 5]) for i in range(5)]
        assert find_total_prime(make_graph(5, edges)).status == EXHAUSTED

    def test_seeded_value_order_still_sound(self):
        g = cycle(6)
        out = find_total_prime(g, SearchConfig(randomize=11))
        assert out.status == FOUND
        assert_total_prime(g, out.labeling, "seeded cycle 6")
        assert find_total_prime(cycle(5), SearchConfig(randomize=11)).status == EXHAUSTED


class TestFindPrime:
    def test_clique_of_four_exhausted(self):
        assert find_prime(build_family(FamilySpec("complete", n=4))).status == EXHAUSTED

    def test_two_odd_cycles_exhausted(self):
        assert find_prime(cycle_union(3, 5)).status == EXHAUSTED

    def test_small_trees_found(self):
        for edges in [((0, 1),), ((0, 1), (1, 2), (1, 3)), ((0, 1), (1, 2), (2, 3), (2, 4))]:
            g = build_family(FamilySpec("tree", edges=edges))
            out = find_prime(g)
            assert out.status == FOUND
            assert verify_prime(g, out.labeling).valid

    def test_single_odd_cycle_found(self):
        out = find_prime(cycle(3))
        assert out.status == FOUND

    def test_fifty_vertex_trees(self):
        import random

        for seed in (3, 7):
            rng = random.Random(seed)
            edges = tuple((rng.randrange(i), i) for i in range(1, 50))
            g = build_family(FamilySpec("tree", n=50, edges=edges))
            out = find_prime(g, SearchConfig(node_budget=1_000_000))
            assert out.status == FOUND
            assert verify_prime(g, out.labeling).valid


class TestFindCoprime:
    def test_bound_below_order_rejected(self):
        with pytest.raises(InvalidParameterError):
            find_coprime(cycle(4), 3)

    def test_widening_the_bound_helps(self):
        g = build_family(FamilySpec("complete", n=4))
        assert find_coprime(g, 4).status == EXHAUSTED
        out = find_coprime(g, 5)
        assert out.status == FOUND
        assert verify_coprime(g, out.labeling, 5).valid


class TestMinimumCoprime:
    @pytest.mark.parametrize(
        "fam",
        [
            FamilySpec("path", n=5),
            FamilySpec("cycle", n=4),
            FamilySpec("star", n=6),
            FamilySpec("ladder", n=3),
        ],
    )
    def test_prime_graph_needs_no_slack(self, fam):
        # whenever a prime labeling exists the minimum coprime number is n
        g = build_family(fam)
        assert find_prime(g).status == FOUND
        res = minimum_coprime_number(g, g.n + 5)
        assert res.status == FOUND and res.value == g.n

    def test_triangular_stack(self):
        g = build_family(FamilySpec("stacked_prism", m=3, n=2))
        res = minimum_coprime_number(g, 12)
        assert res.value == 7
        assert verify_coprime(g, res.labeling, 7).valid

    def test_path_square(self):
        g = build_family(FamilySpec("path_power", n=6, k=2))
        assert minimum_coprime_number(g, 12).value == 7

    def test_not_found_within_bound(self):
        g = build_family(FamilySpec("complete", n=4))
        with pytest.raises(NotFoundWithinBoundError):
            minimum_coprime_number(g, 4)

    def test_budget_exceeded_status(self):
        g = build_family(FamilySpec("stacked_prism", m=3, n=3))
        res = minimum_coprime_number(g, 20, SearchConfig(node_budget=3))
        assert res.status == BUDGET_EXCEEDED and res.value is None

    def test_every_bound_exhausted_within_budget(self):
        # bounds 6..10 of K6 take 3,249 nodes between them
        g = build_family(FamilySpec("complete", n=6))
        with pytest.raises(NotFoundWithinBoundError):
            minimum_coprime_number(g, 10, SearchConfig(node_budget=3_249))
        res = minimum_coprime_number(g, 11, SearchConfig(node_budget=3_249))
        assert res.status == BUDGET_EXCEEDED

    def test_time_budget_spans_bounds(self, monkeypatch):
        # every clock reading is one second after the last; each bound alone
        # fits in the budget, all of them together do not
        clock = itertools.count()
        monkeypatch.setattr(search.time, "perf_counter", lambda: float(next(clock)))
        g = build_family(FamilySpec("complete", n=6))
        res = minimum_coprime_number(g, 20, SearchConfig(time_budget=5))
        assert res.status == BUDGET_EXCEEDED and res.value is None


class TestCountingCertificate:
    @pytest.mark.parametrize(
        "order,copies,needed,available",
        [(2, 4, 16, 14), (3, 7, 28, 24), (4, 11, 44, 38), (5, 16, 64, 56)],
    )
    def test_infeasible_cases(self, order, copies, needed, available):
        cert = union_c3_infeasibility_certificate(order, copies)
        assert cert.status == INFEASIBLE
        assert (cert.needed_odd, cert.available_odd) == (needed, available)
        assert copies > cert.threshold

    def test_small_union_is_inconclusive(self):
        cert = union_c3_infeasibility_certificate(5, 2)
        assert cert.status == INCONCLUSIVE
        assert cert.threshold == 15

    def test_threshold_is_sufficient(self):
        for order in range(2, 9):
            threshold = order * (order + 1) // 2
            assert (
                union_c3_infeasibility_certificate(order, threshold + 1).status
                == INFEASIBLE
            )

    @given(st.integers(2, 40), st.integers(1, 2000))
    def test_infeasible_implies_a_counting_reason(self, order, copies):
        cert = union_c3_infeasibility_certificate(order, copies)
        if cert.status == INFEASIBLE:
            assert (
                copies > order * (order + 1) // 2
                or cert.needed_odd > cert.available_odd
            )

    def test_certificate_agrees_with_search_when_small(self):
        # order-2 graph with three triangles: infeasible by counting and by search
        cert = union_c3_infeasibility_certificate(2, 3)
        assert cert.status == INFEASIBLE
        members = (FamilySpec("path", n=2),) + (FamilySpec("cycle", n=3),) * 3
        g = build_family(FamilySpec("union", members=members))
        assert find_total_prime(g).status == EXHAUSTED

    def test_rejects_tiny_orders(self):
        with pytest.raises(InvalidParameterError):
            union_c3_infeasibility_certificate(1, 5)


class TestDoubledUnion:
    def test_single_triangle(self):
        g = doubled_union_reduction([3])
        assert (g.n, g.m) == (6, 6)

    def test_mixed_union_is_not_prime(self):
        g = doubled_union_reduction([3, 4])
        assert g.n == 14
        assert find_prime(g).status == EXHAUSTED

    def test_transport_produces_prime_labeling(self):
        out = find_total_prime(cycle(4))
        transported = doubled_union_prime_transport([4], out.labeling)
        assert verify_prime(doubled_union_reduction([4]), transported).valid

    def test_transport_multi_component(self):
        g = cycle_union(4, 6)
        out = find_total_prime(g)
        assert out.status == FOUND
        transported = doubled_union_prime_transport([4, 6], out.labeling)
        assert verify_prime(doubled_union_reduction([4, 6]), transported).valid

    def test_rejects_short_cycles(self):
        with pytest.raises(InvalidParameterError):
            doubled_union_reduction([3, 2])


class TestSearchConfig:
    def test_budgets_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            SearchConfig(node_budget=0)
        with pytest.raises(InvalidParameterError):
            SearchConfig(time_budget=0.0)

    def test_config_is_an_immutable_value(self):
        cfg = SearchConfig(node_budget=50, randomize=3)
        with pytest.raises(AttributeError):
            cfg.node_budget = 0
        assert cfg == SearchConfig(50, None, False, 3) != SearchConfig(50)
        assert hash(cfg) == hash(SearchConfig(50, None, False, 3))
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert repr(cfg) == (
            "SearchConfig(node_budget=50, time_budget=None, symmetry_breaking=False, randomize=3)"
        )

    def test_outcome_json_shape(self):
        out = find_total_prime(cycle(4))
        data = out.to_json_dict()
        assert data["status"] == FOUND
        assert set(data) == {"status", "nodes", "ms", "labeling"}


def test_conflict_masks_match_gcd():
    # 7 and 1 are masked down from a larger table; 31 grows it
    for limit in (30, 7, 31, 1):
        masks = search._conflict_masks(limit)
        for x in range(1, limit + 1):
            assert masks[x] == sum(1 << y for y in range(1, limit + 1) if gcd(x, y) > 1)


def grid(m, n):
    return build_family(FamilySpec("grid", m=m, n=n))


def complete(n):
    return build_family(FamilySpec("complete", n=n))


# a tree whose prime search runs through the forest parity placement rule
FOREST_EDGES = (
    (0, 6), (1, 3), (1, 7), (2, 5), (2, 6), (2, 7), (2, 9), (2, 12),
    (3, 14), (4, 14), (5, 11), (6, 10), (8, 11), (8, 13),
)


# Status and node count of fixed searches.  The engines are deterministic for
# a fixed config, so a change in pruning or in variable or value order shows
# here as a changed count.
NODE_PINS = [
    pytest.param(
        lambda: find_total_prime(snake(3, 3).graph, SearchConfig(node_budget=30_000)),
        FOUND, 11_497, id="snake 3x3 total",
    ),
    pytest.param(
        lambda: find_total_prime(cycle(6), SearchConfig(randomize=11)),
        FOUND, 1_825, id="C6 total seeded",
    ),
    pytest.param(
        lambda: find_total_prime(cycle(6), SearchConfig(symmetry_breaking=True)),
        FOUND, 21, id="C6 total pinned",
    ),
    pytest.param(lambda: find_prime(grid(4, 4)), FOUND, 225, id="grid 4x4 prime"),
    pytest.param(
        lambda: find_prime(grid(4, 4), SearchConfig(randomize=3)),
        FOUND, 16, id="grid 4x4 prime seeded",
    ),
    pytest.param(
        lambda: find_prime(grid(5, 5), SearchConfig(node_budget=10_000)),
        BUDGET_EXCEEDED, 10_001, id="grid 5x5 prime",
    ),
    pytest.param(
        lambda: minimum_coprime_number(complete(6), 24), FOUND, 3_255, id="K6 mcn",
    ),
    pytest.param(
        lambda: minimum_coprime_number(complete(6), 24, SearchConfig(randomize=2)),
        FOUND, 3_255, id="K6 mcn seeded",
    ),
    pytest.param(
        lambda: find_coprime(build_family(FamilySpec("cycle_power", n=8, k=3)), 11),
        FOUND, 8, id="C8 cube coprime",
    ),
    pytest.param(
        lambda: find_prime(build_family(FamilySpec("tree", n=15, edges=FOREST_EDGES))),
        FOUND, 2_636, id="15-tree prime",
    ),
    pytest.param(
        lambda: minimum_coprime_number(cycle_union(3, 3, 5), 30),
        FOUND, 11, id="C3+C3+C5 mcn",
    ),
    pytest.param(
        lambda: find_total_prime(cycle_union(4, 4)), FOUND, 176, id="C4+C4 total",
    ),
    # each C5 needs 3 odd labels and 1..16 holds 8: refused at the root
    pytest.param(
        lambda: find_coprime(cycle_union(5, 5, 5), 16), EXHAUSTED, 0, id="3C5 coprime",
    ),
]


@pytest.mark.parametrize("call, status, nodes", NODE_PINS)
def test_node_count_pins(call, status, nodes):
    out = call()
    assert (out.status, out.nodes_explored) == (status, nodes)


# --- brute-force oracle: the definitions alone, no engine pruning rule --------

@st.composite
def small_graphs(draw, max_labels=None):
    """Graphs on at most 7 vertices; with ``max_labels``, n + m stays within it."""
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return make_graph(n, [])
    max_size = len(pairs) if max_labels is None else min(len(pairs), max_labels - n)
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_size))
    return make_graph(n, edges)


def coprime_oracle(g, bound):
    """Some injection of the vertices into 1..bound keeps every edge coprime."""
    return any(
        all(gcd(labels[u], labels[v]) == 1 for u, v in g.edges)
        for labels in itertools.permutations(range(1, bound + 1), g.n)
    )


def _assignable(labels, slots, ok):
    """Slots 0..slots-1 take distinct labels from ``labels`` so that
    ``ok(placed)`` holds each time the next slot is filled."""
    placed = []

    def rec():
        if len(placed) == slots:
            return True
        for lab in labels:
            if lab not in placed:
                placed.append(lab)
                if ok(placed) and rec():
                    return True
                placed.pop()
        return False

    return rec()


def total_prime_oracle(g):
    """A bijection onto 1..n+m with (1) adjacent vertex labels coprime and
    (2) incident edge labels of gcd 1 at every vertex of degree >= 2.

    The two conditions split: (1) sees only the vertex labels, (2) only the
    edge labels, so each set of vertex labels is checked on its own, and
    each condition as soon as the labels it involves are placed.
    """
    total = g.n + g.m
    incident = [[ei for ei, e in enumerate(g.edges) if x in e] for x in range(g.n)]

    def vertex_ok(placed):
        v = len(placed) - 1
        return all(gcd(placed[u], placed[v]) == 1 for u in g.adjacency[v] if u < v)

    def edge_ok(placed):
        # edges are placed in index order: a vertex's set is complete when
        # its highest-numbered edge is placed
        ei = len(placed) - 1
        return all(
            len(incident[x]) < 2
            or incident[x][-1] != ei
            or gcd(*(placed[e] for e in incident[x])) == 1
            for x in g.edges[ei]
        )

    for vertex_labels in itertools.combinations(range(1, total + 1), g.n):
        edge_labels = [x for x in range(1, total + 1) if x not in vertex_labels]
        if _assignable(vertex_labels, g.n, vertex_ok) and _assignable(
            edge_labels, g.m, edge_ok
        ):
            return True
    return False


class TestBruteForceOracle:
    """The engines against the definitions on every small graph drawn."""

    @given(small_graphs(), st.none() | st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_find_prime(self, g, seed):
        out = find_prime(g, SearchConfig(randomize=seed))
        assert out.status == (FOUND if coprime_oracle(g, g.n) else EXHAUSTED)
        if out.status == FOUND:
            assert verify_prime(g, out.labeling).valid

    @given(small_graphs(), st.integers(0, 2), st.none() | st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_find_coprime(self, g, slack, seed):
        bound = g.n + slack
        out = find_coprime(g, bound, SearchConfig(randomize=seed))
        assert out.status == (FOUND if coprime_oracle(g, bound) else EXHAUSTED)
        if out.status == FOUND:
            assert verify_coprime(g, out.labeling, bound).valid

    @given(small_graphs(max_labels=12), st.none() | st.integers(0, 99))
    @example(cycle(5), None)
    @example(cycle_union(3, 3), None)
    @settings(max_examples=100, deadline=None)
    def test_find_total_prime(self, g, seed):
        out = find_total_prime(g, SearchConfig(randomize=seed))
        assert out.status == (FOUND if total_prime_oracle(g) else EXHAUSTED)
        if out.status == FOUND:
            assert_total_prime(g, out.labeling, "oracle graph")
