import copy
import hashlib
import itertools
import json
import pickle
import os
import random
import runpy
import subprocess
import sys
import tracemalloc
from math import gcd
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]


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

    def test_bound_below_order_rejected(self):
        with pytest.raises(InvalidParameterError, match="k_max below vertex count"):
            minimum_coprime_number(complete(4), 3)

    def test_budget_exceeded_status(self):
        g = build_family(FamilySpec("stacked_prism", m=3, n=3))
        res = minimum_coprime_number(g, 20, SearchConfig(node_budget=3))
        assert res.status == BUDGET_EXCEEDED and res.value is None

    def test_every_bound_exhausted_within_budget(self):
        # bounds 6..10 of K6 take 3,249 nodes between them
        g = build_family(FamilySpec("complete", n=6))
        with pytest.raises(NotFoundWithinBoundError):
            minimum_coprime_number(g, 10, SearchConfig(node_budget=3_249))
        # bound 11 spends the next node, so each budget is passed by one
        for budget in (3_248, 3_249, 3_250):
            res = minimum_coprime_number(g, 11, SearchConfig(node_budget=budget))
            assert res.status == BUDGET_EXCEEDED
            assert res.nodes_explored == budget + 1

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

    @pytest.mark.parametrize("lengths", [[], [4, 2]])
    def test_transport_rejects_short_cycles(self, lengths):
        labeling = find_total_prime(cycle(4)).labeling
        with pytest.raises(InvalidParameterError, match="cycle lengths must all be at least 3"):
            doubled_union_prime_transport(lengths, labeling)


def test_nonexistence_census_script(capsys):
    main = runpy.run_path(str(ROOT / "scripts" / "nonexistence_census.py"))["main"]
    assert main([]) == 0
    out = capsys.readouterr().out
    verdicts = {}
    for line in out.splitlines():
        if "nodes=" in line:
            name, status, nodes = line.split()
            verdicts[name] = (status, int(nodes.removeprefix("nodes=")))
    assert verdicts == {
        "C_3": (EXHAUSTED, 0), "C_4": (FOUND, 9), "C_5": (EXHAUSTED, 0),
        "C_6": (FOUND, 21), "C_7": (EXHAUSTED, 0), "C_8": (FOUND, 46),
        "C_9": (EXHAUSTED, 0), "C3+C3": (EXHAUSTED, 0), "C3+C4": (EXHAUSTED, 0),
        "C3+C5": (EXHAUSTED, 0), "C3+C3+C4": (EXHAUSTED, 0),
    }
    assert out.endswith("prime labeling of C4+C4: True\n")


def _config_routes():
    """Every way of making a config: the constructor, ``_replace`` and
    ``_make`` from fields, and copy, deepcopy and a pickle round trip of a
    valid config."""
    valid = SearchConfig(50, 1.5, True, 3)
    yield "new", lambda **fields: SearchConfig(**fields)
    yield "replace", lambda **fields: valid._replace(**fields)
    yield "make", lambda **fields: SearchConfig._make(
        (SearchConfig._field_defaults | fields).values()
    )
    clones = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda cfg: pickle.loads(pickle.dumps(cfg)),
    }
    for name, clone in clones.items():
        assert clone(valid) == valid and type(clone(valid)) is SearchConfig
        # the clone is rebuilt through the checks, so a config that skipped
        # them is refused when copied
        yield name, lambda clone=clone, **fields: clone(
            tuple.__new__(SearchConfig, (valid._asdict() | fields).values())
        )


class TestSearchConfig:
    def test_budgets_must_be_positive(self):
        for route, make in _config_routes():
            with pytest.raises(InvalidParameterError, match="node budget must be positive"):
                make(node_budget=0)
            with pytest.raises(InvalidParameterError, match="time budget must be positive"):
                make(time_budget=0.0)
            assert make(node_budget=7).node_budget == 7, route

    def test_nan_time_budget_rejected(self):
        # NaN compares False both ways, so it would set a deadline that never passes
        for _, make in _config_routes():
            with pytest.raises(InvalidParameterError, match="time budget must be positive"):
                make(time_budget=float("nan"))

    def test_nan_node_budget_rejected(self):
        # ``nodes > nan`` is never true, so the search would never stop on nodes
        for _, make in _config_routes():
            with pytest.raises(InvalidParameterError, match="node budget must be positive"):
                make(node_budget=float("nan"))

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
    for limit in (0, 1, 2, 7, 30, 31):
        masks = search._conflict_masks(limit)
        assert len(masks) == limit + 1 and masks[0] == 0
        for x in range(1, limit + 1):
            assert masks[x] == sum(1 << y for y in range(1, limit + 1) if gcd(x, y) > 1)


def grid(m, n):
    return build_family(FamilySpec("grid", m=m, n=n))


def complete(n):
    return build_family(FamilySpec("complete", n=n))


def random_forest(seed, *sizes):
    """Trees of the given sizes side by side, each vertex after the first of
    its tree joined to an earlier one drawn by a seeded generator."""
    rng = random.Random(seed)
    edges, offset = [], 0
    for size in sizes:
        edges += [(offset + rng.randrange(i), offset + i) for i in range(1, size)]
        offset += size
    return make_graph(offset, edges)


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
    # without the forest rule the first runs out of 200,000 nodes and the
    # second takes 5,006
    pytest.param(lambda: find_prime(random_forest(8, 40)), FOUND, 12_060, id="40-tree prime"),
    pytest.param(
        lambda: find_prime(random_forest(171, 12, 9, 7)), FOUND, 2_307, id="3-tree forest prime",
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


def test_searches_deeper_than_the_recursion_limit():
    # 1,500 and 1,200 labels deep, past the interpreter's default recursion
    # limit of 1,000, which the searches leave as it was
    limit = sys.getrecursionlimit()
    path = build_family(FamilySpec("path", n=1_500))
    out = find_prime(path)
    assert (out.status, out.nodes_explored) == (FOUND, 1_500)
    assert verify_prime(path, out.labeling).valid
    out = find_total_prime(cycle(600))
    assert (out.status, out.nodes_explored) == (FOUND, 1_595)
    assert_total_prime(cycle(600), out.labeling, "cycle 600")
    assert sys.getrecursionlimit() == limit


def test_searches_run_on_an_explicit_stack():
    # a 2,500-cycle's total search is 5,000 labels deep, and it runs under a
    # recursion limit of 200, which it leaves as it was
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(200)
        out = find_total_prime(cycle(2_500))
        assert sys.getrecursionlimit() == 200
    finally:
        sys.setrecursionlimit(limit)
    assert out.status == FOUND
    assert_total_prime(cycle(2_500), out.labeling, "cycle 2500")


def test_long_path_costs_one_node_a_label():
    # the pick reads the touched vertices only and the forest rule keeps its
    # count, so a node's cost does not grow with the path
    path = build_family(FamilySpec("path", n=5_000))
    out = find_prime(path)
    assert (out.status, out.nodes_explored) == (FOUND, 5_000)
    assert verify_prime(path, out.labeling).valid


def test_deep_prime_search_stays_small():
    # a search step holds no list of its domain, so memory grows with n, not
    # with n times the label limit
    path = build_family(FamilySpec("path", n=600))
    tracemalloc.start()
    try:
        out = find_prime(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.status == FOUND
    assert peak < 2 << 20


def test_search_keeps_no_table_after_it_returns():
    # each engine builds its own conflict masks, so nothing of a search
    # outlives it but its outcome; a fresh interpreter, since an earlier test
    # would have grown any table kept between calls.  The path's neighbour
    # lists belong to the graph, so they are built before tracing starts.
    code = """
import tracemalloc
from totalprime.graphs import FamilySpec, build_family
from totalprime.search import FOUND, find_prime
path = build_family(FamilySpec("path", n=1_500))
path.adjacency
tracemalloc.start()
out = find_prime(path)
assert out.status == FOUND, out.status
print(tracemalloc.get_traced_memory()[0])
"""
    src = str(Path(search.__file__).resolve().parents[1])
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 128 << 10


def test_engines_declare_their_state_in_slots():
    # each engine's state is its __slots__: no instance dict, and a name
    # that is not declared cannot be set
    engines = [
        search._VertexEngine(build_family(FamilySpec("path", n=5)), SearchConfig(), 5),
        search._VertexEngine(cycle(5), SearchConfig(), 5),
        search._TotalEngine(cycle(5), SearchConfig()),
    ]
    assert engines[0].forest is not None and engines[1].forest is None
    for engine in engines:
        assert not hasattr(engine, "__dict__")
        with pytest.raises(AttributeError):
            engine.undeclared = 0


def test_empty_graph_is_decided_by_the_engines():
    empty = make_graph(0, [])
    for out in (
        find_total_prime(empty),
        find_prime(empty),
        find_coprime(empty, 3),
        minimum_coprime_number(empty, 2),
    ):
        assert (out.status, out.nodes_explored) == (FOUND, 0)
        assert out.labeling.vertex_labels == [] and out.labeling.edge_labels == {}
    assert minimum_coprime_number(empty, 2).value == 0


def _sweep_order(g):
    """The quadratic sweep ``_vertex_order`` replaced, kept as its reference:
    each step scans every unplaced vertex for the largest (ordered neighbors,
    degree, -index)."""
    degrees = list(map(len, g.adjacency))
    ordered, placed, seen_nbrs = [], [False] * g.n, [0] * g.n
    for _ in range(g.n):
        best = max(
            (v for v in range(g.n) if not placed[v]),
            key=lambda v: (seen_nbrs[v], degrees[v], -v),
        )
        ordered.append(best)
        placed[best] = True
        for u in g.adjacency[best]:
            seen_nbrs[u] += 1
    return ordered


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("cycle", n=1_300), FamilySpec("prism", n=250), FamilySpec("grid", m=30, n=30)],
    ids=["cycle 1300", "prism 250", "grid 30x30"],
)
def test_vertex_order_matches_the_sweep(spec):
    g = build_family(spec)
    assert search._vertex_order(g) == _sweep_order(g)


# Placements of three searches, counted as the nonzero writes to the vertex
# labels.  A value that fails a check already decided before placement (the
# odd-label count, an emptied neighbor domain) is refused without being
# placed, and a vertex-engine state whose subtree was already searched to
# exhaustion is replayed from the table without placing anything, so a change
# that places them again shows here as a higher count, with the node counts
# unchanged.
PLACEMENT_PINS = [
    pytest.param(
        lambda: find_prime(grid(5, 5), SearchConfig(node_budget=10_000)),
        1_871, id="grid 5x5 prime",
    ),
    pytest.param(
        lambda: find_total_prime(snake(3, 3).graph, SearchConfig(node_budget=30_000)),
        1_435, id="snake 3x3 total",
    ),
    pytest.param(
        lambda: minimum_coprime_number(complete(7), 28, SearchConfig(node_budget=30_000)),
        1_508, id="K7 mcn",
    ),
]


class _WatchedLabels(list):
    """An engine's vertex labels, calling ``write(v, label)`` before each
    write, while the state is still the one the write changes."""

    def __init__(self, labels, write):
        super().__init__(labels)
        self.write = write

    def __setitem__(self, v, label):
        self.write(v, label)
        super().__setitem__(v, label)


def _watch_labels(patch, write):
    """Make every engine built under ``patch`` call ``write(engine, v,
    label)`` before each write to its vertex labels; the engines built are
    listed in the list returned."""
    init = search._VertexEngine.__init__
    made = []

    def watched_init(engine, *args):
        init(engine, *args)
        engine.vlab = _WatchedLabels(engine.vlab, lambda v, label: write(engine, v, label))
        made.append(engine)

    patch.setattr(search._VertexEngine, "__init__", watched_init)
    return made


@pytest.mark.parametrize("call, placements", PLACEMENT_PINS)
def test_placement_pins(monkeypatch, call, placements):
    placed = []
    _watch_labels(monkeypatch, lambda engine, v, label: label and placed.append(v))
    call()
    assert len(placed) == placements


def _outcome_sweep():
    """Status, node count and labeling of 600 seeded calls on random graphs
    with at most 10 vertices, over every search entry point and config knob."""
    rng = random.Random(2026)
    records = []
    for i in range(600):
        n = rng.randint(1, 10)
        p = rng.random()
        g = make_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                           if rng.random() < p])
        kind = ("total", "prime", "coprime", "mcn")[i % 4]
        cfg = SearchConfig(
            node_budget=rng.choice((50, 500, 5000)),
            symmetry_breaking=rng.random() < 0.3,
            randomize=rng.choice((None, rng.randrange(1000))),
        )
        if kind == "total":
            out = find_total_prime(g, cfg)
        elif kind == "prime":
            out = find_prime(g, cfg)
        elif kind == "coprime":
            out = find_coprime(g, n + rng.randint(0, 3), cfg)
        else:
            try:
                out = minimum_coprime_number(g, n + rng.randint(0, 4), cfg)
            except NotFoundWithinBoundError:
                records.append([kind, "not_found"])
                continue
        record = [kind, out.status, out.nodes_explored]
        if kind == "mcn":
            record.append(out.value)
        if out.labeling is not None:
            record.append(out.labeling.to_json_dict())
        records.append(record)
    return records


def test_outcome_digest():
    # taken on the engine that placed every value before checking it: a check
    # that only skips work the search would throw away leaves every outcome
    digest = hashlib.sha256(json.dumps(_outcome_sweep()).encode()).hexdigest()
    assert digest == "d3ebfd6ec40f2b3ad9918b95d5ce7be0f9b6a5007c278f09e6f724dae7928620"


# --- the vertex engine's table of exhausted states ----------------------------

class _NoTable(dict):
    """A table of exhausted states that never stores, so nothing is replayed."""

    def __setitem__(self, key, value):
        pass


def _vertex_outcome(call):
    """Status, nodes, MCN value and labeling of ``call()``."""
    try:
        out = call()
    except NotFoundWithinBoundError:
        return "not_found"
    labeling = out.labeling.to_json_dict() if out.labeling is not None else None
    return out.status, out.nodes_explored, getattr(out, "value", None), labeling


class _WatchedTable(dict):
    """A table of exhausted states that the search looks up at every state it
    enters, even while the table is empty, calling ``lookup(key)`` at each
    lookup; unless ``stores``, it stores nothing, so nothing is replayed."""

    def __init__(self, lookup, stores):
        super().__init__()
        self.lookup, self.stores = lookup, stores

    def __bool__(self):
        return True

    def get(self, key, default=None):
        self.lookup(key)
        return super().get(key, default)

    def __setitem__(self, key, value):
        if self.stores:
            super().__setitem__(key, value)


def _watch_lookups(patch, lookup, stores=False):
    """Make every engine built under ``patch`` look its table up at every
    state the search enters, calling ``lookup(engine, key)`` there; the
    state the lookup sees is the one the search goes on from.  A table that
    stores turns over to a plain one once a generation is full."""
    set_limit = search._VertexEngine.set_limit

    def watched_set_limit(engine, limit):
        set_limit(engine, limit)
        engine.exhausted = _WatchedTable(lambda key: lookup(engine, key), stores)

    patch.setattr(search._VertexEngine, "set_limit", watched_set_limit)


def _free(engine):
    """The labels unused, counted from the labels placed."""
    used = {*engine.vlab, *getattr(engine, "elab", ())}
    return sum(1 << x for x in range(1, engine.limit + 1) if x not in used)


def _vertex_phase_reads(engine):
    """Everything the vertex phase can read below its current state."""
    g, vlab, free = engine.g, engine.vlab, _free(engine)
    unlabeled = [v for v in range(g.n) if not vlab[v]]
    even_nbr = [any(vlab[u] and vlab[u] % 2 == 0 for u in g.adjacency[v]) for v in unlabeled]
    domains = [free & ~engine.blocked[v] for v in unlabeled]
    odds_left = sum(free >> x & 1 for x in range(1, engine.limit + 1, 2))
    return unlabeled, domains, even_nbr, list(engine.vodd), odds_left


def _without_table(call):
    # set_limit makes the table, at set-up and between the bounds of an MCN call
    set_limit = search._VertexEngine.set_limit

    def set_limit_without_table(engine, limit):
        set_limit(engine, limit)
        engine.exhausted = _NoTable()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search._VertexEngine, "set_limit", set_limit_without_table)
        return _vertex_outcome(call)


@st.composite
def vertex_calls(draw):
    """A total, prime, coprime or MCN call on a graph with at most 10
    vertices, with a seed, symmetry breaking and a budget small enough to
    trip in a replay."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = make_graph(n, edges)
    cfg = SearchConfig(
        node_budget=draw(st.integers(1, 3000)),
        symmetry_breaking=draw(st.booleans()),
        randomize=draw(st.none() | st.integers(0, 999)),
    )
    kind = draw(st.sampled_from(("total", "prime", "coprime", "mcn")))
    slack = draw(st.integers(0, 4))
    if kind == "total":
        return lambda: find_total_prime(g, cfg)
    if kind == "prime":
        return lambda: find_prime(g, cfg)
    if kind == "coprime":
        return lambda: find_coprime(g, n + slack, cfg)
    return lambda: minimum_coprime_number(g, n + slack, cfg)


@st.composite
def reordered_states(draw):
    """A graph, a label limit, some vertices, labels for them and the same
    labels in another order."""
    n = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    g = make_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))
    limit = n + draw(st.integers(0, 3))
    labeled = draw(st.lists(st.sampled_from(range(n)), unique=True, min_size=1, max_size=n - 1))
    labels = draw(st.permutations(range(1, limit + 1)))[: len(labeled)]
    return g, limit, labeled, labels, draw(st.permutations(labels))


# every even label is used and 1, 2 trade places: only bit 2 tells which of
# vertices 0 and 4 has an even-labeled neighbor
@example((make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (2, 6)]), 7,
          [1, 3, 2, 5, 6], [1, 2, 5, 4, 6], [2, 1, 5, 4, 6]))
@given(reordered_states())
@settings(max_examples=150, deadline=None)
def test_state_key_fixes_what_the_subtree_reads(case):
    # when two states' keys agree, so must everything the search reads
    g, limit, labeled, labels, reordered = case

    def reads(labels):
        # the state placing the labels leaves: per unlabeled vertex, the
        # union of its labeled neighbors' conflict masks, and per class, its
        # count of odd labels
        engine = search._VertexEngine(g, SearchConfig(), limit)
        vlab = engine.vlab
        for v, label in zip(labeled, labels):
            vlab[v] = label
            engine.vodd[engine.vertex_class[v]] += label % 2
        for v in range(g.n):
            if not vlab[v]:
                for u in g.adjacency[v]:
                    engine.blocked[v] |= engine.conflict[vlab[u]]
        return engine._state_key(_free(engine)), _vertex_phase_reads(engine)

    key, state = reads(labels)
    other_key, other_state = reads(reordered)
    if key == other_key:
        assert state == other_state


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


@given(small_graphs())
def test_vertex_order_matches_the_sweep_on_small_graphs(g):
    assert search._vertex_order(g) == _sweep_order(g)


def _edge_counts(g, elab):
    """Per vertex, its unlabeled incident edges and whether one of its
    labeled incident edges is odd, counted from the edge labels."""
    pending = [0] * g.n
    odd_edge = [False] * g.n
    for (u, v), lab in zip(g.edges, elab):
        for x in (u, v):
            pending[x] += not lab
            odd_edge[x] |= lab % 2 == 1
    return pending, odd_edge


def _edge_phase_reads(engine):
    """Everything the edge phase can read below its current state (``free``
    fixes the odd labels left)."""
    g = engine.g
    pending, odd_edge = _edge_counts(g, engine.elab)
    return (
        _free(engine),
        engine.need,
        engine.uncovered,
        engine.pairs,
        [bool(lab) for lab in engine.elab],
        pending,
        [
            (x, engine.egcd[x], odd_edge[x])
            for x in range(g.n)
            if g.degree(x) >= 2 and pending[x]
        ],
    )


# C4+C6 enters the edge phase under vertex labelings that leave the same
# labels free, so its edge keys come back
@example(cycle_union(4, 6), None)
@given(small_graphs(max_labels=14), st.none() | st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_edge_key_fixes_what_the_edge_phase_reads(g, seed):
    # when two edge-phase states' keys agree, so must everything it reads,
    # and likewise for vertex-phase states; and no edge-phase key is the key
    # of a vertex-phase state.  The edge phase's states are those with every
    # vertex labeled.
    seen = {}
    vertex_seen = {}

    def lookup(engine, key):
        if all(engine.vlab):
            reads = _edge_phase_reads(engine)
            assert seen.setdefault(key, reads) == reads
        else:
            reads = _vertex_phase_reads(engine)
            assert vertex_seen.setdefault(key, reads) == reads

    with pytest.MonkeyPatch.context() as patch:
        _watch_lookups(patch, lookup)
        find_total_prime(g, SearchConfig(3_000, randomize=seed))
    assert not vertex_seen.keys() & seen.keys()


@example(cycle_union(4, 6), None)
@given(small_graphs(max_labels=14), st.none() | st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_cover_pools_match_a_recount(g, seed):
    # at every edge-phase state, each pool's counts and ``need`` are those a
    # recount from the edge labels gives: a member is uncovered while none
    # of its labeled edges is odd, and a pair is an unlabeled edge joining
    # two uncovered members; the pools are the vertices of degree >= 2 and,
    # when that set differs, those of degree exactly 2
    degrees = [g.degree(x) for x in range(g.n)]
    pools = [[d >= 2 for d in degrees]]
    if [d == 2 for d in degrees] != pools[0]:
        pools.append([d == 2 for d in degrees])

    def lookup(engine, key):
        if not all(engine.vlab):
            return  # a vertex-phase state
        odd_edge = _edge_counts(g, engine.elab)[1]
        counts = []
        for member in pools:
            uncovered = [member[x] and not odd_edge[x] for x in range(g.n)]
            pairs = sum(
                not lab and uncovered[u] and uncovered[v]
                for (u, v), lab in zip(g.edges, engine.elab)
            )
            counts.append((sum(uncovered), pairs))
        assert list(zip(engine.uncovered, engine.pairs)) == counts
        assert engine.need == max(max((c + 1) // 2, c - p) for c, p in counts)

    with pytest.MonkeyPatch.context() as patch:
        _watch_lookups(patch, lookup)
        find_total_prime(g, SearchConfig(3_000, randomize=seed))


def _full_scan_pick(engine):
    """The pick the frontier pick replaced: the unlabeled vertex minimising
    (domain size, -labeled neighbors, index), with its domain, stopping at
    an empty domain."""
    free = _free(engine)
    best = None
    for v in range(engine.g.n):
        if engine.vlab[v]:
            continue
        domain = free & ~engine.blocked[v]
        rank = (domain.bit_count(), -engine.labeled_nbrs[v])
        if best is None or rank < best[0]:
            best = rank, v, domain
            if not domain:
                break
    return best[1:]


@given(vertex_calls())
@settings(max_examples=100, deadline=None)
def test_frontier_pick_matches_a_full_scan(call):
    # at every vertex-phase state the search enters, the full scan's pick is
    # taken; the first label written after it, if it is a placement, goes to
    # that vertex and lies in its domain (none does when the domain is empty)
    picks = []

    def lookup(engine, key):
        if engine.vorder is None:
            picks.append(_full_scan_pick(engine))

    def write(engine, v, label):
        if engine.vorder is None and picks[-1] is not None:
            pick, picks[-1] = picks[-1], None
            if label:
                assert v == pick[0] and pick[1] >> label & 1

    with pytest.MonkeyPatch.context() as patch:
        _watch_lookups(patch, lookup)
        _watch_labels(patch, write)
        _vertex_outcome(call)


@given(vertex_calls())
@settings(max_examples=150, deadline=None)
def test_table_keeps_outcomes(call):
    assert _vertex_outcome(call) == _without_table(call)


def test_table_keeps_budget_outcomes():
    # K6 MCN takes 3,255 nodes; budgets that trip at every depth of the search
    def call(budget):
        return lambda: minimum_coprime_number(complete(6), 24, SearchConfig(node_budget=budget))

    for budget in [*range(1, 3255, 51), 3254, 3255]:
        assert _vertex_outcome(call(budget)) == _without_table(call(budget)), budget


def test_edge_phase_replays():
    # C4+C6 spends its budget in the edge phase under its first vertex
    # labeling, which has no edge completion: it enters 3,398 edge-phase
    # states, and 20,104 without replays.  Its 3,391 stored states stay in
    # the table's first generation.
    for stores, entered in (True, 3_398), (False, 20_104):
        states = []
        with pytest.MonkeyPatch.context() as patch:
            _watch_lookups(patch, lambda engine, key: all(engine.vlab) and states.append(key), stores)
            out = find_total_prime(cycle_union(4, 6), SearchConfig(node_budget=30_000))
        assert (out.status, out.nodes_explored, len(states)) == (BUDGET_EXCEEDED, 30_001, entered)


@given(vertex_calls(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_capped_table_keeps_outcomes(call, cap):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_GENERATION_CAP", cap)
        capped = _vertex_outcome(call)
    assert capped == _without_table(call)


def test_table_stays_under_its_cap(monkeypatch):
    # K7 into 1..12 stores hundreds of exhausted states
    sizes, stores = [], []
    store = search._VertexEngine._store

    # the table changes only where a state is stored
    def watched(engine, key, spent):
        newer = engine.exhausted
        held = sum(map(len, newer))
        count = len(newer)
        store(engine, key, spent)
        sizes.append((len(engine.exhausted), len(engine.older)))
        # the key's length, the newer generation's entries and key bytes
        # before the store, whether it turned over, and its key bytes after
        key_bytes = sum(map(len, engine.exhausted))
        stores.append((len(key), count, held, engine.older is newer, key_bytes))

    monkeypatch.setattr(search._VertexEngine, "_store", watched)
    uncapped = _vertex_outcome(lambda: find_coprime(complete(7), 12))
    assert max(newer for newer, _ in sizes) > 6
    first, second = stores[0][0], stores[1][0]
    assert max(length for length, *_ in stores) <= first + second
    sizes.clear()
    monkeypatch.setattr(search, "_GENERATION_CAP", 3)
    assert _vertex_outcome(lambda: find_coprime(complete(7), 12)) == uncapped
    # each generation fills to the cap, and the older one turns over
    assert max(newer for newer, _ in sizes) == 3
    assert max(newer + older for newer, older in sizes) == 6
    stores.clear()
    monkeypatch.setattr(search, "_GENERATION_CAP", 8_192)
    # whatever a key holds, the first two keys stored fill a generation
    # exactly, and the bytes, not the entries, turn the generations over
    byte_cap = first + second
    monkeypatch.setattr(search, "_GENERATION_BYTES", byte_cap)
    assert _vertex_outcome(lambda: find_coprime(complete(7), 12)) == uncapped
    for length, count, held, turned, key_bytes in stores:
        assert turned == (count >= search._GENERATION_CAP or held + length > byte_cap)
        assert key_bytes <= byte_cap
    assert sum(turned for _, _, _, turned, _ in stores) >= 3
    # the second key fills the generation to the byte, and joins the first
    length, _, held, turned, _ = stores[1]
    assert held + length == byte_cap and not turned


def test_time_budget_trips_among_replays(monkeypatch):
    # K7 has no coprime labeling into 1..12: 10,584 nodes, of which fewer
    # than 1,024 are searched, the rest replayed, so the deadline is checked
    # by the replays
    clock = itertools.count()
    monkeypatch.setattr(search.time, "perf_counter", lambda: float(next(clock)))
    out = find_coprime(complete(7), 12, SearchConfig(time_budget=5.0))
    assert out.status == BUDGET_EXCEEDED
    assert out.nodes_explored < 10_584


@pytest.mark.parametrize(
    "call",
    [
        lambda cfg: find_prime(build_family(FamilySpec("path", n=3_000)), cfg),
        lambda cfg: find_total_prime(cycle(1_300), cfg),
    ],
    ids=["prime", "total"],
)
def test_time_budget_trips_in_spend(monkeypatch, call):
    # the clock ticks once a read: at the start, then at nodes 1,024 and
    # 2,048, where the search's check at every 1,024th node finds the
    # deadline passed; nothing is replayed
    clock = itertools.count()
    monkeypatch.setattr(search.time, "perf_counter", lambda: float(next(clock)))
    out = call(SearchConfig(time_budget=1.5))
    assert out.status == BUDGET_EXCEEDED
    assert out.nodes_explored == 2_048


def test_time_budget_trips_in_a_later_bound(monkeypatch):
    # with symmetry breaking, K7's bounds 7 to 11 exhaust in 2,094 nodes; the
    # clock counts its reads (the start, each replay, each 1,024th node), and
    # the first read past 412.5 is the node check's at node 3,072 of the
    # call's one count, in bound 12
    cfg = SearchConfig(symmetry_breaking=True)
    before = sum(find_coprime(complete(7), b, cfg).nodes_explored for b in range(7, 12))
    clock = itertools.count()
    monkeypatch.setattr(search.time, "perf_counter", lambda: float(next(clock)))
    out = minimum_coprime_number(complete(7), 13, cfg._replace(time_budget=412.5))
    assert (out.status, out.value) == (BUDGET_EXCEEDED, None)
    assert out.nodes_explored == 3_072 > before == 2_094


# --- independence numbers of forests -----------------------------------------

@st.composite
def marked_forests(draw):
    """A forest on at most 12 vertices, numbered at random, with some vertices
    labeled and a random ``blocked`` mask on each."""
    n = draw(st.integers(1, 12))
    name = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        up = draw(st.none() | st.integers(0, v - 1))  # None starts a new tree
        if up is not None:
            edges.append((name[up], name[v]))
    vlab = draw(st.lists(st.sampled_from((0, 0, 1)), min_size=n, max_size=n))
    blocked = draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
    return make_graph(n, edges), vlab, blocked


@given(marked_forests())
@settings(max_examples=200, deadline=None)
def test_forest_independent_set_is_maximum(case):
    # against every subset of the eligible vertices: unlabeled, bit 2 clear
    g, vlab, blocked = case
    _, _, bottom_up, parent, _ = search._component_requirements(g)
    taken = search._forest_independent_set(bottom_up, parent, vlab, blocked)
    eligible = [v for v in range(g.n) if not vlab[v] and not blocked[v] & 4]

    def independent(vertices):
        return not any(u in g.adjacency[v] for u, v in itertools.combinations(vertices, 2))

    assert set(taken) <= set(eligible) and independent(taken)
    assert not any(
        independent(more) for more in itertools.combinations(eligible, len(taken) + 1)
    )


@st.composite
def forest_calls(draw):
    """A forest on at most 12 vertices, numbered at random, a label limit and
    a value order."""
    n = draw(st.integers(1, 12))
    name = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        up = draw(st.integers(-1, v - 1))  # -1 starts a new tree
        if up >= 0:
            edges.append((name[up], name[v]))
    return make_graph(n, edges), n + draw(st.integers(0, 3)), draw(st.none() | st.integers(0, 99))


@given(forest_calls())
@settings(max_examples=60, deadline=None)
def test_kept_forest_count_matches_a_recount(case):
    # before each write to the labels, after the placement or removal before
    # it, the taken flags are the greedy set recounted from scratch; and a
    # search stopped by each budget in turn writes its count back after each
    # node, where it is the greedy set's size
    g, limit, seed = case
    _, _, bottom_up, parent, _ = search._component_requirements(g)

    def greedy(engine):
        return sorted(search._forest_independent_set(bottom_up, parent, engine.vlab, engine.blocked))

    def write(engine, v, label):
        taken = engine.forest[1]
        assert [x for x in range(g.n) if taken[x]] == greedy(engine)

    with pytest.MonkeyPatch.context() as patch:
        made = _watch_labels(patch, write)
        cfg = SearchConfig(node_budget=300, randomize=seed)
        nodes = find_coprime(g, limit, cfg).nodes_explored
        for budget in range(1, min(nodes, 300) + 1):
            find_coprime(g, limit, cfg._replace(node_budget=budget))
            assert made[-1].forest_count == len(greedy(made[-1]))


def test_tree_demands_match_branching():
    # trees of up to 30 vertices beside a 5-cycle, which keeps the branching
    rng = random.Random(5)
    for n in range(1, 31):
        for _ in range(3):
            forest = random_forest(rng.randrange(10**6), n, rng.randint(1, 6))
            edges = forest.edges + tuple((forest.n + i, forest.n + (i + 1) % 5) for i in range(5))
            g = make_graph(forest.n + 5, edges)
            reqs, comp_of, _, _, _ = search._component_requirements(g)
            comps = g.components()
            assert [comp_of[comp[0]] for comp in comps] == list(range(len(comps)))
            assert reqs == [len(c) - search._independence_number(g, c) for c in comps]


# --- brute-force oracle: the definitions alone, no engine pruning rule --------

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
