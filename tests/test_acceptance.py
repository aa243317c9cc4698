"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line, visible with
``pytest tests/test_acceptance.py -v -s``.
"""

import networkx as nx
import pytest

import totalprime as tp
from totalprime import (
    GALLERY,
    FamilySpec,
    SearchConfig,
    build_family,
    canonical_hamiltonian,
    construct,
    soundness_grid,
)

BUDGET = SearchConfig(node_budget=100_000_000)


def report(name, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, name


def test_criterion_1_constructor_soundness_grid(grid_sweep):
    records, elapsed = grid_sweep
    count = 0
    violations = 0
    prism_branches = set()
    book_cases = set()
    for inst, _, found, notes in records:
        if found:
            violations += len(found)
            print(f"  grid failure at {inst.name}: {found[:3]}")
        if inst.spec.family == "prism":
            prism_branches.add((notes["block_residue"], notes["swap_applied"]))
        elif inst.spec.family == "book":
            book_cases.add(notes["case"])
        count += 1
    all_branches = prism_branches == {
        (1, True), (2, False), (3, False), (4, True), (5, False),
    } and {"even", "odd"} <= book_cases
    report(
        "criterion 1: constructor soundness grid",
        count == 22_200 and violations == 0 and all_branches and elapsed < 60,
        f"{count} instances, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_gallery_instances():
    bad = []
    for inst in GALLERY:
        result = construct(inst.spec, inst.scheme)
        if not tp.verify_total_prime(result.graph, result.labeling).valid:
            bad.append(inst.name)
    report("criterion 2: gallery instances verify", not bad, f"{len(GALLERY)} instances")


def test_criterion_3_exhaustive_nonexistence():
    def cycle(n):
        return build_family(FamilySpec("cycle", n=n))

    def union(*lengths):
        members = tuple(FamilySpec("cycle", n=c) for c in lengths)
        return build_family(FamilySpec("union", members=members))

    expectations = [
        ("C3", cycle(3), tp.EXHAUSTED),
        ("C5", cycle(5), tp.EXHAUSTED),
        ("C7", cycle(7), tp.EXHAUSTED),
        ("C3+C3", union(3, 3), tp.EXHAUSTED),
        ("C3+C4", union(3, 4), tp.EXHAUSTED),
        ("C4", cycle(4), tp.FOUND),
        ("C6", cycle(6), tp.FOUND),
        ("C8", cycle(8), tp.FOUND),
    ]
    ok = True
    stats = []
    for name, g, expected in expectations:
        out = tp.find_total_prime(g, BUDGET)
        stats.append(f"{name}:{out.status.split('_')[0]}/{out.nodes_explored}n")
        if out.status != expected:
            ok = False
        if out.status == tp.FOUND and not tp.verify_total_prime(g, out.labeling).valid:
            ok = False
    report("criterion 3: exhaustive non-existence", ok, " ".join(stats))


MCN_EXPECTATIONS = [
    ("Y(3,2)", FamilySpec("stacked_prism", m=3, n=2), 7),
    ("Y(3,3)", FamilySpec("stacked_prism", m=3, n=3), 11),
    ("Y(5,2)", FamilySpec("stacked_prism", m=5, n=2), 11),
    ("P6^2", FamilySpec("path_power", n=6, k=2), 7),
    ("P8^2", FamilySpec("path_power", n=8, k=2), 9),
    ("C6^2", FamilySpec("cycle_power", n=6, k=2), 7),
    ("C7^2", FamilySpec("cycle_power", n=7, k=2), 9),
    ("P8^3", FamilySpec("path_power", n=8, k=3), 11),
    ("C8^3", FamilySpec("cycle_power", n=8, k=3), 11),
]


def test_criterion_4_minimum_coprime_crosschecks():
    ok = True
    stats = []
    for name, spec, expected in MCN_EXPECTATIONS:
        g = build_family(spec)
        res = tp.minimum_coprime_number(g, expected + 5, BUDGET)
        witness_ok = (
            res.status == tp.FOUND
            and tp.verify_coprime(g, res.labeling, res.value).valid
        )
        if res.value != expected or not witness_ok:
            ok = False
            print(f"  mcn mismatch at {name}: got {res.value}, want {expected}")
        stats.append(f"{name}={res.value}")
    report("criterion 4: minimum coprime cross-checks", ok, " ".join(stats))


def _total_prime_via_prime_extension(spec):
    """Search a prime labeling, extend along the canonical cycle and chord.

    Graphs whose maximum degree is 2 (the 2x2 ladder) have no chord, so the
    extension hypothesis fails; those instances go to the search oracle.
    """
    g = build_family(spec)
    if max(g.degree(v) for v in range(g.n)) < 3:
        out = tp.find_total_prime(g, BUDGET)
        assert out.status == tp.FOUND
        return g, out.labeling
    prime = tp.find_prime(g, BUDGET)
    assert prime.status == tp.FOUND
    result = tp.extend_prime_hamiltonian(g, prime.labeling, canonical_hamiltonian(g, spec))
    return g, result.labeling


def test_criterion_5_extension_theorems_end_to_end():
    checked = 0
    for n in range(2, 9):
        g, labeling = _total_prime_via_prime_extension(FamilySpec("ladder", n=n))
        assert tp.verify_total_prime(g, labeling).valid, f"ladder {n}"
        checked += 1
    for n in range(2, 7):
        g, labeling = _total_prime_via_prime_extension(FamilySpec("grid", m=2, n=n))
        assert tp.verify_total_prime(g, labeling).valid, f"grid 2x{n}"
        checked += 1

    for name, spec, expected in MCN_EXPECTATIONS:
        if spec.family == "stacked_prism":
            continue
        g = build_family(spec)
        res = tp.minimum_coprime_number(g, expected + 5, BUDGET)
        ext = tp.extend_coprime_hamiltonian(
            g, res.labeling, res.value, canonical_hamiltonian(g, spec)
        )
        assert tp.verify_total_prime(ext.graph, ext.labeling).valid, name
        checked += 1

    trees = 0
    for n in range(2, 11):
        for T in nx.nonisomorphic_trees(n):
            edges = tuple(tuple(sorted(e)) for e in T.edges())
            g = build_family(FamilySpec("tree", n=n, edges=edges))
            prime = tp.find_prime(g, BUDGET)
            assert prime.status == tp.FOUND, (n, edges)
            result = tp.extend_prime_tree(g, prime.labeling)
            assert tp.verify_total_prime(result.graph, result.labeling).valid, (n, edges)
            trees += 1
    report(
        "criterion 5: extension pipelines end-to-end",
        trees == 200,
        f"{checked} hamiltonian instances, {trees} trees on 2..10 vertices",
    )


def test_criterion_6_bound_suite():
    capacity = tp.check_label_capacity_bounds(1000)
    limit = 1_000_000
    pi_ok, bertrand_ok = tp.check_prime_counting_bounds(limit)
    report(
        "criterion 6: bound suite",
        capacity.ok and pi_ok and bertrand_ok,
        f"capacity<=1000 ok, pi(x)>x/ln x and prev-prime>x/2 up to {limit}",
    )


def test_criterion_7_certificate_soundness():
    cases = [(2, 4), (3, 7), (4, 11), (5, 16)]
    ok = True
    for order, copies in cases:
        cert = tp.union_c3_infeasibility_certificate(order, copies)
        if cert.status != tp.INFEASIBLE:
            ok = False
        # each is the smallest count beyond the threshold
        if copies != cert.threshold + 1:
            ok = False
        below = tp.union_c3_infeasibility_certificate(order, copies - 1)
        if below.copies > below.threshold:
            ok = False
    if tp.union_c3_infeasibility_certificate(5, 2).status != tp.INCONCLUSIVE:
        ok = False
    for order in range(2, 13):
        for copies in range(1, 200):
            cert = tp.union_c3_infeasibility_certificate(order, copies)
            if cert.status == tp.INFEASIBLE:
                if not (
                    copies > order * (order + 1) // 2
                    or cert.needed_odd > cert.available_odd
                ):
                    ok = False
    report("criterion 7: counting certificates", ok, "thresholds and implication order")


def test_criterion_8_oracle_agreement_on_small_instances():
    checked = 0
    ok = True
    for inst in soundness_grid():
        g = build_family(inst.spec)
        if g.n + g.m > 16:
            continue
        out = tp.find_total_prime(g, BUDGET)
        if out.status != tp.FOUND or not tp.verify_total_prime(g, out.labeling).valid:
            ok = False
            print(f"  oracle disagreement at {inst.name}: {out.status}")
        checked += 1
    report(
        "criterion 8: search oracle agrees with constructions",
        ok and checked == 34,
        f"{checked} instances with |V|+|E| <= 16",
    )
