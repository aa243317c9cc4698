#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

Checks that the generators are deterministic per seed and that seed 0 gives
the canonical instances, that every workload runs clean with tracing off
and on and reports identical counts both ways, that the canonical
search_deep instances match their pinned node counts, that the metric names
match BENCHMARK.json, and that a run without the package source fails
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import run

sys.path.insert(0, str(run.SRC))
sys.pycache_prefix = str(run.PYCACHE)

import gen  # noqa: E402
import workloads  # noqa: E402

FAILED = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILED.append(name)


def test_generators(tp) -> None:
    groups = gen.grid_items()
    check("grid has 22,200 instances", sum(map(len, groups.values())) == 22_200)
    check("grid draw is deterministic per seed",
          gen.grid_sample(7, 500) == gen.grid_sample(7, 500)
          and gen.grid_sample(7, 500) != gen.grid_sample(8, 500))
    mix = Counter(item.group for item in gen.grid_sample(7, 2220))
    check("grid draw keeps the family mix",
          all(abs(mix[g] - len(items) / 10) <= 1 for g, items in groups.items()), str(mix))
    check("grid seed 0 is a stride", gen.grid_sample(0, 2220) == gen.grid_sample(0, 2220)
          and gen.grid_items()["helm"][0] in gen.grid_sample(0, 2220))

    trees_ok = True
    for seed in (1, 2):
        for n in range(2, 41):
            edges = gen.prufer_tree(gen.rng_for(seed, "t"), n)
            again = gen.prufer_tree(gen.rng_for(seed, "t"), n)
            g = tp.build_family(tp.FamilySpec("tree", n=n, edges=tuple(edges)))
            trees_ok &= edges == again and g.m == n - 1 and g.is_connected()
    check("Pruefer trees are trees and deterministic", trees_ok)

    g = tp.build_family(tp.FamilySpec("grid", m=5, n=5))
    copy = gen.relabel(tp, g, 3, "x")
    degrees = sorted(g.degree(v) for v in range(g.n))
    check("relabel keeps the graph up to isomorphism",
          copy.m == g.m and sorted(copy.degree(v) for v in range(copy.n)) == degrees
          and copy.edges != g.edges
          and copy.edges == gen.relabel(tp, g, 3, "x").edges)
    check("relabel at seed 0 is the identity", gen.relabel(tp, g, 0, "x") is g)

    deep = workloads.SearchDeep(copies=2).setup(tp, 0)
    canonical = {t[0]: t[2].edges for t in deep if t[5]}
    check("search_deep seed 0 copies are the canonical instances",
          all(t[2].edges == canonical[t[0]] for t in deep))
    check("criterion 8 has 34 instances", len(workloads.criterion8_graphs(tp)) == 34)


def test_workload(tp, wl) -> None:
    tasks = wl.setup(tp, 1)
    check(f"{wl.name}: setup is deterministic", tasks == wl.setup(tp, 1))
    passes = run.run_passes(wl, tp, tasks, 0.0, traced=True)
    plain, traced = passes
    failures = plain.failures + traced.failures
    check(f"{wl.name}: tiny run has no failures", not failures, "; ".join(failures[:3]))
    check(f"{wl.name}: traced and untraced counts agree",
          plain.counts == traced.counts, f"{plain.counts} != {traced.counts}")
    check(f"{wl.name}: traced pass has spans, untraced none",
          traced.spans and not plain.spans)
    e2e = run.end_to_end(wl, [0.1], passes)
    layers = run.layers([0.01], 564, {}, passes)
    check(f"{wl.name}: metrics computed",
          set(run.END_TO_END) <= set(e2e) and set(layers) == set(run.layer_units()))


def test_contract() -> None:
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check("BENCHMARK.json end_to_end matches the run",
          {m["name"]: m["unit"] for m in contract["end_to_end"]} == run.END_TO_END)
    check("BENCHMARK.json per_layer matches the run",
          {m["name"]: m["unit"] for m in contract["per_layer"]} == run.layer_units())
    check("BENCHMARK.json workloads match the run",
          [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS))

    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    check("a run prints the contract line",
          set(line) == {"correct", "attempted", "failed", "metrics"}
          and set(line["metrics"]) == set(run.END_TO_END) and line["correct"],
          proc.stderr[-300:])

    lonely = run.ROOT / ".bench_build" / "smoke-lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, lonely / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", lonely)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=lonely, capture_output=True, text=True, timeout=180,
    )
    check("without the package source a run fails and prints no result",
          proc.returncode != 0 and "{" not in proc.stdout)
    shutil.rmtree(lonely, ignore_errors=True)


def main() -> int:
    tp = run.fresh_import(("totalprime", "totalprime.cli"))
    test_generators(tp)
    tiny = [
        workloads.Grid(count=60),
        workloads.SearchDeep(copies=0),
        workloads.SearchSmall(trees_per_size=1),
        workloads.Cli(run.ROOT, small=3),
    ]
    for wl in tiny:
        test_workload(tp, wl)
    test_contract()
    print("smoke test passed" if not FAILED else f"{len(FAILED)} check(s) failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
