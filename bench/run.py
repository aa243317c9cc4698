#!/usr/bin/env python3
"""totalprime benchmark.

One run, as BENCHMARK.json describes it (from the repository root):

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with a table and a result file:

    python3 bench/run.py [--seeds 1,2,3] [--seconds 20] [--out FILE]

Two result files side by side:

    python3 bench/run.py --compare before.json after.json

A run sets the workload up several times (fresh import of the package, the
shared prime table, instance generation from the seed), then repeats passes
over the same tasks until ``--seconds`` are spent, one task at a time.  The
last line of standard output is one JSON object: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced run alternates untraced and traced passes; the difference between
their medians, less the work only traced passes do, is the tracing overhead.
Full results, spans included, go to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from spans import Recorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_build" / "results"
PYCACHE = ROOT / ".bench_build" / "pycache"
WORKLOADS = ("grid", "search_deep", "search_small", "cli")
SETUP_REPEATS = 11

# reported by a --trace 0 run; bounds are in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rss_peak_mb": "MB",
}
# printed and written to the result file, but not in the contract line.
# Task latency percentiles are steady on grid, search_small and cli, but on
# search_deep the median falls in the gap between calls that decide at once
# and calls that hit their budget, so it swings with the seed (IQR/median
# 0.38 over five seeds on a 2-vCPU Xeon).  decided_frac has no meaning on grid, and
# failed_frac is 0 whenever the program is correct.
EXTRA_END_TO_END = {
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "task_p99_ms": "ms",
    "decided_frac": "fraction",
    "failed_frac": "fraction",
}


def layer_units() -> dict[str, str]:
    """Per-layer metrics reported by a --trace 1 run, with their units."""
    units = {
        "graphs.build_s": "s",
        "graphs.builds": "count",
        "graphs.edges": "count",
        "graphs.from_json_s": "s",
        "numtheory.sieve_s": "s",
        "numtheory.capacity_s": "s",
        "numtheory.primes": "count",
        "constructors.self_s": "s",
        "constructors.calls": "count",
        "constructors.labels": "count",
        "constructors.extend_s": "s",
        "labeling.verify_total_s": "s",
        "labeling.labels_checked": "count",
        "labeling.verify_vertex_s": "s",
        "labeling.json_s": "s",
        "search.busy_s": "s",
        "search.nodes": "count",
        "search.nodes_per_s": "1/s",
        "search.wasted_node_frac": "fraction",
        "search.setup_ms": "ms",
        "search.mcn_bounds": "count",
    }
    for key, *_rest in workloads.DEEP_BASES:
        units[f"search.{key}.nodes"] = "count"
        units[f"search.{key}.status"] = "code"
    units.update({
        "cli.interp_ms": "ms",
        "cli.import_ms": "ms",
        "cli.main_ms": "ms",
        "cli.json_bytes": "bytes",
        "trace.overhead_frac": "fraction",
    })
    return units


# --- one run ---------------------------------------------------------------

def bytecode_warm(modules) -> bool:
    """Whether every package module the workload imports has a cached .pyc.

    Importing ``totalprime`` loads every submodule except ``cli``.
    """
    sources = [p for p in (SRC / "totalprime").glob("*.py")
               if p.stem != "cli" or "totalprime.cli" in modules]
    return bool(sources) and all(
        os.path.exists(importlib.util.cache_from_source(str(p))) for p in sources
    )


def machine_stamp(modules) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "cpu_model": model,
        "loadavg_start": list(os.getloadavg()),
        "bytecode_cache_warm": bytecode_warm(modules),
    }


def fresh_import(modules):
    """Import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "totalprime" or m.startswith("totalprime.")]:
        del sys.modules[name]
    tp = importlib.import_module(modules[0])
    for name in modules[1:]:
        importlib.import_module(name)
    return tp


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``0 < q <= 100``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_passes(wl, tp, tasks, seconds: float, traced: bool):
    passes = []
    started = perf_counter()
    while True:
        rec = Recorder(traced and len(passes) % 2 == 1)
        pass_start = perf_counter()
        for index, task in enumerate(tasks):
            rec.task = index
            before = len(rec.failures)
            task_start = perf_counter()
            try:
                latency = wl.run(tp, task, rec)
            except Exception:  # a crash fails the task; the run goes on
                rec.fail(traceback.format_exc(limit=3).strip().replace("\n", " | "))
                latency = None
            if latency is None:
                latency = perf_counter() - task_start
            rec.latencies.append(latency)
            if len(rec.failures) > before:
                rec.counts["bench.failed_tasks"] += 1
        rec.wall = perf_counter() - pass_start
        passes.append(rec)
        spent = perf_counter() - started
        enough = len(passes) >= (2 if traced else 1)
        if enough and spent + statistics.median(p.wall for p in passes) > seconds:
            return passes


def end_to_end(wl, setups, passes) -> dict:
    plain = [p for p in passes if not p.traced]
    latencies = [x for p in plain for x in p.latencies]
    searches = plain[0].searches
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.counts["bench.failed_tasks"] for p in passes)
    decided = [s for s in searches if s[1] != "budget_exceeded"]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p.wall for p in plain),
        "task_p50_ms": 1000 * statistics.median(latencies),
        "task_p90_ms": 1000 * percentile(latencies, 90),
        "rss_peak_mb": resource.getrusage(who).ru_maxrss / 1024,
        "task_p99_ms": 1000 * percentile(latencies, 99),
        "decided_frac": len(decided) / len(searches) if searches else None,
        "failed_frac": failed / attempted,
    }


def layers(sieves, primes, probe, passes) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    selfs = [p.self_times() for p in traced]
    counts = traced[0].counts

    def t(*names):
        return statistics.median(sum(s.get(n, 0.0) for n in names) for s in selfs)

    busy = t("search.total", "search.prime", "search.mcn")
    nodes = counts["search.nodes"]
    quick = [1000 * s[4] for p in traced for s in p.searches
             if s[4] is not None and s[2] <= s[3]]
    out = {
        "graphs.build_s": t("graphs.build"),
        "graphs.builds": counts["graphs.builds"],
        "graphs.edges": counts["graphs.edges"],
        "graphs.from_json_s": t("graphs.from_json"),
        "numtheory.sieve_s": statistics.median(sieves),
        "numtheory.capacity_s": t("numtheory.capacity"),
        "numtheory.primes": primes,
        # the benchmark builds each task's graph once more, outside the
        # constructor, and takes that time off the constructor's
        "constructors.self_s": statistics.median(
            s.get("constructors.construct", 0.0) - s.get("graphs.build", 0.0)
            for s in selfs
        ),
        "constructors.calls": counts["constructors.calls"],
        "constructors.labels": counts["constructors.labels"],
        "constructors.extend_s": t("constructors.extend"),
        "labeling.verify_total_s": t("labeling.verify_total"),
        "labeling.labels_checked": counts["labeling.labels_checked"],
        "labeling.verify_vertex_s": t("labeling.verify_vertex"),
        "labeling.json_s": t("labeling.json"),
        "search.busy_s": busy,
        "search.nodes": nodes,
        "search.nodes_per_s": nodes / busy if busy else 0.0,
        "search.wasted_node_frac": counts["search.budget_nodes"] / nodes if nodes else 0.0,
        "search.setup_ms": statistics.median(quick) if quick else 0.0,
        "search.mcn_bounds": (counts["search.mcn_bounds"] / counts["search.mcn_found"]
                              if counts["search.mcn_found"] else 0.0),
    }
    for key, *_rest in workloads.DEEP_BASES:
        out[f"search.{key}.nodes"] = counts[f"search.{key}.nodes"]
        out[f"search.{key}.status"] = counts[f"search.{key}.status"]
    main_ms = [1000 * d for p in traced for d in p.durations("cli.main")]
    out.update({
        "cli.interp_ms": probe.get("cli.interp_ms", 0.0),
        "cli.import_ms": probe.get("cli.import_ms", 0.0),
        "cli.main_ms": statistics.median(main_ms) if main_ms else 0.0,
        "cli.json_bytes": counts["cli.json_bytes"],
        "trace.overhead_frac": statistics.median(p.wall - p.extra for p in traced)
        / statistics.median(p.wall for p in plain) - 1,
    })
    return out


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "totalprime" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # bytecode is cached under .bench_build whatever the environment says,
    # so import cost does not depend on PYTHONDONTWRITEBYTECODE
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    wl = workloads.make(name, ROOT)
    stamp = machine_stamp(wl.modules)
    setups, sieves = [], []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        tp = fresh_import(wl.modules)
        sieve_start = perf_counter()
        tp.numtheory.shared_table()
        sieves.append(perf_counter() - sieve_start)
        tasks = wl.setup(tp, seed)
        setups.append(perf_counter() - started)
    primes = len(tp.numtheory.shared_table().primes)
    probe = wl.probe() if traced and hasattr(wl, "probe") else {}
    passes = run_passes(wl, tp, tasks, seconds, traced)
    stamp["loadavg_end"] = list(os.getloadavg())

    e2e = end_to_end(wl, setups, passes)
    metrics = layers(sieves, primes, probe, passes) if traced else None
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.counts["bench.failed_tasks"] for p in passes)
    failures = [f for p in passes for f in p.failures]
    units = layer_units() if traced else END_TO_END
    shown = metrics if traced else {k: e2e[k] for k in END_TO_END}

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(traced)}"
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "machine": stamp,
        "tasks_per_pass": len(tasks),
        "passes": [{"traced": p.traced, "wall_s": p.wall} for p in passes],
        "setup_s_each": setups,
        "end_to_end": e2e,
        "layers": metrics,
        "counts": {
            "untraced": dict(next(p for p in passes if not p.traced).counts),
            "traced": dict(next(p for p in passes if p.traced).counts) if traced else None,
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with open(stem.with_name(stem.name + "-spans.jsonl"), "w", encoding="utf-8") as out:
            for number, p in enumerate(passes):
                for task, span, start, end, parent in p.spans:
                    out.write(json.dumps([number, task, span, start, end, parent]) + "\n")

    print(f"# {name} seed={seed} trace={int(traced)} tasks/pass={len(tasks)} "
          f"passes={len(passes)} python={stamp['python']} nproc={stamp['nproc']} "
          f"cpu={stamp['cpu_model']!r} load={stamp['loadavg_start'][0]:.2f}->"
          f"{stamp['loadavg_end'][0]:.2f} pyc_warm={stamp['bytecode_cache_warm']}")
    for key, unit in (units | ({} if traced else EXTRA_END_TO_END)).items():
        value = shown.get(key, e2e.get(key))
        if value is not None:
            print(f"{name:<13} {key:<34} {value:>14.6g} {unit}")
    for line in failures[:5]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": shown[k], "unit": u} for k, u in units.items()},
    }))
    return 0


# --- every workload, and comparison ----------------------------------------

def run_all(names, seeds, seconds: float, out: Path) -> int:
    # each run's record carries its own machine stamp
    results: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    status = 0
    for name in names:
        runs = results["workloads"].setdefault(name, {"untraced": [], "traced": []})
        for seed in seeds:
            for traced in (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                    cwd=ROOT, capture_output=True, text=True,
                )
                sys.stdout.write(proc.stdout)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    return proc.returncode
                path = RESULTS / f"{name}-seed{seed}-trace{traced}.json"
                record = json.loads(path.read_text())
                runs["traced" if traced else "untraced"].append(record)
                status |= record["failed"] > 0
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print()
    print_summary(results)
    print(f"results written to {out}")
    return 1 if status else 0


def values(runs, section, key):
    return [r[section][key] for r in runs if r[section] and r[section].get(key) is not None]


def spread(vals) -> float:
    """Interquartile distance as a share of the median (0 below 2 values)."""
    if len(vals) < 2:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    mid = statistics.median(vals)
    return (q[2] - q[0]) / mid if mid else 0.0


def print_summary(results) -> None:
    units = END_TO_END | EXTRA_END_TO_END
    for name, runs in results["workloads"].items():
        for key, unit in units.items():
            vals = values(runs["untraced"], "end_to_end", key)
            if vals:
                print(f"{name:<13} {key:<34} {statistics.median(vals):>14.6g} {unit:<9}"
                      f" spread {spread(vals):.3f} over {len(vals)} run(s)")
        for key, unit in layer_units().items():
            vals = values(runs["traced"], "layers", key)
            if vals and any(vals):
                print(f"{name:<13} {key:<34} {statistics.median(vals):>14.6g} {unit}")


# counts that repeat exactly for a fixed seed: compared as changed/unchanged
EXACT = ("graphs.builds", "graphs.edges", "constructors.calls", "constructors.labels",
         "labeling.labels_checked", "numtheory.primes", "search.nodes", "search.mcn_bounds",
         "search.wasted_node_frac", "cli.json_bytes", "decided_frac", "failed_frac")


def verdict(key, va, vb, bounds, lower, same_seeds) -> str:
    if key in EXACT or key.endswith((".nodes", ".status")):
        if not same_seeds:
            return "(seeds differ)"
        return "unchanged" if va == vb else "CHANGED"
    wide = max(spread(va), spread(vb))
    if key not in bounds:
        return f"(no bound; spread {wide:.3f})"
    sign = 1 if lower[key] else -1
    bound = bounds[key]
    if all(sign * x < sign * y for x in vb for y in va):
        return "better in every run"
    if wide > bound:
        return f"unresolved: spread {wide:.3f} > bound {bound}"
    ma, mb = statistics.median(va), statistics.median(vb)
    if sign * (mb - ma) > bound * ma:
        return f"WORSE by more than bound {bound}"
    return f"within bound {bound}"


def compare(path_a: Path, path_b: Path) -> int:
    """Each metric of each workload, median before and after, one row each."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in contract["end_to_end"]}
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    same_seeds = a["seeds"] == b["seeds"]
    print(f"{'workload':<13} {'metric':<34} {'before':>12} {'after':>12} {'change':>8}  verdict")
    rows = [("end_to_end", k, "untraced") for k in END_TO_END | EXTRA_END_TO_END]
    rows += [("layers", k, "traced") for k in layer_units()]
    for name in [w for w in a["workloads"] if w in b["workloads"]]:
        ra, rb = a["workloads"][name], b["workloads"][name]
        for section, key, mode in rows:
            va, vb = values(ra[mode], section, key), values(rb[mode], section, key)
            if not va or not vb or not any(va + vb):
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = f"{(mb - ma) / ma:>+8.1%}" if ma else f"{'new':>8}"
            print(f"{name:<13} {key:<34} {ma:>12.6g} {mb:>12.6g} {change}  "
                  f"{verdict(key, va, vb, bounds, lower, same_seeds)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (one run)")
    parser.add_argument("--seeds", default="1", help="comma list of seeds (all workloads)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the passes of one run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS / "all.json",
                        help="result file of an all-workload run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    seeds = [int(s) for s in args.seeds.split(",") if s]
    return run_all(WORKLOADS, seeds, args.seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
