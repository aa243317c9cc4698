"""The four benchmark workloads.

Each workload builds its tasks in ``setup`` from the seed alone and runs one
task at a time in ``run``, checking the task's output there.  A failed check
goes to ``Recorder.fail``; reaching a node budget is not a failure.  Every
call into the package sits inside a span named after the module it enters,
which is how the per-layer metrics are measured from outside the package.

The package is passed in as ``tp`` (the freshly imported ``totalprime``), so
this file never imports it itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen

FOUND = "found"
EXHAUSTED = "exhausted_no_solution"
BUDGET = "budget_exceeded"
STATUS_CODE = {FOUND: 1, EXHAUSTED: 2, BUDGET: 3}  # 0: instance not run


# --- shared calls into the package, each inside its layer's span ----------

def search(tp, rec, kind, g, budget, k_max=None):
    """One search call; ``kind`` is total, prime or mcn."""
    cfg = tp.SearchConfig(node_budget=budget)
    with rec.span("search." + kind):
        if kind == "total":
            out = tp.find_total_prime(g, cfg)
        elif kind == "prime":
            out = tp.find_prime(g, cfg)
        else:
            out = tp.minimum_coprime_number(g, k_max, cfg)
    rec.search(kind, out.status, out.nodes_explored, g.n, rec.last if rec.traced else None)
    rec.counts["search.nodes"] += out.nodes_explored
    if out.status == BUDGET:
        rec.counts["search.budget_nodes"] += out.nodes_explored
    if kind == "mcn" and out.status == FOUND:
        rec.counts["search.mcn_found"] += 1
        rec.counts["search.mcn_bounds"] += out.value - g.n + 1
    return out


def check_total(tp, rec, g, labeling, what) -> bool:
    with rec.span("labeling.verify_total"):
        report = tp.verify_total_prime(g, labeling)
    rec.counts["labeling.labels_checked"] += g.n + g.m
    if not report.valid:
        rec.fail(f"{what}: invalid total prime labeling {report.violations[:2]}")
    return report.valid


def check_vertex(tp, rec, g, labeling, bound, what) -> bool:
    """verify_prime when ``bound`` is None, else verify_coprime."""
    with rec.span("labeling.verify_vertex"):
        if bound is None:
            report = tp.verify_prime(g, labeling)
        else:
            report = tp.verify_coprime(g, labeling, bound)
    if not report.valid:
        rec.fail(f"{what}: invalid vertex labeling {report.violations[:2]}")
    return report.valid


def check_status(rec, out, known, what) -> bool:
    """``known``: True (a labeling exists), False (none exists), an int (the
    minimum coprime number) or None (unknown)."""
    if out.status == EXHAUSTED and known not in (False, None):
        rec.fail(f"{what}: exhausted, but a labeling exists")
        return False
    if out.status == FOUND and known is False:
        rec.fail(f"{what}: found a labeling where none exists")
        return False
    if isinstance(known, int) and not isinstance(known, bool) and out.status == FOUND:
        if out.value != known:
            rec.fail(f"{what}: minimum coprime number {out.value}, expected {known}")
            return False
    return True


# --- grid -------------------------------------------------------------------

class Grid:
    """Construct one criterion-1 grid instance and verify it."""

    name = "grid"
    modules = ("totalprime",)

    def __init__(self, count: int = 4000):
        self.count = count

    def setup(self, tp, seed):
        tasks = []
        for item in gen.grid_sample(seed, self.count):
            tasks.append(
                (
                    f"{item.ctor}{item.args}",
                    getattr(tp, item.ctor),
                    item.args,
                    dict(item.kwargs),
                    tp.FamilySpec(item.family, **dict(item.params)),
                )
            )
        return tasks

    def run(self, tp, task, rec):
        what, ctor, args, kwargs, fspec = task
        if rec.traced:
            # timed separately so constructor self time is construct - build
            with rec.traced_only(), rec.span("graphs.build"):
                tp.build_family(fspec)
        with rec.span("constructors.construct"):
            result = ctor(*args, **kwargs)
        g = result.graph
        rec.counts["graphs.builds"] += 1
        rec.counts["graphs.edges"] += g.m
        rec.counts["constructors.calls"] += 1
        rec.counts["constructors.labels"] += g.n + g.m
        check_total(tp, rec, g, result.labeling, what)


# --- search_deep ------------------------------------------------------------

# (key, mode, family, params, node budget, known answer; see check_status)
DEEP_BASES = (
    ("snake_3x3_total", "total", "snake", {"k": 3, "n": 3}, 30_000, True),
    ("snake_3x5_total", "total", "snake", {"k": 3, "n": 5}, 30_000, True),
    ("c4_c6_total", "total", "union", {"cycles": (4, 6)}, 30_000, True),
    ("c8_total", "total", "cycle", {"n": 8}, 30_000, True),
    ("c9_total", "total", "cycle", {"n": 9}, 30_000, False),
    ("c10_total", "total", "cycle", {"n": 10}, 30_000, True),
    ("grid_5x5_prime", "prime", "grid", {"m": 5, "n": 5}, 10_000, True),
    ("grid_6x6_prime", "prime", "grid", {"m": 6, "n": 6}, 10_000, None),
    ("c31sq_prime", "prime", "cycle_power", {"n": 31, "k": 2}, 10_000, False),
    ("k6_mcn", "mcn", "complete", {"n": 6}, 30_000, 11),
    ("k7_mcn", "mcn", "complete", {"n": 7}, 30_000, 13),
    ("c10cube_mcn", "mcn", "cycle_power", {"n": 10, "k": 3}, 20_000, None),
)

# Status and node count of every base instance in canonical vertex order
# under the budgets above, as measured on the reference commit.  The search
# is deterministic, so any difference is reported as a failure.
DEEP_PINS = {
    "snake_3x3_total": (FOUND, 11_497),
    "snake_3x5_total": (BUDGET, 30_001),
    "c4_c6_total": (BUDGET, 30_001),
    "c8_total": (FOUND, 46),
    "c9_total": (EXHAUSTED, 0),
    "c10_total": (FOUND, 108),
    "grid_5x5_prime": (BUDGET, 10_001),
    "grid_6x6_prime": (BUDGET, 10_001),
    "c31sq_prime": (BUDGET, 10_001),
    "k6_mcn": (FOUND, 3_255),
    "k7_mcn": (FOUND, 20_914),
    "c10cube_mcn": (BUDGET, 20_001),
}


def build_base(tp, family, params):
    if family == "union":
        members = tuple(tp.FamilySpec("cycle", n=c) for c in params["cycles"])
        return tp.build_family(tp.FamilySpec("union", members=members))
    return tp.build_family(tp.FamilySpec(family, **params))


class SearchDeep:
    """Hard decisions under node budgets, canonical plus relabelled copies."""

    name = "search_deep"
    modules = ("totalprime",)

    def __init__(self, copies: int = 3):
        self.copies = copies

    def setup(self, tp, seed):
        tasks = []
        for key, mode, family, params, budget, known in DEEP_BASES:
            g = build_base(tp, family, params)
            tasks.append((key, mode, g, budget, known, True))
            for j in range(self.copies):
                copy = gen.relabel(tp, g, seed, f"{key}:{j}")
                tasks.append((key, mode, copy, budget, known, False))
        return tasks

    def run(self, tp, task, rec):
        key, mode, g, budget, known, canonical = task
        what = f"{key}{'' if canonical else ' (relabelled)'}"
        out = search(tp, rec, mode, g, budget, k_max=4 * g.n)
        if canonical:
            rec.counts[f"search.{key}.nodes"] = out.nodes_explored
            rec.counts[f"search.{key}.status"] = STATUS_CODE[out.status]
            pinned = DEEP_PINS.get(key)
            if pinned is not None and pinned != (out.status, out.nodes_explored):
                rec.fail(
                    f"{key}: {out.status} in {out.nodes_explored} nodes, "
                    f"pinned {pinned[0]} in {pinned[1]}"
                )
        if not check_status(rec, out, known, what) or out.status != FOUND:
            return
        if mode == "total":
            check_total(tp, rec, g, out.labeling, what)
        elif mode == "prime":
            check_vertex(tp, rec, g, out.labeling, None, what)
        else:
            check_vertex(tp, rec, g, out.labeling, out.value, what)


# --- search_small -----------------------------------------------------------

# Minimum coprime numbers for the MCN -> Hamiltonian extension chain.  The
# first nine are the acceptance cross-checks; the rest were settled by the
# package's exhaustive search and are pinned so a change shows.
MCN_POOL = (
    ("stacked_prism", {"m": 3, "n": 2}, 7),
    ("stacked_prism", {"m": 3, "n": 3}, 11),
    ("stacked_prism", {"m": 5, "n": 2}, 11),
    ("path_power", {"n": 6, "k": 2}, 7),
    ("path_power", {"n": 8, "k": 2}, 9),
    ("cycle_power", {"n": 6, "k": 2}, 7),
    ("cycle_power", {"n": 7, "k": 2}, 9),
    ("path_power", {"n": 8, "k": 3}, 11),
    ("cycle_power", {"n": 8, "k": 3}, 11),
    ("stacked_prism", {"m": 4, "n": 2}, 8),
    ("stacked_prism", {"m": 4, "n": 3}, 12),
    ("stacked_prism", {"m": 5, "n": 3}, 17),
    ("stacked_prism", {"m": 6, "n": 2}, 12),
    ("stacked_prism", {"m": 7, "n": 2}, 15),
    ("path_power", {"n": 7, "k": 2}, 7),
    ("path_power", {"n": 9, "k": 2}, 11),
    ("path_power", {"n": 9, "k": 3}, 11),
    ("path_power", {"n": 10, "k": 3}, 13),
    ("cycle_power", {"n": 5, "k": 2}, 7),
    ("cycle_power", {"n": 8, "k": 2}, 11),
    ("cycle_power", {"n": 9, "k": 2}, 11),
    ("cycle_power", {"n": 10, "k": 2}, 13),
    ("cycle_power", {"n": 9, "k": 3}, 13),
)

TREE_SIZES = range(2, 41)
# trees mostly decide within about n nodes; the budget keeps the rare deep
# search (search_deep's subject) from deciding how long a pass takes
TREE_BUDGET = 300
CHAIN_BUDGET = 20_000
CRIT8_BUDGET = 30_000
HAM_SIZES = range(3, 9)


def criterion8_graphs(tp):
    """Grid instances with n + m <= 16 (acceptance criterion 8).

    Only items whose parameters are all at most 7 can be that small, so only
    those are built.
    """
    out = []
    for items in gen.grid_items().values():
        for item in items:
            if max(item.args) > 7:
                continue
            g = tp.build_family(tp.FamilySpec(item.family, **dict(item.params)))
            if g.n + g.m <= 16:
                out.append((f"{item.ctor}{item.args}", g))
    return out


class SearchSmall:
    """Short search chains that each end in a verified construction.

    The seed draws the trees and relabels the criterion-8 instances; every
    MCN and Hamiltonian chain runs once per pass, since their costs differ
    too much for a small draw to be steady.
    """

    name = "search_small"
    modules = ("totalprime",)

    def __init__(self, trees_per_size: int = 10):
        self.trees_per_size = trees_per_size

    def setup(self, tp, seed):
        tasks = []
        rng = gen.rng_for(seed, "trees")
        for n in TREE_SIZES:
            for _ in range(self.trees_per_size):
                edges = tuple(gen.prufer_tree(rng, n))
                g = tp.build_family(tp.FamilySpec("tree", n=n, edges=edges))
                tasks.append(("tree", f"tree n={n}", g, None, None))
        for family, params, value in MCN_POOL:
            fspec = tp.FamilySpec(family, **params)
            tasks.append(("mcn", f"mcn {family}{params}", tp.build_family(fspec), fspec, value))
        for n in HAM_SIZES:
            for fspec in (tp.FamilySpec("ladder", n=n), tp.FamilySpec("grid", m=2, n=n)):
                tasks.append(("ham", f"{fspec.family} n={n}", tp.build_family(fspec), fspec, None))
        for what, g in criterion8_graphs(tp):
            copy = gen.relabel(tp, g, seed, f"crit8:{what}")
            tasks.append(("crit8", what, copy, None, None))
        gen.rng_for(seed, "order").shuffle(tasks)
        return tasks

    def run(self, tp, task, rec):
        kind, what, g, fspec, value = task
        if kind == "crit8":
            out = search(tp, rec, "total", g, CRIT8_BUDGET)
            # every criterion-8 instance has a constructed labeling
            if check_status(rec, out, True, what) and out.status == FOUND:
                check_total(tp, rec, g, out.labeling, what)
            return
        if kind == "mcn":
            out = search(tp, rec, "mcn", g, CHAIN_BUDGET, k_max=4 * g.n)
            if not check_status(rec, out, value, what) or out.status != FOUND:
                return
            if not check_vertex(tp, rec, g, out.labeling, out.value, what):
                return
            with rec.span("constructors.extend"):
                ham = tp.canonical_hamiltonian(g, fspec)
                result = tp.extend_coprime_hamiltonian(g, out.labeling, out.value, ham)
        else:
            budget = TREE_BUDGET if kind == "tree" else CHAIN_BUDGET
            out = search(tp, rec, "prime", g, budget)
            # trees on at most 50 vertices (Pikhurko) and ladders are prime
            if not check_status(rec, out, True, what) or out.status != FOUND:
                return
            if not check_vertex(tp, rec, g, out.labeling, None, what):
                return
            with rec.span("constructors.extend"):
                if kind == "tree":
                    result = tp.extend_prime_tree(g, out.labeling)
                else:
                    ham = tp.canonical_hamiltonian(g, fspec)
                    result = tp.extend_prime_hamiltonian(g, out.labeling, ham)
        check_total(tp, rec, result.graph, result.labeling, what)


# --- cli --------------------------------------------------------------------

# (argv after "search"/"mcn", expected status or MCN value)
CLI_SMALL = (
    (["search", "--total-prime", "--family", "cycle", "-n", "4"], FOUND),
    (["search", "--total-prime", "--family", "cycle", "-n", "5"], EXHAUSTED),
    (["search", "--total-prime", "--family", "cycle", "-n", "6"], FOUND),
    (["search", "--total-prime", "--family", "cycle", "-n", "7"], EXHAUSTED),
    (["search", "--total-prime", "--family", "cycle", "-n", "8"], FOUND),
    (["search", "--total-prime", "--family", "snake", "-k", "3", "-n", "3"], FOUND),
    (["search", "--prime", "--family", "grid", "-m", "3", "-n", "4"], FOUND),
    (["search", "--prime", "--family", "grid", "-m", "4", "-n", "4"], FOUND),
    (["mcn", "--family", "stacked-prism", "-m", "3", "-n", "2"], 7),
    (["mcn", "--family", "path-power", "-n", "8", "-k", "2"], 9),
    (["mcn", "--family", "cycle-power", "-n", "7", "-k", "2"], 9),
    (["mcn", "--family", "complete", "-n", "6"], 11),
)

# family -> (smallest, largest) size drawn for label -> verify
CLI_LABEL_SIZES = {"prism": (300, 3000), "complete": (20, 150), "helm": (200, 2000)}
PI_LIMIT = 1_000_000


class Cli:
    """One ``tpl`` subprocess at a time, as a user runs it."""

    name = "cli"
    modules = ("totalprime", "totalprime.cli")

    def __init__(self, root: Path, small: int = 6):
        self.root = root
        self.workdir = root / ".bench_build" / "cli"
        self.small = small
        self.env = dict(os.environ)
        # children cache bytecode where this process does
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        if sys.pycache_prefix:
            self.env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def setup(self, tp, seed):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for stale in self.workdir.glob("*.json"):
            stale.unlink()
        rng = gen.rng_for(seed, "cli")
        tasks = []
        for family, (lo, hi) in CLI_LABEL_SIZES.items():
            for n in label_sizes(rng, family, lo, hi):
                path = str(self.workdir / f"{len(tasks)}.json")
                fspec = tp.FamilySpec(family, n=n)
                tasks.append(("label", ["label", "--family", family, "-n", str(n),
                                        "--out", path], fspec, path))
                tasks.append(("verify", ["verify", "--in", path], None, path))
        tasks.append(("bounds", ["bounds", "--pi-limit", str(PI_LIMIT)], None, None))
        for argv, expected in rng.sample(CLI_SMALL, self.small):
            tasks.append((argv[0], list(argv), expected, None))
        return tasks

    def _tpl(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "totalprime.cli", *argv],
            env=self.env, cwd=self.root, capture_output=True, text=True,
        )

    def run(self, tp, task, rec):
        """Returns the latency of the ``tpl`` process alone."""
        started = perf_counter()
        proc = self._tpl(task[1])
        latency = perf_counter() - started
        self._check(tp, task, proc, rec)
        if rec.traced:
            with rec.traced_only():
                self._in_process(tp, task, rec)
        return latency

    def _check(self, tp, task, proc, rec):
        kind, argv, extra, path = task
        rec.counts["cli.json_bytes"] += len(proc.stdout)
        if kind == "label" and os.path.exists(path):
            rec.counts["cli.json_bytes"] += os.path.getsize(path)
        what = f"tpl {' '.join(argv[:6])}"
        if proc.returncode != 0:
            rec.fail(f"{what}: exit {proc.returncode}: {proc.stderr[-200:]}")
            return
        if kind == "label":
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            with rec.span("graphs.from_json"):
                g = tp.Graph.from_json_dict(data["graph"])
            with rec.span("labeling.json"):
                labeling = tp.Labeling.from_json_dict(data["labeling"])
            if (g.n, g.m) != _size(extra.family, extra.n):
                rec.fail(f"{what}: graph has {g.n} vertices, {g.m} edges")
            # the tpl process built and labeled this graph
            rec.counts["graphs.builds"] += 1
            rec.counts["graphs.edges"] += g.m
            rec.counts["constructors.calls"] += 1
            rec.counts["constructors.labels"] += g.n + g.m
            check_total(tp, rec, g, labeling, what)
        elif kind == "verify":
            if json.loads(proc.stdout).get("valid") is not True:
                rec.fail(f"{what}: not reported valid")
        elif kind == "bounds":
            out = json.loads(proc.stdout)
            if not (out["capacity_ok"] and out["prime_count_exceeds_x_over_ln_x"]
                    and out["prev_prime_exceeds_half"]):
                rec.fail(f"{what}: a bound check failed: {out}")
        else:
            self._check_search(tp, rec, argv, extra, json.loads(proc.stdout), what)

    def _check_search(self, tp, rec, argv, expected, out, what):
        family = argv[argv.index("--family") + 1].replace("-", "_")
        params = {}
        for flag in ("-n", "-m", "-k"):
            if flag in argv:
                params[flag[1]] = int(argv[argv.index(flag) + 1])
        g = tp.build_family(tp.FamilySpec(family, **params))
        status = out["status"]
        rec.search(argv[0], status, out["nodes"], g.n)
        rec.counts["search.nodes"] += out["nodes"]
        if argv[0] == "mcn":
            if status != FOUND or out["value"] != expected:
                rec.fail(f"{what}: {status} value {out.get('value')}, expected {expected}")
                return
            labeling = tp.Labeling.from_json_dict(out["labeling"])
            check_vertex(tp, rec, g, labeling, out["value"], what)
            return
        if status != expected:
            rec.fail(f"{what}: {status}, expected {expected}")
            return
        if status == FOUND:
            labeling = tp.Labeling.from_json_dict(out["labeling"])
            if "--prime" in argv:
                check_vertex(tp, rec, g, labeling, None, what)
            else:
                check_total(tp, rec, g, labeling, what)

    def _in_process(self, tp, task, rec):
        """Traced passes only: the same work inside this process, so the
        per-process costs can be told apart from the package's."""
        kind, argv, fspec, _path = task
        cli = sys.modules["totalprime.cli"]
        if kind == "label":
            with rec.span("graphs.build"):
                tp.build_family(fspec)
            with rec.span("constructors.construct"):
                result = getattr(tp, fspec.family)(fspec.n)
            with rec.span("labeling.json"):
                result.labeling.to_json_dict()
        if kind == "bounds":
            tp.numtheory.reset_shared_table()
            with rec.span("numtheory.capacity"):
                tp.check_label_capacity_bounds(1000)
        tp.numtheory.reset_shared_table()  # a fresh process sieves afresh
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with rec.span("cli.main"):
                cli.main(list(argv))

    def probe(self):
        """Interpreter floor and import cost, five child processes each."""
        floor = [self._time_child(["-c", "pass"]) for _ in range(5)]
        imp = [self._time_child(["-c", "import totalprime.cli"]) for _ in range(5)]
        floor_s = statistics.median(floor)
        return {"cli.interp_ms": 1000 * floor_s,
                "cli.import_ms": 1000 * (statistics.median(imp) - floor_s)}

    def _time_child(self, args):
        started = perf_counter()
        subprocess.run([sys.executable, *args], env=self.env, cwd=self.root, check=True)
        return perf_counter() - started


def _size(family, n):
    """Vertices and edges of a ``cli`` label family at size ``n``."""
    if family == "prism":
        return 2 * n, 3 * n
    if family == "helm":
        return 2 * n + 1, 3 * n
    return n, n * (n - 1) // 2


def label_sizes(rng, family, lo, hi):
    """The largest size, a drawn size and its mirror.

    The largest always runs, so the peak child memory does not depend on the
    seed.  The mirror is the smallest size that brings the two drawn graphs
    to as many labels as the smallest and largest graphs together, so the
    work of a pass hardly depends on the seed either.
    """
    total = sum(_size(family, lo)) + sum(_size(family, hi))
    drawn = rng.randint(lo, hi)
    rest = total - sum(_size(family, drawn))
    mirror = next(k for k in range(lo, hi + 1) if sum(_size(family, k)) >= rest)
    return hi, drawn, mirror


def make(name: str, root: Path):
    return {
        "grid": Grid,
        "search_deep": SearchDeep,
        "search_small": SearchSmall,
        "cli": lambda: Cli(root),
    }[name]()
