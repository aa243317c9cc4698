"""Command-line front end.

Subcommands:
  generate   build a family graph and write graph JSON
  label      run the constructor for a family and write graph+labeling JSON
  verify     check a graph+labeling JSON file; exit 1 on violations
  search     exhaustive search for a total prime / prime labeling
  mcn        minimum coprime number by incremental exhaustive search
  bounds     prime-capacity and prime-counting sanity checks
  export     render graph(+labeling) JSON as Graphviz DOT

Output is single-line JSON (``python -m json.tool`` pretty-prints it), or
DOT for ``export --format dot``.  ``--in`` reads the graph from a file and
cannot be combined with family flags.

Exit codes: 0 success; 1 when ``verify`` finds a violation, ``bounds`` a
failed check, ``mcn`` no labeling up to ``--k-max`` (every bound exhausted,
or a budget spent) or ``label`` no friendship labeling within its budget;
2 usage errors, bad parameters or malformed input documents; 3 files that
cannot be read or decoded.  ``search`` exits 0 whatever it decides and
reports the outcome as ``status`` in its JSON.  Only ``label --family
friendship`` searches, so ``label`` takes the search flags for it alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import constructors, numtheory
from . import search as search_mod
from .errors import InvalidParameterError, NotFoundWithinBoundError, TotalPrimeError
from .graphs import _BUILDERS, FamilySpec, Graph, build_family, to_dot
from .labeling import Labeling, _check_shape, verify_total_prime


# each family flag and the FamilySpec field it fills
_FAMILY_FLAGS = {
    "-n": "n", "-m": "m", "-k": "k", "--chord": "k", "--cycles": "members", "--edges": "edges"
}


def _given(args: argparse.Namespace, flags) -> list[str]:
    """The flags among ``flags`` set on the command line."""
    return [
        flag for flag in flags
        if getattr(args, flag.lstrip("-").replace("-", "_")) is not None
    ]


def _spec_from_args(args: argparse.Namespace) -> FamilySpec:
    family = args.family.replace("-", "_")
    if family in _BUILDERS:  # an unknown family is left to the builder's error
        reads = _BUILDERS[family][1]
        unread = [
            flag for flag in _given(args, _FAMILY_FLAGS)
            if _FAMILY_FLAGS[flag] not in reads
        ]
        if unread:
            raise InvalidParameterError(
                f"family {args.family} does not take {', '.join(unread)}"
            )
    if family == "union":
        if not args.cycles:
            raise InvalidParameterError("union needs --cycles, e.g. --cycles 3,4")
        try:
            lengths = [int(c) for c in args.cycles.split(",") if c]
        except ValueError:
            raise InvalidParameterError(
                f"--cycles must be a comma list of integers, got {args.cycles!r}"
            ) from None
        return FamilySpec("union", members=tuple(FamilySpec("cycle", n=c) for c in lengths))
    if family == "tree":
        if not args.edges:
            raise InvalidParameterError('tree needs --edges, e.g. --edges "[[0,1],[1,2]]"')
        try:
            edges = json.loads(args.edges)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"--edges is not JSON: {exc}") from None
        if not isinstance(edges, list):
            raise InvalidParameterError(f"--edges must be a JSON list, got {edges!r}")
        return FamilySpec("tree", n=args.n, edges=tuple(edges))
    # --chord is another name for -k; the cycle-chord builder defaults it to 3
    if args.chord is not None and args.k is not None and args.chord != args.k:
        raise InvalidParameterError(
            f"--chord {args.chord} and -k {args.k} disagree; give the chord offset once"
        )
    k = args.k if args.k is not None else args.chord
    return FamilySpec(family, n=args.n, m=args.m, k=k)


def _graph_from_args(args: argparse.Namespace) -> Graph:
    if getattr(args, "infile", None):
        given = _given(args, ("--family", *_FAMILY_FLAGS))
        if given:
            raise InvalidParameterError(
                f"--in takes the graph from {args.infile}; drop {', '.join(given)}"
            )
        data = _read_json(args.infile)
        return Graph.from_json_dict(data.get("graph", data))
    if not args.family:
        raise InvalidParameterError("need --family or --in")
    return build_family(_spec_from_args(args))


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise InvalidParameterError(f"{path} does not hold a JSON object")
    return data


def _emit(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    # no indent: indent makes json use its pure-Python encoder, several times slower
    _emit(args, json.dumps(payload))


def _search_config(args: argparse.Namespace) -> search_mod.SearchConfig:
    kwargs: dict = {}
    if args.node_budget is not None:
        kwargs["node_budget"] = args.node_budget
    if args.time_budget is not None:
        kwargs["time_budget"] = args.time_budget
    if getattr(args, "symmetry_breaking", False):
        kwargs["symmetry_breaking"] = True
    if getattr(args, "seed", None) is not None:
        kwargs["randomize"] = args.seed
    return search_mod.SearchConfig(**kwargs)


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    _emit_json(args, graph.to_json_dict())
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if spec.family == "friendship":
        # no fixed scheme for triangle windmills; search finds one directly
        graph = build_family(spec)
        outcome = search_mod.find_total_prime(graph, _search_config(args))
        if outcome.status != search_mod.FOUND:
            print(f"search failed: {outcome.status}", file=sys.stderr)
            return 1
        result = constructors.ConstructionResult(
            graph, outcome.labeling, {"via": "search"}
        )
    else:
        given = _given(args, _SEARCH_FLAGS)
        if given:
            raise InvalidParameterError(
                f"family {args.family} is constructed, not searched;"
                f" it does not take {', '.join(given)}"
            )
        result = constructors.construct(spec)
    payload = {
        "graph": result.graph.to_json_dict(),
        "labeling": result.labeling.to_json_dict(),
        "notes": result.notes,
    }
    _emit_json(args, payload)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    data = _read_json(args.infile)
    missing = [repr(key) for key in ("graph", "labeling") if key not in data]
    if missing:
        raise InvalidParameterError(
            f"{args.infile} has no {' or '.join(missing)} field; verify reads"
            " graph JSON with its labeling, as tpl label writes"
        )
    graph = Graph.from_json_dict(data["graph"])
    labeling = Labeling.from_json_dict(data["labeling"])
    report = verify_total_prime(graph, labeling)
    _emit_json(args, report.to_json_dict())
    return 0 if report.valid else 1


def _cmd_search(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    cfg = _search_config(args)
    if args.prime:
        outcome = search_mod.find_prime(graph, cfg)
    else:
        outcome = search_mod.find_total_prime(graph, cfg)
    _emit_json(args, outcome.to_json_dict())
    return 0


def _cmd_mcn(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    k_max = args.k_max if args.k_max is not None else max(4 * graph.n, graph.n)
    cfg = _search_config(args)
    try:
        result = search_mod.minimum_coprime_number(graph, k_max, cfg)
    except NotFoundWithinBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "status": result.status,
        "value": result.value,
        "nodes": result.nodes_explored,
        "ms": int(result.elapsed * 1000),
    }
    if result.labeling is not None:
        payload["labeling"] = result.labeling.to_json_dict()
    _emit_json(args, payload)
    return 0 if result.status == search_mod.FOUND else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    capacity = numtheory.check_label_capacity_bounds(args.n_max)
    pi_ok, bertrand_ok = numtheory.check_prime_counting_bounds(args.pi_limit)
    payload = {
        "capacity_ok": capacity.ok,
        "capacity_failure": list(capacity.failure) if capacity.failure else None,
        "prime_count_exceeds_x_over_ln_x": pi_ok,
        "prev_prime_exceeds_half": bertrand_ok,
        "n_max": args.n_max,
        "pi_limit": args.pi_limit,
    }
    _emit_json(args, payload)
    return 0 if capacity.ok and pi_ok and bertrand_ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    data = _read_json(args.infile)
    graph = Graph.from_json_dict(data.get("graph", data))
    labeling = Labeling.from_json_dict(data["labeling"]) if "labeling" in data else None
    if labeling is not None:
        _check_shape(graph, labeling, with_edges=bool(labeling.edge_labels))
    if args.format == "json":
        payload = {"graph": graph.to_json_dict()}
        if labeling is not None:
            payload["labeling"] = labeling.to_json_dict()
        _emit_json(args, payload)
    else:
        _emit(args, to_dot(graph, labeling))
    return 0


def _add_family_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--family", required=required, help="graph family name")
    parser.add_argument("-n", type=int, help="main size parameter")
    parser.add_argument("-m", type=int, help="secondary size parameter")
    parser.add_argument("-k", type=int, help="cycle length / power parameter")
    parser.add_argument("--chord", type=int, help="same as -k; the chord offset of cycle-chord")
    parser.add_argument("--cycles", help="comma list of cycle lengths (union)")
    parser.add_argument("--edges", help="JSON edge list (tree)")


# each search flag and its argparse settings; every one is None when not given
_SEARCH_FLAGS = {
    "--node-budget": {"type": int},
    "--time-budget": {"type": float},
    "--symmetry-breaking": {"action": "store_true", "default": None},
    "--seed": {"type": int},
}


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    for flag, settings in _SEARCH_FLAGS.items():
        parser.add_argument(flag, **settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpl", description="total prime labelings: construct, verify, search"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a family graph as JSON")
    _add_family_flags(p, required=False)
    p.add_argument("--in", dest="infile", help="echo an existing graph JSON")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("label", help="construct a total prime labeling")
    _add_family_flags(p)
    p.add_argument("--out")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("verify", help="verify a graph+labeling JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive labeling search")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--total-prime", action="store_true")
    mode.add_argument("--prime", action="store_true")
    _add_family_flags(p, required=False)
    p.add_argument("--in", dest="infile", help="graph JSON input")
    p.add_argument("--out")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("mcn", help="minimum coprime number")
    _add_family_flags(p, required=False)
    p.add_argument("--in", dest="infile", help="graph JSON input")
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--out")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_mcn)

    p = sub.add_parser("bounds", help="prime capacity and counting checks")
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--pi-limit", type=int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("export", help="render graph JSON as DOT")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TotalPrimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
