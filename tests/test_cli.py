import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import totalprime
from totalprime import numtheory
from totalprime.cli import main
from totalprime.constructors import construct
from totalprime.graphs import FamilySpec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGenerate:
    def test_family_to_stdout(self, capsys):
        code, out = run(capsys, "generate", "--family", "helm", "-n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 9 and len(data["edges"]) == 12

    def test_union(self, capsys):
        code, out = run(capsys, "generate", "--family", "union", "--cycles", "3,4")
        assert code == 0
        assert json.loads(out)["n"] == 7

    def test_tree(self, capsys):
        code, out = run(capsys, "generate", "--family", "tree", "--edges", "[[0,1],[1,2]]")
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_bad_parameters_exit_2(self, capsys):
        assert run(capsys, "generate", "--family", "helm", "-n", "1")[0] == 2


class TestLabelVerifyExport:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "helm4.json"
        code, _ = run(capsys, "label", "--family", "helm", "-n", "4", "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        labels = data["labeling"]["vertex_labels"] + [
            lab for _, lab in data["labeling"]["edge_labels"]
        ]
        assert sorted(labels) == list(range(1, 22))

        code, out = run(capsys, "verify", "--in", str(path))
        assert code == 0
        assert json.loads(out)["valid"] is True

        code, out = run(capsys, "export", "--in", str(path))
        assert code == 0
        assert out.startswith("graph G {") and '[label="' in out

        # json re-export matches the original byte-for-byte content
        out_path = tmp_path / "reread.json"
        code, _ = run(
            capsys, "export", "--in", str(path), "--format", "json", "--out", str(out_path)
        )
        reread = json.loads(out_path.read_text())
        assert reread["labeling"] == data["labeling"]
        assert reread["graph"] == data["graph"]

        # and the re-exported file still verifies
        assert run(capsys, "verify", "--in", str(out_path))[0] == 0

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        path = tmp_path / "helm4.json"
        run(capsys, "label", "--family", "helm", "-n", "4", "--out", str(path))
        _, out = run(capsys, "label", "--family", "helm", "-n", "4")
        assert path.read_text().endswith("\n")
        assert path.read_text() == out

    def test_generate_echoes_existing_graph(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run(capsys, "generate", "--family", "prism", "-n", "5", "--out", str(path))
        code, out = run(capsys, "generate", "--in", str(path))
        assert code == 0
        assert json.loads(out) == json.loads(path.read_text())

    def test_verify_flags_corruption(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        code, _ = run(capsys, "label", "--family", "helm", "-n", "3", "--out", str(path))
        data = json.loads(path.read_text())
        data["labeling"]["vertex_labels"][0] = 2  # duplicate label
        path.write_text(json.dumps(data))
        code, out = run(capsys, "verify", "--in", str(path))
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_label_supported_families(self, tmp_path, capsys):
        cases = [
            ("cycle-chord", ["-n", "9", "--chord", "5"]),
            ("snake", ["-k", "5", "-n", "3"]),
            ("book", ["-k", "4", "-n", "3"]),
            ("complete", ["-n", "6"]),
            ("windmill", ["-n", "4", "-m", "3"]),
            ("prism", ["-n", "12"]),
            ("stacked-prism", ["-m", "4", "-n", "4"]),
            ("bistar", ["-m", "4", "-n", "5"]),
        ]
        for family, flags in cases:
            path = tmp_path / f"{family}.json"
            code, _ = run(capsys, "label", "--family", family, *flags, "--out", str(path))
            assert code == 0, family
            assert run(capsys, "verify", "--in", str(path))[0] == 0, family

    @pytest.mark.parametrize(
        "flags, chord",
        [
            ([], 3),
            (["--chord", "5"], 5),
            (["-k", "5"], 5),
            (["-k", "5", "--chord", "5"], 5),
        ],
    )
    def test_cycle_chord_offset(self, capsys, flags, chord):
        code, out = run(capsys, "label", "--family", "cycle-chord", "-n", "9", *flags)
        assert code == 0
        data = json.loads(out)
        assert data["notes"]["chord"] == chord
        assert [0, chord - 1] in data["graph"]["edges"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["-k", "5", "--chord", "4"], "--chord 4 and -k 5 disagree"),
            (["--chord", "0"], "got k=0"),
            (["-k", "9"], "got k=9"),
        ],
    )
    def test_cycle_chord_bad_offset_exit_2(self, capsys, flags, message):
        assert main(["label", "--family", "cycle-chord", "-n", "9", *flags]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("m", [2, 40])
    def test_friendship_is_constructed(self, tmp_path, capsys, m):
        path = tmp_path / "f.json"
        assert run(capsys, "label", "--family", "friendship", "-m", str(m),
                   "--out", str(path))[0] == 0
        assert json.loads(path.read_text())["notes"] == {"case": "k3"}
        code, out = run(capsys, "verify", "--in", str(path))
        assert code == 0 and json.loads(out)["valid"] is True

    def test_friendship_single_triangle_exit_2(self, capsys):
        assert main(["label", "--family", "friendship", "-m", "1"]) == 2
        assert "C3" in capsys.readouterr().err

    def test_unsupported_label_family(self, capsys):
        assert run(capsys, "label", "--family", "wheel", "-n", "5")[0] == 2

    def test_missing_file_exit_3(self, capsys):
        assert run(capsys, "verify", "--in", "/nonexistent/x.json")[0] == 3


class TestMalformedInput:
    """A malformed document exits 2 naming the bad field; an unreadable one 3."""

    @pytest.fixture
    def doc(self, tmp_path, capsys):
        path = tmp_path / "helm3.json"
        run(capsys, "label", "--family", "helm", "-n", "3", "--out", str(path))
        return path

    @pytest.mark.parametrize(
        "command, corrupt, field",
        [
            ("verify", lambda d: d["labeling"]["vertex_labels"].__setitem__(0, "x"),
             "vertex_labels[0]"),
            ("verify", lambda d: d["graph"]["edges"].__setitem__(0, [0]), "edge [0]"),
            ("generate", lambda d: d["graph"]["edges"].__setitem__(0, [0]), "edge [0]"),
            ("verify", lambda d: d["labeling"].pop("vertex_labels"), "vertex_labels"),
            ("verify", lambda d: d.pop("graph"), "graph JSON"),
            ("verify", lambda d: d.pop("labeling"), "has no 'labeling' field"),
            ("verify", lambda d: d["labeling"]["edge_labels"].insert(0, [[1, 0], 99]),
             "edge_labels[1]"),
        ],
    )
    def test_malformed_document_exit_2(self, doc, capsys, command, corrupt, field):
        data = json.loads(doc.read_text())
        corrupt(data)
        doc.write_text(json.dumps(data))
        assert main([command, "--in", str(doc)]) == 2
        assert field in capsys.readouterr().err

    def test_verify_bare_graph_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c5.json"
        run(capsys, "generate", "--family", "cycle", "-n", "5", "--out", str(path))
        assert main(["verify", "--in", str(path)]) == 2
        assert "has no 'graph' or 'labeling' field" in capsys.readouterr().err

    def test_deeply_nested_document_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["verify", "--in", str(path)]) == 2
        assert "nests deeper than JSON decoding allows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--family", "tree", "--edges", "[[0,1],[1,2,3]]"], "edge [1, 2, 3]"),
            (["--family", "tree", "--edges", "[[0,1]"], "--edges"),
            (["--family", "union", "--cycles", "3,a"], "--cycles"),
        ],
    )
    def test_malformed_flag_exit_2(self, capsys, flags, field):
        assert main(["generate", *flags]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bounds", "--pi-limit", "-5"], "prime-counting check starts at x = 2"),
            (["search", "--prime", "--family", "cycle", "-n", "4", "--time-budget", "nan"],
             "time budget must be positive"),
            (["mcn", "--family", "complete", "-n", "6", "--node-budget", "0"],
             "node budget must be positive"),
        ],
    )
    def test_out_of_range_number_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: d["labeling"]["edge_labels"].pop(), "edge label keys do not match"),
            (lambda d: d["labeling"]["vertex_labels"].pop(), "6 vertex labels for order 7"),
        ],
    )
    def test_export_mismatched_labeling_exit_2(self, doc, capsys, corrupt, message, fmt):
        data = json.loads(doc.read_text())
        corrupt(data)
        doc.write_text(json.dumps(data))
        assert main(["export", "--in", str(doc), "--format", fmt]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--family", "prism", "-n", "5", "--chord", "4"], "does not take --chord"),
            (["--family", "prism", "-n", "5", "--chord", "4", "-k", "7", "-m", "9"],
             "does not take -m, -k, --chord"),
            (["--family", "helm", "-n", "4", "--cycles", "3,4"], "does not take --cycles"),
            (["--family", "cycle", "-n", "4", "--edges", "[[0,1]]"], "does not take --edges"),
            (["--family", "union", "--cycles", "3,4", "-n", "5"], "does not take -n"),
            (["--family", "tree", "--edges", "[[0,1]]", "-k", "2"], "does not take -k"),
            (["--family", "friendship", "-m", "2", "-n", "3"], "does not take -n"),
        ],
    )
    @pytest.mark.parametrize("command", ["generate", "label"])
    def test_unread_family_flag_exit_2(self, capsys, command, flags, named):
        assert main([command, *flags]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--node-budget", "5"], ["--time-budget", "1"], ["--symmetry-breaking"], ["--seed", "0"]],
        ids=lambda flags: flags[0],
    )
    def test_label_takes_no_search_flags(self, capsys, flags):
        # label only constructs, so argparse rejects every search flag
        with pytest.raises(SystemExit) as exc:
            main(["label", "--family", "prism", "-n", "5", *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--family", "prism", "-n", "9"], "drop --family, -n"),
            (["-m", "2", "-k", "3", "--chord", "3"], "drop -m, -k, --chord"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["generate"], ["search", "--total-prime"], ["mcn"]],
        ids=["generate", "search", "mcn"],
    )
    def test_family_flags_with_in_exit_2(self, doc, capsys, command, flags, named):
        assert main([*command, "--in", str(doc), *flags]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, document, named",
        [
            (["generate", "--family", "union"], None, "--cycles"),
            (["generate", "--family", "tree"], None, "--edges"),
            (["generate", "--family", "tree", "--edges", '{"a": 1}'], None, "--edges"),
            (["search", "--prime"], None, "--family or --in"),
            (["search", "--prime", "--in"], [], "does not hold a JSON object"),
            (["generate", "--in"], {"n": 3, "edges": {"a": 1}}, "field 'edges'"),
            (["verify", "--in"], {"graph": [], "labeling": {"vertex_labels": []}}, "graph JSON"),
            (["verify", "--in"],
             {"graph": {"n": 2, "edges": [[0, 1]]},
              "labeling": {"vertex_labels": [1, 2], "edge_labels": 5}},
             "field 'edge_labels'"),
            (["verify", "--in"],
             {"graph": {"n": 2, "edges": [[0, 1]]},
              "labeling": {"vertex_labels": [1, 2], "edge_labels": [[0, 3]]}},
             "field 'edge_labels[0]'"),
            (["search", "--prime", "--in"], {"n": 3, "edges": [[0, 1]], "roles": []},
             "field 'roles'"),
        ],
    )
    def test_outside_input_exit_2(self, tmp_path, capsys, argv, document, named):
        # one stderr line naming the field or flag, and no traceback
        if document is not None:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(document))
            argv = [*argv, str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err and "Traceback" not in err

    def test_undecodable_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff{")
        assert main(["verify", "--in", str(path)]) == 3


# children import the package the tests import, wherever it lives
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(totalprime.__file__).parent.parent), os.environ.get("PYTHONPATH")])
    ),
)


def child(*args):
    """Run a fresh interpreter on ``args``."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=CHILD_ENV, timeout=120
    )


class TestChildProcess:
    def test_label_verify_round_trip(self, tmp_path):
        path = tmp_path / "prism30.json"
        proc = child("-m", "totalprime.cli", "label", "--family", "prism", "-n", "30",
                     "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        text = path.read_text()
        assert len(text.splitlines()) == 1
        result = construct(FamilySpec("prism", n=30))
        expected = {
            "graph": result.graph.to_json_dict(),
            "labeling": result.labeling.to_json_dict(),
            "notes": result.notes,
        }
        assert json.loads(text) == json.loads(json.dumps(expected))

        proc = child("-m", "totalprime.cli", "verify", "--in", str(path))
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1
        assert json.loads(proc.stdout) == {"valid": True, "violations": []}

    def test_import_loads_no_dataclasses(self):
        proc = child(
            "-c",
            "import sys; before = set(sys.modules); import totalprime.cli; "
            "print('dataclasses' in set(sys.modules) - before)",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_stdlib_only(self):
        # the library stays stdlib-only: every top-level module the CLI
        # import brings in is the package itself or part of the stdlib
        proc = child(
            "-c",
            "import sys; before = set(sys.modules); import totalprime.cli; "
            "tops = {name.partition('.')[0] for name in set(sys.modules) - before}; "
            "print(sorted(tops - set(sys.stdlib_module_names) - {'totalprime'}))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestSearchCommand:
    def test_odd_cycle_reports_exhausted(self, capsys):
        code, out = run(capsys, "search", "--total-prime", "--family", "cycle", "-n", "5")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "exhausted_no_solution"
        assert set(data) >= {"status", "nodes", "ms"}

    def test_even_cycle_found(self, capsys):
        code, out = run(capsys, "search", "--total-prime", "--family", "cycle", "-n", "6")
        data = json.loads(out)
        assert data["status"] == "found" and "labeling" in data

    def test_prime_mode(self, capsys):
        code, out = run(capsys, "search", "--prime", "--family", "complete", "-n", "4")
        assert json.loads(out)["status"] == "exhausted_no_solution"

    def test_search_from_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run(capsys, "generate", "--family", "cycle", "-n", "4", "--out", str(path))
        code, out = run(capsys, "search", "--total-prime", "--in", str(path))
        assert json.loads(out)["status"] == "found"

    def test_budget_flag(self, capsys):
        code, out = run(
            capsys, "search", "--total-prime", "--family", "snake", "-k", "3",
            "-n", "3", "--node-budget", "5",
        )
        assert json.loads(out)["status"] == "budget_exceeded"

    def test_deep_search_is_found(self, capsys):
        # a 1,300-cycle's total search is 2,600 labels deep
        code, out = run(capsys, "search", "--total-prime", "--family", "cycle", "-n", "1300")
        assert code == 0
        assert json.loads(out)["status"] == "found"


class TestMcnCommand:
    def test_triangular_stack(self, capsys):
        code, out = run(capsys, "mcn", "--family", "stacked-prism", "-m", "3", "-n", "2")
        assert code == 0
        assert json.loads(out)["value"] == 7

    def test_not_found_within_kmax(self, capsys):
        code = run(capsys, "mcn", "--family", "complete", "-n", "4", "--k-max", "4")[0]
        assert code == 1

    def test_budget_spent_at_the_end_of_a_bound(self, capsys):
        # bounds 6..10 of K6 take 3,249 nodes; bound 11 spends one more
        code, out = run(
            capsys, "mcn", "--family", "complete", "-n", "6", "--k-max", "11",
            "--node-budget", "3249",
        )
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "budget_exceeded" and data["nodes"] == 3250


class TestSymmetryBreaking:
    # pinning the smallest label to vertex 0 is sound only on vertex-transitive
    # graphs; on the path-power P4^2 it would prove a false "no labeling"
    @pytest.fixture
    def doc(self, tmp_path, capsys):
        path = tmp_path / "c6.json"
        run(capsys, "generate", "--family", "cycle", "-n", "6", "--out", str(path))
        return path

    @pytest.mark.parametrize("command", [["search", "--prime"], ["mcn"]], ids=["search", "mcn"])
    @pytest.mark.parametrize("source", ["family", "in"])
    def test_refused_off_the_symmetric_families(self, doc, capsys, command, source):
        graph = (
            ["--family", "path-power", "-n", "4", "-k", "2"]
            if source == "family" else ["--in", str(doc)]
        )
        assert main([*command, *graph, "--symmetry-breaking"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --symmetry-breaking ")

    @pytest.mark.parametrize(
        "graph",
        [
            ["--family", "cycle", "-n", "6"],
            ["--family", "complete", "-n", "4"],
            ["--family", "prism", "-n", "4"],
            ["--family", "cycle-power", "-n", "7", "-k", "2"],
        ],
        ids=lambda graph: graph[1],
    )
    @pytest.mark.parametrize(
        "command, field",
        [(["search", "--prime"], "status"), (["mcn"], "value")],
        ids=["search", "mcn"],
    )
    def test_accepted_on_the_symmetric_families(self, capsys, graph, command, field):
        code, out = run(capsys, *command, *graph)
        pinned_code, pinned_out = run(capsys, *command, *graph, "--symmetry-breaking")
        assert pinned_code == code == 0
        assert json.loads(pinned_out)[field] == json.loads(out)[field]


class TestBoundsCommand:
    def test_small_sweep(self, capsys):
        code, out = run(capsys, "bounds", "--n-max", "50", "--pi-limit", "5000")
        assert code == 0
        data = json.loads(out)
        assert data["capacity_ok"] and data["prime_count_exceeds_x_over_ln_x"]

    @pytest.mark.parametrize("value", ["abc", "100"])
    def test_sieve_ignores_the_environment(self, capsys, monkeypatch, value):
        # the prime table is sized by its callers; TPL_SIEVE_LIMIT is not read
        monkeypatch.setenv("TPL_SIEVE_LIMIT", value)
        numtheory.reset_shared_table()
        try:
            code, out = run(capsys, "bounds", "--n-max", "10", "--pi-limit", "100")
            assert code == 0 and json.loads(out)["capacity_ok"]
            code, out = run(capsys, "label", "--family", "complete", "-n", "40")
            assert code == 0 and json.loads(out)["graph"]["n"] == 40
        finally:
            numtheory.reset_shared_table()


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_search_needs_mode(self):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--family", "cycle", "-n", "4"])
        assert exc.value.code == 2
