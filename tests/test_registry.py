"""The family registry: ``construct``, the soundness grid and the gallery."""

import hashlib
import runpy
from pathlib import Path

import pytest

from totalprime import FamilySpec, construct, soundness_grid
from totalprime.errors import InvalidParameterError, UnsupportedCaseError

ROOT = Path(__file__).resolve().parents[1]

# sha256 of the sorted, concatenated per-instance sha256 digests of
# [graph JSON, labeling JSON, notes], taken in conftest.grid_sweep;
# constructor output is byte-identical while this holds
GRID_DIGEST = "eb425f871e32b93214c3516e2377b7b3e7219d88224a0e8648c0adcc9aea3723"


def test_grid_snapshot(grid_sweep):
    records, _ = grid_sweep
    digests = [record.digest for record in records]
    assert len(digests) == 22_200
    assert hashlib.sha256("".join(sorted(digests)).encode()).hexdigest() == GRID_DIGEST


def test_benchmark_grid_matches_registry():
    gen = runpy.run_path(str(ROOT / "bench" / "gen.py"))
    bench_grid = [
        (FamilySpec(item.family, **dict(item.params)), dict(item.kwargs).get("scheme"))
        for items in gen["grid_items"]().values()
        for item in items
    ]
    assert [(inst.spec, inst.scheme) for inst in soundness_grid()] == bench_grid


@pytest.mark.parametrize(
    "family",
    ["helm", "cycle_chord", "snake", "book", "complete", "windmill", "friendship", "prism",
     "bistar"],
)
def test_construct_names_a_missing_parameter(family):
    with pytest.raises(InvalidParameterError, match=f"{family} needs [kmn] >= "):
        construct(FamilySpec(family))


@pytest.mark.parametrize(
    "spec, error, message",
    [
        (FamilySpec("snake", k=4, n=1), InvalidParameterError, "snake needs n >= 2, got 1"),
        (FamilySpec("complete", n=3), InvalidParameterError, "complete needs n >= 4"),
        (FamilySpec("stacked_prism", m=3, n=2), UnsupportedCaseError, "m = 4 only"),
        (FamilySpec("wheel", n=5), UnsupportedCaseError, "no direct labeling"),
    ],
)
def test_construct_rejects(spec, error, message):
    with pytest.raises(error, match=message):
        construct(spec)


def test_scheme_only_for_windmills():
    assert construct(FamilySpec("windmill", n=4, m=2), "pair").notes == {"case": "pair"}
    with pytest.raises(InvalidParameterError):
        construct(FamilySpec("helm", n=4), "pair")


def test_render_gallery_script(tmp_path, capsys):
    main = runpy.run_path(str(ROOT / "scripts" / "render_gallery.py"))["main"]
    assert main(["--out-dir", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.dot"))) == 9
