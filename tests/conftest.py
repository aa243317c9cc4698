"""Shared helpers for the test suite."""

import hashlib
import json
import time
from typing import NamedTuple

import pytest

from totalprime import construct, soundness_grid, verify_total_prime


def assert_total_prime(graph, labeling, context=""):
    report = verify_total_prime(graph, labeling)
    assert report.valid, f"{context}: {report.violations[:5]}"
    return report


class GridRecord(NamedTuple):
    """One soundness-grid instance, constructed once and verified."""

    instance: object
    digest: str  # sha256 of [graph JSON, labeling JSON, notes]
    violations: list
    notes: dict


@pytest.fixture(scope="session")
def grid_sweep():
    """Every soundness-grid instance's record, and the seconds the sweep took.

    The grid snapshot and acceptance criterion 1 both read this one pass.
    """
    started = time.perf_counter()
    records = []
    for inst in soundness_grid():
        result = construct(inst.spec, inst.scheme)
        doc = [result.graph.to_json_dict(), result.labeling.to_json_dict(), result.notes]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        report = verify_total_prime(result.graph, result.labeling)
        records.append(GridRecord(inst, digest, report.violations, result.notes))
    return records, time.perf_counter() - started
