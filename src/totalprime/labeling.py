"""Labelings and the three verification modes.

A *total prime labeling* assigns ``1..n+m`` bijectively to the vertices and
edges of a graph so that adjacent vertex labels are coprime and, at every
vertex of degree at least two, the labels on its incident edges have
collective gcd 1.  A *prime labeling* is a bijection of ``1..n`` onto the
vertices with coprime endpoints on every edge; a *coprime labeling* relaxes
the range to an injection into ``1..k`` for some ``k >= n``.

Verifiers report every violation, not just the first, which keeps
construction bugs debuggable.  Vertices of degree 0 or 1 carry no incident
edge condition.  The three verifiers share one range check, which accepts a
bijection with one sort of the labels and lists the range and duplicate
violations only when that sort fails; ``verify_total_prime`` reads each
edge label with one lookup.
"""

from __future__ import annotations

from math import gcd
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .errors import BoundTooSmallError, InvalidParameterError, SizeMismatchError
from .graphs import Edge, Graph

NON_BIJECTIVE = "non_bijective"
ADJACENT_NOT_COPRIME = "adjacent_not_coprime"
INCIDENT_SHARED_FACTOR = "incident_shared_factor"


class Violation(NamedTuple):
    """One broken constraint.

    ``kind`` is one of the module constants.  ``vertices`` are the involved
    vertex indices (the endpoint pair for coprimality, the hub vertex for a
    shared incident factor).  ``label`` is the offending label for
    bijectivity issues, ``gcd`` the shared factor otherwise.
    """

    kind: str
    vertices: tuple[int, ...] = ()
    label: Optional[int] = None
    gcd: Optional[int] = None
    note: str = ""

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.vertices:
            out["vertices"] = list(self.vertices)
        if self.label is not None:
            out["label"] = self.label
        if self.gcd is not None:
            out["gcd"] = self.gcd
        if self.note:
            out["note"] = self.note
        return out


class Labeling(NamedTuple):
    """Vertex labels by index plus an edge -> label mapping.

    Vertex-only labelings (prime / coprime) leave ``edge_labels`` empty; the
    default is a read-only empty mapping, shared by every such labeling.
    """

    vertex_labels: list[int]
    edge_labels: Mapping[Edge, int] = MappingProxyType({})

    def to_json_dict(self) -> dict:
        return {
            "vertex_labels": list(self.vertex_labels),
            "edge_labels": [
                [list(e), lab] for e, lab in sorted(self.edge_labels.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Labeling":
        """Read ``to_json_dict`` output; a malformed document raises
        InvalidParameterError naming the bad field."""
        if not isinstance(data, dict) or not isinstance(data.get("vertex_labels"), list):
            raise InvalidParameterError("labeling JSON needs a 'vertex_labels' list")
        vertex_labels, entries = data["vertex_labels"], data.get("edge_labels", [])
        if not isinstance(entries, list):
            raise InvalidParameterError(f"labeling field 'edge_labels' is not a list: {entries!r}")
        for i, lab in enumerate(vertex_labels):
            if type(lab) is not int:
                raise InvalidParameterError(
                    f"labeling field 'vertex_labels[{i}]' is not an integer: {lab!r}"
                )
        edge_labels = {}
        for i, entry in enumerate(entries):
            try:
                (u, v), lab = entry
            except (TypeError, ValueError):
                u = v = lab = None
            if type(u) is not int or type(v) is not int or type(lab) is not int:
                raise InvalidParameterError(
                    f"labeling field 'edge_labels[{i}]' is not [[u, v], label]: {entry!r}"
                )
            edge = (u, v) if u < v else (v, u)
            if edge in edge_labels:
                raise InvalidParameterError(
                    f"labeling field 'edge_labels[{i}]' repeats edge {edge}"
                )
            edge_labels[edge] = lab
        return cls(list(vertex_labels), edge_labels)


class VerificationReport(NamedTuple):
    valid: bool
    violations: list[Violation]

    @classmethod
    def from_violations(cls, violations: list[Violation]) -> "VerificationReport":
        return cls(not violations, list(violations))

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def _check_shape(g: Graph, labeling: Labeling, with_edges: bool) -> list:
    """Raise SizeMismatchError unless ``labeling`` labels the vertices of
    ``g`` and, ``with_edges``, exactly its edges (as many keys as edges, every
    edge among them); return the edge labels in canonical edge order, read
    with one lookup per edge."""
    if len(labeling.vertex_labels) != g.n:
        raise SizeMismatchError(
            f"{len(labeling.vertex_labels)} vertex labels for order {g.n}"
        )
    el = labeling.edge_labels
    if not with_edges:
        if el:
            raise SizeMismatchError("vertex-only check, but edge labels present")
        return []
    missing = object()
    labels = [el.get(e, missing) for e in g.edges] if len(el) == len(g.edges) else [missing]
    if missing in labels:
        raise SizeMismatchError("edge label keys do not match the edge set")
    return labels


def _range_violations(g: Graph, labels: list, limit: int) -> list[Violation]:
    """Injectivity into 1..limit of ``labels``, the vertex labels of ``g``
    and then, if any, its edge labels.  A bijection passes with one sort;
    any other list is walked to name each label out of range or repeated.
    A walk that finds neither has proved a bijection when there are
    ``limit`` labels, so no label can go unused."""
    if sorted(labels) == list(range(1, limit + 1)):
        return []
    out = []
    seen: dict[int, object] = {}
    for lab, subject in zip(labels, [*range(g.n), *g.edges]):
        if not 1 <= lab <= limit:
            out.append(
                Violation(NON_BIJECTIVE, label=lab, note=f"out of range at {subject}")
            )
        elif lab in seen:
            out.append(
                Violation(
                    NON_BIJECTIVE,
                    label=lab,
                    note=f"duplicate at {subject} and {seen[lab]}",
                )
            )
        else:
            seen[lab] = subject
    return out


def _coprime_violations(g: Graph, labeling: Labeling) -> list[Violation]:
    out = []
    vl = labeling.vertex_labels
    for u, v in g.edges:
        d = gcd(vl[u], vl[v])
        if d != 1:
            out.append(Violation(ADJACENT_NOT_COPRIME, (u, v), gcd=d))
    return out


def verify_total_prime(g: Graph, labeling: Labeling) -> VerificationReport:
    """Check bijectivity onto 1..n+m, edge coprimality, and incident gcds."""
    edge_labels = _check_shape(g, labeling, with_edges=True)
    violations = _range_violations(g, [*labeling.vertex_labels, *edge_labels], g.n + g.m)
    violations += _coprime_violations(g, labeling)
    incident = [0] * g.n  # gcd of the edge labels at each vertex
    for (u, v), lab in zip(g.edges, edge_labels):
        incident[u] = gcd(incident[u], lab)
        incident[v] = gcd(incident[v], lab)
    if incident.count(1) < g.n:
        # degrees counted off the edges: a pendant's gcd is its one edge
        # label, so helms and bistars get here, and need no neighbour lists
        degree = [0] * g.n
        for u, v in g.edges:
            degree[u] += 1
            degree[v] += 1
        violations += [
            Violation(INCIDENT_SHARED_FACTOR, (v,), gcd=d)
            for v, d in enumerate(incident)
            if d != 1 and degree[v] >= 2
        ]
    return VerificationReport.from_violations(violations)


def verify_prime(g: Graph, labeling: Labeling) -> VerificationReport:
    """Check a vertex bijection onto 1..n with coprime adjacent labels."""
    return verify_coprime(g, labeling, g.n)


def verify_coprime(g: Graph, labeling: Labeling, bound: int) -> VerificationReport:
    """Check an injection into 1..bound with coprime adjacent labels."""
    if bound < g.n:
        raise BoundTooSmallError(f"bound {bound} below vertex count {g.n}")
    _check_shape(g, labeling, with_edges=False)
    violations = _range_violations(g, labeling.vertex_labels, bound)
    violations += _coprime_violations(g, labeling)
    return VerificationReport.from_violations(violations)
