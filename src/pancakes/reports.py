"""Structured-text (JSON) documents for every report the tools emit.

Each document is a plain dict ready for ``json.dumps`` with a top-level
``format_version`` so downstream consumers can detect schema changes. The
functions here only shape data; they never compute anything.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # annotations only: importing this module loads no engine
    from .cycles import CensusReport
    from .formulas import CrosscheckReport, IdentityReport, NewtonPoly
    from .graphs import GraphKind
    from .search import LayerProfile

__all__ = [
    "FORMAT_VERSION",
    "table_document",
    "census_document",
    "crosscheck_document",
    "identity_document",
    "fit_document",
    "render",
]

FORMAT_VERSION = 1


def _base(report: str) -> dict:
    return {"format_version": FORMAT_VERSION, "report": report}


def table_document(kind: GraphKind, profiles: Sequence[LayerProfile]) -> dict:
    """Layer-count rows, one per n, with completeness flags."""
    doc = _base("layer-table")
    doc["graph"] = str(kind)
    doc["rows"] = [
        {"n": p.n, "counts": list(p.counts), "complete": p.complete}
        for p in profiles
    ]
    return doc


def census_document(report: CensusReport) -> dict:
    """Cycle census with per-family tallies and any unmatched forms."""
    doc = _base("cycle-census")
    doc["graph"] = str(report.kind)
    doc["n"] = report.n
    doc["length"] = report.length
    doc["total"] = report.total
    doc["families"] = [
        {
            "id": family_id,
            "count": tally.count,
            "instances": [dict(params) for params in tally.instances],
        }
        for family_id, tally in sorted(report.per_family.items())
    ]
    doc["unmatched"] = [list(form) for form in report.unmatched]
    doc["ok"] = report.ok
    return doc


def crosscheck_document(report: CrosscheckReport) -> dict:
    """Formula-vs-BFS comparison rows plus the status-aware summary."""
    doc = _base("crosscheck")
    doc["formula"] = report.name
    doc["status"] = report.status.value
    doc["rows"] = [
        {
            "n": row.n,
            "formula_value": row.formula_value,
            "profile_value": row.profile_value,
            "equal": row.equal,
            "used_exception": row.used_exception,
        }
        for row in report.rows
    ]
    doc["skipped"] = list(report.skipped)
    doc["ok"] = report.ok
    doc["summary"] = report.summary
    return doc


def identity_document(report: IdentityReport) -> dict:
    """Single identity check at one (k, n)."""
    doc = _base("identity-check")
    doc["identity"] = report.identity
    doc["k"] = report.k
    doc["n"] = report.n
    doc["verdict"] = report.verdict.value
    doc["lhs"] = report.lhs
    doc["rhs"] = report.rhs
    if report.reason:
        doc["reason"] = report.reason
    return doc


def fit_document(
    kind: GraphKind, k: int, points: Iterable[tuple[int, int]], fit: NewtonPoly
) -> dict:
    """Forward-difference fit of one layer column."""
    doc = _base("newton-fit")
    doc["graph"] = str(kind)
    doc["k"] = k
    doc["points"] = [[n, value] for n, value in points]
    doc["n0"] = fit.n0
    doc["degree"] = fit.degree
    doc["coefficients"] = list(fit.coefficients)
    return doc


def render(document: Mapping) -> str:
    """Serialize a document to its on-the-wire form (trailing newline)."""
    return json.dumps(document, indent=2) + "\n"
