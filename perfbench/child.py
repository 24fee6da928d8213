"""One workload process: the pancakes CLI, or the paper's checks as library calls.

Usage (run with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py [--trace FILE] cli table --graph plain --n 10
    python3 perfbench/child.py [--trace FILE] library SPEC_JSON

``library`` runs the operations listed in the spec and prints one JSON line
per operation for the benchmark to check. With ``--trace`` the public
functions of the pancakes modules are wrapped in spans (see ``spans.py``)
and the per-layer totals are written to FILE when the process ends.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def _attempt(op: dict, run) -> None:
    try:
        _emit({**op, **run()})
    except Exception as exc:  # one failed operation must not stop the others
        traceback.print_exc()
        _emit({**op, "error": repr(exc)})


def run_library(spec: dict) -> int:
    """Censuses, R_4 formula checks and stack queries, called module by module
    so that traced runs see every call."""
    from pancakes import cycles, formulas, search
    from pancakes.graphs import GraphKind, PancakeGraph
    from pancakes.perms import Perm, SignedPerm

    def graph_of(kind: str, n: int) -> PancakeGraph:
        return PancakeGraph(GraphKind.parse(kind), n)

    for kind, n, length in spec["censuses"]:
        def census(kind=kind, n=n, length=length):
            report = cycles.verify_classification(graph_of(kind, n), length)
            return {
                "total": report.total,
                "ok": report.ok,
                "unmatched": len(report.unmatched),
                "families": {str(f): t.count for f, t in report.per_family.items()},
            }

        _attempt({"op": "census", "graph": kind, "n": n, "length": length}, census)

    for name, kind, ns in spec["formulas"]:
        def crosscheck(name=name, kind=kind, ns=ns):
            k = formulas.get_formula(name).k
            profiles = [search.layer_profile(graph_of(kind, n), max_layer=k) for n in ns]
            report = formulas.crosscheck(name, profiles)
            return {
                "k": k,
                "summary": report.summary,
                "rows": [[r.n, r.formula_value, r.profile_value] for r in report.rows],
            }

        _attempt({"op": "formula", "name": name}, crosscheck)

    for kind, entries, _ in spec["stacks"]:
        stack = (SignedPerm if kind == "burnt" else Perm)(tuple(entries))
        graph = graph_of(kind, len(entries))
        op = {"graph": kind, "stack": entries}
        _attempt({"op": "distance", **op}, lambda: {"distance": search.distance(graph, stack)})
        _attempt({"op": "sort", **op}, lambda: {"flips": list(search.sort_sequence(graph, stack))})
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import pancakes.cli

    import_s = time.perf_counter() - start
    tracer = None
    if trace_path is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if argv[0] == "cli":
            return pancakes.cli.main(argv[1:])
        if argv[0] == "library":
            return run_library(json.loads(argv[1]))
        raise SystemExit(f"unknown mode {argv[0]!r}")
    finally:
        if tracer is not None:
            tracer.write(trace_path, import_s=import_s, processes=1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
