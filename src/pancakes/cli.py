"""Command-line interface: tables, distances, sorts, censuses, formula checks.

Exit codes distinguish engineering failures from mathematical surprises:

* 0 — success; every checked assertion held
* 1 — I/O failure (unreadable checkpoint, unwritable output)
* 2 — usage error: bad arguments, unparseable permutation, unknown formula,
      or a computation whose memory/size estimate exceeds its limit
* 3 — a machine-checked established result failed (an unmatched cycle form
      or a proved formula disagreeing with search output)
* 4 — a conjecture disagreed with the data (a result, not a bug)

The ``PANCAKE_MEM_LIMIT`` environment variable overrides the default 4 GiB
memory budget; ``--memory-limit`` overrides both, except for a cycle census,
which takes the variable or the default. A CLI process runs
OpenBLAS with one thread unless ``OPENBLAS_NUM_THREADS`` is already set,
since no command calls BLAS. A SIGTERM ends a forked layer as Ctrl-C does:
its children are killed and reaped before the process ends. At exit the
process freezes its objects (``gc.freeze``), so the interpreter's shutdown
collections skip the heap that the OS is about to reclaim; nothing changes
while a command runs.
"""

from __future__ import annotations

import atexit
import gc
import os

# before NumPy loads: pancakes calls no BLAS, and OpenBLAS's pool of one
# thread per core busy-waits for a first job that never comes
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# the shutdown collections would walk every imported object (~22k with
# NumPy) just before the OS reclaims them all
atexit.register(gc.freeze)

import argparse
import signal
import sys
import threading
from pathlib import Path
from typing import TextIO

from .cycles import (
    DEFAULT_NODE_BUDGET,
    InfeasibleSizeError,
    UnsupportedLengthError,
    verify_classification,
)
from .graphs import GraphKind, PancakeGraph
from .perms import ParseError, PermError, format_perm, parse_perm
from .search import (
    LayerProfile,
    MemoryLimitError,
    distance,
    layer_profile,
    resume,
    sort_sequence,
)
from .checkpoint import CheckpointError

__all__ = ["main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_CONJECTURE = 4


def parse_n_range(text: str) -> tuple[int, ...]:
    """``"4"`` -> (4,); ``"1..8"`` -> (1, ..., 8). Errors name the token."""
    token = text.strip()
    try:
        if ".." in token:
            lo_text, hi_text = token.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(token)
    except ValueError:
        raise ValueError(f"malformed n range {token!r} (expected N or LO..HI)") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid n range {token!r} (need 1 <= LO <= HI)")
    return tuple(range(lo, hi + 1))


def _add_common(parser: argparse.ArgumentParser, *, graph: bool = True) -> None:
    if graph:
        parser.add_argument(
            "--graph", required=True, choices=("plain", "burnt"), help="graph family"
        )
    parser.add_argument(
        "--memory-limit",
        type=int,
        metavar="BYTES",
        help="memory budget in bytes of the layer tables of table, formulas "
        "check and formulas fit (default: $PANCAKE_MEM_LIMIT or 4 GiB); a "
        "cycles census always takes $PANCAKE_MEM_LIMIT or 4 GiB, and distance "
        "and sort hold no tables",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for layer tables: a layer with at least 2^16 "
        "ranks of work per worker is split over forked children (default 1)",
    )
    parser.add_argument(
        "--output", metavar="PATH", help="write results here instead of stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pancakes",
        description="Distance layers, cycle censuses, and counting formulas "
        "for pancake and burnt pancake graphs.",
        epilog="Signed permutations use quoted bracket syntax (e.g. \"[-2 1]\") "
        "because bare negative numbers collide with flag parsing; unsigned "
        "permutations may be given as bare integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="layer counts, one CSV row per n")
    _add_common(table)
    table.add_argument("--n", required=True, metavar="N|LO..HI", help="stack sizes")
    table.add_argument(
        "--k", type=int, metavar="K", help="stop after layer K (row width K+1)"
    )
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="checkpoint file (single n only); resumed if it already exists",
    )
    table.set_defaults(run=cmd_table)

    dist = sub.add_parser("distance", help="flips needed to sort one stack")
    _add_common(dist)
    dist.add_argument("perm", nargs="+", help="permutation entries or \"[...]\"")
    dist.set_defaults(run=cmd_distance)

    sort = sub.add_parser("sort", help="optimal flip sequence for one stack")
    _add_common(sort)
    sort.add_argument("perm", nargs="+", help="permutation entries or \"[...]\"")
    sort.set_defaults(run=cmd_sort)

    cycles = sub.add_parser("cycles", help="census of cycles through the identity")
    _add_common(cycles)
    cycles.add_argument("--n", required=True, type=int, help="stack size")
    cycles.add_argument("--length", required=True, type=int, help="cycle length")
    cycles.add_argument(
        "--node-budget",
        type=int,
        help="cap on the paths the census stores plus the path pairs it joins "
        f"(default {DEFAULT_NODE_BUDGET:,})",
    )
    cycles.add_argument("--format", choices=("text", "json"), default="text")
    cycles.set_defaults(run=cmd_cycles)

    formulas = sub.add_parser("formulas", help="closed forms and identities")
    formulas_sub = formulas.add_subparsers(dest="formulas_command", required=True)

    check = formulas_sub.add_parser(
        "check", help="compare a formula with search output, or check an identity"
    )
    check.add_argument(
        "--which", required=True, help="formula name, 'cor62', or 'con63'"
    )
    check.add_argument("--n", required=True, metavar="N|LO..HI")
    check.add_argument("--k", type=int, help="flip count (identities only)")
    _add_common(check, graph=False)
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(run=cmd_formulas_check)

    fit = formulas_sub.add_parser(
        "fit", help="fit an integer polynomial to one layer column of BFS data"
    )
    _add_common(fit)
    fit.add_argument("--k", required=True, type=int, help="layer to fit")
    fit.add_argument("--n", required=True, metavar="LO..HI", help="fitting window")
    fit.add_argument("--format", choices=("text", "json"), default="text")
    fit.set_defaults(run=cmd_formulas_fit)

    return parser


def _profile(args: argparse.Namespace, n: int) -> LayerProfile:
    graph = PancakeGraph(args.kind, n)
    if args.checkpoint and Path(args.checkpoint).exists():
        return resume(
            args.checkpoint,
            memory_limit=args.memory_limit,
            workers=args.workers,
            max_layer=args.k,
            expect=graph,
        )
    return layer_profile(
        graph,
        memory_limit=args.memory_limit,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        max_layer=args.k,
    )


def cmd_table(args: argparse.Namespace, out: TextIO) -> int:
    if args.checkpoint and len(args.ns) > 1:
        raise ValueError("--checkpoint requires a single n, not a range")
    profiles = [_profile(args, n) for n in args.ns]
    if args.format == "json":
        # only a JSON document loads the renderer, here and in every command
        from .reports import render, table_document

        out.write(render(table_document(args.kind, profiles)))
        return EXIT_OK
    if args.k is not None:
        width = args.k + 1
    else:
        width = max(len(p.counts) for p in profiles)
    lines = []
    for p in profiles:
        counts = list(p.counts)
        if len(counts) < width:
            # only a completed profile may be padded: those zeros are facts
            assert p.complete
            counts.extend([0] * (width - len(counts)))
        lines.append(",".join(str(c) for c in [p.n, *counts]))
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def _parse_cli_perm(args: argparse.Namespace):
    value = parse_perm(" ".join(args.perm))
    graph = PancakeGraph(args.kind, value.n)
    graph.check_vertex(value)  # rejects a kind mismatch with a clear message
    return graph, value


def cmd_distance(args: argparse.Namespace, out: TextIO) -> int:
    graph, value = _parse_cli_perm(args)
    d = distance(graph, value, memory_limit=args.memory_limit, workers=args.workers)
    out.write(f"{d}\n")
    return EXIT_OK


def cmd_sort(args: argparse.Namespace, out: TextIO) -> int:
    graph, value = _parse_cli_perm(args)
    flips = sort_sequence(
        graph, value, memory_limit=args.memory_limit, workers=args.workers
    )
    lines = [format_perm(value)]
    current = value
    for i in flips:
        current = graph.apply(current, i)
        lines.append(f"  flip {i} -> {format_perm(current)}")
    lines.append(f"flips: {' '.join(map(str, flips)) if flips else '(none)'}")
    lines.append(f"distance: {len(flips)}")
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_cycles(args: argparse.Namespace, out: TextIO) -> int:
    graph = PancakeGraph(args.kind, args.n)
    report = verify_classification(graph, args.length, node_budget=args.node_budget)
    if args.format == "json":
        from .reports import census_document, render

        out.write(render(census_document(report)))
    else:
        lines = [
            f"cycle census: {graph}, length {args.length}",
            f"total cycles through the identity: {report.total}",
        ]
        for family_id, tally in sorted(report.per_family.items()):
            shown = ", ".join(
                "(" + ", ".join(f"{name}={v}" for name, v in params) + ")"
                for params in tally.instances
            )
            lines.append(f"  family {family_id}: {tally.count}  {shown}")
        if report.unmatched:
            lines.append(f"unmatched forms: {len(report.unmatched)}")
            for form in report.unmatched:
                lines.append(f"  {form}")
        else:
            lines.append("unmatched forms: none")
        out.write("\n".join(lines) + "\n")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_formulas_check(args: argparse.Namespace, out: TextIO) -> int:
    # only the formulas commands import the formula registry: it adds about
    # 13 ms (9 ms from a bytecode cache) to a start-up that spends about
    # 60 ms importing pancakes.search, NumPy included (python -X importtime,
    # median of 9, 2 vCPUs), and a table needs none of it; they call
    # through the module, so a check replaced there is the one that runs
    from . import formulas

    name = args.which.strip().lower()
    if name in ("cor62", "con63"):
        if args.k is None:
            raise ValueError(f"--k is required when checking {name}")
        if len(args.ns) != 1:
            raise ValueError(f"{name} checks one n at a time, got a range")
        (n,) = args.ns
        checker = (
            formulas.check_recurrence_cor62
            if name == "cor62"
            else formulas.check_gregory_newton_con63
        )
        report = checker(args.k, n)
        if args.format == "json":
            from .reports import identity_document, render

            out.write(render(identity_document(report)))
        else:
            detail = ""
            if report.verdict in (formulas.Verdict.HOLDS, formulas.Verdict.FAILS):
                detail = f" (lhs={report.lhs}, rhs={report.rhs})"
            elif report.reason:
                detail = f" ({report.reason})"
            out.write(
                f"{name} at k={report.k}, n={report.n}: {report.verdict.value}{detail}\n"
            )
        if report.verdict is formulas.Verdict.FAILS:
            # the recurrence is a proved corollary; the expansion is a conjecture
            return EXIT_VIOLATION if name == "cor62" else EXIT_CONJECTURE
        return EXIT_OK

    spec = formulas.get_formula(args.which)
    profiles = [
        layer_profile(
            PancakeGraph(spec.kind, n),
            memory_limit=args.memory_limit,
            workers=args.workers,
            max_layer=spec.k,
        )
        for n in args.ns
    ]
    report = formulas.crosscheck(args.which, profiles)
    if args.format == "json":
        from .reports import crosscheck_document, render

        out.write(render(crosscheck_document(report)))
    else:
        lines = [f"{report.name} ({report.status.value}) vs search output"]
        for row in report.rows:
            flag = "  [exception]" if row.used_exception else ""
            mark = "==" if row.equal else "!="
            lines.append(
                f"  n={row.n}: formula {row.formula_value} {mark} "
                f"profile {row.profile_value}{flag}"
            )
        if report.skipped:
            skipped = ", ".join(map(str, report.skipped))
            lines.append(f"  outside validity, skipped: n={skipped}")
        lines.append(f"result: {report.summary}")
        out.write("\n".join(lines) + "\n")
    if report.ok:
        return EXIT_OK
    if report.status is formulas.FormulaStatus.CONJECTURED:
        return EXIT_CONJECTURE
    return EXIT_VIOLATION


def cmd_formulas_fit(args: argparse.Namespace, out: TextIO) -> int:
    from . import formulas

    points = []
    for n in args.ns:
        profile = layer_profile(
            PancakeGraph(args.kind, n),
            memory_limit=args.memory_limit,
            workers=args.workers,
            max_layer=args.k,
        )
        value = profile.counts[args.k] if args.k < len(profile.counts) else 0
        points.append((n, value))
    try:
        fit = formulas.fit_newton(points)
    except formulas.FitError as exc:
        print(f"result: {exc}", file=sys.stderr)
        return EXIT_CONJECTURE
    if args.format == "json":
        from .reports import fit_document, render

        out.write(render(fit_document(args.kind, args.k, points, fit)))
    else:
        out.write(
            f"degree {fit.degree} in the binomial basis at n0={fit.n0}\n"
            f"coefficients: {' '.join(map(str, fit.coefficients))}\n"
        )
    return EXIT_OK


class _Terminated(KeyboardInterrupt):
    """Raised by the CLI's SIGTERM handler: a forked layer ends on it as on
    Ctrl-C, killing and reaping its children."""


def _terminate(signum: int, frame: object) -> None:
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    # only a main thread may set a handler, and a SIGTERM ignored stays so
    previous = signal.getsignal(signal.SIGTERM)
    install = previous not in (signal.SIG_IGN, None) and (
        threading.current_thread() is threading.main_thread()
    )
    if install:
        signal.signal(signal.SIGTERM, _terminate)
    try:
        return _run(argv)
    except _Terminated:
        # the layer's children are gone: end as the SIGTERM would have
        signal.signal(signal.SIGTERM, previous)
        signal.raise_signal(signal.SIGTERM)
        return 128 + signal.SIGTERM
    finally:
        if install:
            signal.signal(signal.SIGTERM, previous)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        # shared checks, run before --output is opened; --graph and --n are
        # parsed once into args.kind and args.ns
        if "graph" in args:
            args.kind = GraphKind.parse(args.graph)
        if "n" in args:
            args.ns = parse_n_range(str(args.n))
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        if getattr(args, "k", None) is not None and args.k < 0:
            raise ValueError("--k must be a nonnegative layer index")
        if not args.output:
            return args.run(args, sys.stdout)
        try:
            out = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot open output: {exc}", file=sys.stderr)
            return EXIT_IO
        with out:
            return args.run(args, out)
    except (ParseError, PermError) as exc:
        token = getattr(exc, "token", None)
        where = f" (offending token: {token!r})" if token else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as exc:
        # Subclasses ValueError, so it must be caught before the usage branch.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        UnsupportedLengthError,
        MemoryLimitError,
        InfeasibleSizeError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
