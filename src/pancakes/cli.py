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
memory budget; ``--memory-limit`` overrides both.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .cycles import (
    InfeasibleSizeError,
    UnsupportedLengthError,
    verify_classification,
)
from .formulas import (
    FitError,
    FormulaStatus,
    UnknownFormulaError,
    Verdict,
    check_gregory_newton_con63,
    check_recurrence_cor62,
    crosscheck,
    fit_newton,
    get_formula,
)
from .graphs import GraphKind, PancakeGraph
from .perms import ParseError, PermError, format_perm, parse_perm
from .reports import (
    census_document,
    crosscheck_document,
    fit_document,
    identity_document,
    render,
    table_document,
)
from .search import (
    LayerProfile,
    MemoryLimitError,
    distance,
    layer_profile,
    resume,
    sort_sequence,
)
from .checkpoint import CheckpointError

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_CONJECTURE = 4


@dataclass(slots=True)
class RunConfig:
    """Everything a subcommand needs besides its own positional arguments."""

    kind: GraphKind | None = None
    ns: tuple[int, ...] = ()
    k: int | None = None
    memory_limit: int | None = None  # None: PANCAKE_MEM_LIMIT or default
    workers: int = 1
    output_format: str = "csv"
    checkpoint_path: str | None = None
    output_path: str | None = None
    node_budget: int | None = None

    out: object = field(default=None, repr=False)  # writable stream

    def write(self, text: str) -> None:
        stream = self.out if self.out is not None else sys.stdout
        stream.write(text)


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
        help="memory budget in bytes (default: $PANCAKE_MEM_LIMIT or 4 GiB)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel BFS workers (default 1)"
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

    dist = sub.add_parser("distance", help="flips needed to sort one stack")
    _add_common(dist)
    dist.add_argument("perm", nargs="+", help="permutation entries or \"[...]\"")

    sort = sub.add_parser("sort", help="optimal flip sequence for one stack")
    _add_common(sort)
    sort.add_argument("perm", nargs="+", help="permutation entries or \"[...]\"")

    cycles = sub.add_parser("cycles", help="census of cycles through the identity")
    _add_common(cycles)
    cycles.add_argument("--n", required=True, type=int, help="stack size")
    cycles.add_argument("--length", required=True, type=int, help="cycle length")
    cycles.add_argument("--node-budget", type=int, help="DFS node estimate cap")
    cycles.add_argument("--format", choices=("text", "json"), default="text")

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

    fit = formulas_sub.add_parser(
        "fit", help="fit an integer polynomial to one layer column of BFS data"
    )
    _add_common(fit)
    fit.add_argument("--k", required=True, type=int, help="layer to fit")
    fit.add_argument("--n", required=True, metavar="LO..HI", help="fitting window")
    fit.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "graph", None) is not None:
        config.kind = GraphKind.parse(args.graph)
    if getattr(args, "n", None) is not None:
        config.ns = parse_n_range(str(args.n))
    config.k = getattr(args, "k", None)
    config.memory_limit = getattr(args, "memory_limit", None)
    config.workers = getattr(args, "workers", 1)
    config.output_format = getattr(args, "format", "csv")
    config.checkpoint_path = getattr(args, "checkpoint", None)
    config.output_path = getattr(args, "output", None)
    config.node_budget = getattr(args, "node_budget", None)
    if config.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {config.workers}")
    return config


def _profile(config: RunConfig, n: int) -> LayerProfile:
    graph = PancakeGraph(config.kind, n)
    if config.checkpoint_path and Path(config.checkpoint_path).exists():
        return resume(
            config.checkpoint_path,
            memory_limit=config.memory_limit,
            workers=config.workers,
            max_layer=config.k,
            expect=graph,
        )
    return layer_profile(
        graph,
        memory_limit=config.memory_limit,
        workers=config.workers,
        checkpoint_path=config.checkpoint_path,
        max_layer=config.k,
    )


def cmd_table(config: RunConfig) -> int:
    if config.checkpoint_path and len(config.ns) > 1:
        raise ValueError("--checkpoint requires a single n, not a range")
    profiles = [_profile(config, n) for n in config.ns]
    if config.output_format == "json":
        config.write(render(table_document(config.kind, profiles)))
        return EXIT_OK
    if config.k is not None:
        width = config.k + 1
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
    config.write("\n".join(lines) + "\n")
    return EXIT_OK


def _parse_cli_perm(config: RunConfig, tokens: list[str]):
    text = " ".join(tokens)
    value = parse_perm(text)
    graph = PancakeGraph(config.kind, value.n)
    graph.check_vertex(value)  # rejects a kind mismatch with a clear message
    return graph, value


def cmd_distance(config: RunConfig, tokens: list[str]) -> int:
    graph, value = _parse_cli_perm(config, tokens)
    d = distance(
        graph, value, memory_limit=config.memory_limit, workers=config.workers
    )
    config.write(f"{d}\n")
    return EXIT_OK


def cmd_sort(config: RunConfig, tokens: list[str]) -> int:
    graph, value = _parse_cli_perm(config, tokens)
    flips = sort_sequence(
        graph, value, memory_limit=config.memory_limit, workers=config.workers
    )
    lines = [format_perm(value)]
    current = value
    for i in flips:
        current = graph.apply(current, i)
        lines.append(f"  flip {i} -> {format_perm(current)}")
    lines.append(f"flips: {' '.join(map(str, flips)) if flips else '(none)'}")
    lines.append(f"distance: {len(flips)}")
    config.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_cycles(config: RunConfig, n: int, length: int) -> int:
    graph = PancakeGraph(config.kind, n)
    kwargs = {}
    if config.node_budget is not None:
        kwargs["node_budget"] = config.node_budget
    report = verify_classification(graph, length, **kwargs)
    if config.output_format == "json":
        config.write(render(census_document(report)))
    else:
        lines = [
            f"cycle census: {graph}, length {length}",
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
        config.write("\n".join(lines) + "\n")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _identity_exit(which: str, verdict: Verdict) -> int:
    if verdict is Verdict.FAILS:
        # the recurrence is a proved corollary; the expansion is a conjecture
        return EXIT_VIOLATION if which == "cor62" else EXIT_CONJECTURE
    return EXIT_OK


def cmd_formulas_check(config: RunConfig, which: str) -> int:
    name = which.strip().lower()
    if name in ("cor62", "con63"):
        if config.k is None:
            raise ValueError(f"--k is required when checking {name}")
        if len(config.ns) != 1:
            raise ValueError(f"{name} checks one n at a time, got a range")
        (n,) = config.ns
        checker = check_recurrence_cor62 if name == "cor62" else check_gregory_newton_con63
        report = checker(config.k, n)
        if config.output_format == "json":
            config.write(render(identity_document(report)))
        else:
            detail = ""
            if report.verdict in (Verdict.HOLDS, Verdict.FAILS):
                detail = f" (lhs={report.lhs}, rhs={report.rhs})"
            elif report.reason:
                detail = f" ({report.reason})"
            config.write(
                f"{name} at k={report.k}, n={report.n}: {report.verdict.value}{detail}\n"
            )
        return _identity_exit(name, report.verdict)

    spec = get_formula(which)
    profiles = [
        layer_profile(
            PancakeGraph(spec.kind, n),
            memory_limit=config.memory_limit,
            workers=config.workers,
            max_layer=spec.k,
        )
        for n in config.ns
    ]
    report = crosscheck(which, profiles)
    if config.output_format == "json":
        config.write(render(crosscheck_document(report)))
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
        config.write("\n".join(lines) + "\n")
    if report.ok:
        return EXIT_OK
    if report.status is FormulaStatus.CONJECTURED:
        return EXIT_CONJECTURE
    return EXIT_VIOLATION


def cmd_formulas_fit(config: RunConfig) -> int:
    if config.k is None or config.k < 0:
        raise ValueError("--k must be a nonnegative layer index")
    points = []
    for n in config.ns:
        profile = layer_profile(
            PancakeGraph(config.kind, n),
            memory_limit=config.memory_limit,
            workers=config.workers,
            max_layer=config.k,
        )
        value = profile.counts[config.k] if config.k < len(profile.counts) else 0
        points.append((n, value))
    fit = fit_newton(points)
    if config.output_format == "json":
        config.write(render(fit_document(config.kind, config.k, points, fit)))
    else:
        config.write(
            f"degree {fit.degree} in the binomial basis at n0={fit.n0}\n"
            f"coefficients: {' '.join(map(str, fit.coefficients))}\n"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        config = _config_from(args)
        out_file = None
        if config.output_path:
            try:
                out_file = open(config.output_path, "w", encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot open output: {exc}", file=sys.stderr)
                return EXIT_IO
            config.out = out_file
        try:
            if args.command == "table":
                return cmd_table(config)
            if args.command == "distance":
                return cmd_distance(config, args.perm)
            if args.command == "sort":
                return cmd_sort(config, args.perm)
            if args.command == "cycles":
                return cmd_cycles(config, args.n, args.length)
            if args.command == "formulas":
                if args.formulas_command == "check":
                    return cmd_formulas_check(config, args.which)
                return cmd_formulas_fit(config)
            raise AssertionError(f"unhandled command {args.command!r}")
        finally:
            if out_file is not None:
                out_file.close()
    except (ParseError, PermError) as exc:
        token = getattr(exc, "token", None)
        where = f" (offending token: {token!r})" if token else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_USAGE
    except FitError as exc:
        print(f"result: {exc}", file=sys.stderr)
        return EXIT_CONJECTURE
    except CheckpointError as exc:
        # Subclasses ValueError, so it must be caught before the usage branch.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        UnknownFormulaError,
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
