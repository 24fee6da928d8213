"""The benchmark's workloads: the processes of one round and how to check them.

A workload is a list of processes run one after another; a round runs them
all once. Each process is a ``pancakes`` CLI call or a library process
(``child.py library``); its ``check`` turns the process's exit code and
standard output into (operations attempted, operations failed, problems).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

Check = Callable[[int, str], tuple[int, int, list[str]]]


@dataclass(frozen=True)
class Proc:
    mode: str  # "cli": arguments of the pancakes CLI; "library": child.py library
    args: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    procs: tuple[Proc, ...]
    prepare: Callable[[], None] = field(default=lambda: None)  # before every round


def _row_check(graph: str, n: int, k: int | None = None) -> Check:
    def check(code: int, stdout: str) -> tuple[int, int, list[str]]:
        if code != 0:
            return 1, 1, []
        return 1, 0, checks.check_table_row(stdout, graph, n, k)

    return check


def table(graph: str, n: int, workers: int) -> Workload:
    """One ``pancakes table`` run, no checkpoint."""
    args = ("table", "--graph", graph, "--n", str(n), "--workers", str(workers))
    return Workload((Proc("cli", args, _row_check(graph, n)),))


def resume(graph: str, n: int, ks: range, path: Path) -> Workload:
    """A fresh ``--checkpoint`` run to layer ks[0], then one process per later
    ``--k`` resuming the same file."""
    procs = tuple(
        Proc(
            "cli",
            ("table", "--graph", graph, "--n", str(n), "--k", str(k), "--checkpoint", str(path)),
            _row_check(graph, n, k),
        )
        for k in ks
    )

    def prepare() -> None:
        for stale in (path, Path(f"{path}.tmp")):
            stale.unlink(missing_ok=True)

    return Workload(procs, prepare)


def random_stack(rng: random.Random, graph: str, n: int, d: int) -> list[int]:
    """A seeded random stack exactly ``d`` flips from sorted.

    It is built by ``d`` random flips from the sorted stack, each of which
    adds one breakpoint, so ``d`` breakpoints bound its distance from below
    and the walk bounds it from above. A BFS-based query costs about the
    same for every stack at one distance, so the work does not depend on
    the seed.
    """
    signed = graph == "burnt"
    while True:
        stack = tuple(range(1, n + 1))
        for gaps in range(d):
            options = [
                i for i in range(1 if signed else 2, n + 1)
                if checks.gap_lower_bound(checks.flip(stack, i, signed), signed) == gaps + 1
            ]
            if not options:
                break
            stack = checks.flip(stack, rng.choice(options), signed)
        else:
            return list(stack)


def _library_check(spec: dict) -> Check:
    expected = len(spec["censuses"]) + len(spec["formulas"]) + 2 * len(spec["stacks"])
    built = {(graph, tuple(stack)): d for graph, stack, d in spec["stacks"]}

    def check(code: int, stdout: str) -> tuple[int, int, list[str]]:
        records = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
        failed = expected - len(records) + sum(1 for r in records if "error" in r)
        problems = [] if code == 0 else [f"library process exited with {code}"]
        answers: dict[tuple, dict] = {}
        for r in records:
            if "error" in r:
                continue
            if r["op"] == "census":
                problems += checks.check_census(r)
            elif r["op"] == "formula":
                problems += checks.check_formula(r)
            else:
                answers.setdefault((r["graph"], tuple(r["stack"])), {}).update(r)
        for (graph, stack), r in answers.items():
            if "distance" in r and "flips" in r:
                problems += checks.check_query(graph, list(stack), r["distance"], r["flips"], built[graph, stack])
        return expected, failed, problems

    return check


def paper_checks(
    seed: int,
    censuses: list[tuple[str, int, int]],
    formulas: list[tuple[str, str, list[int]]],
    queries: list[tuple[str, int, int]],
) -> Workload:
    """One library process: cycle censuses, formula checks and, for each
    (graph, n, d) in ``queries``, distance and sort of a seeded stack d flips
    from sorted."""
    rng = random.Random(seed)
    spec = {
        "censuses": censuses,
        "formulas": formulas,
        "stacks": [[g, random_stack(rng, g, n, d), d] for g, n, d in queries],
    }
    return Workload((Proc("library", (json.dumps(spec),), _library_check(spec)),))


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "table-p10": lambda seed, out: table("plain", 10, workers=1),
    "table-bp8-w2": lambda seed, out: table("burnt", 8, workers=2),
    "resume-bp8": lambda seed, out: resume("burnt", 8, range(1, 9), out / "resume-bp8.ckpt"),
    "paper-checks": lambda seed, out: paper_checks(
        seed,
        censuses=[("plain", 7, L) for L in (6, 7, 8, 9)]
        + [("plain", 8, L) for L in (6, 7, 8)]
        + [("burnt", 5, 8), ("burnt", 5, 9), ("burnt", 6, 8)],
        formulas=[("r4-plain", "plain", list(range(1, 11))), ("r4-burnt", "burnt", list(range(1, 9)))],
        queries=[("plain", 9, d) for d in (5, 7, 8, 9)] + [("burnt", 7, d) for d in (5, 6, 7, 7)],
    ),
}
