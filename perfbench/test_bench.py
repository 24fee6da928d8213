"""Tests of the benchmark itself: every workload's code path at a small size,
the tracer's self times, and each output check failing on corrupted output.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_PAPER_CHECKS = dict(
    censuses=[("plain", 5, 6), ("plain", 5, 7), ("plain", 5, 8), ("plain", 5, 9), ("burnt", 3, 8)],
    formulas=[("r4-plain", "plain", [4, 5, 6]), ("r4-burnt", "burnt", [3, 4])],
    queries=[("plain", 6, 4), ("burnt", 4, 3)],
)


def small_workloads(tmp_path: Path) -> dict[str, workloads.Workload]:
    return {
        "table": workloads.table("plain", 6, workers=1),
        "table-w2": workloads.table("burnt", 4, workers=2),
        "resume": workloads.resume("burnt", 4, range(1, 9), tmp_path / "bp4.ckpt"),
        "paper-checks": workloads.paper_checks(7, **SMALL_PAPER_CHECKS),
    }


@pytest.mark.parametrize("name", ["table", "table-w2", "resume", "paper-checks"])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_round_is_correct(tmp_path, name, trace):
    workload = small_workloads(tmp_path)[name]
    result = run.run_round(workload, trace, f"test-{name}")
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["attempted"] == {"resume": 8, "paper-checks": 11}.get(name, 1)
    assert result["wall_s"] > 0 and result["cpu_s"] > 0 and result["peak_rss_mb"] > 0
    if trace:
        metrics = spans.layer_metrics(result["totals"], result["wall_s"])
        assert set(metrics) == set(spans.PER_LAYER_UNITS)
        assert metrics["cli.processes"] == len(workload.procs)
        assert metrics["kernels.unrank_ranks"] > 0 and metrics["kernels.rank_rate"] > 0


def test_traced_counts_match_the_graph(tmp_path):
    totals = run.run_round(small_workloads(tmp_path)["table-w2"], True, "test-counts")["totals"]
    metrics = spans.layer_metrics(totals, 1.0)
    size = checks.graph_size("burnt", 4)
    # every vertex is expanded once and each of its 4 neighbours ranked once
    assert metrics["search.expanded"] == metrics["kernels.unrank_ranks"] == size
    assert metrics["kernels.rank_ranks"] == 4 * size
    assert metrics["search.bfs_layers"] == checks.diameter("burnt", 4) + 1
    assert metrics["search.fresh_ratio"] == pytest.approx((size - 1) / (4 * size))
    assert metrics["checkpoint.writes"] == 0


def test_traced_resume_counts_checkpoint_io(tmp_path):
    totals = run.run_round(small_workloads(tmp_path)["resume"], True, "test-resume")["totals"]
    metrics = spans.layer_metrics(totals, 1.0)
    # the fresh run writes layer 0 and layer 1; each of the 7 resumes reads once and writes once
    assert metrics["checkpoint.writes"] == 2 + 7
    assert metrics["checkpoint.reads"] == 7
    assert metrics["checkpoint.bytes_read"] > 0 and metrics["checkpoint.crc_s"] > 0


def test_self_time_subtracts_nested_and_parallel_children():
    trace = [
        ["search.layer_profile", 0.0, 10.0, -1, 0],
        ["_kernels.batch_sunrank", 1.0, 4.0, 0, 5],  # worker thread 1
        ["_kernels.batch_unrank", 2.0, 3.0, 1, 5],  # nested in batch_sunrank
        ["_kernels.batch_rank", 3.0, 6.0, 0, 7],  # worker thread 2, overlaps
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.0, 1.0, 3.0])
    totals = spans.layer_totals(trace)
    assert totals["kernels.unrank"] == {"calls": 1, "amount": 5, "total_s": 3.0, "self_s": 3.0}


# --- each check fails on corrupted output ---------------------------------

def _row(graph, n, counts):
    return ",".join(map(str, [n, *counts])) + "\n"


def test_table_row_check():
    good = list(checks.published_row("plain", 6)[:8])
    assert checks.check_table_row(_row("plain", 6, good), "plain", 6) == []
    for index in range(len(good)):
        bad = good.copy()
        bad[index] += 1
        assert checks.check_table_row(_row("plain", 6, bad), "plain", 6)
    assert checks.check_table_row(_row("plain", 6, good[:-1]), "plain", 6)
    assert checks.check_table_row(_row("plain", 6, good + [0]), "plain", 6) == []
    assert checks.check_table_row("garbage", "plain", 6)


def test_full_profile_beyond_published_columns_must_sum_and_end_at_diameter():
    published = list(checks.published_row("burnt", 6))  # R_0..R_11; one stack needs 12 flips
    assert checks.check_table_row(_row("burnt", 6, published + [1]), "burnt", 6) == []
    assert checks.check_table_row(_row("burnt", 6, published + [2]), "burnt", 6)
    assert checks.check_table_row(_row("burnt", 6, published), "burnt", 6)
    assert checks.check_table_row(_row("burnt", 6, published + [0, 1]), "burnt", 6)


def test_segment_row_check():
    prefix = list(checks.published_row("burnt", 8)[:4])
    assert checks.check_table_row(_row("burnt", 8, prefix), "burnt", 8, k=3) == []
    assert checks.check_table_row(_row("burnt", 8, prefix[:-1] + [prefix[-1] - 1]), "burnt", 8, k=3)
    assert checks.check_table_row(_row("burnt", 8, prefix + [2548]), "burnt", 8, k=3)


def test_census_check():
    good = {"graph": "plain", "n": 6, "length": 8, "total": 103, "ok": True, "unmatched": 0,
            "families": {"3": 100, "4": 3}}
    assert checks.check_census(good) == []
    assert checks.check_census({**good, "total": 104, "families": {"3": 101, "4": 3}})
    assert checks.check_census({**good, "families": {"3": 99, "4": 3}})
    assert checks.check_census({**good, "ok": False, "unmatched": 1})
    assert checks.check_census({**good, "length": 7})  # 7(n-3) = 21 seven-cycles


def test_formula_check():
    good = {"name": "r4-plain", "k": 4, "summary": "verified", "rows": [[6, 199, 199], [7, 543, 543]]}
    assert checks.check_formula(good) == []
    assert checks.check_formula({**good, "rows": [[6, 199, 199], [7, 543, 544]]})
    assert checks.check_formula({**good, "rows": [[6, 200, 200]]})
    assert checks.check_formula({**good, "summary": "mismatch at n=7"})
    assert checks.check_formula({**good, "rows": []})


def test_query_check():
    stack, flips = [3, 1, 2], [3, 2]
    assert checks.check_query("plain", stack, 2, flips) == []
    assert checks.check_query("plain", stack, 2, flips[:-1])  # one flip dropped
    assert checks.check_query("plain", stack, 3, flips)  # distance off by one
    assert checks.check_query("plain", stack, 2, [2, 3])  # does not sort
    assert checks.check_query("plain", stack, 2, [1, 3])  # r_1 is not a plain flip
    signed = [-1]
    assert checks.check_query("burnt", signed, 1, [1]) == []
    assert checks.check_query("burnt", signed, 3, [1, 1, 1])  # sorts, longer than the diameter
    assert checks.check_query("burnt", [-1, 2], 3, [1, 2, 2]) == []  # within the diameter
    assert checks.check_query("burnt", [-1, 2], 3, [1, 2, 2], built_with=1)


def test_random_stack_is_exactly_d_flips_away():
    rng = workloads.random.Random(3)
    for graph, n, d in [("plain", 9, 9), ("burnt", 7, 7), ("plain", 6, 3)]:
        stack = workloads.random_stack(rng, graph, n, d)
        assert checks.gap_lower_bound(tuple(stack), graph == "burnt") == d
    first = workloads.paper_checks(5, **SMALL_PAPER_CHECKS).procs[0].args
    assert first == workloads.paper_checks(5, **SMALL_PAPER_CHECKS).procs[0].args


def test_library_check_catches_corruption_and_failures():
    workload = workloads.paper_checks(11, **SMALL_PAPER_CHECKS)
    proc = workload.procs[0]
    code, stdout, *_ = run.run_process(
        [sys.executable, str(BENCH / "child.py"), proc.mode, *proc.args]
    )
    assert proc.check(code, stdout) == (11, 0, [])
    lines = stdout.splitlines()

    def corrupt(op, edit):
        out = []
        for line in lines:
            record = json.loads(line)
            if record["op"] == op:
                edit(record)
                op = None  # corrupt the first record of that kind only
            out.append(json.dumps(record))
        return "\n".join(out)

    assert proc.check(0, corrupt("sort", lambda r: r["flips"].pop()))[2]
    assert proc.check(0, corrupt("distance", lambda r: r.update(distance=r["distance"] + 1)))[2]
    assert proc.check(0, corrupt("census", lambda r: r.update(total=r["total"] + 1)))[2]
    assert proc.check(0, corrupt("formula", lambda r: r["rows"][0].__setitem__(2, -1)))[2]
    attempted, failed, _ = proc.check(0, "\n".join(lines[:-1]))
    assert (attempted, failed) == (11, 1)
    errored = corrupt("census", lambda r: r.update(error="boom"))
    assert proc.check(0, errored)[:2] == (11, 1)


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    code, _, *_ = run.run_process(
        [sys.executable, str(bench / "run.py"), "--workload", "table-p10", "--seconds", "1"]
    )
    assert code != 0
