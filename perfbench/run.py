"""Benchmark of the pancakes package, end to end and layer by layer.

    python3 perfbench/run.py --workload table-p10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Runs from the root of a source checkout; the package is imported from
``src``. A run repeats whole rounds of the workload while the next round
is expected to end within ``--seconds`` (at least one round). Set-up
(interpreter start plus ``import pancakes``) is timed a few times before the
first round and after every round, and reported as the median. Every process's output is checked. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. Timings are medians over the rounds of the run. Results,
traces and scratch checkpoints go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import END_TO_END_UNITS, PER_LAYER_UNITS, combine, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Timed interpreter starts before the first round and after every round, so
# that set-up is sampled across the whole run, not in one burst at its start.
SETUP_STARTS = 3
RUN_LIMIT_S = 170.0  # children still running this long after the run began are killed

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], deadline: float | None = None) -> tuple[int, str, float, float, float]:
    """Run one child; return exit code, stdout, wall s, cpu s and peak RSS MB
    (the child's own ``ru_maxrss``, read with ``os.wait4``). The child is
    killed if it is still running at ``deadline`` (a ``perf_counter`` time)."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        limit = RUN_LIMIT_S if deadline is None else max(deadline - start, 1.0)
        watchdog = threading.Timer(limit, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace")[-2000:])
    stdout = out_path.read_text(encoding="utf-8")
    return proc.returncode, stdout, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def measure_setup(deadline: float, warm_up: bool = False) -> list[float]:
    """Wall times of ``SETUP_STARTS`` runs of ``python3 -c 'import pancakes'``,
    after one untimed run if ``warm_up``."""
    argv = [sys.executable, "-c", "import pancakes"]
    times = []
    for attempt in range(SETUP_STARTS + warm_up):
        code, _, wall, _, _ = run_process(argv, deadline)
        if code != 0:
            raise SystemExit(f"cannot import pancakes from {SRC} (exit {code})")
        if attempt >= warm_up:
            times.append(wall)
    return times


def run_round(workload, trace: bool, name: str, deadline: float | None = None) -> dict:
    workload.prepare()
    result = {"attempted": 0, "failed": 0, "problems": [], "wall_s": 0.0, "cpu_s": 0.0,
              "peak_rss_mb": 0.0, "totals": []}
    for index, proc in enumerate(workload.procs):
        trace_path = OUT / f"trace-{name}-{index}.json"
        if trace:
            trace_path.unlink(missing_ok=True)  # a child that dies writes none
            argv = [sys.executable, str(BENCH / "child.py"), "--trace", str(trace_path), proc.mode, *proc.args]
        elif proc.mode == "cli":
            argv = [sys.executable, "-m", "pancakes", *proc.args]
        else:
            argv = [sys.executable, str(BENCH / "child.py"), proc.mode, *proc.args]
        code, stdout, wall, cpu, rss = run_process(argv, deadline)
        attempted, failed, problems = proc.check(code, stdout)
        result["attempted"] += attempted
        result["failed"] += failed
        result["problems"] += problems
        result["wall_s"] += wall
        result["cpu_s"] += cpu
        result["peak_rss_mb"] = max(result["peak_rss_mb"], rss)
        if trace and trace_path.exists():
            with open(trace_path, encoding="utf-8") as fh:
                result["totals"].append(json.load(fh)["totals"])
    if trace:
        result["totals"] = combine(result["totals"])
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[name](seed, OUT)
    setup = [] if trace else measure_setup(deadline, warm_up=True)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, trace, name, deadline))
        if not trace:
            setup += measure_setup(deadline)
        elapsed = time.perf_counter() - start
        if elapsed + rounds[-1]["wall_s"] > seconds:
            break
    workload.prepare()  # leaves no scratch checkpoint behind
    setup_s = statistics.median(setup) if setup else None

    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    if trace:
        per_round = [layer_metrics(r["totals"], r["wall_s"]) for r in rounds]
        units = PER_LAYER_UNITS
    else:
        per_round = [{key: r[key] for key in ("wall_s", "cpu_s", "peak_rss_mb")} for r in rounds]
        units = END_TO_END_UNITS
    metrics = {}
    for key, unit in units.items():
        value = setup_s if key == "setup_s" else statistics.median(r[key] for r in per_round)
        metrics[key] = {"value": value, "unit": unit}
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "rounds": per_round, "setup": setup, **summary}
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pancakes" / "__init__.py").is_file():
        print(f"error: no pancakes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    summaries = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summaries[name] = summary
        for key, metric in summary["metrics"].items():
            print(f"{name}  {key:32s} {metric['value']:.6g} {metric['unit']}")
        print(f"{name}  attempted {summary['attempted']}  failed {summary['failed']}  "
              f"correct {summary['correct']}")
        if len(names) > 1:
            print(f"{name}: {json.dumps(summary)}")
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}.{key}": metric for name, s in summaries.items()
                        for key, metric in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
