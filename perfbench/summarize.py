"""Summarize the result files that ``run.py`` leaves in ``perfbench/out``.

    python3 perfbench/summarize.py

For each workload and end-to-end metric: the number of runs, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median. For
each traced run: its per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(OUT.glob("result-*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((record["workload"], int(record["trace"])), []).append(record)
    for (workload, trace), records in sorted(runs.items()):
        if trace:
            for record in records:
                print(f"\n{workload} traced, seed {record['seed']}")
                for key, metric in record["metrics"].items():
                    print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
            continue
        seeds = sorted(r["seed"] for r in records)
        print(f"\n{workload}: {len(records)} runs, seeds {seeds}, "
              f"failed {sum(r['failed'] for r in records)} of {sum(r['attempted'] for r in records)}")
        for key in records[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            print(f"  {key:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / median:7.2%}  {records[0]['metrics'][key]['unit']}")


if __name__ == "__main__":
    main()
