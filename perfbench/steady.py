"""Steadiness check: run every workload over several seeds, interleaved.

Usage::

    python3 perfbench/steady.py --runs 10 [--out FILE]

It runs the workloads listed in ``BENCHMARK.json``, untraced, at its
``run_seconds``, with seeds 1 to ``--runs``.  Runs are ordered
seed-major and round-robin over the workloads, with the starting
workload rotating from one seed to the next, so slow drift of the
machine spreads over every workload and position instead of landing on
one of them.  For each workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to a third of the metric's bound in
``BENCHMARK.json``, and the spread of the unscaled figures (before the
speed scaling of ``speed.py``).  ``--out`` writes the same summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}{done.stdout[-2000:]}"
        )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # "name   value unit   (unscaled value)" lines: the figures before
    # the speed scaling, kept to show what the scaling removes
    result["unscaled"] = {
        line.split()[0]: float(line.rsplit(" ", 1)[1].rstrip(")"))
        for line in lines
        if line.endswith(")") and "(unscaled " in line
    }
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {metric["name"]: metric.get("bound") for metric in config["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    unscaled: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    for index in range(args.runs):
        seed = index + 1
        shift = index % len(names)
        for workload in names[shift:] + names[:shift]:
            result = run_once(workload, seed, config["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
            for metric, entry in result["metrics"].items():
                values[workload].setdefault(metric, []).append(entry["value"])
            for metric, value in result["unscaled"].items():
                unscaled[workload].setdefault(metric, []).append(value)
            print(f"done {workload} seed {seed}", file=sys.stderr, flush=True)

    summary = {
        workload: {metric: summarize(series) for metric, series in metrics.items()}
        for workload, metrics in values.items()
    }
    for workload, metrics in unscaled.items():
        for metric, series in metrics.items():
            summary[workload][metric]["unscaled"] = summarize(series)
    for workload, metrics in summary.items():
        print(workload)
        for metric, stats in metrics.items():
            bound = bounds.get(metric)
            mark = ""
            if bound is not None:
                over = " OVER" if stats["spread"] > bound / 3 else ""
                mark = f" bound/3 {bound / 3:.3f}{over}"
            if "unscaled" in stats:
                mark += f"  (unscaled spread {stats['unscaled']['spread']:.3f})"
            print(
                f"  {metric:34s} median {stats['median']:12.6g}  q1 {stats['q1']:12.6g}  "
                f"q3 {stats['q3']:12.6g}  spread {stats['spread']:.3f}{mark}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
