#!/usr/bin/env python3
"""Run the benchmark over seeds and workloads and report each metric's spread.

    python3 perfbench/spread.py [--workloads study,wide,long] [--seeds 0-9]

Runs are made one after another, never in parallel, with run_seconds from
BENCHMARK.json.  For each workload and metric it prints the median and the
interquartile range as a share of the median (statistics.quantiles(values,
n=4)) next to the metric's bound.  With one seed it simply prints every
metric of every workload.  Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = p.parse_args()

    metrics = bench["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            print(f"{workload} seed {seed}: exit={proc.returncode} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            line = f"  {m['name']:40s} median={med:.6g} {m['unit']}"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f"  iqr/median={(q3 - q1) / abs(med):.3f}  bound={m.get('bound')}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
