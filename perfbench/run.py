#!/usr/bin/env python3
"""bncritic benchmark: drive the CLI in-process on one workload and report.

    python3 perfbench/run.py --workload {study,wide,long} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One run sets the workload up, then runs operations back to back (a
closed loop with one client) until the next one would end after S seconds,
and checks every operation's output tree.  With --trace 0 the workload is set
up again after each operation, and setup_s is the median of all set-ups.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each operation
twice with the same seed, untraced and then traced, byte-compares the two
output trees, and reports the per-layer metrics of the traced runs.  Metric
names and units are those of BENCHMARK.json.

Lines starting with '#' are for people; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import typing
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_COVERAGE = 0.9  # below it, the traced spans no longer describe the operation


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("study", "wide", "long"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _set_up(workload: str, seed: int, inputs: Path) -> float:
    """One set-up, timed: import bncritic afresh, then generate and write the
    workload's input files into `inputs`.

    numpy is imported once beforehand, so its import is not part of set-up."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("bncritic", "workloads", "checks")]:
        del sys.modules[name]
    # typing's caches hold the dropped modules' classes (bncritic.corpus builds
    # a Union of its transforms), and the modules live in reference cycles:
    # clear the caches and collect, or every set-up adds to the peak RSS.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    start = time.perf_counter()
    import bncritic.cli
    import bncritic.corpus  # noqa: F401  (the CLI's import cost includes the corpus)
    import workloads

    workloads.WORKLOADS[workload].setup(seed, inputs)
    return time.perf_counter() - start


def _declared_units(trace: int) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _machine() -> str:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas}")


@dataclass
class Op:
    """One CLI invocation: its output tree, wall time and failure, if any."""

    out_dir: Path
    seconds: float
    error: str | None


def run_op(argv, out_dir: Path, tracer=None) -> Op:
    from bncritic import cli

    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
    except SystemExit as e:
        code = e.code
    except Exception:  # an operation that raises is a failed operation
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    if code != 0 and error is None:
        error = f"exit code {code!r}: {sink.getvalue().strip()[-2000:]}"
    return Op(out_dir, seconds, error)


def _loop(seconds: float, step) -> None:
    """Call step(i) until the next call would end after `seconds` (at least once)."""
    start = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def _cells(tree: Path) -> int:
    return sum(len(json.loads(p.read_text())["cells"]) for p in tree.rglob("report.json"))


def run(args, work: Path) -> tuple[list[Op], dict, list[str]]:
    """Set up, run the timed loop, check the outputs.

    Returns the operations, the metrics and the run-level problems (a check
    of the checks that failed)."""
    inputs = work / "inputs"
    setup_times = [_set_up(args.workload, args.seed, inputs)]

    import bncritic
    import tracer as tracing  # imports bncritic only when install() is called
    from workloads import WORKLOADS

    if Path(bncritic.__file__).resolve().parent != (SRC / "bncritic").resolve():
        raise SystemExit(f"error: bncritic imported from {bncritic.__file__}, not {SRC}")
    argv = WORKLOADS[args.workload].argv

    ops: list[Op] = []
    layer_runs: list[dict] = []
    pairs: list[tuple[Op, Op]] = []  # (untraced, traced) runs of one seed

    def plain_step(i):
        ops.append(run_op(argv(args.seed + i, inputs, work / f"op{i}"), work / f"op{i}"))

    def setup_step(i):
        # Set-ups are spread over the run, one after each operation, so that
        # setup_s samples the host's speed as often and as widely as op_p50_s.
        plain_step(i)
        setup_times.append(_set_up(args.workload, args.seed, inputs))

    def traced_step(i):
        plain_step(2 * i)
        out = work / f"op{2 * i + 1}"
        tr = tracing.Tracer()
        tracing.install(tr)
        try:
            ops.append(run_op(argv(args.seed + 2 * i, inputs, out), out, tracer=tr))
        finally:
            tr.uninstall()
        plain, traced = ops[-2:]
        if plain.error is None and traced.error is None:
            pairs.append((plain, traced))
            metrics = tracing.layer_metrics(tr)
            metrics["trace.overhead_frac"] = traced.seconds / plain.seconds - 1.0
            layer_runs.append(metrics)

    _loop(args.seconds, traced_step if args.trace else setup_step)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    # Checks run after the timed loop so that they do not raise the peak RSS.
    # They are imported after the last set-up, so that they use the bncritic
    # modules it imported.  A check that raises counts as a failed check, not
    # as a benchmark crash.
    import checks
    from workloads import WORKLOADS

    problems = []
    for plain, traced in pairs:
        diff = checks.compare_trees(plain.out_dir, traced.out_dir)
        if diff:
            traced.error = "traced output differs from untraced: " + "; ".join(diff[:5])
    wl = WORKLOADS[args.workload]
    exp = wl.expected(inputs)
    reference = checks.Reference()
    for op in ops:
        if op.error is None:
            try:
                op.error = "; ".join(checks.check_tree(op.out_dir, exp, reference)[:5]) or None
            except Exception:
                op.error = "checking raised: " + traceback.format_exc()
    if args.workload == "wide":
        try:
            found = checks.loo_check(exp.reports["."], exp.data, reference, max(exp.sizes))
        except Exception:
            found = [traceback.format_exc()]
        if found:
            problems.append("reference scores failed the LOO check: " + "; ".join(found[:5]))
            for op in ops:
                op.error = op.error or "reference scores failed the LOO check"
    passing = [op for op in ops if op.error is None]
    if passing:
        try:
            missed = checks.self_test(passing[0].out_dir, exp, reference, work / "selftest")
        except Exception:
            missed = ["self-test raised: " + traceback.format_exc()]
        if missed:
            problems.append("self-test: the checks missed " + ", ".join(missed))

    if args.trace:
        metrics = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]} \
            if layer_runs else {}
        if metrics.get("trace.coverage", MIN_COVERAGE) < MIN_COVERAGE:
            problems.append(f"trace.coverage {metrics['trace.coverage']:.3f} is below "
                            f"{MIN_COVERAGE}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(op.seconds for op in ops),
            "cells_per_s": sum(_cells(op.out_dir) for op in passing)
            / sum(op.seconds for op in ops),
            "peak_rss_mb": peak_rss_mb,
        }
    return ops, metrics, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "bncritic" / "__init__.py").is_file():
        raise SystemExit(f"error: no bncritic sources under {SRC}")
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import numpy  # noqa: F401  (a dependency; its import is not timed as set-up)

    units = _declared_units(args.trace)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops, metrics, problems = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = sum(op.error is not None for op in ops)
    for op in ops:
        if op.error:
            problems.append(f"operation {op.out_dir.name} failed: {op.error}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {_machine()}")
    print("# op seconds: " + " ".join(f"{op.seconds:.3f}" for op in ops))
    print(f"# ops={len(ops)} failed_ops_frac={failed / len(ops):.4g}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"# PROBLEM: no value for {', '.join(missing)}")
    for name, unit in units.items():
        if name in metrics:
            print(f"# {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not problems and not missing,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
