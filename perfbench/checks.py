"""Output checks for one operation's report tree, and a self-test of them.

The checks hold for any correct implementation whatever its random stream:
they compare no band values with stored digests.  A report tree passes when

* every expected file is present (report.json, summary.txt, one plot CSV per
  index and level, plus the workload's extra files);
* report.json holds exactly kinds x sizes x (observables + 1) cells;
* every observed value and band edge is finite, and lower <= upper;
* each cell's flag agrees with its observed value and band;
* each cell's observed value equals measures(score_dataset(net, prefix(data,
  n), kind)) to 1e-12 relative (absolute below magnitude 1);
* the plot CSVs repeat the report's values.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import bncritic as bn
from bncritic import infer, score
from bncritic.errors import BnCriticError

from workloads import KINDS, Expected

REL_TOL = 1e-12
LOO_TOL = 1e-9
LOO_ROWS = 20


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class Reference:
    """Score matrices recomputed from the inputs, cached by data digest.

    score_dataset scores each row on its own, so the rows of one matrix over
    prefix(data, max n) are the rows of score_dataset(net, prefix(data, n), kind)
    for every smaller n; one matrix per index serves every sample size.
    """

    def __init__(self):
        self._cache: dict = {}

    def scores(self, net: bn.Network, csv_text: str, max_n: int) -> dict:
        key = (bn.network_id(net), hashlib.sha256(csv_text.encode()).hexdigest(), max_n)
        if key not in self._cache:
            data = bn.prefix(bn.load_dataset(csv_text, net), max_n)
            self._cache[key] = {kind: bn.score_dataset(net, data, kind) for kind in KINDS}
        return self._cache[key]

    def observed(self, net: bn.Network, csv_text: str, sizes) -> dict:
        values = {}
        for kind, full in self.scores(net, csv_text, max(sizes)).items():
            for n in sizes:
                sub = bn.ScoreMatrix(kind, full.values[:n], full.nodes)
                for m in bn.measures(sub):
                    values[(kind.value, n, m.level)] = m.value
        return values


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_report(rdir: Path, net: bn.Network, exp: Expected, ref: dict) -> list[str]:
    problems = []
    nodes = [v.name for v in net.observables]
    levels = nodes + ["global"]
    for name in ("report.json", "summary.txt"):
        if not (rdir / name).is_file():
            problems.append(f"{rdir}: missing {name}")
    if not (rdir / "report.json").is_file():
        return problems
    try:
        cells = json.loads((rdir / "report.json").read_text())["cells"]
    except (ValueError, KeyError, TypeError) as e:
        return problems + [f"{rdir}/report.json unreadable: {e}"]

    want = {(k.value, n, lvl) for k in KINDS for n in exp.sizes for lvl in levels}
    seen: dict = {}
    for c in cells:
        try:
            key = (c["kind"], c["n"], c["level"])
            obs, lo, hi, flag = c["observed"], c["lower"], c["upper"], c["flag"]
        except (KeyError, TypeError):
            problems.append(f"{rdir}: malformed cell {c!r}")
            continue
        if key in seen:
            problems.append(f"{rdir}: duplicate cell {key}")
        seen[key] = (obs, lo, hi)
        if key not in want:
            problems.append(f"{rdir}: unexpected cell {key}")
            continue
        if not all(_finite(x) for x in (obs, lo, hi)):
            problems.append(f"{rdir}: non-finite value in cell {key}")
            continue
        if lo > hi:
            problems.append(f"{rdir}: band lower {lo!r} > upper {hi!r} in cell {key}")
        if c.get("replicates") != exp.replicates:
            problems.append(f"{rdir}: cell {key} has {c.get('replicates')!r} replicates")
        inside = lo <= obs <= hi
        if inside != (flag == "not_significant"):
            problems.append(f"{rdir}: flag {flag!r} disagrees with band in cell {key}")
        if not _close(obs, ref[key], REL_TOL):
            problems.append(f"{rdir}: observed {obs!r} != reference {ref[key]!r} in cell {key}")
    if len(cells) != len(want) or set(seen) != want:
        problems.append(f"{rdir}: {len(cells)} cells, expected {len(want)} "
                        f"(kinds x sizes x (observables + 1))")

    for kind in KINDS:
        for level in levels:
            path = rdir / "plots" / f"{kind.value}_{level}.csv"
            if not path.is_file():
                problems.append(f"{path}: missing plot file")
                continue
            problems += _check_plot(path, level, kind, exp.sizes, seen)
    return problems


def _check_plot(path: Path, level: str, kind, sizes, seen: dict) -> list[str]:
    """The plot CSV has a row per sample size repeating report.json's values."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    try:
        rows = {int(r["n"]): tuple(float(r[c]) for c in ("observed", "lower", "upper"))
                for r in csv.DictReader(io.StringIO("\n".join(lines)))}
    except (KeyError, TypeError, ValueError) as e:
        return [f"{path}: unreadable plot CSV: {e!r}"]
    problems = []
    for n in sizes:
        cell, row = seen.get((kind.value, n, level)), rows.get(n)
        if cell is None or row is None:
            problems.append(f"{path}: no row for n={n}")
        elif not all(_close(g, w, REL_TOL) for g, w in zip(row, cell)):
            problems.append(f"{path}: n={n} row {row} disagrees with report.json {cell}")
    return problems


def check_tree(tree: Path, exp: Expected, reference: Reference) -> list[str]:
    """Problems found in one operation's output tree; [] means it passed."""
    problems = [f"{tree}: missing {f}" for f in exp.extra_files if not (tree / f).is_file()]
    data_path = exp.data if exp.data is not None else tree / "observed.csv"
    if not data_path.is_file():
        return problems + [f"{data_path}: missing observed data"]
    csv_text = data_path.read_text()
    for rel, net in exp.reports.items():
        try:
            ref = reference.observed(net, csv_text, exp.sizes)
        except (BnCriticError, ValueError) as e:
            problems.append(f"{data_path}: cannot score observed data: {e}")
            continue
        problems += _check_report(tree / rel, net, exp, ref)
    return problems


def compare_trees(a: Path, b: Path) -> list[str]:
    """Byte-compare two output trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = [f"only in one tree: {p}" for p in sorted(files_a ^ files_b)]
    problems += [f"bytes differ: {p}" for p in sorted(files_a & files_b)
                 if (a / p).read_bytes() != (b / p).read_bytes()]
    return problems


def loo_check(net: bn.Network, data_path: Path, reference: Reference, max_n: int,
              rows: int = LOO_ROWS) -> list[str]:
    """The reference scores against the scalar score kernels applied to
    variable-elimination LOO predictives, on the first `rows` rows, to LOO_TOL."""
    text = data_path.read_text()
    data = bn.prefix(bn.load_dataset(text, net), rows)
    nodes = [v.name for v in net.observables]
    baselines = [infer.posterior(net, {}, v).probabilities for v in nodes]
    tables = {kind: m.values[:rows] for kind, m in reference.scores(net, text, max_n).items()}
    problems = []
    for i, row in enumerate(data.rows):
        for k, pred in enumerate(infer.loo_predictives(net, row)):
            s = int(row[k])
            scalar = {
                bn.ScoreKind.WEAVER_SURPRISE: score.weaver_surprise(pred, s),
                bn.ScoreKind.GOOD_LOG: score.good_log_score(pred, s, baselines[k]),
                bn.ScoreKind.RANKED_PROBABILITY: score.ranked_probability_score(pred, s),
            }
            for kind, want in scalar.items():
                got = float(tables[kind][i, k])
                if not _close(got, want, LOO_TOL):
                    problems.append(f"row {i} node {nodes[k]} {kind.value}: "
                                    f"score_dataset {got!r} != scalar kernel {want!r}")
    return problems


# ---------------------------------------------------------------------------
# self-test: a corrupted copy of a passing tree must fail the checks


def _first_report(tree: Path) -> Path:
    return min(tree.rglob("report.json"))


def _edit_report(tree: Path, edit) -> None:
    path = _first_report(tree)
    doc = json.loads(path.read_text())
    edit(doc["cells"])
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _shift_observed(tree: Path) -> None:
    def edit(cells):
        cells[0]["observed"] += 1e-6 * max(1.0, abs(cells[0]["observed"]))
    _edit_report(tree, edit)


def _swap_band(tree: Path) -> None:
    def edit(cells):
        c = next(c for c in cells if c["lower"] < c["upper"])
        c["lower"], c["upper"] = c["upper"], c["lower"]
    _edit_report(tree, edit)


def _drop_cell(tree: Path) -> None:
    _edit_report(tree, lambda cells: cells.pop())


def _remove_plot(tree: Path) -> None:
    min(_first_report(tree).parent.glob("plots/*.csv")).unlink()


# corruption -> (how to apply it, text of the problem the checks must report)
CORRUPTIONS = {
    "shifted observed": (_shift_observed, "!= reference"),
    "swapped band": (_swap_band, "> upper"),
    "dropped cell": (_drop_cell, "cells, expected"),
    "missing plot file": (_remove_plot, "missing plot file"),
}


def self_test(tree: Path, exp: Expected, reference: Reference, scratch: Path) -> list[str]:
    """Names of corruptions of `tree` that the checks failed to report."""
    missed = []
    for name, (corrupt, marker) in CORRUPTIONS.items():
        copy = scratch / name.replace(" ", "_")
        shutil.copytree(tree, copy)
        try:
            corrupt(copy)
            if not any(marker in problem for problem in check_tree(copy, exp, reference)):
                missed.append(name)
        finally:
            shutil.rmtree(copy)
    return missed
