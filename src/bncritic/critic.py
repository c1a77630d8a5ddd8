"""Fit pipeline: score matrices, node/global measures, bootstrap bands, flags.

The leave-one-out predictive for an observable depends only on the states of
the other observables, so for a given posited network there are finitely many
distinct predictives.  The pipeline precomputes one score per (observable
configuration, node, index) into lookup tables, and scoring a dataset is a
table gather.

The critical bands come from bootstrap replicates of the node and global mean
scores over a model-consistent pool of forward-sampled rows.  For each sample
size n one Philox stream, keyed by (master seed, n), draws the replicates' row
indices; chunks of replicates become a (replicates, pool) count matrix through
one ``bincount``, and the count matrix times the pool's score columns, divided
by n, gives every replicate's node means for all requested indices at once,
so the indices share one set of draws.
"""

from __future__ import annotations

import enum
import hashlib
import io
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import sample
from .errors import (
    DatasetMismatchError,
    DegenerateBaselineError,
    EmptyMatrixError,
    InsufficientRowsError,
    ZeroEvidenceProbabilityError,
)
from .infer import joint_enumerate
from .network import Network, network_id
from .sample import Dataset, derive_seed, rng_from_seed
from .score import ScoreKind

ALPHA = 0.05
GLOBAL = "global"

# Which direction of deviation from the null band signals misfit.
# RPS: 1 is best, low = bad.  Weaver: > 1 surprising, high = bad.
# GoodLog: confident hits score higher than misses, low = bad.
MISFIT_HIGH = {
    ScoreKind.WEAVER_SURPRISE: True,
    ScoreKind.GOOD_LOG: False,
    ScoreKind.RANKED_PROBABILITY: False,
}

_KIND_ID = {
    ScoreKind.WEAVER_SURPRISE: 1,
    ScoreKind.GOOD_LOG: 2,
    ScoreKind.RANKED_PROBABILITY: 3,
}
_POOL_TAG = 7001
_DRAW_TAG = 7002  # bootstrap row indices: one stream per (master seed, n)
# Entries per index block, and per count matrix unless the pool alone is
# larger, so that the bootstrap's working memory does not grow with n.
_CHUNK_ENTRIES = 2**14
# Names the reference distribution and its random stream in report provenance.
NULL_SCHEME = "pool-bootstrap/counts-per-n"
_KINDS_IN_ORDER = (ScoreKind.WEAVER_SURPRISE, ScoreKind.GOOD_LOG, ScoreKind.RANKED_PROBABILITY)


class TailMode(str, enum.Enum):
    TWO_TAILED = "two_tailed"
    ONE_TAILED_MISFIT = "one_tailed_misfit"


class Correction(str, enum.Enum):
    NONE = "none"
    PER_FAMILY = "per_family"


class Flag(str, enum.Enum):
    NOT_SIGNIFICANT = "not_significant"
    SIGNIFICANT_MISFIT = "significant_misfit"
    SIGNIFICANT_OVERFIT = "significant_overfit"


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    kind: ScoreKind
    values: np.ndarray  # (n_simulees, n_observables)
    nodes: tuple[str, ...]


@dataclass(frozen=True)
class Measure:
    level: str  # GLOBAL or a node name
    value: float


@dataclass(frozen=True)
class CriticalBand:
    lower: float
    upper: float
    replicates: int
    tail: TailMode


@dataclass(frozen=True)
class StudyConfig:
    sample_sizes: tuple[int, ...] = (50, 100, 250, 500, 1000)
    replicates: int = 1000
    pool_size: int = 1000
    tail: TailMode = TailMode.TWO_TAILED
    correction: Correction = Correction.NONE
    master_seed: int = 0

    def __post_init__(self):
        if self.replicates < 100:
            raise ValueError("at least 100 bootstrap replicates required")
        if not self.sample_sizes:
            raise ValueError("at least one sample size required")
        if len(set(self.sample_sizes)) != len(self.sample_sizes):
            raise ValueError(f"duplicate sample sizes in {list(self.sample_sizes)}")
        if min(self.sample_sizes) < 1:
            raise ValueError(f"sample sizes must be at least 1, got {list(self.sample_sizes)}")
        if self.pool_size < 1:
            raise ValueError(f"pool size must be at least 1, got {self.pool_size}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master seed must be in [0, 2**64), got {self.master_seed}")

    def to_dict(self) -> dict:
        return {
            "sample_sizes": list(self.sample_sizes),
            "replicates": self.replicates,
            "pool_size": self.pool_size,
            "tail": self.tail.value,
            "correction": self.correction.value,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"study config must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown study config keys: {unknown}")
        kw = dict(doc)
        if "sample_sizes" in kw:
            kw["sample_sizes"] = tuple(kw["sample_sizes"])
        if "tail" in kw:
            kw["tail"] = TailMode(kw["tail"])
        if "correction" in kw:
            kw["correction"] = Correction(kw["correction"])
        return cls(**kw)


@dataclass(frozen=True)
class FitCell:
    kind: ScoreKind
    n: int
    level: str
    observed: float
    band: CriticalBand
    flag: Flag


@dataclass(frozen=True)
class FitReport:
    cells: tuple[FitCell, ...]
    provenance: dict

    def cell(self, kind: ScoreKind, n: int, level: str) -> FitCell:
        for c in self.cells:
            if c.kind == kind and c.n == n and c.level == level:
                return c
        raise KeyError((kind, n, level))

    def to_json(self) -> str:
        doc = {
            "provenance": self.provenance,
            "cells": [
                {
                    "kind": c.kind.value,
                    "n": c.n,
                    "level": c.level,
                    "observed": c.observed,
                    "lower": c.band.lower,
                    "upper": c.band.upper,
                    "replicates": c.band.replicates,
                    "tail": c.band.tail.value,
                    "flag": c.flag.value,
                }
                for c in self.cells
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def summary_text(self) -> str:
        """Per-kind table: rows = levels, columns = sample sizes flagged."""
        out = io.StringIO()
        kinds = sorted({c.kind for c in self.cells}, key=lambda k: _KIND_ID[k])
        sizes = sorted({c.n for c in self.cells})
        levels: list[str] = []
        for c in self.cells:
            if c.level not in levels:
                levels.append(c.level)
        out.write(f"# provenance: {json.dumps(self.provenance, sort_keys=True)}\n")
        for kind in kinds:
            out.write(f"\n[{kind.value}]\n")
            width = max(len(l) for l in levels) + 2
            for level in levels:
                flagged = [
                    str(n) for n in sizes
                    if self.cell(kind, n, level).flag != Flag.NOT_SIGNIFICANT
                ]
                out.write(f"{level:<{width}}{', '.join(flagged) if flagged else '-'}\n")
        return out.getvalue()

    def plot_csvs(self) -> dict[tuple[str, str], str]:
        """Per (kind, level): CSV of {n, observed, lower, upper} for band plots."""
        out: dict[tuple[str, str], str] = {}
        keys = {(c.kind, c.level) for c in self.cells}
        for kind, level in sorted(keys, key=lambda kl: (_KIND_ID[kl[0]], kl[1])):
            buf = io.StringIO()
            buf.write(f"# provenance: {json.dumps(self.provenance, sort_keys=True)}\n")
            buf.write("n,observed,lower,upper\n")
            for c in sorted((c for c in self.cells if c.kind == kind and c.level == level),
                            key=lambda c: c.n):
                buf.write(f"{c.n},{c.observed!r},{c.band.lower!r},{c.band.upper!r}\n")
            out[(kind.value, level)] = buf.getvalue()
        return out


# ---------------------------------------------------------------------------
# score tables


@dataclass(frozen=True, eq=False)
class _ScoreTables:
    """Per-network lookup tables: score[config + (node,)] and validity mask."""

    nodes: tuple[str, ...]
    cards: tuple[int, ...]
    tables: dict  # ScoreKind -> np.ndarray of shape (*cards, n_nodes)
    valid: dict  # ScoreKind -> bool array of same shape
    obs_joint: np.ndarray  # joint over observables, declaration order


def _observable_joint(net: Network) -> np.ndarray:
    jt = joint_enumerate(net)
    obs = tuple(v.name for v in net.observables)
    latent_axes = tuple(i for i, n in enumerate(jt.variables) if n not in obs)
    marg = jt.probabilities.sum(axis=latent_axes) if latent_axes else jt.probabilities
    remaining = [n for n in jt.variables if n in obs]
    perm = [remaining.index(o) for o in obs]
    return np.ascontiguousarray(marg.transpose(perm))


def _weaver_table(pred: np.ndarray, axis: int):
    sq = (pred**2).sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = sq / pred
    valid = pred > 0.0
    return table, valid


def _goodlog_table(pred: np.ndarray, axis: int, baseline: np.ndarray):
    nz = baseline[baseline > 0.0]
    b = float(-np.sum(nz * np.log(nz)))
    if b <= 0.0:
        raise DegenerateBaselineError("baseline marginals are a point mass")
    modal = np.argmax(pred, axis=axis)  # lowest index on ties
    pm = np.max(pred, axis=axis)
    k = pred.shape[axis]
    j = np.arange(k).reshape([-1 if a == axis else 1 for a in range(pred.ndim)])
    hit = np.expand_dims(modal, axis) == j
    arg = np.where(hit, b * np.expand_dims(pm, axis), b * (1.0 - np.expand_dims(pm, axis)))
    valid = arg > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.log(arg)
    return table, valid


def _rps_table(pred: np.ndarray, axis: int):
    k = pred.shape[axis]
    last = np.moveaxis(pred, axis, -1)
    cum = np.cumsum(last, axis=-1)[..., :-1]
    split = (cum**2 + (1.0 - cum) ** 2).sum(axis=-1)
    idx = np.arange(k)
    dist_mat = np.abs(idx[:, None] - idx[None, :]).astype(float)  # (i, j)
    penal = last @ dist_mat  # (..., j)
    table = 1.5 - split[..., None] / (2.0 * (k - 1)) - penal / (k - 1)
    table = np.moveaxis(table, -1, axis)
    valid = np.ones_like(table, dtype=bool)
    return table, valid


def _score_tables(net: Network, kinds) -> _ScoreTables:
    obs_joint = _observable_joint(net)
    nodes = tuple(v.name for v in net.observables)
    cards = obs_joint.shape
    tables: dict = {}
    valids: dict = {}
    for kind in kinds:
        per_node = []
        per_node_valid = []
        for k, node in enumerate(nodes):
            denom = obs_joint.sum(axis=k, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                pred = np.where(denom > 0.0, obs_joint / denom, np.nan)
            if kind == ScoreKind.WEAVER_SURPRISE:
                t, v = _weaver_table(pred, k)
            elif kind == ScoreKind.GOOD_LOG:
                baseline = obs_joint.sum(axis=tuple(a for a in range(len(cards)) if a != k))
                t, v = _goodlog_table(pred, k, baseline)
            else:
                t, v = _rps_table(pred, k)
            v = v & np.broadcast_to(denom > 0.0, v.shape)
            per_node.append(t)
            per_node_valid.append(v)
        tables[kind] = np.stack(per_node, axis=-1)
        valids[kind] = np.stack(per_node_valid, axis=-1)
    return _ScoreTables(nodes, tuple(cards), tables, valids, obs_joint)


def _gather(tables: _ScoreTables, kind: ScoreKind, rows: np.ndarray) -> np.ndarray:
    idx = tuple(rows[:, j] for j in range(rows.shape[1]))
    valid = tables.valid[kind][idx]
    if not valid.all():
        i, k = np.argwhere(~valid)[0]
        raise ZeroEvidenceProbabilityError(
            f"row {i}: score undefined at node {tables.nodes[k]!r}",
            node=tables.nodes[k], row=int(i),
        )
    return tables.tables[kind][idx]


# ---------------------------------------------------------------------------
# public pipeline operations


def score_dataset(net: Network, ds: Dataset, kind: ScoreKind) -> ScoreMatrix:
    """Score every (simulee, node) cell of a dataset under the posited network.

    Cell (i, k) scores the leave-one-out predictive of node k against row i's
    observed state; GoodLog uses the network's no-evidence marginal of node k
    as the baseline.
    """
    nodes = tuple(v.name for v in net.observables)
    if ds.columns != nodes:
        raise DatasetMismatchError(
            f"dataset columns {ds.columns} do not match network observables {nodes}")
    tables = _score_tables(net, [kind])
    return ScoreMatrix(kind, _gather(tables, kind, ds.rows), nodes)


def measures(m: ScoreMatrix) -> list[Measure]:
    """Node means plus the global measure (mean of per-simulee row means)."""
    if m.values.size == 0:
        raise EmptyMatrixError("score matrix is empty")
    node_means = np.ascontiguousarray(m.values.T).mean(axis=1)  # pairwise sum per node
    global_mean = float(m.values.mean(axis=1).mean())
    out = [Measure(node, float(v)) for node, v in zip(m.nodes, node_means)]
    out.append(Measure(GLOBAL, global_mean))
    return out


def _nearest_rank(sorted_vals: np.ndarray, q: float) -> float:
    r = max(1, math.ceil(q * sorted_vals.shape[0]))
    return float(sorted_vals[r - 1])


def _band_quantiles(kind: ScoreKind, tail: TailMode, alpha: float) -> tuple[float | None, float | None]:
    """(lower_q, upper_q); None means an unbounded side (one-tailed mode)."""
    if tail == TailMode.TWO_TAILED:
        return alpha / 2.0, 1.0 - alpha / 2.0
    if MISFIT_HIGH[kind]:
        return None, 1.0 - alpha
    return alpha, None


def _replicate_measures(pool_scores: np.ndarray, cfg: StudyConfig, n: int) -> np.ndarray:
    """(replicates, columns) bootstrap means of the pool score columns at size n.

    Replicate r averages the pool rows at positions r*n .. r*n+n-1 of one index
    stream keyed by (master seed, n), whatever the chunk size.  Columns are
    centred on pool row 0, which keeps a constant column exactly constant.
    """
    pool, width = pool_scores.shape
    base = pool_scores[0]
    centred = pool_scores - base
    rng = rng_from_seed(derive_seed(cfg.master_seed, _DRAW_TAG, n))
    per_chunk = max(1, _CHUNK_ENTRIES // max(n, pool))
    # Replicate j of a chunk counts into row j of the chunk's (c, pool) count
    # matrix.  When n is small several replicates share one index block; a
    # replicate longer than a block spans several, all counting into row 0.
    row_offsets = np.repeat(np.arange(per_chunk) * pool, min(n, _CHUNK_ENTRIES))
    out = np.empty((cfg.replicates, width))
    for r0 in range(0, cfg.replicates, per_chunk):
        c = min(per_chunk, cfg.replicates - r0)
        counts = 0
        for p0 in range(0, c * n, _CHUNK_ENTRIES):
            k = min(_CHUNK_ENTRIES, c * n - p0)
            idx = rng.integers(0, pool, size=k) + row_offsets[:k]
            counts = counts + np.bincount(idx, minlength=c * pool)
        out[r0:r0 + c] = counts.reshape(c, pool) @ centred
    out /= n
    out += base
    return out


def _with_global(node_means: np.ndarray) -> np.ndarray:
    """Append the global measure (mean of the node means) as the last column."""
    return np.column_stack([node_means, node_means.mean(axis=1)])


def _pool_scores(net: Network, cfg: StudyConfig, tables: _ScoreTables, kinds) -> np.ndarray:
    """(pool_size, len(kinds) * n_nodes) pool scores, kinds side by side."""
    pool = sample.forward_sample(net, cfg.pool_size, derive_seed(cfg.master_seed, _POOL_TAG))
    return np.hstack([_gather(tables, kind, pool.rows) for kind in kinds])


def _bands_from_replicates(rep: np.ndarray, nodes, cfg: StudyConfig, kind: ScoreKind) -> dict[str, CriticalBand]:
    m = len(nodes)
    if cfg.correction == Correction.PER_FAMILY:
        node_alpha = 1.0 - (1.0 - ALPHA) ** (1.0 / m)  # Sidak per-family adjustment
    else:
        node_alpha = ALPHA
    bands: dict[str, CriticalBand] = {}
    levels = list(nodes) + [GLOBAL]
    for j, level in enumerate(levels):
        alpha = ALPHA if level == GLOBAL else node_alpha
        lo_q, hi_q = _band_quantiles(kind, cfg.tail, alpha)
        vals = np.sort(rep[:, j])
        lower = _nearest_rank(vals, lo_q) if lo_q is not None else -math.inf
        upper = _nearest_rank(vals, hi_q) if hi_q is not None else math.inf
        bands[level] = CriticalBand(lower, upper, rep.shape[0], cfg.tail)
    return bands


def bootstrap_null(net: Network, cfg: StudyConfig, kind: ScoreKind, n: int) -> dict[str, CriticalBand]:
    """Empirical critical bands under the posited model's own data.

    Resamples n rows with replacement from a model-consistent pool of
    cfg.pool_size forward-sampled rows, for cfg.replicates replicates.  The
    draws depend only on (master seed, n), so the bands equal those that
    ``criticize`` reports for this kind and n, whichever kinds it scores.
    """
    tables = _score_tables(net, [kind])
    rep = _replicate_measures(_pool_scores(net, cfg, tables, [kind]), cfg, n)
    return _bands_from_replicates(_with_global(rep), tables.nodes, cfg, kind)


def _flag(kind: ScoreKind, value: float, band: CriticalBand) -> Flag:
    if value < band.lower:
        return Flag.SIGNIFICANT_MISFIT if not MISFIT_HIGH[kind] else Flag.SIGNIFICANT_OVERFIT
    if value > band.upper:
        return Flag.SIGNIFICANT_MISFIT if MISFIT_HIGH[kind] else Flag.SIGNIFICANT_OVERFIT
    return Flag.NOT_SIGNIFICANT


def criticize(net: Network, observed: Dataset, cfg: StudyConfig, kinds=None) -> FitReport:
    """Full fit evaluation: observed measures vs bootstrap bands at every
    (index, sample size, level) cell, with significance flags."""
    if kinds is None:
        kinds = _KINDS_IN_ORDER
    kinds = [k for k in _KINDS_IN_ORDER if k in set(kinds)]
    max_n = max(cfg.sample_sizes)
    if observed.n_rows < max_n:
        raise InsufficientRowsError(
            f"observed dataset has {observed.n_rows} rows, largest sample size is {max_n}")

    tables = _score_tables(net, kinds)
    if observed.columns != tables.nodes:
        raise DatasetMismatchError(
            f"dataset columns {observed.columns} do not match network observables {tables.nodes}")
    pool_scores = _pool_scores(net, cfg, tables, kinds)
    replicates = {n: _replicate_measures(pool_scores, cfg, n) for n in cfg.sample_sizes}

    m = len(tables.nodes)
    levels = list(tables.nodes) + [GLOBAL]
    cells: list[FitCell] = []
    for j, kind in enumerate(kinds):
        cols = slice(j * m, (j + 1) * m)
        base = pool_scores[0, cols]
        # Centred like the replicates, so a constant column matches its band
        # exactly; one contiguous row per node, so each mean is a pairwise sum.
        obs_centred = np.subtract(_gather(tables, kind, observed.rows[:max_n]).T,
                                  base[:, None], order="C")
        for n in cfg.sample_sizes:
            bands = _bands_from_replicates(_with_global(replicates[n][:, cols]), tables.nodes, cfg, kind)
            values = _with_global((obs_centred[:, :n].mean(axis=1) + base)[None, :])[0]
            for level, value in zip(levels, values.tolist()):
                band = bands[level]
                cells.append(FitCell(kind, n, level, value, band, _flag(kind, value, band)))

    provenance = {
        "posited_network": network_id(net),
        "master_seed": cfg.master_seed,
        "replicates": cfg.replicates,
        "pool_size": cfg.pool_size,
        "tail": cfg.tail.value,
        "correction": cfg.correction.value,
        "sample_sizes": list(cfg.sample_sizes),
        "kinds": [k.value for k in kinds],
        "null_scheme": NULL_SCHEME,
        "config_hash": hashlib.sha256(
            json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest()[:16],
    }
    return FitReport(tuple(cells), provenance)
