"""The MD student-model corpus: base network, error-model transforms, study runner.

The base network models the ability of a general-practice MD through four
latent skills driving five patient-outcome observables.  The single-visit
skills combine conjunctively: for Patients 1-3 the effective treatment level
is the minimum of the relevant skill ranks, and each effective level indexes
a stochastically ordered outcome row.  Patients 4 and 5 are longitudinal
cases where treatment planning dominates: their outcome rows are indexed by
the planning level and tilted by exam quality.  Nine error models perturb
the latent structure around the treatment-planning skill (node, edge, state,
and prior errors), and run_study criticizes every model against data
generated from the base model.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace
from typing import Mapping, Union

import numpy as np

from . import critic as critic_mod
from .critic import GLOBAL, Flag, ScoreKind, StudyConfig
from .errors import (
    InvalidResultError,
    UnknownNodeError,
    UnknownStateTransformError,
)
from .infer import joint_enumerate
from .network import LATENT, OBSERVABLE, Cpt, Network, Variable, validate
from .sample import Dataset, derive_seed, forward_sample

# ---------------------------------------------------------------------------
# canonical tables

ABILITY = "MedicalAbility"
PHARM = "Pharmaceutical"
EXAM = "PhysicalExam"
PLANNING = "TreatmentPlanning"
PATIENTS = ("Patient1", "Patient2", "Patient3", "Patient4", "Patient5")

OUTCOME_STATES = ("degrade", "maintain", "improve", "healed")

ABILITY_PRIOR = (0.15, 0.35, 0.35, 0.15)

# single-visit skill level given overall ability; rows are monotone in ability
SKILL_GIVEN_ABILITY = (
    (0.70, 0.25, 0.05),
    (0.30, 0.50, 0.20),
    (0.10, 0.45, 0.45),
    (0.03, 0.27, 0.70),
)

# treatment-planning level given overall ability.  Deliberately near-flat:
# planning proficiency is only weakly predicted by general ability, so the
# evidence about it must come through the longitudinal patients.  This is
# what makes excluding the planning node costly for the model's forecasts.
PLANNING_GIVEN_ABILITY = (
    (0.36, 0.34, 0.30),
    (0.35, 0.34, 0.31),
    (0.33, 0.34, 0.33),
    (0.31, 0.34, 0.35),
)

# outcome distribution by effective skill level
OUTCOME_BY_LEVEL = (
    (0.96, 0.027, 0.008, 0.005),
    (0.012, 0.49, 0.46, 0.038),
    (0.005, 0.008, 0.055, 0.932),
)

# multiplicative tilt ratios for edge strengths; "strong" targets a
# total-variation spread >= 0.3 across parent states, "weak" <= 0.1
STRONG_RATIO = 2.6
WEAK_RATIO = 1.14
MODERATE_RATIO = 1.5

# exam-quality tilt applied to the planning-indexed outcome rows of the
# longitudinal patients (4 and 5); strong by the criterion above
EXAM_TILT_RATIO = 12.0

# calibration floors underwriting the acceptance thresholds: the averaged
# total-variation distance between true-model and node-exclusion LOO
# predictives at Patient5 (measured: 0.32), and the corresponding
# expected-RPS gap (measured: 0.052)
TV_MARGIN = 0.05
RPS_GAP_MARGIN = 0.05

# planning rows altered by total-variation 0.15 each, alternating direction
PERTURBED_PLANNING_ROWS = (
    (0.21, 0.34, 0.45),
    (0.50, 0.34, 0.16),
    (0.18, 0.34, 0.48),
    (0.46, 0.34, 0.20),
)

MODEL_NAMES = (
    "Data Generation",
    "Node Exclusion",
    "Node Inclusion",
    "State Exclusion",
    "State Inclusion",
    "Prior Probability",
    "Strong Edge Exclusion",
    "Strong Edge Inclusion",
    "Weak Edge Exclusion",
    "Weak Edge Inclusion",
)

# observables whose immediate latent parent structure each error model touches
AFFECTED_OBSERVABLES: dict[str, tuple[str, ...]] = {
    "Data Generation": (),
    "Node Exclusion": ("Patient3", "Patient4", "Patient5"),
    "Node Inclusion": ("Patient4", "Patient5"),
    "State Exclusion": ("Patient3", "Patient4", "Patient5"),
    "State Inclusion": ("Patient3", "Patient4", "Patient5"),
    "Prior Probability": ("Patient3", "Patient4", "Patient5"),
    "Strong Edge Exclusion": ("Patient4",),
    "Strong Edge Inclusion": ("Patient1",),
    "Weak Edge Exclusion": ("Patient3",),
    "Weak Edge Inclusion": ("Patient1",),
}


def _tilt_weights(ratio: float, parent_card: int, child_card: int) -> np.ndarray:
    """Per-parent-state multiplicative weights over child states.

    Low parent states tilt mass toward low (worse) child states and high
    parent states toward high ones; the middle is neutral.
    """
    t = np.linspace(-1.0, 1.0, parent_card)
    j = np.arange(child_card) - (child_card - 1) / 2.0
    return ratio ** (t[:, None] * j[None, :])


def _tilted_rows(row: np.ndarray, weights: np.ndarray) -> np.ndarray:
    out = row[None, :] * weights
    return out / out.sum(axis=1, keepdims=True)


def build_md_model() -> Network:
    """The Data Generation network: 4 latent skills, 5 patient outcomes."""
    variables = (
        Variable(ABILITY, LATENT, ("poor", "moderate", "good", "excellent")),
        Variable(PHARM, LATENT, ("inappropriate", "typical", "precise")),
        Variable(EXAM, LATENT, ("incomplete", "adequate", "thorough")),
        Variable(PLANNING, LATENT, ("trial-and-error", "by-the-book", "custom")),
        *(Variable(p, OBSERVABLE, OUTCOME_STATES) for p in PATIENTS),
    )

    def conjunctive(parent_cards: tuple[int, ...]) -> tuple[tuple[float, ...], ...]:
        rows = []
        for cfg in np.ndindex(*parent_cards):
            rows.append(OUTCOME_BY_LEVEL[min(cfg)])
        return tuple(rows)

    # Patient3 involves all three skills, but planning only weakly: its
    # effective level comes from the single-visit skills, with a weak
    # planning tilt on top.  This is the corpus's designated weak edge.
    weak = _tilt_weights(WEAK_RATIO, 3, 4)
    p3_rows = []
    for s2, s3, s4 in np.ndindex(3, 3, 3):
        base = np.asarray(OUTCOME_BY_LEVEL[min(s2, s3)])
        p3_rows.append(tuple(_tilted_rows(base, weak)[s4]))

    # Patients 4 and 5 are the longitudinal cases: the planning level picks
    # the outcome row, and exam quality tilts it (a strong edge from each
    # parent, but planning determines the row's center of mass).
    exam_tilt = _tilt_weights(EXAM_TILT_RATIO, 3, 4)
    p45_rows = []
    for s3, s4 in np.ndindex(3, 3):
        base = np.asarray(OUTCOME_BY_LEVEL[s4])
        p45_rows.append(tuple(_tilted_rows(base, exam_tilt)[s3]))
    p45_rows = tuple(p45_rows)

    cpts = (
        Cpt(ABILITY, (), (ABILITY_PRIOR,)),
        Cpt(PHARM, (ABILITY,), SKILL_GIVEN_ABILITY),
        Cpt(EXAM, (ABILITY,), SKILL_GIVEN_ABILITY),
        Cpt(PLANNING, (ABILITY,), PLANNING_GIVEN_ABILITY),
        Cpt("Patient1", (PHARM, EXAM), conjunctive((3, 3))),
        Cpt("Patient2", (PHARM, EXAM), conjunctive((3, 3))),
        Cpt("Patient3", (PHARM, EXAM, PLANNING), tuple(p3_rows)),
        Cpt("Patient4", (EXAM, PLANNING), p45_rows),
        Cpt("Patient5", (EXAM, PLANNING), p45_rows),
    )
    return Network(variables, cpts)


# ---------------------------------------------------------------------------
# error transforms


@dataclass(frozen=True)
class ExcludeNode:
    node: str


@dataclass(frozen=True)
class IncludeNode:
    name: str
    states: tuple[str, ...]
    prior: tuple[float, ...]
    children: tuple[str, ...]
    ratio: float = MODERATE_RATIO


@dataclass(frozen=True)
class ExcludeEdge:
    parent: str
    child: str


@dataclass(frozen=True)
class IncludeEdge:
    parent: str
    child: str
    strength: str  # "strong" or "weak"


@dataclass(frozen=True)
class MergeStates:
    node: str
    states: tuple[str, str]
    merged_label: str


@dataclass(frozen=True)
class SplitState:
    node: str
    state: str
    new_labels: tuple[str, str]


@dataclass(frozen=True)
class PerturbPriors:
    node: str
    rows: tuple[tuple[float, ...], ...]


ErrorTransform = Union[ExcludeNode, IncludeNode, ExcludeEdge, IncludeEdge,
                       MergeStates, SplitState, PerturbPriors]


def _require_node(net: Network, name: str) -> None:
    if not net.has_var(name):
        raise UnknownNodeError(name)


def _state_index(net: Network, node: str, label: str) -> int:
    states = net.var(node).states
    if label not in states:
        raise UnknownStateTransformError(f"{node!r} has no state {label!r}")
    return states.index(label)


def _marginal_conditional(joint, parent: str, rest: tuple[str, ...]) -> np.ndarray:
    """P(parent | rest) from a joint table, shaped (*rest_cards, parent_card).

    Zero-probability rest configurations fall back to the parent's marginal.
    """
    keep = list(rest) + [parent]
    axes = tuple(i for i, n in enumerate(joint.variables) if n not in keep)
    marg = joint.probabilities.sum(axis=axes) if axes else joint.probabilities
    remaining = [n for n in joint.variables if n in keep]
    marg = marg.transpose([remaining.index(k) for k in keep])
    denom = marg.sum(axis=-1, keepdims=True)
    fallback = marg.reshape(-1, marg.shape[-1]).sum(axis=0)
    fallback = fallback / fallback.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(denom > 0.0, marg / denom, fallback)
    return cond


def _marginalized_child_cpt(base: Network, joint, parent: str, child: str) -> Cpt:
    cpt = base.cpt(child)
    if parent not in cpt.parents:
        raise UnknownNodeError(f"{parent!r} is not a parent of {child!r}")
    pidx = cpt.parents.index(parent)
    rest = tuple(p for p in cpt.parents if p != parent)
    cards = [base.var(p).cardinality for p in cpt.parents]
    child_card = base.var(child).cardinality
    arr = cpt.array().reshape(cards + [child_card])
    arr = np.moveaxis(arr, pidx, -2)  # (*rest_cards, parent_card, child_card)
    cond = _marginal_conditional(joint, parent, rest)
    new = (cond[..., :, None] * arr).sum(axis=-2)
    table = tuple(tuple(row) for row in new.reshape(-1, child_card))
    return Cpt(child, rest, table)


def _finish(variables, cpts) -> Network:
    net = Network(tuple(variables), tuple(cpts))
    report = validate(net)
    if not report.ok:
        raise InvalidResultError(report)
    return net


def apply_transform(base: Network, t: ErrorTransform) -> Network:
    """Produce an error model from a base network via a declarative edit."""
    if isinstance(t, ExcludeNode):
        _require_node(base, t.node)
        joint = joint_enumerate(base)
        children = base.children(t.node)
        cpts = []
        for c in base.cpts:
            if c.child == t.node:
                continue
            if c.child in children:
                cpts.append(_marginalized_child_cpt(base, joint, t.node, c.child))
            else:
                cpts.append(c)
        variables = [v for v in base.variables if v.name != t.node]
        return _finish(variables, cpts)

    if isinstance(t, ExcludeEdge):
        _require_node(base, t.parent)
        _require_node(base, t.child)
        joint = joint_enumerate(base)
        cpts = [
            _marginalized_child_cpt(base, joint, t.parent, c.child) if c.child == t.child else c
            for c in base.cpts
        ]
        return _finish(base.variables, cpts)

    if isinstance(t, (IncludeEdge, IncludeNode)):
        if isinstance(t, IncludeEdge):
            _require_node(base, t.parent)
            _require_node(base, t.child)
            ratio = STRONG_RATIO if t.strength == "strong" else WEAK_RATIO
            parent, children = t.parent, (t.child,)
            variables = list(base.variables)
            cpts = list(base.cpts)
            parent_card = base.var(parent).cardinality
        else:
            if base.has_var(t.name):
                raise UnknownNodeError(f"node {t.name!r} already exists")
            for c in t.children:
                _require_node(base, c)
            ratio = t.ratio
            parent, children = t.name, t.children
            variables = list(base.variables)
            # keep latents grouped ahead of the observables
            variables.insert(len(base.latents), Variable(t.name, LATENT, t.states))
            cpts = list(base.cpts)
            cpts.insert(len(base.latents), Cpt(t.name, (), (t.prior,)))
            parent_card = len(t.states)
        for child in children:
            cpt = next(c for c in cpts if c.child == child)
            if parent in cpt.parents:
                raise UnknownNodeError(f"{parent!r} is already a parent of {child!r}")
            child_card = len(cpt.table[0])
            weights = _tilt_weights(ratio, parent_card, child_card)
            rows = []
            for row in cpt.table:
                rows.extend(tuple(r) for r in _tilted_rows(np.asarray(row), weights))
            cpts[cpts.index(cpt)] = Cpt(child, cpt.parents + (parent,), tuple(rows))
        return _finish(variables, cpts)

    if isinstance(t, MergeStates):
        _require_node(base, t.node)
        ia, ib = sorted(_state_index(base, t.node, s) for s in t.states)
        if ib != ia + 1:
            raise UnknownStateTransformError("merged states must be adjacent")
        var = base.var(t.node)
        joint = joint_enumerate(base)
        pos = joint.variables.index(t.node)
        marginal = joint.probabilities.sum(
            axis=tuple(i for i in range(joint.probabilities.ndim) if i != pos))
        wa, wb = marginal[ia], marginal[ib]
        wa, wb = wa / (wa + wb), wb / (wa + wb)

        variables = [
            Variable(v.name, v.role, v.states[:ia] + (t.merged_label,) + v.states[ib + 1:])
            if v.name == t.node else v
            for v in base.variables
        ]
        cpts = []
        for c in base.cpts:
            if c.child == t.node:
                arr = c.array()
                merged = np.concatenate(
                    [arr[:, :ia], (arr[:, ia] + arr[:, ib])[:, None], arr[:, ib + 1:]], axis=1)
                cpts.append(Cpt(c.child, c.parents, tuple(tuple(r) for r in merged)))
            elif t.node in c.parents:
                pidx = c.parents.index(t.node)
                cards = [base.var(p).cardinality for p in c.parents]
                arr = c.array().reshape(cards + [len(c.table[0])])
                arr = np.moveaxis(arr, pidx, 0)
                mixed = wa * arr[ia] + wb * arr[ib]
                arr = np.concatenate([arr[:ia], mixed[None], arr[ib + 1:]], axis=0)
                arr = np.moveaxis(arr, 0, pidx)
                cpts.append(Cpt(c.child, c.parents,
                                tuple(tuple(r) for r in arr.reshape(-1, len(c.table[0])))))
            else:
                cpts.append(c)
        return _finish(variables, cpts)

    if isinstance(t, SplitState):
        _require_node(base, t.node)
        idx = _state_index(base, t.node, t.state)
        var = base.var(t.node)
        la, lb = t.new_labels
        variables = [
            Variable(v.name, v.role, v.states[:idx] + (la, lb) + v.states[idx + 1:])
            if v.name == t.node else v
            for v in base.variables
        ]
        cpts = []
        for c in base.cpts:
            if c.child == t.node:
                arr = c.array()
                half = arr[:, idx] / 2.0
                split = np.concatenate(
                    [arr[:, :idx], half[:, None], half[:, None], arr[:, idx + 1:]], axis=1)
                cpts.append(Cpt(c.child, c.parents, tuple(tuple(r) for r in split)))
            elif t.node in c.parents:
                pidx = c.parents.index(t.node)
                cards = [base.var(p).cardinality for p in c.parents]
                arr = c.array().reshape(cards + [len(c.table[0])])
                arr = np.moveaxis(arr, pidx, 0)
                lo = arr[idx - 1] if idx > 0 else arr[idx]
                hi = arr[idx + 1] if idx + 1 < arr.shape[0] else arr[idx]
                # mean-preserving interpolation toward the neighbors: the two
                # halves tilt symmetrically, so merging them back recovers the
                # original row exactly; the tilt is capped to keep every
                # probability strictly positive
                mid, half = arr[idx], 0.5 * (hi - lo)
                mag = np.abs(half)
                with np.errstate(divide="ignore", invalid="ignore"):
                    headroom = np.where(mag > 0.0, mid / np.maximum(mag, 1e-300), np.inf)
                tilt = np.minimum(1.0 / 3.0, 0.9 * headroom.min(axis=-1, keepdims=True))
                row_a = mid - tilt * half
                row_b = mid + tilt * half
                arr = np.concatenate([arr[:idx], row_a[None], row_b[None], arr[idx + 1:]], axis=0)
                arr = np.moveaxis(arr, 0, pidx)
                cpts.append(Cpt(c.child, c.parents,
                                tuple(tuple(r) for r in arr.reshape(-1, len(c.table[0])))))
            else:
                cpts.append(c)
        return _finish(variables, cpts)

    if isinstance(t, PerturbPriors):
        _require_node(base, t.node)
        cpts = [
            Cpt(c.child, c.parents, tuple(tuple(float(p) for p in row) for row in t.rows))
            if c.child == t.node else c
            for c in base.cpts
        ]
        return _finish(base.variables, cpts)

    raise TypeError(f"unknown transform {t!r}")


def standard_transforms() -> dict[str, ErrorTransform]:
    """The nine error-model edits, all centered on the treatment-planning node."""
    return {
        "Node Exclusion": ExcludeNode(PLANNING),
        "Node Inclusion": IncludeNode(
            "InternshipLocation", ("prestigious", "standard"), (0.5, 0.5),
            ("Patient4", "Patient5")),
        "State Exclusion": MergeStates(PLANNING, ("trial-and-error", "by-the-book"), "improvised"),
        "State Inclusion": SplitState(PLANNING, "by-the-book", ("by-the-book-strict", "by-the-book-flexible")),
        "Prior Probability": PerturbPriors(PLANNING, PERTURBED_PLANNING_ROWS),
        "Strong Edge Exclusion": ExcludeEdge(PLANNING, "Patient4"),
        "Strong Edge Inclusion": IncludeEdge(PLANNING, "Patient1", "strong"),
        "Weak Edge Exclusion": ExcludeEdge(PLANNING, "Patient3"),
        "Weak Edge Inclusion": IncludeEdge(PLANNING, "Patient1", "weak"),
    }


def standard_error_models(base: Network) -> dict[str, Network]:
    """The nine transformed networks, keyed by their summary-table row names."""
    return {name: apply_transform(base, t) for name, t in standard_transforms().items()}


def corpus_networks() -> dict[str, Network]:
    """All ten study networks: the Data Generation model plus error models."""
    base = build_md_model()
    out = {"Data Generation": base}
    out.update(standard_error_models(base))
    return out


# ---------------------------------------------------------------------------
# shipped corpus files

_DATA_PACKAGE = "bncritic.corpus_data"


def model_slug(name: str) -> str:
    return name.lower().replace(" ", "_")


def corpus_file_text(filename: str) -> str:
    """Contents of a file shipped in the corpus data directory."""
    from importlib import resources

    return (resources.files(_DATA_PACKAGE) / filename).read_text(encoding="utf-8")


def load_corpus_network(name: str) -> Network:
    """Load one of the ten study networks from its shipped file."""
    if name not in MODEL_NAMES:
        raise UnknownNodeError(f"no corpus model named {name!r}")
    from .network import load_network

    return load_network(corpus_file_text(f"{model_slug(name)}.json"))


def default_study_config() -> StudyConfig:
    """The shipped study configuration (sizes, replicates, seed)."""
    return StudyConfig.from_dict(json.loads(corpus_file_text("study_config.json")))


# ---------------------------------------------------------------------------
# analytic calibration helpers


def expected_node_score(true_net: Network, posited: Network, kind: ScoreKind, node: str) -> float:
    """Expected per-observation score at a node, exactly enumerated.

    Averages the posited model's LOO score over the true model's distribution
    of observable vectors.
    """
    true_joint = critic_mod._observable_joint(true_net)
    tables = critic_mod._score_tables(posited, [kind])
    k = tables.nodes.index(node)
    return float(np.sum(true_joint * tables.tables[kind][..., k]))


def loo_tv_distance(true_net: Network, posited: Network, node: str) -> float:
    """Average total-variation distance between true and posited LOO
    predictives at a node, weighted by the true distribution of the
    conditioning configurations."""
    jt = critic_mod._observable_joint(true_net)
    jp = critic_mod._observable_joint(posited)
    obs = tuple(v.name for v in true_net.observables)
    k = obs.index(node)
    dt = jt.sum(axis=k, keepdims=True)
    dp = jp.sum(axis=k, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        pt = np.where(dt > 0.0, jt / dt, 0.0)
        pp = np.where(dp > 0.0, jp / dp, 0.0)
    tv = 0.5 * np.abs(pt - pp).sum(axis=k)  # per conditioning configuration
    weight = jt.sum(axis=k)
    return float(np.sum(weight * tv))


# ---------------------------------------------------------------------------
# study runner


@dataclass(frozen=True, eq=False)
class StudyGrid:
    """Summary grid: rows = models, columns = Global plus each observable;
    cells list the sample sizes that produced a significant deviation."""

    kind: ScoreKind
    models: tuple[str, ...]
    levels: tuple[str, ...]  # ("Global", *observable names)
    cells: Mapping  # (model, level) -> tuple of flagged sample sizes
    undetected: frozenset  # (model, level) pairs with a touched parent but no flag

    def to_json(self) -> str:
        doc = {
            "kind": self.kind.value,
            "levels": list(self.levels),
            "rows": [
                {
                    "model": m,
                    "cells": {
                        level: list(self.cells[(m, level)]) for level in self.levels
                    },
                    "undetected_parent_error": [
                        level for level in self.levels if (m, level) in self.undetected
                    ],
                }
                for m in self.models
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self) -> str:
        """Plain-text table; '*' marks flags at a touched node, 'X' an
        undetected touched node."""
        def cell_text(m, level):
            sizes = self.cells[(m, level)]
            if sizes:
                mark = "*" if (m, level) in self.undetected_candidates(m, level) else ""
                return mark + ", ".join(str(s) for s in sizes)
            return "X" if (m, level) in self.undetected else ""

        headers = ["Model"] + list(self.levels)
        rows = [[m] + [cell_text(m, level) for level in self.levels] for m in self.models]
        widths = [max(len(str(r[j])) for r in [headers] + rows) + 2 for j in range(len(headers))]
        out = io.StringIO()
        out.write(f"# plot summary: {self.kind.value}\n")
        for r in [headers] + rows:
            out.write("".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
        return out.getvalue()

    def undetected_candidates(self, m, level):
        affected = AFFECTED_OBSERVABLES.get(m, ())
        return {(m, level)} if level in affected else set()


@dataclass(frozen=True, eq=False)
class StudyResult:
    config: StudyConfig
    kinds: tuple[ScoreKind, ...]
    observed: Dataset
    networks: Mapping  # model name -> Network
    reports: Mapping  # model name -> FitReport
    grids: Mapping  # ScoreKind -> StudyGrid


_OBSERVED_TAG = 8001
_MODEL_TAG = 8002


def run_study(cfg: StudyConfig, kinds=None) -> StudyResult:
    """Run the full criticism study: generate observed data from the Data
    Generation model, criticize all ten models against it, and build the
    per-index summary grids.  Deterministic given cfg.master_seed."""
    if kinds is None:
        kinds = (ScoreKind.RANKED_PROBABILITY, ScoreKind.WEAVER_SURPRISE, ScoreKind.GOOD_LOG)
    kinds = tuple(kinds)
    networks = corpus_networks()
    base = networks["Data Generation"]
    observed = forward_sample(base, max(cfg.sample_sizes), derive_seed(cfg.master_seed, _OBSERVED_TAG))

    reports = {}
    for i, name in enumerate(MODEL_NAMES):
        model_cfg = replace(cfg, master_seed=derive_seed(cfg.master_seed, _MODEL_TAG, i))
        reports[name] = critic_mod.criticize(networks[name], observed, model_cfg, kinds)

    levels = ("Global",) + tuple(v.name for v in base.observables)
    grids = {}
    for kind in kinds:
        cells = {}
        undetected = set()
        for name in MODEL_NAMES:
            report = reports[name]
            for level in levels:
                key = GLOBAL if level == "Global" else level
                flagged = tuple(
                    n for n in cfg.sample_sizes
                    if report.cell(kind, n, key).flag != Flag.NOT_SIGNIFICANT
                )
                cells[(name, level)] = flagged
                if not flagged and level in AFFECTED_OBSERVABLES.get(name, ()):
                    undetected.add((name, level))
        grids[kind] = StudyGrid(kind, MODEL_NAMES, levels, cells, frozenset(undetected))
    return StudyResult(cfg, kinds, observed, networks, reports, grids)
