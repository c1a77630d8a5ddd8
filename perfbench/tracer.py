"""Span recorder that times bncritic's layers from outside the package.

Each traced function is replaced, for the length of one traced operation, by
a wrapper installed at the attribute where the pipeline looks it up (for
example ``critic.bootstrap_null`` or ``corpus.forward_sample``).  A wrapper
records a span (name, start, end, parent) plus exact work counts computed from
the call's arguments, then returns the original result unchanged.  Nothing in
``src/`` is edited.  A function the pipeline no longer calls simply records no
span: its metrics read zero and its time shows in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans in memory; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name` (used for the root span)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, counter=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                bound = sig.bind(*args, **kwargs).arguments
                self.spans[idx].counts = counter(bound, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# exact counts, computed from each call's arguments and results


def _bootstrap_counts(bound, _result) -> dict:
    cfg, n = bound.get("cfg"), bound.get("n")
    if cfg is None or n is None:
        return {}
    return {"replicates": cfg.replicates, "rows_resampled": cfg.replicates * int(n)}


def _joint_counts(bound, _result) -> dict:
    net = bound.get("net")
    if net is None:
        return {}
    entries = math.prod(v.cardinality for v in net.variables)
    return {"entries": entries, "bytes_computed": 8 * entries}  # float64 entries


def _forward_sample_counts(bound, _result) -> dict:
    n = bound.get("n")
    return {} if n is None else {"rows": int(n)}


def _loaded_rows(_bound, result) -> dict:
    return {"rows": int(result.n_rows)}


def _text_bytes(_bound, result) -> dict:
    texts = result.values() if isinstance(result, dict) else [result]
    return {"bytes": sum(len(t.encode("utf-8")) for t in texts)}


def install(tracer: Tracer) -> None:
    """Patch every traced lookup site of the bncritic pipeline."""
    from bncritic import cli, corpus, critic, sample, score

    sites = [
        (cli, "load_network", "network.load_network", None),
        (cli, "network_id", "network.network_id", None),
        (critic, "network_id", "network.network_id", None),
        (sample, "load_dataset", "sample.load_dataset", _loaded_rows),
        (sample, "save_dataset", "sample.save_dataset", None),
        (sample, "forward_sample", "sample.forward_sample", _forward_sample_counts),
        (corpus, "forward_sample", "sample.forward_sample", _forward_sample_counts),
        (corpus, "run_study", "corpus.run_study", None),
        (corpus, "corpus_networks", "corpus.corpus_networks", None),
        (critic, "criticize", "critic.criticize", None),
        (critic, "bootstrap_null", "critic.bootstrap_null", _bootstrap_counts),
        (critic, "joint_enumerate", "infer.joint_enumerate", _joint_counts),
        (corpus, "joint_enumerate", "infer.joint_enumerate", _joint_counts),
        (critic.FitReport, "to_json", "critic.report", _text_bytes),
        (critic.FitReport, "summary_text", "critic.report", _text_bytes),
        (critic.FitReport, "plot_csvs", "critic.report", _text_bytes),
        (score, "weaver_surprise", "score.kernel", None),
        (score, "good_log_score", "score.kernel", None),
        (score, "ranked_probability_score", "score.kernel", None),
    ]
    for owner, attr, name, counter in sites:
        tracer.patch(owner, attr, name, counter)


ROOT_SPAN = "cli.main"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation whose root span is cli.main."""
    spans = tracer.spans
    roots = [s for s in spans if s.name == ROOT_SPAN and s.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} root span, found {len(roots)}")
    root = roots[0]
    root_idx = spans.index(root)

    def of(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in of(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in of(name))

    boot_s = total("critic.bootstrap_null")
    boot_rows = count("critic.bootstrap_null", "rows_resampled")
    top_level = sum(s.duration for s in spans if s.parent == root_idx)
    return {
        "critic.bootstrap_null.s": boot_s,
        "critic.bootstrap_null.calls": len(of("critic.bootstrap_null")),
        "critic.bootstrap_null.replicates": count("critic.bootstrap_null", "replicates"),
        "critic.bootstrap_null.rows_resampled": boot_rows,
        "critic.bootstrap_null.ns_per_row": 1e9 * boot_s / boot_rows if boot_rows else 0.0,
        "critic.criticize.self_s": sum(s.self_s for s in of("critic.criticize")),
        "critic.criticize.calls": len(of("critic.criticize")),
        "infer.joint_enumerate.s": total("infer.joint_enumerate"),
        "infer.joint_enumerate.calls": len(of("infer.joint_enumerate")),
        "infer.joint_enumerate.entries": count("infer.joint_enumerate", "entries"),
        "infer.joint_enumerate.bytes_computed": count("infer.joint_enumerate", "bytes_computed"),
        "sample.load_dataset.s": total("sample.load_dataset"),
        "sample.load_dataset.rows": count("sample.load_dataset", "rows"),
        "sample.forward_sample.s": total("sample.forward_sample"),
        "sample.forward_sample.calls": len(of("sample.forward_sample")),
        "sample.forward_sample.rows": count("sample.forward_sample", "rows"),
        "sample.save_dataset.s": total("sample.save_dataset"),
        "critic.report.s": total("critic.report"),
        "critic.report.bytes": count("critic.report", "bytes"),
        "network.load_network.s": total("network.load_network"),
        "network.network_id.calls": len(of("network.network_id")),
        "network.network_id.s": total("network.network_id"),
        "corpus.run_study.s": total("corpus.run_study"),
        "corpus.corpus_networks.s": total("corpus.corpus_networks"),
        "score.calls": len(of("score.kernel")),
        "cli.self_s": root.self_s,
        "trace.coverage": top_level / root.duration,
    }
