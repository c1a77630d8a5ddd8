"""The benchmark's workloads: seeded inputs and the CLI call of one operation.

Every workload is a closed loop with one client: one process, and the next
operation starts when the previous one returns.  Inputs depend only on the
workload seed; the program sees only the files written here (network JSON and
labeled CSV) and its command-line arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bncritic as bn
from bncritic import corpus
from bncritic.network import LATENT, OBSERVABLE, Cpt, Network, Variable

KINDS = tuple(bn.ScoreKind)


@dataclass(frozen=True)
class Expected:
    """What a correct output tree of one operation contains."""

    reports: dict  # report directory relative to the tree -> posited Network
    sizes: tuple[int, ...]
    replicates: int
    extra_files: tuple[str, ...]  # further files the tree must hold
    data: Path | None  # labeled CSV the observed measures come from; None = tree's observed.csv


def _subseed(seed: int, tag: int) -> int:
    """A 64-bit seed for one input of the workload, independent across tags."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0])


class Workload:
    name: str

    def setup(self, seed: int, inputs: Path) -> None:
        """Generate and write the inputs for `seed` into `inputs`."""

    def argv(self, seed: int, inputs: Path, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def expected(self, inputs: Path) -> Expected:
        raise NotImplementedError


class Study(Workload):
    name = "study"

    def argv(self, seed, inputs, out_dir):
        return ["study", "--seed", str(seed), "--out-dir", str(out_dir)]

    def expected(self, inputs):
        cfg = bn.StudyConfig()
        reports = {f"models/{corpus.model_slug(m)}": corpus.load_corpus_network(m)
                   for m in corpus.MODEL_NAMES}
        extra = ("study_config.json", "observed.csv", "observed.csv.meta.json",
                 *(f"grid_{k.value}.{ext}" for k in KINDS for ext in ("txt", "json")))
        return Expected(reports, cfg.sample_sizes, cfg.replicates, extra, None)


class Criticize(Workload):
    """bncritic criticize net.json data.csv, with the workload's sizes and replicates."""

    sizes: tuple[int, ...]
    replicates: int

    def argv(self, seed, inputs, out_dir):
        return ["criticize", str(inputs / "net.json"), str(inputs / "data.csv"),
                "--sizes", ",".join(map(str, self.sizes)),
                "--replicates", str(self.replicates), "--seed", str(seed),
                "--out-dir", str(out_dir)]

    def expected(self, inputs):
        net = bn.load_network((inputs / "net.json").read_bytes())
        return Expected({".": net}, self.sizes, self.replicates, (), inputs / "data.csv")


DIRICHLET_ALPHA = 2.0


def wide_network(seed: int) -> Network:
    """Theta1 -> Theta2; items 1-4 load on Theta1, 5-8 on Theta2, 9-10 on both.

    Two 3-state latents and ten 4-state items give 3*3*4**10 = 9,437,184 joint
    entries, just under infer.JOINT_GUARD.  The structure is fixed so that the
    cost of an operation does not depend on the seed; every CPT row is a
    seeded Dirichlet draw.
    """
    rng = np.random.Generator(np.random.Philox(key=_subseed(seed, 1)))
    latent = ("low", "mid", "high")
    items = [f"Item{i:02d}" for i in range(1, 11)]
    variables = [Variable("Theta1", LATENT, latent), Variable("Theta2", LATENT, latent)]
    variables += [Variable(v, OBSERVABLE, ("a", "b", "c", "d")) for v in items]
    parents = {"Theta1": (), "Theta2": ("Theta1",)}
    for i, v in enumerate(items):
        parents[v] = ("Theta1",) if i < 4 else ("Theta2",) if i < 8 else ("Theta1", "Theta2")
    cpts = []
    for var in variables:
        table = rng.dirichlet(np.full(var.cardinality, DIRICHLET_ALPHA),
                              size=3 ** len(parents[var.name]))
        cpts.append(Cpt(var.name, parents[var.name], tuple(tuple(map(float, r)) for r in table)))
    return Network(tuple(variables), tuple(cpts))


class Wide(Criticize):
    name = "wide"
    sizes = (100, 1000)
    replicates = 100

    def setup(self, seed, inputs):
        net = wide_network(seed)
        (inputs / "net.json").write_bytes(bn.save_network(net))
        data = bn.forward_sample(net, max(self.sizes), _subseed(seed, 2))
        (inputs / "data.csv").write_text(bn.save_dataset(data, net))


class Long(Criticize):
    name = "long"
    sizes = (10_000, 100_000)
    replicates = 100
    model = "Strong Edge Exclusion"  # a misfit model, so that the report flags cells

    def setup(self, seed, inputs):
        (inputs / "net.json").write_bytes(bn.save_network(corpus.load_corpus_network(self.model)))
        base = corpus.load_corpus_network("Data Generation")
        data = bn.forward_sample(base, max(self.sizes), _subseed(seed, 3))
        (inputs / "data.csv").write_text(bn.save_dataset(data, base))


WORKLOADS = {w.name: w for w in (Study(), Wide(), Long())}
