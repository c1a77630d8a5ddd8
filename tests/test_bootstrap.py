"""Bootstrap kernel: count-matrix replicates against a naive gather oracle,
bands shared between bootstrap_null and criticize, constant score columns."""

import numpy as np
import pytest

from bncritic.critic import (
    _CHUNK_ENTRIES,
    _DRAW_TAG,
    GLOBAL,
    Flag,
    StudyConfig,
    _replicate_measures,
    bootstrap_null,
    criticize,
)
from bncritic.network import LATENT, OBSERVABLE, Cpt, Network, Variable
from bncritic.sample import derive_seed, forward_sample, rng_from_seed
from bncritic.score import ScoreKind

KINDS = (ScoreKind.WEAVER_SURPRISE, ScoreKind.GOOD_LOG, ScoreKind.RANKED_PROBABILITY)


def _naive_replicates(pool_scores, cfg, n):
    """Per-replicate gather and mean over the kernel's documented index stream."""
    rng = rng_from_seed(derive_seed(cfg.master_seed, _DRAW_TAG, n))
    idx = rng.integers(0, pool_scores.shape[0], size=(cfg.replicates, n))
    return np.stack([pool_scores[row].mean(axis=0) for row in idx])


class TestReplicateKernel:
    @pytest.mark.parametrize("pool,n,replicates", [
        (300, 50, 100),       # n < pool, 100 % per-chunk count != 0
        (40, 700, 130),       # n > pool
        (200, 1, 100),        # n = 1
        (25, 3 * _CHUNK_ENTRIES // 2, 100),  # one replicate spans two index blocks
    ])
    def test_matches_naive_gather(self, pool, n, replicates):
        per_chunk = max(1, _CHUNK_ENTRIES // max(n, pool))
        assert per_chunk == 1 or replicates % per_chunk != 0
        scores = np.random.default_rng(pool + n).normal(size=(pool, 7)) * 3.0 + 1.0
        cfg = StudyConfig(replicates=replicates, pool_size=pool, master_seed=11)
        got = _replicate_measures(scores, cfg, n)
        want = _naive_replicates(scores, cfg, n)
        assert got.shape == (replicates, 7)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_columns_share_draws(self):
        scores = np.random.default_rng(3).normal(size=(100, 4))
        cfg = StudyConfig(replicates=100, pool_size=100, master_seed=2)
        both = _replicate_measures(scores, cfg, 60)
        first = _replicate_measures(scores[:, :2], cfg, 60)
        np.testing.assert_allclose(both[:, :2], first, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kinds", [KINDS, KINDS[:1], KINDS[1:], (KINDS[2],)])
def test_bootstrap_null_equals_criticize_bands(md, kinds):
    cfg = StudyConfig(sample_sizes=(50, 250), replicates=100, master_seed=17)
    obs = forward_sample(md, 250, 5)
    report = criticize(md, obs, cfg, kinds)
    for kind in kinds:
        for n in cfg.sample_sizes:
            for level, band in bootstrap_null(md, cfg, kind, n).items():
                cell = report.cell(kind, n, level).band
                assert abs(cell.lower - band.lower) <= 1e-12
                assert abs(cell.upper - band.upper) <= 1e-12
                assert cell.replicates == band.replicates == cfg.replicates


def _uniform_binary(name):
    return Variable(name, OBSERVABLE, ("0", "1")), Cpt(name, (), ((0.5, 0.5),))


class TestConstantScoreColumns:
    """A 2-state uniform observable independent of everything else has the same
    LOO predictive (0.5, 0.5) on every row, so each index scores it as a
    constant.  Under GoodLog that constant is log(0.5 ln 2) ~ -1.0597, whose
    sum over n rows divided by n need not round back to itself."""

    def test_independent_uniform_net_has_exact_zero_width_bands(self):
        pairs = [_uniform_binary(f"X{i}") for i in range(9)]
        net = Network(tuple(v for v, _ in pairs), tuple(c for _, c in pairs))
        obs = forward_sample(net, 1000, 3)
        report = criticize(net, obs, StudyConfig(replicates=100, master_seed=4))
        assert len(report.cells) == 3 * 5 * 10
        for c in report.cells:
            assert c.band.lower == c.band.upper == c.observed, c
            assert c.flag == Flag.NOT_SIGNIFICANT

    def test_constant_column_beside_informative_ones(self):
        z, z_cpt = _uniform_binary("Z")
        net = Network(
            (
                Variable("skill", LATENT, ("low", "high")),
                Variable("Y1", OBSERVABLE, ("bad", "ok", "good")),
                Variable("Y2", OBSERVABLE, ("bad", "ok", "good")),
                z,
            ),
            (
                Cpt("skill", (), ((0.4, 0.6),)),
                Cpt("Y1", ("skill",), ((0.7, 0.2, 0.1), (0.1, 0.3, 0.6))),
                Cpt("Y2", ("skill",), ((0.5, 0.3, 0.2), (0.2, 0.2, 0.6))),
                z_cpt,
            ),
        )
        obs = forward_sample(net, 1000, 9)
        report = criticize(net, obs, StudyConfig(replicates=100, master_seed=8))
        for kind in KINDS:
            for n in (50, 100, 250, 500, 1000):
                cell = report.cell(kind, n, "Z")
                assert cell.band.lower == cell.band.upper == cell.observed
                assert cell.flag == Flag.NOT_SIGNIFICANT
                assert report.cell(kind, n, GLOBAL).band.lower < report.cell(kind, n, GLOBAL).band.upper
