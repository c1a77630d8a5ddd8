"""Fit pipeline: score matrices, measures, bootstrap bands, flags."""

import math

import numpy as np
import pytest

from bncritic.critic import (
    GLOBAL,
    Correction,
    Flag,
    ScoreMatrix,
    StudyConfig,
    TailMode,
    _bands_from_replicates,
    _nearest_rank,
    _score_tables,
    bootstrap_null,
    criticize,
    measures,
    score_dataset,
)
from bncritic.errors import (
    DatasetMismatchError,
    EmptyMatrixError,
    InsufficientRowsError,
)
from bncritic.infer import joint_enumerate, joint_posterior
from bncritic.network import OBSERVABLE, Cpt, Network, Variable
from bncritic.sample import Dataset, forward_sample
from bncritic.score import (
    ScoreKind,
    good_log_score,
    ranked_probability_score,
    weaver_surprise,
)

RPS = ScoreKind.RANKED_PROBABILITY
WEAVER = ScoreKind.WEAVER_SURPRISE
GOODLOG = ScoreKind.GOOD_LOG


class TestMeasures:
    def test_two_by_two(self):
        m = ScoreMatrix(RPS, np.array([[1.0, 3.0], [5.0, 7.0]]), ("a", "b"))
        out = {x.level: x.value for x in measures(m)}
        assert out == {"a": 3.0, "b": 5.0, GLOBAL: 4.0}

    def test_one_by_one(self):
        m = ScoreMatrix(RPS, np.array([[0.25]]), ("a",))
        out = {x.level: x.value for x in measures(m)}
        assert out == {"a": 0.25, GLOBAL: 0.25}

    def test_constant_matrix(self):
        m = ScoreMatrix(RPS, np.full((10, 3), 0.7), ("a", "b", "c"))
        assert all(abs(x.value - 0.7) < 1e-12 for x in measures(m))

    def test_empty_matrix(self):
        m = ScoreMatrix(RPS, np.empty((0, 2)), ("a", "b"))
        with pytest.raises(EmptyMatrixError):
            measures(m)

    def test_grand_mean_identity(self, md):
        ds = forward_sample(md, 200, 5)
        m = score_dataset(md, ds, RPS)
        out = {x.level: x.value for x in measures(m)}
        node_vals = [v for lvl, v in out.items() if lvl != GLOBAL]
        assert abs(out[GLOBAL] - np.mean(node_vals)) < 1e-12


class TestScoreDataset:
    @pytest.mark.parametrize("kind", [WEAVER, GOODLOG, RPS])
    def test_matches_scalar_oracle(self, md, kind):
        """Table-gather path equals cell-wise recomputation from the joint oracle."""
        ds = forward_sample(md, 25, 13)
        matrix = score_dataset(md, ds, kind)
        jt = joint_enumerate(md)
        obs = [v.name for v in md.observables]
        baselines = {
            name: joint_posterior(jt, {}, name).probabilities for name in obs
        }
        for i, row in enumerate(ds.rows):
            for k, name in enumerate(obs):
                ev = {o: int(s) for o, s in zip(obs, row) if o != name}
                pred = joint_posterior(jt, ev, name).probabilities
                if kind == WEAVER:
                    want = weaver_surprise(pred, int(row[k]))
                elif kind == GOODLOG:
                    want = good_log_score(pred, int(row[k]), baselines[name])
                else:
                    want = ranked_probability_score(pred, int(row[k]))
                assert abs(matrix.values[i, k] - want) < 1e-9

    def test_rps_cells_in_unit_interval(self, md):
        ds = forward_sample(md, 200, 1)
        matrix = score_dataset(md, ds, RPS)
        assert matrix.values.min() >= 0.0 and matrix.values.max() <= 1.0

    def test_column_mismatch(self, md):
        ds = Dataset(("X", "Y"), np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(DatasetMismatchError):
            score_dataset(md, ds, RPS)

    def test_single_observable_single_row(self, single_obs_net):
        ds = Dataset(("X",), np.array([[2]]))
        matrix = score_dataset(single_obs_net, ds, WEAVER)
        # prior is uniform, so the surprise index is exactly 1
        assert matrix.values.shape == (1, 1)
        assert abs(matrix.values[0, 0] - 1.0) < 1e-12


class TestPercentiles:
    def test_nearest_rank_1_to_1000(self):
        vals = np.arange(1.0, 1001.0)
        assert _nearest_rank(vals, 0.025) == 25.0
        assert _nearest_rank(vals, 0.975) == 975.0

    def test_nearest_rank_small(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        assert _nearest_rank(vals, 0.025) == 1.0
        assert _nearest_rank(vals, 0.5) == 2.0
        assert _nearest_rank(vals, 1.0) == 4.0

    def test_bands_from_1_to_1000_replicates(self):
        rep = np.tile(np.arange(1.0, 1001.0)[:, None], (1, 2))  # one node + global
        cfg = StudyConfig()
        bands = _bands_from_replicates(rep, ("a",), cfg, RPS)
        assert bands["a"].lower == 25.0 and bands["a"].upper == 975.0
        assert bands[GLOBAL].lower == 25.0 and bands[GLOBAL].upper == 975.0


class TestBootstrapNull:
    def test_deterministic(self, md):
        cfg = StudyConfig(master_seed=99, replicates=100)
        a = bootstrap_null(md, cfg, RPS, 50)
        b = bootstrap_null(md, cfg, RPS, 50)
        assert a == b

    def test_band_ordering(self, md):
        cfg = StudyConfig(master_seed=4, replicates=200)
        for level, band in bootstrap_null(md, cfg, RPS, 100).items():
            assert band.lower <= band.upper

    def test_constant_statistic_collapses_band(self):
        # deterministic observable: every sampled row scores identically
        net = Network(
            (Variable("X", OBSERVABLE, ("a", "b")),),
            (Cpt("X", (), ((1.0, 0.0),)),),
        )
        cfg = StudyConfig(master_seed=0, replicates=100)
        bands = bootstrap_null(net, cfg, RPS, 50)
        for band in bands.values():
            assert band.lower == band.upper

    def test_one_tailed_band_sides(self, md):
        cfg = StudyConfig(master_seed=1, replicates=100, tail=TailMode.ONE_TAILED_MISFIT)
        rps_band = bootstrap_null(md, cfg, RPS, 50)[GLOBAL]
        assert rps_band.upper == math.inf and math.isfinite(rps_band.lower)
        weaver_band = bootstrap_null(md, cfg, WEAVER, 50)[GLOBAL]
        assert weaver_band.lower == -math.inf and math.isfinite(weaver_band.upper)

    def test_per_family_widens_node_bands_only(self, md):
        base = StudyConfig(master_seed=2, replicates=1000)
        corrected = StudyConfig(master_seed=2, replicates=1000,
                                correction=Correction.PER_FAMILY)
        plain = bootstrap_null(md, base, RPS, 100)
        adj = bootstrap_null(md, corrected, RPS, 100)
        assert adj[GLOBAL] == plain[GLOBAL]
        for v in md.observables:
            assert adj[v.name].lower <= plain[v.name].lower
            assert adj[v.name].upper >= plain[v.name].upper


class TestCriticize:
    def test_deterministic_report(self, md):
        obs = forward_sample(md, 1000, 77)
        cfg = StudyConfig(master_seed=5, replicates=100)
        a = criticize(md, obs, cfg)
        b = criticize(md, obs, cfg)
        assert a.to_json() == b.to_json()

    def test_insufficient_rows(self, md):
        obs = forward_sample(md, 100, 1)
        with pytest.raises(InsufficientRowsError):
            criticize(md, obs, StudyConfig())

    def test_column_mismatch(self, md):
        obs = Dataset(("A", "B", "C", "D", "E"), np.zeros((1000, 5), dtype=np.int64))
        with pytest.raises(DatasetMismatchError):
            criticize(md, obs, StudyConfig(replicates=100))

    def test_nesting_of_observed_measures(self, md):
        obs = forward_sample(md, 1000, 8)
        cfg = StudyConfig(sample_sizes=(50, 100), replicates=100, master_seed=3)
        report = criticize(md, obs, cfg, [RPS])
        sub = score_dataset(md, Dataset(obs.columns, obs.rows[:50]), RPS)
        want = {x.level: x.value for x in measures(sub)}
        for level, value in want.items():
            assert abs(report.cell(RPS, 50, level).observed - value) < 1e-12

    def test_flags_consistent_with_bands(self, md):
        obs = forward_sample(md, 1000, 21)
        report = criticize(md, obs, StudyConfig(master_seed=9, replicates=100))
        for c in report.cells:
            if c.flag == Flag.NOT_SIGNIFICANT:
                assert c.band.lower <= c.observed <= c.band.upper
            else:
                assert c.observed < c.band.lower or c.observed > c.band.upper

    def test_more_replicates_do_not_inflate_false_flags(self, md):
        """Widening 1000 -> 4000 replicates moves the flag rate by at most
        Monte Carlo noise (5 percentage points over 20 seeds)."""
        from bncritic.sample import derive_seed

        rates = []
        for replicates in (1000, 4000):
            flagged = total = 0
            for seed in range(20):
                obs = forward_sample(md, 1000, derive_seed(seed, 301))
                cfg = StudyConfig(master_seed=derive_seed(seed, 302),
                                  replicates=replicates)
                report = criticize(md, obs, cfg, [RPS])
                for c in report.cells:
                    total += 1
                    flagged += c.flag != Flag.NOT_SIGNIFICANT
            rates.append(flagged / total)
        assert rates[1] <= rates[0] + 0.05

    def test_report_serialization_layout(self, md):
        obs = forward_sample(md, 1000, 2)
        cfg = StudyConfig(sample_sizes=(50,), replicates=100)
        report = criticize(md, obs, cfg, [RPS])
        doc_text = report.to_json()
        assert '"posited_network"' in doc_text
        csvs = report.plot_csvs()
        assert ("rps", GLOBAL) in csvs
        body = csvs[("rps", GLOBAL)].splitlines()
        assert body[1] == "n,observed,lower,upper"
        summary = report.summary_text()
        assert "[rps]" in summary


class TestStudyConfig:
    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            StudyConfig(replicates=99)

    def test_round_trip(self):
        cfg = StudyConfig(sample_sizes=(50, 100), replicates=250,
                          tail=TailMode.ONE_TAILED_MISFIT,
                          correction=Correction.PER_FAMILY, master_seed=12)
        assert StudyConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("kw", [
        {"sample_sizes": ()},
        {"sample_sizes": (50, 100, 50)},
        {"sample_sizes": (0,)},
        {"sample_sizes": (50, -1)},
        {"pool_size": 0},
        {"master_seed": -1},
        {"master_seed": 2**64},
    ])
    def test_rejects_invalid_fields(self, kw):
        with pytest.raises(ValueError):
            StudyConfig(**kw)

    def test_seed_range_endpoints_accepted(self):
        assert StudyConfig(master_seed=0).master_seed == 0
        assert StudyConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="replicate"):
            StudyConfig.from_dict({"replicate": 200})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError):
            StudyConfig.from_dict([50, 100])
