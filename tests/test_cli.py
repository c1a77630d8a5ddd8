"""Command-line surface: exit codes, file outputs, determinism."""

import json

import pytest

from bncritic import corpus
from bncritic.cli import main
from bncritic.network import save_network


@pytest.fixture(scope="module")
def md_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("nets") / "md.json"
    path.write_bytes(save_network(corpus.build_md_model()))
    return str(path)


@pytest.fixture(scope="module")
def small_dataset(md_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "obs.csv"
    assert main(["sample", md_file, "--n", "120", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


class TestValidateCommand:
    def test_valid_file(self, md_file):
        assert main(["validate", md_file]) == 0

    def test_cyclic_file(self, tmp_path, capsys):
        doc = {
            "variables": [
                {"name": "A", "role": "observable", "states": ["0", "1"]},
                {"name": "B", "role": "observable", "states": ["0", "1"]},
            ],
            "cpts": [
                {"child": "A", "parents": ["B"], "table": [[0.5, 0.5], [0.5, 0.5]]},
                {"child": "B", "parents": ["A"], "table": [[0.5, 0.5], [0.5, 0.5]]},
            ],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert "CYCLE" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self):
        assert main(["validate", "/no/such/file.json"]) == 2


class TestSampleCommand:
    def test_deterministic_bytes(self, md_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", md_file, "--n", "100", "--seed", "7", "--out", str(a)]) == 0
        assert main(["sample", md_file, "--n", "100", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_n_zero_header_only(self, md_file, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["sample", md_file, "--n", "0", "--seed", "1", "--out", str(out)]) == 0
        assert out.read_text() == "Patient1,Patient2,Patient3,Patient4,Patient5\n"

    def test_row_count_and_sidecar(self, md_file, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["sample", md_file, "--n", "1000", "--seed", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1001
        assert all(len(line.split(",")) == 5 for line in lines)
        meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
        assert meta["seed"] == 2 and meta["n"] == 1000
        assert "network_id" in meta and "config_hash" in meta


class TestScoreCommand:
    def _forecasts(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "p1,p2,p3,p4,observed\n"
            "0.25,0.25,0.25,0.25,0\n"
            "0.9,0.05,0.03,0.02,3\n"
        )
        return str(path)

    def test_rps(self, tmp_path, capsys):
        assert main(["score", self._forecasts(tmp_path), "--index", "rps"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "score"
        assert abs(float(lines[1]) - 0.7083333) < 1e-6

    def test_weaver(self, tmp_path, capsys):
        assert main(["score", self._forecasts(tmp_path), "--index", "weaver"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert abs(float(lines[1]) - 1.0) < 1e-9
        assert abs(float(lines[2]) - 40.69) < 1e-6

    def test_goodlog_requires_baseline(self, tmp_path):
        assert main(["score", self._forecasts(tmp_path), "--index", "goodlog"]) == 2

    def test_goodlog_with_baseline(self, tmp_path, capsys):
        rc = main(["score", self._forecasts(tmp_path), "--index", "goodlog",
                   "--baseline", "0.25,0.25,0.25,0.25"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert abs(float(lines[1]) - (-1.0596601)) < 1e-6


class TestCriticizeCommand:
    def test_outputs(self, md_file, small_dataset, tmp_path):
        out = tmp_path / "report"
        rc = main(["criticize", md_file, small_dataset,
                   "--sizes", "50,100", "--replicates", "100",
                   "--seed", "4", "--index", "rps", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert {c["n"] for c in report["cells"]} == {50, 100}
        assert (out / "summary.txt").exists()
        assert (out / "plots" / "rps_global.csv").exists()

    def test_deterministic_outputs(self, md_file, small_dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(["criticize", md_file, small_dataset,
                       "--sizes", "50", "--replicates", "100",
                       "--seed", "4", "--index", "rps", "--out-dir", str(out)])
            assert rc == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_oversized_sample_size(self, md_file, small_dataset, tmp_path):
        rc = main(["criticize", md_file, small_dataset,
                   "--sizes", "2000", "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_tail_and_correction_flags(self, md_file, small_dataset, tmp_path):
        rc = main(["criticize", md_file, small_dataset,
                   "--sizes", "50", "--replicates", "100", "--seed", "1",
                   "--index", "rps", "--tail", "one", "--correction", "per-family",
                   "--out-dir", str(tmp_path / "t")])
        assert rc == 0
        report = json.loads((tmp_path / "t" / "report.json").read_text())
        assert report["provenance"]["tail"] == "one_tailed_misfit"
        assert report["provenance"]["correction"] == "per_family"


class TestStudyCommand:
    def test_small_study_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sample_sizes": [50], "replicates": 100, "pool_size": 200,
            "tail": "two_tailed", "correction": "none", "master_seed": 5,
        }))
        out = tmp_path / "study"
        assert main(["study", "--config", str(cfg), "--index", "rps",
                     "--out-dir", str(out)]) == 0
        assert (out / "observed.csv").exists()
        assert (out / "grid_rps.txt").exists()
        grid = json.loads((out / "grid_rps.json").read_text())
        assert len(grid["rows"]) == 10
        models = sorted(p.name for p in (out / "models").iterdir())
        assert len(models) == 10 and "data_generation" in models

    @pytest.mark.parametrize("doc", [
        {"replicate": 100},
        {"sample_sizes": [50, 50]},
        {"pool_size": 0},
        [50, 100],
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["study", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()
