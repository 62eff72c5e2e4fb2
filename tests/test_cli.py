import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sfexplain
import sfexplain.evaluate
from sfexplain.cli import RunConfig, main
from sfexplain.config import MalformedConfig
from sfexplain.dataset import Dataset, save_csv
from sfexplain.density import EgmmConfig
from sfexplain.evaluate import EvalConfig
from sfexplain.forest import ForestConfig
from sfexplain.seeding import TAG_EGMM, derive_seed

SMALL_CONFIG = {
    "seed": 5,
    "egmm": {
        "members_per_k": 2,
        "component_counts": [2],
        "retention_quantile": 0.1,
        "em_max_iters": 100,
        "em_tol": 1e-6,
        "seed": 5,
    },
    "forest": {"tree_count": 20, "max_depth": 8, "min_leaf": 2, "seed": 5},
    "eval": {
        "top_fraction": 0.5,
        "random_repeats": 3,
        "methods": ["indmarg", "seqmarg", "random"],
        "seed": 5,
    },
}


def write_dataset_csv(path, rng, n_normal=120, n_anomaly=12, n_features=3, shift=4.0):
    normal = rng.normal(size=(n_normal, n_features))
    anomaly = rng.normal(loc=shift, size=(n_anomaly, n_features))
    points = np.vstack([normal, anomaly])
    labels = np.concatenate([np.zeros(n_normal, bool), np.ones(n_anomaly, bool)])
    ds = Dataset(points=points, labels=labels, feature_names=tuple(f"f{i}" for i in range(n_features)))
    save_csv(ds, path)
    return ds


def write_config(tmp_path, config=SMALL_CONFIG):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def write_mother_csv(path, rng, per_class=120):
    rows = ["x,y,cls"]
    for cls in ("n", "a"):
        for _ in range(per_class):
            u, v = rng.normal(size=2)
            rows.append(f"{float(u)!r},{float(v)!r},{cls}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestFit:
    def test_default_config_retention_message(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        write_dataset_csv(csv_path, np.random.default_rng(0), n_normal=150, n_anomaly=10, n_features=2)
        model_out = tmp_path / "model.json"
        code = main(["fit", str(csv_path), "-o", str(model_out), "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        retained = int(out.split("retained ")[1].split(" of")[0])
        assert out.strip().endswith("of 45 members")
        assert retained >= 41
        assert model_out.exists()

    def test_corrupt_csv_fails_with_message(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b\n1,2\n")
        code = main(["fit", str(csv_path), "-o", str(tmp_path / "m.json")])
        assert code != 0
        assert "no column named" in capsys.readouterr().err

    def test_same_seed_gives_identical_model_files(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        write_dataset_csv(csv_path, np.random.default_rng(1))
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["fit", str(csv_path), "-o", str(out1), "--config", config]) == 0
        assert main(["fit", str(csv_path), "-o", str(out2), "--config", config]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_module_entry_point_matches_main(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path, np.random.default_rng(0), n_normal=150, n_anomaly=10, n_features=2)
        via_main, via_module = tmp_path / "main.json", tmp_path / "module.json"
        assert main(["fit", str(csv_path), "-o", str(via_main), "--seed", "3"]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(sfexplain.__file__).resolve().parents[1]))
        subprocess.run(
            [sys.executable, "-m", "sfexplain.cli", "fit", str(csv_path), "-o", str(via_module), "--seed", "3"],
            env=env,
            check=True,
            capture_output=True,
            timeout=300,
        )
        assert via_module.read_bytes() == via_main.read_bytes()


class TestExplain:
    def fit_model(self, tmp_path, rng, n_features=3, **kwargs):
        csv_path = tmp_path / "train.csv"
        write_dataset_csv(csv_path, rng, n_features=n_features, **kwargs)
        config = write_config(tmp_path)
        model = tmp_path / "model.json"
        assert main(["fit", str(csv_path), "-o", str(model), "--config", config]) == 0
        return csv_path, model

    def test_rows_have_requested_length(self, tmp_path):
        rng = np.random.default_rng(2)
        csv_path, model = self.fit_model(tmp_path, rng, n_features=7)
        out = tmp_path / "sfe.csv"
        code = main(
            [
                "explain", str(model), str(csv_path),
                "--method", "seqmarg", "--k", "3", "-o", str(out),
                "--top-fraction", "0.2",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "point_index,method,order,step_scores"
        assert len(lines) > 1
        for line in lines[1:]:
            order = line.split(",")[2]
            assert len(order.split(";")) == 3

    def test_unknown_method_rejected_with_choices(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        csv_path, model = self.fit_model(tmp_path, rng)
        with pytest.raises(SystemExit) as err:
            main(["explain", str(model), str(csv_path), "--method", "frobnicate", "-o", "x.csv"])
        assert err.value.code != 0
        stderr = capsys.readouterr().err
        for name in ("indmarg", "seqmarg", "inddo", "seqdo", "random"):
            assert name in stderr

    def test_model_without_members_fails_with_message(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        csv_path, model = self.fit_model(tmp_path, rng)
        payload = json.loads(model.read_text())
        del payload["members"]
        model.write_text(json.dumps(payload))
        code = main(["explain", str(model), str(csv_path), "--method", "seqmarg", "-o", str(tmp_path / "sfe.csv")])
        assert code == 1
        assert "malformed model file" in capsys.readouterr().err

    @pytest.mark.parametrize("n_features, n", [(2, 2.0), (1, True)])
    def test_model_with_non_integer_n_fails_with_message(self, tmp_path, capsys, n_features, n):
        rng = np.random.default_rng(6)
        csv_path, model = self.fit_model(tmp_path, rng, n_features=n_features)
        payload = json.loads(model.read_text())
        payload["n"] = n
        model.write_text(json.dumps(payload))
        out = tmp_path / "sfe.csv"
        code = main(["explain", str(model), str(csv_path), "--method", "seqmarg", "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "n must be a JSON integer" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("point", ["-1", "9999"])
    def test_point_outside_dataset_rejected(self, tmp_path, capsys, point):
        rng = np.random.default_rng(7)
        csv_path, model = self.fit_model(tmp_path, rng)
        out = tmp_path / "sfe.csv"
        code = main(
            ["explain", str(model), str(csv_path), "--method", "indmarg", "-o", str(out), "--point", point]
        )
        assert code == 1
        assert "--point indices must lie in [0, 132)" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_top_fraction_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        csv_path, model = self.fit_model(tmp_path, rng)
        out = tmp_path / "sfe.csv"
        code = main(
            [
                "explain", str(model), str(csv_path),
                "--method", "indmarg", "-o", str(out), "--top-fraction", "-0.5",
            ]
        )
        assert code == 1
        assert "top_fraction must be in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_deviant_feature_listed_first(self, tmp_path):
        rng = np.random.default_rng(4)
        train_csv = tmp_path / "train.csv"
        write_dataset_csv(train_csv, rng, n_normal=200, n_anomaly=1, n_features=4, shift=0.0)
        config = write_config(tmp_path)
        model = tmp_path / "model.json"
        assert main(["fit", str(train_csv), "-o", str(model), "--config", config]) == 0

        probe = np.zeros((2, 4))
        probe[0, 2] = 10.0
        ds = Dataset(points=probe, labels=[True, False], feature_names=("f0", "f1", "f2", "f3"))
        probe_csv = tmp_path / "probe.csv"
        save_csv(ds, probe_csv)
        out = tmp_path / "sfe.csv"
        code = main(
            ["explain", str(model), str(probe_csv), "--method", "indmarg", "--point", "0", "-o", str(out)]
        )
        assert code == 0
        row = out.read_text().strip().splitlines()[1]
        assert row.split(",")[2].split(";")[0] == "2"


class TestEvaluate:
    def run_eval(self, tmp_path, out_name, extra=(), config=SMALL_CONFIG):
        csv_path = tmp_path / "bench.csv"
        write_dataset_csv(csv_path, np.random.default_rng(5), n_normal=80, n_anomaly=10)
        config = write_config(tmp_path, config)
        out_dir = tmp_path / out_name
        code = main(
            ["evaluate", str(csv_path), "-o", str(out_dir), "--config", config, *extra]
        )
        return code, out_dir

    def test_summary_has_row_per_method(self, tmp_path, capsys):
        code, out_dir = self.run_eval(tmp_path, "run1")
        assert code == 0
        lines = (out_dir / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3
        assert (out_dir / "per_point.csv").exists()

    def test_fixed_seed_gives_identical_outputs(self, tmp_path):
        code1, dir1 = self.run_eval(tmp_path, "run1")
        code2, dir2 = self.run_eval(tmp_path, "run2")
        assert code1 == code2 == 0
        assert (dir1 / "summary.csv").read_bytes() == (dir2 / "summary.csv").read_bytes()
        assert (dir1 / "per_point.csv").read_bytes() == (dir2 / "per_point.csv").read_bytes()

    def test_forest_and_eval_section_seeds_are_ignored(self, tmp_path):
        code, base = self.run_eval(tmp_path, "base")
        assert code == 0
        for section in ("forest", "eval"):
            config = json.loads(json.dumps(SMALL_CONFIG))
            config[section]["seed"] = 7
            code, out_dir = self.run_eval(tmp_path, section, config=config)
            assert code == 0
            for name in ("summary.csv", "per_point.csv"):
                assert (out_dir / name).read_bytes() == (base / name).read_bytes()

    def test_seed_flag_overrides_file_egmm_seed(self, tmp_path, monkeypatch):
        seeds = []
        fit = sfexplain.evaluate.egmm_fit

        def recording_fit(points, config, **kwargs):
            seeds.append(config.seed)
            return fit(points, config, **kwargs)

        monkeypatch.setattr(sfexplain.evaluate, "egmm_fit", recording_fit)
        code, _ = self.run_eval(tmp_path, "run_seed", extra=("--seed", "9"))
        assert code == 0
        assert SMALL_CONFIG["egmm"]["seed"] != 9
        assert seeds == [derive_seed(9, TAG_EGMM)]

    def test_oracle_detector_stars_methods(self, tmp_path):
        code, out_dir = self.run_eval(tmp_path, "run_star", extra=("--oracle-detector",))
        assert code == 0
        text = (out_dir / "summary.csv").read_text()
        assert "indmarg*" in text
        assert "seqmarg*" in text
        assert "random*" not in text

    def test_analyst_csv_with_reordered_columns_fails_with_message(self, tmp_path, capsys):
        analyst_csv = tmp_path / "analyst.csv"
        pool = write_dataset_csv(analyst_csv, np.random.default_rng(6), n_normal=80, n_anomaly=10)
        save_csv(dataclasses.replace(pool, feature_names=("f1", "f0", "f2")), analyst_csv)
        code, out_dir = self.run_eval(tmp_path, "run_columns", extra=("--analyst-csv", str(analyst_csv)))
        assert code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: the analyst's columns ['f1', 'f0', 'f2'] are not the benchmark's ['f0', 'f1', 'f2']"
        ]
        assert "Traceback" not in err
        assert not out_dir.exists()


class TestBenchgen:
    def test_anomaly_count(self, tmp_path):
        mother = write_mother_csv(tmp_path / "mother.csv", np.random.default_rng(6))
        out = tmp_path / "bench.csv"
        code = main(
            [
                "benchgen", mother, "-o", str(out), "--label-column", "cls",
                "--anomaly-class", "a", "--fraction", "0.05", "--size", "100", "--seed", "1",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 101
        assert sum(1 for line in lines[1:] if line.endswith(",anomaly")) == 5

    def test_unknown_class_fails(self, tmp_path, capsys):
        mother = write_mother_csv(tmp_path / "mother.csv", np.random.default_rng(7))
        code = main(
            [
                "benchgen", mother, "-o", str(tmp_path / "b.csv"), "--label-column", "cls",
                "--anomaly-class", "zzz", "--fraction", "0.05", "--size", "100",
            ]
        )
        assert code != 0
        assert "not present" in capsys.readouterr().err

    def test_same_seed_identical_file(self, tmp_path):
        mother = write_mother_csv(tmp_path / "mother.csv", np.random.default_rng(8))
        args = [
            "benchgen", mother, "--label-column", "cls",
            "--anomaly-class", "a", "--fraction", "0.1", "--size", "80", "--seed", "9",
        ]
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rest_out_written(self, tmp_path):
        mother = write_mother_csv(tmp_path / "mother.csv", np.random.default_rng(10))
        out = tmp_path / "b.csv"
        rest = tmp_path / "rest.csv"
        code = main(
            [
                "benchgen", mother, "-o", str(out), "--label-column", "cls",
                "--anomaly-class", "a", "--fraction", "0.1", "--size", "50",
                "--seed", "2", "--rest-out", str(rest),
            ]
        )
        assert code == 0
        assert rest.exists()
        assert len(rest.read_text().strip().splitlines()) == 1 + 240 - 50


class TestRunConfig:
    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text('{"seed": 1, "bogus": {}}')
        csv_path = tmp_path / "d.csv"
        write_dataset_csv(csv_path, np.random.default_rng(11))
        code = main(["fit", str(csv_path), "-o", str(tmp_path / "m.json"), "--config", str(bad)])
        assert code != 0
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"egmm": 5}',
            '{"eval": {"thresholds": {}}}',
            '{"forest": {"tree_count": "a"}}',
        ],
    )
    def test_malformed_section_fails_with_message(self, tmp_path, capsys, text):
        bad = tmp_path / "c.json"
        bad.write_text(text)
        csv_path = tmp_path / "d.csv"
        write_dataset_csv(csv_path, np.random.default_rng(12))
        code = main(["fit", str(csv_path), "-o", str(tmp_path / "m.json"), "--config", str(bad)])
        assert code == 1
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "text, section",
        [
            ('{"seed": 3.7}', "RunConfig"),
            ('{"seed": true}', "RunConfig"),
            ('{"seed": "3"}', "RunConfig"),
            ('{"eval": {"methods": "seqmarg"}}', "EvalConfig"),
            ('{"eval": {"thresholds": {"support": [[1]]}}}', "ThresholdDistribution"),
            ('{"eval": {"top_fraction": 2.0}}', "EvalConfig"),
            ('{"egmm": {"component_counts": []}}', "EgmmConfig"),
            ('{"egmm": {"seed": 3.7}}', "EgmmConfig"),
            ('{"forest": {"tree_count": 2.5}}', "ForestConfig"),
            ('{"eval": {"max_prefix": 2.0}}', "EvalConfig"),
            ('{"eval": {"random_repeats": true}}', "EvalConfig"),
            ('{"egmm": {"component_counts": [3.7]}}', "EgmmConfig"),
            ('{"egmm": {"em_tol": true}}', "EgmmConfig"),
            ('{"egmm": {"em_tol": NaN}}', "EgmmConfig"),
            ('{"egmm": {"em_tol": Infinity}}', "EgmmConfig"),
            pytest.param('{"egmm": {"em_tol": %s}}' % ("1" + "0" * 400), "EgmmConfig", id="em-tol-past-float64"),
            ('{"egmm": {"retention_quantile": false}}', "EgmmConfig"),
            ('{"egmm": {"component_counts": [true, 2]}}', "EgmmConfig"),
            (
                '{"egmm": {"em_tol": true, "retention_quantile": false, "component_counts": [true, 2]}}',
                "EgmmConfig",
            ),
            ('{"eval": {"top_fraction": true}}', "EvalConfig"),
            ('{"eval": {"thresholds": {"support": [[true, 1]]}}}', "ThresholdDistribution"),
            ('{"eval": {"thresholds": {"support": [[0.1, true]]}}}', "ThresholdDistribution"),
            ('{"eval": {"thresholds": {"support": [["0.1", 1]]}}}', "ThresholdDistribution"),
            pytest.param(
                '{"eval": {"thresholds": {"support": [[0.1, %s]]}}}' % ("1" + "0" * 400),
                "ThresholdDistribution",
                id="threshold-past-float64",
            ),
        ],
    )
    def test_rejected_value_names_its_section(self, tmp_path, capsys, text, section):
        bad = tmp_path / "c.json"
        bad.write_text(text)
        with pytest.raises(MalformedConfig, match=f"^malformed {section}: "):
            RunConfig.load(bad)
        csv_path = tmp_path / "d.csv"
        write_dataset_csv(csv_path, np.random.default_rng(14))
        for command, out in (("fit", tmp_path / "m.json"), ("evaluate", tmp_path / "report")):
            code = main([command, str(csv_path), "-o", str(out), "--config", str(bad)])
            assert code == 1
            err = capsys.readouterr().err
            assert f"error: malformed {section}: " in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_features_per_split_is_an_unknown_key(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text('{"forest": {"features_per_split": "sqrt"}}')
        csv_path = tmp_path / "d.csv"
        write_dataset_csv(csv_path, np.random.default_rng(15))
        code = main(["fit", str(csv_path), "-o", str(tmp_path / "m.json"), "--config", str(bad)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: unknown config keys for ForestConfig: ['features_per_split']"]

    def test_readme_config_matches_the_dataclasses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "c.json"
        path.write_text(block)
        config = RunConfig.load(path)
        assert config == RunConfig(
            seed=7,
            egmm=EgmmConfig(seed=7),
            forest=ForestConfig(seed=7),
            eval=EvalConfig(seed=7),
        )
        raw = json.loads(block)
        for name in ("egmm", "forest", "eval"):
            assert set(raw[name]) == {f.name for f in dataclasses.fields(getattr(config, name))}

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("{}", RunConfig()),
            ('{"seed": 4}', RunConfig(seed=4)),
            ('{"egmm": null, "forest": null, "eval": null}', RunConfig()),
            ('{"eval": {"max_prefix": null}}', RunConfig(eval=EvalConfig(max_prefix=None))),
            ('{"eval": {"max_prefix": 3}}', RunConfig(eval=EvalConfig(max_prefix=3))),
        ],
    )
    def test_sectionless_and_null_configs_load(self, tmp_path, text, expected):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert RunConfig.load(path) == expected
