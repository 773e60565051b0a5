import json

import pytest

from ergodic_hjb.cli import main, run_pipeline
from ergodic_hjb.config import RunConfig, load_config, save_config
from ergodic_hjb.errors import ParameterError

SMALL_PROBLEM = {
    "dimension": 1,
    "x_ref": [0.0],
    "states": [
        {"gamma": 2.0, "a": {"form": "identity"}, "b": {"form": "constant", "value": [0.0]},
         "alpha": {"form": "constant", "c": 1.0},
         "f": {"form": "quadratic", "c0": 0.0, "weights": [1.0]}},
        {"gamma": 2.0, "a": {"form": "identity"}, "b": {"form": "constant", "value": [0.0]},
         "alpha": {"form": "constant", "c": 1.0},
         "f": {"form": "quadratic", "c0": 0.0, "weights": [1.0]}},
    ],
}


def small_config(**overrides):
    base = {
        "schema_version": 1,
        "problem": SMALL_PROBLEM,
        "grid": {"radius": 4.0, "h": 0.1},
        "method": "direct",
        "solver": {"tol_lambda": 1e-4},
        "lp": {"h": 0.5, "control_step": 0.5},
        "mc": {"horizon": 2.0, "dt": 1e-3, "paths": 128, "burn_in": 0.1,
               "control": "extracted", "sample_path": True},
        "audits": {"assumptions": True, "comparison": True, "coercive": True,
                   "gradient_bound": False},
        "seed": 5,
        "threads": 1,
    }
    base.update(overrides)
    return base


class TestConfig:
    def test_roundtrip(self, tmp_path):
        config = RunConfig.from_dict(small_config())
        path = tmp_path / "c.json"
        save_config(config, path)
        assert load_config(path).to_dict() == config.to_dict()

    def test_bundled_benchmark_loads(self):
        config = load_config("quadratic-1d")
        assert config.grid["radius"] == 6.0
        assert config.problem_spec().dimension == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig.from_dict(small_config(extra_knob=1))

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig.from_dict(small_config(method="magic"))

    def test_schema_version_checked(self):
        with pytest.raises(ParameterError):
            RunConfig.from_dict(small_config(schema_version=99))


class TestPipeline:
    def test_full_pipeline_artifacts(self, tmp_path):
        config = RunConfig.from_dict(small_config())
        code, summary = run_pipeline(config, out_dir=tmp_path)
        assert code == 0
        assert summary["audits"]["passed"]
        assert summary["lambda"]["value"] == pytest.approx(2**0.5, rel=0.02)
        for name in summary["files"].values():
            assert (tmp_path / name).exists()
        manifest = json.loads((tmp_path / "summary.json").read_text())
        assert manifest["lp"]["lambda_bar"] == pytest.approx(2**0.5, rel=0.05)

    def test_pipeline_reruns_bit_identical_across_threads(self, tmp_path):
        config = small_config()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        code1, _ = run_pipeline(RunConfig.from_dict({**config, "threads": 1}), out_dir=out1)
        code2, _ = run_pipeline(RunConfig.from_dict({**config, "threads": 3}), out_dir=out2)
        assert code1 == code2 == 0
        for name in ("summary.json", "fields.csv", "lambda_history.csv",
                     "sample_path.csv", "audits.json"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            if name == "summary.json":
                # the echoed config records the thread count; strip it
                a = a.replace(b'"threads": 1', b'"threads": 0')
                b = b.replace(b'"threads": 3', b'"threads": 0')
            assert a == b, f"{name} differs between runs"


class TestMainEntry:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "pipeline" in capsys.readouterr().out

    def test_config_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_2(self, capsys):
        assert main(["solve", "--config", "no-such-benchmark"]) == 2

    def test_inadmissible_wall_exponent_exit_2(self, tmp_path, capsys):
        config = small_config(penalty={"beta": 3.0, "alpha_exp": 9.0})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "beta < alpha_exp < (beta+1)*min(gamma, 2)" in err

    @pytest.mark.parametrize("x_ref, message", [
        ([0.0, 0.0], "x_ref has 2 coordinates, the problem has dimension 1"),
        ([7.0], "point [7.0] lies outside the box of half-width 4.0"),
    ], ids=["wrong-length", "outside-box"])
    def test_bad_reference_point_exit_2(self, tmp_path, capsys, x_ref, message):
        config = small_config(problem={**SMALL_PROBLEM, "x_ref": x_ref}, mc=None, lp=None)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"config error: {message}"
        assert not (tmp_path / "out").exists()

    def test_solve_subcommand(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config(mc=None, lp=None)))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "lambda = 1.4" in capsys.readouterr().out
        assert (tmp_path / "out" / "fields.csv").exists()

    def test_bundled_pipeline_exit_zero(self, tmp_path, capsys):
        code = main(["pipeline", "--config", "quadratic-1d", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["lambda"]["value"] - 2**0.5) <= 0.01 * 2**0.5
        assert summary["audits"]["passed"]
        assert "audits: passed" in out

    def test_seed_override_changes_mc(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config(lp=None, audits={"assumptions": False,
                                                                 "comparison": False,
                                                                 "coercive": False})))
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "o1"), "--seed", "1"])
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "o2"), "--seed", "2"])
        s1 = json.loads((tmp_path / "o1" / "summary.json").read_text())
        s2 = json.loads((tmp_path / "o2" / "summary.json").read_text())
        assert s1["mc"]["avg_cost"] != s2["mc"]["avg_cost"]
