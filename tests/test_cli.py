import json
import multiprocessing
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergodic_hjb import dual_lp, simulate
from ergodic_hjb.cli import main, run_pipeline
from ergodic_hjb.config import RunConfig, load_config, save_config
from ergodic_hjb.discretize import build_grid
from ergodic_hjb.errors import CoefficientError, LPError, ParameterError
from ergodic_hjb.solver import SolverOptions, extract_control, solve_ergodic_normalized

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


def _x_dependent_pair_config(**overrides):
    """``small_config`` with an x-dependent rate and a perturbed control: the control
    and the perturbed one run as two groups of one path chunk each."""
    rate = {"form": "quadratic", "c0": 1.0, "weights": [0.1]}
    states = [{**state, "alpha": rate} for state in SMALL_PROBLEM["states"]]
    return small_config(problem={**SMALL_PROBLEM, "states": states},
                        mc={**small_config()["mc"], "perturbed": "linear:2.0"}, **overrides)


def _dying_chunk(*args):
    """Stands in for ``simulate._simulate_chunk`` in a worker process that dies."""
    os._exit(1)


# one value of this pool at one key of FUZZ_BASE: every leaf key of the run
# config, and the problem's dimension, reference point and first state
FUZZ_POOL = [True, "no", 0, -1, float("nan"), float("inf"), None, [], {}]
FUZZ_BASE = small_config(penalty={"beta": 4.0, "alpha_exp": 5.0, "cap": None})
FUZZ_KEYS = ([(k,) for k, v in FUZZ_BASE.items() if not isinstance(v, dict)]
             + [(k, key) for k, v in FUZZ_BASE.items() if isinstance(v, dict) and k != "problem"
                for key in v]
             + [("problem", "dimension"), ("problem", "x_ref")]
             + [("problem", "states", 0, key) for key in SMALL_PROBLEM["states"][0]])


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
        with pytest.raises(ParameterError):
            RunConfig.from_dict(small_config(schema_version=True))


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
        # columns t, x1, state, u1, running_cost; f_k = x^2 and l_k = xi^2/2
        path = np.loadtxt(tmp_path / "sample_path.csv", delimiter=",", skiprows=1)
        assert path.shape[0] > 0
        assert np.allclose(path[:, 4], path[:, 1] ** 2 + path[:, 3] ** 2 / 2,
                           rtol=1e-12, atol=0.0)

    def test_compare_methods_writes_alternate(self, tmp_path):
        config = RunConfig.from_dict(small_config(compare_methods=True, lp=None, mc=None))
        code, summary = run_pipeline(config, out_dir=tmp_path)
        assert code == 0
        alt = summary["lambda"]["alternate"]
        assert alt["method"] == "vanishing_discount"
        assert alt["gap"] == abs(alt["value"] - summary["lambda"]["value"])
        assert alt["gap"] <= 10 * 1e-4     # 10 * tol_lambda

    @pytest.mark.parametrize("method, radii", [
        ("direct", None), ("vanishing_discount", None), ("nested_domains", [3.0, 4.0]),
    ], ids=["direct", "vanishing_discount", "nested_domains"])
    def test_coarse_value_only_for_the_direct_method(self, tmp_path, method, radii):
        config = RunConfig.from_dict(small_config(method=method, radii=radii, lp=None, mc=None))
        assert run_pipeline(config, out_dir=tmp_path)[0] == 0
        lam = json.loads((tmp_path / "summary.json").read_text())["lambda"]
        if method == "direct":
            # the h = 0.2 solve the h = 0.1 solve started from
            assert lam["coarse_value"] == pytest.approx(lam["value"], rel=1e-2)
        else:
            assert "coarse_value" not in lam
        if method == "nested_domains":
            # one (R, lambda) entry per box, non-increasing in R
            assert [r for r, _ in lam["history"]] == radii
            assert lam["history"][1][1] <= lam["history"][0][1]
            assert lam["value"] == lam["history"][-1][1]

    @pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
    def test_fields_csv(self, tmp_path, dim):
        # per state, one row per node: the coordinates, the state, u and the feedback
        state = {**SMALL_PROBLEM["states"][0], "b": {"form": "constant", "value": [0.0] * dim},
                 "f": {"form": "quadratic", "c0": 0.0, "weights": [1.0] * dim}}
        config = RunConfig.from_dict(small_config(
            problem={"dimension": dim, "x_ref": [0.0] * dim, "states": [state, state]},
            grid={"radius": 2.0, "h": 0.25}, lp=None, mc=None))
        assert run_pipeline(config, stages=("solve",), out_dir=tmp_path)[0] == 0
        lines = (tmp_path / "fields.csv").read_text().splitlines()
        axes = range(1, dim + 1)
        assert lines[0] == ",".join([*(f"x{j}" for j in axes), "state", "u",
                                     *(f"xi{j}" for j in axes)])
        # the same solve as the run's: every value survives its repr round trip
        problem = config.problem_spec()
        solution = solve_ergodic_normalized(problem, build_grid(dim, 2.0, 0.25),
                                            opts=SolverOptions(tol_lambda=1e-4))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert solution.lam == summary["lambda"]["value"]
        xi = extract_control(problem, solution).values
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        n = solution.grid.n_nodes
        assert table.shape == (2 * n, 2 * dim + 2)
        for k in (1, 2):
            block = table[(k - 1) * n:k * n]
            assert np.array_equal(block[:, :dim], solution.grid.points)
            assert np.all(block[:, dim] == k)
            assert np.array_equal(block[:, dim + 1], solution.u[k - 1])
            assert np.array_equal(block[:, dim + 2:], xi[k - 1])

    def test_lp_failure_ends_the_run_before_the_mc(self, tmp_path, monkeypatch, capsys):
        message = "stationarity program infeasible; enlarge the control mesh or the box"
        mc_calls = []
        real_mc = simulate.simulate_controls

        def failing_lp(lp, *args, **kwargs):
            raise LPError(message)

        def counted_mc(*args, **kwargs):
            mc_calls.append(kwargs.get("record_samples", False))
            return real_mc(*args, **kwargs)

        monkeypatch.setattr(dual_lp, "solve_lp", failing_lp)
        monkeypatch.setattr(simulate, "simulate_controls", counted_mc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config()))
        threads_before = threading.active_count()
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert threading.active_count() == threads_before
        assert capsys.readouterr().err.strip() == f"stage failure [pipeline]: {message}"
        # the LP runs before the Monte Carlo, so no estimate ran and no sample path was kept
        assert mc_calls == []
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "fields.csv", "lambda_history.csv"]

    def test_mc_failure_ends_the_run_cleanly(self, tmp_path, monkeypatch, capsys):
        # no thread outlives the failure, and nothing after the solve's files is written
        message = "metric is not positive definite at x = (3.1)"

        def failing_mc(*args, **kwargs):
            raise CoefficientError(message)

        monkeypatch.setattr(simulate, "simulate_controls", failing_mc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config()))
        threads_before = threading.active_count()
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert threading.active_count() == threads_before
        assert capsys.readouterr().err.strip() == f"stage failure [pipeline]: {message}"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "fields.csv", "lambda_history.csv"]

    def test_failed_solve_skips_the_lp(self, tmp_path, monkeypatch, capsys):
        # the LP runs after the solve, so a failed solve runs no LP
        lp_calls = []
        monkeypatch.setattr(dual_lp, "solve_lp", lambda *args, **kwargs: lp_calls.append(args))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config(solver={"max_policy_iters": 1})))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("stage failure [pipeline]: policy iteration")
        assert lp_calls == []

    @pytest.mark.parametrize("rate, loops", [
        ({"form": "constant", "c": 1.0}, 1),
        ({"form": "quadratic", "c0": 1.0, "weights": [0.1]}, 2),
    ], ids=["x-free", "x-dependent"])
    def test_one_step_loop_for_the_pair_when_rates_are_x_free(self, tmp_path, monkeypatch,
                                                               rate, loops):
        # x-free rates let the control and the perturbed one share their switching,
        # so their one path chunk runs once; an x-dependent rate runs one loop each
        calls = []
        real_chunk = simulate._simulate_chunk

        def counted_chunk(problem, controls, *args):
            calls.append(len(controls))
            return real_chunk(problem, controls, *args)

        monkeypatch.setattr(simulate, "_simulate_chunk", counted_chunk)
        states = [{**state, "alpha": rate} for state in SMALL_PROBLEM["states"]]
        config = small_config(problem={**SMALL_PROBLEM, "states": states}, lp=None,
                              mc={"horizon": 0.2, "dt": 1e-3, "paths": 16,
                                  "perturbed": "linear:2.0", "sample_path": True})
        code, _ = run_pipeline(RunConfig.from_dict(config), stages=("solve", "simulate"),
                               out_dir=tmp_path)
        assert code == 0
        assert calls == ([2] if loops == 1 else [1, 1])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mc"]["perturbed"]["avg_cost"] != summary["mc"]["avg_cost"]

    @staticmethod
    def _assert_same_bundle_across_threads(config, threads, tmp_path):
        """The bundles of ``config`` at ``threads: 1`` and ``threads`` agree byte for byte."""
        out1, out2 = tmp_path / "a", tmp_path / "b"
        code1, _ = run_pipeline(RunConfig.from_dict({**config, "threads": 1}), out_dir=out1)
        code2, _ = run_pipeline(RunConfig.from_dict({**config, "threads": threads}),
                                out_dir=out2)
        assert code1 == code2 == 0
        for name in ("summary.json", "fields.csv", "lambda_history.csv",
                     "sample_path.csv", "audits.json"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            if name == "summary.json":
                # the echoed config records the thread count; strip it
                a = a.replace(b'"threads": 1', b'"threads": 0')
                b = b.replace(f'"threads": {threads}'.encode(), b'"threads": 0')
            assert a == b, f"{name} differs between runs"

    def test_pipeline_reruns_bit_identical_across_threads(self, tmp_path):
        self._assert_same_bundle_across_threads(small_config(), 3, tmp_path)

    def test_pipeline_reruns_bit_identical_across_processes_x_dependent_rates(self, tmp_path):
        # two groups of one path chunk each, so two tasks reach the pool of worker processes
        self._assert_same_bundle_across_threads(_x_dependent_pair_config(), 2, tmp_path)

    def test_dead_worker_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        # a worker that dies (as one the OOM killer ends) breaks the pool; the run ends
        # with one line naming the first chunk whose result was lost, and leaves no child
        monkeypatch.setattr(simulate, "_simulate_chunk", _dying_chunk)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_x_dependent_pair_config(threads=2)))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "stage failure [simulate]: the worker process running path chunk 0 of control "
            "group 1 died before returning it"]
        assert multiprocessing.active_children() == []

    def test_huge_gamma_exits_1_naming_the_state(self, tmp_path, capsys):
        # |p|^(gamma - 2) p overflows for gamma = 1000 once |p| > 2: the solve ends with
        # one line naming the state and its gamma, and no RuntimeWarning escapes
        states = [SMALL_PROBLEM["states"][0], {**SMALL_PROBLEM["states"][1], "gamma": 1000}]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config(problem={**SMALL_PROBLEM, "states": states})))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("stage failure [pipeline]: state 2: grad_p H overflows at "
                                 "gamma = 1000.0 and |p| up to ")


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

    def test_truncated_drifting_state_exit_2(self, tmp_path, capsys):
        # the problem is rejected when it is read, before any stage writes
        quartic = {**SMALL_PROBLEM["states"][0], "gamma": 4.0,
                   "b": {"form": "constant", "value": [0.5]}}
        problem = {**SMALL_PROBLEM, "states": [quartic, SMALL_PROBLEM["states"][1]],
                   "truncation": {"level": 5.0}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config(problem=problem, mc=None, lp=None)))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["config error: Hamiltonian truncation is supported only for driftless states"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("mc", "pathz", 10, None),
        ("lp", "control_stepp", 0.5, None),
        ("grid", "hh", 0.1, None),
        ("audits", "coersive", True, None),
        ("mc", "control", "bogus", None),
        ("mc", "mode", "psychic", None),
        ("mc", "dt", 0.5, None),
        ("lp", "h", 0.07, None),
        ("mc", "horizon", "abc", None),
        ("mc", "perturbed", "linear:x", None),
        ("mc", "dt", float("nan"), None),
        ("mc", "horizon", float("inf"), None),
        ("solver", "tol_lambda", "abc", None),
        ("solver", "max_policy_iters", 0, None),
        ("mc", "horizon", 4e-4, None),
        ("solver", "cap_factor", 2.0, None),
        ("mc", "paths", 1, None),
        ("mc", "paths", 2.5, None),
        ("mc", "paths", "10", None),
        ("mc", "sample_path", "yes", None),
        ("mc", "mode", "thinning", None),
        ("lp", "control_step", 0, None),
        ("lp", "control_step", -0.5, None),
        ("lp", "control_step", float("inf"), None),
        ("lp", "directions", 8.0, None),
        ("audits", "comparison", "no", None),
        ("audits", "assumptions", 1, None),
        ("grid", "h", True, None),
        ("grid", "radius", True, None),
        ("grid", "radius", float("inf"), None),
        ("lp", "h", True, None),
        ("lp", "h", float("inf"), None),
        ("lp", "control_step", True, None),
        ("mc", "horizon", "2", None),
        ("mc", "burn_in", "0.1", None),
        ("mc", "perturbed", 0, None),
        ("grid", "radius", 10**400, None),
        ("lp", "h", 10**400, None),
        ("mc", "horizon", 10**400, None),
        ("solver", "tol_lambda", 10**400, None),
        ("penalty", "beta", 10**400, "penalty beta must be a number in the float range"),
        ("penalty", "cap", 10**400, "penalty cap must be a number in the float range"),
        ("penalty", "beta", "4", "penalty beta must be a number, got '4'"),
        ("penalty", "alpha_exp", float("nan"), "penalty alpha_exp must be finite, got nan"),
        (None, "radii", [10**400], "radii entry must be a number in the float range"),
        ("mc", "control", "linear:nan", "linear control coefficient must be finite, got nan"),
        ("mc", "perturbed", "linear:inf", "linear control coefficient must be finite, got inf"),
        ("mc", "control", "linear:1e400", "linear control coefficient must be finite, got inf"),
        ("lp", "directions", 0, "need at least 3 directions, got 0"),
        ("lp", "directions", -1, "need at least 3 directions, got -1"),
        ("lp", "directions", 2, "need at least 3 directions, got 2"),
        ("grid", "h", 2.0**-30, "grid: the grid of half-width 4 and spacing 9.31323e-10 "
         "has 8589934593 nodes, more than 10000000"),
        ("lp", "h", 2.0**-30, "lp: the grid of half-width 4 and spacing 9.31323e-10 "
         "has 8589934593 nodes, more than 10000000"),
    ], ids=["mc-key", "lp-key", "grid-key", "audits-key", "mc-control", "mc-mode",
            "mc-dt", "lp-h", "mc-horizon", "mc-perturbed", "mc-dt-nan", "mc-horizon-inf",
            "solver-tol", "solver-iters", "mc-horizon-tiny", "solver-cap-factor",
            "mc-one-path", "mc-paths-float", "mc-paths-string", "mc-sample-path-string",
            "mc-mode-retired", "lp-control-step-zero", "lp-control-step-negative",
            "lp-control-step-inf", "lp-directions-float", "audits-flag-string",
            "audits-flag-int", "grid-h-bool", "grid-radius-bool", "grid-radius-inf",
            "lp-h-bool", "lp-h-inf", "lp-control-step-bool", "mc-horizon-string",
            "mc-burn-in-string", "mc-perturbed-zero", "grid-radius-huge-int", "lp-h-huge-int",
            "mc-horizon-huge-int", "solver-tol-huge-int", "penalty-beta-huge-int",
            "penalty-cap-huge-int", "penalty-beta-string", "penalty-alpha-exp-nan",
            "radii-huge-int", "mc-control-linear-nan", "mc-perturbed-linear-inf",
            "mc-control-linear-huge", "lp-directions-zero", "lp-directions-negative",
            "lp-directions-two", "grid-h-oversized", "lp-h-oversized"])
    def test_bad_config_exit_2(self, tmp_path, capsys, section, key, value, message):
        # every section is checked before the first stage writes anything; a case with a
        # message names the whole line; section None is a top-level key, and the sections
        # come from FUZZ_BASE, which adds a valid penalty section to small_config()
        config = small_config()
        if section is None:
            config[key] = value
        else:
            config[section] = {**FUZZ_BASE[section], key: value}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert message is None or err[0] == f"config error: {message}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cap, message", [
        ("x", "penalty cap must be a number, got 'x'"),
        (float("nan"), "penalty cap must be null or a finite number >= 0, got nan"),
        (-1.0, "penalty cap must be null or a finite number >= 0, got -1.0"),
        (True, "penalty cap must be a number, got True"),
    ], ids=["string", "nan", "negative", "bool"])
    def test_bad_penalty_cap_exit_2(self, tmp_path, capsys, cap, message):
        config = small_config(penalty={"beta": 4.0, "alpha_exp": 5.0, "cap": cap})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("problem, message", [
        ({"dimension": float("inf")}, "dimension must be 1 or 2, got inf"),
        ({"dimension": True}, "dimension must be 1 or 2, got True"),
        ({"states": [{**SMALL_PROBLEM["states"][0], "a": "no"}, SMALL_PROBLEM["states"][1]]},
         "the fields a, b, alpha and f of a state must be objects"),
        ({"states": [SMALL_PROBLEM["states"][0], {**SMALL_PROBLEM["states"][1], "b": None}]},
         "the fields a, b, alpha and f of a state must be objects"),
        ({"states": [{**SMALL_PROBLEM["states"][0], "gamma": float("nan")},
                     SMALL_PROBLEM["states"][1]]}, "power exponent must exceed 1, got nan"),
        ({"states": [{**SMALL_PROBLEM["states"][0], "alpha": {"form": "constant", "c": True}},
                     SMALL_PROBLEM["states"][1]]},
         "coefficient parameter c must be a number, got True"),
        ({"states": [SMALL_PROBLEM["states"][0],
                     {**SMALL_PROBLEM["states"][1],
                      "f": {"form": "quadratic", "c0": True, "weights": [1.0]}}]},
         "coefficient parameter c0 must be a number, got True"),
        ({"states": [{**SMALL_PROBLEM["states"][0], "b": {"form": "constant", "value": []}},
                     SMALL_PROBLEM["states"][1]]},
         "drift value must list one number per axis (1), got []"),
        ({"x_ref": []}, "x_ref must be a non-empty list of coordinates, got []"),
        ({"x_ref": {}}, "x_ref must be a non-empty list of coordinates, got {}"),
        ({"states": [{**SMALL_PROBLEM["states"][0], "gamma": "3"},
                     SMALL_PROBLEM["states"][1]]}, "gamma must be a number, got '3'"),
        ({"truncation": {"level": True}}, "truncation level must be a number, got True"),
        ({"truncation": {"level": "0.5"}}, "truncation level must be a number, got '0.5'"),
        ({"states": [{**SMALL_PROBLEM["states"][0],
                      "a": {"form": "constant_spd", "matrix": [[-1.0]]}},
                     SMALL_PROBLEM["states"][1]]},
         "metric is not positive definite (eigenvalues [-1.])"),
        ({"states": [SMALL_PROBLEM["states"][0],
                     {**SMALL_PROBLEM["states"][1],
                      "a": {"form": "constant_spd", "matrix": [[1.0, 0.0]]}}]},
         "metric has shape (1, 2), expected (1,1)"),
        ({"states": [{**SMALL_PROBLEM["states"][0],
                      "b": {"form": "constant", "value": [float("inf")]}},
                     SMALL_PROBLEM["states"][1]]}, "drift vector must be finite, got [inf]"),
        ({"states": [SMALL_PROBLEM["states"][0],
                     {**SMALL_PROBLEM["states"][1],
                      "b": {"form": "constant", "value": [float("nan")]}}]},
         "drift vector must be finite, got [nan]"),
        ({"states": [{**SMALL_PROBLEM["states"][0],
                      "a": {"form": "constant_spd", "matrix": [[float("inf")]]}},
                     SMALL_PROBLEM["states"][1]]}, "metric must be finite, got [[inf]]"),
        ({"x_ref": [float("nan")]}, "x_ref must be finite, got [nan]"),
        ({"states": [SMALL_PROBLEM["states"][0],
                     {**SMALL_PROBLEM["states"][1], "gamma": float("inf")}]},
         "power exponent must be finite, got inf"),
        # finite data whose control cap cuts into more LP magnitudes than a mesh can hold
        ({"states": [SMALL_PROBLEM["states"][0],
                     {**SMALL_PROBLEM["states"][1],
                      "a": {"form": "constant_spd", "matrix": [[1e300]]}}]},
         "lp.control_step 0.5 cuts the control cap 9.66338e+300 into 1.93e+301 magnitudes, "
         "more than 10000"),
        ({"states": [SMALL_PROBLEM["states"][0],
                     {**SMALL_PROBLEM["states"][1], "b": {"form": "constant", "value": [1e300]}}]},
         "lp.control_step 0.5 cuts the control cap inf into inf magnitudes, more than 10000"),
    ], ids=["dimension-inf", "dimension-bool", "metric-string", "drift-null", "gamma-nan",
            "rate-c-bool", "source-c0-bool", "drift-empty", "x-ref-empty-list",
            "x-ref-empty-object", "gamma-string", "truncation-level-bool",
            "truncation-level-string", "metric-not-positive", "metric-wrong-shape",
            "drift-inf", "drift-nan", "metric-inf", "x-ref-nan", "gamma-inf",
            "metric-huge", "drift-huge"])
    def test_bad_problem_exit_2(self, tmp_path, capsys, problem, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config(problem={**SMALL_PROBLEM, **problem})))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("state, radii, message", [
        ({"alpha": {"form": "constant", "c": -1}}, None,
         "config error: switching rate of state 1 is -1 at x = (-4), must be > 0"),
        ({"alpha": {"form": "constant", "c": float("nan")}}, None, "non-finite parameter"),
        ({"alpha": {"form": "quadratic", "c0": -0.5, "weights": [1.0]}}, None,
         "switching rate of state 1 is -"),
        ({"alpha": {"form": "quadratic", "c0": 1.0, "weights": [-0.1]}}, None,
         "switching rate of state 1 is -"),
        ({"f": {"form": "quadratic", "c0": float("inf"), "weights": [1.0]}}, None,
         "non-finite parameter"),
        ({}, [4.0, 2.0], "radii must be strictly increasing"),
        ({}, [2.0, 2.0], "radii must be strictly increasing"),
        ({}, ["a", 4.0], "radii entry must be a number, got 'a'"),
        ({}, [2.0, float("nan")], "radii must be a list of finite numbers"),
        ({}, [2.0, float("inf")], "radii must be a list of finite numbers"),
        ({}, [True, 4.0], "radii entry must be a number, got True"),
        ({}, 4.0, "radii must be a list of finite numbers"),
        ({}, [2.0, 3.05], "does not divide half-width 3.05"),
        ({}, [4.0, 1e9], "radii: the grid of half-width 1e+09 and spacing 0.1 "
         "has 20000000001 nodes, more than 10000000"),
    ], ids=["rate-negative", "rate-nan", "rate-quadratic-c0", "rate-quadratic-weight",
            "source-inf", "radii-decreasing", "radii-repeated", "radii-string", "radii-nan",
            "radii-inf", "radii-bool", "radii-not-list", "radii-not-dividing",
            "radii-oversized"])
    def test_bad_rate_or_radii_exit_2(self, tmp_path, capsys, state, radii, message):
        # switching rates must be > 0 on the solve box and radii a grid schedule,
        # both checked with the rest of the config before any stage writes
        states = [{**SMALL_PROBLEM["states"][0], **state}, SMALL_PROBLEM["states"][1]]
        config = small_config(problem={**SMALL_PROBLEM, "states": states})
        if radii is not None:
            config.update(method="nested_domains", radii=radii)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and message in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda c: [c], "config root must be an object"),
        (lambda c: {k: v for k, v in c.items() if k != "problem"},
         "config needs a 'problem' section"),
        (lambda c: {k: v for k, v in c.items() if k != "grid"}, "config needs a 'grid' section"),
        (lambda c: {**c, "solver": []}, "config section 'solver' must be an object"),
        (lambda c: {**c, "method": "nested_domains"}, "nested_domains needs a 'radii' schedule"),
        (lambda c: {**c, "grid": {"h": 0.1}}, "grid config needs 'radius'"),
        (lambda c: {**c, "grid": {"radius": 4.0}}, "grid config needs 'h'"),
    ], ids=["root-not-object", "no-problem", "no-grid", "section-not-object",
            "nested-without-radii", "grid-without-radius", "grid-without-h"])
    def test_run_config_rejection_exit_2(self, tmp_path, capsys, edit, message):
        # RunConfig's own checks, met when the file is read and before any stage runs
        path = tmp_path / "c.json"
        path.write_text(json.dumps(edit(small_config())))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, flags", [
        ({"seed": -1}, []),
        ({"seed": "abc"}, []),
        ({"seed": 1.5}, []),
        ({"seed": 2**64}, []),
        ({"threads": "2"}, []),
        ({"threads": 0}, []),
        ({}, ["--seed", "-1"]),
        ({}, ["--threads", "0"]),
        ({"seed": -1, "mc": None, "lp": None}, []),
        ({"threads": 0, "mc": None, "lp": None}, []),
    ], ids=["seed-negative", "seed-string", "seed-float", "seed-too-large",
            "threads-string", "threads-zero", "seed-flag", "threads-flag",
            "seed-negative-no-mc", "threads-zero-no-mc"])
    def test_bad_seed_or_threads_exit_2(self, tmp_path, capsys, override, flags):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config(**override)))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out"),
                     *flags]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", [5, True, []], ids=["int", "bool", "list"])
    def test_bad_out_exit_2(self, tmp_path, capsys, monkeypatch, out):
        # checked whether or not --out overrides it; nothing is written in the working dir
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config(out=out)))
        assert main(["pipeline", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: out ")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("value", ["no", 0, None], ids=["string", "int", "null"])
    def test_compare_methods_not_boolean_exit_2(self, tmp_path, capsys, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config(compare_methods=value)))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: compare_methods")
        assert not (tmp_path / "out").exists()

    # 150 of the 261 key-value pairs, about 6 s
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_POOL))
    @example(key=("penalty", "cap"), value="no")
    def test_one_bad_value_never_escapes(self, key, value):
        # main returns 0, 1 or 2 and raises nothing; exit 2 leaves no output
        config = json.loads(json.dumps(FUZZ_BASE))
        *parents, last = key
        node = config
        for part in parents:
            node = node[part]
        node[last] = value
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "c.json", Path(tmp) / "out"
            path.write_text(json.dumps(config))
            code = main(["pipeline", "--config", str(path), "--out", str(out)])
            assert code in (0, 1, 2)
            assert code != 2 or not out.exists()

    def test_largest_seed_writes_sample_path(self, tmp_path):
        # the largest seed keys the Philox stream that the sample path is kept from
        path = tmp_path / "c.json"
        path.write_text(json.dumps(small_config(seed=2**64 - 1, lp=None)))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "sample_path.csv").exists()

    @pytest.mark.parametrize("command, blocks, files", [
        ("solve", ["lambda"], ["config", "fields", "lambda_history"]),
        ("lp", ["lp"], ["config"]),
        ("simulate", ["lambda", "mc"], ["config", "fields", "lambda_history", "sample_path"]),
        ("audit", ["audits", "lambda", "lp", "mc"],
         ["audits_json", "audits_md", "config", "fields", "lambda_history", "sample_path"]),
        ("pipeline", ["audits", "lambda", "lp", "mc"],
         ["audits_json", "audits_md", "config", "fields", "lambda_history", "sample_path"]),
    ], ids=["solve", "lp", "simulate", "audit", "pipeline"])
    def test_subcommand_outputs(self, tmp_path, command, blocks, files):
        # each subcommand fills its own summary blocks and writes its own files
        path, out = tmp_path / "c.json", tmp_path / "out"
        path.write_text(json.dumps(small_config()))
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(k for k in ("lambda", "lp", "mc", "audits")
                      if summary[k] is not None) == blocks
        assert sorted(summary["files"]) == files
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*summary["files"].values(), "summary.json"])

    def test_simulate_flags_override_the_mc_section(self, tmp_path):
        # every simulate flag lands in the mc section, echoed in config.json, and the
        # estimate is the one simulate_paths gives under the zero control
        path, out = tmp_path / "c.json", tmp_path / "out"
        path.write_text(json.dumps(small_config(lp=None)))
        assert main(["simulate", "--config", str(path), "--out", str(out), "--paths", "64",
                     "--T", "0.5", "--dt", "0.01", "--burn-in", "0.2", "--control", "zero"]) == 0
        mc = json.loads((out / "summary.json").read_text())["mc"]
        assert {k: mc[k] for k in ("paths", "horizon", "dt", "burn_in", "seed")} == {
            "paths": 64, "horizon": 0.5, "dt": 0.01, "burn_in": 0.2, "seed": 5}
        echoed = json.loads((out / "config.json").read_text())["mc"]
        assert echoed == {**small_config()["mc"], "paths": 64, "horizon": 0.5, "dt": 0.01,
                          "burn_in": 0.2, "control": "zero"}
        config = RunConfig.from_dict(small_config())
        expected = simulate.simulate_paths(
            config.problem_spec(), simulate.FeedbackControl.zero(4.0), horizon=0.5, dt=0.01,
            paths=64, burn_in=0.2, seed=5)
        assert mc == expected.to_dict()

    def test_lp_subcommand_without_lp_section(self, tmp_path, capsys):
        # like simulate without an mc section, lp runs with the section's defaults
        path, out = tmp_path / "c.json", tmp_path / "out"
        path.write_text(json.dumps(small_config(lp=None)))
        assert main(["lp", "--config", str(path), "--out", str(out)]) == 0
        assert "lambda_bar = 1.416" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["lp"]["lambda_bar"] == pytest.approx(1.41627, abs=1e-5)
        assert summary["config"]["lp"] == {}

    def test_lp_block_reports_its_certificate(self, tmp_path):
        _, summary = run_pipeline(RunConfig.from_dict(small_config(mc=None)), stages=("lp",),
                                  out_dir=tmp_path)
        lp = json.loads((tmp_path / "summary.json").read_text())["lp"]
        assert lp == summary["lp"]
        assert isinstance(lp["iterations"], int) and lp["iterations"] >= 1
        assert 0.0 <= lp["optimality_gap"] <= 1e-9

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
