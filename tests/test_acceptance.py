"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Each test pins the configuration and tolerance it must meet; shared solves
are cached in session fixtures so the suite stays inside its time budget.
"""

import time

import numpy as np
import pytest

from ergodic_hjb import fields
from ergodic_hjb.cli import run_pipeline
from ergodic_hjb.config import RunConfig, load_config
from ergodic_hjb.discretize import build_grid, gradient_central
from ergodic_hjb.dual_lp import assemble_lp, build_control_mesh, solve_lp
from ergodic_hjb.model import truncate_hamiltonian
from ergodic_hjb.simulate import FeedbackControl, simulate_paths
from ergodic_hjb.solver import (
    extract_control,
    nested_domains,
    solve_ergodic_normalized,
    vanishing_discount,
)
from ergodic_hjb.verify import (
    audit_coercive_lower_bound,
    audit_comparison,
    audit_gradient_bound,
)
from tests.conftest import make_problem, with_hamiltonian

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def benchmark_1d():
    return make_problem()


@pytest.fixture(scope="module")
def solution_1d(benchmark_1d):
    grid = build_grid(1, 6.0, 0.02)
    t0 = time.time()
    vd = vanishing_discount(benchmark_1d, grid)
    nested = nested_domains(benchmark_1d, [4.0, 5.0, 6.0], h=0.02)
    return {"grid": grid, "vd": vd, "nested": nested, "elapsed": time.time() - t0}


def test_criterion_1_quadratic_benchmark(benchmark_1d, solution_1d):
    vd, nested = solution_1d["vd"], solution_1d["nested"]
    err_vd = abs(vd.lam - SQRT2) / SQRT2
    err_nested = abs(nested.lam - SQRT2) / SQRT2
    agreement = abs(vd.lam - nested.lam) / SQRT2
    elapsed = solution_1d["elapsed"]
    print(f"[criterion 1] vd {vd.lam:.6f} ({100*err_vd:.4f}%), "
          f"nested {nested.lam:.6f} ({100*err_nested:.4f}%), "
          f"agreement {100*agreement:.4f}%, {elapsed:.1f}s "
          f"{'PASS' if max(err_vd, err_nested) <= 0.01 else 'FAIL'}")
    assert err_vd <= 0.01
    assert err_nested <= 0.01
    assert agreement <= 0.005
    assert elapsed <= 30.0


def test_criterion_2_quadratic_2d():
    problem = make_problem(dim=2)
    grid = build_grid(2, 5.0, 0.05)
    t0 = time.time()
    sol = solve_ergodic_normalized(problem, grid)
    elapsed = time.time() - t0
    target = 2.0 * SQRT2
    err = abs(sol.lam - target) / target
    print(f"[criterion 2] 2d lambda {sol.lam:.6f} vs {target:.6f} "
          f"({100*err:.4f}%), {elapsed:.0f}s {'PASS' if err <= 0.02 else 'FAIL'}")
    assert err <= 0.02
    assert elapsed <= 300.0


class TestCriterion3EigenvalueMap:
    grid = build_grid(1, 6.0, 0.05)

    def lam(self, f):
        return solve_ergodic_normalized(make_problem(sources=(f, f)), self.grid).lam

    def test_shift_exactness(self):
        base = self.lam(fields.quadratic(1))
        worst = 0.0
        for c in (1.0, 5.0, -2.0):
            shifted = self.lam(fields.quadratic(1, c0=c))
            worst = max(worst, abs(shifted - base - c))
        print(f"[criterion 3a] shift exactness worst {worst:.2e} "
              f"{'PASS' if worst <= 1e-6 else 'FAIL'}")
        assert worst <= 1e-6

    def test_concavity(self):
        f_a = fields.quadratic(1)
        f_b = fields.quadratic(1, weights=(2.0,), c0=1.0)
        lam_a, lam_b = self.lam(f_a), self.lam(f_b)
        tol = 1e-4 + self.grid.h**2
        worst = -np.inf
        for t in (0.25, 0.5, 0.75):
            mix = fields.quadratic(1, weights=(t + 2.0 * (1 - t),), c0=(1 - t) * 1.0)
            defect = t * lam_a + (1 - t) * lam_b - self.lam(mix)
            worst = max(worst, defect)
        print(f"[criterion 3b] concavity worst defect {worst:.2e} (tol {tol:.2e}) "
              f"{'PASS' if worst <= tol else 'FAIL'}")
        assert worst <= tol

    def test_monotonicity(self):
        pairs = [
            (fields.quadratic(1), fields.quadratic(1, c0=0.3)),
            (fields.quadratic(1), fields.quadratic(1, weights=(1.2,))),
            (fields.quadratic(1), fields.quadratic(1, c0=2.0)),
            (fields.quadratic(1, c0=1.0), fields.quadratic(1, weights=(2.0,), c0=1.0)),
            (fields.quadratic(1, weights=(1.5,)), fields.quadratic(1, weights=(1.5,), c0=0.2)),
        ]
        worst = -np.inf
        for lo, hi in pairs:
            worst = max(worst, self.lam(lo) - self.lam(hi))
        print(f"[criterion 3c] monotonicity worst violation {worst:.2e} "
              f"{'PASS' if worst <= 1e-6 else 'FAIL'}")
        assert worst <= 1e-6


def test_criterion_4_nested_domain_monotonicity():
    trig = fields.trig_power(1, beta1=2.0, beta2=0.5)
    cases = {
        "symmetric quadratic": (fields.quadratic(1), fields.quadratic(1)),
        "offset pair": (fields.quadratic(1), fields.quadratic(1, c0=3.0)),
        "trig modulated": (trig, trig),
    }
    tol_mono = 10.0 * 1e-4
    for name, sources in cases.items():
        problem = make_problem(sources=sources)
        sol = nested_domains(problem, [3.0, 4.0, 5.0, 6.0], h=0.05)
        lams = [lam for _, lam in sol.history]
        increases = max(b - a for a, b in zip(lams, lams[1:]))
        frozen = np.allclose(sol.minimizers[-1], sol.minimizers[-2], atol=1e-12)
        print(f"[criterion 4] {name}: lambdas {[round(v, 5) for v in lams]}, "
              f"max increase {increases:.2e}, minimizer frozen {frozen} "
              f"{'PASS' if increases <= tol_mono and frozen else 'FAIL'}")
        assert increases <= tol_mono
        assert frozen


def test_criterion_5_lp_cross_check(benchmark_1d, solution_1d):
    t0 = time.time()
    grid = build_grid(1, 6.0, 0.1)
    mesh = build_control_mesh(benchmark_1d, grid)
    assert mesh.magnitude_step == pytest.approx(0.25)
    lam_bar, measure = solve_lp(assemble_lp(benchmark_1d, grid, mesh))
    elapsed = time.time() - t0
    lam_pde = solution_1d["vd"].lam
    gap = abs(lam_bar - lam_pde) / lam_pde
    print(f"[criterion 5] lambda_bar {lam_bar:.6f} vs pde {lam_pde:.6f} "
          f"({100*gap:.3f}%), {elapsed:.0f}s {'PASS' if gap <= 0.03 else 'FAIL'}")
    assert gap <= 0.03
    assert measure.stationarity_residual <= 1e-8
    assert elapsed <= 120.0


def test_criterion_6_monte_carlo_optimality(benchmark_1d, solution_1d):
    t0 = time.time()
    lam_pde = solution_1d["vd"].lam
    grid = solution_1d["grid"]
    field = extract_control(benchmark_1d, solution_1d["vd"])
    control = FeedbackControl.from_fields(grid, field.values)
    est = simulate_paths(benchmark_1d, control, horizon=50.0, dt=1e-3, paths=10_000,
                         burn_in=0.1, seed=101)
    gap = abs(est.avg_cost - lam_pde)
    allowance = max(0.05 * lam_pde, 3.0 * est.std_error)
    worse = simulate_paths(benchmark_1d, FeedbackControl.linear(6.0, 2.0), horizon=50.0,
                           dt=1e-3, paths=10_000, burn_in=0.1, seed=101)
    excess = worse.avg_cost - lam_pde
    elapsed = time.time() - t0
    ok = gap <= allowance and excess > 3.0 * worse.std_error and est.clamp_count == 0
    print(f"[criterion 6] extracted {est.avg_cost:.5f}+-{est.std_error:.5f} "
          f"(gap {gap:.5f} <= {allowance:.5f}), perturbed {worse.avg_cost:.5f} "
          f"(+{excess/worse.std_error:.0f} sigma), {elapsed:.0f}s "
          f"{'PASS' if ok else 'FAIL'}")
    assert gap <= allowance
    assert est.clamp_count == 0
    assert excess > 3.0 * worse.std_error
    assert elapsed <= 180.0


@pytest.mark.xfail(
    strict=True,
    reason=("with constant switching rates and f_2 = f_1 + c the coupled eigenvalue "
            "equals the scalar value plus c/2 for every positive rate (verified in "
            "closed form and numerically in test_solver); it does not approach the "
            "minimum of the two scalar values as the rates shrink, so this stated "
            "target is unattainable"))
def test_criterion_7_decoupling_limit():
    grid = build_grid(1, 6.0, 0.05)
    coupled = solve_ergodic_normalized(
        make_problem(alphas=(1e-6, 1e-6),
                     sources=(fields.quadratic(1), fields.quadratic(1, c0=3.0))),
        grid)
    scalar_1 = solve_ergodic_normalized(
        make_problem(sources=(fields.quadratic(1),) * 2), grid)
    scalar_2 = solve_ergodic_normalized(
        make_problem(sources=(fields.quadratic(1, c0=3.0),) * 2), grid)
    target = min(scalar_1.lam, scalar_2.lam)
    err = abs(coupled.lam - target) / target
    print(f"[criterion 7] coupled {coupled.lam:.6f} vs min(scalars) {target:.6f} "
          f"({100*err:.2f}%) {'PASS' if err <= 0.02 else 'FAIL'}")
    assert err <= 0.02


class TestCriterion8StructuralAudits:
    def test_duality_gap_on_benchmarks(self, rng):
        problems = [
            make_problem(),
            make_problem(dim=2),
            make_problem(gammas=(4.0, 4.0)),
            make_problem(gammas=(2.0, 1.5),
                         drifts=(fields.DriftField(1, (0.3,)), fields.DriftField(1))),
        ]
        worst = 0.0
        for problem in problems:
            dim = problem.dimension
            x = rng.uniform(-5, 5, size=(50, dim))
            for k in (1, 2):
                for _ in range(20):
                    p = np.broadcast_to(rng.uniform(-6, 6, size=dim), (50, dim))
                    gap = problem.hamiltonian.duality_gap(k, x, p)
                    h = problem.hamiltonian.value(k, x, p)
                    worst = max(worst, float(np.max(np.abs(gap) / (1.0 + np.abs(h)))))
        print(f"[criterion 8a] duality gap worst {worst:.2e} "
              f"{'PASS' if worst <= 1e-9 else 'FAIL'}")
        assert worst <= 1e-9

    def test_comparison_ordering_exact(self, benchmark_1d):
        grid = build_grid(1, 6.0, 0.05)
        report = audit_comparison(benchmark_1d, grid, delta=0.5, discount=1.0, trials=20)
        print(f"[criterion 8b] comparison ordering min gap "
              f"{report.constants['linear_min_gap']:.2e} "
              f"{'PASS' if report.passed else 'FAIL'}")
        assert report.passed
        assert report.constants["linear_min_gap"] >= -1e-10

    def test_gradient_bound_scaling(self, benchmark_1d):
        grid = build_grid(1, 6.0, 0.1)
        report = audit_gradient_bound(benchmark_1d, grid, scalings=(1.0, 4.0, 16.0))
        print(f"[criterion 8c] gradient-bound spread {report.constants['ratio_spread']:.2f} "
              f"(limit 5) {'PASS' if report.passed else 'FAIL'}")
        assert report.passed

    def test_coercive_floor(self, benchmark_1d):
        grid = build_grid(1, 6.0, 0.05)
        sol = solve_ergodic_normalized(benchmark_1d, grid)
        report = audit_coercive_lower_bound(benchmark_1d, sol)
        print(f"[criterion 8d] coercive floor M1 {report.constants['m1']:.3f} "
              f"{'PASS' if report.passed else 'FAIL'}")
        assert report.passed

    def test_truncated_quartic_agrees(self):
        problem = make_problem(gammas=(4.0, 4.0))
        grid = build_grid(1, 6.0, 0.05)
        base = solve_ergodic_normalized(problem, grid)
        inner = np.abs(grid.points[:, 0]) <= grid.radius - 1.0
        h_sup = max(
            float(np.max(problem.hamiltonian.value_raw(
                k, grid.points[inner], gradient_central(grid, base.state(k))[inner])))
            for k in (1, 2))
        level = 1.2 * h_sup
        truncated = with_hamiltonian(
            problem, truncate_hamiltonian(problem.hamiltonian, level=level))
        sol = solve_ergodic_normalized(truncated, grid)
        err = abs(sol.lam - base.lam) / abs(base.lam)
        print(f"[criterion 8e] quartic truncation at {level:.1f} "
              f"(sup H {h_sup:.1f}): lambda {sol.lam:.6f} vs {base.lam:.6f} "
              f"({100*err:.4f}%) {'PASS' if err <= 0.01 else 'FAIL'}")
        assert err <= 0.01


def test_criterion_9_pipeline_determinism(tmp_path):
    config = load_config("quadratic-1d").to_dict()
    config["grid"] = {"radius": 4.0, "h": 0.1}
    config["mc"] = {"horizon": 6.0, "dt": 1e-3, "paths": 256, "burn_in": 0.5,
                    "control": "extracted", "sample_path": True}
    config["method"] = "direct"
    outputs = []
    for threads, name in ((1, "a"), (4, "b")):
        cfg = RunConfig.from_dict({**config, "threads": threads})
        code, _ = run_pipeline(cfg, out_dir=tmp_path / name)
        assert code == 0
        blob = {}
        for f in ("summary.json", "fields.csv", "lambda_history.csv", "sample_path.csv"):
            data = (tmp_path / name / f).read_bytes()
            if f == "summary.json":
                data = data.replace(f'"threads": {threads}'.encode(), b'"threads": X')
            blob[f] = data
        outputs.append(blob)
    identical = all(outputs[0][f] == outputs[1][f] for f in outputs[0])
    print(f"[criterion 9] pipeline bit-identical across thread counts: "
          f"{'PASS' if identical else 'FAIL'}")
    assert identical
