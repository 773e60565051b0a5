import numpy as np
import scipy.sparse.linalg as spla

from ergodic_hjb import fields, verify
from ergodic_hjb.discretize import build_grid
from ergodic_hjb.solver import solve_ergodic_normalized
from ergodic_hjb.verify import (
    audit_coercive_lower_bound,
    audit_comparison,
    audit_gradient_bound,
    consistency_report,
    reports_to_markdown,
)
from tests.conftest import make_problem

SQRT2 = np.sqrt(2.0)


def test_gradient_bound_scaling_quadratic(quadratic_1d):
    grid = build_grid(1, 6.0, 0.1)
    report = audit_gradient_bound(quadratic_1d, grid)
    assert report.passed
    assert report.constants["ratio_spread"] <= 5.0


def test_gradient_bound_coupling_with_asymmetric_sources():
    problem = make_problem(sources=(fields.quadratic(1), fields.quadratic(1, c0=2.0)))
    grid = build_grid(1, 6.0, 0.1)
    report = audit_gradient_bound(problem, grid)
    assert report.passed
    assert report.constants["coupling_spread"] <= 5.0


def test_gradient_bound_trivial_for_wall_only_source():
    # zero interior source: the half-box gradient supremum is essentially zero
    # and the stability check passes trivially
    problem = make_problem(sources=(fields.constant(1, 0.0), fields.constant(1, 0.0)))
    grid = build_grid(1, 4.0, 0.1)
    report = audit_gradient_bound(problem, grid, scalings=(1.0, 4.0))
    assert report.passed


def test_coercive_bound_quadratic(quadratic_1d):
    grid = build_grid(1, 6.0, 0.05)
    sol = solve_ergodic_normalized(quadratic_1d, grid)
    report = audit_coercive_lower_bound(quadratic_1d, sol)
    assert report.passed
    # the solution tracks x^2 / sqrt(2), so u / |x| fits a slope near 1/sqrt(2)
    assert report.constants["m1"] >= 0.01
    assert np.isfinite(report.constants["m3_gradient_quotient"])


def test_coercive_bound_trig_source():
    f = fields.trig_power(1, beta1=2.0, beta2=0.5)
    problem = make_problem(sources=(f, f))
    grid = build_grid(1, 6.0, 0.05)
    sol = solve_ergodic_normalized(problem, grid)
    report = audit_coercive_lower_bound(problem, sol)
    assert report.passed


def test_comparison_audit(quadratic_1d):
    grid = build_grid(1, 4.0, 0.1)
    report = audit_comparison(quadratic_1d, grid, delta=1.0, discount=1.0, trials=5)
    assert report.passed
    assert report.constants["linear_min_gap"] >= -1e-10
    assert report.constants["constant_shift_error"] <= 1e-6


def test_comparison_constant_shift_identity(quadratic_1d):
    # f and f + 1 at discount 1: discounted values differ by exactly 1
    grid = build_grid(1, 4.0, 0.1)
    report = audit_comparison(quadratic_1d, grid, delta=1.0, discount=1.0)
    assert report.constants["constant_shift_error"] <= 1e-8


def test_comparison_factors_the_frozen_policy_once(quadratic_1d, monkeypatch):
    # both right-hand sides of the frozen-policy check share one factor
    factored = []
    splu, evaluate = spla.splu, verify.policy_evaluation

    def counting_splu(a, *args, **kwargs):
        factored.append(a.shape)
        return splu(a, *args, **kwargs)

    def counting_evaluation(*args, **kwargs):
        before = len(factored)
        out = evaluate(*args, **kwargs)
        per_call.append(len(factored) - before)
        return out

    per_call = []
    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(verify, "policy_evaluation", counting_evaluation)
    report = audit_comparison(quadratic_1d, build_grid(1, 4.0, 0.1), delta=1.0)
    assert per_call == [1, 0]
    assert report.constants["linear_min_gap"] >= -1e-10


def test_consistency_report_pass_and_fail():
    good = consistency_report(SQRT2, SQRT2 * 1.01, SQRT2 * 1.005, mc_std_error=0.01)
    assert good.passed
    flagged = consistency_report(SQRT2, SQRT2, SQRT2 + 0.5, mc_std_error=0.001)
    assert not flagged.passed
    assert flagged.constants["mc_gap"] > flagged.constants["mc_allowance"]


def test_reports_markdown(quadratic_1d):
    grid = build_grid(1, 4.0, 0.1)
    report = audit_comparison(quadratic_1d, grid)
    text = reports_to_markdown([report])
    assert "comparison_principle" in text
    assert "PASS" in text
