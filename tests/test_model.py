import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter

import ergodic_hjb
from ergodic_hjb import fields
from ergodic_hjb.discretize import build_grid
from ergodic_hjb.errors import CoefficientError, ParameterError
from ergodic_hjb.model import (
    HamiltonianSpec,
    _quad,
    _RampEnvelope,
    ProblemSpec,
    load_problem,
    other_state,
    ramp,
    save_problem,
    switch_rate_violations,
    truncate_hamiltonian,
    validate_assumptions,
    window_max,
)
from tests.conftest import make_problem


def ham(dim=2, gammas=(2.0, 2.0), drift=None, metric=None):
    drifts = (drift or fields.DriftField(dim),) * 2
    metrics = (metric or fields.identity_metric(dim),) * 2
    return HamiltonianSpec(dim=dim, gammas=gammas, metrics=metrics, drifts=drifts)


def test_other_state():
    assert other_state(1) == 2
    assert other_state(2) == 1
    with pytest.raises(ParameterError):
        other_state(0)


def test_hamiltonian_values():
    h = ham()
    x = np.zeros(2)
    assert h.value(1, x, np.array([3.0, 4.0])) == pytest.approx(12.5)
    hb = ham(drift=fields.DriftField(2, (1.0, 0.0)))
    assert hb.value(1, x, np.array([2.0, 0.0])) == pytest.approx(4.0)
    h4 = ham(dim=1, gammas=(4.0, 4.0))
    assert h4.value(1, np.zeros(1), np.array([2.0])) == pytest.approx(4.0)


def test_hamiltonian_gradient():
    h = ham()
    x = np.zeros(2)
    assert np.allclose(h.grad_p(1, x, np.array([3.0, 4.0])), [3.0, 4.0])
    h4 = ham(dim=1, gammas=(4.0, 4.0))
    assert np.allclose(h4.grad_p(1, np.zeros(1), np.array([2.0])), [8.0])


def test_gradient_matches_finite_difference(rng):
    metric = fields.constant_metric(2, [[2.0, 0.4], [0.4, 1.0]])
    h = ham(gammas=(2.5, 1.6), drift=fields.DriftField(2, (0.3, -0.2)), metric=metric)
    x = np.array([0.5, -0.8])
    for k in (1, 2):
        for _ in range(20):
            p = rng.uniform(-3, 3, size=2)
            step = 1e-5
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = step
                fd[j] = (h.value(k, x, p + e) - h.value(k, x, p - e)) / (2 * step)
            scale = 1.0 + np.linalg.norm(h.grad_p(k, x, p))
            assert np.allclose(h.grad_p(k, x, p), fd, atol=1e-6 * scale)


def test_gradient_at_zero_momentum_subquadratic():
    b = fields.DriftField(1, (0.7,))
    h = ham(dim=1, gammas=(1.5, 1.5), drift=b)
    assert np.allclose(h.grad_p(1, np.zeros(1), np.zeros(1)), [0.7])


def test_lagrangian_values():
    h = ham()
    x = np.zeros(2)
    assert h.lagrangian(1, x, np.array([3.0, 4.0])) == pytest.approx(12.5)
    h4 = ham(dim=1, gammas=(4.0, 4.0))
    assert h4.lagrangian(1, np.zeros(1), np.array([1.0])) == pytest.approx(0.75)
    hb = ham(drift=fields.DriftField(2, (1.0, 0.0)))
    assert hb.lagrangian(1, x, np.array([1.0, 0.0])) == pytest.approx(0.0)
    # a = [[2, 1], [1, 2]], b = (1, -1), xi = (2, 1): d = (1, 2), a^-1 d = (0, 1),
    # <d, a^-1 d> = 2, so l = 2/2 for gamma 2 and (3/4) 2^(2/3) for gamma 4
    ha = ham(gammas=(2.0, 4.0), drift=fields.DriftField(2, (1.0, -1.0)),
             metric=fields.constant_metric(2, [[2.0, 1.0], [1.0, 2.0]]))
    assert ha.lagrangian(1, x, np.array([2.0, 1.0])) == pytest.approx(1.0)
    assert ha.lagrangian(2, x, np.array([2.0, 1.0])) == pytest.approx(0.75 * 2.0 ** (2.0 / 3.0))


def test_duality_gap_quartic():
    h4 = ham(dim=1, gammas=(4.0, 4.0))
    gap = h4.duality_gap(1, np.zeros(1), np.array([2.0]))
    assert abs(gap) < 1e-12


def test_duality_gap_random_sweep(rng):
    for _ in range(40):
        dim = int(rng.integers(1, 3))
        g1, g2 = rng.uniform(1.2, 4.0, size=2)
        diag = rng.uniform(0.5, 2.0, size=dim)
        metric = fields.constant_metric(dim, np.diag(diag))
        drift = fields.DriftField(dim, tuple(rng.uniform(-1, 1, size=dim)))
        h = ham(dim=dim, gammas=(g1, g2), drift=drift, metric=metric)
        x = rng.uniform(-2, 2, size=dim)
        for k in (1, 2):
            for _ in range(25):
                p = rng.uniform(-4, 4, size=dim)
                gap = h.duality_gap(k, x, p)
                assert abs(gap) <= 1e-9 * (1.0 + abs(h.value(k, x, p)))


def test_fenchel_young_inequality(rng):
    h = ham(dim=2, gammas=(2.0, 1.7), drift=fields.DriftField(2, (0.2, 0.1)))
    x = np.array([0.4, -1.0])
    for k in (1, 2):
        for _ in range(50):
            p = rng.uniform(-3, 3, size=2)
            xi = rng.uniform(-5, 5, size=2)
            lhs = h.lagrangian(k, x, xi)
            rhs = np.dot(p, xi) - h.value(k, x, p)
            assert lhs >= rhs - 1e-9


def test_growth_envelope(rng):
    h = ham(dim=1, gammas=(3.0, 1.5), drift=fields.DriftField(1, (0.4,)))
    x_samples = rng.uniform(-3, 3, size=(20, 1))
    p_samples = np.array([[m * s] for m in [0.0, 0.3, 1.0, 2.0, 5.0] for s in (-1, 1)])
    for k in (1, 2):
        c1 = h.growth_constant(k, x_samples, p_samples)
        g = h.gamma(k)
        for p in p_samples:
            vals = h.value_raw(k, x_samples, np.broadcast_to(p, x_samples.shape))
            pg = np.linalg.norm(p) ** g
            assert np.all(vals <= c1 * (pg + 1.0) + 1e-9)
            assert np.all(vals >= pg / c1 - c1 - 1e-9)


def test_ramp_identity_below_level():
    assert ramp(5.0, level=10.0, gamma=4.0) == 5.0
    assert ramp(-3.0, level=10.0, gamma=4.0) == -3.0


def test_ramp_explicit_value():
    # level 1, gamma 4, v 17: 1 - 2 + 2*sqrt(17)
    assert ramp(17.0, level=1.0, gamma=4.0) == pytest.approx(-1.0 + 2.0 * math.sqrt(17.0))


def test_ramp_monotone_and_dominated():
    xs = np.linspace(-1.0, 100.0, 2000)
    vals = ramp(xs, level=10.0, gamma=4.0)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(vals <= xs + 1e-12)


def test_truncated_hamiltonian_chain_rule():
    h4 = truncate_hamiltonian(ham(dim=1, gammas=(4.0, 4.0)), level=2.0)
    x = np.zeros(1)
    p = np.array([2.5])
    step = 1e-6
    fd = (h4.value(1, x, p + step) - h4.value(1, x, p - step)) / (2 * step)
    assert h4.grad_p(1, x, p)[0] == pytest.approx(fd, rel=1e-5)
    assert h4.value(1, x, p) < h4.value_raw(1, x, p)
    assert abs(h4.duality_gap(1, x, p)) < 1e-12 * (1.0 + abs(h4.value(1, x, p)))
    # both states of a mixed problem, truncated or not, close the duality gap
    h24 = truncate_hamiltonian(ham(dim=1, gammas=(2.0, 4.0)), level=2.0)
    assert abs(h24.duality_gap(1, x, p)) < 1e-12
    assert abs(h24.duality_gap(2, x, p)) < 1e-12 * (1.0 + abs(h24.value(2, x, p)))


@pytest.mark.parametrize("gamma", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("level", [0.3, 1.0, 2.0, 3.0, 5.0, 28.7])
def test_truncated_pair_is_a_legendre_pair(gamma, level, rng):
    # the slope map of a convex envelope is nondecreasing, and the running cost
    # is the conjugate of the envelope: no duality gap, Fenchel-Young everywhere
    h = truncate_hamiltonian(ham(dim=1, gammas=(gamma, gamma)), level=level)
    x = np.zeros((4001, 1))
    p = np.linspace(0.0, 2.0 * (gamma * level) ** (1.0 / gamma) + 4.0, 4001)[:, None]
    slope = h.grad_p(1, x, p)[:, 0]      # the bridge's slope is s_c up to one ulp
    assert np.all(np.diff(slope) >= -1e-12 * slope[1:])
    values = h.value(1, x, p)
    assert np.all(np.abs(h.duality_gap(1, x, p)) <= 1e-12 * (1.0 + np.abs(values)))
    xi = rng.uniform(-30.0, 30.0, size=(4001, 1))
    assert np.all(h.lagrangian(1, x, xi) >= xi[:, 0] * p[:, 0] - values - 1e-9)


def test_truncated_pair_with_metric(rng):
    metric = fields.constant_metric(2, [[1.5, 0.4], [0.4, 0.8]])
    h = truncate_hamiltonian(ham(dim=2, gammas=(4.0, 3.0), metric=metric), level=3.0)
    x = np.zeros((500, 2))
    p = rng.uniform(-4.0, 4.0, size=(500, 2))
    for k in (1, 2):
        gap = h.duality_gap(k, x, p)
        assert np.all(np.abs(gap) <= 1e-12 * (1.0 + np.abs(h.value(k, x, p))))


@pytest.mark.parametrize("gamma, level", [(2.5, 0.3), (3.0, 5.0), (4.0, 2.0), (4.0, 28.7),
                                          (6.0, 1e3)])
def test_truncated_conjugate_matches_brute_force(gamma, level):
    # the running cost is sup_r (s r - ramp(r^gamma / gamma)): on a uniform r grid the
    # maximum is never above it, and falls short by at most dr^2 phi'' / 8 where phi is
    # convex, as it is at every maximizer (dr^2 phi'' is a second difference)
    env = _RampEnvelope(gamma, level)
    s_values = np.concatenate([env.s_c * np.array([1.0 - 1e-6, 1.0 + 1e-6]),
                               np.linspace(0.0, 4.0 * env.s_c, 9)[1:]])
    r = np.linspace(0.0, 4.0 * env.s_c + env.r_o + 1.0, 400_001)
    phi = ramp(r**gamma / gamma, level, gamma)
    shortfall = np.max(np.diff(phi, 2)) / 8.0
    for s in s_values:
        gains = s * r - phi
        best = int(np.argmax(gains))
        assert 0 < best < r.size - 1            # the maximizer lies inside the grid
        cost = float(env.conjugate(s))
        rounding = 1e-12 * (1.0 + abs(cost))
        assert gains[best] - rounding <= cost <= gains[best] + shortfall + rounding


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(gamma=st.floats(2.0, 8.0, exclude_min=True), level=st.floats(0.1, 1e3))
def test_truncated_pair_properties(gamma, level):
    # for any gamma > 2 and level, level < 1 included: no duality gap, a monotone
    # slope map, and a running cost continuous across the bridge slope s_c
    h = truncate_hamiltonian(ham(dim=1, gammas=(gamma, gamma)), level=level)
    env = _RampEnvelope(gamma, level)
    x = np.zeros((2001, 1))
    p = np.linspace(0.0, 2.0 * env.r_o + 4.0, 2001)[:, None]
    values = h.value(1, x, p)
    assert np.all(np.abs(h.duality_gap(1, x, p)) <= 1e-12 * (1.0 + np.abs(values)))
    slope = h.grad_p(1, x, p)[:, 0]
    assert np.all(np.diff(slope) >= -1e-12 * slope[1:])
    step = 1e-9 * env.s_c
    below, at, above = (env.conjugate(env.s_c + k * step) for k in (-1, 0, 1))
    # the conjugate's slope is the maximizer, at most r_o near s_c
    assert max(abs(at - below), abs(above - at)) <= 2.0 * env.r_o * step + 1e-12 * (1.0 + at)


def test_truncation_identity_for_subquadratic():
    h2 = ham(dim=1, gammas=(2.0, 2.0))
    assert truncate_hamiltonian(h2, level=5.0) is h2
    with pytest.raises(ParameterError):
        truncate_hamiltonian(ham(dim=1, gammas=(4.0, 4.0)), level=0.0)


def test_validate_assumptions_constant_rates(quadratic_1d):
    box = build_grid(1, 6.0, 0.1)
    report = validate_assumptions(quadratic_1d, box)
    assert report.constants["upsilon_alpha"] == pytest.approx(1.0)
    assert report.passed
    assert all(report.constants["coercive"].values())


def test_validate_assumptions_c2_quadratic(quadratic_1d):
    box = build_grid(1, 6.0, 0.05)
    report = validate_assumptions(quadratic_1d, box)
    # max of 2|x| / (1 + |x|^3) is ~1.06, attained near x = 2^(-1/3)
    assert 1.0 <= report.constants["source_c2"]["1"] <= 1.1
    assert report.constants["source_c2"]["1"] <= 2.0


def test_validate_assumptions_trig_source():
    # exponents satisfying (beta1 + 2 beta2 - 1) * gamma / (2 gamma - 1) <= beta1
    f = fields.trig_power(1, beta1=2.0, beta2=0.5)
    problem = make_problem(sources=(f, f))
    box = build_grid(1, 6.0, 0.05)
    report = validate_assumptions(problem, box)
    assert report.passed
    assert all(report.constants["coercive"].values())
    assert max(float(v) for v in report.constants["source_c2"].values()) < 10.0


def test_validate_assumptions_reports_nonpositive_rates():
    # alpha_1 = x^2 - 0.5 is not > 0 on abs(x) <= 0.7; the audit and the config
    # check read the same records
    problem = replace(make_problem(),
                      switch_rates=(fields.quadratic(1, c0=-0.5), fields.constant(1, 1.0)))
    box = build_grid(1, 4.0, 0.1)
    report = validate_assumptions(problem, box)
    assert not report.passed
    assert report.constants["upsilon_alpha"] == math.inf
    assert list(report.constants["violations"]) == switch_rate_violations(problem, box.points)
    assert len(report.constants["violations"]) == 5
    assert all(v["check"] == "switch_rate_positive" and v["state"] == 1 and v["lhs"] <= 0.0
               for v in report.constants["violations"])


@pytest.mark.parametrize("shape", [(1,), (7,), (61,), (1, 9), (5, 4), (21, 33)])
def test_window_max_is_the_nearest_mode_maximum_filter(shape):
    # windows of 11 and 101 outrun the short axes; the +-inf entries sit at both
    # ends of the flat order and inside, where they must spread and be outrun
    a = np.random.default_rng(sum(shape)).standard_normal(shape)
    a.flat[[0, -1, a.size // 2]] = [np.inf, -np.inf, -np.inf]
    for window in (1, 3, 11, 101):
        assert np.array_equal(window_max(a, window),
                              maximum_filter(a, size=window, mode="nearest")), window


def test_huge_gamma_feedback_raises_instead_of_overflowing():
    # |p|^(gamma - 2) p leaves the float range at |p| > 2 for gamma = 1000
    h = ham(dim=1, gammas=(2.0, 1000.0))
    p = np.array([[1.0], [3.0]])
    assert np.all(np.isfinite(h.grad_p(1, np.zeros((2, 1)), p)))
    with pytest.raises(CoefficientError, match=r"state 2: grad_p H overflows at gamma = 1000\.0"):
        h.grad_p(2, np.zeros((2, 1)), p)


def test_import_and_audit_load_no_ndimage_or_special():
    # scipy.ndimage pulls in scipy.special; neither belongs on the package's start-up path
    script = """
import sys
from ergodic_hjb import HamiltonianSpec, ProblemSpec, build_grid, fields, validate_assumptions
for dim in (1, 2):
    ham = HamiltonianSpec(dim=dim, gammas=(2.0, 2.0), metrics=(fields.identity_metric(dim),) * 2,
                          drifts=(fields.DriftField(dim),) * 2)
    problem = ProblemSpec(dimension=dim, hamiltonian=ham, sources=(fields.quadratic(dim),) * 2,
                          switch_rates=(fields.constant(dim, 1.0),) * 2)
    assert validate_assumptions(problem, build_grid(dim, 3.0, 0.25)).passed
print(sorted(m for m in ("scipy.ndimage", "scipy.special") if m in sys.modules))
"""
    src = str(Path(ergodic_hjb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_validate_assumptions_flags_declared_violation(quadratic_1d):
    box = build_grid(1, 4.0, 0.1)
    report = validate_assumptions(quadratic_1d, box, declared={"c2": 0.5})
    assert not report.passed
    assert any(v["check"] == "source_gradient_growth" for v in report.constants["violations"])


def test_problem_roundtrip(tmp_path):
    metric = fields.constant_metric(2, [[1.5, 0.2], [0.2, 1.0]])
    problem = make_problem(
        dim=2, gammas=(2.0, 3.0),
        sources=(fields.quadratic(2), fields.trig_power(2, 2.0, 0.5)),
        drifts=(fields.DriftField(2, (0.1, -0.3)), fields.DriftField(2)),
        metrics=(metric, fields.identity_metric(2)),
    )
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    assert load_problem(path) == problem


def test_truncated_problem_roundtrip(tmp_path):
    problem = make_problem(gammas=(4.0, 2.0))
    problem = problem.with_hamiltonian(truncate_hamiltonian(problem.hamiltonian, level=5.0))
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    assert load_problem(path) == problem
    # a floor written by older problem files is dropped like any unknown key
    legacy = {**problem.to_dict(), "truncation": {"level": 5.0, "floor": 1.0}}
    assert ProblemSpec.from_dict(legacy) == problem
    with pytest.raises(ParameterError, match="finite number > 0"):
        ProblemSpec.from_dict({**legacy, "truncation": {"level": float("nan")}})


def test_quad_bit_identical_to_broadcast_sum():
    # the columns of (v @ m) * v are added in order, as np.sum adds them
    rng = np.random.default_rng(5)
    m = np.array([[2.0, 0.6, -0.3], [0.6, 1.5, 0.4], [-0.3, 0.4, 1.2]])
    for dim in (1, 2, 3):
        v = rng.normal(size=(301, dim))
        a = m[:dim, :dim]
        assert np.all(np.linalg.eigvalsh(a) > 0.0)
        assert np.array_equal(_quad(v, a), np.sum((v @ a) * v, axis=-1))


_EDGE = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-150, -1e-150, 1e150, -1e150, 1.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(dim=st.sampled_from([1, 2, 3]), equal=st.booleans(),
       entries=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
       rows=st.lists(st.lists(st.one_of(st.sampled_from(_EDGE), st.floats(-1e150, 1e150)),
                              min_size=3, max_size=3), min_size=1, max_size=12))
def test_quad_diagonal_metric_bit_identical(dim, equal, entries, rows):
    # a diagonal metric takes the scalar multiply when it is c I, and the matmul
    # otherwise; either way the bits, signed zeros included, are those of the column
    # sum of (v @ m) * v.  Where a nonzero entry times c underflows to 0 the matmul
    # itself gives +0 or the product's sign, by the kernel it picks for the shape
    # (a fused multiply-add for d = 2 with two or more rows), so there only the
    # value is fixed
    diag = [entries[0]] * dim if equal else entries[:dim]
    metric = fields.constant_metric(dim, np.diag(diag))
    assert metric.scalar == (len(set(diag)) == 1)
    v = np.array([r[:dim] for r in rows])
    for m in (metric.a, metric.a_inv):
        terms = (v @ m) * v
        expected = terms[:, 0]
        for i in range(1, dim):
            expected = expected + terms[:, i]
        got = _quad(v, m, metric.scalar)
        assert np.array_equal(got, expected)
        exact = ~(np.any((v != 0) & (v * m[0, 0] == 0), axis=-1) & metric.scalar)
        assert got[exact].tobytes() == expected[exact].tobytes()


@pytest.mark.parametrize("dim, metric, drift", [
    (1, None, None), (1, [[0.5]], None), (1, None, (0.25,)),
    (2, None, None), (2, [[0.5, 0.0], [0.0, 0.5]], None), (2, [[2.0, 0.0], [0.0, 0.5]], (0.5, -1.0))])
def test_quadratic_lagrangian_bit_identical_to_power(dim, metric, drift):
    # at gamma = 2 the Lagrangian is q / 2, which is q ** 1.0 / 2.0 bit for bit on
    # signed zeros, subnormals, huge and tiny entries and infinities
    metrics = (fields.identity_metric(dim) if metric is None
               else fields.constant_metric(dim, np.array(metric)),) * 2
    drifts = (fields.DriftField(dim) if drift is None else fields.DriftField(dim, drift),) * 2
    ham = HamiltonianSpec(dim=dim, gammas=(2.0, 2.0), metrics=metrics, drifts=drifts)
    values = np.array([*_EDGE, np.inf, -np.inf])
    xi = np.stack(np.meshgrid(*([values] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    with np.errstate(all="ignore"):   # inf times a zero off-diagonal entry is NaN
        got = ham.lagrangian(2, np.zeros_like(xi), xi)
        d = xi if drift is None else xi - np.array(drift)
        q = _quad(d, metrics[0].a_inv, metrics[0].scalar)
        assert got.tobytes() == (q ** 1.0 / 2.0).tobytes()
