import numpy as np
import pytest

from ergodic_hjb import fields
from ergodic_hjb.errors import CoefficientError, ParameterError


def central_diff(field, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (field(x + e) - field(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("field,points", [
    (fields.constant(1, 3.0), [[0.3], [-1.2]]),
    (fields.quadratic(2, weights=(1.0, 2.5), c0=0.7), [[0.4, -0.9], [1.3, 0.2]]),
    (fields.power_radial(2, c=1.5, exponent=2.5), [[0.6, 0.8], [-1.1, 0.3]]),
    (fields.trig_power(1, beta1=2.0, beta2=0.5), [[0.9], [-2.2]]),
    (fields.trig_power(2, beta1=2.0, beta2=0.5), [[1.4, -0.6]]),
])
def test_gradient_matches_central_difference(field, points):
    for x in points:
        x = np.asarray(x)
        assert np.allclose(field.gradient(x), central_diff(field, x), rtol=1e-6, atol=1e-6)


def test_evaluation_is_finite_on_box():
    f = fields.trig_power(2, beta1=2.0, beta2=0.5)
    x = np.random.default_rng(0).uniform(-6, 6, size=(500, 2))
    assert np.all(np.isfinite(f(x)))
    assert np.all(np.isfinite(f.gradient(x)))


def test_quadratic_values():
    f = fields.quadratic(1)
    assert f(np.array([3.0])) == 9.0
    assert np.allclose(f.gradient(np.array([3.0])), [6.0])


def test_scaled_and_shifted():
    f = fields.quadratic(1)
    assert f.scaled(4.0)(np.array([2.0])) == 16.0
    assert f.shifted(5.0)(np.array([2.0])) == 9.0
    trig = fields.trig_power(1, 2.0, 0.5)
    x = np.array([1.3])
    assert trig.shifted(2.0)(x) == pytest.approx(trig(x) + 2.0)
    assert np.allclose(trig.shifted(2.0).gradient(x), trig.gradient(x))
    # scaling acts on the whole field, offset included
    assert trig.shifted(2.0).scaled(3.0)(x) == pytest.approx(3.0 * (trig(x) + 2.0))


def test_gradient_vanishes_at_origin_for_radial_forms():
    origin = np.zeros(2)
    assert np.allclose(fields.power_radial(2, 1.0, 2.5).gradient(origin), 0.0)
    assert np.allclose(fields.trig_power(2, 2.0, 0.5).gradient(origin), 0.0)


def test_metric_validation():
    fields.constant_metric(2, [[2.0, 0.5], [0.5, 1.0]])
    with pytest.raises(CoefficientError):
        fields.constant_metric(2, [[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(CoefficientError):
        fields.constant_metric(2, [[1.0, 0.3], [0.0, 1.0]])  # asymmetric


def test_metric_inverse_and_bounds():
    m = fields.constant_metric(2, [[2.0, 0.0], [0.0, 0.5]])
    assert np.allclose(m.a @ m.a_inv, np.eye(2))
    assert m.eig_bounds() == (0.5, 2.0)
    assert not m.a.flags.writeable and not m.a_inv.flags.writeable


def test_drift_field():
    b = fields.DriftField(2, (1.0, -0.5))
    assert b.b.shape == (2,)
    assert np.allclose(b.b, [1.0, -0.5])
    assert not b.b.flags.writeable
    assert fields.DriftField(2).is_zero


@pytest.mark.parametrize("field", [
    fields.constant(1, 2.0),
    fields.quadratic(2, weights=(1.0, 3.0), c0=-1.0),
    fields.power_radial(1, c=0.5, exponent=3.0),
    fields.trig_power(2, beta1=2.5, beta2=0.4, c=1.2),
])
def test_coefficient_roundtrip(field):
    assert fields.CoefficientField.from_dict(field.to_dict(), field.dim) == field


def test_invalid_forms_rejected():
    with pytest.raises(ParameterError):
        fields.CoefficientField("mystery", 1)
    with pytest.raises(ParameterError):
        fields.power_radial(1, 1.0, exponent=0.5)
    with pytest.raises(ParameterError):
        fields.quadratic(2, weights=(1.0,))


@pytest.mark.parametrize("make", [
    lambda bad: fields.constant(1, bad),
    lambda bad: fields.quadratic(2, weights=(1.0, bad)),
    lambda bad: fields.quadratic(1, c0=bad),
    lambda bad: fields.power_radial(1, c=1.0, exponent=bad),
    lambda bad: fields.trig_power(1, beta1=2.0, beta2=bad),
    lambda bad: fields.constant(1, 1.0).shifted(bad),
], ids=["constant", "weight", "c0", "exponent", "beta2", "offset"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_parameters_rejected(make, bad):
    with pytest.raises(ParameterError, match="non-finite parameter"):
        make(bad)


@pytest.mark.parametrize("field", [
    fields.constant(2, 0.7).shifted(0.2),
    fields.quadratic(2, weights=(0.0, 0.0), c0=1.5),
    fields.power_radial(2, c=0.0, exponent=2.5).shifted(0.3),
    fields.trig_power(2, beta1=2.0, beta2=0.5, c=0.0).shifted(0.4),
], ids=["constant", "quadratic", "power-radial", "trig-power"])
def test_evaluator_of_x_free_field_is_one_scalar(field):
    pts = np.random.default_rng(7).uniform(-3, 3, size=(50, 2))
    value = field.evaluator()(pts)
    assert np.ndim(value) == 0
    assert np.array_equal(np.broadcast_to(value, (50,)), field(pts))


def test_evaluator_of_x_dependent_field_is_the_field():
    field = fields.quadratic(2, weights=(0.0, 1.0))
    assert field.evaluator() is field


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_call_bit_identical_to_broadcast_sum(dim):
    # the per-axis accumulation keeps every element's arithmetic of the broadcast form
    x = np.random.default_rng(dim).normal(scale=2.0, size=(257, dim))
    w = np.linspace(0.3, 1.7, dim)
    r2 = np.sum(x * x, axis=-1)
    cases = [
        (fields.quadratic(dim, weights=w, c0=0.4), 0.4 + np.sum(w * x * x, axis=-1)),
        (fields.power_radial(dim, c=1.5, exponent=2.5), 1.5 * r2 ** 1.25),
        (fields.trig_power(dim, beta1=2.0, beta2=0.5, c=0.8),
         0.8 * r2 ** 1.0 * (2.0 + np.sin((1.0 + r2) ** 0.5))),
    ]
    for field, expected in cases:
        assert np.array_equal(field(x), expected)
