"""Coefficient field presets with exact analytic gradients.

Scalar fields (sources f, switching rates) come from a closed preset family:
constant, quadratic form, radial power and a trig-modulated radial power.
Keeping the family closed lets every field carry an exact gradient, which the
assumption audits and the feedback-control extraction rely on.

All evaluations broadcast over leading axes: ``x`` has shape ``(..., dim)``
and scalar fields return shape ``(...,)``.  The metric and drift presets are
constant, so they are held as plain arrays rather than evaluated per point.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CoefficientError, ParameterError


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def number(value, what: str, integer: bool = False):
    """``value`` read from a config or problem file: a JSON number, never a bool or a
    string, returned as a float; with ``integer``, a JSON integer returned as an int."""
    kind, label = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParameterError(f"{what} must be {label}, got {value!r}")
    try:
        return int(value) if integer else float(value)
    except OverflowError:   # an integer beyond the float range
        raise ParameterError(f"{what} must be a number in the float range") from None


def _as_points(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ParameterError(f"point has trailing shape {x.shape[-1:]}, expected ({dim},)")
    return x


def _sum_squares(x: np.ndarray, weights=None) -> np.ndarray:
    """``sum_i w_i x_i x_i`` over the trailing axis, accumulated one axis column at a time.

    Each term is ``(w_i x_i) x_i`` and the terms are added in axis order, as
    ``np.sum(w * x * x, axis=-1)`` adds them, but every operation runs on a whole
    column instead of on the short trailing axis.  ``weights=None`` means unit weights.
    """
    acc = None
    for i in range(x.shape[-1]):
        col = x[..., i]
        term = col * col if weights is None else weights[i] * col * col
        acc = term if acc is None else acc + term
    return acc


@dataclass(frozen=True)
class CoefficientField:
    """Scalar coefficient from the closed preset family.

    Forms
    -----
    constant:      c
    quadratic:     c0 + sum_i w_i x_i^2
    power_radial:  c |x|^exponent              (exponent > 1)
    trig_power:    c |x|^beta1 (2 + sin((1 + |x|^2)^beta2))   (beta1 > 1, beta2 > 0)
    """

    form: str
    dim: int
    c: float = 0.0
    weights: tuple[float, ...] = ()
    exponent: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.form not in ("constant", "quadratic", "power_radial", "trig_power"):
            raise ParameterError(f"unknown coefficient form {self.form!r}")
        params = (self.c, *self.weights, self.exponent, self.beta1, self.beta2, self.offset)
        if not np.all(np.isfinite(params)):
            raise ParameterError(f"{self.form} coefficient has a non-finite parameter: "
                                 f"{self.to_dict()}")
        if self.form == "quadratic" and len(self.weights) != self.dim:
            raise ParameterError("quadratic form needs one weight per axis")
        if self.form == "power_radial" and self.exponent <= 1.0:
            raise ParameterError("radial power needs exponent > 1 for a defined gradient")
        if self.form == "trig_power" and (self.beta1 <= 1.0 or self.beta2 <= 0.0):
            raise ParameterError("trig-modulated power needs beta1 > 1 and beta2 > 0")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x, self.dim)
        if self.form == "constant":
            return np.full(x.shape[:-1], self.c + self.offset)
        if self.form == "quadratic":
            return self.c + self.offset + _sum_squares(x, self.weights)
        r2 = _sum_squares(x)
        if self.form == "power_radial":
            return self.offset + self.c * r2 ** (self.exponent / 2.0)
        phase = (1.0 + r2) ** self.beta2
        return self.offset + self.c * r2 ** (self.beta1 / 2.0) * (2.0 + np.sin(phase))

    def evaluator(self):
        """This field as a callable ``x -> values``.

        A field that does not depend on x (a constant, or a form whose x
        terms carry zero weight) is evaluated once, here, and its callable
        returns that scalar, which broadcasts against any point set.
        """
        x_weights = self.weights if self.form == "quadratic" else (self.c,)
        if self.form == "constant" or not any(x_weights):
            value = float(self(np.zeros(self.dim)))
            return lambda x: value
        return self

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x, self.dim)
        if self.form == "constant":
            return np.zeros_like(x)
        if self.form == "quadratic":
            return 2.0 * np.asarray(self.weights) * x
        r2 = np.sum(x * x, axis=-1)
        if self.form == "power_radial":
            # c * exponent * |x|^(exponent-2) * x, zero at the origin for exponent > 1
            fac = np.where(r2 > 0.0, r2, 1.0) ** (self.exponent / 2.0 - 1.0)
            fac = np.where(r2 > 0.0, fac, 0.0)
            return (self.c * self.exponent * fac)[..., None] * x
        phase = (1.0 + r2) ** self.beta2
        radial = np.where(r2 > 0.0, r2, 1.0)
        g1 = self.beta1 * radial ** (self.beta1 / 2.0 - 1.0) * (2.0 + np.sin(phase))
        g2 = r2 ** (self.beta1 / 2.0) * np.cos(phase) * self.beta2 * (1.0 + r2) ** (self.beta2 - 1.0) * 2.0
        fac = np.where(r2 > 0.0, self.c * (g1 + g2), 0.0)
        return fac[..., None] * x

    def scaled(self, s: float) -> "CoefficientField":
        if self.form == "quadratic":
            return replace(self, c=self.c * s, weights=tuple(w * s for w in self.weights),
                           offset=self.offset * s)
        return replace(self, c=self.c * s, offset=self.offset * s)

    def shifted(self, c: float) -> "CoefficientField":
        return replace(self, offset=self.offset + c)

    def to_dict(self) -> dict:
        d = {"form": self.form}
        if self.form == "constant":
            d["c"] = self.c
        elif self.form == "quadratic":
            d["c0"] = self.c
            d["weights"] = list(self.weights)
        elif self.form == "power_radial":
            d["c"] = self.c
            d["exponent"] = self.exponent
        else:
            d["c"] = self.c
            d["beta1"] = self.beta1
            d["beta2"] = self.beta2
        if self.offset:
            d["offset"] = self.offset
        return d

    @staticmethod
    def from_dict(d: dict, dim: int) -> "CoefficientField":
        form = d["form"]

        def param(key, default=None):
            value = d[key] if default is None else d.get(key, default)
            return number(value, f"coefficient parameter {key}")

        offset = param("offset", 0.0)
        if form == "constant":
            return CoefficientField("constant", dim, c=param("c"), offset=offset)
        if form == "quadratic":
            return CoefficientField("quadratic", dim, c=param("c0", 0.0),
                                    weights=tuple(number(w, "quadratic weight")
                                                  for w in d["weights"]),
                                    offset=offset)
        if form == "power_radial":
            return CoefficientField("power_radial", dim, c=param("c"),
                                    exponent=param("exponent"), offset=offset)
        if form == "trig_power":
            return CoefficientField("trig_power", dim, c=param("c"),
                                    beta1=param("beta1"), beta2=param("beta2"),
                                    offset=offset)
        raise ParameterError(f"unknown coefficient form {form!r}")


def constant(dim: int, c: float) -> CoefficientField:
    return CoefficientField("constant", dim, c=c)


def quadratic(dim: int, weights=None, c0: float = 0.0) -> CoefficientField:
    if weights is None:
        weights = (1.0,) * dim
    return CoefficientField("quadratic", dim, c=c0, weights=tuple(float(w) for w in weights))


def power_radial(dim: int, c: float, exponent: float) -> CoefficientField:
    return CoefficientField("power_radial", dim, c=c, exponent=exponent)


def trig_power(dim: int, beta1: float, beta2: float, c: float = 1.0) -> CoefficientField:
    return CoefficientField("trig_power", dim, c=c, beta1=beta1, beta2=beta2)


@dataclass(frozen=True)
class DriftField:
    """Bounded vector-valued drift entering the Hamiltonian as ``b . p``.

    Only the constant preset is provided; it is enough to exercise the
    linear-in-p Hamiltonian term while keeping the Legendre pair exact.
    ``b`` is the read-only ``(dim,)`` vector.
    """

    dim: int
    value: tuple[float, ...] = ()
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.value:
            object.__setattr__(self, "value", (0.0,) * self.dim)
        if len(self.value) != self.dim:
            raise ParameterError("drift vector length must match the dimension")
        object.__setattr__(self, "b", _read_only(np.asarray(self.value, dtype=float)))

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.value)

    def to_dict(self) -> dict:
        return {"form": "constant", "value": list(self.value)}

    @staticmethod
    def from_dict(d: dict, dim: int) -> "DriftField":
        if d.get("form", "constant") != "constant":
            raise ParameterError("drift supports only the constant preset")
        value = d["value"]
        if not isinstance(value, (list, tuple)) or len(value) != dim:
            raise ParameterError(f"drift value must list one number per axis ({dim}), "
                                 f"got {value!r}")
        return DriftField(dim, tuple(number(v, "drift component") for v in value))


@dataclass(frozen=True)
class MetricField:
    """Symmetric positive-definite metric a; presets: identity, constant SPD.

    ``matrix`` is stored row-major as a tuple of tuples so instances stay
    hashable and immutable.  ``a`` and ``a_inv`` are the read-only
    ``(dim, dim)`` matrix and its inverse; ``scalar`` records whether both are
    exact multiples of the identity, as every 1x1 metric is.
    """

    dim: int
    matrix: tuple[tuple[float, ...], ...] | None = None  # None means identity
    a: np.ndarray = field(init=False, repr=False, compare=False)
    a_inv: np.ndarray = field(init=False, repr=False, compare=False)
    scalar: bool = field(init=False, repr=False, compare=False)
    _eigbounds: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.eye(self.dim) if self.matrix is None else np.asarray(self.matrix, dtype=float)
        if a.shape != (self.dim, self.dim):
            raise CoefficientError(f"metric has shape {a.shape}, expected ({self.dim},{self.dim})")
        if not np.allclose(a, a.T, atol=1e-12):
            raise CoefficientError("metric must be symmetric")
        eig = np.linalg.eigvalsh(a)
        if eig.min() <= 0.0:
            raise CoefficientError(f"metric is not positive definite (eigenvalues {eig})")
        a_inv = np.linalg.inv(a)
        object.__setattr__(self, "a", _read_only(a))
        object.__setattr__(self, "a_inv", _read_only(a_inv))
        object.__setattr__(self, "scalar", all(np.array_equal(m, m[0, 0] * np.eye(self.dim))
                                               for m in (a, a_inv)))
        object.__setattr__(self, "_eigbounds", (float(eig.min()), float(eig.max())))

    def eig_bounds(self) -> tuple[float, float]:
        """(smallest, largest) eigenvalue of the constant metric."""
        return self._eigbounds

    def to_dict(self) -> dict:
        if self.matrix is None:
            return {"form": "identity"}
        return {"form": "constant_spd", "matrix": [list(r) for r in self.matrix]}

    @staticmethod
    def from_dict(d: dict, dim: int) -> "MetricField":
        form = d.get("form", "identity")
        if form == "identity":
            return MetricField(dim)
        if form == "constant_spd":
            return MetricField(dim, tuple(tuple(number(v, "metric entry") for v in r)
                                          for r in d["matrix"]))
        raise ParameterError(f"unknown metric form {form!r}")


def identity_metric(dim: int) -> MetricField:
    return MetricField(dim)


def constant_metric(dim: int, matrix) -> MetricField:
    return MetricField(dim, tuple(tuple(float(v) for v in row) for row in np.asarray(matrix)))
