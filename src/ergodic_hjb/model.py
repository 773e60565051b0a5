"""Problem data: Hamiltonian/Lagrangian pairs, switching rates, sources.

The Hamiltonians come from the power-law family

    H_k(x, p) = (1/gamma_k) <p, a_k(x) p>^(gamma_k/2) + b_k(x) . p

whose Legendre conjugate is available in closed form,

    l_k(x, xi) = (1/gamma_k') <xi - b_k, a_k^{-1}(xi - b_k)>^(gamma_k'/2),

with 1/gamma_k + 1/gamma_k' = 1.  The supremum in
H_k(x,p) = sup_xi { xi.p - l_k(x,xi) } is attained at xi = grad_p H_k(x,p),
which is what the feedback-control extraction uses.

Sign convention: the drift enters the Hamiltonian as ``+ b . p``.  In the
controlled-diffusion reading the state drift of the optimally controlled
process is ``-grad_p H_k(x, grad u_k)``; see :mod:`ergodic_hjb.simulate`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import maximum_filter

from .discretize import Grid
from .errors import ParameterError
from .fields import CoefficientField, DriftField, MetricField

STATES = (1, 2)


def other_state(k: int) -> int:
    _check_state(k)
    return 3 - k


def _check_state(k: int) -> None:
    if k not in STATES:
        raise ParameterError(f"state index must be 1 or 2, got {k}")


def _quad(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...ij,...j->...", p, a, p)


def ramp(values: np.ndarray, level: float, gamma: float) -> np.ndarray:
    """Concave sublinearizing ramp: identity below ``level``, then
    ``level - gamma/2 + (gamma/2)(v - level + 1)^(2/gamma)``.

    Nondecreasing, 1-Lipschitz, and never above its argument.
    """
    v = np.asarray(values, dtype=float)
    above = np.maximum(v - level + 1.0, 1.0)
    capped = level - gamma / 2.0 + (gamma / 2.0) * above ** (2.0 / gamma)
    return np.where(v <= level, v, capped)


def ramp_slope(values: np.ndarray, level: float, gamma: float) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    above = np.maximum(v - level + 1.0, 1.0)
    return np.where(v <= level, 1.0, above ** (2.0 / gamma - 1.0))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Per-state Hamiltonian data for the power-law family."""

    dim: int
    gammas: tuple[float, float]
    metrics: tuple[MetricField, MetricField]
    drifts: tuple[DriftField, DriftField]
    truncation_level: float | None = None
    truncation_floor: float = 0.0

    def __post_init__(self):
        for g in self.gammas:
            if g <= 1.0:
                raise ParameterError(f"power exponent must exceed 1, got {g}")

    def gamma(self, k: int) -> float:
        _check_state(k)
        return self.gammas[k - 1]

    def conjugate_gamma(self, k: int) -> float:
        g = self.gamma(k)
        return g / (g - 1.0)

    def metric(self, k: int) -> MetricField:
        _check_state(k)
        return self.metrics[k - 1]

    def drift(self, k: int) -> DriftField:
        _check_state(k)
        return self.drifts[k - 1]

    def truncated(self, k: int) -> bool:
        return self.truncation_level is not None and self.gamma(k) > 2.0

    # -- evaluation ---------------------------------------------------------

    def value_raw(self, k: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Untruncated H_k(x, p)."""
        g = self.gamma(k)
        q = _quad(np.asarray(p, dtype=float), self.metric(k)(x))
        return q ** (g / 2.0) / g + np.sum(self.drift(k)(x) * p, axis=-1)

    def value(self, k: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        raw = self.value_raw(k, x, p)
        if self.truncated(k):
            return ramp(raw, self.truncation_level, self.gamma(k))
        return raw

    def grad_p_raw(self, k: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Analytic grad_p H_k; at p = 0 with gamma_k < 2 the power term is 0 by continuity."""
        g = self.gamma(k)
        p = np.asarray(p, dtype=float)
        a = self.metric(k)(x)
        q = _quad(p, a)
        if g == 2.0:
            fac = np.ones_like(q)
        else:
            fac = np.where(q > 0.0, np.where(q > 0.0, q, 1.0) ** (g / 2.0 - 1.0), 0.0)
        ap = np.einsum("...ij,...j->...i", a, p)
        return fac[..., None] * ap + self.drift(k)(x)

    def grad_p(self, k: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        grad = self.grad_p_raw(k, x, p)
        if self.truncated(k):
            slope = ramp_slope(self.value_raw(k, x, p), self.truncation_level, self.gamma(k))
            return slope[..., None] * grad
        return grad

    def lagrangian(self, k: int, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """l_k(x, xi); nonnegative, zero exactly at xi = b_k(x)."""
        gc = self.conjugate_gamma(k)
        d = np.asarray(xi, dtype=float) - self.drift(k)(x)
        s = _quad(d, self.metric(k).inverse(x))
        return s ** (gc / 2.0) / gc

    def duality_gap(self, k: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """H_k(x,p) - (p . xi* - l_k(x, xi*)) at the maximizer xi* = grad_p H_k.

        Zero in exact arithmetic; the contract is |gap| <= 1e-9 (1 + |H|).
        """
        if self.truncation_level is not None and any(self.truncated(k2) for k2 in STATES):
            raise ParameterError("duality gap is defined for untruncated Hamiltonians")
        xi = self.grad_p_raw(k, x, p)
        h = self.value_raw(k, x, p)
        return h - (np.sum(np.asarray(p) * xi, axis=-1) - self.lagrangian(k, x, xi))

    # -- audit helpers ------------------------------------------------------

    def growth_constant(self, k: int, x_samples: np.ndarray, p_samples: np.ndarray) -> float:
        """Smallest C >= 1 with C^{-1}|p|^g - C <= H_k <= C(|p|^g + 1) on the samples."""
        g = self.gamma(k)
        c = 1.0
        for p in p_samples:
            h = self.value_raw(k, x_samples, np.broadcast_to(p, x_samples.shape))
            pg = np.linalg.norm(p) ** g
            c = max(c, float(np.max(h / (pg + 1.0))))
            # lower branch: need |p|^g <= C*H + C^2, solve the per-sample quadratic
            hmin = float(np.min(h))
            c = max(c, (-hmin + np.sqrt(hmin**2 + 4.0 * pg)) / 2.0)
        return c


def truncate_hamiltonian(spec: HamiltonianSpec, level: float,
                         floor: float = 1.0) -> HamiltonianSpec:
    """Copy of the Hamiltonian data whose superquadratic states evaluate
    through the concave ramp.

    States with gamma <= 2 are left untouched.  ``floor`` is the lower bound
    of the Hamiltonian range; it is recorded with the truncation level in
    problem files.
    """
    if level <= 0:
        raise ParameterError("truncation level must be positive")
    if not any(g > 2.0 for g in spec.gammas):
        return spec
    return replace(spec, truncation_level=float(level), truncation_floor=float(floor))


@dataclass(frozen=True)
class ProblemSpec:
    """Full system data: dimension, per-state Hamiltonians, switching rates, sources."""

    dimension: int
    hamiltonian: HamiltonianSpec
    switch_rates: tuple[CoefficientField, CoefficientField]
    sources: tuple[CoefficientField, CoefficientField]
    x_ref: tuple[float, ...] = ()

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ParameterError("dimension must be 1 or 2")
        if self.hamiltonian.dim != self.dimension:
            raise ParameterError("hamiltonian dimension mismatch")
        if not self.x_ref:
            object.__setattr__(self, "x_ref", (0.0,) * self.dimension)
        if len(self.x_ref) != self.dimension:
            raise ParameterError(
                f"x_ref has {len(self.x_ref)} coordinates, the problem has dimension "
                f"{self.dimension}")

    def switch_rate(self, k: int) -> CoefficientField:
        _check_state(k)
        return self.switch_rates[k - 1]

    def source(self, k: int) -> CoefficientField:
        _check_state(k)
        return self.sources[k - 1]

    def with_sources(self, sources) -> "ProblemSpec":
        return replace(self, sources=tuple(sources))

    def with_hamiltonian(self, ham: HamiltonianSpec) -> "ProblemSpec":
        return replace(self, hamiltonian=ham)

    @property
    def ref_point(self) -> np.ndarray:
        return np.asarray(self.x_ref, dtype=float)

    def to_dict(self) -> dict:
        ham = self.hamiltonian
        states = []
        for k in STATES:
            states.append({
                "gamma": ham.gamma(k),
                "a": ham.metric(k).to_dict(),
                "b": ham.drift(k).to_dict(),
                "alpha": self.switch_rate(k).to_dict(),
                "f": self.source(k).to_dict(),
            })
        d = {"dimension": self.dimension, "x_ref": list(self.x_ref), "states": states}
        if ham.truncation_level is not None:
            d["truncation"] = {"level": ham.truncation_level, "floor": ham.truncation_floor}
        return d

    @staticmethod
    def from_dict(d: dict) -> "ProblemSpec":
        dim = int(d["dimension"])
        states = d["states"]
        if len(states) != 2:
            raise ParameterError("problem file must declare exactly two states")
        ham = HamiltonianSpec(
            dim=dim,
            gammas=tuple(float(s["gamma"]) for s in states),
            metrics=tuple(MetricField.from_dict(s["a"], dim) for s in states),
            drifts=tuple(DriftField.from_dict(s["b"], dim) for s in states),
        )
        if "truncation" in d:
            ham = replace(ham, truncation_level=float(d["truncation"]["level"]),
                          truncation_floor=float(d["truncation"].get("floor", 1.0)))
        return ProblemSpec(
            dimension=dim,
            hamiltonian=ham,
            switch_rates=tuple(CoefficientField.from_dict(s["alpha"], dim) for s in states),
            sources=tuple(CoefficientField.from_dict(s["f"], dim) for s in states),
            x_ref=tuple(float(v) for v in d.get("x_ref", (0.0,) * dim)),
        )


def save_problem(problem: ProblemSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem.to_dict(), fh, indent=2, sort_keys=True)


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        return ProblemSpec.from_dict(json.load(fh))


@dataclass(frozen=True)
class AssumptionReport:
    """Empirical standing-assumption constants measured on a grid."""

    upsilon_alpha: float
    growth_c1: dict
    source_c2: dict
    source_c3: dict
    coercive: dict
    passed: bool
    violations: tuple
    narrative: str

    def to_dict(self) -> dict:
        return {
            "upsilon_alpha": self.upsilon_alpha,
            "growth_c1": self.growth_c1,
            "source_c2": self.source_c2,
            "source_c3": self.source_c3,
            "coercive": self.coercive,
            "passed": self.passed,
            "violations": list(self.violations),
            "narrative": self.narrative,
        }


def validate_assumptions(problem: ProblemSpec, box: Grid, declared: dict | None = None) -> AssumptionReport:
    """Measure the standing-assumption constants on every node of ``box``.

    Reports the smallest constants making the bounds hold on the samples:
    the switching-rate envelope, the source gradient-growth constant
    (|grad f| <= C2 (1 + |f|^(2 - 1/gamma))), the local-supremum constant
    over unit windows, and a coercivity flag (outer-shell minimum of f must
    exceed the inner-shell minimum).  With ``declared`` bounds the report
    carries pass/fail plus the offending nodes instead of raising.
    """
    pts = box.points
    violations = []

    upsilon = 0.0
    for k in STATES:
        a = problem.switch_rate(k)(pts)
        ga = problem.switch_rate(k).gradient(pts)
        if np.any(a <= 0.0):
            for i in np.flatnonzero(a <= 0.0)[:5]:
                violations.append({"check": "switch_rate_positive", "state": k,
                                   "node": int(i), "point": pts[i].tolist(),
                                   "lhs": float(a[i]), "rhs": 0.0})
            upsilon = float("inf")
            continue
        upsilon = max(upsilon, float(np.max(a)), float(np.max(1.0 / a)),
                      float(np.max(np.linalg.norm(ga, axis=-1))))
    upsilon = max(upsilon, 1.0)

    c2, c3, coercive = {}, {}, {}
    window = 2 * max(1, int(round(1.0 / box.h))) + 1
    rho = np.linalg.norm(pts, ord=np.inf, axis=-1) if box.dim > 1 else np.abs(pts[:, 0])
    inner = rho <= 0.25 * box.radius
    outer = rho >= 0.75 * box.radius
    for k in STATES:
        f = problem.source(k)(pts)
        gf = np.linalg.norm(problem.source(k).gradient(pts), axis=-1)
        envelope = 1.0 + np.abs(f) ** (2.0 - 1.0 / problem.hamiltonian.gamma(k))
        ratio = gf / envelope
        c2[k] = float(np.max(ratio))
        local_sup = maximum_filter(np.abs(box.to_grid_shape(f)), size=window,
                                   mode="nearest").ravel()
        c3[k] = float(np.max(local_sup / (np.abs(f) + 1.0)))
        coercive[k] = bool(np.min(f[outer]) > np.min(f[inner]))
        if declared and "c2" in declared:
            bad = ratio > declared["c2"]
            for i in np.flatnonzero(bad)[:5]:
                violations.append({"check": "source_gradient_growth", "state": k,
                                   "node": int(i), "point": pts[i].tolist(),
                                   "lhs": float(gf[i]), "rhs": float(declared["c2"] * envelope[i])})

    n_x = min(64, box.n_nodes)
    x_samples = pts[np.linspace(0, box.n_nodes - 1, n_x).astype(int)]
    mags = np.concatenate([[0.0], np.geomspace(0.25, 8.0, 7)])
    if box.dim == 1:
        p_samples = np.array([[s * m] for m in mags for s in (-1.0, 1.0)])
    else:
        angles = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)
        p_samples = np.array([[m * np.cos(t), m * np.sin(t)] for m in mags for t in angles])
    c1 = {k: problem.hamiltonian.growth_constant(k, x_samples, p_samples) for k in STATES}

    passed = not violations
    if declared:
        if "upsilon_alpha" in declared and upsilon > declared["upsilon_alpha"]:
            passed = False
        if "c2" in declared and max(c2.values()) > declared["c2"]:
            passed = False
        if "c3" in declared and max(c3.values()) > declared["c3"]:
            passed = False
        if declared.get("require_coercive") and not all(coercive.values()):
            passed = False
    narrative = (f"upsilon_alpha={upsilon:.4g}, C1={max(c1.values()):.4g}, "
                 f"C2={max(c2.values()):.4g}, C3={max(c3.values()):.4g}, "
                 f"coercive={all(coercive.values())}")
    return AssumptionReport(
        upsilon_alpha=upsilon,
        growth_c1={str(k): v for k, v in c1.items()},
        source_c2={str(k): v for k, v in c2.items()},
        source_c3={str(k): v for k, v in c3.items()},
        coercive={str(k): v for k, v in coercive.items()},
        passed=passed,
        violations=tuple(violations),
        narrative=narrative,
    )
