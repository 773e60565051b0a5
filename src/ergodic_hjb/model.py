"""Problem data: Hamiltonian/Lagrangian pairs, switching rates, sources.

The Hamiltonians come from the power-law family

    H_k(x, p) = (1/gamma_k) <p, a_k p>^(gamma_k/2) + b_k . p

whose Legendre conjugate is available in closed form,

    l_k(x, xi) = (1/gamma_k') <xi - b_k, a_k^{-1}(xi - b_k)>^(gamma_k'/2),

with 1/gamma_k + 1/gamma_k' = 1.  The metric a_k and the drift b_k are
constant, so ``x`` enters H_k and l_k only through the signature.  The
supremum in H_k(x,p) = sup_xi { xi.p - l_k(x,xi) } is attained at
xi = grad_p H_k(x,p), which is what the feedback-control extraction uses.

A truncated superquadratic state (see :func:`truncate_hamiltonian`) is the
convex envelope of ``ramp(H_k)`` instead, paired with its conjugate; it stays
a Legendre pair, so every consumer of ``value``, ``grad_p`` and
``lagrangian`` sees one consistent cost whether a state is truncated or not.

Sign convention: the drift enters the Hamiltonian as ``+ b . p``.  In the
controlled-diffusion reading the state drift of the optimally controlled
process is ``-grad_p H_k(x, grad u_k)``; see :mod:`ergodic_hjb.simulate`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .discretize import Grid
from .errors import CoefficientError, ParameterError
from .fields import CoefficientField, DriftField, MetricField, number

STATES = (1, 2)
VIOLATIONS_PER_STATE = 5   # violation records kept per state and check


def other_state(k: int) -> int:
    _check_state(k)
    return 3 - k


def _check_state(k: int) -> None:
    if k not in STATES:
        raise ParameterError(f"state index must be 1 or 2, got {k}")


def _quad(v: np.ndarray, m: np.ndarray, scalar: bool = False) -> np.ndarray:
    """<v, m v> over the leading axes of ``v`` for one ``(d, d)`` matrix ``m``.

    The columns of ``(v @ m) * v`` are added in order, one whole column at a time.
    When ``m`` is a ``scalar`` multiple ``c I`` of the identity, ``v * c + 0.0``
    stands in for ``v @ m``: for finite ``v`` the matmul's off-diagonal products
    are exact zeros and its zero sums are +0, so the bits are the same.  The one
    exception is the sign of a zero where a nonzero ``v_i c`` underflows, which
    the matmul takes from its kernel (a fused multiply-add keeps the product's
    sign); in 1D it is +0 either way.  Other diagonal ``m`` keep the matmul:
    broadcasting their ``(d,)`` diagonal over the rows of ``v`` gives the same
    bits but is slower than the matmul for d = 2.
    """
    terms = ((v * m[0, 0] + 0.0) if scalar else v @ m) * v
    acc = terms[..., 0]
    for i in range(1, terms.shape[-1]):
        acc = acc + terms[..., i]
    return acc


def ramp(values: np.ndarray, level: float, gamma: float) -> np.ndarray:
    """Concave sublinearizing ramp: identity below ``level``, then
    ``level - gamma/2 + (gamma/2)(v - level + 1)^(2/gamma)``.

    Nondecreasing, 1-Lipschitz, and never above its argument.
    """
    v = np.asarray(values, dtype=float)
    above = np.maximum(v - level + 1.0, 1.0)
    capped = level - gamma / 2.0 + (gamma / 2.0) * above ** (2.0 / gamma)
    return np.where(v <= level, v, capped)


class _RampEnvelope:
    """Convex envelope of a driftless ramped power law, and its conjugate.

    In the radial magnitude ``r = <p, a p>^(1/2)`` the ramped Hamiltonian is
    ``phi(r) = ramp(r^gamma / gamma)``: the power law below the junction
    radius ``r_n`` and the outer ramp branch above it, where
    ``w = r^gamma / gamma - level + 1`` gives the value ``level - gamma/2 +
    (gamma/2) w^(2/gamma)`` and the slope ``r^(gamma-1) w^(2/gamma-1)``.  The
    slope is least at ``w = (gamma - 2)(level - 1)``; past the junction
    (``w > 1``) the envelope bridges that dip with the common tangent of slope
    ``s_c``, which touches the power law at ``r_t`` and the outer branch at
    ``r_o``; otherwise ``phi`` is convex and ``r_t = r_o = r_n``.  The envelope
    and ``phi`` share one conjugate (Rockafellar, Convex Analysis, Sec. 12), a
    function of ``s = <xi, a^{-1} xi>^(1/2)``, exact up to rounding.
    """

    def __init__(self, gamma: float, level: float):
        g = float(gamma)
        self.gamma = g
        self.level = float(level)
        r_n = (g * level) ** (1.0 / g)
        self.s_c, self.r_t, self.r_o = r_n ** (g - 1.0), r_n, r_n
        w_min = (g - 2.0) * (self.level - 1.0)
        if w_min <= 1.0:
            return

        def gap(s):
            """Power-law conjugate minus the outer branch's, at slope s."""
            return s ** (g / (g - 1.0)) * (1.0 - 1.0 / g) - self._outer(s)[1]

        s_lo = (g * (w_min + self.level - 1.0)) ** (1.0 - 1.0 / g) * w_min ** (2.0 / g - 1.0)
        s_hi = self.s_c
        if not gap(s_lo) > 0.0:     # a dip below rounding: phi is convex to working precision
            return
        while True:
            self.s_c = 0.5 * (s_lo + s_hi)
            if self.s_c in (s_lo, s_hi):    # the bracket ends are adjacent floats
                break
            if gap(self.s_c) > 0.0:
                s_lo = self.s_c
            else:
                s_hi = self.s_c
        self.r_t = self.s_c ** (1.0 / (g - 1.0))
        self.r_o = float(self._outer(self.s_c)[0])

    def _outer(self, s):
        """Radius ``r`` and ``s r - phi(r)`` at the outer branch's point of slope ``s`` on
        its convex part.  There ``w`` is the larger root of the convex ``F(w) = gamma w
        + gamma (level - 1) - sigma w^b``, with ``sigma = s^(gamma/(gamma-1))`` and
        ``b = (gamma-2)/(gamma-1)``.  Newton from where ``F >= 0 < F'`` decreases to it
        monotonically (Ortega & Rheinboldt, 1970), kept right of the minimum of ``F``
        (``floor``); it stops at the first step where no entry decreases."""
        g = self.gamma
        b = (g - 2.0) / (g - 1.0)
        sigma = np.asarray(s, dtype=float) ** (g / (g - 1.0))
        floor = (b * sigma / g) ** (g - 1.0)
        w = np.maximum((2.0 * sigma / g) ** (g - 1.0), 2.0 * (1.0 - self.level))
        while True:
            wb = w**b
            with np.errstate(divide="ignore", invalid="ignore"):    # F' = 0 at the floor
                nxt = np.fmax(w - (g * w + g * (self.level - 1.0) - sigma * wb)
                              / (g - b * sigma * wb / w), floor)
            if not np.any(nxt < w):
                r = (g * (w + self.level - 1.0)) ** (1.0 / g)
                return r, s * r - (self.level - g / 2.0 + (g / 2.0) * w ** (2.0 / g))
            w = np.fmin(nxt, w)

    def value(self, m: np.ndarray) -> np.ndarray:
        """Envelope at radial gradient magnitude ``m``."""
        g = self.gamma
        return np.where(m <= self.r_t, m**g / g,
                        np.where(m < self.r_o, self.r_t**g / g + self.s_c * (m - self.r_t),
                                 ramp(m**g / g, self.level, g)))

    def slope(self, m: np.ndarray) -> np.ndarray:
        """Envelope slope at radial gradient magnitude ``m``: the optimal
        control magnitude for that gradient."""
        g = self.gamma
        m = np.asarray(m, dtype=float)
        out = np.where(m <= self.r_t, np.where(m > 0, m, 0.0) ** (g - 1.0), self.s_c)
        far = m >= self.r_o
        if np.any(far):
            r = np.maximum(m, self.r_o)
            out = np.where(far, r ** (g - 1.0) * (r**g / g - self.level + 1.0) ** (2.0 / g - 1.0),
                           out)
        return out

    def conjugate(self, s: np.ndarray) -> np.ndarray:
        """Running cost at control magnitude ``s``."""
        g = self.gamma
        s = np.asarray(np.abs(s), dtype=float)
        out = np.asarray(s ** (g / (g - 1.0)) * (1.0 - 1.0 / g))
        steep = s > self.s_c
        if np.any(steep):
            out[steep] = self._outer(s[steep])[1]
        return out


@dataclass(frozen=True)
class HamiltonianSpec:
    """Per-state Hamiltonian data for the power-law family.

    With a ``truncation_level``, every superquadratic state is the convex
    envelope of ``ramp(H_k)``; ``value``, ``grad_p`` and ``lagrangian`` then
    evaluate that envelope, its slope map and its conjugate.  The envelopes
    are built once, here, and truncation requires a driftless state.
    """

    dim: int
    gammas: tuple[float, float]
    metrics: tuple[MetricField, MetricField]
    drifts: tuple[DriftField, DriftField]
    truncation_level: float | None = None
    _envelopes: tuple = field(init=False, repr=False, compare=False)
    # per state: (conjugate exponent, drift vector or None when zero, metric, envelope)
    _conjugates: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for g in self.gammas:
            if not g > 1.0:
                raise ParameterError(f"power exponent must exceed 1, got {g}")
            if g == np.inf:
                raise ParameterError(f"power exponent must be finite, got {g}")
        level = self.truncation_level
        if level is not None and not 0.0 < level < np.inf:
            raise ParameterError(f"truncation level must be a finite number > 0, got {level}")
        envelopes = []
        for k in STATES:
            if level is None or self.gamma(k) <= 2.0:
                envelopes.append(None)
            elif not self.drift(k).is_zero:
                raise ParameterError("Hamiltonian truncation is supported only for driftless states")
            else:
                envelopes.append(_RampEnvelope(self.gamma(k), level))
        object.__setattr__(self, "_envelopes", tuple(envelopes))
        object.__setattr__(self, "_conjugates", tuple(
            (self.conjugate_gamma(k), None if self.drift(k).is_zero else self.drift(k).b,
             self.metric(k), envelopes[k - 1]) for k in STATES))

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

    # -- evaluation ---------------------------------------------------------

    def value_raw(self, k: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Untruncated H_k(x, p)."""
        g = self.gamma(k)
        metric = self.metric(k)
        q = _quad(np.asarray(p, dtype=float), metric.a, metric.scalar)
        return q ** (g / 2.0) / g + np.sum(self.drift(k).b * p, axis=-1)

    def value(self, k: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """H_k(x, p), or its truncated envelope."""
        env = self._envelopes[k - 1]
        if env is None:
            return self.value_raw(k, x, p)
        metric = self.metric(k)
        return env.value(np.sqrt(_quad(np.asarray(p, dtype=float), metric.a, metric.scalar)))

    def grad_p(self, k: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Analytic grad_p H_k; at p = 0 with gamma_k < 2 the power term is 0 by continuity.

        Raises ``CoefficientError`` naming the state and its gamma where the
        untruncated power law leaves the float range (a large gamma at |p| > 1).
        """
        g = self.gamma(k)
        p = np.asarray(p, dtype=float)
        metric = self.metric(k)
        a = metric.a
        env = self._envelopes[k - 1]
        if env is not None:
            m = np.sqrt(np.maximum(_quad(p, a, metric.scalar), 0.0))
            fac = np.where(m > 0, env.slope(m) / np.where(m > 0, m, 1.0), 0.0)
            return fac[..., None] * (p @ a.T) + self.drift(k).b
        if g == 2.0:
            return p @ a.T + self.drift(k).b
        try:
            with np.errstate(over="raise"):
                q = _quad(p, a, metric.scalar)
                fac = np.where(q > 0.0, np.where(q > 0.0, q, 1.0) ** (g / 2.0 - 1.0), 0.0)
                return fac[..., None] * (p @ a.T) + self.drift(k).b
        except FloatingPointError:
            raise CoefficientError(
                f"state {k}: grad_p H overflows at gamma = {g!r} and |p| up to "
                f"{np.max(np.abs(p)):.3g}; the power law leaves the float range") from None

    def lagrangian(self, k: int, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """l_k(x, xi), the conjugate of ``value``; nonnegative, zero exactly at xi = b_k.

        Reads the state's constants resolved when the spec was built.
        """
        _check_state(k)
        gc, b, metric, env = self._conjugates[k - 1]
        d = np.asarray(xi, dtype=float)
        if b is not None:   # xi - 0.0 is xi exactly; skip the broadcast
            d = d - b
        q = _quad(d, metric.a_inv, metric.scalar)
        if env is not None:
            return env.conjugate(np.sqrt(q))
        if gc == 2.0:   # gamma = 2: q ** 1.0 is q, bit for bit
            return q / 2.0
        return q ** (gc / 2.0) / gc

    def duality_gap(self, k: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """H_k(x,p) - (p . xi* - l_k(x, xi*)) at the maximizer xi* = grad_p H_k.

        Zero in exact arithmetic; the contract is |gap| <= 1e-9 (1 + |H|).
        """
        xi = self.grad_p(k, x, p)
        h = self.value(k, x, p)
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


def truncate_hamiltonian(spec: HamiltonianSpec, level: float) -> HamiltonianSpec:
    """Copy of the Hamiltonian data whose superquadratic states evaluate
    through the convex envelope of the concave ramp.

    States with gamma <= 2 are left untouched, and a spec with none of the
    others is returned as it is.
    """
    truncated = replace(spec, truncation_level=float(level))
    return truncated if any(g > 2.0 for g in spec.gammas) else spec


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
        if not np.isfinite(self.x_ref).all():
            raise ParameterError(f"x_ref must be finite, got {list(self.x_ref)}")

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
            d["truncation"] = {"level": ham.truncation_level}
        return d

    @staticmethod
    def from_dict(d: dict) -> "ProblemSpec":
        dim = d["dimension"]
        if dim not in (1, 2) or isinstance(dim, bool):
            raise ParameterError(f"dimension must be 1 or 2, got {dim!r}")
        states = d["states"]
        if len(states) != 2:
            raise ParameterError("problem file must declare exactly two states")
        if not all(isinstance(s[key], dict) for s in states for key in ("a", "b", "alpha", "f")):
            raise ParameterError("the fields a, b, alpha and f of a state must be objects")
        dim = int(dim)
        x_ref = d.get("x_ref", [0.0] * dim)
        if not isinstance(x_ref, (list, tuple)) or not x_ref:
            raise ParameterError(f"x_ref must be a non-empty list of coordinates, got {x_ref!r}")
        ham = HamiltonianSpec(
            dim=dim,
            gammas=tuple(number(s["gamma"], "gamma") for s in states),
            metrics=tuple(MetricField.from_dict(s["a"], dim) for s in states),
            drifts=tuple(DriftField.from_dict(s["b"], dim) for s in states),
            truncation_level=(number(d["truncation"]["level"], "truncation level")
                              if "truncation" in d else None),
        )
        return ProblemSpec(
            dimension=dim,
            hamiltonian=ham,
            switch_rates=tuple(CoefficientField.from_dict(s["alpha"], dim) for s in states),
            sources=tuple(CoefficientField.from_dict(s["f"], dim) for s in states),
            x_ref=tuple(number(v, "x_ref coordinate") for v in x_ref),
        )


def save_problem(problem: ProblemSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem.to_dict(), fh, indent=2, sort_keys=True)


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        return ProblemSpec.from_dict(json.load(fh))


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one report-only audit: a pass flag, the measured constants,
    a one-line narrative, and the worst node when the audit failed."""

    name: str
    passed: bool
    constants: dict
    narrative: str
    worst_node: dict | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "constants": self.constants,
                "narrative": self.narrative, "worst_node": self.worst_node}


def switch_rate_violations(problem: ProblemSpec, points: np.ndarray) -> list:
    """Points where a switching rate is not > 0 (NaN included), at most
    ``VIOLATIONS_PER_STATE`` per state.

    Each entry is a ``switch_rate_positive`` violation record of
    :func:`validate_assumptions`; the run config is rejected on the first.
    """
    violations = []
    for k in STATES:
        a = problem.switch_rate(k)(points)
        for i in np.flatnonzero(~(a > 0.0))[:VIOLATIONS_PER_STATE]:
            violations.append({"check": "switch_rate_positive", "state": k,
                               "node": int(i), "point": points[i].tolist(),
                               "lhs": float(a[i]), "rhs": 0.0})
    return violations


def window_max(a: np.ndarray, window: int) -> np.ndarray:
    """Maximum of ``a`` over the centered box of odd side ``window`` at every
    entry, the array extended past each face by its edge values.

    One running maximum per axis over the edge-padded array; the maximum is
    exact, so this is ``scipy.ndimage.maximum_filter(a, window, mode="nearest")``.
    """
    pad = window // 2
    for axis in range(a.ndim):
        widths = [(0, 0)] * a.ndim
        widths[axis] = (pad, pad)
        a = sliding_window_view(np.pad(a, widths, mode="edge"), window, axis=axis).max(axis=-1)
    return a


def validate_assumptions(problem: ProblemSpec, box: Grid, declared: dict | None = None) -> AuditReport:
    """Measure the standing-assumption constants on every node of ``box``.

    Reports the smallest constants making the bounds hold on the samples:
    the switching-rate envelope, the source gradient-growth constant
    (|grad f| <= C2 (1 + |f|^(2 - 1/gamma))), the local-supremum constant
    over unit windows, and a coercivity flag (outer-shell minimum of f must
    exceed the inner-shell minimum).  Returns the ``standing_assumptions``
    audit report; with ``declared`` bounds its pass flag and the
    ``violations`` in its constants also cover them, instead of raising.
    """
    pts = box.points
    violations = switch_rate_violations(problem, pts)

    upsilon = float("inf") if violations else 1.0
    if not violations:
        for k in STATES:
            a = problem.switch_rate(k)(pts)
            ga = problem.switch_rate(k).gradient(pts)
            upsilon = max(upsilon, float(np.max(a)), float(np.max(1.0 / a)),
                          float(np.max(np.linalg.norm(ga, axis=-1))))

    c2, c3, coercive = {}, {}, {}
    window = 2 * max(1, int(round(1.0 / box.h))) + 1
    rho = np.max(np.abs(pts), axis=-1)
    inner = rho <= 0.25 * box.radius
    outer = rho >= 0.75 * box.radius
    for k in STATES:
        f = problem.source(k)(pts)
        gf = np.linalg.norm(problem.source(k).gradient(pts), axis=-1)
        envelope = 1.0 + np.abs(f) ** (2.0 - 1.0 / problem.hamiltonian.gamma(k))
        ratio = gf / envelope
        c2[str(k)] = float(np.max(ratio))
        local_sup = window_max(np.abs(box.to_grid_shape(f)), window).ravel()
        c3[str(k)] = float(np.max(local_sup / (np.abs(f) + 1.0)))
        coercive[str(k)] = bool(np.min(f[outer]) > np.min(f[inner]))
        if declared and "c2" in declared:
            bad = ratio > declared["c2"]
            for i in np.flatnonzero(bad)[:VIOLATIONS_PER_STATE]:
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
    c1 = {str(k): problem.hamiltonian.growth_constant(k, x_samples, p_samples) for k in STATES}

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
    # passed and narrative repeat in constants: audits.json has always carried them there
    constants = {"upsilon_alpha": upsilon, "growth_c1": c1, "source_c2": c2, "source_c3": c3,
                 "coercive": coercive, "passed": passed, "violations": violations,
                 "narrative": narrative}
    return AuditReport(name="standing_assumptions", passed=passed, constants=constants,
                       narrative=narrative)
