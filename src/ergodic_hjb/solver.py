"""Ergodic eigenvalue solves via Howard policy iteration.

Two constructive routes are provided and should agree on every problem:

* ``vanishing_discount`` drives discounted solves to zero discount and reads
  the eigenvalue off ``discount * w(x_ref)``;
* ``solve_ergodic_normalized`` solves the average-cost system directly, with
  the eigenvalue as an extra unknown and the normalization ``u_1(x_ref) = 0``
  closing the system.

Both use the same inner loop: evaluate the current feedback control through a
sparse monotone linear solve, then improve it from the Hamiltonian gradient
at the central difference of the value.  One evaluation serves both routes:
the discounted matrix is factored as it is, the average-cost matrix is
pinned at the reference node (``A + e_ref e_ref^T``), and the eigenvalue is
the ratio of two triangular solves at that node.  Boxes carry a steep
penalty source near the wall (a finite stand-in for boundary blow-up) which
confines the minimizer strictly inside the domain when the source is
coercive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import (
    ControlFieldPair,
    GeneratorMatrix,
    Grid,
    assemble_generator,
    build_grid,
    control_cap,
    gradient_central,
)
from .errors import ConvergenceError, MonotonicityError, ParameterError, SolverError
from .model import ProblemSpec, STATES


@dataclass(frozen=True)
class PenaltyParams:
    """Steep wall source added inside a unit layer along the box faces.

    ``beta`` controls the supersolution barrier steepness and must exceed
    ``max(2, gamma_1, gamma_2)``; the wall exponent ``alpha_exp`` must lie in
    the open bracket ``beta < alpha_exp < (beta + 1) * min(gamma, 2)``.
    ``cap`` bounds the discrete wall height.
    """

    beta: float
    alpha_exp: float
    cap: float | None = None

    def validated(self, problem: ProblemSpec) -> "PenaltyParams":
        gammas = [problem.hamiltonian.gamma(k) for k in STATES]
        gmin2 = min(min(gammas), 2.0)
        if self.beta <= max(2.0, *gammas):
            raise ParameterError(
                f"penalty steepness beta={self.beta} must exceed max(2, gamma_1, gamma_2)")
        if (self.beta + 1.0) * gmin2 <= self.beta + 2.0:
            raise ParameterError(
                f"beta={self.beta} leaves an empty bracket: need (beta+1)*min(gamma,2) > beta+2")
        upper = (self.beta + 1.0) * gmin2
        if not (self.beta < self.alpha_exp < upper):
            raise ParameterError(
                "wall exponent outside the admissible bracket "
                f"beta < alpha_exp < (beta+1)*min(gamma, 2): ({self.beta}, {upper}), "
                f"got alpha_exp={self.alpha_exp}")
        return self


def default_penalty(problem: ProblemSpec) -> PenaltyParams:
    gammas = [problem.hamiltonian.gamma(k) for k in STATES]
    gmin2 = min(min(gammas), 2.0)
    beta = max(2.0, *gammas) + 1.0
    if gmin2 < 2.0:
        # keep the bracket nonempty: (beta+1)*gmin2 > beta+2
        beta = max(beta, (2.0 - gmin2) / (gmin2 - 1.0) + 1.0)
    alpha_exp = beta + min(2.0, ((beta + 1.0) * gmin2 - beta) / 2.0)
    return PenaltyParams(beta=beta, alpha_exp=alpha_exp).validated(problem)


def _wall_profile(t: np.ndarray) -> np.ndarray:
    """1/t below 1/2, cubic bridge down to 0 at 1, zero beyond."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    steep = t < 0.5
    safe = np.where(t > 0.0, t, 1.0)
    out[steep] = np.where(t[steep] > 0.0, 1.0 / safe[steep], np.inf)
    bridge = (~steep) & (t < 1.0)
    s = 2.0 * t[bridge] - 1.0
    out[bridge] = 2.0 * (s - 1.0) ** 2 * (s + 1.0)
    return out


def penalty_source(problem: ProblemSpec, grid: Grid, params: PenaltyParams) -> np.ndarray:
    """Per-state source f_k + min(cap, wall^alpha_exp), shape (2, n_nodes).

    The wall argument is the max-norm analogue of the squared distance to the
    boundary, ``radius^2 - |x|_inf^2``, so the layer is uniform along the box
    faces; the penalty vanishes at depth >= 1 inside the wall.
    """
    params = params.validated(problem)
    pts = grid.points
    rho = np.max(np.abs(pts), axis=-1)
    t = grid.radius**2 - rho**2
    wall = _wall_profile(t)
    cap = params.cap
    if cap is None:
        fmax = max(float(np.max(np.abs(problem.source(k)(pts)))) for k in STATES)
        cap = 1e6 * (1.0 + fmax)
    with np.errstate(over="ignore"):
        pen = np.minimum(cap, wall**params.alpha_exp)
    return np.stack([problem.source(k)(pts) + pen for k in STATES])


@dataclass(frozen=True)
class SolverOptions:
    tol_pde: float | None = None          # None: 1e-9 * (1 + max |f|)
    tol_lambda: float = 1e-4
    eps0: float = 1.0
    eps_min: float = 1e-5
    max_policy_iters: int = 120
    cap_factor: float = 1.0               # multiplies the automatic control cap
    control_cap: float | None = None      # absolute override of the control cap


def _defect_norm(defect: np.ndarray, rhs: np.ndarray, source_scale: float,
                 matrix: sp.spmatrix, u: np.ndarray, lam: float, tol: float) -> float:
    """Sup defect with row allowances for penalty scale and rounding.

    Rows whose right-hand side stays at the raw source scale are measured in
    plain absolute value.  Rows inflated by the wall penalty get an allowance
    proportional to their rhs, and every row gets a floor of
    ``32 eps (|A||u| + |rhs| + |lam|)``: a defect below the rounding error of
    its own evaluation is indistinguishable from zero.  The returned value is
    normalized so that ``residual <= tol`` is the componentwise test.
    """
    weight = np.maximum(1.0, (1.0 + np.abs(rhs)) / source_scale)
    rounding = 32.0 * np.finfo(float).eps * (abs(matrix) @ np.abs(u) + np.abs(rhs) + abs(lam))
    allowance = np.maximum(tol * weight, rounding)
    return tol * float(np.max(np.abs(defect) / allowance))


@dataclass(frozen=True)
class DiscountedSolution:
    """Solution of the discounted wall-penalized system at a fixed discount."""

    grid: Grid
    w: np.ndarray                 # (2, n_nodes)
    discount: float
    iterations: int
    residual: float
    controls: ControlFieldPair


@dataclass(frozen=True)
class ErgodicSolution:
    """Eigenvalue solve result, normalized to u_1(x_ref) = 0 exactly.

    ``residual`` is the sup-norm defect of the final linearized equation at
    the improved control (direct substitution into the discrete system).
    ``history`` records per-leg (parameter, eigenvalue) pairs: discount legs
    for the vanishing-discount route, half-widths for nested domains.
    """

    grid: Grid
    u: np.ndarray                 # (2, n_nodes)
    lam: float
    residual: float
    iterations: int
    method: str
    history: tuple = ()
    minimizers: tuple = ()

    def state(self, k: int) -> np.ndarray:
        return self.u[k - 1]

    def minimizer_nodes(self) -> tuple[int, int]:
        return tuple(int(np.argmin(self.u[k - 1])) for k in STATES)

    def minimizer_interior(self) -> bool:
        mask = self.grid.interior_mask
        return all(mask[i] for i in self.minimizer_nodes())


def policy_evaluation(gen: GeneratorMatrix, rhs: np.ndarray,
                      ref: int | None = None) -> tuple[np.ndarray, float]:
    """Solve the frozen-control linear system to backward error <= 1e-12.

    With ``ref=None`` this is the discounted system ``A u = rhs`` and the
    returned eigenvalue is 0.  With an integer ``ref`` it is the average-cost
    system ``A u + lam = rhs`` with ``u[ref] = 0``: the factored matrix is
    ``A + e_ref e_ref^T`` (nonsingular since A kills constants and is
    irreducible), and the solves against ``rhs`` and against the ones vector
    give the eigenvalue as the ratio ``y[ref] / z[ref]``.  Iterative
    refinement (one step discounted, two average-cost) keeps the defect near
    roundoff; ``SolverError`` reports the achieved residual if the system is
    too ill-conditioned.
    """
    mat = gen.matrix
    rhs = np.asarray(rhs, dtype=float)
    pinned = mat if ref is None else mat + sp.csr_matrix(([1.0], ([ref], [ref])), mat.shape)
    try:
        lu = spla.splu(pinned.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    absmat = abs(mat)

    def backward_scale(u):
        """Normwise backward-error denominator ||A| |u||_inf + ||rhs||_inf."""
        return max(float(np.max(absmat @ np.abs(u))) + float(np.max(np.abs(rhs))), 1e-300)

    u = lu.solve(rhs)
    lam = 0.0
    if ref is not None:
        z = lu.solve(np.ones(mat.shape[0]))
        if abs(z[ref]) < 1e-300:
            raise SolverError("pinned system is numerically singular")
        lam = u[ref] / z[ref]
        u = u - lam * z
    for _ in range(1 if ref is None else 2):
        defect = rhs - mat @ u - lam
        if float(np.max(np.abs(defect))) <= 1e-13 * backward_scale(u):
            break
        du = lu.solve(defect)
        if ref is not None:
            dlam = du[ref] / z[ref]
            du = du - dlam * z
            lam += dlam
        u = u + du
    defect = rhs - mat @ u - lam
    rel = float(np.max(np.abs(defect))) / (backward_scale(u) + abs(lam))
    if not np.all(np.isfinite(u)) or rel > 1e-12:
        raise SolverError(f"policy evaluation reached relative residual {rel:.3e} > 1e-12")
    if ref is not None:
        u[ref] = 0.0
    return u, float(lam)


class _RampedRunningCost:
    """Convex conjugate of the ramp-composed power Hamiltonian, radially reduced.

    For a driftless state the radial profile ``phi(r) = ramp(r^gamma / gamma)``
    is the power law below the junction radius and the sublinearized branch
    above it, with a concave dip straddling the junction.  The conjugate (and
    the matching optimal-slope map used for policy improvement) follow the
    convex envelope of ``phi``: the exact power law up to the tangent touch
    radius ``r_t``, a flat-slope segment across the dip, and the outer ramp
    branch beyond ``r_o``.  All queries are exact up to root-finding
    precision, so interior residuals are not limited by tabulation error.
    """

    def __init__(self, gamma: float, level: float):
        g = float(gamma)
        self.gamma = g
        self.level = float(level)
        self.r_n = (g * level) ** (1.0 / g)
        self.s_n = self.r_n ** (g - 1.0)
        curvature = (2.0 / g) * (2.0 / g - 1.0) * self.s_n**2 \
            + (g - 1.0) * self.r_n ** (g - 2.0)
        if curvature >= 0.0:
            self.s_c, self.r_t, self.r_o = self.s_n, self.r_n, self.r_n
            return
        # slope of the outer branch dips below s_n and recovers; locate its
        # minimum, then the common tangent touching both branches
        hi = self.r_n
        while self._dphi_out(2.0 * hi) <= self._dphi_out(hi):
            hi *= 2.0
        lo, hi = self.r_n, 2.0 * hi
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if self._dphi_out(m1) < self._dphi_out(m2):
                hi = m2
            else:
                lo = m1
        r_min = 0.5 * (lo + hi)
        s_lo, s_hi = self._dphi_out(r_min) * (1.0 + 1e-12), self.s_n

        def gap(s):
            r_t = s ** (1.0 / (g - 1.0))
            r_o = self._outer_radius(np.asarray([s]))[0]
            return self._phi_out(r_o) - (r_t**g / g) - s * (r_o - r_t)

        if gap(s_lo) <= 0.0:
            raise SolverError("ramp conjugate: tangent construction failed")
        for _ in range(200):
            mid = 0.5 * (s_lo + s_hi)
            if gap(mid) > 0.0:
                s_lo = mid
            else:
                s_hi = mid
        self.s_c = 0.5 * (s_lo + s_hi)
        self.r_t = self.s_c ** (1.0 / (g - 1.0))
        self.r_o = float(self._outer_radius(np.asarray([self.s_c]))[0])

    def _phi_out(self, r):
        g = self.gamma
        return self.level - g / 2.0 + (g / 2.0) * (r**g / g - self.level + 1.0) ** (2.0 / g)

    def _dphi_out(self, r):
        g = self.gamma
        return r ** (g - 1.0) * (r**g / g - self.level + 1.0) ** (2.0 / g - 1.0)

    def _outer_radius(self, s: np.ndarray) -> np.ndarray:
        """Invert the increasing part of the outer-branch slope by bisection."""
        lo = np.full(s.shape, max(self.r_n, getattr(self, "r_o", self.r_n)))
        hi = np.maximum(2.0 * lo, 2.0 * s * self.gamma ** (2.0 / self.gamma))
        for _ in range(60):
            grow = self._dphi_out(hi) < s
            if not np.any(grow):
                break
            hi = np.where(grow, 2.0 * hi, hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            high = self._dphi_out(mid) > s
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
        return 0.5 * (lo + hi)

    def value(self, s: np.ndarray) -> np.ndarray:
        """Running cost at control magnitude ``s = <xi, a^{-1} xi>^(1/2)``."""
        g = self.gamma
        s = np.abs(np.asarray(s, dtype=float))
        out = s ** (g / (g - 1.0)) * (1.0 - 1.0 / g)
        steep = s > self.s_c
        if np.any(steep):
            r_star = self._outer_radius(s[steep])
            out[steep] = s[steep] * r_star - self._phi_out(r_star)
        return out

    def slope(self, m: np.ndarray) -> np.ndarray:
        """Envelope slope at radial gradient magnitude ``m = <g, a g>^(1/2)``:
        the optimal control magnitude for that gradient."""
        m = np.asarray(m, dtype=float)
        out = np.where(m <= self.r_t, np.where(m > 0, m, 0.0) ** (self.gamma - 1.0), self.s_c)
        far = m >= self.r_o
        if np.any(far):
            out = np.where(far, self._dphi_out(np.maximum(m, self.r_o)), out)
        return out


def _ramp_costs(problem: ProblemSpec) -> dict:
    """Running-cost conjugates for truncated states; truncation pairs only
    with driftless Hamiltonians (the ramp has no closed conjugate otherwise)."""
    ham = problem.hamiltonian
    costs = {}
    for k in STATES:
        if ham.truncated(k):
            if not ham.drift(k).is_zero:
                raise ParameterError(
                    "Hamiltonian truncation is supported only for driftless states")
            costs[k] = _RampedRunningCost(ham.gamma(k), ham.truncation_level)
    return costs


def _running_cost(problem: ProblemSpec, grid: Grid, xi: np.ndarray,
                  ramp_costs: dict) -> np.ndarray:
    """Per-node running cost of a feedback field: the exact Lagrangian, or the
    ramped conjugate for truncated states."""
    ham = problem.hamiltonian
    pts = grid.points
    lag = np.empty((2, grid.n_nodes))
    for k in STATES:
        if k in ramp_costs:
            ainv = ham.metric(k).inverse(pts)
            s = np.sqrt(np.einsum("...i,...ij,...j->...", xi[k - 1], ainv, xi[k - 1]))
            lag[k - 1] = ramp_costs[k].value(s)
        else:
            lag[k - 1] = ham.lagrangian(k, pts, xi[k - 1])
    return lag


def _clamp(xi: np.ndarray, cap: float) -> np.ndarray:
    """Scale every control vector longer than ``cap`` back onto the cap."""
    mag = np.linalg.norm(xi, axis=-1)
    factor = np.where(mag > cap, cap / np.where(mag > 0, mag, 1.0), 1.0)
    return xi * factor[..., None]


def _improve(problem: ProblemSpec, grid: Grid, u: np.ndarray, cap: float,
             ramp_costs: dict):
    """Feedback improvement from the central gradient of the current value.

    Returns the clamped control field (2, n, dim) and its running cost.  For
    truncated states the improvement follows the envelope-slope map of the
    ramped conjugate (it matches the pointwise Hamiltonian gradient outside
    the concave bridge of the ramp).
    """
    ham = problem.hamiltonian
    pts = grid.points
    xi = np.empty((2, grid.n_nodes, grid.dim))
    for k in STATES:
        g = gradient_central(grid, u[k - 1])
        if k in ramp_costs:
            a = ham.metric(k)(pts)
            ag = np.einsum("...ij,...j->...i", a, g)
            m = np.sqrt(np.maximum(np.einsum("...i,...i->...", g, ag), 0.0))
            s = ramp_costs[k].slope(m)
            raw = np.where(m[:, None] > 0, s[:, None] / np.where(m > 0, m, 1.0)[:, None] * ag, 0.0)
        else:
            raw = ham.grad_p(k, pts, g)
        xi[k - 1] = _clamp(raw, cap)
    return xi, _running_cost(problem, grid, xi, ramp_costs)


def _initial_policy(problem: ProblemSpec, grid: Grid,
                    warm: ControlFieldPair | None, cap: float, ramp_costs: dict):
    if warm is None:
        xi = np.zeros((2, grid.n_nodes, grid.dim))
    else:
        xi = _clamp(np.array(warm.values, dtype=float), cap)
    return xi, _running_cost(problem, grid, xi, ramp_costs)


def _howard(problem: ProblemSpec, grid: Grid, src: np.ndarray, discount: float,
            opts: SolverOptions, warm: ControlFieldPair | None, ref: int | None):
    """Shared policy-iteration driver.

    ``src`` is the stacked (2*n,) right-hand side without the running cost.
    With a reference node ``ref`` the eigenvalue is an extra unknown and u_1
    is pinned there; with ``ref=None`` the system is discounted and the
    returned eigenvalue is 0.  The control update is relaxed adaptively: a
    stalling residual halves the step (central-gradient improvement against
    upwind evaluation can limit-cycle at tiny amplitude), and sustained
    progress restores full steps.  Fixed points are unaffected.
    """
    n = grid.n_nodes
    cap = (opts.control_cap if opts.control_cap is not None
           else opts.cap_factor * control_cap(problem, grid))
    fmax = max(float(np.max(np.abs(problem.source(k)(grid.points)))) for k in STATES)
    tol = opts.tol_pde if opts.tol_pde is not None else 1e-9 * (1.0 + fmax)
    source_scale = 1.0 + fmax
    ramp_costs = _ramp_costs(problem)
    xi, lag = _initial_policy(problem, grid, warm, cap, ramp_costs)
    history = []
    theta = 1.0
    best = np.inf
    stall = 0
    gen = assemble_generator(grid, problem, ControlFieldPair(xi), discount)
    for it in range(1, opts.max_policy_iters + 1):
        rhs = src + lag.ravel()
        u, lam = policy_evaluation(gen, rhs, ref)
        xi_star, lag_star = _improve(problem, grid, u.reshape(2, n), cap, ramp_costs)
        gen_star = assemble_generator(grid, problem, ControlFieldPair(xi_star), discount)
        rhs_star = src + lag_star.ravel()
        defect = gen_star.matrix @ u + lam - rhs_star
        residual = _defect_norm(defect, rhs_star, source_scale, gen_star.matrix, u, lam, tol)
        history.append((it, residual, lam))
        if residual <= tol:
            return u.reshape(2, n), lam, ControlFieldPair(xi_star), it, residual
        if residual < 0.5 * best:
            theta = min(1.0, 2.0 * theta)
        elif residual > 0.9 * best:
            stall += 1
            if stall >= 2:
                theta = max(theta / 2.0, 1.0 / 64.0)
                stall = 0
        best = min(best, residual)
        if theta >= 1.0:
            xi, lag, gen = xi_star, lag_star, gen_star
        else:
            xi = theta * xi_star + (1.0 - theta) * xi
            lag = _running_cost(problem, grid, xi, ramp_costs)
            gen = assemble_generator(grid, problem, ControlFieldPair(xi), discount)
    raise ConvergenceError(
        f"policy iteration did not reach tolerance {tol:.3e} in {opts.max_policy_iters} "
        f"iterations (last residual {history[-1][1]:.3e})", history=history)


def solve_discounted(problem: ProblemSpec, grid: Grid, discount: float,
                     penalty: PenaltyParams | None = None,
                     opts: SolverOptions = SolverOptions(),
                     warm: ControlFieldPair | None = None) -> DiscountedSolution:
    """Howard iteration on the discounted system; discount must be positive."""
    if discount <= 0:
        raise ParameterError("discount must be positive")
    src = (penalty_source(problem, grid, penalty) if penalty is not None
           else np.stack([problem.source(k)(grid.points) for k in STATES])).ravel()
    w, _, controls, iters, residual = _howard(
        problem, grid, src, discount, opts, warm, ref=None)
    return DiscountedSolution(grid=grid, w=w, discount=discount, iterations=iters,
                              residual=residual, controls=controls)


def vanishing_discount(problem: ProblemSpec, grid: Grid,
                       eps_schedule=None,
                       penalty: PenaltyParams | None = None,
                       opts: SolverOptions = SolverOptions()) -> ErgodicSolution:
    """Drive the discount to zero and read the eigenvalue at the reference node.

    Each leg is warm-started from the previous control field; the schedule
    stops when consecutive eigenvalue estimates differ by at most
    ``opts.tol_lambda``.  Raises ``ConvergenceError`` carrying the
    (discount, eigenvalue) history if the schedule is exhausted first.
    """
    if eps_schedule is None:
        n_legs = max(1, int(math.ceil(math.log2(opts.eps0 / opts.eps_min))) + 1)
        eps_schedule = [opts.eps0 * 2.0**-j for j in range(n_legs)]
    if any(e2 >= e1 for e1, e2 in zip(eps_schedule, eps_schedule[1:])):
        raise ParameterError("discount schedule must be strictly decreasing")
    if penalty is None:
        penalty = default_penalty(problem)
    ref = grid.index_of(problem.ref_point)
    history = []
    warm = None
    prev_lam = None
    total_iters = 0
    for eps in eps_schedule:
        sol = solve_discounted(problem, grid, eps, penalty=penalty, opts=opts, warm=warm)
        lam = eps * float(sol.w[0, ref])
        history.append((eps, lam))
        total_iters += sol.iterations
        warm = sol.controls
        if prev_lam is not None and abs(lam - prev_lam) <= opts.tol_lambda:
            u = sol.w - sol.w[0, ref]
            u[0, ref] = 0.0
            return ErgodicSolution(grid=grid, u=u, lam=lam, residual=sol.residual,
                                   iterations=total_iters, method="vanishing_discount",
                                   history=tuple(history))
        prev_lam = lam
    raise ConvergenceError(
        f"discount schedule exhausted before eigenvalue settled to {opts.tol_lambda}",
        history=history)


def solve_ergodic_normalized(problem: ProblemSpec, grid: Grid,
                             penalty: PenaltyParams | None = None,
                             opts: SolverOptions = SolverOptions(),
                             warm: ControlFieldPair | None = None) -> ErgodicSolution:
    """Direct average-cost solve with (u, eigenvalue) unknowns and u_1(x_ref) = 0."""
    if penalty is None:
        penalty = default_penalty(problem)
    src = penalty_source(problem, grid, penalty).ravel()
    ref = grid.index_of(problem.ref_point)
    u, lam, controls, iters, residual = _howard(problem, grid, src, 0.0, opts, warm, ref)
    return ErgodicSolution(grid=grid, u=u, lam=lam, residual=residual,
                           iterations=iters, method="ergodic_normalized",
                           history=((grid.radius, lam),))


def _interp_controls(old_grid: Grid, values: np.ndarray, new_grid: Grid) -> ControlFieldPair:
    """Carry a control field onto a larger grid (linear inside, edge values outside)."""
    from scipy.interpolate import RegularGridInterpolator

    pts = np.clip(new_grid.points, -old_grid.radius, old_grid.radius)
    axes = (old_grid.axis_coords,) * old_grid.dim
    out = np.empty((2, new_grid.n_nodes, new_grid.dim))
    for k in STATES:
        for j in range(new_grid.dim):
            f = RegularGridInterpolator(axes, old_grid.to_grid_shape(values[k - 1][:, j]))
            out[k - 1, :, j] = f(pts)
    return ControlFieldPair(out)


def nested_domains(problem: ProblemSpec, radii, h: float,
                   penalty: PenaltyParams | None = None,
                   opts: SolverOptions = SolverOptions()) -> ErgodicSolution:
    """Direct ergodic solves on growing boxes.

    The eigenvalue sequence must be non-increasing up to ``10 * tol_lambda``
    (violations raise ``MonotonicityError``: the discretization is too coarse
    for the schedule).  The minimizer location per leg is recorded and must
    land on the same point for the last two legs.
    """
    radii = list(radii)
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ParameterError("domain schedule must be strictly increasing")
    tol_mono = 10.0 * opts.tol_lambda
    lam_seq = []
    minimizers = []
    sol = None
    warm = None
    prev_grid = None
    for radius in radii:
        grid = build_grid(problem.dimension, radius, h)
        if warm is not None:
            warm = _interp_controls(prev_grid, warm.values, grid)
        sol = solve_ergodic_normalized(problem, grid, penalty=penalty, opts=opts, warm=warm)
        lam_seq.append((radius, sol.lam))
        nodes = sol.minimizer_nodes()
        minimizers.append(tuple(tuple(grid.points[i]) for i in nodes))
        if not sol.minimizer_interior():
            raise SolverError(f"minimizer reached the wall on the box of half-width {radius}; "
                              "penalty cap or box too small")
        if len(lam_seq) >= 2 and lam_seq[-1][1] > lam_seq[-2][1] + tol_mono:
            raise MonotonicityError(
                f"eigenvalue increased from {lam_seq[-2][1]:.6g} to {lam_seq[-1][1]:.6g} "
                f"beyond tolerance {tol_mono:.2g}", sequence=lam_seq)
        warm = ControlFieldPair(extract_control(problem, sol).values)
        prev_grid = grid
    if len(minimizers) >= 2:
        last, prev = np.asarray(minimizers[-1]), np.asarray(minimizers[-2])
        if not np.allclose(last, prev, atol=h / 2):
            raise ConvergenceError(
                "minimizer location did not stabilize over the last two domains",
                history=minimizers)
    return replace(sol, method="nested_domains", history=tuple(lam_seq),
                   minimizers=tuple(minimizers))


def extract_control(problem: ProblemSpec, solution: ErgodicSolution) -> ControlFieldPair:
    """Optimal feedback from the value gradient, with its duality defect.

    ``duality_residual`` is the largest relative gap between H_k at the
    central gradient and the control-form pairing at the extracted field;
    it vanishes identically because the field is the exact maximizer.
    """
    ham = problem.hamiltonian
    grid = solution.grid
    pts = grid.points
    xi = np.empty((2, grid.n_nodes, grid.dim))
    worst = 0.0
    for k in STATES:
        g = gradient_central(grid, solution.state(k))
        xi[k - 1] = ham.grad_p(k, pts, g)
        if not ham.truncated(k):
            h = ham.value_raw(k, pts, g)
            gap = h - (np.sum(g * xi[k - 1], axis=-1) - ham.lagrangian(k, pts, xi[k - 1]))
            worst = max(worst, float(np.max(np.abs(gap) / (1.0 + np.abs(h)))))
    return ControlFieldPair(values=xi, duality_residual=worst)
