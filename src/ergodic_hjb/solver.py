"""Ergodic eigenvalue solves via Howard policy iteration.

Two constructive routes are provided and should agree on every problem:

* ``vanishing_discount`` drives discounted solves to zero discount and reads
  the eigenvalue off ``discount * w(x_ref)``;
* ``solve_ergodic_normalized`` solves the average-cost system directly, with
  the eigenvalue as an extra unknown and the normalization ``u_1(x_ref) = 0``
  closing the system.

Both use the same inner loop: evaluate the current feedback control through a
sparse monotone linear solve, then improve it from the Hamiltonian gradient
at the central difference of the value.  The running cost and the
improvement are the problem's own Legendre pair, ``HamiltonianSpec.lagrangian``
and ``HamiltonianSpec.grad_p``, for truncated states too.  One evaluation serves both routes:
the discounted matrix is factored as it is, the average-cost matrix is
pinned at the reference node (``A + e_ref e_ref^T``), and the eigenvalue is
the ratio of two triangular solves at that node.  The pattern (5-point
stencil, diagonal switching coupling, ``e_ref e_ref^T``) is structurally
symmetric, so SuperLU orders it by minimum degree on ``A + A^T``, which
halves the LU fill of the column ordering of ``A^T A``.  Boxes carry a steep
penalty source near the wall (a finite stand-in for boundary blow-up) which
confines the minimizer strictly inside the domain when the source is
coercive.

Every evaluation runs one iterative refinement to a componentwise backward
error of 1e-15, with the LU factor the Howard loop carries from the last
evaluation (:class:`LUFactor`).  When the policy moved too far for that factor,
it is dropped before the new one is built, and the refinement reruns.  A
direct solve started cold first solves on the 2h grid of the same box, when
that grid exists, and starts from its feedback (nested iteration, as in full
multigrid); if that 2h solve fails, the h solve runs cold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import (
    FeedbackControl,
    Grid,
    assemble_generator,
    build_grid,
    control_cap,
    gradient_central,
)
from .errors import ConvergenceError, MonotonicityError, ParameterError, SolverError
from .fields import number
from .model import ProblemSpec, STATES


@dataclass(frozen=True)
class PenaltyParams:
    """Steep wall source added inside a unit layer along the box faces.

    ``beta`` controls the supersolution barrier steepness and must exceed
    ``max(2, gamma_1, gamma_2)``; the wall exponent ``alpha_exp`` must lie in
    the open bracket ``beta < alpha_exp < (beta + 1) * min(gamma, 2)``.
    ``cap`` bounds the discrete wall height: ``None`` means :func:`wall_cap`,
    ``0.0`` no wall.
    """

    beta: float
    alpha_exp: float
    cap: float | None = None

    def __post_init__(self):
        for name in ("beta", "alpha_exp"):
            if not math.isfinite(number(getattr(self, name), f"penalty {name}")):
                raise ParameterError(f"penalty {name} must be finite, got {getattr(self, name)!r}")
        if self.cap is not None and not 0.0 <= number(self.cap, "penalty cap") < math.inf:
            raise ParameterError(f"penalty cap must be null or a finite number >= 0, "
                                 f"got {self.cap!r}")

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


def _source_scale(problem: ProblemSpec, grid: Grid) -> float:
    """``1 + max |f_k|`` over the grid nodes and both states."""
    return 1.0 + max(float(np.max(np.abs(problem.source(k)(grid.points)))) for k in STATES)


def wall_cap(problem: ProblemSpec, grid: Grid) -> float:
    """Default height of the penalty wall, ``1e6 * (1 + max |f|)``."""
    return 1e6 * _source_scale(problem, grid)


def penalty_source(problem: ProblemSpec, grid: Grid,
                   params: PenaltyParams | None = None) -> np.ndarray:
    """Per-state source f_k + min(cap, wall^alpha_exp), shape (2, n_nodes).

    The wall argument is the max-norm analogue of the squared distance to the
    boundary, ``radius^2 - |x|_inf^2``, so the layer is uniform along the box
    faces; the penalty vanishes at depth >= 1 inside the wall.  ``None``
    means ``default_penalty(problem)``; ``cap=0.0`` gives the raw sources.
    """
    params = (default_penalty(problem) if params is None else params).validated(problem)
    pts = grid.points
    rho = np.max(np.abs(pts), axis=-1)
    t = grid.radius**2 - rho**2
    wall = _wall_profile(t)
    cap = params.cap if params.cap is not None else wall_cap(problem, grid)
    with np.errstate(over="ignore"):
        pen = np.minimum(cap, wall**params.alpha_exp)
    return np.stack([problem.source(k)(pts) + pen for k in STATES])


@dataclass(frozen=True)
class SolverOptions:
    """Howard-loop options; each value is checked when the options are built."""

    tol_pde: float | None = None          # None: 1e-9 * (1 + max |f|)
    tol_lambda: float = 1e-4
    eps0: float = 1.0
    eps_min: float = 1e-5
    max_policy_iters: int = 120
    control_cap: float | None = None      # None: the automatic control cap

    def __post_init__(self):
        for f in fields(self):
            value, what = getattr(self, f.name), f"solver option {f.name}"
            if value is None and f.default is None:
                continue
            if not 0 < number(value, what, integer=type(f.default) is int) < math.inf:
                raise ParameterError(f"{what} must be finite and > 0, got {value!r}")
        if self.eps_min > self.eps0:
            raise ParameterError(f"solver option eps_min={self.eps_min} exceeds eps0={self.eps0}")


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
    controls: np.ndarray          # (2, n_nodes, dim)


@dataclass(frozen=True)
class ErgodicSolution:
    """Eigenvalue solve result, normalized to u_1(x_ref) = 0 exactly.

    ``residual`` is the sup-norm defect of the final linearized equation at
    the improved control (direct substitution into the discrete system).
    ``history`` records per-leg (parameter, eigenvalue) pairs: discount legs
    for the vanishing-discount route, half-widths for nested domains.
    ``coarse_lam`` is the eigenvalue of the 2h solve that started a direct
    solve, None when no 2h solve ran.
    """

    grid: Grid
    u: np.ndarray                 # (2, n_nodes)
    lam: float
    residual: float
    iterations: int
    method: str
    history: tuple = ()
    minimizers: tuple = ()
    coarse_lam: float | None = None

    def state(self, k: int) -> np.ndarray:
        return self.u[k - 1]

    def minimizer_nodes(self) -> tuple[int, int]:
        return tuple(int(np.argmin(self.u[k - 1])) for k in STATES)

    def minimizer_interior(self) -> bool:
        mask = self.grid.interior_mask
        return all(mask[i] for i in self.minimizer_nodes())


@dataclass
class LUFactor:
    """Holder that carries the last LU factor from one policy evaluation to the next.

    ``matrix`` and ``ref`` name the system the factor ``lu`` belongs to, and
    ``z`` is its solve against the ones vector (average-cost systems only).
    An empty holder (``lu`` None) makes the next evaluation factor afresh.
    """

    lu: object = None
    matrix: sp.spmatrix | None = None
    ref: int | None = None
    z: np.ndarray | None = None


# refinement stops at a componentwise backward error of REFINE_TOL, and gives up
# after REFINE_STEPS steps or at a step that shrinks that error by less than REFINE_SHRINK
REFINE_STEPS = 30
REFINE_SHRINK = 4.0
REFINE_TOL = 1e-15


def _factor(matrix: sp.csr_matrix, ref: int | None):
    """SuperLU factor of ``matrix`` (pinned at ``ref``) and its solve against ones."""
    pinned = (matrix if ref is None
              else matrix + sp.csr_matrix(([1.0], ([ref], [ref])), matrix.shape))
    if not np.isfinite(pinned.data).all():
        raise SolverError("sparse factorization failed: the matrix has a non-finite entry")
    try:
        lu = spla.splu(pinned.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    z = None
    if ref is not None:
        z = lu.solve(np.ones(matrix.shape[0]))
        if abs(z[ref]) < 1e-300:
            raise SolverError("pinned system is numerically singular")
    return lu, z


def _pinned_solve(lu, z, ref: int | None, r: np.ndarray):
    """``(u, lam)`` with ``A u + lam = r`` and ``u[ref] = 0`` through the factor of
    ``A + e_ref e_ref^T`` and its solve ``z`` against ones; ``lam = 0`` unpinned."""
    u = lu.solve(r)
    if ref is None:
        return u, 0.0
    lam = u[ref] / z[ref]
    return u - lam * z, lam


def _refine(factor: LUFactor, matrix: sp.csr_matrix, rhs: np.ndarray, ref: int | None):
    """Iterative refinement of ``A u + lam = rhs`` preconditioned by the held factor.

    Returns ``(u, lam, converged)``.  ``converged`` is True once the defect is
    below ``REFINE_TOL`` times ``|A||u| + |rhs| + |lam|`` in every row, and
    False after ``REFINE_STEPS`` steps or as soon as a step shrinks that
    measure by less than ``REFINE_SHRINK``.  A normwise stopping test would let
    the penalty rows, which dominate the norm, hide a defect that stalls the
    Howard loop.
    """
    absmat = abs(matrix)
    u, lam = _pinned_solve(factor.lu, factor.z, ref, rhs)
    previous = np.inf
    for _ in range(REFINE_STEPS):
        defect = rhs - matrix @ u - lam
        scale = absmat @ np.abs(u) + np.abs(rhs) + abs(lam)
        omega = float(np.max(np.abs(defect) / np.maximum(scale, 1e-300)))
        if omega <= REFINE_TOL:
            return u, lam, True
        if not omega * REFINE_SHRINK <= previous:
            return u, lam, False
        previous = omega
        du, dlam = _pinned_solve(factor.lu, factor.z, ref, defect)
        u, lam = u + du, lam + dlam
    return u, lam, False


def policy_evaluation(matrix: sp.csr_matrix, rhs: np.ndarray, ref: int | None = None,
                      factor: LUFactor | None = None) -> tuple[np.ndarray, float]:
    """Solve the frozen-control linear system to backward error <= 1e-12.

    With ``ref=None`` this is the discounted system ``A u = rhs`` and the
    returned eigenvalue is 0.  With an integer ``ref`` it is the average-cost
    system ``A u + lam = rhs`` with ``u[ref] = 0``: the factored matrix is
    ``A + e_ref e_ref^T`` (nonsingular since A kills constants and is
    irreducible), and the solves against ``rhs`` and against the ones vector
    give the eigenvalue as the ratio ``y[ref] / z[ref]``.  The factorization
    orders by minimum degree on ``A + A^T`` (``MMD_AT_PLUS_A``): the pattern
    is structurally symmetric, and the ordering halves the fill of COLAMD.

    ``factor`` is an :class:`LUFactor` holder carried between calls (``None``:
    an empty one), and :func:`_refine` is the one refinement loop.  A held
    factor (same ``ref``) is tried first.  If it belongs to another matrix and
    does not converge, the holder is emptied before this matrix is factored,
    so two factors are never alive at once, and the refinement restarts from
    the new factor's solve; one step gives a fresh factor a componentwise
    backward error of order eps (Skeel, 1980).  A refinement that still stalls
    must reach a normwise backward error <= 1e-12, or ``SolverError`` reports
    it.  The holder ends up holding the factor used.
    """
    rhs = np.asarray(rhs, dtype=float)
    factor = LUFactor() if factor is None else factor
    converged = False
    if factor.lu is not None and factor.ref == ref:
        u, lam, converged = _refine(factor, matrix, rhs, ref)
    if not converged and not (factor.matrix is matrix and factor.ref == ref):
        # drop the stalled iterate and the old factor before splu builds the new one
        u = factor.lu = factor.z = factor.matrix = None
        factor.lu, factor.z = _factor(matrix, ref)
        factor.matrix, factor.ref = matrix, ref
        u, lam, converged = _refine(factor, matrix, rhs, ref)
    if not converged:
        scale = np.max(abs(matrix) @ np.abs(u)) + np.max(np.abs(rhs)) + abs(lam)
        rel = float(np.max(np.abs(rhs - matrix @ u - lam)) / max(scale, 1e-300))
        if not (np.all(np.isfinite(u)) and rel <= 1e-12):
            raise SolverError(f"policy evaluation reached relative residual {rel:.3e} > 1e-12")
    if ref is not None:
        u[ref] = 0.0
    return u, float(lam)


def _running_cost(problem: ProblemSpec, grid: Grid, xi: np.ndarray) -> np.ndarray:
    """Per-node running cost l_k(x, xi_k(x)) of a feedback field, shape (2, n)."""
    return np.stack([problem.hamiltonian.lagrangian(k, grid.points, xi[k - 1]) for k in STATES])


def _clamp(xi: np.ndarray, cap: float) -> np.ndarray:
    """Scale every control vector longer than ``cap`` back onto the cap."""
    mag = np.linalg.norm(xi, axis=-1)
    factor = np.where(mag > cap, cap / np.where(mag > 0, mag, 1.0), 1.0)
    return xi * factor[..., None]


def _improve(problem: ProblemSpec, grid: Grid, u: np.ndarray, cap: float):
    """Feedback improvement from the central gradient of the current value.

    Returns the clamped control field (2, n, dim) and its running cost.
    """
    xi = np.stack([_clamp(problem.hamiltonian.grad_p(k, grid.points,
                                                     gradient_central(grid, u[k - 1])), cap)
                   for k in STATES])
    return xi, _running_cost(problem, grid, xi)


def _howard(problem: ProblemSpec, grid: Grid, src: np.ndarray, discount: float,
            opts: SolverOptions, warm: np.ndarray | None, ref: int | None):
    """Shared policy-iteration driver.

    ``src`` is the stacked (2*n,) right-hand side without the running cost.
    With a reference node ``ref`` the eigenvalue is an extra unknown and u_1
    is pinned there; with ``ref=None`` the system is discounted and the
    returned eigenvalue is 0.  Each iteration evaluates the frozen control,
    improves it from the central gradient of the value, and makes the
    improved operator and right-hand side the next iteration's.  The last LU
    factor is carried into the next evaluation, which refactors only when
    the policy moved too far for it.
    """
    n = grid.n_nodes
    cap = opts.control_cap if opts.control_cap is not None else control_cap(problem, grid)
    source_scale = _source_scale(problem, grid)
    tol = opts.tol_pde if opts.tol_pde is not None else 1e-9 * source_scale
    xi = (np.zeros((2, n, grid.dim)) if warm is None
          else _clamp(np.array(warm, dtype=float), cap))
    rhs = src + _running_cost(problem, grid, xi).ravel()
    gen = assemble_generator(grid, problem, xi, discount)
    history = []
    factor = LUFactor()
    for it in range(1, opts.max_policy_iters + 1):
        u, lam = policy_evaluation(gen, rhs, ref, factor)
        xi, lag = _improve(problem, grid, u.reshape(2, n), cap)
        gen = assemble_generator(grid, problem, xi, discount)
        rhs = src + lag.ravel()
        residual = _defect_norm(gen @ u + lam - rhs, rhs, source_scale, gen, u, lam, tol)
        history.append((it, residual, lam))
        if residual <= tol:
            return u.reshape(2, n), lam, xi, it, residual
    raise ConvergenceError(
        f"policy iteration did not reach tolerance {tol:.3e} in {opts.max_policy_iters} "
        f"iterations (last residual {history[-1][1]:.3e})", history=history)


def solve_discounted(problem: ProblemSpec, grid: Grid, discount: float,
                     penalty: PenaltyParams | None = None,
                     opts: SolverOptions = SolverOptions(),
                     warm: np.ndarray | None = None) -> DiscountedSolution:
    """Howard iteration on the discounted system; discount must be positive."""
    if discount <= 0:
        raise ParameterError("discount must be positive")
    src = penalty_source(problem, grid, penalty).ravel()
    w, _, controls, iters, residual = _howard(
        problem, grid, src, discount, opts, warm, ref=None)
    return DiscountedSolution(grid=grid, w=w, discount=discount, iterations=iters,
                              residual=residual, controls=controls)


def vanishing_discount(problem: ProblemSpec, grid: Grid,
                       penalty: PenaltyParams | None = None,
                       opts: SolverOptions = SolverOptions()) -> ErgodicSolution:
    """Drive the discount to zero and read the eigenvalue at the reference node.

    The discounts halve from ``opts.eps0`` until they reach ``opts.eps_min``.
    Each leg is warm-started from the previous control field; the schedule
    stops when consecutive eigenvalue estimates differ by at most
    ``opts.tol_lambda``.  Raises ``ConvergenceError`` carrying the
    (discount, eigenvalue) history if the schedule is exhausted first.
    """
    n_legs = int(math.ceil(math.log2(opts.eps0 / opts.eps_min))) + 1   # eps_min <= eps0
    ref = grid.index_of(problem.ref_point)
    history = []
    warm = None
    prev_lam = None
    total_iters = 0
    for eps in (opts.eps0 * 2.0**-j for j in range(n_legs)):
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
                             warm: np.ndarray | None = None) -> ErgodicSolution:
    """Direct average-cost solve with (u, eigenvalue) unknowns and u_1(x_ref) = 0.

    With ``warm=None`` the solve first runs cold on the 2h grid of the same
    box, when that grid exists (R/(2h) an integer) and holds x_ref, and
    starts from that solve's feedback at the h nodes (nested iteration); its
    eigenvalue is returned as ``coarse_lam``.  If the 2h solve fails, the h
    solve runs cold.  ``iterations`` counts the h-level Howard iterations.
    """
    coarse_lam = None
    if warm is None:
        coarse_lam, warm = _coarse_start(problem, grid, penalty, opts)
    return replace(_direct(problem, grid, penalty, opts, warm), coarse_lam=coarse_lam)


def _direct(problem: ProblemSpec, grid: Grid, penalty: PenaltyParams | None,
            opts: SolverOptions, warm: np.ndarray | None) -> ErgodicSolution:
    """One direct solve on ``grid``, started from ``warm`` (zero control if None)."""
    src = penalty_source(problem, grid, penalty).ravel()
    ref = grid.index_of(problem.ref_point)
    u, lam, controls, iters, residual = _howard(problem, grid, src, 0.0, opts, warm, ref)
    return ErgodicSolution(grid=grid, u=u, lam=lam, residual=residual,
                           iterations=iters, method="ergodic_normalized",
                           history=((grid.radius, lam),))


def _coarse_start(problem: ProblemSpec, grid: Grid, penalty: PenaltyParams | None,
                  opts: SolverOptions):
    """``(lam_2h, warm)`` from a cold direct solve on the 2h grid of ``grid``'s box:
    its eigenvalue and its feedback at the h nodes (:func:`_feedback_at`, which
    also carries ``nested_domains`` to the next box).  ``(None, None)`` when
    that grid does not exist or misses x_ref, or when its solve fails.  Only
    these two leave here: a 2h solution and feedback kept alive through the h
    solve pinned heap memory and raised peak RSS on the 2D benchmark by up to
    30 MB."""
    try:
        coarse = build_grid(grid.dim, grid.radius, 2.0 * grid.h)
        coarse.index_of(problem.ref_point)
    except ParameterError:
        return None, None
    try:
        sol = _direct(problem, coarse, penalty, opts, None)
    except (SolverError, ConvergenceError):
        return None, None
    return sol.lam, _feedback_at(problem, sol, grid)


def _feedback_at(problem: ProblemSpec, solution: ErgodicSolution, grid: Grid) -> np.ndarray:
    """``solution``'s feedback at ``grid``'s nodes, extended by its face values
    outside ``solution``'s box: a warm start of shape (2, n_nodes, dim)."""
    feedback = extract_control(problem, solution)
    return np.stack([feedback(grid.points, k) for k in STATES])


def nested_domains(problem: ProblemSpec, radii, h: float,
                   penalty: PenaltyParams | None = None,
                   opts: SolverOptions = SolverOptions()) -> ErgodicSolution:
    """Direct ergodic solves on growing boxes.

    Each box after the first starts from the previous box's feedback.  The
    eigenvalue sequence must be non-increasing up to ``10 * tol_lambda``
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
    for radius in radii:
        grid = build_grid(problem.dimension, radius, h)
        warm = None if sol is None else _feedback_at(problem, sol, grid)
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
    if len(minimizers) >= 2:
        last, prev = np.asarray(minimizers[-1]), np.asarray(minimizers[-2])
        if not np.allclose(last, prev, atol=h / 2):
            raise ConvergenceError(
                "minimizer location did not stabilize over the last two domains",
                history=minimizers)
    return replace(sol, method="nested_domains", history=tuple(lam_seq),
                   minimizers=tuple(minimizers))


def extract_control(problem: ProblemSpec, solution: ErgodicSolution) -> FeedbackControl:
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
        gap = ham.duality_gap(k, pts, g)
        worst = max(worst, float(np.max(np.abs(gap) / (1.0 + np.abs(ham.value(k, pts, g))))))
    return FeedbackControl.from_fields(grid, xi, duality_residual=worst)
