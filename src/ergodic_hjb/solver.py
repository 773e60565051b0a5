"""Ergodic eigenvalue solves via Howard policy iteration.

Two constructive routes are provided and should agree on every problem:

* ``vanishing_discount`` drives discounted solves to zero discount and reads
  the eigenvalue off ``discount * w(x_ref)``;
* ``solve_ergodic_normalized`` solves the average-cost system directly, with
  the eigenvalue as an extra unknown and the normalization ``u_1(x_ref) = 0``
  closing the system.

Both use the same inner loop: evaluate the current feedback control through a
sparse monotone linear solve (:func:`frozen_system`), then improve it from the
Hamiltonian gradient at the central difference of the value.  The running cost
and the improvement are the problem's own Legendre pair,
``HamiltonianSpec.lagrangian`` and ``HamiltonianSpec.grad_p``, for truncated
states too.  One evaluation serves both routes: the discounted matrix is
factored as it is, the average-cost matrix is pinned at the reference node
(``A + e_ref e_ref^T``), and the eigenvalue is the ratio of two triangular
solves at that node.  The pattern (5-point stencil, diagonal switching
coupling, ``e_ref e_ref^T``) is structurally symmetric, so SuperLU orders it
by minimum degree on ``A + A^T``, which halves the LU fill of the column
ordering of ``A^T A``.  Boxes carry a steep penalty source near the wall (a
finite stand-in for boundary blow-up) which confines the minimizer strictly
inside the domain when the source is coercive.  Every entry point takes its
cap as ``wall``: ``None`` is :func:`wall_cap`, ``0.0`` no wall.

Every evaluation runs one iterative refinement in float64 to a componentwise
backward error of 1e-15, with the LU factor the Howard loop carries from the
last evaluation (:class:`LUFactor`).  Factors are float32 (mixed-precision
refinement: Langou et al., SC'06; Carson & Higham, SIAM J. Sci. Comput. 40,
2018): on the 2D benchmark their 7.7M nnz(L+U) are 4-byte values.  When the
policy moved too far for the held factor, it is dropped before the new one is
built, and the refinement reruns; a fresh float32 factor that cannot be built
or whose refinement stalls gives way to a float64 one, and a discount below
float32's spacing at the diagonal is factored in float64 from the start (on
the bundled grid, the last two legs of ``vanishing_discount``).  A direct
solve started cold first solves on the 2h grid of the same box, when that
grid exists, and starts from its feedback (nested iteration, as in full
multigrid); if that 2h solve fails, the h solve runs cold.
"""

from __future__ import annotations

import logging
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

_log = logging.getLogger(__name__)


def _wall_exponent(problem: ProblemSpec) -> float:
    """Exponent alpha of the wall source, inside the barrier bracket of the gammas.

    The barrier steepness is beta = max(2, gamma_1, gamma_2) + 1, raised to
    (2 - g)/(g - 1) + 1 when g = min(gamma_1, gamma_2, 2) < 2 so that the
    bracket beta < alpha < (beta + 1) g is not empty; alpha lies 2 above beta,
    or halfway into the bracket when that is narrower.
    """
    gammas = [problem.hamiltonian.gamma(k) for k in STATES]
    gmin2 = min(min(gammas), 2.0)
    beta = max(2.0, *gammas) + 1.0
    if gmin2 < 2.0:
        beta = max(beta, (2.0 - gmin2) / (gmin2 - 1.0) + 1.0)
    return beta + min(2.0, ((beta + 1.0) * gmin2 - beta) / 2.0)


def _check_cap(cap):
    """``cap``, the height of the wall: null or a finite JSON number >= 0."""
    if cap is not None and not 0.0 <= number(cap, "penalty cap") < math.inf:
        raise ParameterError(f"penalty cap must be null or a finite number >= 0, got {cap!r}")
    return cap


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


def penalty_source(problem: ProblemSpec, grid: Grid, wall: float | None = None) -> np.ndarray:
    """Per-state source f_k + min(cap, profile^alpha), shape (2, n_nodes).

    The profile's argument is the max-norm analogue of the squared distance
    to the boundary, ``radius^2 - |x|_inf^2``, so the layer is uniform along
    the box faces; the penalty vanishes at depth >= 1 inside the wall.  The
    exponent alpha is :func:`_wall_exponent`; ``wall`` is the cap, where
    ``None`` means :func:`wall_cap` and ``0.0`` gives the raw sources.
    """
    cap = wall_cap(problem, grid) if wall is None else _check_cap(wall)
    pts = grid.points
    rho = np.max(np.abs(pts), axis=-1)
    t = grid.radius**2 - rho**2
    profile = _wall_profile(t)
    with np.errstate(over="ignore"):
        pen = np.minimum(cap, profile**_wall_exponent(problem))
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

    ``matrix`` and ``ref`` name the system the factor ``lu`` belongs to,
    ``dtype`` is the precision of the factor's values (``np.float32``, or
    ``np.float64`` after a fallback), and ``z`` is its solve against the ones
    vector (average-cost systems only).  Every solve through the holder takes
    and returns float64.  An empty holder (``lu`` None) makes the next
    evaluation factor afresh.
    """

    lu: object = None
    matrix: sp.spmatrix | None = None
    ref: int | None = None
    z: np.ndarray | None = None
    dtype: type | None = None

    def clear(self):
        self.lu = self.matrix = self.ref = self.z = self.dtype = None


# refinement stops at a componentwise backward error of REFINE_TOL, and gives up
# after REFINE_STEPS steps or at a step that shrinks that error by less than REFINE_SHRINK
REFINE_STEPS = 30
REFINE_SHRINK = 4.0
REFINE_TOL = 1e-15


def _pinned(matrix: sp.spmatrix, ref: int | None) -> sp.spmatrix:
    """``matrix + e_ref e_ref^T``, or ``matrix`` itself when ``ref`` is None."""
    if ref is None:
        return matrix
    return matrix + sp.csr_matrix(([1.0], ([ref], [ref])), matrix.shape)


def _lu_solve(factor: LUFactor, r: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve with the held factor in its own precision; float64 in and out.

    A float32 factor solves ``r`` scaled to a max norm of 1, so that neither
    the cast down nor the triangular solves overflow or underflow, and the
    solution comes back up to float64 before it is scaled back.
    """
    if factor.dtype is np.float64:
        return factor.lu.solve(r, trans=trans)
    scale = float(np.max(np.abs(r))) or 1.0
    down = (r / scale).astype(factor.dtype)
    return factor.lu.solve(down, trans=trans).astype(np.float64) * scale


def _factor(factor: LUFactor, matrix: sp.csr_matrix, ref: int | None, dtype: type) -> None:
    """Fill the empty holder with the ``dtype`` SuperLU factor of ``matrix`` pinned at
    ``ref``, and its solve against ones.

    Raises ``SolverError``, leaving the holder empty, when the pinned matrix
    is not finite in ``dtype``, when SuperLU calls it singular, or when the
    solve against ones is not finite or vanishes at ``ref``.
    """
    with np.errstate(over="ignore"):
        pinned = _pinned(matrix, ref).tocsc().astype(dtype, copy=False)
    if not np.isfinite(pinned.data).all():
        raise SolverError("sparse factorization failed: the matrix has a non-finite entry "
                          f"in {np.dtype(dtype)}")
    try:
        lu = spla.splu(pinned, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed in {np.dtype(dtype)}: {exc}") from exc
    _log.debug("%s factor: %d unknowns, nnz(L+U) %d", np.dtype(dtype), matrix.shape[0], lu.nnz)
    factor.lu, factor.matrix, factor.ref, factor.dtype = lu, matrix, ref, dtype
    if ref is not None:
        factor.z = _lu_solve(factor, np.ones(matrix.shape[0]))
        if not (np.isfinite(factor.z).all() and abs(factor.z[ref]) >= 1e-300):
            factor.clear()
            raise SolverError(f"pinned system is numerically singular in {np.dtype(dtype)}")


def _pinned_solve(factor: LUFactor, ref: int | None, r: np.ndarray, trans: str = "N"):
    """``(u, lam)`` with ``A u + lam = r`` and ``u[ref] = 0`` through the held factor of
    ``A + e_ref e_ref^T`` and its solve ``z`` against ones; ``lam = 0`` unpinned.
    ``u[ref]`` is set to 0 exactly, so that refinement measures the defect of the
    iterate it returns."""
    u = _lu_solve(factor, r, trans)
    if ref is None:
        return u, 0.0
    lam = u[ref] / factor.z[ref]
    u = u - lam * factor.z
    u[ref] = 0.0
    return u, lam


def _refine(factor: LUFactor, matrix: sp.spmatrix, rhs: np.ndarray, ref: int | None,
            trans: str = "N"):
    """Iterative refinement of ``A u + lam = rhs`` preconditioned by the held factor.

    Residuals and updates are float64 whatever the factor's precision; with
    ``trans="T"`` the factor's transposed solves precondition ``matrix``,
    which is then the transpose of the factored one (``ref`` None).
    Returns ``(u, lam, converged)``.  ``converged`` is True once the defect is
    below ``REFINE_TOL`` times ``|A||u| + |rhs| + |lam|`` in every row, and
    False after ``REFINE_STEPS`` steps or as soon as a step shrinks that
    measure by less than ``REFINE_SHRINK``.  A normwise stopping test would let
    the penalty rows, which dominate the norm, hide a defect that stalls the
    Howard loop.
    """
    absmat = abs(matrix)
    u, lam = _pinned_solve(factor, ref, rhs, trans)
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
        du, dlam = _pinned_solve(factor, ref, defect, trans)
        u, lam = u + du, lam + dlam
    return u, lam, False


def _discount_unresolved(matrix: sp.spmatrix) -> bool:
    """Whether the discounted ``matrix``'s smallest row sum, its discount, lies below
    the float32 spacing at its largest diagonal entry: a float32 cast rounds away
    the margin that makes the matrix nonsingular, and refinement over its factor
    stalls."""
    margin = float(np.min(matrix @ np.ones(matrix.shape[0])))
    # a diagonal beyond float32's range gives a nan spacing here: the float32 try
    # is made, and its cast check turns it down
    with np.errstate(over="ignore"):
        return margin < float(np.spacing(np.float32(matrix.diagonal().max())))


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
    an empty one), and :func:`_refine` is the one refinement loop, in
    float64.  The factors are tried in this order: the held one (same
    ``ref``), a fresh float32 factor of this matrix, a fresh float64 one.  The
    float32 try is skipped for a discounted system whose smallest row sum (its
    discount) lies below float32's spacing at its largest diagonal entry
    (:func:`_discount_unresolved`): the cast rounds that margin away, and its
    refinement would stall.  A float32 factor holds half the bytes of a
    float64 one; where one step with a fresh float64 factor reaches a
    componentwise backward error of order eps (Skeel, 1980), each step with a
    fresh float32 factor shrinks the error by about ``kappa * 2^-24``
    (mixed-precision refinement), so a few steps reach the same target.  The float64 factor is built only when the float32 cast
    is not finite, when SuperLU calls the float32 matrix singular (a switching
    rate or a discount below float32's resolution of the diagonal), or when
    the refinement with the fresh float32 factor stalls.  The holder is emptied
    before each new factor is built, so two factors are never alive at once,
    and the refinement restarts from the new factor's solve.  A refinement
    that still stalls must reach a normwise backward error <= 1e-12, or
    ``SolverError`` reports it; so does a float64 factorization that fails.
    The holder ends up holding the factor used.
    """
    rhs = np.asarray(rhs, dtype=float)
    factor = LUFactor() if factor is None else factor
    converged = False
    rungs = ((np.float64,) if ref is None and _discount_unresolved(matrix)
             else (np.float32, np.float64))
    if factor.lu is not None and factor.ref == ref:
        u, lam, converged = _refine(factor, matrix, rhs, ref)
        if factor.matrix is matrix:
            # this matrix's own factor has run: only a wider one is left to try
            rungs = () if factor.dtype is np.float64 else (np.float64,)
    for dtype in rungs:
        if converged:
            break
        # drop the stalled iterate and the old factor before splu builds the new one
        u = None
        factor.clear()
        try:
            _factor(factor, matrix, ref, dtype)
        except SolverError as exc:
            if dtype is np.float64:
                raise
            _log.debug("float64 fallback: %s", exc)
            continue
        u, lam, converged = _refine(factor, matrix, rhs, ref)
        if not converged and dtype is np.float32:
            _log.debug("float64 fallback: refinement with the fresh float32 factor stalled")
    if not converged:
        scale = np.max(abs(matrix) @ np.abs(u)) + np.max(np.abs(rhs)) + abs(lam)
        rel = float(np.max(np.abs(rhs - matrix @ u - lam)) / max(scale, 1e-300))
        if not (np.all(np.isfinite(u)) and rel <= 1e-12):
            raise SolverError(f"policy evaluation reached relative residual {rel:.3e} > 1e-12")
    return u, float(lam)


def stationary_law(factor: LUFactor, ref: int) -> np.ndarray:
    """Stationary law (mass 1) of the chain whose average-cost system ``factor`` holds:
    for ``P = A + e_ref e_ref^T`` and ``A^T m = 0``, ``P^T m = m_ref e_ref``.

    The transposed solve is refined in float64 with the held factor's
    transposed solves (:func:`_refine`, same target and stall rule), so a
    float32 factor gives the law to float64 accuracy; a refinement that
    stalls returns its last iterate.
    """
    if factor.lu is None or factor.ref != ref:
        raise ParameterError(f"the held factor is not an average-cost factor pinned at {ref}")
    n = factor.matrix.shape[0]
    law, _, _ = _refine(factor, _pinned(factor.matrix, ref).T, np.eye(1, n, ref)[0], None,
                        trans="T")
    return law / law.sum()


def feedback_law(problem: ProblemSpec, grid: Grid, xi: np.ndarray) -> np.ndarray:
    """Stationary law (2, n_nodes), mass 1, of the chain that the feedback ``xi``
    (2, n_nodes, dim) drives on ``grid``.

    The chain is the frozen system's at zero discount, at ``xi`` clamped at
    ``control_cap(problem, grid)``, the default cap of every Howard policy: an
    unclamped field that reaches the wall layer's huge values would fill its
    factor several times over.  The system is pinned at the origin node and
    factored once through :func:`policy_evaluation` (a zero right-hand side, so
    that only the factor is built), and :func:`stationary_law` reads the law off
    that factor.  Raises ``SolverError`` unless the law is finite, has mass 1 and
    no entry below -roundoff.
    """
    xi = _clamp(np.asarray(xi, dtype=float), control_cap(problem, grid))
    gen = assemble_generator(grid, problem, xi, 0.0)
    factor = LUFactor()
    policy_evaluation(gen, np.zeros(gen.shape[0]), grid.origin_index, factor)
    law = stationary_law(factor, grid.origin_index)
    roundoff = gen.shape[0] * np.finfo(float).eps
    if not (np.isfinite(law).all() and abs(law.sum() - 1.0) <= roundoff
            and law.min() >= -roundoff * law.max()):
        raise SolverError("the feedback's stationary law is not a probability law to roundoff")
    return law.reshape(2, grid.n_nodes)


def frozen_system(problem: ProblemSpec, grid: Grid, src: np.ndarray, xi: np.ndarray,
                  discount: float) -> tuple[sp.csr_matrix, np.ndarray]:
    """:func:`assemble_generator` at the feedback ``xi`` (2, n, dim), and its right-hand
    side: the source ``src`` (2n,) plus the running cost l_k(x, xi_k(x)) of each row."""
    lag = np.stack([problem.hamiltonian.lagrangian(k, grid.points, xi[k - 1]) for k in STATES])
    return assemble_generator(grid, problem, xi, discount), src + lag.ravel()


def _clamp(xi: np.ndarray, cap: float) -> np.ndarray:
    """Scale every control vector longer than ``cap`` back onto the cap."""
    mag = np.linalg.norm(xi, axis=-1)
    factor = np.where(mag > cap, cap / np.where(mag > 0, mag, 1.0), 1.0)
    return xi * factor[..., None]


def _improve(problem: ProblemSpec, grid: Grid, u: np.ndarray, cap: float):
    """Clamped feedback (2, n, dim) from the central gradient of the current value."""
    return np.stack([_clamp(problem.hamiltonian.grad_p(k, grid.points,
                                                       gradient_central(grid, u[k - 1])), cap)
                     for k in STATES])


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
    gen, rhs = frozen_system(problem, grid, src, xi, discount)
    history = []
    factor = LUFactor()
    for it in range(1, opts.max_policy_iters + 1):
        u, lam = policy_evaluation(gen, rhs, ref, factor)
        xi = _improve(problem, grid, u.reshape(2, n), cap)
        gen, rhs = frozen_system(problem, grid, src, xi, discount)
        residual = _defect_norm(gen @ u + lam - rhs, rhs, source_scale, gen, u, lam, tol)
        history.append((it, residual, lam))
        if residual <= tol:
            return u.reshape(2, n), lam, xi, it, residual
    raise ConvergenceError(
        f"policy iteration did not reach tolerance {tol:.3e} in {opts.max_policy_iters} "
        f"iterations (last residual {history[-1][1]:.3e})", history=history)


def solve_discounted(problem: ProblemSpec, grid: Grid, discount: float,
                     wall: float | None = None,
                     opts: SolverOptions = SolverOptions(),
                     warm: np.ndarray | None = None) -> DiscountedSolution:
    """Howard iteration on the discounted system; discount must be positive."""
    if discount <= 0:
        raise ParameterError("discount must be positive")
    src = penalty_source(problem, grid, wall).ravel()
    w, _, controls, iters, residual = _howard(
        problem, grid, src, discount, opts, warm, ref=None)
    return DiscountedSolution(grid=grid, w=w, discount=discount, iterations=iters,
                              residual=residual, controls=controls)


def vanishing_discount(problem: ProblemSpec, grid: Grid,
                       wall: float | None = None,
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
        sol = solve_discounted(problem, grid, eps, wall=wall, opts=opts, warm=warm)
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
                             wall: float | None = None,
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
        coarse_lam, warm = _coarse_start(problem, grid, wall, opts)
    return replace(_direct(problem, grid, wall, opts, warm), coarse_lam=coarse_lam)


def _direct(problem: ProblemSpec, grid: Grid, wall: float | None,
            opts: SolverOptions, warm: np.ndarray | None) -> ErgodicSolution:
    """One direct solve on ``grid``, started from ``warm`` (zero control if None)."""
    src = penalty_source(problem, grid, wall).ravel()
    ref = grid.index_of(problem.ref_point)
    u, lam, controls, iters, residual = _howard(problem, grid, src, 0.0, opts, warm, ref)
    return ErgodicSolution(grid=grid, u=u, lam=lam, residual=residual,
                           iterations=iters, method="ergodic_normalized",
                           history=((grid.radius, lam),))


def _coarse_start(problem: ProblemSpec, grid: Grid, wall: float | None,
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
        sol = _direct(problem, coarse, wall, opts, None)
    except (SolverError, ConvergenceError):
        return None, None
    return sol.lam, _feedback_at(problem, sol, grid)


def _feedback_at(problem: ProblemSpec, solution: ErgodicSolution, grid: Grid) -> np.ndarray:
    """``solution``'s feedback at ``grid``'s nodes, extended by its face values
    outside ``solution``'s box: a warm start of shape (2, n_nodes, dim)."""
    feedback = extract_control(problem, solution)
    return np.stack([feedback(grid.points, k) for k in STATES])


def nested_domains(problem: ProblemSpec, radii, h: float,
                   wall: float | None = None,
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
        sol = solve_ergodic_normalized(problem, grid, wall=wall, opts=opts, warm=warm)
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
