"""Occupation-measure linear program: an independent route to the eigenvalue.

Minimize the expected running cost ``sum_k integral (f_k + l_k) d mu_k`` over
nonnegative measures on grid x control-mesh x state that are stationary for
the discrete generator (one balance row per node and state, plus unit total
mass).  The optimal value is a discrete counterpart of the eigenvalue
computed by the PDE solver; the two agree up to mesh and grid resolution.

The generator here uses the same no-flux box closure as the solver but no
wall penalty: the balance rows must kill constants exactly so that total
mass is conserved, and the coercive running cost keeps the minimizing
measure away from the walls on its own.

``solve_lp`` solves the program by policy iteration on the operator rows of
``solver.frozen_system``, which is column generation run to its end: each
restricted master holds one column per balance row, is solved by one sparse LU
through ``solver.policy_evaluation``, and every column is priced by one sparse
matvec.  The optimal measure is ``solver.stationary_law`` of the last policy's
factor, and the pricing of every column certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .discretize import Grid, control_cap
from .errors import LPError, ParameterError, SolverError
from .model import ProblemSpec, STATES
from .solver import LUFactor, frozen_system, policy_evaluation, stationary_law

# a row switches when its best reduced cost is below -PRICING_TOL * (1 + |cost|);
# policy iteration gives up after MAX_POLICY_ITERS policies
PRICING_TOL = 1e-12
MAX_POLICY_ITERS = 100
FEASIBILITY_TOL = 1e-8   # least entry and largest balance residual of an optimal measure


@dataclass(frozen=True)
class ControlMesh:
    """Finite spatially-homogeneous control set shared by every node.

    1D: signed magnitudes; 2D: the zero control plus magnitude/direction
    combinations with equispaced unit directions.
    """

    dim: int
    controls: np.ndarray          # (n_controls, dim)
    magnitude_step: float

    @property
    def n_controls(self) -> int:
        return self.controls.shape[0]

    def nearest(self, xi: np.ndarray) -> np.ndarray:
        """Indices of the mesh controls closest to the rows of ``xi``."""
        d2 = np.sum((np.asarray(xi)[:, None, :] - self.controls[None, :, :]) ** 2, axis=-1)
        return np.argmin(d2, axis=1)


def build_control_mesh(problem: ProblemSpec, grid: Grid, magnitudes=None,
                       directions: int = 8) -> ControlMesh:
    """Control mesh spanning magnitudes up to the automatic control cap.

    ``magnitudes`` defaults to a uniform grid of step 0.25 from 0 to the cap;
    a supplied list must include 0.  The mesh always contains the zero
    control, so any feedback field rounds to it within one mesh step.  In 2D
    each magnitude is taken along ``directions`` equispaced angles; fewer than
    3 are rejected in either dimension.
    """
    if magnitudes is None:
        cap = control_cap(problem, grid)
        magnitudes = np.arange(0.0, cap + 0.25, 0.25)
    magnitudes = np.asarray(sorted(set(float(m) for m in magnitudes)))
    if magnitudes.size == 0 or magnitudes[0] != 0.0:
        raise ParameterError("control magnitudes must include 0")
    step = float(np.max(np.diff(magnitudes))) if magnitudes.size > 1 else 0.0
    pos = magnitudes[magnitudes > 0]
    if directions < 3:
        raise ParameterError(f"need at least 3 directions, got {directions}")
    if grid.dim == 1:
        vals = np.concatenate([-pos[::-1], [0.0], pos])[:, None]
    else:
        angles = np.linspace(0.0, 2 * np.pi, directions, endpoint=False)
        units = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        vals = np.concatenate([np.zeros((1, 2)), (pos[:, None, None] * units).reshape(-1, 2)])
    return ControlMesh(dim=grid.dim, controls=vals, magnitude_step=step)


@dataclass(frozen=True)
class LPData:
    """Assembled LP: the cost and the operator row of every variable, ordered
    control-major (``var = c * 2n + (k-1) * n + node``); ``stationarity`` is
    ``-operators.T``, the balance rows."""

    grid: Grid
    mesh: ControlMesh
    cost: np.ndarray
    operators: sp.csr_matrix      # (2n * n_controls, 2n)

    @property
    def n_vars(self) -> int:
        return self.cost.size

    @property
    def stationarity(self) -> sp.csc_matrix:   # (2n, 2n * n_controls)
        return -self.operators.T


@dataclass(frozen=True)
class OccupationMeasure:
    """Discrete measure on grid x control-mesh x state."""

    grid: Grid
    mesh: ControlMesh
    weights: np.ndarray           # (2, n_nodes, n_controls)
    mass: float
    stationarity_residual: float | None = None
    iterations: int | None = None         # policies evaluated by solve_lp
    optimality_gap: float | None = None   # max(0, -min reduced cost) at solve_lp's optimum

    def state_mass(self, k: int) -> float:
        return float(np.sum(self.weights[k - 1]))

    def to_dict(self) -> dict:
        return {"mass": self.mass, "stationarity_residual": self.stationarity_residual,
                "iterations": self.iterations, "optimality_gap": self.optimality_gap,
                "state_mass": {str(k): self.state_mass(k) for k in STATES}}


def _weights_to_flat(w: np.ndarray) -> np.ndarray:
    return w.transpose(2, 0, 1).reshape(-1)


def assemble_lp(problem: ProblemSpec, grid: Grid, mesh: ControlMesh) -> LPData:
    """Cost vector and operator rows for every mesh control.

    Block ``c`` is ``solver.frozen_system`` at the constant control ``c``, zero
    discount and the raw sources: the negated Markov generator of the frozen chain
    and the cost ``f + l``.  The columns of ``stationarity`` therefore express
    inflow-outflow balance at each (node, state) and annihilate constants.
    """
    shape = (2, grid.n_nodes, grid.dim)
    src = np.concatenate([problem.source(k)(grid.points) for k in STATES])
    systems = [frozen_system(problem, grid, src, np.broadcast_to(c, shape), 0.0)
               for c in mesh.controls]
    return LPData(grid=grid, mesh=mesh, cost=np.concatenate([rhs for _, rhs in systems]),
                  operators=sp.vstack([op for op, _ in systems], format="csr"))


def _check_irreducible(matrix: sp.csr_matrix, iteration: int) -> None:
    """Raise ``LPError`` when the chain of a policy's operator is reducible."""
    n_classes, _ = connected_components(matrix != 0, directed=True, connection="strong")
    if n_classes > 1:
        raise LPError(f"the chain of policy {iteration} is reducible ({n_classes} communicating "
                      "classes); a switching rate that vanishes on the whole grid leaves a "
                      "state no way out")


def solve_lp(lp: LPData):
    """Minimize the running cost over stationary unit-mass measures.

    Policy iteration on the LP's columns (Manne's duality; Puterman,
    ch. 8-9).  A policy holds one mesh control per (node, state) row, starting
    from the zero control.  Its operator ``A_pi`` is its rows of
    ``lp.operators``, and ``solver.policy_evaluation`` solves
    ``A_pi u + lam = cost_pi`` with ``u`` pinned at the origin in state 1.  One
    matvec prices every column, ``rc = cost - lam - A u``, and a row switches
    to its best column when that reduced cost is below
    ``-PRICING_TOL * (1 + |cost|)``.  With no switch left, the measure is the
    policy's stationary law, ``solver.stationary_law`` on the held factor.  It
    is feasible, and with ``(u, lam)`` and ``min rc >= -gap`` it certifies its
    cost as the LP optimum to within ``gap`` (``optimality_gap``).

    Returns ``(value, OccupationMeasure)``.  Raises ``LPError`` when a
    policy's chain is reducible, a policy evaluation fails, the iteration
    cap ``MAX_POLICY_ITERS`` is reached, or the measure misses the
    feasibility checks (mass 1, balance residual <= ``FEASIBILITY_TOL``).
    """
    n_rows = lp.operators.shape[1]
    rows = np.arange(n_rows)
    cost = lp.cost.reshape(lp.mesh.n_controls, n_rows)
    ref = lp.grid.origin_index
    policy = np.full(n_rows, int(np.argmin(np.linalg.norm(lp.mesh.controls, axis=-1))))
    for iteration in range(1, MAX_POLICY_ITERS + 1):
        cols = policy * n_rows + rows
        a_pi = lp.operators[cols]
        _check_irreducible(a_pi, iteration)
        # a fresh holder, so that the factor held at the end is the final policy's own
        factor = LUFactor()
        try:
            u, lam = policy_evaluation(a_pi, lp.cost[cols], ref, factor)
        except SolverError as exc:
            raise LPError(f"evaluation of policy {iteration} failed: {exc}") from exc
        rc = (lp.cost - lam - lp.operators @ u).reshape(cost.shape)
        best = np.argmin(rc, axis=0)
        switch = ((rc[best, rows] < -PRICING_TOL * (1.0 + np.abs(cost[best, rows])))
                  & (best != policy))
        if not switch.any():
            break
        policy = np.where(switch, best, policy)
    else:
        raise LPError(f"policy iteration did not settle in {MAX_POLICY_ITERS} policies")
    law = stationary_law(factor, ref)
    if not law.min() >= -FEASIBILITY_TOL:
        raise LPError(f"stationary law of the final policy has an entry {law.min():.3e} < 0")
    x = np.zeros(lp.n_vars)
    x[cols] = np.maximum(law, 0.0)
    residual = float(np.max(np.abs(lp.operators.T @ x)))   # the balance rows, up to sign
    mass = float(np.sum(x))
    if abs(mass - 1.0) > 1e-9 or residual > FEASIBILITY_TOL:
        raise LPError(f"optimizer violates feasibility: mass {mass!r}, residual {residual:.3e}")
    weights = x.reshape(lp.mesh.n_controls, 2, lp.grid.n_nodes).transpose(1, 2, 0)
    measure = OccupationMeasure(grid=lp.grid, mesh=lp.mesh, weights=weights,
                                mass=mass, stationarity_residual=residual,
                                iterations=iteration,
                                optimality_gap=max(0.0, -float(rc.min())))
    return float(lp.cost @ x), measure


def stationarity_residual(lp: LPData, measure: OccupationMeasure) -> float:
    """Sup-norm of the balance rows applied to an arbitrary measure (for
    checking externally constructed measures, e.g. simulation histograms)."""
    return float(np.max(np.abs(lp.stationarity @ _weights_to_flat(measure.weights))))
