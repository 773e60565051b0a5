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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .discretize import Grid, assemble_generator, control_cap
from .errors import LPError, ParameterError
from .model import ProblemSpec, STATES


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
    """Assembled LP: cost vector, stationarity rows, unit-mass row.

    Variables are ordered control-major: ``var = c * 2n + (k-1) * n + node``.
    """

    grid: Grid
    mesh: ControlMesh
    cost: np.ndarray
    stationarity: sp.csr_matrix   # (2n, 2n * n_controls)
    n_nodes: int

    @property
    def n_vars(self) -> int:
        return self.cost.size


@dataclass(frozen=True)
class OccupationMeasure:
    """Discrete measure on grid x control-mesh x state."""

    grid: Grid
    mesh: ControlMesh
    weights: np.ndarray           # (2, n_nodes, n_controls)
    mass: float
    stationarity_residual: float | None = None

    def state_mass(self, k: int) -> float:
        return float(np.sum(self.weights[k - 1]))

    def to_dict(self) -> dict:
        return {"mass": self.mass, "stationarity_residual": self.stationarity_residual,
                "state_mass": {str(k): self.state_mass(k) for k in STATES}}


def _flat_to_weights(x: np.ndarray, n: int, n_controls: int) -> np.ndarray:
    return x.reshape(n_controls, 2, n).transpose(1, 2, 0)


def _weights_to_flat(w: np.ndarray) -> np.ndarray:
    return w.transpose(2, 0, 1).reshape(-1)


def assemble_lp(problem: ProblemSpec, grid: Grid, mesh: ControlMesh) -> LPData:
    """Cost vector and stationarity block for every mesh control.

    Column block ``c`` of the stationarity matrix is the transpose of the
    Markov generator run at the frozen control ``c`` (the negated solver
    operator at zero discount); rows therefore express inflow-outflow balance
    at each (node, state) and annihilate constants by construction.
    """
    n = grid.n_nodes
    pts = grid.points
    blocks = []
    costs = []
    f = np.stack([problem.source(k)(pts) for k in STATES])
    for c in range(mesh.n_controls):
        xi = np.broadcast_to(mesh.controls[c], (n, grid.dim))
        blocks.append((-assemble_generator(grid, problem, np.stack([xi, xi]), 0.0)).T)
        lag = np.stack([problem.hamiltonian.lagrangian(k, pts, xi) for k in STATES])
        costs.append((f + lag).ravel())
    return LPData(grid=grid, mesh=mesh, cost=np.concatenate(costs),
                  stationarity=sp.hstack(blocks, format="csr"), n_nodes=n)


def solve_lp(lp: LPData, feasibility_tol: float = 1e-8):
    """Minimize the running cost over stationary unit-mass measures.

    Returns ``(value, OccupationMeasure)``.  Raises ``LPError`` when the
    program is infeasible (enlarge the mesh or the box) or unbounded (the
    running cost is not coercive: modeling error).
    """
    n_rows = lp.stationarity.shape[0]
    a_eq = sp.vstack([lp.stationarity, np.ones((1, lp.n_vars))], format="csr")
    b_eq = np.concatenate([np.zeros(n_rows), [1.0]])
    res = linprog(lp.cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        raise LPError("stationarity program infeasible; enlarge the control mesh or the box")
    if res.status == 3:
        raise LPError("stationarity program unbounded; running cost fails coercivity")
    if not res.success:
        raise LPError(f"LP solver failed: {res.message}")
    x = np.asarray(res.x)
    residual = float(np.max(np.abs(lp.stationarity @ x)))
    mass = float(np.sum(x))
    if abs(mass - 1.0) > 1e-9 or residual > feasibility_tol:
        raise LPError(f"optimizer violates feasibility: mass {mass!r}, residual {residual:.3e}")
    measure = OccupationMeasure(grid=lp.grid, mesh=lp.mesh,
                                weights=_flat_to_weights(x, lp.n_nodes, lp.mesh.n_controls),
                                mass=mass, stationarity_residual=residual)
    return float(res.fun), measure


def measure_cost(lp: LPData, measure: OccupationMeasure) -> float:
    return float(lp.cost @ _weights_to_flat(measure.weights))


def stationarity_residual(lp: LPData, measure: OccupationMeasure) -> float:
    """Sup-norm of the balance rows applied to an arbitrary measure (for
    checking externally constructed measures, e.g. simulation histograms)."""
    return float(np.max(np.abs(lp.stationarity @ _weights_to_flat(measure.weights))))
