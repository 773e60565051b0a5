"""Uniform tensor grids and the monotone upwind discretization.

The stacked operator acts on unknowns ordered state-major: the row of node
``i`` in state ``k`` is ``(k-1)*n_nodes + i``.  Each row encodes

    -(discrete Laplacian) u_k + xi_k . (upwind gradient) u_k
        + alpha_k (u_k - u_j) + discount * u_k

with a no-flux closure at the box faces: the missing diffusion neighbor is
reflected (doubled weight on the inner neighbor) and outward one-sided
advection pieces are dropped.

Advection is discretized by the central difference wherever that keeps the
off-diagonal entries nonpositive (``|xi_j| h <= 2``, which the control cap
guarantees on the grids of interest) and falls back to first-order
upwinding elsewhere: backward difference for ``xi_j > 0``, forward for
``xi_j < 0``.  Every off-diagonal entry is therefore nonpositive and every
row sums to exactly ``discount``, so the matrix is an M-matrix whenever
``discount > 0`` and obeys a discrete comparison principle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError

if TYPE_CHECKING:
    from .model import ProblemSpec


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the box [-radius, radius]^dim with the origin as a node."""

    dim: int
    radius: float
    h: float
    n_axis: int

    @property
    def n_nodes(self) -> int:
        return self.n_axis**self.dim

    @cached_property
    def axis_coords(self) -> np.ndarray:
        m = (self.n_axis - 1) // 2
        return (np.arange(self.n_axis) - m) * self.h

    @cached_property
    def points(self) -> np.ndarray:
        axes = np.meshgrid(*([self.axis_coords] * self.dim), indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=-1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_axis,) * self.dim

    @cached_property
    def origin_index(self) -> int:
        m = (self.n_axis - 1) // 2
        return int(np.ravel_multi_index((m,) * self.dim, self.shape))

    @cached_property
    def multi_indices(self) -> np.ndarray:
        return np.stack(np.unravel_index(np.arange(self.n_nodes), self.shape), axis=-1)

    @cached_property
    def interior_mask(self) -> np.ndarray:
        mi = self.multi_indices
        return np.all((mi > 0) & (mi < self.n_axis - 1), axis=-1)

    @property
    def boundary_mask(self) -> np.ndarray:
        return ~self.interior_mask

    def axis_stride(self, axis: int) -> int:
        return self.n_axis ** (self.dim - 1 - axis)

    def index_of(self, point) -> int:
        """Flat index of the node nearest to ``point``.

        Raises ``ParameterError`` when that node would lie outside the box,
        i.e. when ``point`` is more than half a cell beyond a face.
        """
        point = np.atleast_1d(np.asarray(point, dtype=float))
        m = (self.n_axis - 1) // 2
        idx = np.rint(point / self.h).astype(int) + m
        if np.any((idx < 0) | (idx >= self.n_axis)):
            raise ParameterError(
                f"point {point.tolist()} lies outside the box of half-width {self.radius}")
        return int(np.ravel_multi_index(tuple(idx), self.shape))

    def to_grid_shape(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values).reshape(self.shape)


def build_grid(dim: int, radius: float, h: float) -> Grid:
    if dim not in (1, 2):
        raise ParameterError(f"dimension must be 1 or 2, got {dim}")
    if radius <= 0 or h <= 0:
        raise ParameterError("radius and spacing must be positive")
    ratio = radius / h
    if abs(ratio - round(ratio)) > 1e-9:
        raise ParameterError(f"spacing {h} does not divide half-width {radius}")
    n_axis = 2 * int(round(ratio)) + 1
    return Grid(dim=dim, radius=float(radius), h=float(h), n_axis=n_axis)


def gradient_central(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Central differences in the interior, second-order one-sided at the faces.

    Exact for affine fields everywhere and for quadratics on interior nodes.
    Returns shape ``(n_nodes, dim)``.
    """
    v = grid.to_grid_shape(values)
    h = grid.h
    out = np.empty(v.shape + (grid.dim,))
    for axis in range(grid.dim):
        g = np.empty_like(v)
        lo = [slice(None)] * grid.dim

        def sl(idx):
            s = list(lo)
            s[axis] = idx
            return tuple(s)

        g[sl(slice(1, -1))] = (v[sl(slice(2, None))] - v[sl(slice(None, -2))]) / (2 * h)
        g[sl(0)] = (-3 * v[sl(0)] + 4 * v[sl(1)] - v[sl(2)]) / (2 * h)
        g[sl(-1)] = (3 * v[sl(-1)] - 4 * v[sl(-2)] + v[sl(-3)]) / (2 * h)
        out[..., axis] = g
    return out.reshape(grid.n_nodes, grid.dim)


@dataclass(frozen=True)
class ControlFieldPair:
    """Feedback vector fields, one per switching state; shape (2, n_nodes, dim)."""

    values: np.ndarray
    duality_residual: float = 0.0

    def state(self, k: int) -> np.ndarray:
        return self.values[k - 1]

    @staticmethod
    def zeros(grid: Grid) -> "ControlFieldPair":
        return ControlFieldPair(np.zeros((2, grid.n_nodes, grid.dim)))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Assembled sparse operator together with the data used to build it."""

    matrix: sp.csr_matrix
    grid: Grid
    discount: float

    def m_matrix_violations(self) -> dict:
        """Scan for sign-structure defects; all counts are zero for a valid assembly."""
        coo = self.matrix.tocoo()
        off = coo.row != coo.col
        bad_off = int(np.sum(coo.data[off] > 1e-14))
        diag = self.matrix.diagonal()
        bad_diag = int(np.sum(diag <= 0.0))
        row_sums = np.asarray(self.matrix.sum(axis=1)).ravel()
        bad_dom = int(np.sum(row_sums < -1e-10 * (1.0 + np.abs(diag))))
        return {"positive_offdiag": bad_off, "nonpositive_diag": bad_diag,
                "dominance_failures": bad_dom}

    def is_m_matrix(self) -> bool:
        return all(v == 0 for v in self.m_matrix_violations().values())


def _state_block_triplets(grid: Grid, xi: np.ndarray):
    """COO triplets (row, col, val) of -Laplacian + monotone advection on one state block."""
    m = grid.n_nodes
    h = grid.h
    mi = grid.multi_indices
    rows, cols, vals = [], [], []
    diag = np.zeros(m)
    idx = np.arange(m)
    for axis in range(grid.dim):
        stride = grid.axis_stride(axis)
        has_left = mi[:, axis] > 0
        has_right = mi[:, axis] < grid.n_axis - 1
        both = has_left & has_right
        v = xi[:, axis]
        # central advection keeps -1/h^2 +- v/(2h) nonpositive iff |v| h <= 2
        central = both & (np.abs(v) * h <= 2.0 * (1.0 - 1e-12))
        # diffusion: interior couples both sides, faces reflect into the inner neighbor
        diag += 2.0 / h**2
        w_left = np.where(has_right, 1.0, 2.0) / h**2
        w_right = np.where(has_left, 1.0, 2.0) / h**2
        # advection xi_j d/dx_j, upwind branch: backward difference for xi_j > 0,
        # forward for xi_j < 0; pieces pointing out of the box are dropped (no-flux)
        ap = np.where(has_left & ~central, np.maximum(v, 0.0), 0.0)
        am = np.where(has_right & ~central, np.maximum(-v, 0.0), 0.0)
        diag += (ap + am) / h
        c_left = w_left + ap / h + np.where(central, v / (2.0 * h), 0.0)
        c_right = w_right + am / h - np.where(central, v / (2.0 * h), 0.0)
        rows.append(idx[has_left])
        cols.append(idx[has_left] - stride)
        vals.append(-c_left[has_left])
        rows.append(idx[has_right])
        cols.append(idx[has_right] + stride)
        vals.append(-c_right[has_right])
    rows.append(idx)
    cols.append(idx)
    vals.append(diag)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def assemble_generator(grid: Grid, problem: "ProblemSpec", controls: ControlFieldPair,
                       discount: float) -> GeneratorMatrix:
    """Assemble the stacked two-state operator for a frozen feedback control."""
    if discount < 0:
        raise ParameterError("discount must be nonnegative")
    m = grid.n_nodes
    pts = grid.points
    idx = np.arange(m)
    rows, cols, vals = [], [], []
    for k in (1, 2):
        off = (k - 1) * m
        off_other = (2 - k) * m
        r, c, v = _state_block_triplets(grid, np.asarray(controls.state(k)))
        rows.append(r + off)
        cols.append(c + off)
        vals.append(v)
        alpha = problem.switch_rate(k)(pts)
        rows.append(idx + off)
        cols.append(idx + off)
        vals.append(alpha + discount)
        rows.append(idx + off)
        cols.append(idx + off_other)
        vals.append(-alpha)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * m, 2 * m),
    ).tocsr()
    return GeneratorMatrix(matrix=mat, grid=grid, discount=float(discount))


def transition_generator(grid: Grid, problem: "ProblemSpec", controls: ControlFieldPair) -> sp.csr_matrix:
    """Markov-generator form (Laplacian + drift -xi + switching): nonnegative
    off-diagonal rates, zero row sums.  This is the negation of
    :func:`assemble_generator` at zero discount."""
    return -assemble_generator(grid, problem, controls, 0.0).matrix


def control_cap(problem: "ProblemSpec", grid: Grid) -> float:
    """Norm cap for feedback controls during policy iteration.

    Uses the a-priori gradient envelope (unit constant) evaluated from the
    sources on the box, mapped through the Hamiltonian gradient growth, with
    a safety factor of 2.  The true optimal control is bounded on compacts,
    so any cap above that bound is inert at the solution.
    """
    pts = grid.points
    total = 1.0
    for k in (1, 2):
        f = problem.source(k)(pts)
        gf = problem.source(k).gradient(pts)
        gamma = problem.hamiltonian.gamma(k)
        total += np.max(np.maximum(f, 0.0) ** 2)
        total += np.max(np.sum(gf * gf, axis=-1) ** (gamma / (2 * gamma - 1)))
    cap = 0.0
    for k in (1, 2):
        gamma = problem.hamiltonian.gamma(k)
        grad_scale = total ** ((gamma - 1) / (2 * gamma))
        lam_max = problem.hamiltonian.metric(k).eig_bounds()[1]
        b = problem.hamiltonian.drift(k)(pts)
        b_max = float(np.max(np.linalg.norm(b, axis=-1))) if b.size else 0.0
        cap = max(cap, lam_max ** (gamma / 2.0) * grad_scale + b_max)
    return 2.0 * cap


def fields_to_csv(grid: Grid, fields: dict[str, np.ndarray], path) -> None:
    """Write node-indexed scalar fields as CSV: coordinates, state, one column per field.

    Each field is either shape (n_nodes,) (written for state 0 = shared) or
    (2, n_nodes) (written per state).
    """
    import csv

    names = list(fields)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j+1}" for j in range(grid.dim)] + ["state"] + names)
        for k in (1, 2):
            for i in range(grid.n_nodes):
                row = [f"{c!r}" for c in grid.points[i]] + [k]
                for name in names:
                    arr = np.asarray(fields[name])
                    val = arr[k - 1, i] if arr.ndim == 2 else arr[i]
                    row.append(repr(float(val)))
                writer.writerow(row)
