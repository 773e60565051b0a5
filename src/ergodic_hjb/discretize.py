"""Uniform tensor grids and the monotone upwind discretization.

The stacked operator acts on unknowns ordered state-major: the row of node
``i`` in state ``k`` is ``(k-1)*n_nodes + i``.  Each row encodes

    -(discrete Laplacian) u_k + xi_k . (upwind gradient) u_k
        + alpha_k (u_k - u_j) + discount * u_k

with a no-flux closure at the box faces: the missing diffusion neighbor is
reflected (doubled weight on the inner neighbor) and outward one-sided
advection pieces are dropped.  The operator is banded in the stacked
unknowns (the diagonal, +-stride of each axis, and the switching coupling at
+-n_nodes), and ``assemble_generator`` builds it from those diagonals.

Advection is discretized by the central difference wherever that keeps the
off-diagonal entries nonpositive (``|xi_j| h <= 2``, which the control cap
guarantees on the grids of interest) and falls back to first-order
upwinding elsewhere: backward difference for ``xi_j > 0``, forward for
``xi_j < 0``.  Every off-diagonal entry is therefore nonpositive and every
row sums to exactly ``discount``, so the matrix is an M-matrix whenever
``discount > 0`` and obeys a discrete comparison principle.

Feedback fields pass between modules as plain ``(2, n_nodes, dim)`` arrays
or as a ``FeedbackControl``, which holds such an array on its grid and
interpolates it multilinearly at arbitrary points.
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
    if not (0 < radius < np.inf and 0 < h < np.inf):
        raise ParameterError("radius and spacing must be finite and positive")
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


def _corner_table(grid: Grid, component: np.ndarray) -> np.ndarray:
    """Read-only corner table of one two-state node field component.

    Row ``(s*n + i)*n + j`` (``s*n + i`` in 1D) holds the values at the corners
    of the cell whose lower corner is node ``(i, j)`` in state ``s + 1``, in
    the order ``(i, j), (i+1, j), (i, j+1), (i+1, j+1)``: shape ``(2n, 2)`` in
    1D and ``(2n^2, 4)`` in 2D.  Rows of the last node along an axis, which no
    cell starts from, repeat its edge value.
    """
    v = np.pad(component.reshape((2, *grid.shape)), [(0, 0)] + [(0, 1)] * grid.dim,
               mode="edge")
    if grid.dim == 1:
        corners = (v[:, :-1], v[:, 1:])
    else:
        corners = (v[:, :-1, :-1], v[:, 1:, :-1], v[:, :-1, 1:], v[:, 1:, 1:])
    table = np.stack([c.reshape(-1) for c in corners], axis=-1)
    table.flags.writeable = False
    return table


def _bilinear(grid: Grid, tables: tuple[np.ndarray, ...], pts: np.ndarray,
              k: int | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Multilinear interpolation of a two-state node field at arbitrary points.

    ``tables`` holds one ``_corner_table`` per field component; ``k`` is one
    state for every point or an array of one state per point.  Each point's
    cell corners are fetched with one row gather per component and weighted
    as whole ``(points,)`` columns, term by term in the order of the
    multilinear formula, into the columns of the result (``out`` when given).
    """
    h, r, n = grid.h, grid.radius, grid.n_axis
    rel = pts + r
    rel /= h
    np.maximum(rel, 0.0, out=rel)
    np.minimum(rel, n - 1.0, out=rel)
    lo = np.floor(rel)
    np.minimum(lo, n - 2.0, out=lo)
    frac = np.subtract(rel, lo, out=rel)
    fx = frac[:, 0]
    gx = 1 - fx
    if grid.dim == 1:
        row = lo[:, 0].astype(np.intp)
    else:
        fy = frac[:, 1]
        gy = 1 - fy
        row = (lo[:, 0] * n + lo[:, 1]).astype(np.intp)   # exact in float
    row += (np.asarray(k) - 1) * n**grid.dim
    if out is None:
        out = np.empty((pts.shape[0], len(tables)))
    for col, table in zip(out.T, tables):
        c = table.take(row, axis=0)
        if grid.dim == 1:
            np.multiply(c[:, 0], gx, out=col)
            col += c[:, 1] * fx
        else:
            np.multiply(c[:, 0] * gx, gy, out=col)
            col += c[:, 1] * fx * gy
            col += c[:, 2] * gx * fy
            col += c[:, 3] * fx * fy
    return out


@dataclass(frozen=True)
class FeedbackControl:
    """Feedback field evaluated at arbitrary points: grid-interpolated or analytic.

    ``kind`` is one of ``grid`` (multilinear interpolation of a stored node
    field, exact at the nodes and extended by its face values outside the
    box), ``zero``, or ``linear`` (xi(x) = c x).  ``radius`` bounds the box
    on which paths are considered valid.  A call's state ``k`` is one state
    for all points or an array of one per point, and ``out``, when given, is
    the array of ``x``'s shape that receives the values (and is returned).
    ``duality_residual`` is the extraction defect of a solved feedback (0 for
    any other field).
    """

    kind: str
    radius: float
    grid: Grid | None = None
    values: np.ndarray | None = None     # (2, n_nodes, dim) for kind == "grid"
    coefficient: float = 0.0
    duality_residual: float = 0.0

    @cached_property
    def tables(self) -> tuple[np.ndarray, ...]:
        """One read-only ``_corner_table`` per component of ``values``, built on first use.

        ``_bilinear`` fetches a point's cell corners from each with one row
        gather: ``(2n, 2)`` in 1D, ``(2n^2, 4)`` in 2D.
        """
        return tuple(_corner_table(self.grid, self.values[:, :, c])
                     for c in range(self.values.shape[-1]))

    @staticmethod
    def from_fields(grid: Grid, values: np.ndarray,
                    duality_residual: float = 0.0) -> "FeedbackControl":
        return FeedbackControl(kind="grid", radius=grid.radius, grid=grid,
                               values=np.asarray(values, dtype=float),
                               duality_residual=duality_residual)

    @staticmethod
    def zero(radius: float) -> "FeedbackControl":
        return FeedbackControl(kind="zero", radius=radius)

    @staticmethod
    def linear(radius: float, coefficient: float) -> "FeedbackControl":
        if not np.isfinite(coefficient):
            raise ParameterError(f"linear control coefficient must be finite, got {coefficient}")
        return FeedbackControl(kind="linear", radius=radius, coefficient=coefficient)

    def __call__(self, x: np.ndarray, k: int | np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            if out is None:
                return np.zeros_like(x)
            out.fill(0.0)
            return out
        if self.kind == "linear":
            return np.multiply(self.coefficient, x, out=out)
        return _bilinear(self.grid, self.tables, x, k, out)


def assemble_generator(grid: Grid, problem: "ProblemSpec", xi: np.ndarray,
                       discount: float) -> sp.csr_matrix:
    """Assemble the stacked two-state operator for a frozen feedback field
    ``xi`` of shape (2, n_nodes, dim).

    Each band is computed per row on the stacked vector of ``2 * n_nodes``
    unknowns; a band entry that points past a face is zero and is not stored.

    At zero discount its negation is the Markov generator of the controlled
    chain (drift -xi, nonnegative off-diagonal rates, zero row sums).
    """
    if discount < 0:
        raise ParameterError("discount must be nonnegative")
    m, h = grid.n_nodes, grid.h
    mi = np.concatenate([grid.multi_indices] * 2)
    xi = np.asarray(xi).reshape(2 * m, grid.dim)
    alpha = np.concatenate([problem.switch_rate(k)(grid.points) for k in (1, 2)])
    diag = np.zeros(2 * m)
    bands, offsets = [], []
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
        # band -stride holds row i's entry at position i - stride, band +stride at i
        bands += [np.where(has_left, -c_left, 0.0)[stride:],
                  np.where(has_right, -c_right, 0.0)[:-stride]]
        offsets += [-stride, stride]
    # state 1 couples forward to state 2, state 2 back to state 1
    bands += [diag + (alpha + discount), -alpha[:m], -alpha[m:]]
    offsets += [0, m, -m]
    return sp.diags(bands, offsets, shape=(2 * m, 2 * m), format="csr")


def source_envelope(problem: "ProblemSpec", points: np.ndarray) -> float:
    """A-priori source envelope ``1 + sum_k max f_k+^2 + max |grad f_k|^(2g/(2g-1))``.

    The maxima run over ``points``; ``g`` is the growth exponent of state k.
    """
    total = 1.0
    for k in (1, 2):
        f = problem.source(k)(points)
        gf = problem.source(k).gradient(points)
        gamma = problem.hamiltonian.gamma(k)
        total += np.max(np.maximum(f, 0.0) ** 2)
        total += np.max(np.sum(gf * gf, axis=-1) ** (gamma / (2 * gamma - 1)))
    return float(total)


def control_cap(problem: "ProblemSpec", grid: Grid) -> float:
    """Norm cap for feedback controls during policy iteration.

    Uses the a-priori gradient envelope (unit constant) evaluated from the
    sources on the box, mapped through the Hamiltonian gradient growth, with
    a safety factor of 2.  The true optimal control is bounded on compacts,
    so any cap above that bound is inert at the solution.
    """
    total = source_envelope(problem, grid.points)
    cap = 0.0
    for k in (1, 2):
        gamma = problem.hamiltonian.gamma(k)
        grad_scale = total ** ((gamma - 1) / (2 * gamma))
        lam_max = problem.hamiltonian.metric(k).eig_bounds()[1]
        b_max = float(np.linalg.norm(problem.hamiltonian.drift(k).b, axis=-1))
        cap = max(cap, lam_max ** (gamma / 2.0) * grad_scale + b_max)
    return 2.0 * cap

