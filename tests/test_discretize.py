import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from ergodic_hjb import fields
from ergodic_hjb.discretize import (
    FeedbackControl,
    _bilinear,
    assemble_generator,
    build_grid,
    control_cap,
    gradient_central,
)
from ergodic_hjb.errors import ParameterError
from ergodic_hjb.model import ProblemSpec
from tests.conftest import make_problem


def test_build_grid_1d():
    g = build_grid(1, 1.0, 0.5)
    assert g.n_nodes == 5
    assert np.allclose(g.points[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.points[g.origin_index, 0] == 0.0


def test_build_grid_2d():
    g = build_grid(2, 1.0, 1.0)
    assert g.n_nodes == 9
    big = build_grid(2, 6.0, 0.05)
    assert big.n_axis == 241
    assert np.unravel_index(big.origin_index, big.shape) == (120, 120)
    assert np.allclose(big.points[big.origin_index], 0.0)


def test_build_grid_rejects_nondividing_spacing():
    with pytest.raises(ParameterError):
        build_grid(1, 1.0, 0.3)
    with pytest.raises(ParameterError):
        build_grid(3, 1.0, 0.5)


def test_index_of_rejects_points_off_the_box():
    g = build_grid(2, 1.0, 0.5)
    assert g.index_of([0.0, 0.0]) == g.origin_index
    # within half a cell of a face the nearest node is the wall node
    assert np.allclose(g.points[g.index_of([1.2, -1.2])], [1.0, -1.0])
    with pytest.raises(ParameterError, match="outside the box"):
        g.index_of([0.0, 1.3])
    with pytest.raises(ParameterError, match="outside the box"):
        g.index_of([-7.0, 0.0])


def test_interior_classification():
    g = build_grid(2, 1.0, 0.5)
    assert g.interior_mask.sum() == 9
    assert (~g.interior_mask).sum() == 16


def test_gradient_exact_for_affine():
    g = build_grid(1, 2.0, 0.1)
    grad = gradient_central(g, g.points[:, 0])
    assert np.allclose(grad, 1.0)


def test_gradient_exact_for_quadratic_interior():
    g = build_grid(1, 2.0, 0.1)
    grad = gradient_central(g, g.points[:, 0] ** 2)
    node = g.index_of([1.0])
    assert grad[node, 0] == pytest.approx(2.0)
    assert np.allclose(grad[:, 0], 2.0 * g.points[:, 0], atol=1e-12)


def test_gradient_second_order_on_sine():
    g = build_grid(1, 2.0, 0.01)
    x = g.points[:, 0]
    grad = gradient_central(g, np.sin(x))
    err = np.abs(grad[:, 0] - np.cos(x))[g.interior_mask]
    assert err.max() <= 2e-5


def test_gradient_2d_mixed_field():
    g = build_grid(2, 1.0, 0.05)
    x, y = g.points[:, 0], g.points[:, 1]
    grad = gradient_central(g, x**2 + 3.0 * y)
    assert np.allclose(grad[:, 0], 2.0 * x, atol=1e-10)
    assert np.allclose(grad[:, 1], 3.0, atol=1e-10)


def test_generator_interior_stencil_matches_standard_laplacian():
    problem = make_problem(alphas=(0.0, 0.0), sources=None)
    # alpha = 0 is outside the standing assumptions but isolates the stencil
    g = build_grid(1, 1.0, 0.5)
    gen = assemble_generator(g, problem, np.zeros((2, g.n_nodes, g.dim)), discount=1.0)
    row = gen.getrow(2).toarray().ravel()
    h2 = 1.0 / 0.5**2
    assert row[1] == pytest.approx(-h2)
    assert row[3] == pytest.approx(-h2)
    assert row[2] == pytest.approx(2 * h2 + 1.0)


def test_generator_coupling_and_row_sums():
    problem = make_problem()
    g = build_grid(1, 2.0, 0.25)
    eps = 0.375
    gen = assemble_generator(g, problem, np.zeros((2, g.n_nodes, g.dim)), discount=eps)
    m = g.n_nodes
    node = g.origin_index
    row = gen.getrow(node).toarray().ravel()
    assert row[node + m] == pytest.approx(-1.0)
    sums = np.asarray(gen.sum(axis=1)).ravel()
    assert np.allclose(sums, eps)


def m_matrix_violations(matrix) -> dict:
    """Scan an assembled operator for sign-structure defects; all counts are
    zero for a valid assembly."""
    coo = matrix.tocoo()
    off = coo.row != coo.col
    bad_off = int(np.sum(coo.data[off] > 1e-14))
    diag = matrix.diagonal()
    bad_diag = int(np.sum(diag <= 0.0))
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    bad_dom = int(np.sum(row_sums < -1e-10 * (1.0 + np.abs(diag))))
    return {"positive_offdiag": bad_off, "nonpositive_diag": bad_diag,
            "dominance_failures": bad_dom}


def test_generator_m_matrix_scan(rng):
    problem = make_problem(dim=2, alphas=(0.7, 1.3))
    g = build_grid(2, 1.0, 0.25)
    xi = rng.uniform(-3.0, 3.0, size=(2, g.n_nodes, 2))
    gen = assemble_generator(g, problem, xi, discount=0.1)
    assert m_matrix_violations(gen) == {
        "positive_offdiag": 0, "nonpositive_diag": 0, "dominance_failures": 0}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([1, 2]), h=st.sampled_from([0.1, 0.25, 0.5]),
       cells=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       discount=st.floats(0.0, 2.0),
       weights=st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
       c0=st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)))
def test_generator_m_matrix_property(dim, h, cells, seed, discount, weights, c0):
    # random controls spanning 1e-2..1e3 in magnitude, x-dependent switching rates
    rng = np.random.default_rng(seed)
    base = make_problem(dim=dim)
    rates = tuple(fields.quadratic(dim, weights=weights[2 * k:2 * k + dim], c0=c0[k])
                  for k in range(2))
    problem = ProblemSpec(dimension=dim, hamiltonian=base.hamiltonian,
                          switch_rates=rates, sources=base.sources)
    g = build_grid(dim, cells * h, h)
    direction = rng.normal(size=(2, g.n_nodes, dim))
    direction /= np.maximum(np.linalg.norm(direction, axis=-1, keepdims=True), 1e-300)
    xi = direction * 10.0 ** rng.uniform(-2.0, 3.0, size=(2, g.n_nodes, 1))
    gen = assemble_generator(g, problem, xi, discount)
    assert m_matrix_violations(gen) == {
        "positive_offdiag": 0, "nonpositive_diag": 0, "dominance_failures": 0}


@pytest.mark.parametrize("dim", [1, 2])
def test_feedback_extends_to_larger_box(dim):
    # the nested-domain warm start: a field on a small box read on a larger one
    small, big = build_grid(dim, 1.0, 0.25), build_grid(dim, 2.0, 0.25)
    v = np.random.default_rng(3).normal(size=(2, small.n_nodes, dim))
    feedback = FeedbackControl.from_fields(small, v)
    # shared nodes keep their values; outside the small box each point takes
    # the value at its projection onto the box, a face node of the same spacing
    nearest = [small.index_of(p) for p in np.clip(big.points, -1.0, 1.0)]
    for k in (1, 2):
        got = feedback(big.points, k)
        assert np.max(np.abs(got - v[k - 1][nearest])) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("dim", [1, 2])
def test_feedback_reproduces_affine_on_finer_grid(dim):
    coarse, fine = build_grid(dim, 1.0, 0.25), build_grid(dim, 1.0, 0.05)
    rng = np.random.default_rng(4)
    slopes, offsets = rng.normal(size=(2, dim, dim)), rng.normal(size=(2, dim))
    affine = [lambda x, k=k: x @ slopes[k].T + offsets[k] for k in range(2)]
    feedback = FeedbackControl.from_fields(coarse, np.stack([f(coarse.points) for f in affine]))
    for k in (1, 2):
        exact = affine[k - 1](fine.points)
        err = np.max(np.abs(feedback(fine.points, k) - exact))
        assert err <= 1e-13 * (1 + np.max(np.abs(exact)))


def test_generator_consistency_smooth_function():
    problem = make_problem(dim=1, alphas=(1.0, 2.0))
    g = build_grid(1, 2.0, 0.01)
    x = g.points[:, 0]
    u1, u2 = np.sin(x), np.cos(x)
    stacked = np.concatenate([u1, u2])
    eps = 0.5

    # zero control: second-order agreement with -u'' + alpha (u_k - u_j) + eps u
    gen0 = assemble_generator(g, problem, np.zeros((2, g.n_nodes, g.dim)), discount=eps)
    exact1 = np.sin(x) + 1.0 * (u1 - u2) + eps * u1
    got = (gen0 @ stacked)[: g.n_nodes]
    interior = g.interior_mask
    assert np.max(np.abs(got - exact1)[interior]) < 5e-4  # O(h^2) at h=0.01

    # constant control: first-order upwind agreement with + xi . grad u term
    xi = np.full((2, g.n_nodes, 1), 0.8)
    gen = assemble_generator(g, problem, xi, discount=eps)
    exact1 = np.sin(x) + 0.8 * np.cos(x) + 1.0 * (u1 - u2) + eps * u1
    got = (gen @ stacked)[: g.n_nodes]
    assert np.max(np.abs(got - exact1)[interior]) < 0.8 * 0.01 * 1.1  # O(h)


def test_discrete_comparison_via_ordered_rhs(rng):
    problem = make_problem(dim=1)
    g = build_grid(1, 2.0, 0.1)
    xi = rng.uniform(-2.0, 2.0, size=(2, g.n_nodes, 1))
    gen = assemble_generator(g, problem, xi, discount=0.7)
    rhs_low = rng.uniform(0.0, 1.0, size=2 * g.n_nodes)
    rhs_high = rhs_low + rng.uniform(0.0, 1.0, size=2 * g.n_nodes)
    u = spsolve(gen.tocsc(), rhs_low)
    v = spsolve(gen.tocsc(), rhs_high)
    assert np.all(v >= u - 1e-12)


def test_transition_generator_kills_constants():
    problem = make_problem(dim=2, alphas=(0.5, 2.0))
    g = build_grid(2, 1.0, 0.25)
    xi = np.random.default_rng(1).uniform(-2, 2, size=(2, g.n_nodes, 2))
    q = -assemble_generator(g, problem, xi, 0.0)
    ones = np.ones(2 * g.n_nodes)
    assert np.max(np.abs(q @ ones)) < 1e-10
    off = q.tocoo()
    mask = off.row != off.col
    assert np.all(off.data[mask] >= -1e-14)


# sha256 of a generator's CSR indptr, indices and data bytes as the earlier COO
# triplet assembly gave them, which the banded assembly keeps bit for bit; every
# rate is nonzero, since a zero rate's coupling entry is not stored
GENERATOR_SHA256 = {
    "1d-constant-eps0":
        "e2880d63728cbe2cd96f61bf2ef86e3efc7b59693349f0dd68623b55f3d8886c",
    "1d-quadratic-eps":
        "61853c027799b2d2ba0bcb0736ac5063e82e72095502b8f38ad607345cf8d2da",
    "2d-constant-eps":
        "42646fa26a6c7668841747d7961c8b5186c3d053f22b803fa79909e3348ea3d3",
    "2d-quadratic-eps0":
        "bab23c4ff20f4c38a30dd68bf379a5d2fdf0be60b8ab7aa1ba4ab4ecaecf91ef",
}


@pytest.mark.parametrize("case", sorted(GENERATOR_SHA256))
def test_generator_csr_bits_pinned(case):
    dim, rates, discount = int(case[0]), case.split("-")[1], 0.1 if case.endswith("eps") else 0.0
    base = make_problem(dim=dim, alphas=(0.7, 1.3))
    if rates == "quadratic":
        base = ProblemSpec(dimension=dim, hamiltonian=base.hamiltonian, sources=base.sources,
                           switch_rates=(fields.quadratic(dim, weights=(0.5,) * dim, c0=0.25),
                                         fields.quadratic(dim, weights=(2.0,) * dim, c0=1.5)))
    g = build_grid(dim, 2.0, 0.25)
    x = g.points
    grow = 1.0 + np.sum(x * x, axis=-1, keepdims=True)
    xi = np.stack([3.0 * x * grow, -2.0 * x[:, ::-1] * grow])
    # |xi_j| h = 2 exactly, just past the central branch's bound 2 (1 - 1e-12)
    xi[:, g.index_of(np.full(dim, 0.5)), 0] = [8.0, -8.0]
    # both branches of the advection rule: central where |xi_j| h <= 2, upwind elsewhere
    speed = np.abs(xi) * g.h
    assert np.any(speed < 2.0) and np.any(speed > 2.0)
    gen = assemble_generator(g, base, xi, discount)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (gen.indptr, gen.indices, gen.data)))
    assert digest.hexdigest() == GENERATOR_SHA256[case]


def test_control_cap_exceeds_benchmark_optimum(quadratic_1d):
    g = build_grid(1, 6.0, 0.1)
    cap = control_cap(quadratic_1d, g)
    assert cap > np.sqrt(2.0) * 6.0


def _broadcast_bilinear(grid, values, pts, k):
    """The multilinear interpolation written as one broadcast over (points, components)."""
    rel = np.clip((pts + grid.radius) / grid.h, 0.0, grid.n_axis - 1.0)
    lo = np.minimum(rel.astype(int), grid.n_axis - 2)
    frac = rel - lo
    v = values.reshape((2, *grid.shape, values.shape[-1]))
    s = np.asarray(k) - 1
    if grid.dim == 1:
        i, fx = lo[:, 0], frac[:, :1]
        return v[s, i] * (1 - fx) + v[s, i + 1] * fx
    i, j = lo[:, 0], lo[:, 1]
    fx, fy = frac[:, :1], frac[:, 1:]
    return (v[s, i, j] * (1 - fx) * (1 - fy) + v[s, i + 1, j] * fx * (1 - fy)
            + v[s, i, j + 1] * (1 - fx) * fy + v[s, i + 1, j + 1] * fx * fy)


@pytest.mark.parametrize("dim", [1, 2])
def test_bilinear_bit_identical_to_broadcast(dim):
    rng = np.random.default_rng(40 + dim)
    grid = build_grid(dim, 2.0, 0.25)
    values = rng.normal(size=(2, grid.n_nodes, dim))
    ctrl = FeedbackControl.from_fields(grid, values)
    # points up to a cell and a half beyond every face, plus the faces themselves
    pts = np.concatenate([rng.uniform(-2.4, 2.4, size=(500, dim)),
                          np.full((1, dim), 2.0), np.full((1, dim), -2.0)])
    states = rng.integers(1, 3, size=pts.shape[0])
    for k in (1, 2, states):
        got = _bilinear(grid, ctrl.tables, pts, k)
        assert np.array_equal(got, _broadcast_bilinear(grid, values, pts, k))
        assert np.array_equal(ctrl(pts, k), got)


@pytest.mark.parametrize("dim", [1, 2])
def test_bilinear_bit_identical_on_nodes_and_edges(dim):
    # interior nodes, the last cell's lower and upper edge (rel = n - 2 and n - 1,
    # where the cell index is capped) and -0.0, against the broadcast form by bytes
    rng = np.random.default_rng(50 + dim)
    grid = build_grid(dim, 2.0, 0.25)
    values = rng.normal(size=(2, grid.n_nodes, dim))
    ctrl = FeedbackControl.from_fields(grid, values)
    axis = grid.axis_coords
    coords = np.concatenate([axis[1:-1], axis[-2:], [-0.0, grid.radius, -grid.radius]])
    pts = np.stack(np.meshgrid(*([coords] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    if dim == 2:   # one coordinate on an edge, the other inside a cell
        inner = rng.uniform(-2.0, 2.0, size=(coords.size, 1))
        pts = np.concatenate([pts, np.hstack([coords[:, None], inner]),
                              np.hstack([inner, coords[:, None]])])
    states = rng.integers(1, 3, size=pts.shape[0])
    for k in (1, 2, states):
        got = _bilinear(grid, ctrl.tables, pts, k)
        assert got.tobytes() == _broadcast_bilinear(grid, values, pts, k).tobytes()
    on_nodes = np.isin(pts, axis).all(axis=-1)
    idx = [grid.index_of(p) for p in pts[on_nodes]]
    assert np.array_equal(ctrl(pts[on_nodes], 2), values[1, idx])


@pytest.mark.parametrize("dim", [1, 2])
def test_bilinear_rejects_nan_points(dim):
    # a NaN point has no cell: casting its index warns, and with the warning
    # silenced the gather rejects the index
    grid = build_grid(dim, 2.0, 0.25)
    ctrl = FeedbackControl.from_fields(grid, np.ones((2, grid.n_nodes, dim)))
    pts = np.zeros((3, dim))
    pts[1, -1] = np.nan
    with pytest.raises(RuntimeWarning, match="invalid value encountered in cast"):
        ctrl(pts, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(IndexError, match="out of bounds"):
            ctrl(pts, 1)
