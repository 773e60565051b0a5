import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from ergodic_hjb.discretize import (
    ControlFieldPair,
    assemble_generator,
    build_grid,
    control_cap,
    gradient_central,
    fields_to_csv,
    transition_generator,
)
from ergodic_hjb.errors import ParameterError
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
    assert g.boundary_mask.sum() == 16


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
    gen = assemble_generator(g, problem, ControlFieldPair.zeros(g), discount=1.0)
    row = gen.matrix.getrow(2).toarray().ravel()
    h2 = 1.0 / 0.5**2
    assert row[1] == pytest.approx(-h2)
    assert row[3] == pytest.approx(-h2)
    assert row[2] == pytest.approx(2 * h2 + 1.0)


def test_generator_coupling_and_row_sums():
    problem = make_problem()
    g = build_grid(1, 2.0, 0.25)
    eps = 0.375
    gen = assemble_generator(g, problem, ControlFieldPair.zeros(g), discount=eps)
    m = g.n_nodes
    node = g.origin_index
    row = gen.matrix.getrow(node).toarray().ravel()
    assert row[node + m] == pytest.approx(-1.0)
    sums = np.asarray(gen.matrix.sum(axis=1)).ravel()
    assert np.allclose(sums, eps)


def test_generator_m_matrix_scan(rng):
    problem = make_problem(dim=2, alphas=(0.7, 1.3))
    g = build_grid(2, 1.0, 0.25)
    xi = rng.uniform(-3.0, 3.0, size=(2, g.n_nodes, 2))
    gen = assemble_generator(g, problem, ControlFieldPair(xi), discount=0.1)
    assert gen.is_m_matrix()
    assert gen.m_matrix_violations() == {
        "positive_offdiag": 0, "nonpositive_diag": 0, "dominance_failures": 0}


def test_generator_consistency_smooth_function():
    problem = make_problem(dim=1, alphas=(1.0, 2.0))
    g = build_grid(1, 2.0, 0.01)
    x = g.points[:, 0]
    u1, u2 = np.sin(x), np.cos(x)
    stacked = np.concatenate([u1, u2])
    eps = 0.5

    # zero control: second-order agreement with -u'' + alpha (u_k - u_j) + eps u
    gen0 = assemble_generator(g, problem, ControlFieldPair.zeros(g), discount=eps)
    exact1 = np.sin(x) + 1.0 * (u1 - u2) + eps * u1
    got = (gen0.matrix @ stacked)[: g.n_nodes]
    interior = g.interior_mask
    assert np.max(np.abs(got - exact1)[interior]) < 5e-4  # O(h^2) at h=0.01

    # constant control: first-order upwind agreement with + xi . grad u term
    xi = np.full((2, g.n_nodes, 1), 0.8)
    gen = assemble_generator(g, problem, ControlFieldPair(xi), discount=eps)
    exact1 = np.sin(x) + 0.8 * np.cos(x) + 1.0 * (u1 - u2) + eps * u1
    got = (gen.matrix @ stacked)[: g.n_nodes]
    assert np.max(np.abs(got - exact1)[interior]) < 0.8 * 0.01 * 1.1  # O(h)


def test_discrete_comparison_via_ordered_rhs(rng):
    problem = make_problem(dim=1)
    g = build_grid(1, 2.0, 0.1)
    xi = rng.uniform(-2.0, 2.0, size=(2, g.n_nodes, 1))
    gen = assemble_generator(g, problem, ControlFieldPair(xi), discount=0.7)
    rhs_low = rng.uniform(0.0, 1.0, size=2 * g.n_nodes)
    rhs_high = rhs_low + rng.uniform(0.0, 1.0, size=2 * g.n_nodes)
    u = spsolve(gen.matrix.tocsc(), rhs_low)
    v = spsolve(gen.matrix.tocsc(), rhs_high)
    assert np.all(v >= u - 1e-12)


def test_transition_generator_kills_constants():
    problem = make_problem(dim=2, alphas=(0.5, 2.0))
    g = build_grid(2, 1.0, 0.25)
    xi = np.random.default_rng(1).uniform(-2, 2, size=(2, g.n_nodes, 2))
    q = transition_generator(g, problem, ControlFieldPair(xi))
    ones = np.ones(2 * g.n_nodes)
    assert np.max(np.abs(q @ ones)) < 1e-10
    off = q.tocoo()
    mask = off.row != off.col
    assert np.all(off.data[mask] >= -1e-14)


def test_control_cap_exceeds_benchmark_optimum(quadratic_1d):
    g = build_grid(1, 6.0, 0.1)
    cap = control_cap(quadratic_1d, g)
    assert cap > np.sqrt(2.0) * 6.0


def test_exports(tmp_path):
    g = build_grid(1, 1.0, 0.5)
    fpath = tmp_path / "fields.csv"
    fields_to_csv(g, {"u": np.zeros((2, g.n_nodes))}, fpath)
    lines = fpath.read_text().strip().splitlines()
    assert lines[0] == "x1,state,u"
    assert len(lines) == 1 + 2 * g.n_nodes
