import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import ergodic_hjb
from ergodic_hjb import dual_lp, fields
from ergodic_hjb.discretize import assemble_generator, build_grid, control_cap
from ergodic_hjb.dual_lp import (
    OccupationMeasure,
    assemble_lp,
    build_control_mesh,
    solve_lp,
    stationarity_residual,
)
from ergodic_hjb.errors import LPError, ParameterError
from ergodic_hjb.model import STATES, truncate_hamiltonian
from ergodic_hjb.solver import extract_control, solve_ergodic_normalized
from tests.conftest import make_problem

SQRT2 = np.sqrt(2.0)


def small_lp(problem, h=0.25, magnitudes=(0.0, 0.5, 1.0, 1.5, 2.0)):
    grid = build_grid(1, 2.0, h)
    mesh = build_control_mesh(problem, grid, magnitudes=magnitudes)
    return grid, mesh, assemble_lp(problem, grid, mesh)


class TestControlMesh:
    def test_1d_signed_magnitudes(self, quadratic_1d):
        grid = build_grid(1, 2.0, 0.5)
        mesh = build_control_mesh(quadratic_1d, grid, magnitudes=[0.0, 1.0, 2.0])
        assert np.allclose(sorted(mesh.controls[:, 0]), [-2, -1, 0, 1, 2])

    def test_2d_directions(self, quadratic_2d):
        grid = build_grid(2, 1.0, 0.5)
        mesh = build_control_mesh(quadratic_2d, grid, magnitudes=[0.0, 1.0], directions=4)
        assert mesh.n_controls == 5
        mags = np.linalg.norm(mesh.controls, axis=-1)
        assert np.isclose(mags.min(), 0.0) and np.isclose(mags.max(), 1.0)

    def test_requires_zero_magnitude(self, quadratic_1d):
        grid = build_grid(1, 2.0, 0.5)
        with pytest.raises(ParameterError):
            build_control_mesh(quadratic_1d, grid, magnitudes=[0.5, 1.0])

    def test_default_covers_extracted_control(self, quadratic_1d):
        from ergodic_hjb.discretize import control_cap

        grid = build_grid(1, 6.0, 0.1)
        mesh = build_control_mesh(quadratic_1d, grid)
        sol = solve_ergodic_normalized(quadratic_1d, grid)
        xi = extract_control(quadratic_1d, sol).values[0]
        cap = control_cap(quadratic_1d, grid)
        xi = np.clip(xi, -cap, cap)
        idx = mesh.nearest(xi)
        dist = np.linalg.norm(xi - mesh.controls[idx], axis=-1)
        assert np.max(dist) <= mesh.magnitude_step


class TestAssembly:
    def test_cost_entries(self):
        problem = make_problem(sources=(fields.constant(1, 3.0), fields.constant(1, 3.0)))
        grid, mesh, lp = small_lp(problem, magnitudes=(0.0, 1.0))
        # zero-control block: cost = f + l(0) = 3 + 0
        zero_col = np.argmin(np.linalg.norm(mesh.controls, axis=-1))
        block = lp.cost[zero_col * 2 * grid.n_nodes:(zero_col + 1) * 2 * grid.n_nodes]
        assert np.allclose(block, 3.0)

    def test_columns_kill_constants(self, quadratic_1d):
        grid, mesh, lp = small_lp(quadratic_1d)
        col_sums = np.asarray(lp.stationarity.sum(axis=0)).ravel()
        assert np.max(np.abs(col_sums)) < 1e-10

    def test_cost_nonnegative_for_nonneg_source(self, quadratic_1d):
        _, _, lp = small_lp(quadratic_1d)
        assert np.all(lp.cost >= -1e-12)


class TestSolve:
    def test_quadratic_benchmark_value(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.1)
        mesh = build_control_mesh(quadratic_1d, grid)
        lam_bar, mu = solve_lp(assemble_lp(quadratic_1d, grid, mesh))
        assert lam_bar == pytest.approx(SQRT2, rel=0.03)
        assert mu.mass == pytest.approx(1.0, abs=1e-9)
        assert mu.stationarity_residual <= 1e-8

    def test_shift_moves_value_exactly(self, quadratic_1d):
        grid, mesh, lp = small_lp(quadratic_1d, h=0.25)
        base, _ = solve_lp(lp)
        shifted = quadratic_1d.with_sources(tuple(f.shifted(2.0) for f in quadratic_1d.sources))
        lam2, _ = solve_lp(assemble_lp(shifted, grid, mesh))
        assert abs(lam2 - base - 2.0) <= 1e-7

    def test_mesh_refinement_does_not_increase_value(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.2)
        coarse = build_control_mesh(quadratic_1d, grid, magnitudes=np.arange(0, 10.5, 0.5))
        fine = build_control_mesh(quadratic_1d, grid, magnitudes=np.arange(0, 10.25, 0.25))
        lam_coarse, _ = solve_lp(assemble_lp(quadratic_1d, grid, coarse))
        lam_fine, _ = solve_lp(assemble_lp(quadratic_1d, grid, fine))
        assert lam_fine <= lam_coarse + 1e-7

    def test_support_tracks_extracted_control(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.1)
        mesh = build_control_mesh(quadratic_1d, grid)
        lam_bar, mu = solve_lp(assemble_lp(quadratic_1d, grid, mesh))
        sol = solve_ergodic_normalized(quadratic_1d, grid)
        xi_opt = extract_control(quadratic_1d, sol).values
        mags = np.linalg.norm(mesh.controls, axis=-1)[None, None, :]
        signs = np.sign(mesh.controls[:, 0])[None, None, :]
        lp_ctrl = signs * mags
        # mass-weighted distance between the LP control and the feedback field
        dist = np.abs(lp_ctrl - xi_opt[:, :, 0][:, :, None])
        weighted = float(np.sum(mu.weights * dist))
        assert weighted <= 2.0 * mesh.magnitude_step

    def test_weak_duality_against_pde(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.1)
        mesh = build_control_mesh(quadratic_1d, grid)
        lam_bar, _ = solve_lp(assemble_lp(quadratic_1d, grid, mesh))
        lam_pde = solve_ergodic_normalized(quadratic_1d, build_grid(1, 6.0, 0.02)).lam
        assert abs(lam_bar - lam_pde) <= 0.03 * lam_pde

    @pytest.mark.parametrize("level, magnitudes", [
        (0.3, np.arange(0.0, 10.01, 0.25)),
        (None, None),
    ], ids=["truncated", "untruncated"])
    def test_truncated_quartic_against_pde(self, level, magnitudes):
        # the LP prices a truncated state with the conjugate the PDE solve uses;
        # the truncated case keeps 81 controls on an explicit mesh, and the
        # untruncated one runs the automatic mesh of 309 to the control cap
        problem = make_problem(gammas=(4.0, 4.0))
        if level is not None:
            problem = problem.with_hamiltonian(
                truncate_hamiltonian(problem.hamiltonian, level=level))
        sol = solve_ergodic_normalized(problem, build_grid(1, 6.0, 0.05))
        assert extract_control(problem, sol).duality_residual <= 1e-12
        grid = build_grid(1, 6.0, 0.1)
        mesh = build_control_mesh(problem, grid, magnitudes=magnitudes)
        lam_bar, mu = solve_lp(assemble_lp(problem, grid, mesh))
        assert abs(lam_bar - sol.lam) <= 5e-3
        assert mu.stationarity_residual <= 1e-8

    def test_measure_mixing_is_exactly_linear(self, quadratic_1d):
        grid, mesh, lp = small_lp(quadratic_1d)
        _, mu = solve_lp(lp)
        # second feasible point: re-solve with a tilted cost
        lp_tilted = assemble_lp(
            quadratic_1d.with_sources((fields.quadratic(1, c0=0.3), fields.quadratic(1))),
            grid, mesh)
        _, mu2 = solve_lp(lp_tilted)
        blend = OccupationMeasure(grid=grid, mesh=mesh,
                                  weights=0.5 * (mu.weights + mu2.weights),
                                  mass=1.0)
        assert stationarity_residual(lp, blend) <= 1e-8
        c1, c2, cb = measure_cost(lp, mu), measure_cost(lp, mu2), measure_cost(lp, blend)
        assert cb == pytest.approx(0.5 * (c1 + c2), abs=1e-12)


def measure_cost(lp, measure: OccupationMeasure) -> float:
    """The LP's objective at an arbitrary measure."""
    return float(lp.cost @ dual_lp._weights_to_flat(measure.weights))


def _highs_value(lp) -> float:
    """The LP's optimal value by HiGHS, the reference for policy iteration."""
    a_eq = sp.vstack([lp.stationarity, np.ones((1, lp.n_vars))], format="csr")
    b_eq = np.concatenate([np.zeros(lp.stationarity.shape[0]), [1.0]])
    res = linprog(lp.cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def _reduced_costs(lp, policy: np.ndarray) -> np.ndarray:
    """Every column's reduced cost against the dual ``(u, lam)`` of ``policy``,
    from a dense solve of the bordered system ``A_pi u + lam = cost_pi``,
    ``u[0] = 0``, with ``A_pi`` the negated transpose of the policy's columns."""
    n_rows = lp.stationarity.shape[0]
    cols = policy * n_rows + np.arange(n_rows)
    columns = -lp.stationarity.T.toarray()
    bordered = np.zeros((n_rows + 1, n_rows + 1))
    bordered[:n_rows, :n_rows] = columns[cols]
    bordered[:n_rows, n_rows] = 1.0
    bordered[n_rows, 0] = 1.0
    sol = np.linalg.solve(bordered, np.concatenate([lp.cost[cols], [0.0]]))
    return lp.cost - sol[n_rows] - columns @ sol[:n_rows]


def _coarse_2d_lp():
    problem = make_problem(dim=2)
    grid = build_grid(2, 2.0, 0.5)
    mesh = build_control_mesh(problem, grid, magnitudes=np.arange(0.0, 3.01, 0.5))
    return grid, mesh, assemble_lp(problem, grid, mesh)


class TestPolicyIteration:
    @pytest.mark.parametrize("make_lp", [
        lambda: small_lp(make_problem()),
        lambda: small_lp(make_problem(), h=0.5),
        lambda: small_lp(make_problem(sources=(fields.quadratic(1, c0=0.3),
                                               fields.quadratic(1)))),
        lambda: small_lp(make_problem(gammas=(2.0, 3.0), alphas=(0.5, 2.0),
                                      sources=(fields.quadratic(1),
                                               fields.quadratic(1, c0=3.0)))),
        _coarse_2d_lp,
    ], ids=["quadratic", "quadratic-h0.5", "tilted", "gamma23-rates", "coarse-2d"])
    def test_certified_against_highs(self, make_lp):
        _, _, lp = make_lp()
        lam_bar, mu = solve_lp(lp)
        assert lam_bar == pytest.approx(_highs_value(lp), abs=1e-6)
        # one control per (state, node) row carries the whole mass of that row
        assert np.all(np.count_nonzero(mu.weights, axis=-1) == 1)
        assert mu.mass == pytest.approx(1.0, abs=1e-12)
        assert mu.stationarity_residual <= 1e-12
        policy = np.argmax(mu.weights, axis=-1).ravel()
        assert np.min(_reduced_costs(lp, policy)) >= -1e-9
        assert mu.iterations >= 1
        assert 0.0 <= mu.optimality_gap <= 1e-9

    def test_reducible_chain_named(self):
        # with no switching, neither state can reach the other
        _, _, lp = small_lp(make_problem(alphas=(0.0, 0.0)))
        with pytest.raises(LPError, match=r"the chain of policy 1 is reducible "
                                          r"\(2 communicating classes\)"):
            solve_lp(lp)

    def test_iteration_cap(self, monkeypatch):
        _, _, lp = small_lp(make_problem())
        monkeypatch.setattr(dual_lp, "MAX_POLICY_ITERS", 1)
        with pytest.raises(LPError, match="did not settle in 1 policies"):
            solve_lp(lp)


def _bundled_lp():
    """The LP of the bundled quadratic-1d config: R=6, h=0.1, magnitude step 0.25."""
    problem = make_problem()
    grid = build_grid(1, 6.0, 0.1)
    mesh = build_control_mesh(problem, grid, magnitudes=np.arange(
        0.0, control_cap(problem, grid) + 0.25, 0.25))
    return grid, mesh, assemble_lp(problem, grid, mesh)


class TestPinned:
    # recorded before the LP held its operator rows once, in place of the
    # stacked balance blocks and their transposed copy
    @pytest.mark.parametrize("make_lp, lam_hex, iterations, gap, residual, digest", [
        (_bundled_lp, "0x1.6ab3e9c11eaf6p+0", 6, 1.0373923942097463e-12, 1.061650767297806e-15,
         "b9d82dde1c2aed24ff6ae83d9359cc4dcc87c2eadaca7b65a06c0c6e1eb745de"),
        (_coarse_2d_lp, "0x1.201376eaa9106p+1", 2, 1.5987211554602254e-14,
         3.608224830031759e-16,
         "3c56e28bbbce580e6155aafba8c1057885b6781300fd535e3e949813d1f4593f"),
    ], ids=["bundled", "coarse-2d"])
    def test_solution_pinned(self, make_lp, lam_hex, iterations, gap, residual, digest):
        _, _, lp = make_lp()
        lam_bar, mu = solve_lp(lp)
        assert lam_bar.hex() == lam_hex
        assert mu.iterations == iterations
        assert mu.optimality_gap == gap
        assert mu.stationarity_residual == residual
        assert hashlib.sha256(mu.weights.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("dim, radius, h, step", [(1, 6.0, 0.1, 0.25), (2, 2.0, 0.5, 0.5)],
                             ids=["bundled", "2d-spd-drift"])
    def test_matches_the_generator_blocks(self, dim, radius, h, step):
        # the balance rows and the cost as they were built before: block c of
        # the rows is the negated generator at control c, transposed, and its
        # cost is f + l stacked by state
        drifts = metrics = None
        if dim == 2:
            drifts = (fields.DriftField(2, (0.3, -0.2)), fields.DriftField(2))
            metrics = (fields.constant_metric(2, [[2.0, 0.5], [0.5, 1.0]]),
                       fields.identity_metric(2))
        problem = make_problem(dim=dim, gammas=(2.0, 3.0), alphas=(0.5, 2.0), drifts=drifts,
                               metrics=metrics,
                               sources=(fields.quadratic(dim), fields.quadratic(dim, c0=3.0)))
        grid = build_grid(dim, radius, h)
        mesh = build_control_mesh(problem, grid, magnitudes=np.arange(
            0.0, control_cap(problem, grid) + step, step))
        lp = assemble_lp(problem, grid, mesh)
        pts = grid.points
        f = np.stack([problem.source(k)(pts) for k in STATES])
        blocks, costs = [], []
        for c in range(mesh.n_controls):
            xi = np.broadcast_to(mesh.controls[c], (grid.n_nodes, grid.dim))
            blocks.append((-assemble_generator(grid, problem, np.stack([xi, xi]), 0.0)).T)
            lag = np.stack([problem.hamiltonian.lagrangian(k, pts, xi) for k in STATES])
            costs.append((f + lag).ravel())
        reference = sp.hstack(blocks, format="csr")
        assert lp.stationarity.shape == reference.shape
        assert (lp.stationarity != reference).nnz == 0
        assert lp.cost.tobytes() == np.concatenate(costs).tobytes()


def test_package_import_leaves_scipy_optimize_out():
    src = str(Path(ergodic_hjb.__file__).resolve().parents[1])
    code = "import sys, ergodic_hjb; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src})
    assert out.stdout.strip() == "False"
