import numpy as np
import pytest

from ergodic_hjb import fields
from ergodic_hjb.discretize import build_grid
from ergodic_hjb.dual_lp import (
    OccupationMeasure,
    assemble_lp,
    build_control_mesh,
    measure_cost,
    solve_lp,
    stationarity_residual,
)
from ergodic_hjb.errors import ParameterError
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
        xi = extract_control(quadratic_1d, sol).state(1)
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
