from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_hjb import fields, solver
from ergodic_hjb.discretize import (
    assemble_generator,
    build_grid,
    control_cap,
    gradient_central,
)
from ergodic_hjb.errors import ConvergenceError, ParameterError, SolverError
from ergodic_hjb.model import truncate_hamiltonian
from ergodic_hjb.solver import (
    ErgodicSolution,
    LUFactor,
    PenaltyParams,
    SolverOptions,
    default_penalty,
    extract_control,
    nested_domains,
    penalty_source,
    policy_evaluation,
    solve_discounted,
    solve_ergodic_normalized,
    vanishing_discount,
)
from tests.conftest import make_problem

SQRT2 = np.sqrt(2.0)

# the discounted system at discount 1, and the average-cost system on the
# discount-0 generator pinned at the origin
EVALUATION_MODES = pytest.mark.parametrize(
    "discount, pinned", [(1.0, False), (0.0, True)], ids=["discounted", "average-cost"])


@pytest.mark.parametrize("bad", [
    {"tol_lambda": "abc"}, {"tol_pde": float("nan")}, {"tol_lambda": float("inf")},
    {"max_policy_iters": 0}, {"max_policy_iters": 2.5}, {"max_policy_iters": True},
    {"eps_min": 2.0}, {"control_cap": 0.0},
], ids=["tol-str", "tol-pde-nan", "tol-inf", "iters-0", "iters-float", "iters-bool",
        "eps-order", "control-cap"])
def test_solver_options_checked(bad):
    with pytest.raises(ParameterError):
        SolverOptions(**bad)
    SolverOptions(tol_pde=1e-8, control_cap=3, max_policy_iters=np.int64(5))

class TestPenaltySource:
    def test_zero_away_from_wall(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.1)
        src = penalty_source(quadratic_1d, grid, default_penalty(quadratic_1d))
        center = grid.origin_index
        assert src[0, center] == pytest.approx(0.0)
        x = grid.points[:, 0]
        deep = np.abs(x) ** 2 <= grid.radius**2 - 1.0
        assert np.allclose(src[0, deep], x[deep] ** 2)

    def test_steep_layer_value(self, quadratic_1d):
        # radius^2 - x^2 = 0.25 -> profile 4, penalty 4^10
        grid = build_grid(1, 1.0, 0.25)
        params = PenaltyParams(beta=3.0, alpha_exp=7.0, cap=1e30)
        src = penalty_source(quadratic_1d, grid, params)
        node = grid.index_of([np.sqrt(1.0 - 0.25)])
        t = 1.0 - grid.points[node, 0] ** 2
        expected = grid.points[node, 0] ** 2 + (1.0 / t) ** 7.0
        assert src[0, node] == pytest.approx(expected, rel=1e-12)

    def test_cap_applies(self, quadratic_1d):
        grid = build_grid(1, 1.0, 0.25)
        params = PenaltyParams(beta=3.0, alpha_exp=7.0, cap=10.0)
        src = penalty_source(quadratic_1d, grid, params)
        corner = grid.index_of([1.0])
        assert src[0, corner] == pytest.approx(grid.points[corner, 0] ** 2 + 10.0)

    def test_admissible_bracket(self, quadratic_1d):
        # gamma = 2, beta = 3: admissible wall exponents are (3, 8)
        PenaltyParams(beta=3.0, alpha_exp=5.0).validated(quadratic_1d)
        with pytest.raises(ParameterError, match="beta < alpha_exp"):
            PenaltyParams(beta=3.0, alpha_exp=9.0).validated(quadratic_1d)
        with pytest.raises(ParameterError, match="beta < alpha_exp"):
            PenaltyParams(beta=3.0, alpha_exp=2.0).validated(quadratic_1d)
        with pytest.raises(ParameterError, match="must exceed"):
            PenaltyParams(beta=1.5, alpha_exp=2.0).validated(quadratic_1d)

    @pytest.mark.parametrize("cap, message", [
        (-1.0, "penalty cap must be null or a finite number"),
        (float("nan"), "penalty cap must be null or a finite number"),
        (float("inf"), "penalty cap must be null or a finite number"),
        ("x", "penalty cap must be a number"),
        (True, "penalty cap must be a number"),
    ], ids=["negative", "nan", "inf", "string", "bool"])
    def test_bad_cap_rejected(self, quadratic_1d, cap, message):
        with pytest.raises(ParameterError, match=message):
            PenaltyParams(beta=3.0, alpha_exp=5.0, cap=cap).validated(quadratic_1d)
        # 0.0 is the no-wall box, None the default wall
        for ok in (0.0, 0, 10.0, None):
            PenaltyParams(beta=3.0, alpha_exp=5.0, cap=ok).validated(quadratic_1d)


class TestPolicyEvaluation:
    def test_scaled_identity(self, quadratic_1d):
        grid = build_grid(1, 2.0, 0.5)
        import scipy.sparse as sp

        ident = sp.identity(2 * grid.n_nodes, format="csr") * 3.0
        rhs = np.arange(2.0 * grid.n_nodes)
        assert np.allclose(policy_evaluation(ident, rhs)[0], rhs / 3.0)

    def test_constant_states_solve_coupled_system(self, quadratic_1d):
        grid = build_grid(1, 2.0, 0.1)
        gen = assemble_generator(grid, quadratic_1d, np.zeros((2, grid.n_nodes, grid.dim)), 1.0)
        c = 4.25
        u, _ = policy_evaluation(gen, np.full(2 * grid.n_nodes, c))
        assert np.allclose(u, c, atol=1e-11)

    def test_random_rhs_residual(self, quadratic_1d, rng):
        grid = build_grid(1, 2.0, 0.05)
        xi = rng.uniform(-2, 2, size=(2, grid.n_nodes, 1))
        gen = assemble_generator(grid, quadratic_1d, xi, 0.3)
        rhs = rng.normal(size=2 * grid.n_nodes)
        u, _ = policy_evaluation(gen, rhs)
        res = np.max(np.abs(gen @ u - rhs)) / np.max(np.abs(rhs))
        assert res <= 1e-12

    @EVALUATION_MODES
    def test_constant_rhs(self, quadratic_1d, discount, pinned):
        # constants solve both systems: u = c at discount 1, (u, lam) = (0, c) pinned
        grid = build_grid(1, 2.0, 0.1)
        ref = grid.origin_index if pinned else None
        xi = np.zeros((2, grid.n_nodes, grid.dim))
        gen = assemble_generator(grid, quadratic_1d, xi, discount)
        c = 4.25
        u, lam = policy_evaluation(gen, np.full(2 * grid.n_nodes, c), ref)
        expected_u, expected_lam = (0.0, c) if pinned else (c, 0.0)
        assert np.allclose(u, expected_u, atol=1e-11)
        assert lam == pytest.approx(expected_lam, abs=1e-11)

    @EVALUATION_MODES
    def test_random_controls_defect(self, quadratic_1d, rng, discount, pinned):
        grid = build_grid(1, 2.0, 0.05)
        ref = grid.origin_index if pinned else None
        xi = rng.uniform(-2, 2, size=(2, grid.n_nodes, 1))
        gen = assemble_generator(grid, quadratic_1d, xi, discount)
        rhs = rng.normal(size=2 * grid.n_nodes)
        u, lam = policy_evaluation(gen, rhs, ref)
        # normwise backward error, the accuracy policy_evaluation guarantees
        scale = np.max(abs(gen) @ np.abs(u)) + np.max(np.abs(rhs)) + abs(lam)
        assert np.max(np.abs(gen @ u + lam - rhs)) / scale <= 1e-12
        if pinned:
            assert u[ref] == 0.0
        else:
            assert lam == 0.0

    def test_factor_fill_bounded(self, quadratic_2d, monkeypatch):
        # the pinned 2D pattern is structurally symmetric: minimum degree on
        # A + A^T gives nnz(L+U) up to 12.9 nnz(A), column ordering up to 26.1;
        # the held factor serves the Howard iterations whose policy barely moved
        fills = []
        splu = spla.splu

        def recording(a, *args, **kwargs):
            lu = splu(a, *args, **kwargs)
            fills.append((lu.nnz, a.nnz, a.shape[0]))
            return lu

        monkeypatch.setattr(spla, "splu", recording)
        grid = build_grid(2, 5.0, 0.1)
        sol = solve_ergodic_normalized(quadratic_2d, grid)
        fine = [f for f in fills if f[2] == 2 * grid.n_nodes]
        assert 1 <= len(fine) < sol.iterations
        assert all(lu_nnz <= 16 * a_nnz for lu_nnz, a_nnz, _ in fills), fills


def _counting_splu(monkeypatch):
    """Record the size of every factorization from here on."""
    sizes = []
    splu = spla.splu

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return sizes


def _policy_system(problem, grid, xi, discount):
    """Generator and right-hand side of the frozen feedback ``xi``, wall included."""
    lag = np.stack([problem.hamiltonian.lagrangian(k, grid.points, xi[k - 1]) for k in (1, 2)])
    rhs = (penalty_source(problem, grid, default_penalty(problem)) + lag).ravel()
    return assemble_generator(grid, problem, xi, discount), rhs


def _converged_control(problem, grid):
    sol = solve_ergodic_normalized(problem, grid)
    raw = extract_control(problem, sol).values
    cap = control_cap(problem, grid)
    mag = np.linalg.norm(raw, axis=-1)
    return raw * np.where(mag > cap, cap / np.where(mag > 0, mag, 1.0), 1.0)[..., None]


@pytest.fixture(scope="module")
def benchmark_control():
    """The 1D benchmark, its R=6, h=0.05 grid, and the converged control there."""
    problem = make_problem()
    grid = build_grid(1, 6.0, 0.05)
    return problem, grid, _converged_control(problem, grid)


class TestFactorReuse:
    @EVALUATION_MODES
    def test_nearby_policy_reuses_the_factor(self, quadratic_1d, rng, monkeypatch,
                                             discount, pinned):
        grid = build_grid(1, 6.0, 0.05)
        ref = grid.origin_index if pinned else None
        xi = _converged_control(quadratic_1d, grid)
        near = xi * (1.0 + 1e-2 * rng.uniform(-1.0, 1.0, xi.shape))
        factor = LUFactor()
        policy_evaluation(*_policy_system(quadratic_1d, grid, xi, discount), ref, factor)
        gen, rhs = _policy_system(quadratic_1d, grid, near, discount)
        sizes = _counting_splu(monkeypatch)
        u, lam = policy_evaluation(gen, rhs, ref, factor)
        assert sizes == []
        scale = np.max(abs(gen) @ np.abs(u)) + np.max(np.abs(rhs)) + abs(lam)
        assert np.max(np.abs(gen @ u + lam - rhs)) / scale <= 1e-12
        fresh_u, fresh_lam = policy_evaluation(gen, rhs, ref)
        assert len(sizes) == 1
        assert np.max(np.abs(u - fresh_u)) <= 1e-12 * np.max(np.abs(fresh_u))
        assert abs(lam - fresh_lam) <= 1e-12 * max(1.0, abs(fresh_lam))

    @EVALUATION_MODES
    def test_distant_policy_refactors_once(self, quadratic_1d, monkeypatch, discount, pinned):
        # the zero control's factor cannot precondition the converged control's
        # system: the holder gives it up and the evaluation is the fresh one
        grid = build_grid(1, 6.0, 0.05)
        ref = grid.origin_index if pinned else None
        zero = np.zeros((2, grid.n_nodes, 1))
        factor = LUFactor()
        policy_evaluation(*_policy_system(quadratic_1d, grid, zero, discount), ref, factor)
        gen, rhs = _policy_system(quadratic_1d, grid, _converged_control(quadratic_1d, grid),
                                  discount)
        sizes = _counting_splu(monkeypatch)
        u, lam = policy_evaluation(gen, rhs, ref, factor)
        assert sizes == [2 * grid.n_nodes]
        assert factor.matrix is gen
        fresh_u, fresh_lam = policy_evaluation(gen, rhs, ref)
        assert np.array_equal(u, fresh_u) and lam == fresh_lam

    def test_same_matrix_is_not_refactored(self, quadratic_1d, monkeypatch):
        grid = build_grid(1, 4.0, 0.1)
        gen, rhs = _policy_system(quadratic_1d, grid, np.zeros((2, grid.n_nodes, 1)), 0.0)
        sizes = _counting_splu(monkeypatch)
        factor = LUFactor()
        first = policy_evaluation(gen, rhs, grid.origin_index, factor)
        second = policy_evaluation(gen, rhs, grid.origin_index, factor)
        assert len(sizes) == 1
        assert np.array_equal(first[0], second[0]) and first[1] == second[1]

    def test_discounted_factor_is_not_used_for_the_pinned_system(self, quadratic_1d,
                                                                 monkeypatch):
        grid = build_grid(1, 4.0, 0.1)
        zero = np.zeros((2, grid.n_nodes, 1))
        factor = LUFactor()
        policy_evaluation(*_policy_system(quadratic_1d, grid, zero, 1.0), None, factor)
        gen, rhs = _policy_system(quadratic_1d, grid, zero, 0.0)
        sizes = _counting_splu(monkeypatch)
        u, lam = policy_evaluation(gen, rhs, grid.origin_index, factor)
        assert len(sizes) == 1
        assert factor.ref == grid.origin_index
        fresh_u, fresh_lam = policy_evaluation(gen, rhs, grid.origin_index)
        assert np.array_equal(u, fresh_u) and lam == fresh_lam

    @EVALUATION_MODES
    @pytest.mark.parametrize("held", [False, True], ids=["empty", "held"])
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_nan_entry_raises(self, quadratic_1d, discount, pinned, held, where):
        # a NaN in the matrix is named before the factorization, one in the
        # right-hand side fails the final backward-error check; no non-finite
        # u comes back
        grid = build_grid(1, 4.0, 0.1)
        ref = grid.origin_index if pinned else None
        gen, rhs = _policy_system(quadratic_1d, grid, np.zeros((2, grid.n_nodes, 1)), discount)
        factor = LUFactor()
        if held:
            policy_evaluation(gen, rhs, ref, factor)
        bad, bad_rhs = gen.copy(), rhs.copy()
        if where == "matrix":
            bad.data[bad.indptr[3]] = np.nan
        else:
            bad_rhs[3] = np.nan
        with pytest.raises(SolverError, match="non-finite entry" if where == "matrix" else None):
            policy_evaluation(bad, bad_rhs, ref, factor)

    # at most 25 examples of the 1D benchmark's 482 unknowns, about 1 s
    @settings(derandomize=True, deadline=None, database=None, max_examples=25)
    @given(delta=st.floats(0.0, 1.0), seed=st.integers(0, 2**16), pinned=st.booleans())
    def test_perturbed_policy_meets_the_gate(self, benchmark_control, delta, seed, pinned):
        # whether the held factor converges or is replaced, the evaluation is
        # accurate, agrees with a fresh factor, and factors at most once
        problem, grid, xi = benchmark_control
        ref, discount = (grid.origin_index, 0.0) if pinned else (None, 1.0)
        near = xi * (1.0 + delta * np.random.default_rng(seed).uniform(-1.0, 1.0, xi.shape))
        factor = LUFactor()
        policy_evaluation(*_policy_system(problem, grid, xi, discount), ref, factor)
        gen, rhs = _policy_system(problem, grid, near, discount)
        with pytest.MonkeyPatch.context() as mp:
            sizes = _counting_splu(mp)
            u, lam = policy_evaluation(gen, rhs, ref, factor)
        assert len(sizes) <= 1
        scale = np.max(abs(gen) @ np.abs(u)) + np.max(np.abs(rhs)) + abs(lam)
        assert np.max(np.abs(gen @ u + lam - rhs)) / scale <= 1e-12
        fresh_u, fresh_lam = policy_evaluation(gen, rhs, ref)
        assert np.max(np.abs(u - fresh_u)) <= 1e-12 * np.max(np.abs(fresh_u))
        assert abs(lam - fresh_lam) <= 1e-12 * max(1.0, abs(fresh_lam))


class TestCoarseStart:
    def test_coarse_solve_starts_the_fine_one(self, quadratic_1d, monkeypatch):
        grid = build_grid(1, 4.0, 0.1)
        sizes = _counting_splu(monkeypatch)
        sol = solve_ergodic_normalized(quadratic_1d, grid)
        coarse = build_grid(1, 4.0, 0.2)
        assert 2 * coarse.n_nodes in sizes
        assert sol.coarse_lam == pytest.approx(sol.lam, rel=1e-2)
        cold = solve_ergodic_normalized(quadratic_1d, grid,
                                        warm=np.zeros((2, grid.n_nodes, 1)))
        assert cold.coarse_lam is None
        # both stop at the Howard tolerance 1e-9 (1 + max |f|)
        assert sol.lam == pytest.approx(cold.lam, abs=1e-9 * (1.0 + 16.0))

    @pytest.mark.parametrize("error", [SolverError, ConvergenceError])
    def test_failed_coarse_solve_runs_the_fine_one_cold(self, quadratic_1d, monkeypatch,
                                                        error):
        grid = build_grid(1, 4.0, 0.1)
        howard = solver._howard

        def failing_on_coarse(problem, g, *args):
            if g.h != grid.h:
                raise error("coarse solve failed")
            return howard(problem, g, *args)

        monkeypatch.setattr(solver, "_howard", failing_on_coarse)
        sol = solve_ergodic_normalized(quadratic_1d, grid)
        cold = solve_ergodic_normalized(quadratic_1d, grid,
                                        warm=np.zeros((2, grid.n_nodes, 1)))
        assert sol.coarse_lam is None
        assert sol.residual <= 1e-9 * (1.0 + 16.0)
        assert np.array_equal(sol.u, cold.u) and sol.lam == cold.lam

    def test_no_coarse_grid_when_2h_does_not_divide(self, quadratic_1d, monkeypatch):
        # R/h = 41: the 2h grid of the box does not exist
        grid = build_grid(1, 4.1, 0.1)
        sizes = _counting_splu(monkeypatch)
        sol = solve_ergodic_normalized(quadratic_1d, grid)
        assert sol.coarse_lam is None
        assert set(sizes) == {2 * grid.n_nodes}
        assert sol.lam == pytest.approx(SQRT2, rel=0.01)


class TestDiscounted:
    def test_zero_source_zero_solution(self):
        problem = make_problem(sources=(fields.constant(1, 0.0), fields.constant(1, 0.0)))
        grid = build_grid(1, 2.0, 0.1)
        no_wall = replace(default_penalty(problem), cap=0.0)
        sol = solve_discounted(problem, grid, 1.0, penalty=no_wall)
        assert sol.iterations == 1
        assert np.allclose(sol.w, 0.0, atol=1e-12)

    @pytest.mark.parametrize("h", [0.02, 0.01])
    def test_discount_times_value_near_eigenvalue(self, quadratic_1d, h):
        grid = build_grid(1, 6.0, h)
        sol = solve_discounted(quadratic_1d, grid, 1e-3, penalty=default_penalty(quadratic_1d))
        lam_est = 1e-3 * sol.w[0, grid.origin_index]
        assert lam_est == pytest.approx(SQRT2, rel=0.02)
        assert sol.iterations <= 7

    def test_monotone_in_discount(self, quadratic_1d):
        grid = build_grid(1, 4.0, 0.1)
        pen = default_penalty(quadratic_1d)
        w_half = solve_discounted(quadratic_1d, grid, 0.5, penalty=pen).w
        w_one = solve_discounted(quadratic_1d, grid, 1.0, penalty=pen).w
        assert np.all(w_half >= w_one - 1e-9)

    def test_rejects_nonpositive_discount(self, quadratic_1d):
        grid = build_grid(1, 2.0, 0.5)
        with pytest.raises(ParameterError):
            solve_discounted(quadratic_1d, grid, 0.0)


class TestVanishingDiscount:
    def test_quadratic_benchmark(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.05)
        sol = vanishing_discount(quadratic_1d, grid)
        assert sol.lam == pytest.approx(SQRT2, rel=0.01)
        assert sol.u[0, grid.origin_index] == 0.0
        assert len(sol.history) >= 2
        eps_vals = [e for e, _ in sol.history]
        assert all(b < a for a, b in zip(eps_vals, eps_vals[1:]))

    def test_shift_moves_eigenvalue_exactly(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.1)
        base = vanishing_discount(quadratic_1d, grid)
        shifted_problem = quadratic_1d.with_sources(
            tuple(f.shifted(5.0) for f in quadratic_1d.sources))
        shifted = vanishing_discount(shifted_problem, grid)
        assert abs(shifted.lam - base.lam - 5.0) <= 1e-6

    def test_schedule_exhaustion_raises_with_history(self, quadratic_1d):
        grid = build_grid(1, 4.0, 0.1)
        with pytest.raises(ConvergenceError) as err:
            vanishing_discount(quadratic_1d, grid,
                               opts=SolverOptions(tol_lambda=1e-12, eps0=1.0, eps_min=0.5))
        assert len(err.value.history) == 2


class TestErgodicDirect:
    def test_quadratic_benchmark(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.02)
        sol = solve_ergodic_normalized(quadratic_1d, grid)
        assert sol.lam == pytest.approx(SQRT2, rel=0.01)
        x = grid.points[:, 0]
        window = np.abs(x) <= 3.0
        sup_err = np.max(np.abs(sol.state(1) - x**2 / SQRT2)[window])
        assert sup_err <= 0.02 * np.max(np.abs(x[window] ** 2 / SQRT2))
        assert sol.u[0, grid.origin_index] == 0.0
        assert sol.minimizer_interior()

    def test_agreement_with_vanishing_discount(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.05)
        direct = solve_ergodic_normalized(quadratic_1d, grid)
        vd = vanishing_discount(quadratic_1d, grid)
        opts = SolverOptions()
        assert abs(direct.lam - vd.lam) <= 3.0 * (opts.tol_lambda + grid.h)

    def test_agreement_2d(self, quadratic_2d):
        grid = build_grid(2, 4.0, 0.1)
        direct = solve_ergodic_normalized(quadratic_2d, grid)
        vd = vanishing_discount(quadratic_2d, grid)
        opts = SolverOptions()
        assert abs(direct.lam - vd.lam) <= 3.0 * (opts.tol_lambda + grid.h)
        assert vd.lam == pytest.approx(2.0 * SQRT2, rel=0.02)

    def test_asymmetric_exponents_converge(self):
        problem = make_problem(gammas=(2.0, 1.5))
        grid = build_grid(1, 6.0, 0.05)
        sol = solve_ergodic_normalized(problem, grid)
        assert np.isfinite(sol.lam)
        assert sol.residual <= 1e-9 * (1.0 + 36.0) + 1e-12

    def test_subsolution_sign_below_eigenvalue(self, quadratic_1d):
        # substituting the solution with a smaller eigenvalue leaves a
        # one-signed defect wherever the wall penalty is inactive: the
        # computed value sits at the subsolution supremum
        from ergodic_hjb.discretize import control_cap

        grid = build_grid(1, 6.0, 0.05)
        sol = solve_ergodic_normalized(quadratic_1d, grid)
        raw = extract_control(quadratic_1d, sol).values
        cap = control_cap(quadratic_1d, grid)
        mag = np.linalg.norm(raw, axis=-1)
        xi = raw * np.where(mag > cap, cap / np.where(mag > 0, mag, 1.0), 1.0)[..., None]
        gen = assemble_generator(grid, quadratic_1d, xi, 0.0)
        pts = grid.points
        lag = np.stack([quadratic_1d.hamiltonian.lagrangian(k, pts, xi[k - 1])
                        for k in (1, 2)])
        src = penalty_source(quadratic_1d, grid, default_penalty(quadratic_1d))
        deep = (np.abs(pts[:, 0]) + grid.h) ** 2 <= grid.radius**2 - 1.0
        deep2 = np.concatenate([deep, deep])
        for lam_lower in (sol.lam - 1e-5, sol.lam - 1.0):
            defect = gen @ sol.u.ravel() + lam_lower - (src + lag).ravel()
            assert np.all(defect[deep2] <= 1e-6)

    def test_concavity_in_sources(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.1)
        f_a = fields.quadratic(1)
        f_b = fields.quadratic(1, weights=(2.0,), c0=1.0)
        lam_a = solve_ergodic_normalized(quadratic_1d.with_sources((f_a, f_a)), grid).lam
        lam_b = solve_ergodic_normalized(quadratic_1d.with_sources((f_b, f_b)), grid).lam
        for t in (0.25, 0.5, 0.75):
            mix = fields.quadratic(1, weights=(t + (1 - t) * 2.0,), c0=(1 - t) * 1.0)
            lam_mix = solve_ergodic_normalized(quadratic_1d.with_sources((mix, mix)), grid).lam
            assert lam_mix >= t * lam_a + (1 - t) * lam_b - 1e-6

    def test_monotone_in_sources(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.1)
        lam_low = solve_ergodic_normalized(quadratic_1d, grid).lam
        bigger = quadratic_1d.with_sources(
            (fields.quadratic(1, c0=0.7), fields.quadratic(1, c0=0.2)))
        lam_high = solve_ergodic_normalized(bigger, grid).lam
        assert lam_low <= lam_high + 1e-6

    def test_finiteness_bracket(self, quadratic_1d):
        # eigenvalue dominates the infimum of the sources (here 0)
        grid = build_grid(1, 6.0, 0.1)
        sol = solve_ergodic_normalized(quadratic_1d, grid)
        assert sol.lam >= 0.0

    def test_constant_offset_splits_evenly(self):
        # with constant rates and f_2 = f_1 + c the coupled eigenvalue equals
        # the scalar value plus c/2 for every rate level (exact reduction)
        grid = build_grid(1, 6.0, 0.05)
        scalar = solve_ergodic_normalized(
            make_problem(sources=(fields.quadratic(1),) * 2), grid).lam
        for a in (1.0, 1e-6):
            coupled = solve_ergodic_normalized(
                make_problem(alphas=(a, a),
                             sources=(fields.quadratic(1), fields.quadratic(1, c0=3.0))),
                grid).lam
            assert coupled == pytest.approx(scalar + 1.5, abs=5e-6)


class TestTruncation:
    def test_inert_level_matches_untruncated(self):
        problem = make_problem(gammas=(4.0, 4.0))
        grid = build_grid(1, 6.0, 0.05)
        base = solve_ergodic_normalized(problem, grid)
        inner = np.abs(grid.points[:, 0]) <= grid.radius - 1.0
        h_sup = max(
            float(np.max(problem.hamiltonian.value_raw(
                k, grid.points[inner], gradient_central(grid, base.state(k))[inner])))
            for k in (1, 2))
        truncated = problem.with_hamiltonian(
            truncate_hamiltonian(problem.hamiltonian, level=1.2 * h_sup))
        sol = solve_ergodic_normalized(truncated, grid)
        assert sol.lam == pytest.approx(base.lam, rel=0.01)

    def test_deep_truncation_converges(self):
        problem = make_problem(gammas=(4.0, 4.0))
        truncated = problem.with_hamiltonian(
            truncate_hamiltonian(problem.hamiltonian, level=5.0))
        grid = build_grid(1, 6.0, 0.05)
        sol = solve_ergodic_normalized(truncated, grid)
        assert np.isfinite(sol.lam)

    def test_truncation_requires_driftless(self):
        problem = make_problem(
            gammas=(4.0, 4.0),
            drifts=(fields.DriftField(1, (0.5,)), fields.DriftField(1)))
        with pytest.raises(ParameterError, match="driftless"):
            truncate_hamiltonian(problem.hamiltonian, level=5.0)


class TestNestedDomains:
    def test_quadratic_monotone_sequence(self, quadratic_1d):
        sol = nested_domains(quadratic_1d, [3.0, 4.0, 5.0, 6.0], h=0.05)
        lams = [lam for _, lam in sol.history]
        assert all(b <= a + 1e-3 for a, b in zip(lams, lams[1:]))
        assert sol.lam == pytest.approx(SQRT2, rel=0.01)
        assert np.allclose(sol.minimizers[-1], sol.minimizers[-2])

    def test_trig_source_sequence(self):
        f = fields.trig_power(1, beta1=2.0, beta2=0.5)
        problem = make_problem(sources=(f, f))
        sol = nested_domains(problem, [4.0, 5.0, 6.0], h=0.05)
        lams = [lam for _, lam in sol.history]
        assert all(b <= a + 1e-3 for a, b in zip(lams, lams[1:]))
        assert np.allclose(sol.minimizers[-1], sol.minimizers[-2], atol=0.025)

    def test_single_leg_degenerate(self, quadratic_1d):
        sol = nested_domains(quadratic_1d, [4.0], h=0.1)
        assert len(sol.history) == 1

    def test_rejects_nonincreasing_schedule(self, quadratic_1d):
        with pytest.raises(ParameterError):
            nested_domains(quadratic_1d, [4.0, 4.0], h=0.1)


class TestExtractControl:
    def test_quadratic_control_linear(self, quadratic_1d):
        grid = build_grid(1, 6.0, 0.05)
        sol = solve_ergodic_normalized(quadratic_1d, grid)
        control = extract_control(quadratic_1d, sol)
        x = grid.points[:, 0]
        window = np.abs(x) <= 3.0
        assert np.max(np.abs(control.values[0][window, 0] - SQRT2 * x[window])) <= 0.05
        assert control.duality_residual <= 1e-8

    def test_constant_value_gives_zero_control(self, quadratic_1d):
        grid = build_grid(1, 2.0, 0.1)
        flat = ErgodicSolution(grid=grid, u=np.full((2, grid.n_nodes), 3.0), lam=0.0,
                               residual=0.0, iterations=0, method="manual")
        control = extract_control(quadratic_1d, flat)
        assert np.allclose(control.values, 0.0, atol=1e-12)
        assert control.duality_residual <= 1e-12


# -- exact identities of the eigenvalue map ----------------------------------

def _random_problem(draw_seed):
    """1D problem with different data per state: gamma, scalar metric, drift,
    constant rate and a quadratic or trig-modulated source."""
    rng = np.random.default_rng(draw_seed)
    sources = tuple(fields.quadratic(1, (rng.uniform(0.5, 2.0),), c0=rng.uniform(-1.0, 1.0))
                    if rng.random() < 0.5 else
                    fields.trig_power(1, rng.uniform(1.5, 2.5), rng.uniform(0.2, 1.0))
                    for _ in range(2))
    return make_problem(
        gammas=tuple(rng.uniform(1.5, 3.0, 2)), alphas=tuple(rng.uniform(0.5, 2.0, 2)),
        sources=sources, drifts=tuple(fields.DriftField(1, (rng.uniform(-0.5, 0.5),))
                                      for _ in range(2)),
        metrics=tuple(fields.constant_metric(1, [[rng.uniform(0.5, 2.0)]]) for _ in range(2)))


def _shared_solve(problem, grid, base):
    """Direct solve with the wall, control cap and tolerance of ``base``, so a
    change of the data does not leak into them."""
    pen = replace(default_penalty(base), cap=solver.wall_cap(base, grid))
    opts = SolverOptions(control_cap=control_cap(base, grid),
                         tol_pde=1e-9 * solver._source_scale(base, grid))
    return solve_ergodic_normalized(problem, grid, penalty=pen, opts=opts)


# each draw is three 1D solves (and their 2h starts) of at most 81 nodes per state; about 2 s
@settings(derandomize=True, deadline=None, database=None, max_examples=12)
@given(draw_seed=st.integers(0, 2**16), h=st.sampled_from([0.1, 0.2]),
       c=st.floats(-3.0, 3.0))
def test_shift_and_swap_identities(draw_seed, h, c):
    # lambda(f + c) = lambda(f) + c with u unchanged, and exchanging the two
    # states' data leaves lambda unchanged and pins the other state's value
    problem = _random_problem(draw_seed)
    grid = build_grid(1, 4.0, h)
    base = _shared_solve(problem, grid, problem)
    scale = 1.0 + abs(base.lam)

    shifted = _shared_solve(problem.with_sources(f.shifted(c) for f in problem.sources),
                            grid, problem)
    assert abs(shifted.lam - base.lam - c) <= 1e-12 * (scale + abs(c))
    assert np.max(np.abs(shifted.u - base.u)) <= 1e-12 * (1.0 + np.max(np.abs(base.u)))

    ham = problem.hamiltonian
    swapped = replace(
        problem, switch_rates=problem.switch_rates[::-1], sources=problem.sources[::-1],
        hamiltonian=replace(ham, gammas=ham.gammas[::-1], metrics=ham.metrics[::-1],
                            drifts=ham.drifts[::-1]))
    other = _shared_solve(swapped, grid, swapped)
    assert abs(other.lam - base.lam) <= 1e-12 * scale
    ref = grid.index_of(problem.ref_point)
    assert np.max(np.abs(other.u[::-1] - (base.u - base.u[1, ref]))) <= (
        1e-12 * (1.0 + np.max(np.abs(base.u))))
