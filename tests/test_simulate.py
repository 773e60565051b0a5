from dataclasses import replace

import numpy as np
import pytest

from ergodic_hjb import fields
from ergodic_hjb.discretize import build_grid
from ergodic_hjb.dual_lp import assemble_lp, build_control_mesh, stationarity_residual
from ergodic_hjb.errors import ParameterError
from ergodic_hjb.simulate import _PATH_CHUNK, FeedbackControl, empirical_measure, simulate_paths
from ergodic_hjb.solver import extract_control, solve_ergodic_normalized
from ergodic_hjb.verify import consistency_report
from tests.conftest import make_problem

SQRT2 = np.sqrt(2.0)


class TestFeedbackControl:
    def test_grid_control_exact_at_nodes(self, quadratic_1d, rng):
        grid = build_grid(1, 2.0, 0.25)
        values = rng.normal(size=(2, grid.n_nodes, 1))
        ctrl = FeedbackControl.from_fields(grid, values)
        for k in (1, 2):
            assert np.allclose(ctrl(grid.points, k), values[k - 1])
        # one state per point, as the step loop calls it
        states = rng.integers(1, 3, size=grid.n_nodes)
        assert np.allclose(ctrl(grid.points, states), values[states - 1, np.arange(grid.n_nodes)])

    def test_grid_control_2d_exact_at_nodes(self, rng):
        grid = build_grid(2, 1.0, 0.5)
        values = rng.normal(size=(2, grid.n_nodes, 2))
        ctrl = FeedbackControl.from_fields(grid, values)
        assert np.allclose(ctrl(grid.points, 2), values[1])
        states = rng.integers(1, 3, size=grid.n_nodes)
        assert np.allclose(ctrl(grid.points, states), values[states - 1, np.arange(grid.n_nodes)])

    def test_presets(self):
        z = FeedbackControl.zero(3.0)
        lin = FeedbackControl.linear(3.0, 2.0)
        x = np.array([[0.5], [-1.0]])
        assert np.allclose(z(x, 1), 0.0)
        assert np.allclose(lin(x, 1), 2.0 * x)


class TestSimulatePaths:
    def test_constant_cost_exact(self):
        # zero dynamics, f = c: the tail average is identically c
        problem = make_problem(sources=(fields.constant(1, 2.5), fields.constant(1, 2.5)))
        est = simulate_paths(problem, FeedbackControl.zero(50.0), horizon=1.0,
                             dt=1e-2, paths=16, seed=1)
        assert est.avg_cost == pytest.approx(2.5, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_state_occupancy_two_state_chain(self):
        # rates (2, 1): stationary fraction in state 1 is 1/3
        problem = make_problem(alphas=(2.0, 1.0))
        ctrl = FeedbackControl.linear(6.0, SQRT2)
        est = simulate_paths(problem, ctrl, horizon=10.0, dt=1e-3, paths=1024, seed=3)
        sigma = np.sqrt(2 * (1 / 3) * (2 / 3) * (1 / 3) / 9.0 / 1024)
        assert abs(est.state_fraction[0] - 1 / 3) <= 3 * sigma + 2e-3

    def test_ou_benchmark_optimal_control(self, quadratic_1d):
        # dX = -sqrt(2) X dt + sqrt(2) dW: stationary E[X^2] = 1/sqrt(2);
        # running cost 2 X^2 averages to sqrt(2)
        ctrl = FeedbackControl.linear(6.0, SQRT2)
        est = simulate_paths(quadratic_1d, ctrl, horizon=20.0, dt=1e-3, paths=3000, seed=11)
        assert abs(est.avg_cost - SQRT2) <= max(3 * est.std_error, 0.05 * SQRT2)
        assert est.clamp_count == 0

    def test_suboptimal_control_strictly_worse(self, quadratic_1d):
        # xi = 2x: OU with rate 2, E[X^2] = 1/2, cost 3 E[X^2] = 1.5 > sqrt(2)
        ctrl = FeedbackControl.linear(6.0, 2.0)
        est = simulate_paths(quadratic_1d, ctrl, horizon=20.0, dt=1e-3, paths=3000, seed=12)
        assert est.avg_cost == pytest.approx(1.5, rel=0.03)
        assert est.avg_cost - SQRT2 > 3 * est.std_error

    def test_seed_determinism_and_threads(self, quadratic_1d):
        ctrl = FeedbackControl.linear(6.0, SQRT2)
        a = simulate_paths(quadratic_1d, ctrl, horizon=1.0, dt=1e-3, paths=64, seed=9)
        b = simulate_paths(quadratic_1d, ctrl, horizon=1.0, dt=1e-3, paths=64, seed=9)
        c = simulate_paths(quadratic_1d, ctrl, horizon=1.0, dt=1e-3, paths=64, seed=9,
                           threads=3)
        assert a.avg_cost == b.avg_cost == c.avg_cost
        assert np.array_equal(a.tail_averages, c.tail_averages)
        d = simulate_paths(quadratic_1d, ctrl, horizon=1.0, dt=1e-3, paths=64, seed=10)
        assert d.avg_cost != a.avg_cost

    def test_two_chunks_threads_and_prefix(self, quadratic_1d):
        # two path chunks reach the thread pool; chunk boundaries fix the draws
        ctrl = FeedbackControl.linear(6.0, SQRT2)
        kw = dict(horizon=5e-3, dt=1e-3, burn_in=0.0, seed=9)
        serial = simulate_paths(quadratic_1d, ctrl, paths=_PATH_CHUNK + 64, **kw)
        pooled = simulate_paths(quadratic_1d, ctrl, paths=_PATH_CHUNK + 64, threads=2, **kw)
        assert np.array_equal(serial.tail_averages, pooled.tail_averages)
        one_chunk = simulate_paths(quadratic_1d, ctrl, paths=_PATH_CHUNK, **kw)
        assert np.array_equal(serial.tail_averages[:_PATH_CHUNK], one_chunk.tail_averages)

    def test_step_refinement_stable(self, quadratic_1d):
        ctrl = FeedbackControl.linear(6.0, SQRT2)
        coarse = simulate_paths(quadratic_1d, ctrl, horizon=10.0, dt=2e-3, paths=1500, seed=21)
        fine = simulate_paths(quadratic_1d, ctrl, horizon=10.0, dt=1e-3, paths=1500, seed=22)
        assert abs(coarse.avg_cost - fine.avg_cost) <= 3 * (coarse.std_error + fine.std_error)

    def test_constant_rate_offset(self):
        # a rate of value 2 switches alike in every form: a constant c + offset, as the
        # PDE and the LP evaluate it, and a quadratic form with zero weights
        plain = make_problem(alphas=(2.0, 1.0))
        ctrl = FeedbackControl.linear(6.0, SQRT2)
        a, b, c = (simulate_paths(replace(plain, switch_rates=(rate, plain.switch_rates[1])),
                                  ctrl, horizon=2.0, dt=1e-3, paths=128, seed=8)
                   for rate in (fields.constant(1, 2.0), fields.constant(1, 1.0).shifted(1.0),
                                fields.quadratic(1, (0.0,), c0=2.0)))
        for other in (b, c):
            assert other.switch_count == a.switch_count
            assert other.state_fraction == a.state_fraction
            assert other.mean_rate == a.mean_rate
            assert np.array_equal(other.tail_averages, a.tail_averages)

    def test_switch_intensity_matches_rates(self):
        problem = make_problem(alphas=(2.0, 1.0))
        ctrl = FeedbackControl.linear(6.0, SQRT2)
        est = simulate_paths(problem, ctrl, horizon=10.0, dt=1e-3, paths=1024, seed=6)
        for i in range(2):
            expected = est.mean_rate[i]
            observed = est.switch_intensity[i]
            sigma = np.sqrt(expected / (est.state_fraction[i] * 1024 * 9.0))
            assert abs(observed - expected) <= 3 * sigma + 0.01 * expected

    def test_mixed_exponents_agree_with_the_pde(self):
        # every state prices its cost through its own exponent, so the extracted
        # control's average cost matches lambda for gamma = (2, 3) as for equal ones
        problem = make_problem(gammas=(2.0, 3.0))
        solution = solve_ergodic_normalized(problem, build_grid(1, 6.0, 0.05))
        est = simulate_paths(problem, extract_control(problem, solution), horizon=20.0,
                             dt=2e-3, paths=2000, burn_in=0.1, seed=0)
        report = consistency_report(solution.lam, None, est.avg_cost, est.std_error)
        assert report.passed, report.narrative
        assert est.clamp_count == 0

    def test_guards(self, quadratic_1d):
        ctrl = FeedbackControl.zero(6.0)
        with pytest.raises(ParameterError):
            simulate_paths(quadratic_1d, ctrl, horizon=1.0, dt=0.2, paths=4, seed=0)
        with pytest.raises(ParameterError):
            simulate_paths(make_problem(alphas=(30.0, 30.0)), ctrl, horizon=1.0,
                           dt=1e-2, paths=4, seed=0)
        with pytest.raises(ParameterError):
            simulate_paths(quadratic_1d, ctrl, horizon=1.0, dt=float("nan"), paths=4, seed=0)
        for bad in ({"seed": -1}, {"seed": 1.5}, {"seed": 2**64}, {"threads": 0},
                    {"threads": "2"}):
            with pytest.raises(ParameterError):
                simulate_paths(quadratic_1d, ctrl, horizon=1.0, dt=1e-2, paths=4,
                               **{"seed": 0, **bad})
        # runs that tally no step: a horizon below half a step, a burn-in over every step
        with pytest.raises(ParameterError, match="tallies no step"):
            simulate_paths(quadratic_1d, ctrl, horizon=4e-4, dt=1e-3, paths=4, seed=0)
        with pytest.raises(ParameterError, match="tallies no step"):
            simulate_paths(quadratic_1d, ctrl, horizon=2e-3, dt=1e-3, paths=4, seed=0,
                           burn_in=0.9)


def _pinned_run(dim, rates):
    """A short run with a grid control and sources that differ between the states."""
    grid = build_grid(dim, 3.0, 0.25 if dim == 1 else 0.5)
    x = grid.points
    ctrl = FeedbackControl.from_fields(grid, np.stack([SQRT2 * x, 1.2 * x + 0.1 * np.sin(3.0 * x)]))
    problem = make_problem(dim=dim, alphas=(1.5, 0.7),
                           sources=(fields.quadratic(dim), fields.quadratic(dim).shifted(1.0)))
    if rates == "x-dependent":
        problem = replace(problem, switch_rates=(fields.quadratic(dim, (0.2,) * dim, c0=0.5),
                                                 fields.quadratic(dim, (0.1,) * dim, c0=1.0)))
    return simulate_paths(problem, ctrl, horizon=2.0, dt=5e-3, paths=64, seed=13)


# exact (avg_cost, std_error, switch_count): a change here means the draw layout or
# the arithmetic of the step loop changed, which must be deliberate and reported;
# the last key part names the switching rule, the integrated-intensity Exp(1) clock
PINNED = {
    ("1d", "constant", "exponential"): (1.7281231862907251, 0.09176689050249606, 128),
    ("1d", "x-dependent", "exponential"): (1.4320469932756585, 0.08526312223764507, 92),
    ("2d", "constant", "exponential"): (2.860089730675118, 0.13741851643805428, 118),
    ("2d", "x-dependent", "exponential"): (3.247077476325772, 0.17927737612600683, 108),
}


@pytest.mark.parametrize("case", sorted(PINNED), ids="-".join)
def test_estimates_pinned(case):
    dim, rates, _ = case
    est = _pinned_run(int(dim[0]), rates)
    assert (est.avg_cost, est.std_error, est.switch_count) == PINNED[case]


def _box_run(dim, problem=None):
    """64 paths under a two-state grid control on a box of radius 1 that they leave."""
    grid = build_grid(dim, 1.0, 0.25)
    x = grid.points
    ctrl = FeedbackControl.from_fields(grid, np.stack([0.5 * x, -0.5 * x]))
    if problem is None:
        problem = make_problem(dim=dim, alphas=(1.5, 0.7),
                               sources=(fields.quadratic(dim), fields.quadratic(dim).shifted(1.0)))
    return simulate_paths(problem, ctrl, horizon=1.0, dt=1e-2, paths=64, seed=5,
                          record_samples=True)


# exact (clamp_count, avg_cost) of _box_run: the count is of entries with |x| > radius
# over every step, whichever test decides that a step has one
CLAMPED = {1: (579, 0.9306593043252607), 2: (906, 1.3143111511561725)}


@pytest.mark.parametrize("dim", [1, 2])
def test_clamp_count_pinned(dim):
    est = _box_run(dim)
    assert (est.clamp_count, est.avg_cost) == CLAMPED[dim]


def test_equal_states_price_once():
    # equal state data take the one-evaluation path; writing state 2's metric as an
    # explicit identity makes the states unequal as dataclasses, so that problem takes
    # the two-evaluation path, and both must give the same bits
    equal = make_problem(dim=2, alphas=(1.5, 0.7))
    explicit = make_problem(dim=2, alphas=(1.5, 0.7), metrics=(
        fields.identity_metric(2), fields.constant_metric(2, np.eye(2))))
    assert explicit.hamiltonian.metric(1) != explicit.hamiltonian.metric(2)
    a, b = _box_run(2, equal), _box_run(2, explicit)
    assert (a.avg_cost, a.std_error, a.switch_count) == (b.avg_cost, b.std_error, b.switch_count)
    assert np.array_equal(a.tail_averages, b.tail_averages)
    assert np.array_equal(a.samples.cost, b.samples.cost)


class TestEmpiricalMeasure:
    def test_unit_mass_and_rare_state(self):
        # state 2 nearly absorbing into 1: mass concentrates in state 1
        problem = make_problem(alphas=(0.01, 5.0))
        ctrl = FeedbackControl.linear(6.0, SQRT2)
        est = simulate_paths(problem, ctrl, horizon=5.0, dt=1e-3, paths=256, seed=4,
                             record_samples=True)
        grid = build_grid(1, 6.0, 0.5)
        mesh = build_control_mesh(problem, grid, magnitudes=np.arange(0, 10.5, 0.5))
        mu = empirical_measure(est.samples, grid, mesh)
        assert mu.mass == pytest.approx(1.0, abs=1e-12)
        assert mu.state_mass(1) > 0.95

    def test_feasible_for_lp_within_noise(self, quadratic_1d):
        sol = solve_ergodic_normalized(quadratic_1d, build_grid(1, 6.0, 0.05))
        ctrl_field = extract_control(quadratic_1d, sol)
        ctrl = FeedbackControl.from_fields(sol.grid, ctrl_field.values)
        est = simulate_paths(quadratic_1d, ctrl, horizon=20.0, dt=1e-3, paths=2000,
                             seed=5, record_samples=True)
        grid = build_grid(1, 6.0, 0.1)
        mesh = build_control_mesh(quadratic_1d, grid)
        mu = empirical_measure(est.samples, grid, mesh)
        lp = assemble_lp(quadratic_1d, grid, mesh)
        # statistical-noise scale for this configuration measures ~0.14
        assert stationarity_residual(lp, mu) <= 0.5

    def test_requires_samples(self, quadratic_1d):
        est = simulate_paths(quadratic_1d, FeedbackControl.zero(6.0), horizon=0.5,
                             dt=1e-2, paths=4, seed=0)
        grid = build_grid(1, 6.0, 0.5)
        mesh = build_control_mesh(quadratic_1d, grid, magnitudes=(0.0, 1.0))
        with pytest.raises(ParameterError):
            empirical_measure(est.samples, grid, mesh)
