import hashlib
import multiprocessing
import threading
from dataclasses import replace

import numpy as np
import pytest

from ergodic_hjb import fields, simulate
from ergodic_hjb.discretize import build_grid
from ergodic_hjb.dual_lp import assemble_lp, build_control_mesh
from ergodic_hjb.errors import CoefficientError, ParameterError
from ergodic_hjb.model import truncate_hamiltonian
from ergodic_hjb.simulate import (
    _PATH_CHUNK, FeedbackControl, empirical_measure, simulate_controls, simulate_paths)
from ergodic_hjb.solver import extract_control, feedback_law, solve_ergodic_normalized
from ergodic_hjb.verify import consistency_report
from tests.conftest import make_problem, stationarity_residual, with_hamiltonian

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


def _pinned_problem(dim, rates):
    """A grid control and a problem whose sources differ between the states.

    ``rates`` is ``constant`` (unequal x-free rates), ``equal`` (equal x-free
    rates, as in the bundled problem) or ``x-dependent``.
    """
    grid = build_grid(dim, 3.0, 0.25 if dim == 1 else 0.5)
    x = grid.points
    ctrl = FeedbackControl.from_fields(grid, np.stack([SQRT2 * x, 1.2 * x + 0.1 * np.sin(3.0 * x)]))
    problem = make_problem(dim=dim, alphas=(1.0, 1.0) if rates == "equal" else (1.5, 0.7),
                           sources=(fields.quadratic(dim), fields.quadratic(dim).shifted(1.0)))
    if rates == "x-dependent":
        problem = replace(problem, switch_rates=(fields.quadratic(dim, (0.2,) * dim, c0=0.5),
                                                 fields.quadratic(dim, (0.1,) * dim, c0=1.0)))
    return problem, ctrl


PINNED_RUN = dict(horizon=2.0, dt=5e-3, paths=64, seed=13)


def _pinned_run(dim, rates, record_samples=False):
    """A short run of ``_pinned_problem``."""
    problem, ctrl = _pinned_problem(dim, rates)
    return simulate_paths(problem, ctrl, record_samples=record_samples, **PINNED_RUN)


# exact (avg_cost, std_error, switch_count): a change here means the draw layout or
# the arithmetic of the step loop changed, which must be deliberate and reported;
# the last key part names the switching rule, the integrated-intensity Exp(1) clock
PINNED = {
    ("1d", "constant", "exponential"): (1.9921572959779272, 0.10898259132274894, 119),
    ("1d", "equal", "exponential"): (2.0097090094536734, 0.15104560517889323, 111),
    ("1d", "x-dependent", "exponential"): (1.7362805878880994, 0.1240195678226829, 85),
    ("2d", "constant", "exponential"): (3.1695504391824647, 0.15472163095138627, 106),
    ("2d", "equal", "exponential"): (3.2514415858672656, 0.21704395091273995, 118),
    ("2d", "x-dependent", "exponential"): (3.236148289268347, 0.20191118622699034, 112),
}


@pytest.mark.parametrize("case", sorted(PINNED), ids="-".join)
def test_estimates_pinned(case):
    dim, rates, _ = case
    est = _pinned_run(int(dim[0]), rates)
    assert (est.avg_cost, est.std_error, est.switch_count) == PINNED[case]


# exact (mean_rate, state_fraction, clamp_count) of the same runs, and the sha256 of
# the bytes of the kept x, state, control and cost of a record_samples run
PINNED_TALLIES = {
    ("1d", "constant"): ((1.4999999999999962, 0.700000000000002),
                         (0.38789062500000004, 0.612109375), 7,
                         "8559399fc5e093d96422d04338177c82837a6b7e4ffe0fe6dafc6301cf3f8bb9"),
    ("1d", "equal"): ((1.0, 1.0), (0.5667100694444441, 0.4332899305555558), 6,
                      "235fabd0d9d99e3c01a488f7b9680ca8a969da166989829e7446e5dedccbba2e"),
    ("1d", "x-dependent"): ((0.6395807721386546, 1.0803933125127156),
                            (0.6573784722222229, 0.342621527777777), 0,
                            "529f27b44aa0b0189b76ee970bd17c94c644834962ad4c8bfaee61be351750ae"),
    ("2d", "constant"): ((1.4999999999999962, 0.7000000000000005),
                         (0.39136284722222175, 0.6086371527777782), 8,
                         "38e427cd0bf11ef7c87069256ae19147af4faa2d36637e0285bc3b8a43593bd3"),
    ("2d", "equal"): ((1.0, 1.0), (0.558159722222222, 0.44184027777777807), 1,
                      "f575af70988525591e6ad42489d77ecaf0f6129c4d80093cc3a7d5e2900b602d"),
    ("2d", "x-dependent"): ((0.7708418034207621, 1.1760173410444805),
                            (0.603732638888889, 0.396267361111111), 3,
                            "1eb62a8e4ca875c4f6b5f6d5158a3e41c11f81806acea5ce6ad438e6f7a5feb7"),
}


@pytest.mark.parametrize("case", sorted(PINNED_TALLIES), ids="-".join)
def test_tallies_and_samples_pinned(case):
    dim, rates = case
    est = _pinned_run(int(dim[0]), rates, record_samples=True)
    # keeping samples draws nothing, so the estimate is the pinned one
    assert (est.avg_cost, est.std_error, est.switch_count) == PINNED[(dim, rates, "exponential")]
    s = est.samples
    assert s.stride == 1 and s.x.shape == (360 * 64, int(dim[0])) and s.state.dtype == np.int64
    digest = hashlib.sha256(b"".join(v.tobytes() for v in (s.x, s.state, s.control, s.cost)))
    assert (est.mean_rate, est.state_fraction, est.clamp_count,
            digest.hexdigest()) == PINNED_TALLIES[case]


@pytest.mark.parametrize("horizon, dt, burn_in", [
    (1.05, 0.1, 0.1), (0.37, 0.01, 0.25), (2.0, 0.3, 0.2), (1.0, 1e-2, 0.1)])
def test_constant_cost_over_the_tallied_time(horizon, dt, burn_in):
    # the tallied time is (steps - burn-in steps) * dt, which the nominal
    # horizon * (1 - burn_in) misses when either is not a whole number of steps
    problem = make_problem(sources=(fields.constant(1, 2.5), fields.constant(1, 2.5)),
                           alphas=(0.3, 0.3))
    est = simulate_paths(problem, FeedbackControl.zero(50.0), horizon=horizon, dt=dt,
                         paths=16, burn_in=burn_in, seed=1)
    assert est.avg_cost == pytest.approx(2.5, abs=1e-12)
    assert np.all(np.abs(est.tail_averages - 2.5) <= 1e-12)


BOX_RUN = dict(horizon=1.0, dt=1e-2, paths=64, seed=5)


def _box_control(dim):
    """A two-state grid control on a box of radius 1 that its paths leave."""
    grid = build_grid(dim, 1.0, 0.25)
    x = grid.points
    return FeedbackControl.from_fields(grid, np.stack([0.5 * x, -0.5 * x]))


def _box_run(dim, problem=None):
    """64 paths under ``_box_control``."""
    if problem is None:
        problem = make_problem(dim=dim, alphas=(1.5, 0.7),
                               sources=(fields.quadratic(dim), fields.quadratic(dim).shifted(1.0)))
    return simulate_paths(problem, _box_control(dim), record_samples=True, **BOX_RUN)


# exact (clamp_count, avg_cost) of _box_run: the count is of entries with |x| > radius
# over every step, whichever test decides that a step has one
CLAMPED = {1: (553, 0.8397416790326784), 2: (1231, 1.2878249762922092)}


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


def _assert_same_estimate(a, b):
    """Every output of two estimates is equal, bit for bit."""
    for name in ("avg_cost", "std_error", "switch_count", "clamp_count", "state_fraction",
                 "switch_intensity", "mean_rate"):
        assert getattr(a, name) == getattr(b, name), name
    assert np.array_equal(a.tail_averages, b.tail_averages)
    for kept in ("samples", "sample_path"):
        sa, sb = getattr(a, kept), getattr(b, kept)
        assert (sa is None) == (sb is None), kept
        if sa is not None:
            assert (sa.stride, sa.start) == (sb.stride, sb.start), kept
            for column in ("x", "state", "control", "cost"):
                va, vb = getattr(sa, column), getattr(sb, column)
                assert va.dtype == vb.dtype and np.array_equal(va, vb), (kept, column)


def _three_controls(problem, ctrl, run):
    """``ctrl``, a linear and a zero control, each estimated alone and all at once."""
    controls = (ctrl, FeedbackControl.linear(3.0, 2.0), FeedbackControl.zero(ctrl.radius))
    solo = [simulate_paths(problem, c, **run) for c in controls]
    return solo, simulate_controls(problem, controls, **run)


@pytest.mark.parametrize("rates", ["constant", "equal", "x-dependent"])
@pytest.mark.parametrize("dim", [1, 2])
def test_controls_share_draws_bit_for_bit(dim, rates):
    # unequal sources; x-free rates share one step loop, x-dependent ones take a loop each
    problem, ctrl = _pinned_problem(dim, rates)
    solo, joint = _three_controls(problem, ctrl, {**PINNED_RUN, "record_samples": True})
    assert len(joint) == 3
    for a, b in zip(solo, joint):
        _assert_same_estimate(a, b)
    assert solo[0].avg_cost == PINNED[(f"{dim}d", rates, "exponential")][0]
    # the switching is shared by every control when the rates are x-free
    shared = len({(e.switch_count, e.state_fraction) for e in joint}) == 1
    assert shared == (rates != "x-dependent")


@pytest.mark.parametrize("dim", [1, 2])
def test_controls_clamp_on_their_own_boxes(dim):
    # the box control and the zero one leave their box of radius 1; the linear
    # one, whose paths pass 1 too, never leaves its box of radius 3
    problem = make_problem(dim=dim, alphas=(1.5, 0.7),
                           sources=(fields.quadratic(dim), fields.quadratic(dim).shifted(1.0)))
    solo, joint = _three_controls(problem, _box_control(dim), {**BOX_RUN, "record_samples": True})
    for a, b in zip(solo, joint):
        _assert_same_estimate(a, b)
    assert (joint[0].clamp_count, joint[0].avg_cost) == CLAMPED[dim]
    assert joint[1].clamp_count == 0 and np.abs(joint[1].samples.x).max() > 1.0
    assert 0 < joint[0].clamp_count != joint[2].clamp_count > 0


@pytest.mark.parametrize("rates", ["equal", "x-dependent"])
def test_controls_same_bits_across_threads(rates):
    # two path chunks per control reach the pool at threads 3
    problem, ctrl = _pinned_problem(2, rates)
    run = dict(horizon=2.5e-2, dt=5e-3, burn_in=0.2, paths=_PATH_CHUNK + 64, seed=13)
    solo, serial = _three_controls(problem, ctrl, run)
    pooled = simulate_controls(problem, (ctrl, FeedbackControl.linear(3.0, 2.0),
                                         FeedbackControl.zero(ctrl.radius)), threads=3, **run)
    for a, b, c in zip(solo, serial, pooled):
        _assert_same_estimate(a, b)
        _assert_same_estimate(b, c)


def test_pooled_run_pickles_a_truncated_problem():
    # the worker processes receive the problem, ramp envelopes included, and the
    # grid control by pickling; two path chunks of one control reach the pool
    base, ctrl = _pinned_problem(1, "x-dependent")
    problem = with_hamiltonian(
        base, truncate_hamiltonian(replace(base.hamiltonian, gammas=(4.0, 3.0)), level=6.0))
    assert all(e is not None for e in problem.hamiltonian._envelopes)
    run = dict(horizon=2.5e-2, dt=5e-3, burn_in=0.2, paths=_PATH_CHUNK + 64, seed=13,
               record_samples=True)
    serial = simulate_paths(problem, ctrl, threads=1, **run)
    pooled = simulate_paths(problem, ctrl, threads=2, **run)
    _assert_same_estimate(serial, pooled)


WORKER_FAILURE = "metric is not positive definite at x = (3.1)"


def _failing_chunk(*args):
    """Stands in for ``simulate._simulate_chunk`` in a worker that fails."""
    raise CoefficientError(WORKER_FAILURE)


def test_worker_failure_surfaces_and_leaves_no_worker(monkeypatch, quadratic_1d):
    # the stand-in is module-level, so the pool sends it by reference to the forked
    # workers, which inherit this module; the first failed chunk's error is raised
    # in the caller, and the pool's processes and thread are gone
    monkeypatch.setattr(simulate, "_simulate_chunk", _failing_chunk)
    threads_before = threading.active_count()
    with pytest.raises(CoefficientError) as exc:
        simulate_paths(quadratic_1d, FeedbackControl.linear(6.0, SQRT2), horizon=5e-3, dt=1e-3,
                       paths=_PATH_CHUNK + 64, threads=2)
    assert type(exc.value) is CoefficientError and str(exc.value) == WORKER_FAILURE
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("dim", [1, 2])
def test_stream_is_sfc64_keyed_by_seed_and_chunk(dim):
    # chunk 0 draws its paths' Exp(1) clocks, then one start uniform per path, then each
    # step's uniforms path-major, from SFC64 seeded with SeedSequence([seed, chunk]).
    # Under the zero control path 0 starts at the origin and sits at
    # copysign(sqrt(2 dt), u - 0.5) after one step; a grid control's path 0 starts at
    # the first node where the CDF of its law in state 1 exceeds its start uniform
    dt, paths, seed = 1e-2, 3, 11
    run = dict(horizon=0.1, dt=dt, paths=paths, burn_in=0.0, seed=seed)
    est = simulate_paths(make_problem(dim=dim), FeedbackControl.zero(50.0), **run)
    problem, ctrl = _pinned_problem(dim, "constant")
    started = simulate_paths(problem, ctrl, **run)
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, 0])))
    gen.standard_exponential(paths)
    start = gen.random(paths)
    u = gen.random((paths, dim))
    assert not est.sample_path.x[0].any()
    assert np.array_equal(est.sample_path.x[1], np.copysign(np.sqrt(2.0 * dt), u[0] - 0.5))
    cdf = np.cumsum(np.maximum(feedback_law(problem, ctrl.grid, ctrl.values)[0], 0.0))
    node = np.argmax(cdf / cdf[-1] > start[0])
    assert np.array_equal(started.sample_path.x[0], ctrl.grid.points[node])
    assert started.sample_path.state[0] == 1


def test_grid_control_starts_without_startup_bias(quadratic_1d):
    # the pipeline's small run (R = 4, h = 0.1 direct solve, 128 paths, horizon 2,
    # burn-in 0.1) at seeds 1-10: the mean of avg_cost - lambda lies within 3 of its
    # standard errors of 0.  Paths started at the origin, the mode of the law and the
    # cheapest place, read -0.12, about 6 standard errors
    solution = solve_ergodic_normalized(quadratic_1d, build_grid(1, 4.0, 0.1))
    ctrl = extract_control(quadratic_1d, solution)
    gaps = [simulate_paths(quadratic_1d, ctrl, horizon=2.0, dt=1e-3, paths=128, burn_in=0.1,
                           seed=seed).avg_cost - solution.lam for seed in range(1, 11)]
    assert abs(np.mean(gaps)) <= 3 * np.std(gaps, ddof=1) / np.sqrt(len(gaps))


def test_sample_path_is_path_zero_of_the_kept_stream():
    # with stride 1 the kept stream holds every tallied step of every path; the
    # sample path is path 0 of it, from the first tallied step on
    problem, ctrl = _pinned_problem(1, "constant")
    est = _pinned_run(1, "constant", record_samples=True)
    s, p = est.samples, est.sample_path
    assert s.stride == p.stride == 1 and s.start == p.start == 40
    rows = np.arange(p.x.shape[0]) * PINNED_RUN["paths"]
    assert p.x.shape[0] == 360
    for column in ("x", "state", "control", "cost"):
        assert np.array_equal(getattr(p, column), getattr(s, column)[rows])
    # and it stops after 5000 tallied steps
    long = simulate_paths(problem, ctrl, horizon=6.0, dt=1e-3, paths=2, seed=1)
    assert long.sample_path.x.shape == (5000, 1) and long.sample_path.start == 600


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
