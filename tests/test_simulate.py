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
from ergodic_hjb.solver import extract_control, solve_ergodic_normalized
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
    ("1d", "constant", "exponential"): (1.9323442577443766, 0.12992210134798604, 123),
    ("1d", "equal", "exponential"): (1.8071837795135897, 0.12716783303021756, 112),
    ("1d", "x-dependent", "exponential"): (1.475833503018562, 0.11439304317106695, 91),
    ("2d", "constant", "exponential"): (2.9579957994477812, 0.15732333781171687, 112),
    ("2d", "equal", "exponential"): (2.8028468253686065, 0.15730137214030857, 117),
    ("2d", "x-dependent", "exponential"): (2.8472276195837263, 0.18635977811258528, 97),
}


@pytest.mark.parametrize("case", sorted(PINNED), ids="-".join)
def test_estimates_pinned(case):
    dim, rates, _ = case
    est = _pinned_run(int(dim[0]), rates)
    assert (est.avg_cost, est.std_error, est.switch_count) == PINNED[case]


# exact (mean_rate, state_fraction, clamp_count) of the same runs, and the sha256 of
# the bytes of the kept x, state, control and cost of a record_samples run
PINNED_TALLIES = {
    ("1d", "constant"): ((1.4999999999999956, 0.7000000000000024),
                         (0.4037326388888895, 0.5962673611111104), 0,
                         "b5b839709a1c5f35e31c04b799351eb7d08811b7fa452dfa0e62c189eb1541bb"),
    ("1d", "equal"): ((1.0, 1.0), (0.5263454861111111, 0.47365451388888885), 0,
                      "741112c28f9cda03dfe8252d4546c0ad25b3927e86f193958bc653ad18929cd2"),
    ("1d", "x-dependent"): ((0.614053279267134, 1.0739186843451192),
                            (0.7066406249999995, 0.2933593750000006), 0,
                            "c3c69286424c88471ef0530d4a610deefc450a30dc1e9709874da54b5f1ab04c"),
    ("2d", "constant"): ((1.4999999999999916, 0.6999999999999998),
                         (0.3748263888888893, 0.6251736111111107), 0,
                         "6efe1db635ebb875be9406e6a3dd14554196cfbbef38cb08e0612e98c5050cd3"),
    ("2d", "equal"): ((1.0, 1.0), (0.5993923611111106, 0.4006076388888893), 4,
                      "36fb996b204e099b2be8f354ea57ae36324cd8182187d0d29dba16c4706d489c"),
    ("2d", "x-dependent"): ((0.7484660963157221, 1.1495472348618603),
                            (0.6750434027777771, 0.32495659722222286), 5,
                            "faa9ed8d75450e6f91d1d8395eb516ece4f8780ab9ea19b4e56a8801914ada1a"),
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
CLAMPED = {1: (389, 0.7946043341209422), 2: (987, 1.2540856696318006)}


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
    # chunk 0 draws its paths' Exp(1) clocks, then each step's normals path-major, from
    # SFC64 seeded with SeedSequence([seed, chunk]); under the zero control path 0 sits
    # at its first normals times sqrt(2 dt) after one step
    dt, paths, seed = 1e-2, 3, 11
    est = simulate_paths(make_problem(dim=dim), FeedbackControl.zero(50.0), horizon=0.1, dt=dt,
                         paths=paths, burn_in=0.0, seed=seed)
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, 0])))
    gen.standard_exponential(paths)
    z = gen.standard_normal((paths, dim))
    assert not est.sample_path.x[0].any()
    assert np.array_equal(est.sample_path.x[1], np.sqrt(2.0 * dt) * z[0])


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
