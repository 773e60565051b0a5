"""Monte Carlo validation of the eigenvalue via the controlled switching diffusion.

Simulates the regime-switching diffusion whose extended generator matches the
discretized operator: under a feedback field xi the continuous component
moves with drift ``-xi(X, S)`` and diffusion ``sqrt(2) dW`` (the unit
Laplacian in the generator fixes the noise scale), while the discrete
component switches 1 <-> 2 with intensities ``alpha_k(X)``.  The Brownian
increment of a step is two-point, ``+-sqrt(2 dt)`` on each axis with equal
chances: the simplified weak Euler scheme, of the same weak order 1 as
Gaussian increments (Kloeden & Platen, Numerical Solution of SDEs, 14.1).
Paths start in state 1; under a grid control (the solver's extracted field)
they start at nodes drawn from the stationary law of the control's own
discrete chain conditioned on state 1 (``solver.feedback_law``, Kushner &
Dupuis, 2001), so that a short run carries no start-up transient from the
origin, and under an analytic control at the origin.  The switching
time comes from the integrated intensity (Yin & Zhu, Hybrid Switching
Diffusions, 2010): each path holds an Exp(1) clock that every step runs down
by ``alpha_S(X) dt``, and the path switches when its clock reaches 0, drawing
a fresh clock; no step draws anything for switching otherwise.  Each path's
state, the state-1 indicator and the state-1 count persist across steps and
change only at the indices of the paths that switched.  The long-run
average of ``f_S(X) + l_S(X, xi(X, S))`` estimates the eigenvalue when xi is
the extracted optimal feedback, and strictly exceeds it for other fields.
When the two states have equal source and Hamiltonian data (gamma, metric,
drift; the truncation is shared), that running cost is one evaluation for
every path; otherwise both states' costs are evaluated and each path keeps
its own state's.
The feedback is a ``discretize.FeedbackControl``: the solver's extracted
field (interpolated multilinearly between nodes) or an analytic one.
When both rates are x-free (their ``evaluator()`` returns a constant), the
per-path rate and ``rate * dt`` are built once per path chunk and rebuilt only
at the paths that switched, never when the two rates are equal.  Every
control writes its feedback into one preallocated buffer.

Randomness comes from one SFC64 stream per fixed path chunk, seeded with
``SeedSequence([seed, chunk index])`` so that the chunks' streams are
independent.  A chunk first draws one Exp(1) clock per path, then one start
uniform per path (drawn whatever the controls, and mapped through each grid
control's inverse CDF); each step then draws one uniform ``u`` per path and
axis, path-major, whose increment is ``copysign(sqrt(2 dt), u - 0.5)``, then
one Exp(1) clock per switching path in path order.  Every start law is
computed once per call, in the calling process, before any worker forks.
Accumulation is an ordered reduction over the path axis, so estimates are
bit-identical across serial and pooled runs, where ``threads`` forked worker
processes run the path chunks.
The stream does not depend on the control, and with x-free rates neither do a
path's switches, so several controls estimated at once (``simulate_controls``)
share one step loop: one set of increments, clocks and flips serves them all,
and each control's estimate is the one it gets alone, bit for bit.  Every
estimate keeps path 0 over its first tallied steps as its sample path.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .discretize import FeedbackControl, Grid
from .dual_lp import ControlMesh, OccupationMeasure
from .errors import ParameterError, WorkerError
from .fields import number
from .model import ProblemSpec, STATES
from .solver import feedback_law


@dataclass(frozen=True)
class SimulationSamples:
    """Thinned (position, state, control, running cost) stream of kept steps.

    ``start`` is the first kept step and ``stride`` the number of steps from
    one kept step to the next.
    """

    x: np.ndarray
    state: np.ndarray
    control: np.ndarray
    cost: np.ndarray
    stride: int
    start: int = 0


@dataclass(frozen=True)
class SimulationEstimate:
    avg_cost: float
    std_error: float
    tail_averages: np.ndarray
    switch_count: int
    clamp_count: int
    state_fraction: tuple[float, float]
    switch_intensity: tuple[float, float]
    mean_rate: tuple[float, float]
    horizon: float
    dt: float
    paths: int
    burn_in: float
    seed: int
    samples: SimulationSamples | None = None
    # path 0 over its first tallied steps (at most _SAMPLE_PATH_STEPS), every step kept
    sample_path: SimulationSamples | None = None

    def to_dict(self) -> dict:
        return {
            "avg_cost": self.avg_cost, "std_error": self.std_error,
            "switch_count": self.switch_count, "clamp_count": self.clamp_count,
            "state_fraction": list(self.state_fraction),
            "switch_intensity": list(self.switch_intensity),
            "horizon": self.horizon, "dt": self.dt, "paths": self.paths,
            "burn_in": self.burn_in, "seed": self.seed,
        }


# fixed path-chunk size: the draw layout (and hence every estimate) is independent
# of the worker count; a path's draws depend on the size of its chunk, so only
# whole chunks keep their draws when the path total changes
_PATH_CHUNK = 8192
# rows the record_samples stream keeps, about: the stride is set to reach it
_SAMPLE_TARGET = 200_000
# tallied steps of path 0 that every estimate keeps as its sample path
_SAMPLE_PATH_STEPS = 5000


def _rates(problem: ProblemSpec):
    """Both states' rate evaluators, and whether both are x-free (return a scalar)."""
    alphas = tuple(problem.switch_rate(k).evaluator() for k in STATES)
    probe = np.zeros((1, problem.dimension))
    return alphas, all(np.ndim(a(probe)) == 0 for a in alphas)


def _start_cdf(problem: ProblemSpec, control: FeedbackControl) -> np.ndarray | None:
    """CDF over the nodes of a grid control's stationary law in state 1; None for an
    analytic control, whose paths start at the origin."""
    if control.kind != "grid":
        return None
    law = np.maximum(feedback_law(problem, control.grid, control.values)[0], 0.0)
    cdf = np.cumsum(law)
    return cdf / cdf[-1]


def _simulate_chunk(problem, controls, starts, n_steps, dt, chunk, n_paths, burn_steps, seed,
                    sample_stride):
    """One path chunk under every control of ``controls``, in one step loop.

    ``starts`` holds each control's ``_start_cdf``.  The chunk draws its paths'
    Exp(1) clocks, then one start uniform per path, from which control k's
    paths start at the inverse of its CDF (at the origin when it has none).
    The controls share the chunk's stream and switching process: each step
    draws one uniform per path and axis, runs down one set of clocks and flips
    one state array, and control k moves its own positions ``x[k]`` with them.
    Sharing the flips needs x-free rates when there is more than one control.
    Costs, clamp counts and kept samples are per control; the tallied time,
    rate sums and switch counts are shared.
    """
    n_ctrl, dim = len(controls), problem.dimension
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, chunk])))
    clock = gen.standard_exponential(n_paths)   # remaining integrated intensity
    start = gen.random(n_paths)   # drawn for every control, so solo and joint runs agree
    x = np.zeros((n_ctrl, n_paths, dim))
    for xk, control, cdf in zip(x, controls, starts):
        if cdf is not None:
            xk[:] = control.grid.points[np.searchsorted(cdf, start, side="right")]
    flat = x.reshape(-1, dim)   # a view: row k * n_paths + i is path i under control k
    # each path's state, its indicator of state 1 and their count, changed only where
    # a path switches
    state = np.ones(n_paths, dtype=np.intp)
    in1 = np.ones(n_paths, dtype=bool)
    n1 = n_paths
    cost_acc = np.zeros((n_ctrl, n_paths))
    time_in = np.zeros(2)
    switches_from = np.zeros(2)
    rate_acc = np.zeros(2)
    clamps = np.zeros(n_ctrl, dtype=np.int64)
    radius = np.array([c.radius for c in controls])[:, None, None]
    inner = float(radius.min())
    alphas, x_free = _rates(problem)
    sources = (problem.source(1), problem.source(2))
    ham = problem.hamiltonian
    # states with equal data price a path alike: np.where(in1, c, c) is c
    same_cost = sources[0] == sources[1] and all(
        pair[0] == pair[1] for pair in (ham.gammas, ham.metrics, ham.drifts))
    if x_free:
        # the per-path rate changes only where a path switches, and never with equal rates
        levels = np.array([np.nan, alphas[0](x), alphas[1](x)])   # indexed by state
        equal_rates = levels[1] == levels[2]
        rate = levels[state]
        rate_dt = rate * dt
    rate_sum = r1 = None   # rate.sum() and rate @ in1, kept while rate and in1 stay

    noise = np.sqrt(2.0 * dt)
    draws = np.empty((n_paths, dim))
    xi = np.empty((n_ctrl * n_paths, dim))   # row k * n_paths + i, as in flat
    move = np.empty((n_ctrl * n_paths, dim))
    blocks = [(c, x[k], xi[k * n_paths:(k + 1) * n_paths]) for k, c in enumerate(controls)]
    kept = [[] for _ in controls]
    # path 0 of chunk 0 at its first tallied steps: x, state, xi and cost per control
    n_path = min(_SAMPLE_PATH_STEPS, n_steps - burn_steps) if chunk == 0 else 0
    path_x, path_state = np.empty((n_path, n_ctrl, dim)), np.empty(n_path, dtype=np.intp)
    path_xi, path_cost = np.empty((n_path, n_ctrl, dim)), np.empty((n_path, n_ctrl))
    for step in range(n_steps):
        tallied = step >= burn_steps
        for control, xk, out in blocks:
            control(xk, state, out=out)
        if not x_free:
            rate = np.where(in1, alphas[0](flat), alphas[1](flat))
            rate_dt = rate * dt
            rate_sum = r1 = None
        if tallied:
            # the source and the Lagrangian act row by row, so one call serves every control
            run = sources[0](flat)
            run += ham.lagrangian(1, flat, xi)
            if not same_cost:
                run = np.where(in1 if n_ctrl == 1 else np.tile(in1, n_ctrl), run,
                               sources[1](flat) + ham.lagrangian(2, flat, xi))
            run = run.reshape(n_ctrl, n_paths)
            time_in[0] += n1 * dt
            time_in[1] += (n_paths - n1) * dt
            if rate_sum is None:
                rate_sum = float(rate.sum())
            if r1 is None:
                r1 = float(rate @ in1)
            rate_acc[0] += r1 * dt
            rate_acc[1] += (rate_sum - r1) * dt
            if sample_stride and step % sample_stride == 0:
                for k, rows in enumerate(kept):   # x, state, xi and run change in place
                    rows.append((x[k].copy(), state.copy(), blocks[k][2].copy(), run[k].copy()))
            i = step - burn_steps
            if i < n_path:
                path_x[i] = x[:, 0]
                path_state[i] = state[0]
                path_xi[i] = xi[::n_paths]
                path_cost[i] = run[:, 0]
            run *= dt
            cost_acc += run
        # two-point increments +-sqrt(2 dt), each sign from one uniform with probability 1/2
        gen.random(out=draws)
        draws -= 0.5
        np.copysign(noise, draws, out=draws)
        clock -= rate_dt
        idx = np.flatnonzero(clock <= 0.0)
        if idx.size:
            # one fresh clock per switching path, in path order
            clock[idx] = gen.standard_exponential(idx.size)
            was1 = in1[idx]
            from1 = int(np.count_nonzero(was1))
            if tallied:
                switches_from[0] += from1
                switches_from[1] += idx.size - from1
            n1 += idx.size - 2 * from1
            in1[idx] = ~was1
            state[idx] = 3 - state[idx]
            r1 = None
            if x_free and not equal_rates:
                rate[idx] = levels[state[idx]]
                rate_dt[idx] = rate[idx] * dt
                rate_sum = None
        # x - xi dt + increments, in that order; every control takes the same increments
        flat -= np.multiply(xi, dt, out=move)
        x += draws
        if not (flat.max() <= inner and flat.min() >= -inner):   # a NaN also lands here
            clamps += np.count_nonzero(np.abs(x) > radius, axis=(1, 2))
            np.clip(x, -radius, radius, out=x)
    return {
        "cost": cost_acc, "time_in": time_in, "switches_from": switches_from,
        "rate_acc": rate_acc, "clamps": clamps, "kept": kept,
        "path": (path_x, path_state, path_xi, path_cost),
    }


def _check_seed_threads(seed, threads) -> None:
    """Reject a seed outside [0, 2^64) and a worker count below 1."""
    for name, value, lo, hi in (("seed", seed, 0, 2**64), ("threads", threads, 1, np.inf)):
        if not lo <= number(value, name, integer=True) < hi:
            raise ParameterError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")


def _check_arguments(problem: ProblemSpec, radius: float, horizon: float, dt: float,
                     paths: int, burn_in: float, seed: int, threads: int) -> tuple[int, int]:
    """Reject what ``simulate_paths`` cannot run; rates are probed on [-radius, radius]^d.

    Returns the step count and the burn-in step count; at least one step
    after the burn-in must be tallied.
    """
    _check_seed_threads(seed, threads)
    if not (0 < horizon < np.inf and 0 < dt < np.inf and paths > 0):
        raise ParameterError("horizon, step and path count must be finite and positive")
    if not 0.0 <= burn_in < 1.0:
        raise ParameterError("burn-in must be a fraction of the horizon in [0, 1)")
    n_steps = int(round(horizon / dt))
    burn_steps = int(round(burn_in * n_steps))
    if n_steps <= burn_steps:
        raise ParameterError(
            f"horizon {horizon} with step {dt} and burn-in {burn_in} tallies no step")
    axis = np.linspace(-radius, radius, 33)
    grids = np.meshgrid(*([axis] * problem.dimension), indexing="ij")
    probe = np.stack([g.ravel() for g in grids], axis=-1)
    alpha_max = max(float(np.max(problem.switch_rate(k)(probe))) for k in STATES)
    if dt * alpha_max > 0.1:
        raise ParameterError(
            f"dt * max switching rate = {dt * alpha_max:.3g} > 0.1; shrink the step")
    return n_steps, burn_steps


def simulate_paths(problem: ProblemSpec, control: FeedbackControl, horizon: float,
                   dt: float, paths: int, burn_in: float = 0.1, seed: int = 0,
                   record_samples: bool = False, threads: int = 1) -> SimulationEstimate:
    """Estimate the long-run average running cost under a feedback field.

    ``burn_in`` is the fraction of the horizon discarded before cost
    accumulation; each path's cost is divided by the time it was tallied,
    ``(steps - burn-in steps) * dt``.  Paths start in state 1, at nodes drawn
    from the stationary law of a grid control's chain in state 1, or at the
    origin under an analytic control.  Each step evaluates the feedback and
    every rate that depends on x once per path, in its current state, and
    draws one uniform per path and axis for a two-point increment
    ``+-sqrt(2 dt)``.  Two x-free rates are resolved once
    per path chunk: the per-path rate is rebuilt only after a step in which a
    path switched, and only when the two rates differ.
    The running cost of a tallied step is evaluated once when both states'
    sources, exponents, metrics and drifts compare equal, and once per state,
    for every path, otherwise; the two give the same bits on equal states.
    A path switches when its Exp(1) clock, run down by ``rate dt`` each step,
    reaches 0; only the paths that switched draw fresh clocks, in one call on
    the chunk's stream.  The rule is the same for every rate form; a path
    switches at most once per step, and the guard ``dt * max rate <= 0.1``
    keeps the chance of a second crossing within one step below about 0.5%.
    Paths leaving the box are clamped and counted; a nonzero ``clamp_count``
    marks the estimate as unreliable (enlarge the box).  With
    ``record_samples`` a thinned (X, S, xi, running cost) stream of about
    200,000 rows is kept for occupation-measure estimation.  Every estimate
    keeps path 0 over its first 5000 tallied steps (fewer if fewer are
    tallied) as ``sample_path``.  This is ``simulate_controls`` with one
    control.
    """
    return simulate_controls(problem, (control,), horizon, dt, paths, burn_in=burn_in,
                             seed=seed, record_samples=record_samples, threads=threads)[0]


def simulate_controls(problem: ProblemSpec, controls, horizon: float, dt: float, paths: int,
                      burn_in: float = 0.1, seed: int = 0, record_samples: bool = False,
                      threads: int = 1) -> tuple[SimulationEstimate, ...]:
    """``simulate_paths`` under each of ``controls``: one estimate per control, in order.

    Every estimate is bit for bit the one ``simulate_paths`` gives for its
    control alone.  With x-free rates a path's switching does not depend on
    its control, and all controls' estimates draw the same stream, so they
    run in one step loop that makes each draw once for all of them (common
    random numbers).  With a rate that depends on x each control runs its own
    loop.  With ``threads`` above 1 and more than one path chunk over all
    loops, a pool of at most ``threads`` worker processes, forked so that they
    need no fresh import, runs those chunks; the caller reduces their results
    in chunk order, and the pool is shut down before this returns, also when a
    worker raises.  A worker process that dies raises ``WorkerError``, which
    names the first chunk whose result was lost.  Python >= 3.12 warns when a
    process that runs more than one thread (a BLAS thread pool's included) forks.
    """
    controls = tuple(controls)
    n_steps, burn_steps = _check_arguments(problem, max(c.radius for c in controls), horizon,
                                           dt, paths, burn_in, seed, threads)
    stride = max(1, (n_steps - burn_steps) * paths // _SAMPLE_TARGET) if record_samples else 0
    # each grid control's start law, once and in this process, before any worker forks
    starts = tuple(_start_cdf(problem, c) for c in controls)
    groups = ([(controls, starts)] if _rates(problem)[1]
              else [((c,), (start,)) for c, start in zip(controls, starts)])
    chunks = [(lo // _PATH_CHUNK, min(_PATH_CHUNK, paths - lo))
              for lo in range(0, paths, _PATH_CHUNK)]
    args = [(problem, group, group_starts, n_steps, dt, chunk, n, burn_steps, seed, stride)
            for group, group_starts in groups for chunk, n in chunks]
    if threads > 1 and len(args) > 1:
        results = []
        with ProcessPoolExecutor(max_workers=min(threads, len(args)),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            try:
                for result in pool.map(_simulate_chunk, *zip(*args)):
                    results.append(result)
            except BrokenProcessPool as exc:
                lost_group, lost_chunk = divmod(len(results), len(chunks))
                message = (f"the worker process running path chunk {lost_chunk} of control "
                           f"group {lost_group + 1} died before returning it")
                raise WorkerError(message) from exc
    else:
        results = [_simulate_chunk(*a) for a in args]

    # the tallied time, which the nominal horizon * (1 - burn_in) need not equal
    tallied_time = (n_steps - burn_steps) * dt
    estimates = []
    for g, (group, _) in enumerate(groups):
        group_results = results[g * len(chunks):(g + 1) * len(chunks)]
        time_in = np.sum([r["time_in"] for r in group_results], axis=0)
        switches_from = np.sum([r["switches_from"] for r in group_results], axis=0)
        rate_acc = np.sum([r["rate_acc"] for r in group_results], axis=0)
        total_time = float(np.sum(time_in))
        path_x, path_state, path_xi, path_cost = group_results[0]["path"]
        for k in range(len(group)):
            tails = np.concatenate([r["cost"][k] for r in group_results]) / tallied_time
            samples = None
            if record_samples:
                columns = zip(*(row for r in group_results for row in r["kept"][k]))
                samples = SimulationSamples(*map(np.concatenate, columns), stride=stride,
                                            start=-(-burn_steps // stride) * stride)
            estimates.append(SimulationEstimate(
                avg_cost=float(np.mean(tails)),
                std_error=(float(np.std(tails, ddof=1) / np.sqrt(paths)) if paths > 1
                           else float("inf")),
                tail_averages=tails,
                switch_count=int(switches_from.sum()),
                clamp_count=int(sum(r["clamps"][k] for r in group_results)),
                state_fraction=tuple(float(t / total_time) for t in time_in),
                switch_intensity=tuple(
                    float(switches_from[i] / time_in[i]) if time_in[i] > 0 else 0.0
                    for i in range(2)),
                mean_rate=tuple(
                    float(rate_acc[i] / time_in[i]) if time_in[i] > 0 else 0.0
                    for i in range(2)),
                horizon=horizon, dt=dt, paths=paths, burn_in=burn_in, seed=seed,
                samples=samples,
                sample_path=SimulationSamples(path_x[:, k], path_state, path_xi[:, k],
                                              path_cost[:, k], stride=1, start=burn_steps)))
    return tuple(estimates)


def empirical_measure(samples: SimulationSamples, grid: Grid, mesh: ControlMesh) -> OccupationMeasure:
    """Histogram of the sampled (position, control, state) stream on
    grid x control-mesh x state, normalized to unit mass."""
    if samples is None or samples.x.shape[0] == 0:
        raise ParameterError("no samples recorded; rerun with record_samples=True")
    n = samples.x.shape[0]
    m = (grid.n_axis - 1) // 2
    idx = np.clip(np.rint(samples.x / grid.h).astype(int) + m, 0, grid.n_axis - 1)
    flat_nodes = np.ravel_multi_index(tuple(idx.T), grid.shape) if grid.dim > 1 else idx[:, 0]
    weights = np.zeros((2, grid.n_nodes, mesh.n_controls))
    for lo in range(0, n, 65536):
        sl = slice(lo, min(lo + 65536, n))
        ctrl_idx = mesh.nearest(samples.control[sl])
        np.add.at(weights, (samples.state[sl] - 1, flat_nodes[sl], ctrl_idx), 1.0)
    weights /= n
    return OccupationMeasure(grid=grid, mesh=mesh, weights=weights, mass=1.0)
