"""Monte Carlo validation of the eigenvalue via the controlled switching diffusion.

Simulates the regime-switching diffusion whose extended generator matches the
discretized operator: under a feedback field xi the continuous component
moves with drift ``-xi(X, S)`` and diffusion ``sqrt(2) dW`` (the unit
Laplacian in the generator fixes the noise scale), while the discrete
component switches 1 <-> 2 with intensities ``alpha_k(X)``.  The switching
time comes from the integrated intensity (Yin & Zhu, Hybrid Switching
Diffusions, 2010): each path holds an Exp(1) clock that every step runs down
by ``alpha_S(X) dt``, and the path switches when its clock reaches 0, drawing
a fresh clock; no step draws anything for switching otherwise.  The long-run
average of ``f_S(X) + l_S(X, xi(X, S))`` estimates the eigenvalue when xi is
the extracted optimal feedback, and strictly exceeds it for other fields.
When the two states have equal source and Hamiltonian data (gamma, metric,
drift; the truncation is shared), that running cost is one evaluation for
every path; otherwise both states' costs are evaluated and each path keeps
its own state's.
The feedback is a ``discretize.FeedbackControl``: the solver's extracted
field (interpolated multilinearly between nodes) or an analytic one.

Randomness comes from one counter-based Philox stream per fixed path chunk,
keyed by ``(seed, chunk index)``; accumulation is an ordered reduction over
the path axis, so estimates are bit-identical across serial and threaded runs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .discretize import FeedbackControl, Grid
from .dual_lp import ControlMesh, OccupationMeasure
from .errors import ParameterError
from .fields import number
from .model import ProblemSpec, STATES


@dataclass(frozen=True)
class SimulationSamples:
    """Thinned (position, state, control, running cost) stream of kept steps."""

    x: np.ndarray
    state: np.ndarray
    control: np.ndarray
    cost: np.ndarray
    stride: int


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
# of the thread count; a path's draws depend on the size of its chunk, so only
# whole chunks keep their draws when the path total changes
_PATH_CHUNK = 8192


def _simulate_chunk(problem, control, n_steps, dt, chunk, n_paths, burn_steps, seed,
                    sample_stride):
    dim = problem.dimension
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
    x = np.zeros((n_paths, dim))
    in1 = np.ones(n_paths, dtype=bool)
    cost_acc = np.zeros(n_paths)
    time_in = np.zeros(2)
    switches_from = np.zeros(2)
    rate_acc = np.zeros(2)
    clamps = 0
    clock = gen.standard_exponential(n_paths)   # remaining integrated intensity
    radius = control.radius
    alphas = tuple(problem.switch_rate(k).evaluator() for k in STATES)
    sources = (problem.source(1), problem.source(2))
    ham = problem.hamiltonian
    # states with equal data price a path alike: np.where(in1, c, c) is c
    same_cost = sources[0] == sources[1] and all(
        pair[0] == pair[1] for pair in (ham.gammas, ham.metrics, ham.drifts))

    noise = np.sqrt(2.0 * dt)
    kept = []
    for step in range(n_steps):
        tallied = step >= burn_steps
        state = 2 - in1
        xi = control(x, state)
        rate = np.where(in1, alphas[0](x), alphas[1](x))
        if tallied:
            run = sources[0](x) + ham.lagrangian(1, x, xi)
            if not same_cost:
                run = np.where(in1, run, sources[1](x) + ham.lagrangian(2, x, xi))
            cost_acc += run * dt
            n1 = int(np.count_nonzero(in1))
            time_in[0] += n1 * dt
            time_in[1] += (n_paths - n1) * dt
            r1 = float(rate @ in1)
            rate_acc[0] += r1 * dt
            rate_acc[1] += (float(rate.sum()) - r1) * dt
            if sample_stride and step % sample_stride == 0:
                kept.append((x, state, xi, run))   # fresh arrays every step
        draws = gen.standard_normal((n_paths, dim))
        clock -= rate * dt
        flip = clock <= 0.0
        n_flip = int(np.count_nonzero(flip))
        if n_flip:
            clock[flip] = gen.standard_exponential(n_flip)
            if tallied:
                from1 = int(np.count_nonzero(flip & in1))
                switches_from[0] += from1
                switches_from[1] += n_flip - from1
            in1 = in1 ^ flip
        x = x - xi * dt + noise * draws
        if not (x.max() <= radius and x.min() >= -radius):   # a NaN also lands here
            clamps += int(np.count_nonzero(np.abs(x) > radius))
            x = np.clip(x, -radius, radius)
    return {
        "cost": cost_acc, "time_in": time_in, "switches_from": switches_from,
        "rate_acc": rate_acc, "clamps": clamps, "kept": kept,
    }


def _check_seed_threads(seed, threads) -> None:
    """Reject a seed that does not fit a Philox key word and a thread count below 1."""
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
                   record_samples: bool = False,
                   sample_target: int = 200_000, threads: int = 1) -> SimulationEstimate:
    """Estimate the long-run average running cost under a feedback field.

    ``burn_in`` is the fraction of the horizon discarded before cost
    accumulation.  Each step evaluates the feedback and every rate that
    depends on x once per path, in its current state (an x-free rate is
    evaluated once per path chunk), and draws one normal per path and axis.
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
    ``record_samples`` a thinned (X, S, xi, running cost) stream is kept for
    occupation-measure estimation and the sample path.
    """
    n_steps, burn_steps = _check_arguments(problem, control.radius, horizon, dt, paths,
                                           burn_in, seed, threads)

    stride = 0
    if record_samples:
        stride = max(1, (n_steps - burn_steps) * paths // max(sample_target, 1))

    args = [(problem, control, n_steps, dt, lo // _PATH_CHUNK, min(_PATH_CHUNK, paths - lo),
             burn_steps, seed, stride) for lo in range(0, paths, _PATH_CHUNK)]
    if threads > 1 and len(args) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda a: _simulate_chunk(*a), args))
    else:
        results = [_simulate_chunk(*a) for a in args]

    tail_time = horizon - burn_in * horizon
    tails = np.concatenate([r["cost"] for r in results]) / tail_time
    time_in = np.sum([r["time_in"] for r in results], axis=0)
    switches_from = np.sum([r["switches_from"] for r in results], axis=0)
    rate_acc = np.sum([r["rate_acc"] for r in results], axis=0)
    total_time = float(np.sum(time_in))
    avg = float(np.mean(tails))
    se = float(np.std(tails, ddof=1) / np.sqrt(paths)) if paths > 1 else float("inf")
    samples = None
    if record_samples:
        columns = zip(*(row for r in results for row in r["kept"]))   # x, state, xi, cost
        samples = SimulationSamples(*map(np.concatenate, columns), stride=stride)
    return SimulationEstimate(
        avg_cost=avg,
        std_error=se,
        tail_averages=tails,
        switch_count=int(switches_from.sum()),
        clamp_count=int(sum(r["clamps"] for r in results)),
        state_fraction=tuple(float(t / total_time) for t in time_in),
        switch_intensity=tuple(
            float(switches_from[i] / time_in[i]) if time_in[i] > 0 else 0.0
            for i in range(2)),
        mean_rate=tuple(
            float(rate_acc[i] / time_in[i]) if time_in[i] > 0 else 0.0 for i in range(2)),
        horizon=horizon, dt=dt, paths=paths, burn_in=burn_in, seed=seed, samples=samples)


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
