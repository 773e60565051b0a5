import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from ergodic_hjb import fields
from ergodic_hjb.dual_lp import LPData, OccupationMeasure
from ergodic_hjb.model import HamiltonianSpec, ProblemSpec


def make_problem(dim=1, gammas=(2.0, 2.0), alphas=(1.0, 1.0), sources=None,
                 drifts=None, metrics=None):
    if sources is None:
        sources = (fields.quadratic(dim), fields.quadratic(dim))
    if drifts is None:
        drifts = (fields.DriftField(dim), fields.DriftField(dim))
    if metrics is None:
        metrics = (fields.identity_metric(dim), fields.identity_metric(dim))
    ham = HamiltonianSpec(dim=dim, gammas=gammas, metrics=metrics, drifts=drifts)
    return ProblemSpec(
        dimension=dim,
        hamiltonian=ham,
        switch_rates=(fields.constant(dim, alphas[0]), fields.constant(dim, alphas[1])),
        sources=tuple(sources),
    )


def with_hamiltonian(problem: ProblemSpec, ham: HamiltonianSpec) -> ProblemSpec:
    """``problem`` with its Hamiltonian replaced by ``ham``."""
    return replace(problem, hamiltonian=ham)


def ramp(values: np.ndarray, level: float, gamma: float) -> np.ndarray:
    """Concave sublinearizing ramp: identity below ``level``, then
    ``level - gamma/2 + (gamma/2)(v - level + 1)^(2/gamma)``; the brute-force
    reference for the truncated envelopes.

    Nondecreasing, 1-Lipschitz, and never above its argument.
    """
    v = np.asarray(values, dtype=float)
    above = np.maximum(v - level + 1.0, 1.0)
    capped = level - gamma / 2.0 + (gamma / 2.0) * above ** (2.0 / gamma)
    return np.where(v <= level, v, capped)


def _weights_to_flat(w: np.ndarray) -> np.ndarray:
    return w.transpose(2, 0, 1).reshape(-1)


def stationarity_residual(lp: LPData, measure: OccupationMeasure) -> float:
    """Sup-norm of the balance rows applied to an arbitrary measure (for
    checking externally constructed measures, e.g. simulation histograms)."""
    return float(np.max(np.abs(lp.stationarity @ _weights_to_flat(measure.weights))))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a live child process, such as a Monte Carlo worker
    that outlived its pool; the leftovers are ended so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    assert not left, f"child processes left running: {left}"


@pytest.fixture
def quadratic_1d():
    """Symmetric benchmark: N=1, gamma=2, a=1, b=0, alpha=1, f=x^2 (eigenvalue sqrt(2))."""
    return make_problem()


@pytest.fixture
def quadratic_2d():
    return make_problem(dim=2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
