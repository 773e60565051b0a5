"""Numerical audits of the structural estimates behind the solver.

Each audit measures a bound that the theory guarantees with *some* constant
and therefore checks scale-stability or an existence floor, never a specific
constant.  Audits are report-only: they return an ``AuditReport`` and never
raise on failure, so pipelines can aggregate them into an exit code.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .discretize import Grid, assemble_generator, control_cap, gradient_central, source_envelope
from .model import AuditReport, ProblemSpec, STATES
from .solver import (
    ErgodicSolution,
    LUFactor,
    SolverOptions,
    _running_cost,
    default_penalty,
    penalty_source,
    policy_evaluation,
    solve_discounted,
    solve_ergodic_normalized,
    wall_cap,
)


def _inner_masks(grid: Grid):
    rho = np.max(np.abs(grid.points), axis=-1)
    b1 = rho <= grid.radius / 2.0
    b2 = rho <= grid.radius - 1.0
    return b1, b2


def _gradient_ratio(problem: ProblemSpec, grid: Grid, sol: ErgodicSolution):
    b1, b2 = _inner_masks(grid)
    numerator = 0.0
    for k in STATES:
        g = np.linalg.norm(gradient_central(grid, sol.state(k)), axis=-1)
        numerator = max(numerator, float(np.max(g[b1] ** (2.0 * problem.hamiltonian.gamma(k)))))
    denom = source_envelope(problem, grid.points[b2])
    ref = grid.index_of(problem.ref_point)
    coupling = float((sol.u[0, ref] - sol.u[1, ref]) ** 2)
    return numerator / denom, coupling / denom


def audit_gradient_bound(problem: ProblemSpec, grid: Grid, scalings=(1.0, 4.0, 16.0),
                         opts: SolverOptions = SolverOptions()) -> AuditReport:
    """Scale stability of the interior gradient envelope.

    Solves the problem with the sources scaled by each factor and forms the
    ratio of the half-box gradient supremum (raised to 2 gamma) to the source
    envelope on the box-minus-wall region; the same is done for the squared
    state gap at the reference point.  Passes when each ratio family varies
    by at most a factor of 5 across the scalings.
    """
    ratios, couplings = [], []
    for s in scalings:
        scaled = problem.with_sources(tuple(f.scaled(s) for f in problem.sources))
        sol = solve_ergodic_normalized(scaled, grid, opts=opts)
        r, c = _gradient_ratio(scaled, grid, sol)
        ratios.append(r)
        couplings.append(c)
    def stable(vals):
        vals = np.asarray(vals)
        if np.max(vals) < 1e-12:
            return True, 1.0
        lo = max(float(np.min(vals)), 1e-300)
        return float(np.max(vals)) / lo <= 5.0, float(np.max(vals)) / lo
    ok_r, spread_r = stable(ratios)
    ok_c, spread_c = stable(couplings)
    passed = ok_r and ok_c
    return AuditReport(
        name="gradient_bound_scaling",
        passed=passed,
        constants={"ratios": ratios, "coupling_ratios": couplings,
                   "ratio_spread": spread_r, "coupling_spread": spread_c,
                   "scalings": list(scalings)},
        narrative=(f"gradient-envelope ratio spread {spread_r:.3g}, "
                   f"state-gap spread {spread_c:.3g} (limit 5)"),
    )


def audit_coercive_lower_bound(problem: ProblemSpec, solution: ErgodicSolution,
                               m2_cap: float = 1.0) -> AuditReport:
    """Fit of the coercive floor u >= M1 f^(1/gamma) - M2 away from the wall.

    The solution is shifted nonnegative first.  Passes when the fitted M1 is
    at least 0.01 with M2 capped at ``m2_cap``.  Also reports the
    gradient-quotient constant sup |grad u|^2 / (u f^(1/gamma)) outside the
    half box.
    """
    grid = solution.grid
    pts = grid.points
    rho = np.max(np.abs(pts), axis=-1)
    inside = rho <= grid.radius - 1.0
    outside_compact = (rho >= grid.radius / 2.0) & inside
    u = solution.u - np.min(solution.u)
    m1 = np.inf
    m3 = 0.0
    worst = None
    for k in STATES:
        f = problem.source(k)(pts)
        root = np.maximum(f, 0.0) ** (1.0 / problem.hamiltonian.gamma(k))
        mask = inside & (root > 1e-9)
        fits = (u[k - 1][mask] + m2_cap) / root[mask]
        idx = int(np.argmin(fits))
        if fits[idx] < m1:
            m1 = float(fits[idx])
            node = np.flatnonzero(mask)[idx]
            worst = {"state": k, "node": int(node), "point": pts[node].tolist(),
                     "lhs": float(u[k - 1][node] + m2_cap), "rhs": float(root[node])}
        grad2 = np.sum(gradient_central(grid, u[k - 1]) ** 2, axis=-1)
        qmask = outside_compact & (u[k - 1] > 1e-6) & (root > 1e-9)
        if np.any(qmask):
            m3 = max(m3, float(np.max(grad2[qmask] / (u[k - 1][qmask] * root[qmask]))))
    passed = m1 >= 0.01
    return AuditReport(
        name="coercive_lower_bound",
        passed=passed,
        constants={"m1": m1, "m2_cap": m2_cap, "m3_gradient_quotient": m3},
        narrative=f"floor fit M1 = {m1:.4g} (requires >= 0.01), gradient quotient M3 = {m3:.4g}",
        worst_node=None if passed else worst,
    )


def audit_comparison(problem: ProblemSpec, grid: Grid, delta: float = 0.5,
                     discount: float = 1.0, trials: int = 0, seed: int = 0,
                     opts: SolverOptions = SolverOptions()) -> AuditReport:
    """Discrete comparison principle on ordered sources.

    Frozen-policy solves with sources f and f + delta must stay ordered
    nodewise (exactly, up to solver roundoff), and for a constant shift the
    nonlinear discounted solutions differ by exactly delta / discount.
    Optional randomized trials perturb f by a nonnegative field and re-check
    the ordering of the nonlinear solves.
    """
    # identical wall and control set for every source variant, else the shift
    # leaks into the cap and breaks the pointwise identity at the faces
    pen = replace(default_penalty(problem), cap=wall_cap(problem, grid))
    opts = replace(opts, control_cap=control_cap(problem, grid))
    base = solve_discounted(problem, grid, discount, penalty=pen, opts=opts)
    gen = assemble_generator(grid, problem, base.controls, discount)
    src = penalty_source(problem, grid, pen).ravel()
    lag = _running_cost(problem, grid, base.controls).ravel()
    # one factor of the frozen-policy matrix serves both right-hand sides
    factor = LUFactor()
    u, _ = policy_evaluation(gen, src + lag, factor=factor)
    v, _ = policy_evaluation(gen, src + lag + delta, factor=factor)
    linear_gap = float(np.min(v - u))
    worst = None
    if linear_gap < -1e-10:
        node = int(np.argmin(v - u))
        worst = {"node": node % grid.n_nodes, "state": node // grid.n_nodes + 1,
                 "lhs": float(u[node]), "rhs": float(v[node])}

    shifted = problem.with_sources(tuple(f.shifted(delta) for f in problem.sources))
    other = solve_discounted(shifted, grid, discount, penalty=pen, opts=opts)
    shift_err = float(np.max(np.abs(other.w - base.w - delta / discount)))
    ordered = bool(np.all(other.w >= base.w - 1e-8))

    trial_ok = True
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        w = tuple(float(abs(rng.normal(0.3, 0.2))) + 1e-3 for _ in STATES)
        bumped = problem.with_sources(tuple(f.shifted(wk) for f, wk in zip(problem.sources, w)))
        high = solve_discounted(bumped, grid, discount, penalty=pen, opts=opts)
        trial_ok = trial_ok and bool(np.all(high.w >= base.w - 1e-8))
    passed = linear_gap >= -1e-10 and ordered and shift_err <= 1e-6 and trial_ok
    return AuditReport(
        name="comparison_principle",
        passed=passed,
        constants={"linear_min_gap": linear_gap, "constant_shift_error": shift_err,
                   "delta": delta, "discount": discount, "trials": trials},
        narrative=(f"frozen-policy ordering min gap {linear_gap:.3e}, "
                   f"constant-shift identity error {shift_err:.3e}"),
        worst_node=worst,
    )


def consistency_report(lam_pde: float, lam_lp: float | None, lam_mc: float | None,
                       mc_std_error: float = 0.0, tol_lp: float = 0.05,
                       tol_mc_extra: float = 0.02) -> AuditReport:
    """Cross-method agreement: PDE eigenvalue vs LP value vs simulation."""
    gaps = {}
    passed = True
    if lam_lp is not None:
        gaps["lp_gap"] = abs(lam_pde - lam_lp)
        passed = passed and gaps["lp_gap"] <= tol_lp * max(1.0, abs(lam_pde))
    if lam_mc is not None:
        gaps["mc_gap"] = abs(lam_pde - lam_mc)
        allowance = 3.0 * mc_std_error + tol_mc_extra * max(1.0, abs(lam_pde))
        gaps["mc_allowance"] = allowance
        passed = passed and gaps["mc_gap"] <= allowance
    pieces = [f"pde {lam_pde:.6g}"]
    if lam_lp is not None:
        pieces.append(f"lp {lam_lp:.6g}")
    if lam_mc is not None:
        pieces.append(f"mc {lam_mc:.6g} (se {mc_std_error:.2g})")
    return AuditReport(
        name="cross_method_consistency",
        passed=passed,
        constants={"lambda_pde": lam_pde, "lambda_lp": lam_lp, "lambda_mc": lam_mc,
                   **gaps},
        narrative=", ".join(pieces),
    )


def reports_to_markdown(reports) -> str:
    lines = ["# Audit bundle", ""]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"- **{r.name}**: {status} — {r.narrative}")
        if r.worst_node:
            lines.append(f"  - worst node: {r.worst_node}")
    lines.append("")
    return "\n".join(lines)
