"""Batch front-end: solve / lp / simulate / audit / pipeline subcommands.

Every run is driven by a JSON config (a file path or a bundled benchmark
name) and writes a self-contained artifact bundle: a summary manifest, CSV
field dumps, eigenvalue histories, an optional sample path, and the audit
bundle.  Outputs carry no timestamps and all randomness is seeded, so a rerun
of the same config reproduces every file byte for byte.

``run_pipeline`` reads and checks every config section, then runs the stages
in this order: the solve (``_solve_stage``); the LP, submitted to one worker
thread; the Monte Carlo estimates (``simulate.simulate_paths``, on the calling
thread; ``threads`` sizes their chunk pool only); the LP's result, collected
once the estimates are done; the sample path (``_write_sample_path``); the
audits (``_audit_stage``); and last ``config.json`` and ``summary.json``.  The
LP reads nothing but the config and starts after the solve (at once when no
solve runs), so a failed solve never waits for it, and an LP failure leaves
only the solve's files behind.

Exit codes: 0 all stages and requested audits passed; 1 a stage failed or an
audit reported failure; 2 the config did not parse or validate.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dual_lp, simulate, verify
from .config import _DEFAULT_AUDITS, RunConfig, load_config, save_config
from .discretize import build_grid, control_cap
from .errors import CoefficientError, ErgodicHJBError, ParameterError
from .fields import number
from .model import switch_rate_violations, validate_assumptions
from .solver import (
    PenaltyParams,
    SolverOptions,
    default_penalty,
    extract_control,
    nested_domains,
    solve_ergodic_normalized,
    vanishing_discount,
)

ALL_STAGES = ("solve", "lp", "simulate", "audit")

# the keys of each config section and their defaults (solver, penalty: dataclass fields)
_GRID_KEYS = ("radius", "h")
_LP_DEFAULTS = {"h": None, "control_step": 0.25, "directions": 8}   # h None: 5 * grid h
_MC_DEFAULTS = {"horizon": 20.0, "dt": 1e-3, "paths": 2000, "burn_in": 0.1,
                "control": "extracted", "perturbed": None, "sample_path": False}


def _section(config: RunConfig, name: str, allowed) -> dict:
    """Config section ``name`` (empty when absent); a key outside ``allowed`` raises."""
    section = getattr(config, name) or {}
    unknown = set(section) - set(allowed)
    if unknown:
        raise ParameterError(f"unknown {name} keys: {sorted(unknown)}")
    return section


def _flag(name: str, value):
    if not isinstance(value, bool):
        raise ParameterError(f"{name} must be a JSON boolean, got {value!r}")


def _checked_radii(radii, dim: int, h: float) -> list:
    """The ``radii`` schedule (empty when absent): finite numbers, strictly
    increasing, each the half-width of a grid of spacing ``h``."""
    if radii is None:
        return []
    if not isinstance(radii, list) or not all(
            math.isfinite(number(r, "radii entry")) for r in radii):
        raise ParameterError(f"radii must be a list of finite numbers, got {radii!r}")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ParameterError(f"radii must be strictly increasing, got {radii}")
    for r in radii:
        build_grid(dim, r, h)
    return radii


def _parse_control(spec, radius: float):
    """Feedback field of a control spec; ``extracted`` stays a marker for the
    solve's feedback, which exists only once the solve stage has run."""
    if spec == "extracted":
        return spec
    if spec == "zero":
        return simulate.FeedbackControl.zero(radius)
    if isinstance(spec, str) and spec.startswith("linear:"):
        return simulate.FeedbackControl.linear(radius, float(spec.split(":", 1)[1]))
    raise ParameterError(f"unknown control spec {spec!r} (extracted | zero | linear:<c>)")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_sample_path(path, problem, control, mc_kwargs: dict):
    est = simulate.simulate_paths(
        problem, control, **{**mc_kwargs, "horizon": min(mc_kwargs["horizon"], 5.0),
                             "paths": 1, "burn_in": 0.0, "seed": (mc_kwargs["seed"] + 1) % 2**64,
                             "record_samples": True, "sample_target": 10**9})
    s = est.samples
    axes, dt = range(1, s.x.shape[1] + 1), mc_kwargs["dt"] * s.stride
    _write_csv(path, ["t", *(f"x{j}" for j in axes), "state", *(f"u{j}" for j in axes),
                      "running_cost"],
               ([repr(i * dt), *map(repr, s.x[i].tolist()), int(s.state[i]),
                 *map(repr, s.control[i].tolist()), repr(float(s.cost[i]))]
                for i in range(s.x.shape[0])))


def _solve_stage(config: RunConfig, problem, grid, penalty, opts, out: Path):
    """Solve by ``config.method`` on ``grid`` (on the ``radii`` boxes for nested
    domains), extract the feedback, and write ``fields.csv`` and
    ``lambda_history.csv``; returns ``(solution, extracted, lambda block)``."""
    if config.method == "vanishing_discount":
        solution = vanishing_discount(problem, grid, penalty=penalty, opts=opts)
    elif config.method == "nested_domains":
        solution = nested_domains(problem, config.radii, grid.h, penalty=penalty, opts=opts)
    else:
        solution = solve_ergodic_normalized(problem, grid, penalty=penalty, opts=opts)
    extracted = extract_control(problem, solution)
    block = {
        "value": solution.lam,
        "method": solution.method,
        "residual": solution.residual,
        "iterations": solution.iterations,
        "history": [[float(a), float(b)] for a, b in solution.history],
        "minimizer_interior": solution.minimizer_interior(),
        "minimizer_location": [solution.grid.points[i].tolist()
                               for i in solution.minimizer_nodes()],
        "duality_residual": extracted.duality_residual,
    }
    if config.method == "direct":
        # the 2h solve the direct solve started from; null when none ran
        block["coarse_value"] = solution.coarse_lam
    if config.compare_methods:
        alt = (solve_ergodic_normalized if config.method == "vanishing_discount"
               else vanishing_discount)(problem, solution.grid, penalty=penalty, opts=opts)
        block["alternate"] = {"method": alt.method, "value": alt.lam,
                              "gap": abs(alt.lam - solution.lam)}
    # per state and node: the coordinates, the state, u and the feedback components
    dim, axes = problem.dimension, range(1, problem.dimension + 1)
    _write_csv(out / "fields.csv",
               [*(f"x{j}" for j in axes), "state", "u", *(f"xi{j}" for j in axes)],
               ([*map(repr, row[:dim]), k, *map(repr, row[dim:])] for k in (1, 2)
                for row in np.column_stack([solution.grid.points, solution.u[k - 1],
                                            extracted.values[k - 1]]).tolist()))
    _write_csv(out / "lambda_history.csv", ["parameter", "lambda"],
               ([repr(float(param)), repr(float(lam))] for param, lam in solution.history))
    return solution, extracted, block


def _audit_stage(problem, audits: dict, opts, grid, solution, summary: dict, out: Path) -> dict:
    """The requested audits on ``grid``, and the consistency of λ with the LP and
    Monte Carlo blocks of ``summary``; writes ``audits.json`` and ``audits.md``
    and returns the ``audits`` block."""
    reports = []
    if audits["assumptions"]:
        reports.append(validate_assumptions(problem, grid))
    if audits["comparison"]:
        reports.append(verify.audit_comparison(problem, grid, opts=opts))
    if audits["coercive"] and solution is not None:
        reports.append(verify.audit_coercive_lower_bound(problem, solution))
    if audits["gradient_bound"]:
        reports.append(verify.audit_gradient_bound(problem, grid, opts=opts))
    lp, mc = summary["lp"] or {}, summary["mc"] or {}
    if solution is not None and (lp or mc):
        reports.append(verify.consistency_report(solution.lam, lp.get("lambda_bar"),
                                                 mc.get("avg_cost"), mc.get("std_error", 0.0)))
    block = {"passed": all(r.passed for r in reports), "reports": [r.to_dict() for r in reports]}
    with open(out / "audits.json", "w") as fh:
        json.dump(block, fh, indent=2, sort_keys=True)
    with open(out / "audits.md", "w") as fh:
        fh.write(verify.reports_to_markdown(reports))
    return block


def run_pipeline(config: RunConfig, stages=ALL_STAGES, out_dir=None) -> tuple[int, dict]:
    """Execute the selected stages and write the artifact bundle.

    Returns (exit code, summary dict).  Every section of the config is read
    and checked first, whichever stages are selected, so a bad key or value
    raises ``ParameterError`` before any stage runs or any file is written.
    The LP's worker thread is joined before this returns or raises.
    """
    controls = ()   # the Monte Carlo controls; none without an mc section
    try:  # reads nothing but the config, so any error raised here is a config error
        problem = config.problem_spec()
        opts = SolverOptions(**_section(config, "solver", [f.name for f in fields(SolverOptions)]))
        penalty = default_penalty(problem) if config.penalty is None else PenaltyParams(
            **_section(config, "penalty", [f.name for f in fields(PenaltyParams)])
        ).validated(problem)
        grid_cfg = _section(config, "grid", _GRID_KEYS)
        radius, h = (number(grid_cfg[key], f"grid.{key}") for key in _GRID_KEYS)
        audits = _section(config, "audits", _DEFAULT_AUDITS)
        for key, flag in audits.items():
            _flag(f"audits.{key}", flag)
        _flag("compare_methods", config.compare_methods)
        simulate._check_seed_threads(config.seed, config.threads)
        if config.out is not None and not isinstance(config.out, str):
            raise ParameterError(f"out must be null or a string, got {config.out!r}")
        box_radii = [radius, *_checked_radii(config.radii, problem.dimension, h)]
        # x_ref must be a node of the smallest box a stage solves on
        build_grid(problem.dimension, min(box_radii), h).index_of(problem.ref_point)
        # and every switching rate > 0 on the nodes of the largest
        largest = build_grid(problem.dimension, max(box_radii), h)
        bad = switch_rate_violations(problem, largest.points)
        if bad:
            at = ", ".join(f"{v:.6g}" for v in bad[0]["point"])
            raise ParameterError(f"switching rate of state {bad[0]['state']} is "
                                 f"{bad[0]['lhs']:.6g} at x = ({at}), must be > 0")
        if config.lp is not None:
            lp = {**_LP_DEFAULTS, "h": 5 * h, **_section(config, "lp", _LP_DEFAULTS)}
            lp_h, lp_step = (number(lp[key], f"lp.{key}") for key in ("h", "control_step"))
            lp_grid = build_grid(problem.dimension, radius, lp_h)
            lp_directions = number(lp["directions"], "lp.directions", integer=True)
            if not 0.0 < lp_step < np.inf:
                raise ParameterError(f"lp.control_step must be finite and > 0, got {lp_step!r}")
            lp_mesh = dual_lp.build_control_mesh(
                problem, lp_grid,
                magnitudes=np.arange(0.0, control_cap(problem, lp_grid) + lp_step, lp_step),
                directions=lp_directions)
        if config.mc is not None:
            mc = {**_MC_DEFAULTS, **_section(config, "mc", _MC_DEFAULTS)}
            mc_kwargs = {key: number(mc[key], f"mc.{key}") for key in ("horizon", "dt", "burn_in")}
            mc_kwargs.update(paths=number(mc["paths"], "mc.paths", integer=True),
                             seed=config.seed, threads=config.threads)
            _flag("mc.sample_path", mc["sample_path"])
            if mc_kwargs["paths"] < 2:
                raise ParameterError("mc.paths must be at least 2 to give a standard error")
            # the dt guard probes the rates on the largest box a control lives on
            simulate._check_arguments(problem, max(box_radii), **mc_kwargs)
            controls = (_parse_control(mc["control"], radius), None if mc["perturbed"] is None
                        else _parse_control(mc["perturbed"], radius))
    except CoefficientError as exc:   # an invalid coefficient of the problem section
        raise ParameterError(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"{type(exc).__name__}: {exc}") from exc

    out = Path(out_dir or config.out or "ergodic_hjb_out")
    grid = build_grid(problem.dimension, radius, h)
    files = {}
    summary = {"schema_version": config.schema_version, "config": config.to_dict(),
               "lambda": None, "lp": None, "mc": None, "audits": None}

    # the LP needs nothing but the config; it starts after the solve, so that a failed
    # solve does not wait for it, runs on one worker thread beside the Monte Carlo
    # estimates, which run here, and is collected after them
    with ThreadPoolExecutor(max_workers=1) as pool:
        out.mkdir(parents=True, exist_ok=True)
        if "solve" in stages or ("simulate" in stages and "extracted" in controls):
            solution, extracted, summary["lambda"] = _solve_stage(
                config, problem, grid, penalty, opts, out)
            files.update(fields="fields.csv", lambda_history="lambda_history.csv")
        else:
            solution = extracted = None
        lp_run = None if "lp" not in stages or config.lp is None else pool.submit(
            lambda: dual_lp.solve_lp(dual_lp.assemble_lp(problem, lp_grid, lp_mesh)))
        if "simulate" in stages and config.mc is not None:
            control, worse = (extracted if c == "extracted" else c for c in controls)
            summary["mc"] = simulate.simulate_paths(problem, control, **mc_kwargs).to_dict()
            if worse is not None:
                summary["mc"]["perturbed"] = simulate.simulate_paths(
                    problem, worse, **mc_kwargs).to_dict()
        if lp_run is not None:
            lam_lp, measure = lp_run.result()
            summary["lp"] = {"lambda_bar": lam_lp, **measure.to_dict()}

    if summary["mc"] is not None and mc["sample_path"]:
        _write_sample_path(out / "sample_path.csv", problem, control, mc_kwargs)
        files.update(sample_path="sample_path.csv")
    if "audit" in stages:
        summary["audits"] = _audit_stage(problem, audits, opts,
                                         solution.grid if solution is not None else grid,
                                         solution, summary, out)
        files.update(audits_json="audits.json", audits_md="audits.md")

    save_config(config, out / "config.json")
    files.update(config="config.json")
    summary["files"] = files
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return (1 if summary["audits"] is not None and not summary["audits"]["passed"] else 0), summary


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergodic-hjb",
        description=("Compute the critical long-run average cost of the coupled "
                     "two-state viscous Hamilton-Jacobi system, extract the optimal "
                     "feedback, and cross-validate it by linear programming and "
                     "Monte Carlo simulation."))
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": "solve the eigenvalue problem and extract the feedback control",
        "lp": "solve the occupation-measure linear program",
        "simulate": "Monte Carlo estimate of the average cost under a control",
        "audit": "run the full pipeline and the structural audits",
        "pipeline": "run every stage and write the artifact bundle",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="JSON config path or bundled benchmark name")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=None, help="override thread count")
        if name == "simulate":
            p.add_argument("--paths", type=int, default=None)
            p.add_argument("--T", type=float, default=None, dest="horizon")
            p.add_argument("--dt", type=float, default=None)
            p.add_argument("--burn-in", type=float, default=None, dest="burn_in")
            p.add_argument("--control", default=None,
                           help="extracted | zero | linear:<c>")
    return parser


_STAGE_SETS = {
    "solve": ("solve",),
    "lp": ("lp",),
    "simulate": ("solve", "simulate"),
    "audit": ALL_STAGES,
    "pipeline": ALL_STAGES,
}


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.threads is not None:
            config.threads = args.threads
        if args.command == "simulate":
            mc = dict(config.mc or {})
            for key in ("paths", "horizon", "dt", "burn_in", "control"):
                value = getattr(args, key)
                if value is not None:
                    mc[key] = value
            config.mc = mc
        if args.command == "lp" and config.lp is None:
            config.lp = {}   # the LP with its defaults, as simulate without an mc section
        code, summary = run_pipeline(config, stages=_STAGE_SETS[args.command],
                                     out_dir=args.out)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ErgodicHJBError as exc:
        print(f"stage failure [{args.command}]: {exc}", file=sys.stderr)
        return 1
    if summary.get("lambda"):
        print(f"lambda = {summary['lambda']['value']:.6f} ({summary['lambda']['method']})")
    if summary.get("lp"):
        print(f"lambda_bar = {summary['lp']['lambda_bar']:.6f}")
    if summary.get("mc"):
        print(f"mc average cost = {summary['mc']['avg_cost']:.6f} "
              f"+- {summary['mc']['std_error']:.6f}")
    if summary.get("audits"):
        status = "passed" if summary["audits"]["passed"] else "FAILED"
        print(f"audits: {status}")
    return code


if __name__ == "__main__":
    sys.exit(main())
