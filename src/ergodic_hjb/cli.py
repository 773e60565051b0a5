"""Batch front-end: solve / lp / simulate / audit / pipeline subcommands.

Every run is driven by a JSON config (a file path or a bundled benchmark
name) and writes a self-contained artifact bundle: a summary manifest, CSV
field dumps, eigenvalue histories, an optional sample path, and the audit
bundle.  Outputs carry no timestamps and all randomness is seeded, so a rerun
of the same config reproduces every file byte for byte.

Exit codes: 0 all stages and requested audits passed; 1 a stage failed or an
audit reported failure; 2 the config did not parse or validate.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import dual_lp, simulate, verify
from .config import RunConfig, load_config, save_config
from .discretize import build_grid, fields_to_csv
from .errors import ErgodicHJBError, ParameterError
from .model import validate_assumptions
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


def _solver_options(config: RunConfig) -> SolverOptions:
    allowed = {"tol_pde", "tol_lambda", "eps0", "eps_min", "max_policy_iters",
               "cap_factor", "control_cap"}
    unknown = set(config.solver) - allowed
    if unknown:
        raise ParameterError(f"unknown solver options: {sorted(unknown)}")
    return SolverOptions(**config.solver)


def _penalty(config: RunConfig, problem) -> PenaltyParams:
    if config.penalty is None:
        return default_penalty(problem)
    allowed = {"beta", "alpha_exp", "cap"}
    unknown = set(config.penalty) - allowed
    if unknown:
        raise ParameterError(f"unknown penalty options: {sorted(unknown)}")
    return PenaltyParams(**config.penalty).validated(problem)


def _parse_control(spec: str, radius: float, solution_control):
    if spec == "extracted":
        if solution_control is None:
            raise ParameterError("extracted control requested but no solve stage ran")
        return solution_control
    if spec == "zero":
        return simulate.FeedbackControl.zero(radius)
    if spec.startswith("linear:"):
        return simulate.FeedbackControl.linear(radius, float(spec.split(":", 1)[1]))
    raise ParameterError(f"unknown control spec {spec!r} (extracted | zero | linear:<c>)")


def _write_history_csv(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "lambda"])
        for param, lam in history:
            writer.writerow([repr(float(param)), repr(float(lam))])


def _write_sample_path(path, problem, control, config: RunConfig):
    mc = config.mc
    horizon = min(float(mc.get("horizon", 20.0)), 5.0)
    est = simulate.simulate_paths(
        problem, control, horizon=horizon, dt=float(mc.get("dt", 1e-3)), paths=1,
        burn_in=0.0, seed=config.seed + 1, record_samples=True, sample_target=10**9)
    s = est.samples
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = s.x.shape[1]
        writer.writerow(["t"] + [f"x{j+1}" for j in range(dim)] + ["state"]
                        + [f"u{j+1}" for j in range(dim)] + ["running_cost"])
        dt = float(mc.get("dt", 1e-3)) * s.stride
        for i in range(s.x.shape[0]):
            k = int(s.state[i])
            cost = float(problem.source(k)(s.x[i])
                         + problem.hamiltonian.lagrangian(k, s.x[i], s.control[i]))
            writer.writerow([repr(i * dt)] + [repr(float(v)) for v in s.x[i]] + [k]
                            + [repr(float(v)) for v in s.control[i]] + [repr(cost)])


def run_pipeline(config: RunConfig, stages=ALL_STAGES, out_dir=None) -> tuple[int, dict]:
    """Execute the selected stages and write the artifact bundle.

    Returns (exit code, summary dict).  Configuration problems raise
    ``ParameterError`` before any stage runs.
    """
    problem = config.problem_spec()
    opts = _solver_options(config)
    penalty = _penalty(config, problem)
    out = Path(out_dir or config.out or "ergodic_hjb_out")
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    summary = {"schema_version": config.schema_version, "config": config.to_dict(),
               "lambda": None, "lp": None, "mc": None, "audits": None}
    reports = []

    solution = None
    control_field = None
    mc_control = None
    need_solve = "solve" in stages or (
        "simulate" in stages and config.mc and config.mc.get("control", "extracted") == "extracted")

    if need_solve:
        grid = build_grid(problem.dimension, config.grid["radius"], config.grid["h"])
        if config.method == "vanishing_discount":
            solution = vanishing_discount(problem, grid, penalty=penalty, opts=opts)
        elif config.method == "nested_domains":
            solution = nested_domains(problem, config.radii, config.grid["h"],
                                      penalty=penalty, opts=opts)
        else:
            solution = solve_ergodic_normalized(problem, grid, penalty=penalty, opts=opts)
        control_field = extract_control(problem, solution)
        mc_control = simulate.FeedbackControl.from_fields(solution.grid, control_field.values)
        lam_block = {
            "value": solution.lam,
            "method": solution.method,
            "residual": solution.residual,
            "iterations": solution.iterations,
            "history": [[float(a), float(b)] for a, b in solution.history],
            "minimizer_interior": solution.minimizer_interior(),
            "minimizer_location": [solution.grid.points[i].tolist()
                                   for i in solution.minimizer_nodes()],
            "duality_residual": control_field.duality_residual,
        }
        if config.compare_methods:
            alt = (solve_ergodic_normalized(problem, solution.grid, penalty=penalty, opts=opts)
                   if config.method == "vanishing_discount"
                   else vanishing_discount(problem, solution.grid, penalty=penalty, opts=opts))
            lam_block["alternate"] = {"method": alt.method, "value": alt.lam,
                                      "gap": abs(alt.lam - solution.lam)}
        summary["lambda"] = lam_block
        fields_to_csv(solution.grid,
                      {"u": solution.u,
                       **{f"xi{j+1}": control_field.values[:, :, j]
                          for j in range(problem.dimension)}},
                      out / "fields.csv")
        files["fields"] = "fields.csv"
        _write_history_csv(out / "lambda_history.csv", solution.history)
        files["lambda_history"] = "lambda_history.csv"

    lam_lp = None
    if "lp" in stages and config.lp is not None:
        lp_grid = build_grid(problem.dimension, config.grid["radius"],
                             float(config.lp.get("h", 5 * config.grid["h"])))
        step = float(config.lp.get("control_step", 0.25))
        from .discretize import control_cap

        cap = control_cap(problem, lp_grid)
        mesh = dual_lp.build_control_mesh(
            problem, lp_grid, magnitudes=np.arange(0.0, cap + step, step),
            directions=int(config.lp.get("directions", 8)))
        lam_lp, measure = dual_lp.solve_lp(dual_lp.assemble_lp(problem, lp_grid, mesh))
        summary["lp"] = {"lambda_bar": lam_lp, **measure.to_dict()}

    mc_est = None
    if "simulate" in stages and config.mc is not None:
        mc = config.mc
        radius = float(config.grid["radius"])
        control = _parse_control(mc.get("control", "extracted"), radius, mc_control)
        mc_est = simulate.simulate_paths(
            problem, control, horizon=float(mc.get("horizon", 20.0)),
            dt=float(mc.get("dt", 1e-3)), paths=int(mc.get("paths", 2000)),
            burn_in=float(mc.get("burn_in", 0.1)), seed=config.seed,
            mode=mc.get("mode", "thinning"), threads=config.threads)
        summary["mc"] = mc_est.to_dict()
        if mc.get("perturbed"):
            worse = _parse_control(mc["perturbed"], radius, mc_control)
            worse_est = simulate.simulate_paths(
                problem, worse, horizon=float(mc.get("horizon", 20.0)),
                dt=float(mc.get("dt", 1e-3)), paths=int(mc.get("paths", 2000)),
                burn_in=float(mc.get("burn_in", 0.1)), seed=config.seed,
                mode=mc.get("mode", "thinning"), threads=config.threads)
            summary["mc"]["perturbed"] = worse_est.to_dict()
        if mc.get("sample_path"):
            _write_sample_path(out / "sample_path.csv", problem, control, config)
            files["sample_path"] = "sample_path.csv"

    if "audit" in stages:
        audit_grid = solution.grid if solution is not None else build_grid(
            problem.dimension, config.grid["radius"], config.grid["h"])
        if config.audits.get("assumptions", True):
            rep = validate_assumptions(problem, audit_grid)
            reports.append(verify.AuditReport(
                name="standing_assumptions", passed=rep.passed,
                constants=rep.to_dict(), narrative=rep.narrative))
        if config.audits.get("comparison", True):
            reports.append(verify.audit_comparison(problem, audit_grid, opts=opts))
        if config.audits.get("coercive", True) and solution is not None:
            reports.append(verify.audit_coercive_lower_bound(problem, solution))
        if config.audits.get("gradient_bound", False):
            reports.append(verify.audit_gradient_bound(problem, audit_grid, opts=opts))
        if solution is not None and (lam_lp is not None or mc_est is not None):
            reports.append(verify.consistency_report(
                solution.lam, lam_lp,
                mc_est.avg_cost if mc_est is not None else None,
                mc_est.std_error if mc_est is not None else 0.0))
        summary["audits"] = {"passed": all(r.passed for r in reports),
                             "reports": [r.to_dict() for r in reports]}
        with open(out / "audits.json", "w") as fh:
            json.dump(summary["audits"], fh, indent=2, sort_keys=True)
        with open(out / "audits.md", "w") as fh:
            fh.write(verify.reports_to_markdown(reports))
        files["audits_json"] = "audits.json"
        files["audits_md"] = "audits.md"

    save_config(config, out / "config.json")
    files["config"] = "config.json"
    summary["files"] = files
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)

    if "audit" in stages and reports and not all(r.passed for r in reports):
        return 1, summary
    return 0, summary


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
            for key, attr in (("paths", "paths"), ("horizon", "horizon"),
                              ("dt", "dt"), ("burn_in", "burn_in"),
                              ("control", "control")):
                value = getattr(args, attr, None)
                if value is not None:
                    mc[key] = value
            config.mc = mc
        # validate the penalty bracket and the reference point before any stage
        # runs; x_ref must be a node of the smallest box a stage solves on
        problem = config.problem_spec()
        _penalty(config, problem)
        _solver_options(config)
        radius = min([config.grid["radius"], *(config.radii or ())])
        build_grid(problem.dimension, radius, config.grid["h"]).index_of(problem.ref_point)
    except (ParameterError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        code, summary = run_pipeline(config, stages=_STAGE_SETS[args.command],
                                     out_dir=args.out)
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
