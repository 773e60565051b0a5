"""Benchmark of the ergodic_hjb package: end-to-end and traced per-layer runs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline-1d --seed 1 --seconds 20 --trace 0

Workloads are ``pipeline-1d``, ``solve-2d`` and ``mc-2d`` (see workloads.py);
each is a closed loop with one caller.  Every iteration runs in a fresh
interpreter that imports the package from ``src/`` of the checkout, with
BLAS/OpenMP thread counts capped at the number of usable cores.

``--trace 0`` runs iterations until their timed sections add up to
``--seconds`` (at least one), times set-up in further fresh interpreters
until ``SETUP_REPEATS`` warm set-ups are counted, and reports the
end-to-end metrics as medians.  ``--trace 1`` runs one interpreter that
times one untraced and one traced iteration and reports the per-layer
metrics of spans.py.

Every iteration's outputs are checked; an exception, a non-zero pipeline
exit or a failed check counts into ``failed``.  Outputs and counters must
also repeat exactly between iterations, and between runs of the same code
(for the same seed, or for any seed where they do not depend on it).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run records, spans and the store
of earlier answers go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name, unit, better, bound
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# -- worker: one fresh interpreter ------------------------------------------


def worker(args) -> None:
    """Set up, run and check one workload iteration; print its record as JSON."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload.setup(args.seed, str(scratch))
    record = {"setup_s": time.perf_counter() - t0}
    import ergodic_hjb
    import numpy
    import scipy

    if not Path(ergodic_hjb.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"imported ergodic_hjb from {ergodic_hjb.__file__}, not from the checkout", 1)
    if args.role == "setup":
        print(json.dumps(record))
        return

    answers, failures, labels = [], [], []

    def attempt(label, tracer=None):
        """One timed iteration; an exception or a failed check is a failure."""
        labels.append(label)
        t = time.perf_counter()
        try:
            out = workload.run()
        except Exception:
            failures.append(f"{label}: {traceback.format_exc(limit=4)}")
            return time.perf_counter() - t, None
        finally:
            if tracer is not None:
                tracer.stop()
                tracer.uninstall()
        wall = time.perf_counter() - t
        try:
            answers.append(workload.answers(out))
            failures.extend(f"{label}: {f}" for f in workload.check(out))
        except Exception:
            failures.append(f"{label}: checking the outputs raised "
                            f"{traceback.format_exc(limit=4)}")
            return wall, None
        if answers[-1] != answers[0]:
            failures.append(f"{label}: answers {answers[-1]} differ from {answers[0]}")
        return wall, out

    wall, out = attempt("untraced")
    record["wall_s"] = wall
    if args.trace == 1 and out is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start()
        _, out = attempt("traced", tracer)
        if out is not None:
            record["layers"] = tracer.metrics(untraced_wall=wall)
            error = tracer.partition_error(record["layers"])
            if error > 1e-6:
                failures.append(f"traced: self times miss the traced wall by {error:.3g} s")
            record["missing_spans"] = tracer.missing
            with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump(tracer.dump(), fh)
    import resource

    record.update({
        "attempted": len(labels),
        "failed": len({f.split(":", 1)[0] for f in failures}),
        "failures": failures, "answers": answers[0] if answers else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    print(json.dumps(record))


# -- orchestrator -----------------------------------------------------------


def _env() -> tuple[dict, dict]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    caps = {}
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        caps[var] = str(max(1, min(current, nproc)))
    env.update(caps)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env, {"nproc": nproc, **caps}


def _spawn(args, role: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except subprocess.TimeoutExpired:
        _fail(f"{role} process for {args.workload} did not finish in time", 1)
    if proc.returncode != 0:
        _fail(f"{role} process for {args.workload} exited with {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC / "ergodic_hjb", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _remember(workload, seed: int, digest: str, values: dict) -> list[str]:
    """Compare deterministic outputs with earlier runs of the same code; store new ones.

    Keys the workload names seed-free (and the structural layer counts) must
    match across seeds; every key must match for the same seed.
    """
    from spans import SEED_FREE_COUNTS

    store_path = OUT / "answers.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    by_code = store.setdefault(digest, {}).setdefault(workload.name, {})
    free = set(workload.seed_free) | set(SEED_FREE_COUNTS)
    failures = []
    for key, subset in (("any seed", {k: v for k, v in values.items() if k in free}),
                        (f"seed {seed}", values)):
        earlier = by_code.setdefault(key, {})
        for k, v in subset.items():
            if k in earlier and earlier[k] != v:
                failures.append(f"{k} = {v!r} differs from {earlier[k]!r} of an earlier run "
                                f"of the same code ({key})")
            earlier.setdefault(k, v)
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return failures


def _check_manifest():
    from spans import PER_LAYER

    try:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    declared = [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]]
    if declared != list(END_TO_END):
        _fail("BENCHMARK.json end_to_end does not match run.py END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    if declared != [(n, u, b) for n, u, b, _ in PER_LAYER]:
        _fail("BENCHMARK.json per_layer does not match spans.PER_LAYER")


def orchestrate(args) -> None:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "ergodic_hjb" / "__init__.py").is_file():
        _fail(f"no ergodic_hjb sources under {SRC}")
    sys.path.insert(0, str(HERE))
    from spans import PER_LAYER, SEED_FREE_COUNTS, SEEDED_COUNTS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    _check_manifest()
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env, threads = _env()

    runs = [_spawn(args, "run", env, deadline)]
    while args.trace == 0 and sum(r["wall_s"] for r in runs) < args.seconds:
        runs.append(_spawn(args, "run", env, deadline))
    # the first interpreter may compile bytecode, so its set-up is not counted
    setups = [r["setup_s"] for r in runs[1:]]
    while args.trace == 0 and len(setups) < SETUP_REPEATS:
        setups.append(_spawn(args, "setup", env, deadline)["setup_s"])

    failures = [f"process {i + 1}: {f}" for i, r in enumerate(runs) for f in r["failures"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    answers = runs[0]["answers"]
    for i, r in enumerate(runs[1:], start=2):
        if r["answers"] is not None and answers is not None and r["answers"] != answers:
            failures.append(f"process {i}: answers {r['answers']} differ from {answers}")
            failed += 1
    if args.trace == 0:
        metrics = {"wall_s": statistics.median(r["wall_s"] for r in runs),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
        units = {n: u for n, u, *_ in END_TO_END}
    else:
        metrics = runs[0].get("layers") or {n: 0.0 for n, *_ in PER_LAYER}
        units = {n: u for n, u, *_ in PER_LAYER}
    digest = _source_digest()
    if answers is not None:
        values = dict(answers)
        if "layers" in runs[0]:
            values.update({k: metrics[k] for k in SEED_FREE_COUNTS + SEEDED_COUNTS})
        repeat = _remember(workload, args.seed, digest, values)
        failures += repeat
        failed += bool(repeat and not failed)
    failed = min(failed, attempted)

    lam = (answers or {}).get("lambda")
    lambda_err = abs(lam - workload.exact) if lam is not None and workload.exact else None
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 caller", "git_sha": _git_sha(),
        "source_digest": digest, "versions": runs[0]["versions"], "threads": threads,
        "walls_s": [r["wall_s"] for r in runs], "setups_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs], "answers": answers,
        "lambda_err": lambda_err, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "failures": failures,
        "missing_spans": runs[0].get("missing_spans", []), "metrics": metrics,
    }
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"processes {len(runs)}  nproc {threads['nproc']}  "
          f"BLAS/OpenMP threads {threads['OMP_NUM_THREADS']}")
    moves = {n: m for n, _, _, m in PER_LAYER}
    for name, value in metrics.items():
        unit = units[name]
        shown = int(value) if unit == "count" else value
        print(f"  {name:36s} {shown!r:>22} {unit:5s} {moves.get(name, '')}")
    if args.trace == 0:
        print(f"  {'lambda_err':36s} {lambda_err!r:>22} "
              f"{'-     (no exact value)' if lambda_err is None else '-'}")
        print(f"  {'fail_frac':36s} {failed / attempted!r:>22} -     ({failed}/{attempted})")
        print(f"  wall_s and peak_rss_mb are medians over {len(runs)} processes, setup_s "
              f"over {len(setups)} warm set-ups")
    for f in failures:
        print(f"  FAILED: {f.strip()}")
    print(json.dumps({
        "correct": not failures and failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": int(v) if units[n] == "count" else v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup"), default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.role is None:
        orchestrate(args)
    else:
        worker(args)


if __name__ == "__main__":
    main()
