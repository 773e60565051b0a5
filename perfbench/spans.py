"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of ``ergodic_hjb`` (and the two scipy
entry points the package calls into) at every attribute where a caller looks
them up, records one span per call (name, start, end, parent, thread) in
memory, and turns the spans into the per-layer metrics listed in
``PER_LAYER``.  Nothing inside the package is edited: a name that no longer
exists is reported as a missing span, and metrics that depend on it read 0.

Self time of a span is its duration minus the durations of its children on
the same thread.  Spans opened in pool threads (the Monte Carlo chunks) get
the span that was open on the tracing thread as parent, but they do not
subtract from it: the per-layer ``self_s`` buckets partition the wall time of
the tracing thread, and sum with ``trace.harness_self_s`` to ``trace.wall_s``.
Totals such as ``fields.coef_s`` add busy time over all threads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

PKG = "ergodic_hjb"

# (module, attribute or Class.method, span name, self-time bucket)
TARGETS = (
    (f"{PKG}.cli", "run_pipeline", "cli.run_pipeline", "cli.io_self_s"),
    (f"{PKG}.solver", "vanishing_discount", "solver.vanishing_discount", "solver.self_s"),
    (f"{PKG}.solver", "solve_discounted", "solver.solve_discounted", "solver.self_s"),
    (f"{PKG}.solver", "solve_ergodic_normalized", "solver.solve_ergodic_normalized",
     "solver.self_s"),
    (f"{PKG}.solver", "nested_domains", "solver.nested_domains", "solver.self_s"),
    (f"{PKG}.solver", "extract_control", "solver.extract_control", "solver.self_s"),
    (f"{PKG}.solver", "policy_evaluation", "solver.policy_evaluation", "solver.self_s"),
    # the direct route evaluates each policy through this private helper
    (f"{PKG}.solver", "_ergodic_evaluation", "solver.ergodic_evaluation", "solver.self_s"),
    ("scipy.sparse.linalg", "splu", "solver.factor", "solver.factor_s"),
    (f"{PKG}.discretize", "assemble_generator", "discretize.assemble_generator",
     "discretize.self_s"),
    (f"{PKG}.discretize", "gradient_central", "discretize.gradient_central",
     "discretize.self_s"),
    (f"{PKG}.discretize", "fields_to_csv", "discretize.fields_to_csv", "discretize.self_s"),
    (f"{PKG}.dual_lp", "build_control_mesh", "dual_lp.build_control_mesh", "dual_lp.self_s"),
    (f"{PKG}.dual_lp", "assemble_lp", "dual_lp.assemble_lp", "dual_lp.self_s"),
    (f"{PKG}.dual_lp", "solve_lp", "dual_lp.solve_lp", "dual_lp.self_s"),
    (f"{PKG}.dual_lp", "linprog", "dual_lp.highs", "dual_lp.highs_s"),
    (f"{PKG}.simulate", "simulate_paths", "simulate.simulate_paths", "simulate.self_s"),
    (f"{PKG}.model", "validate_assumptions", "verify.standing_assumptions", "verify.self_s"),
    (f"{PKG}.verify", "audit_comparison", "verify.comparison", "verify.self_s"),
    (f"{PKG}.verify", "audit_coercive_lower_bound", "verify.coercive", "verify.self_s"),
    (f"{PKG}.verify", "audit_gradient_bound", "verify.gradient_bound", "verify.self_s"),
    (f"{PKG}.verify", "consistency_report", "verify.consistency", "verify.self_s"),
    (f"{PKG}.fields", "CoefficientField.__call__", "fields.coef", "fields.self_s"),
    (f"{PKG}.fields", "MetricField.__call__", "fields.metric", "fields.self_s"),
    (f"{PKG}.fields", "MetricField.inverse", "fields.metric", "fields.self_s"),
)
# triangular solves are spans of the factor object splu returns
TRISOLVE = ("solver.trisolve", "solver.trisolve_s")

AUDITS = ("standing_assumptions", "comparison", "coercive", "gradient_bound", "consistency")

# cli stage of each direct child of run_pipeline, by span-name prefix; cost
# evaluations while writing the sample path are fields calls in the MC stage
STAGE_OF_PREFIX = {"solver.": "solve", "discretize.": "solve", "dual_lp.": "lp",
                   "simulate.": "mc", "fields.": "mc", "verify.": "audit"}

SELF_BUCKETS = ("cli.io_self_s", "solver.self_s", "solver.factor_s", "solver.trisolve_s",
                "discretize.self_s", "dual_lp.self_s", "dual_lp.highs_s", "simulate.self_s",
                "verify.self_s", "fields.self_s")

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("cli.solve_stage_s", "s", "lower", "wall_s on pipeline-1d"),
    ("cli.lp_stage_s", "s", "lower", "wall_s on pipeline-1d"),
    ("cli.mc_stage_s", "s", "lower", "wall_s on pipeline-1d"),
    ("cli.audit_stage_s", "s", "lower", "wall_s on pipeline-1d"),
    ("cli.io_self_s", "s", "lower", "wall_s on pipeline-1d (bundle writing)"),
    ("solver.unknowns", "count", "lower", "wall_s, peak_rss_mb on solve-2d"),
    ("solver.howard_iters", "count", "lower", "wall_s on solve-2d; not pipeline-1d"),
    ("solver.factor_calls", "count", "lower", "wall_s on solve-2d; not pipeline-1d"),
    ("solver.factor_s", "s", "lower", "wall_s on solve-2d; not pipeline-1d"),
    ("solver.lu_nnz", "count", "lower", "peak_rss_mb and wall_s on solve-2d"),
    ("solver.trisolve_calls", "count", "lower", "wall_s on solve-2d"),
    ("solver.trisolve_s", "s", "lower", "wall_s on solve-2d"),
    ("solver.policy_eval_s", "s", "lower", "wall_s on solve-2d; not pipeline-1d"),
    ("solver.self_s", "s", "lower", "wall_s on solve-2d (pinning, improvement, defect)"),
    ("solver.ns_per_unknown_iter", "ns", "lower", "wall_s on solve-2d"),
    ("discretize.assemble_calls", "count", "lower", "wall_s on solve-2d"),
    ("discretize.assemble_s", "s", "lower", "wall_s on solve-2d"),
    ("discretize.gradient_s", "s", "lower", "wall_s on solve-2d"),
    ("discretize.csv_s", "s", "lower", "wall_s on pipeline-1d"),
    ("discretize.self_s", "s", "lower", "wall_s on solve-2d"),
    ("dual_lp.columns", "count", "lower", "wall_s on pipeline-1d"),
    ("dual_lp.rows", "count", "lower", "wall_s on pipeline-1d"),
    ("dual_lp.nnz", "count", "lower", "wall_s on pipeline-1d"),
    ("dual_lp.assemble_s", "s", "lower", "wall_s on pipeline-1d"),
    ("dual_lp.highs_s", "s", "lower", "wall_s on pipeline-1d"),
    ("dual_lp.highs_iters", "count", "lower", "wall_s on pipeline-1d"),
    ("dual_lp.self_s", "s", "lower", "wall_s on pipeline-1d"),
    ("simulate.calls", "count", "lower", "wall_s on pipeline-1d and mc-2d"),
    ("simulate.path_steps", "count", "lower", "wall_s on pipeline-1d and mc-2d"),
    ("simulate.mc_s", "s", "lower", "wall_s on pipeline-1d and mc-2d"),
    ("simulate.ns_per_path_step", "ns", "lower",
     "wall_s on pipeline-1d (1 thread) and mc-2d (2 threads)"),
    ("simulate.clamp_count", "count", "lower", "correctness on pipeline-1d and mc-2d"),
    ("simulate.switch_count", "count", "lower", "wall_s on mc-2d"),
    ("simulate.self_s", "s", "lower", "wall_s and peak_rss_mb on mc-2d"),
    ("verify.audit_calls", "count", "lower", "wall_s on pipeline-1d"),
    ("verify.audit_s", "s", "lower", "wall_s on pipeline-1d"),
    *((f"verify.audit_s.{a}", "s", "lower", "wall_s on pipeline-1d") for a in AUDITS),
    ("verify.self_s", "s", "lower", "wall_s on pipeline-1d"),
    ("fields.coef_calls", "count", "lower", "wall_s on mc-2d and solve-2d"),
    ("fields.coef_s", "s", "lower", "wall_s on mc-2d and solve-2d"),
    ("fields.metric_calls", "count", "lower", "wall_s on solve-2d and mc-2d"),
    ("fields.metric_s", "s", "lower", "wall_s on solve-2d and mc-2d"),
    ("fields.self_s", "s", "lower", "wall_s on mc-2d and solve-2d"),
    ("trace.wall_s", "s", "lower", "none: traced wall time of the timed section"),
    ("trace.untraced_wall_s", "s", "lower", "none: untraced wall time, same run"),
    ("trace.overhead_s", "s", "lower", "none: tracing cost, every workload"),
    ("trace.harness_self_s", "s", "lower", "none: benchmark code between traced calls"),
    ("trace.spans", "count", "lower", "none: spans recorded"),
    ("trace.missing_spans", "count", "lower", "none: wrapped names no longer found"),
)

# per-layer counts that must repeat exactly for the same code, whatever the seed
SEED_FREE_COUNTS = (
    "solver.unknowns", "solver.howard_iters", "solver.factor_calls", "solver.lu_nnz",
    "solver.trisolve_calls", "discretize.assemble_calls", "dual_lp.columns", "dual_lp.rows",
    "dual_lp.nnz", "dual_lp.highs_iters", "simulate.calls", "simulate.path_steps",
    "verify.audit_calls", "fields.coef_calls", "fields.metric_calls", "trace.spans",
    "trace.missing_spans",
)
# per-layer counts that must repeat exactly for the same code and seed
SEEDED_COUNTS = ("simulate.clamp_count", "simulate.switch_count")


def _sizes(name, kwargs, out):
    """Size counters of one call, read from its arguments and result.

    Returns None where the call carries none, or where a later version of the
    package changed the fields read here (the counters then read 0).
    """
    try:
        if name == "solver.factor":
            return out.shape[0], int(out.nnz)
        if name == "dual_lp.highs":
            a_eq = kwargs["A_eq"]
            return a_eq.shape, int(a_eq.nnz), int(out.nit)
        if name in ("solver.solve_discounted", "solver.solve_ergodic_normalized"):
            return out.iterations, 2 * out.grid.n_nodes
        if name == "simulate.simulate_paths":
            return (out.paths * int(round(out.horizon / out.dt)), out.clamp_count,
                    out.switch_count)
    except (AttributeError, KeyError, TypeError):
        return None
    return None


class _FactorProxy:
    """Stands in for a SuperLU object so that its ``solve`` calls become spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        idx = self._tracer._open(TRISOLVE[0])
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer._close(idx)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans between ``start()`` and ``stop()`` while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, thread id]
        self.results = []        # (span index, size counters of the call)
        self.missing = []
        self._patches = []       # (owner, attribute, original)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = None
        self._home_stack = None
        self.t0 = self.t1 = None

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, threading.get_ident()])
        stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            sizes = _sizes(name, kwargs, out)
            if sizes is not None:
                tracer.results.append((idx, sizes))
            return _FactorProxy(out, tracer) if name == "solver.factor" else out

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target at each module attribute that holds it."""
        self._home = threading.get_ident()
        self._home_stack = self._stack()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PKG or n.startswith(PKG + "."))]
        for mod_name, attr, name, _ in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
                *cls_path, leaf = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(original, name)
            self._patch(owner, leaf, original, wrapped)
            if cls_path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and not (mod is owner and key == leaf):
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def start(self):
        self.t0 = time.perf_counter()

    def stop(self):
        self.t1 = time.perf_counter()

    # -- aggregation -------------------------------------------------------

    def metrics(self, untraced_wall):
        """Per-layer metrics of the traced interval, every name in PER_LAYER."""
        spans = self.spans
        bucket_of = {name: bucket for _, _, name, bucket in TARGETS}
        bucket_of[TRISOLVE[0]] = TRISOLVE[1]
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        for i, s in enumerate(spans):
            parent = s[3]
            if parent >= 0:
                children[parent].append(i)
                if spans[parent][4] == s[4]:
                    child_time[parent] += dur[i]
        self_time = [d - c for d, c in zip(dur, child_time)]

        m = {name: 0.0 for name, *_ in PER_LAYER}
        calls = defaultdict(int)
        total = defaultdict(float)
        for i, s in enumerate(spans):
            calls[s[0]] += 1
            total[s[0]] += dur[i]
            if s[4] == self._home:
                m[bucket_of[s[0]]] += self_time[i]
        wall = self.t1 - self.t0
        top = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
        m["trace.harness_self_s"] = wall - top

        for i, s in enumerate(spans):
            if s[0] != "cli.run_pipeline":
                continue
            for c in children[i]:
                name = spans[c][0]
                stage = next((v for k, v in STAGE_OF_PREFIX.items() if name.startswith(k)),
                             None)
                if stage is not None:
                    m[f"cli.{stage}_stage_s"] += dur[c]

        solve_work = 0
        solve_time = 0.0
        path_steps = 0
        factor_sizes = []
        for idx, out in self.results:
            name = spans[idx][0]
            if name == "solver.factor":
                factor_sizes.append(out)
            elif name == "dual_lp.highs":
                (rows, cols), nnz, nit = out
                m["dual_lp.rows"] += rows
                m["dual_lp.columns"] += cols
                m["dual_lp.nnz"] += nnz
                m["dual_lp.highs_iters"] += nit
            elif name == "simulate.simulate_paths":
                path_steps += out[0]
                m["simulate.clamp_count"] += out[1]
                m["simulate.switch_count"] += out[2]
            else:
                iterations, unknowns = out
                m["solver.howard_iters"] += iterations
                solve_work += unknowns * iterations
                solve_time += dur[idx]

        m["solver.unknowns"] = max((n for n, _ in factor_sizes), default=0)
        m["solver.lu_nnz"] = max((nnz for _, nnz in factor_sizes), default=0)
        m["solver.factor_calls"] = calls["solver.factor"]
        m["solver.trisolve_calls"] = calls[TRISOLVE[0]]
        m["solver.policy_eval_s"] = (total["solver.policy_evaluation"]
                                     + total["solver.ergodic_evaluation"])
        m["solver.ns_per_unknown_iter"] = 1e9 * solve_time / solve_work if solve_work else 0.0
        m["discretize.assemble_calls"] = calls["discretize.assemble_generator"]
        m["discretize.assemble_s"] = total["discretize.assemble_generator"]
        m["discretize.gradient_s"] = total["discretize.gradient_central"]
        m["discretize.csv_s"] = total["discretize.fields_to_csv"]
        m["dual_lp.assemble_s"] = total["dual_lp.assemble_lp"]
        m["simulate.calls"] = calls["simulate.simulate_paths"]
        m["simulate.path_steps"] = path_steps
        m["simulate.mc_s"] = total["simulate.simulate_paths"]
        m["simulate.ns_per_path_step"] = (1e9 * m["simulate.mc_s"] / path_steps
                                          if path_steps else 0.0)
        for audit in AUDITS:
            m["verify.audit_calls"] += calls[f"verify.{audit}"]
            m[f"verify.audit_s.{audit}"] = total[f"verify.{audit}"]
            m["verify.audit_s"] += total[f"verify.{audit}"]
        m["fields.coef_calls"] = calls["fields.coef"]
        m["fields.coef_s"] = total["fields.coef"]
        m["fields.metric_calls"] = calls["fields.metric"]
        m["fields.metric_s"] = total["fields.metric"]
        m["trace.wall_s"] = wall
        m["trace.untraced_wall_s"] = untraced_wall
        m["trace.overhead_s"] = wall - untraced_wall
        m["trace.spans"] = len(spans)
        m["trace.missing_spans"] = len(self.missing)
        return m

    def partition_error(self, m):
        """|sum of self-time buckets + harness - traced wall|, in seconds."""
        parts = sum(m[b] for b in SELF_BUCKETS) + m["trace.harness_self_s"]
        return abs(parts - m["trace.wall_s"])

    def dump(self):
        """Spans as plain lists, with times relative to the traced start."""
        return {"missing": self.missing,
                "fields": ["name", "start_s", "end_s", "parent", "thread"],
                "spans": [[s[0], s[1] - self.t0, s[2] - self.t0, s[3], s[4]]
                          for s in self.spans]}
