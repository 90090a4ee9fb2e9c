"""Span tracer installed around cyclezeta's public functions from outside.

``Tracer.install()`` replaces each target in ``TARGETS`` by a wrapper at
every place callers reach it: every ``cyclezeta.*`` module attribute bound
to the function (``point_count`` is bound in ``field_census``,
``exact_counts`` and ``cycle_oracle``; ``integrate_log_max`` in
``quadrature``, ``fs_norms`` and ``height_lab``) and the class attribute
for methods (``Fq.mul``).  A target that no longer exists is reported by
name in ``missing`` and its metrics are left out, never reported as zero.

Each job is a root span.  A "span" target records one span per call,
pointing to its parent span.  A "hot" target (``Fq.*``, ``eval_grid``,
``point_count``, ...) is called up to millions of times per job, so it is
only counted and timed per parent span.  A call's self time is its
duration minus the time of the wrapped calls made inside it; a layer's
self time is the sum over its targets.  Spans stay in memory and are
written out by ``dump`` when the pass ends.

Work counters that the program does not expose (points scanned, grid
evaluations, primes, candidates) are computed after the pass from the
recorded call arguments, with the formulas in ``references``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import references

# (module, attribute, kind, group).  Calls in one group nest into one
# inclusive time, e.g. Fq construction inside embedding counts once.
TARGETS = (
    ("finite_fields", "Fq.__init__", "span", "finite_fields.build"),
    ("finite_fields", "embedding", "span", "finite_fields.build"),
    ("finite_fields", "field", "hot", None),
    ("finite_fields", "Fq.mul", "hot", None),
    ("finite_fields", "Fq.pow", "hot", None),
    ("finite_fields", "Fq.inv", "hot", None),
    ("finite_fields", "Fq.add", "hot", None),
    ("finite_fields", "Fq.sub", "hot", None),
    ("finite_fields", "Fq.neg", "hot", None),
    ("finite_fields", "Fq.eval_poly", "hot", None),
    ("cycle_oracle", "closed_points", "span", None),
    ("cycle_oracle", "enum_zero_cycles", "span", None),
    ("cycle_oracle", "enum_divisors", "span", None),
    ("height_lab", "count_ff_points", "span", None),
    ("height_lab", "height_nv", "span", None),
    ("height_lab", "sh_set_census", "span", None),
    ("height_lab", "sh_set_table", "span", None),
    ("field_census", "point_count", "hot", None),
    ("field_census", "closed_point_census", "span", None),
    ("exact_counts", "cycle_count", "hot", None),
    ("exact_counts", "zero_cycle_count", "hot", None),
    ("exact_counts", "_zero_cycle_counts", "hot", None),
    ("exact_counts", "divisor_count", "hot", None),
    ("exact_counts", "divisor_count_by_degree", "hot", None),
    ("exact_counts", "top_cycle_count", "hot", None),
    ("zeta_series", "local_zeta_series", "hot", None),
    ("zeta_series", "abscissa_sequence", "span", None),
    ("zeta_series", "l_function_partial_with_error", "span", None),
    ("zeta_series", "spec_z_zeta_partial", "span", None),
    ("bound_engine", "explicit_constant_pn", "span", None),
    ("bound_engine", "pushforward_bound", "span", None),
    ("bound_engine", "product_cycle_bound", "span", None),
    ("multipoly", "parse_affine_polynomial", "span", "multipoly.parse"),
    ("multipoly", "parse_integer_form", "span", "multipoly.parse"),
    ("multipoly", "MultiPoly.eval_grid", "hot", None),
    ("quadrature", "plane_nodes", "hot", None),
    ("quadrature", "integrate_log_max", "span", None),
    ("quadrature", "batched_log_integrals", "span", None),
    ("fs_norms", "v_measure", "span", None),
    ("fs_norms", "delta_lambda", "span", None),
    ("fs_norms", "count_arith_divisors_bounded", "span", None),
    ("cli", "main", "span", None),
)

# calls whose arguments name shared set-up: a field, a (space, q) point
# list or zero-cycle series, a quadrature node set
REUSE_KEYS = {"field", "embedding", "closed_points", "_zero_cycle_counts",
              "plane_nodes"}

# calls whose arguments or results feed the computed work counters
RECORDED = {"closed_points", "enum_zero_cycles", "enum_divisors",
            "count_ff_points", "local_zeta_series",
            "l_function_partial_with_error", "integrate_log_max",
            "batched_log_integrals", "count_arith_divisors_bounded",
            "sh_set_census"}


def target_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.names = [target_name(m, a) for m, a, _, _ in TARGETS]
        self.layers = [m for m, _, _, _ in TARGETS]
        groups = [g or target_name(m, a) for m, a, _, g in TARGETS]
        self.group_names = sorted(set(groups))
        self.group_of = [self.group_names.index(g) for g in groups]
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_time = [0.0] * n
        self.group_active = [0] * len(self.group_names)
        self.group_incl = [0.0] * len(self.group_names)
        self.missing: list[str] = []
        self.stack: list[list[float]] = []
        self.span_stack: list[int] = []
        self.spans: list[list] = []  # [id, parent, job, name, start, end]
        self.hot: dict[tuple[int, int], list] = {}  # (span, target) -> [n, s]
        self.records: list[tuple] = []  # (target, args, kwargs, result, extra)
        self.job_id = None
        self.first_seen: dict = {}
        self.reusing_jobs: set = set()
        self.jobs: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for idx, (mod_name, attr, kind, _) in enumerate(TARGETS):
            try:
                module = importlib.import_module(f"cyclezeta.{mod_name}")
            except ImportError:
                self.missing.append(self.names[idx])
                continue
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                orig = None if owner is None else owner.__dict__.get(meth)
                if orig is None:
                    self.missing.append(self.names[idx])
                    continue
                setattr(owner, meth, self._wrap(idx, orig, kind == "span"))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(self.names[idx])
                continue
            wrapper = self._wrap(idx, orig, kind == "span")
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "cyclezeta":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def _wrap(self, idx: int, fn, keep_span: bool):
        perf = time.perf_counter
        stack, span_stack, hot = self.stack, self.span_stack, self.hot
        calls, self_time = self.calls, self.self_time
        group = self.group_of[idx]
        group_active, group_incl = self.group_active, self.group_incl
        short = self.names[idx].rpartition(".")[2]
        reuse = short in REUSE_KEYS
        record = short in RECORDED
        cache_info = getattr(fn, "cache_info", None)
        counts_points = short == "local_zeta_series"
        pc_idx = self.names.index("field_census.point_count")
        tracer = self

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if reuse:
                tracer._note_key(short, args)
            if record:
                # point_count calls made by a series, or whether a cached
                # enumerator computed rather than served its result
                before = (calls[pc_idx] if counts_points
                          else cache_info().misses if cache_info else 0)
            frame = [0.0]
            stack.append(frame)
            group_active[group] += 1
            if keep_span:
                sid = len(tracer.spans)
                span = [sid, span_stack[-1] if span_stack else None,
                        tracer.job_id, idx, perf(), None]
                tracer.spans.append(span)
                span_stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                self_time[idx] += dt - frame[0]
                group_active[group] -= 1
                if not group_active[group]:
                    group_incl[group] += dt
                if stack:
                    stack[-1][0] += dt
                if keep_span:
                    span_stack.pop()
                    span[5] = span[4] + dt
                else:
                    key = (span_stack[-1] if span_stack else None, idx)
                    agg = hot.get(key)
                    if agg is None:
                        hot[key] = [1, dt]
                    else:
                        agg[0] += 1
                        agg[1] += dt
            if record:
                after = (calls[pc_idx] if counts_points
                         else cache_info().misses if cache_info else 1)
                tracer.records.append((short, args, kwargs, result, after - before))
            return result

        return wrapper

    def _note_key(self, short, args):
        first = self.first_seen.setdefault((short, args), self.job_id)
        if first != self.job_id:
            self.reusing_jobs.add(self.job_id)

    # -- jobs ----------------------------------------------------------------

    def run_job(self, job_id, name: str, call):
        """Run call() as the root span of one job."""
        perf = time.perf_counter
        self.job_id = job_id
        self.jobs.append(job_id)
        sid = len(self.spans)
        span = [sid, None, job_id, f"job:{name}", perf(), None]
        self.spans.append(span)
        self.span_stack.append(sid)
        self.stack.append([0.0])
        try:
            return call()
        finally:
            self.stack.pop()
            self.span_stack.pop()
            span[5] = perf()
            self.job_id = None

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Counts, self and inclusive times, and computed work counters."""
        by_name = {}
        for idx, name in enumerate(self.names):
            if name in self.missing:
                continue
            by_name[name] = {"calls": self.calls[idx],
                             "self_s": self.self_time[idx],
                             "layer": self.layers[idx]}
        gone = {self.group_names[self.group_of[i]]
                for i, name in enumerate(self.names) if name in self.missing}
        incl = {g: t for g, t in zip(self.group_names, self.group_incl)
                if g not in gone}
        return {
            "targets": by_name,
            "incl_s": incl,
            "missing": list(self.missing),
            "work": _work_counters(self.records),
            "jobs": len(self.jobs),
            "reusing_jobs": len(self.reusing_jobs),
            "spans": len(self.spans),
        }

    def dump(self, path) -> None:
        """Write the spans and per-parent kernel aggregates as JSON."""
        names = self.names
        doc = {
            "spans": [
                {"id": s[0], "parent": s[1], "job": s[2],
                 "name": s[3] if isinstance(s[3], str) else names[s[3]],
                 "start": s[4], "end": s[5]}
                for s in self.spans
            ],
            "kernels": [
                {"parent": parent, "name": names[idx], "calls": n, "s": t}
                for (parent, idx), (n, t) in self.hot.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _space_key(space):
    kind = type(space).__name__
    if kind == "ProjSpace":
        return ("pn", space.n)
    if kind == "P1Power":
        return ("p1xn", space.n)
    return None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _grid_points(nvars: int, cfg) -> int:
    if cfg.scheme == "monte_carlo":
        return cfg.sample_count
    return (2 * cfg.nodes_per_dim ** 2) ** nvars


WORK_KEYS = ("points_scanned", "closed_points_found_deg", "objects_enumerated",
             "tuples_scanned", "ff_points_found", "coeffs_produced",
             "lzs_point_counts", "primes", "grid_evals", "candidates",
             "borderline", "box_members")


def _work_counters(records) -> dict:
    w = dict.fromkeys(WORK_KEYS, 0)
    for short, args, kwargs, result, extra in records:
        if short == "closed_points":
            space, q, d = (_arg(args, kwargs, i, n)
                           for i, n in enumerate(("space", "q", "d")))
            if extra:  # computed, not served from the cache
                key = _space_key(space)
                w["points_scanned"] += references.point_count(key, q.q, d)
                w["closed_points_found_deg"] += d * len(result)
                w["objects_enumerated"] += len(result)
        elif short in ("enum_zero_cycles", "enum_divisors"):
            w["objects_enumerated"] += len(result)
        elif short == "count_ff_points":
            q, n, h = (_arg(args, kwargs, i, k) for i, k in enumerate("qnh"))
            w["tuples_scanned"] += q.q ** ((n + 1) * (h + 1))
            w["ff_points_found"] += result
        elif short == "local_zeta_series":
            w["coeffs_produced"] += _arg(args, kwargs, 3, "kmax") + 1
            w["lzs_point_counts"] += extra
        elif short == "l_function_partial_with_error":
            w["primes"] += len(references.primes_upto(_arg(args, kwargs, 3, "pmax")))
        elif short == "integrate_log_max":
            polys = _arg(args, kwargs, 0, "polys")
            cfg = _arg(args, kwargs, 1, "cfg")
            live = [f for f in polys if not f.is_zero]
            if live and live[0].nvars:
                w["grid_evals"] += _grid_points(live[0].nvars, cfg) * len(live)
        elif short == "batched_log_integrals":
            rows = _arg(args, kwargs, 0, "coeff_matrix").shape[0]
            nvars = _arg(args, kwargs, 2, "nvars")
            w["grid_evals"] += _grid_points(nvars, _arg(args, kwargs, 3, "cfg")) * rows
        elif short == "count_arith_divisors_bounded":
            n, lam, h = (_arg(args, kwargs, i, k)
                         for i, k in enumerate(("n", "lam", "h")))
            w["candidates"] += references.arith_divisor_region(n, lam, h)[2]
            w["borderline"] += len(result.borderline)
        elif short == "sh_set_census":
            w["box_members"] += result.count
    return w
