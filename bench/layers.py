"""Per-layer metrics of the traced run, and which end-to-end metric each
layer should move.

``metrics(summary, cli, overhead)`` turns one traced pass (a tracer
summary, merged over the CLI children on ``cli_cold``) into the named
metrics below.  Times are totals over the pass; ratios come with the
counts they divide so the report can print their base.
"""

from __future__ import annotations

from tracer import WORK_KEYS

# name, unit, better; names follow "<module>.<quantity>"
PER_LAYER = [
    ("finite_fields.mul_calls", "count", "lower"),
    ("finite_fields.pow_calls", "count", "lower"),
    ("finite_fields.inv_calls", "count", "lower"),
    ("finite_fields.addsub_calls", "count", "lower"),
    ("finite_fields.self_s", "s", "lower"),
    ("finite_fields.fields_built", "count", "lower"),
    ("finite_fields.build_s", "s", "lower"),
    ("cycle_oracle.closed_points_s", "s", "lower"),
    ("cycle_oracle.points_scanned", "count", "lower"),
    ("cycle_oracle.orbit_yield", "ratio", "higher"),
    ("cycle_oracle.enum_zero_cycles_s", "s", "lower"),
    ("cycle_oracle.enum_divisors_s", "s", "lower"),
    ("cycle_oracle.objects_enumerated", "count", "lower"),
    ("cycle_oracle.self_s", "s", "lower"),
    ("height_lab.count_ff_points_s", "s", "lower"),
    ("height_lab.tuples_scanned", "count", "lower"),
    ("height_lab.point_yield", "ratio", "higher"),
    ("height_lab.height_nv_s", "s", "lower"),
    ("height_lab.sh_set_census_s", "s", "lower"),
    ("height_lab.box_members", "count", "lower"),
    ("field_census.point_count_calls", "count", "lower"),
    ("field_census.self_s", "s", "lower"),
    ("exact_counts.cycle_count_calls", "count", "lower"),
    ("exact_counts.self_s", "s", "lower"),
    ("zeta_series.local_zeta_series_s", "s", "lower"),
    ("zeta_series.coeffs_produced", "count", "lower"),
    ("zeta_series.point_counts_per_coeff", "ratio", "lower"),
    ("zeta_series.lfun_s", "s", "lower"),
    ("zeta_series.primes", "count", "lower"),
    ("zeta_series.spec_z_s", "s", "lower"),
    ("zeta_series.self_s", "s", "lower"),
    ("bound_engine.self_s", "s", "lower"),
    ("multipoly.eval_grid_calls", "count", "lower"),
    ("multipoly.parse_s", "s", "lower"),
    ("multipoly.self_s", "s", "lower"),
    ("quadrature.integrate_log_max_s", "s", "lower"),
    ("quadrature.batched_log_integrals_s", "s", "lower"),
    ("quadrature.grid_evals", "count", "lower"),
    ("quadrature.grid_evals_per_s", "1/s", "higher"),
    ("quadrature.self_s", "s", "lower"),
    ("fs_norms.v_measure_s", "s", "lower"),
    ("fs_norms.delta_lambda_s", "s", "lower"),
    ("fs_norms.divcount_s", "s", "lower"),
    ("fs_norms.candidates", "count", "lower"),
    ("fs_norms.borderline_frac", "ratio", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.process_overhead_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("jobs.reuse_share", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

# layer -> (end-to-end metrics it should move, on which workloads, what
# should not move); the report prints it next to the layer table
LAYER_MAP = {
    "finite_fields": ("wall_s, job_tail_ms", "oracle",
                      "cli_cold.job_p50_ms, peak_rss_mb (set-up cost)"),
    "cycle_oracle": ("wall_s", "oracle", "series, fs_measure"),
    "height_lab": ("wall_s", "oracle (ff heights), fs_measure (integer heights)", "-"),
    "field_census": ("wall_s", "series", "oracle.failed_frac"),
    "exact_counts": ("wall_s", "series", "oracle.failed_frac"),
    "zeta_series": ("wall_s, job_tail_ms", "series", "fs_measure"),
    "bound_engine": ("wall_s", "series", "-"),
    "multipoly": ("wall_s; job_p50_ms", "fs_measure; cli_cold", "-"),
    "quadrature": ("wall_s, job_tail_ms", "fs_measure",
                   "fs_measure.abs_err_max, failed_frac"),
    "fs_norms": ("wall_s, failed_frac", "fs_measure", "-"),
    "cli": ("job_p50_ms, setup_s", "cli_cold", "-"),
}

# target -> metric for plain call counts and inclusive times
_CALLS = {
    "finite_fields.mul_calls": ["finite_fields.Fq.mul"],
    "finite_fields.pow_calls": ["finite_fields.Fq.pow"],
    "finite_fields.inv_calls": ["finite_fields.Fq.inv"],
    "finite_fields.addsub_calls": ["finite_fields.Fq.add", "finite_fields.Fq.sub",
                                   "finite_fields.Fq.neg"],
    "finite_fields.fields_built": ["finite_fields.Fq.__init__"],
    "field_census.point_count_calls": ["field_census.point_count"],
    "exact_counts.cycle_count_calls": ["exact_counts.cycle_count"],
    "multipoly.eval_grid_calls": ["multipoly.MultiPoly.eval_grid"],
}
_INCL = {
    "finite_fields.build_s": "finite_fields.build",
    "cycle_oracle.closed_points_s": "cycle_oracle.closed_points",
    "cycle_oracle.enum_zero_cycles_s": "cycle_oracle.enum_zero_cycles",
    "cycle_oracle.enum_divisors_s": "cycle_oracle.enum_divisors",
    "height_lab.count_ff_points_s": "height_lab.count_ff_points",
    "height_lab.height_nv_s": "height_lab.height_nv",
    "height_lab.sh_set_census_s": "height_lab.sh_set_census",
    "zeta_series.local_zeta_series_s": "zeta_series.local_zeta_series",
    "zeta_series.lfun_s": "zeta_series.l_function_partial_with_error",
    "zeta_series.spec_z_s": "zeta_series.spec_z_zeta_partial",
    "multipoly.parse_s": "multipoly.parse",
    "quadrature.integrate_log_max_s": "quadrature.integrate_log_max",
    "quadrature.batched_log_integrals_s": "quadrature.batched_log_integrals",
    "fs_norms.v_measure_s": "fs_norms.v_measure",
    "fs_norms.delta_lambda_s": "fs_norms.delta_lambda",
    "fs_norms.divcount_s": "fs_norms.count_arith_divisors_bounded",
    "cli.main_s": "cli.main",
}
# metric -> tracer targets it needs; left out when one is missing
_NEEDS = {
    "cycle_oracle.points_scanned": ["cycle_oracle.closed_points"],
    "cycle_oracle.orbit_yield": ["cycle_oracle.closed_points"],
    "cycle_oracle.objects_enumerated": ["cycle_oracle.closed_points",
                                        "cycle_oracle.enum_zero_cycles",
                                        "cycle_oracle.enum_divisors"],
    "height_lab.tuples_scanned": ["height_lab.count_ff_points"],
    "height_lab.point_yield": ["height_lab.count_ff_points"],
    "height_lab.box_members": ["height_lab.sh_set_census"],
    "zeta_series.coeffs_produced": ["zeta_series.local_zeta_series"],
    "zeta_series.point_counts_per_coeff": ["zeta_series.local_zeta_series",
                                           "field_census.point_count"],
    "zeta_series.primes": ["zeta_series.l_function_partial_with_error"],
    "quadrature.grid_evals": ["quadrature.integrate_log_max",
                              "quadrature.batched_log_integrals"],
    "quadrature.grid_evals_per_s": ["quadrature.integrate_log_max",
                                    "quadrature.batched_log_integrals"],
    "fs_norms.candidates": ["fs_norms.count_arith_divisors_bounded"],
    "fs_norms.borderline_frac": ["fs_norms.count_arith_divisors_bounded"],
    "jobs.reuse_share": ["finite_fields.field", "cycle_oracle.closed_points",
                         "exact_counts._zero_cycle_counts", "quadrature.plane_nodes"],
    "cli.import_s": ["cli.main"],
    "cli.self_s": ["cli.main"],
    "cli.process_overhead_s": ["cli.main"],
    "cli.output_bytes": ["cli.main"],
}


def merge(summaries: list[dict]) -> dict:
    """Sum tracer summaries (one per CLI child) into one."""
    out = {"targets": {}, "incl_s": {}, "missing": [], "work": {},
           "jobs": 0, "reusing_jobs": 0, "spans": 0}
    for s in summaries:
        for name, t in s["targets"].items():
            acc = out["targets"].setdefault(name, {"calls": 0, "self_s": 0.0,
                                                   "layer": t["layer"]})
            acc["calls"] += t["calls"]
            acc["self_s"] += t["self_s"]
        for group, v in s["incl_s"].items():
            out["incl_s"][group] = out["incl_s"].get(group, 0.0) + v
        for key, v in s["work"].items():
            out["work"][key] = out["work"].get(key, 0) + v
        out["missing"] = sorted(set(out["missing"]) | set(s["missing"]))
        for key in ("jobs", "reusing_jobs", "spans"):
            out[key] += s[key]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(summary: dict, cli: list[dict] | None, overhead: tuple[float, float]) -> dict:
    """Per-layer metric values and, for ratios, their bases."""
    targets, incl = summary["targets"], summary["incl_s"]
    work = dict.fromkeys(WORK_KEYS, 0) | summary["work"]
    missing = set(summary["missing"])
    values, bases = {}, {}

    def calls(name):
        return targets[name]["calls"]

    for metric, names in _CALLS.items():
        if not missing.intersection(names):
            values[metric] = sum(calls(n) for n in names)
    for metric, group in _INCL.items():
        if group in incl:
            values[metric] = incl[group]
    for layer in ("finite_fields", "cycle_oracle", "field_census", "exact_counts",
                  "zeta_series", "bound_engine", "multipoly", "quadrature", "cli"):
        values[f"{layer}.self_s"] = sum(t["self_s"] for t in targets.values()
                                        if t["layer"] == layer)

    values["cycle_oracle.points_scanned"] = work["points_scanned"]
    values["cycle_oracle.orbit_yield"] = _ratio(work["closed_points_found_deg"],
                                                work["points_scanned"])
    bases["cycle_oracle.orbit_yield"] = (f"sum d*b_d = {work['closed_points_found_deg']}"
                                         f" / points scanned {work['points_scanned']}")
    values["cycle_oracle.objects_enumerated"] = work["objects_enumerated"]
    values["height_lab.tuples_scanned"] = work["tuples_scanned"]
    values["height_lab.point_yield"] = _ratio(work["ff_points_found"], work["tuples_scanned"])
    bases["height_lab.point_yield"] = (f"{work['ff_points_found']} points"
                                       f" / {work['tuples_scanned']} tuples")
    values["height_lab.box_members"] = work["box_members"]
    values["zeta_series.coeffs_produced"] = work["coeffs_produced"]
    values["zeta_series.point_counts_per_coeff"] = _ratio(work["lzs_point_counts"],
                                                          work["coeffs_produced"])
    bases["zeta_series.point_counts_per_coeff"] = (
        f"{work['lzs_point_counts']} point counts / {work['coeffs_produced']} coefficients")
    values["zeta_series.primes"] = work["primes"]
    values["quadrature.grid_evals"] = work["grid_evals"]
    quad_s = (values.get("quadrature.integrate_log_max_s", 0.0)
              + values.get("quadrature.batched_log_integrals_s", 0.0))
    values["quadrature.grid_evals_per_s"] = _ratio(work["grid_evals"], quad_s)
    bases["quadrature.grid_evals_per_s"] = (f"{work['grid_evals']} evaluations"
                                            f" / {quad_s:.4f} s in quadrature")
    values["fs_norms.candidates"] = work["candidates"]
    values["fs_norms.borderline_frac"] = _ratio(work["borderline"], work["candidates"])
    bases["fs_norms.borderline_frac"] = (f"{work['borderline']} borderline"
                                         f" / {work['candidates']} candidates")
    values["jobs.reuse_share"] = _ratio(summary["reusing_jobs"], summary["jobs"])
    bases["jobs.reuse_share"] = (f"{summary['reusing_jobs']} of {summary['jobs']} jobs"
                                 " reuse a field, (space, q) or node set of an earlier job")

    cli = cli or []
    values["cli.import_s"] = sum((c["import_s"] for c in cli), 0.0)
    values["cli.process_overhead_s"] = sum(
        (c["wall_s"] - c["import_s"] - c["main_s"] - c["tracer_s"] for c in cli), 0.0)
    values["cli.output_bytes"] = sum(c["output_bytes"] for c in cli)
    bases["cli.import_s"] = f"total over {len(cli)} commands"
    traced, untraced = overhead
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_ratio"] = _ratio(traced, untraced)
    bases["trace.overhead_ratio"] = f"traced wall {traced:.3f} s / untraced {untraced:.3f} s"

    for metric, names in _NEEDS.items():
        if missing.intersection(names):
            values.pop(metric, None)
            bases.pop(metric, None)
    return {"values": values, "bases": bases, "missing": sorted(missing)}
