"""One pass of a workload: a fresh interpreter runs the job list once.

    python3 bench/worker.py WORKLOAD SEED TRACE OUT_DIR PASS

Run from the repository root with ``PYTHONPATH=src``, pinned to one CPU
(``run.py`` does both).  Set-up is the interpreter start, ``import
cyclezeta`` and input generation; the jobs then run one at a time with
nothing else in flight, while ``calibrate.Sampler`` times its reference
kernel between jobs and every 50 ms during set-up and the jobs.  Prints one JSON
document: when the inputs were ready (``time.monotonic``, which the
parent compares with its launch time), the wall and CPU time of the job
list, peak RSS, each job's latency and CPU time (sampling time taken
out), its mean kernel time, error and output digest, and with TRACE=1
the tracer summary.  With TRACE=1 the spans are also written to OUT_DIR.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _space(cz, spec):
    kind, n = spec
    return cz.ProjSpace(n) if kind == "pn" else cz.P1Power(n)


def _q(cz, q: int):
    return cz.PrimePower(2, 2) if q == 4 else cz.PrimePower(q)


def _form_digest(form):
    return [list(form.multidegree), [[list(e), c] for e, c in form.coeffs]]


def in_process_call(job):
    """(call, digest) for one job; the call builds the program's own
    argument objects, so that cost is part of the job."""
    import cyclezeta as cz
    from cyclezeta import bound_engine, fs_norms, height_lab, multipoly, zeta_series
    from cyclezeta.quadrature import QuadratureConfig

    kind, a = job["kind"], job["args"]
    if "batch" in a:
        members = [in_process_call({"kind": kind, "args": m}) for m in a["batch"]]
        return (lambda: [call() for call, _ in members],
                lambda rs: {"batch": [digest(r) for (_, digest), r in zip(members, rs)]})
    cfg = QuadratureConfig()

    def parse(text, nvars=None):
        return multipoly.parse_affine_polynomial(text, nvars=nvars)

    def log_v(poly, config=cfg):
        return math.log(fs_norms.v_measure(parse(poly), config))

    if kind == "closed_points":
        return (lambda: cz.closed_points(_space(cz, a["space"]), _q(cz, a["q"]), a["d"]),
                lambda r: {"count": len(r), "degrees": sorted({p.degree for p in r}),
                           "distinct": len({p.orbit_key for p in r}) == len(r)})
    if kind == "enum_zero_cycles":
        return (lambda: cz.enum_zero_cycles(_space(cz, a["space"]), _q(cz, a["q"]), a["k"]),
                lambda r: {"count": len(r), "degrees": sorted({z.degree for z in r}),
                           "distinct": len({z.sort_key() for z in r}) == len(r)})
    if kind == "enum_divisors":
        return (lambda: cz.enum_divisors(_space(cz, a["space"]), _q(cz, a["q"]), a["e"]),
                lambda r: {"count": len(r),
                           "distinct": len({f.coefficients for f in r}) == len(r),
                           "leading_one": all(
                               next(c for c in f.coefficients if c) == 1 for f in r)})
    if kind == "count_ff_points":
        return (lambda: cz.count_ff_points(_q(cz, a["q"]), a["n"], a["h"]),
                lambda r: {"count": str(r)})
    if kind == "local_zeta_series":
        return (lambda: cz.local_zeta_series(_space(cz, a["space"]), _q(cz, a["q"]),
                                             a["l"], a["kmax"]),
                lambda r: {"coefficients": [str(c) for c in r.coefficients]})
    if kind == "abscissa_sequence":
        return (lambda: cz.abscissa_sequence(_space(cz, a["space"]), _q(cz, a["q"]),
                                             a["l"], a["kmax"]),
                lambda r: {"values": list(r.values), "limit": r.predicted_limit})
    if kind == "closed_point_census":
        return (lambda: cz.closed_point_census(_space(cz, a["space"]), _q(cz, a["q"]),
                                               a["dmax"]),
                lambda r: {"b": [str(x) for x in r.b]})
    if kind == "lfun":
        return (lambda: zeta_series.l_function_partial_with_error(
                    a["n"], a["l"], complex(a["s"]), a["pmax"]),
                lambda r: {"real": r[0].real, "imag": r[0].imag})
    if kind == "spec_z_zeta":
        return (lambda: zeta_series.spec_z_zeta_partial(a["s"], a["cutoff"],
                                                        audit=a["audit"]),
                lambda r: {"value": r})
    if kind == "explicit_constant":
        return (lambda: bound_engine.explicit_constant_pn(a["n"], a["l"]),
                lambda r: {"value": str(r.value)})
    if kind in ("v_measure_1var", "v_measure_2var_separable", "v_measure_11_form"):
        return (lambda: log_v(a["poly"]), lambda r: {"value": r})
    if kind == "v_measure_mc3":
        mc = QuadratureConfig(scheme="monte_carlo", seed=a["mc_seed"],
                              sample_count=a["samples"])
        return (lambda: log_v(a["poly"], mc), lambda r: {"value": r})
    if kind in ("delta_1var", "delta_11_form"):
        return (lambda: fs_norms.delta_lambda(
                    multipoly.parse_integer_form(a["form"]), a["lam"], cfg),
                lambda r: {"value": r})
    if kind == "count_arith_divisors":
        return (lambda: fs_norms.count_arith_divisors_bounded(a["n"], a["lam"], a["h"], cfg),
                lambda r: {"count": r.count, "coeff_box": r.max_inf_norm,
                           "borderline": [_form_digest(f) for f in r.borderline]})
    if kind == "sh_set_census":
        return (lambda: height_lab.sh_set_census(a["d"], a["a"], a["h"], cfg),
                lambda r: {"count": r.count, "all_heights_ok": r.all_heights_ok,
                           "max_height": r.max_height, "coeff_box": r.coeff_box,
                           "analytic_lower_bound": r.analytic_lower_bound})
    if kind == "height_nv":
        d = a["d"]
        mono = f"{a['c']}*z1^{a['j']}" + (f"*z2^{a['k']}" if d == 2 else "")

        def call():
            pt = height_lab.RationalFunctionPoint.make(
                d, [parse(str(a["a"]), nvars=d), parse(mono, nvars=d)])
            return height_lab.height_nv(pt, cfg)
        return call, lambda r: {"value": r}
    raise ValueError(f"unknown job kind {kind!r}")


def cli_call(job, env, trace_dir, traces):
    """(call, digest) for one CLI command run as a fresh subprocess."""
    argv = job["args"]["argv"]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "cyclezeta.cli", *argv]
        trace_file = None
    else:
        trace_file = Path(trace_dir) / f"cli_{job['id']}.json"
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(trace_file), *argv]

    def call():
        t = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        wall = time.perf_counter() - t
        if trace_file is not None and trace_file.exists():
            child = json.loads(trace_file.read_text())
            child["wall_s"] = wall
            child["output_bytes"] = len(proc.stdout.encode())
            traces.append(child)
        if proc.returncode:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def digest(stdout):
        doc = json.loads(stdout)
        return {"results": {k: v["value"] for k, v in doc["results"].items()},
                "output_bytes": len(stdout.encode())}
    return call, digest


def _blas_threads():
    """numpy's BLAS thread count in this process (None if unknown)."""
    import ctypes

    import numpy  # noqa: F401  (maps the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_seconds() -> float:
    """User + system CPU of this process, its threads and its ended children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(argv) -> int:
    workload, seed, trace, out_dir, pass_no = argv
    seed, trace = int(seed), trace == "1"
    import calibrate  # and numpy, which cyclezeta imports anyway

    sampler = calibrate.Sampler()
    sampler.between()
    setup_start = time.perf_counter()
    sampler.start()
    import cyclezeta  # noqa: F401  (set-up includes the package import)
    import workloads

    jobs = workloads.generate(workload, seed)
    traces: list[dict] = []
    env = dict(os.environ)
    env.pop("CYCLEZETA_CACHE_DIR", None)
    if workload == "cli_cold":
        trace_dir = Path(out_dir) / f"cli_{workload}_{seed}_{pass_no}" if trace else None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
        calls = [cli_call(job, env, trace_dir, traces) for job in jobs]
    else:
        calls = [in_process_call(job) for job in jobs]
    ready, ready_pc = time.monotonic(), time.perf_counter()

    tracer = None
    if trace and workload != "cli_cold":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results, errors, latencies, cpu_times, spans = [], [], [], [], []
    sampler.between()
    for job, (call, _) in zip(jobs, calls):
        c = _cpu_seconds()
        t = time.perf_counter()
        try:
            if tracer is not None:
                result = tracer.run_job(job["id"], job["kind"], call)
            else:
                result = call()
            error = None
        except Exception as exc:  # a failed job is reported, the pass goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        cpu_times.append(_cpu_seconds() - c)
        spans.append((t, end))
        results.append(result)
        errors.append(error)
        sampler.between()
    sampler.stop()
    setup_kernel, _ = sampler.window(setup_start, ready_pc)
    setup_sampling = sum(d for t, d in sampler.samples if t <= ready_pc)
    kernel_means = []
    for (t, end), cpu in zip(spans, cpu_times):
        mean, sampling = sampler.window(t, end)
        kernel_means.append(mean)
        latencies.append(end - t - sampling)
        cpu_times[len(latencies) - 1] = cpu - sampling
    wall = sum(latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli_cold"
                                else resource.RUSAGE_SELF).ru_maxrss
    digests = []
    for i, ((_, digest), result) in enumerate(zip(calls, results)):
        if errors[i] is None:
            try:
                digests.append(digest(result))
                continue
            except Exception as exc:  # unreadable output fails the job
                errors[i] = f"unreadable output: {type(exc).__name__}: {exc}"
        digests.append(None)

    doc = {"ready": ready, "setup_sampling_s": setup_sampling, "setup_kernel": setup_kernel,
           "wall_s": wall, "cpu_s": sum(cpu_times),
           "peak_rss_mb": rss_kb / 1024.0,
           "latencies": latencies, "cpu_times": cpu_times, "kernel_means": kernel_means,
           "kernel_pass": statistics.fmean(d for _, d in sampler.samples),
           "errors": errors, "digests": digests,
           "cpu": sorted(os.sched_getaffinity(0)), "blas_threads": _blas_threads()}
    if tracer is not None:
        tracer.dump(Path(out_dir) / f"spans_{workload}_{seed}_{pass_no}.json")
        doc["trace"] = tracer.summary()
    elif trace:
        doc["cli_traces"] = traces
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
