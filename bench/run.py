"""cyclezeta benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload oracle --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; the program is imported from ``src/``.

A run repeats passes of the workload until ``--seconds`` are used up (at
least three).  A pass is a fresh interpreter (``worker.py``) pinned to one
CPU that imports cyclezeta, generates the seeded job list and runs it
once, one job at a time: a closed loop with one client and no thread
pool (pinned, numpy's BLAS uses one thread).  Passes alternate between
the CPUs.  Every time is brought to the reference host speed with
``calibrate`` (a job's latency times ``REFERENCE_S`` over the mean
reference-kernel time around and during it), because the cores of a
shared VM switch between full and about 1.5x slower speed many times a
second.  End-to-end metrics, from the scaled per-job medians over the
passes:

  setup_s      launch of the pass until its inputs are ready (interpreter
               start, ``import cyclezeta``, input generation); median
  wall_s       sum over jobs of the job's median latency
  job_p50_ms   median job latency
  job_tail_ms  latency of the highest percentile with ten jobs beyond it
  failed_frac  jobs failed or inaccurate / jobs attempted (all passes)
  abs_err_max  largest |computed - reference| over analytic jobs
  peak_rss_mb  peak RSS of the pass (of its largest child on cli_cold)
  cpu_s        sum over jobs of the job's median user + system CPU time

The report also prints the unscaled values and the host slowdown of each
pass.  Every output is checked against ``references`` (see ``checks``).  With
``--trace 1`` untraced and traced passes alternate; the traced ones give
the per-layer metrics of ``layers`` and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics listed in BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``).  ``failed`` counts failed jobs; the inputs the program
is known to get wrong count in ``failed_frac`` and are named, not failed
(see ``checks``).  Each run also saves its full result under ``--out``
for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
RUN_LIMIT_S = 170  # every pass of a run ends by then, or the run fails

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
    "failed_frac": "ratio", "abs_err_max": "abs", "peak_rss_mb": "MB", "cpu_s": "s",
}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# -- passes ------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env.pop("CYCLEZETA_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def one_pass(workload, seed, traced, out_dir, index, timeout):
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[index % len(cpus)]
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
         "1" if traced else "0", str(out_dir), str(index)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    duration = time.monotonic() - launch
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} of {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - launch - doc["setup_sampling_s"]
    doc["traced"] = traced
    doc["duration_s"] = duration
    return doc


def run_passes(workload, seed, seconds, trace, out_dir):
    """Untraced passes (alternating with traced ones under --trace 1) until
    the next pass would end after ``seconds``."""
    start = time.monotonic()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
        passes.append(one_pass(workload, seed, traced, out_dir, len(passes), timeout))
        elapsed = time.monotonic() - start
        longest = max(p["duration_s"] for p in passes)
        enough = len(passes) >= (2 if trace else MIN_PASSES)
        if elapsed + longest > RUN_LIMIT_S or (enough and elapsed + longest > seconds):
            return passes


# -- metrics -----------------------------------------------------------------

def tail(latencies):
    """(value, percentile, jobs): the latency with ten jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / n, n


def check_passes(jobs, passes):
    import checks

    memo = {}
    tally = {"ok": 0, "inaccurate": 0, "fail": 0}
    notes = {}
    abs_err = 0.0
    for p in passes:
        for job, digest, error in zip(jobs, p["digests"], p["errors"]):
            key = (job["id"], json.dumps(digest, sort_keys=True), error)
            if key not in memo:
                try:
                    memo[key] = checks.check(job, digest, error)
                except (KeyError, TypeError, ValueError) as exc:
                    memo[key] = ("fail", None, f"unreadable output: {exc!r}")
            status, err, note = memo[key]
            tally[status] += 1
            if err is not None and math.isfinite(err):
                abs_err = max(abs_err, err)
            if status != "ok":
                notes[job["id"]] = (status, note)
    return tally, notes, abs_err


def job_costs(passes, key, scaled=True):
    """Each job's median value over the passes.  ``scaled`` first brings
    every value to the reference host speed: it is multiplied by
    ``calibrate.REFERENCE_S`` over the mean kernel time around and during
    that job in that pass (see ``calibrate``), so the slow spells of a
    shared core, and their share drifting over minutes, do not show as
    the program's cost."""
    import calibrate

    rows = [[v * (calibrate.REFERENCE_S / k if scaled else 1.0)
             for v, k in zip(p[key], p["kernel_means"])] for p in passes]
    return [statistics.median(vals) for vals in zip(*rows)]


def setup_cost(p):
    """Set-up time of a pass at the reference host speed, scaled by the
    kernel samples taken during the set-up."""
    import calibrate

    return p["setup_s"] * calibrate.REFERENCE_S / p["setup_kernel"]


def end_to_end(passes, tally, abs_err):
    import calibrate

    untraced = [p for p in passes if not p["traced"]]
    costs = job_costs(untraced, "latencies")
    value, pct, n = tail(costs)
    values = {
        "setup_s": statistics.median(setup_cost(p) for p in untraced),
        "wall_s": sum(costs),
        "job_p50_ms": 1e3 * statistics.median(costs),
        "job_tail_ms": 1e3 * value,
        "failed_frac": (tally["fail"] + tally["inaccurate"]) / sum(tally.values()),
        "abs_err_max": abs_err,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "cpu_s": sum(job_costs(untraced, "cpu_times")),
    }
    raw = job_costs(untraced, "latencies", scaled=False)
    info = {"tail": f"p{pct:.1f} of {n} jobs",
            "pass_wall_median_s": statistics.median(p["wall_s"] for p in untraced),
            "host_slowdown": [p["kernel_pass"] / calibrate.REFERENCE_S for p in untraced],
            "unscaled": {"setup_s": statistics.median(p["setup_s"] for p in untraced),
                         "wall_s": sum(raw), "job_p50_ms": 1e3 * statistics.median(raw),
                         "job_tail_ms": 1e3 * tail(raw)[0],
                         "cpu_s": sum(job_costs(untraced, "cpu_times", scaled=False))}}
    return values, info


def per_layer(passes):
    import layers

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    overhead = (sum(job_costs(traced, "latencies")),
                sum(job_costs(untraced, "latencies")))
    results = []
    for p in traced:
        if "trace" in p:
            results.append(layers.metrics(p["trace"], None, overhead))
        else:
            cli = p["cli_traces"]
            results.append(layers.metrics(layers.merge([c["summary"] for c in cli]),
                                          cli, overhead))
    values = {}
    for name in results[0]["values"]:
        samples = [r["values"][name] for r in results]
        if layers.UNITS.get(name) == "count":
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    counts_repeat = all(
        r["values"][n] == results[0]["values"][n]
        for r in results for n in results[0]["values"] if layers.UNITS.get(n) == "count")
    return values, results[0]["bases"], results[0]["missing"], counts_repeat, overhead


# -- metadata ----------------------------------------------------------------

def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed, passes):
    import numpy

    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": passes[0]["blas_threads"],
            "git_sha": _git_sha(), "machine": platform.machine()}


# -- report ------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def report_e2e(workload, meta, jobs, passes, values, info, tally, notes):
    untraced = [p for p in passes if not p["traced"]]
    print(f"== {workload}: seed {meta['seed']}, {len(untraced)} untraced passes of "
          f"{len(jobs)} jobs; nproc {meta['nproc']}, python {meta['python']}, "
          f"numpy {meta['numpy']}, BLAS threads {meta['blas_threads']}, "
          f"git {meta['git_sha'] or 'unknown'}")
    for name, unit in E2E_UNITS.items():
        extra = ""
        if name == "wall_s":
            extra = (f"  (sum of per-job medians; median pass took"
                     f" {info['pass_wall_median_s']:.4f} s)")
        elif name == "job_tail_ms":
            extra = f"  ({info['tail']})"
        elif name == "failed_frac":
            extra = (f"  ({tally['fail']} failed + {tally['inaccurate']} inaccurate"
                     f" of {sum(tally.values())} jobs)")
        print(f"  {name:<12} {_fmt(values[name]):>12} {unit}{extra}")
    slow = info["host_slowdown"]
    print(f"  host slowdown (mean kernel time / reference) per pass: median "
          f"{statistics.median(slow):.3f}, range {min(slow):.3f}-{max(slow):.3f}")
    print("  unscaled: " + ", ".join(f"{name} {_fmt(v)} {E2E_UNITS[name]}"
                                     for name, v in info["unscaled"].items()))
    print(f"  checks: {tally['ok']} ok, {tally['inaccurate']} inaccurate, "
          f"{tally['fail']} failed")
    by_id = {job["id"]: job for job in jobs}
    for job_id, (status, note) in sorted(notes.items()):
        job = by_id[job_id]
        args = job["args"]
        args = "(batch)" if "batch" in args else args.get("poly") or args.get("form") or args
        print(f"    {status}: job {job_id} {job['kind']} {args}: {note}")


def report_layers(workload, values, bases, missing, counts_repeat, overhead):
    import layers

    print(f"== {workload}: per-layer metrics (traced passes)")
    by_layer = {}
    for name, value in values.items():
        by_layer.setdefault(name.split(".")[0], []).append((name, value))
    for layer, items in by_layer.items():
        move = layers.LAYER_MAP.get(layer)
        head = f"  [{layer}]"
        if move:
            head += f" should move {move[0]} on {move[1]}; should not move {move[2]}"
        print(head)
        for name, value in items:
            base = f"  ({bases[name]})" if name in bases else ""
            print(f"    {name:<38} {_fmt(value):>14} {layers.UNITS[name]}{base}")
    traced, untraced = overhead
    print(f"  tracing overhead: traced wall {traced:.4f} s - untraced {untraced:.4f} s"
          f" = {traced - untraced:+.4f} s")
    print(f"  counts repeat across traced passes: {'yes' if counts_repeat else 'NO'}")
    print(f"  missing wrap targets: {', '.join(missing) if missing else 'none'}")


# -- main --------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, out_dir, benchmark):
    import workloads

    jobs = workloads.generate(workload, seed)
    passes = run_passes(workload, seed, seconds, trace, out_dir)
    tally, notes, abs_err = check_passes(jobs, passes)
    meta = metadata(seed, passes)
    e2e, info = end_to_end(passes, tally, abs_err)
    report_e2e(workload, meta, jobs, passes, e2e, info, tally, notes)
    result = {"workload": workload, "trace": int(trace), "seconds": seconds,
              "meta": meta, "end_to_end": e2e, **info, "checks": tally,
              "notes": {str(k): v for k, v in notes.items()},
              "passes": [{k: p[k] for k in ("traced", "setup_s", "wall_s", "cpu_s",
                                             "peak_rss_mb", "latencies", "cpu_times",
                                             "kernel_means", "kernel_pass", "setup_kernel",
                                             "cpu")}
                         for p in passes]}
    names = [m["name"] for m in benchmark["end_to_end"]]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    metrics = {n: {"value": e2e[n], "unit": units[n]} for n in names}
    if trace:
        values, bases, missing, counts_repeat, overhead = per_layer(passes)
        report_layers(workload, values, bases, missing, counts_repeat, overhead)
        result.update(per_layer=values, missing=missing, counts_repeat=counts_repeat)
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        metrics = {n: {"value": values[n], "unit": units[n]}
                   for n in units if n in values}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = out_dir / f"result_{workload}_s{seed}_t{int(trace)}_{stamp}_{os.getpid()}.json"
    out.write_text(json.dumps(result, indent=1))
    return tally, metrics


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=".bench_out",
                        help="directory for saved results and spans (under the root)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cyclezeta" / "__init__.py").is_file():
        return _fail(f"no cyclezeta sources under {ROOT / 'src'}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = (ROOT / args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            tally, m = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    out_dir, benchmark)
            attempted += sum(tally.values())
            failed += tally["fail"]
            if len(names) == 1:
                metrics = m
            else:
                metrics.update({f"{name}.{k}": v for k, v in m.items()})
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
