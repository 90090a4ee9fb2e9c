"""Compare the benchmark results of two commits.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``result_*.json`` files that ``run.py`` saved for
one commit (run both sides with the same ``--seconds`` and seeds; for ten
pairs, alternate which side runs first).  For every (end-to-end metric,
workload) it prints each side's median and quartiles and:

* the pairwise win share over runs paired by seed, ties counting for
  neither side;
* a gain verdict: the change wins at least 9/10 of the pairs and the
  medians differ by more than the parent's interquartile range;
* a no-regression verdict against the metric's bound in BENCHMARK.json,
  "unresolved" when the parent's own spread (IQR / median) exceeds the
  bound, unless every run of the change is better than every parent run.

``failed_frac`` must not rise at all; ``abs_err_max`` is printed only.
Traced results are compared as per-layer medians with their ratio.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {seed: [result, ...]}}"""
    out = {}
    for path in sorted(Path(directory).glob("result_*.json")):
        doc = json.loads(path.read_text())
        key = (doc["workload"], doc["trace"])
        out.setdefault(key, {}).setdefault(doc["meta"]["seed"], []).append(doc)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _better(a, b, lower):
    return a < b if lower else a > b


def verdicts(parent, change, lower, bound):
    """(win share text, gain verdict, regression verdict) for one metric."""
    p_vals = [v for vals in parent.values() for v in vals]
    c_vals = [v for vals in change.values() for v in vals]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    pairs = [(p, c) for seed in parent.keys() & change.keys()
             for p, c in zip(parent[seed], change[seed])]
    wins = sum(_better(c, p, lower) for p, c in pairs)
    share = f"{wins}/{len(pairs)}" if pairs else "no pairs"
    gain = ("gain" if pairs and wins >= 0.9 * len(pairs)
            and abs(c_med - p_med) > p_q3 - p_q1 and _better(c_med, p_med, lower)
            else "no gain")
    if bound is None:
        return share, gain, "-"
    worse = (c_med - p_med) if lower else (p_med - c_med)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    all_better = all(_better(c, p, lower) for c in c_vals for p in p_vals)
    if bound == 0.0:  # may not rise at all
        regression = "no regression" if worse <= 0 else "REGRESSION"
    elif all_better:
        regression = "no regression (every run better)"
    elif spread > bound:
        regression = f"unresolved (parent spread {spread:.3f} > bound {bound})"
    elif worse <= bound * abs(p_med):
        regression = "no regression"
    else:
        regression = f"REGRESSION ({worse / abs(p_med):+.3f} > bound {bound})"
    return share, gain, regression


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    metrics = [(m["name"], m["better"] == "lower", m["bound"])
               for m in benchmark["end_to_end"]]
    metrics += [("failed_frac", True, 0.0), ("abs_err_max", True, None)]
    print(f"{'workload':<11} {'metric':<12} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32}  wins  verdicts")
    for key in sorted(parent.keys() & change.keys()):
        workload, trace = key
        if trace:
            continue
        for name, lower, bound in metrics:
            p = {s: [r["end_to_end"][name] for r in rs] for s, rs in parent[key].items()}
            c = {s: [r["end_to_end"][name] for r in rs] for s, rs in change[key].items()}
            pq = quartiles([v for vs in p.values() for v in vs])
            cq = quartiles([v for vs in c.values() for v in vs])
            share, gain, regression = verdicts(p, c, lower, bound)
            print(f"{workload:<11} {name:<12} {'/'.join(f'{x:.4g}' for x in pq):>32} "
                  f"{'/'.join(f'{x:.4g}' for x in cq):>32}  {share:>5}  {gain}; {regression}")
    for key in sorted(parent.keys() & change.keys()):
        workload, trace = key
        if not trace:
            continue
        print(f"\n{workload}: per-layer medians (parent -> change)")
        p_runs = [r for rs in parent[key].values() for r in rs]
        c_runs = [r for rs in change[key].values() for r in rs]
        for name in p_runs[0]["per_layer"]:
            pm = statistics.median(r["per_layer"][name] for r in p_runs)
            if not all(name in r["per_layer"] for r in c_runs):
                print(f"  {name:<38} {pm:>14.6g} -> missing")
                continue
            cm = statistics.median(r["per_layer"][name] for r in c_runs)
            ratio = f"x{cm / pm:.3f}" if pm else "-"
            print(f"  {name:<38} {pm:>14.6g} -> {cm:<14.6g} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
