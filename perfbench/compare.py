#!/usr/bin/env python3
"""Compares end-to-end results of two versions of the program.

    python3 perfbench/compare.py --base base1.json base2.json ... \
                                 --new new1.json new2.json ...

Each file is a result run.py wrote to .bench_build/results/ (untraced runs of
one workload). Per metric it prints the median and quartiles of each side,
the change of the median, and whether that change stays within the bound
BENCHMARK.json fixes for the metric (UNRESOLVED when either side's
inter-quartile spread is wider than the bound). Exits 1 when a metric got
worse by more than its bound, and 2 when the results cannot be compared:
different workloads, or host manifests that differ (re-record a same-host
baseline instead of comparing across machines or builds).
"""

import argparse
import json
import sys
from pathlib import Path

import benchlib

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class NotComparable(Exception):
    pass


def check_comparable(results):
    """Raises NotComparable unless every result is an untraced run of one
    workload recorded on the same host with the same build."""
    first = results[0]
    for r in results[1:]:
        if r["workload"] != first["workload"] or r["trace"] != first["trace"]:
            raise NotComparable(
                f"results of different runs ({first['workload']} trace "
                f"{first['trace']} vs {r['workload']} trace {r['trace']})")
        diff = benchlib.manifest_mismatch(first["manifest"], r["manifest"])
        if diff:
            detail = ", ".join(f"{k}: {first['manifest'].get(k)!r} vs "
                               f"{r['manifest'].get(k)!r}" for k in diff)
            raise NotComparable(f"host manifests differ ({detail}): "
                                "re-record a same-host baseline")


def load_bounds(path=BENCHMARK_JSON):
    spec = json.loads(Path(path).read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def compare(base, new, bounds):
    """Returns (report lines, True when no metric regressed past its bound)."""
    lines = [f"{'metric':14s} {'base median [q1, q3]':>32s} "
             f"{'new median [q1, q3]':>32s} {'change':>8s} {'bound':>6s}"]
    ok = True
    for name, unit in benchlib.END_TO_END:
        b = [r["end_to_end"][name] for r in base]
        n = [r["end_to_end"][name] for r in new]
        mb, mn = benchlib.median(b), benchlib.median(n)
        change = (mn - mb) / mb
        bound, better = bounds[name]
        worse = change > bound if better == "lower" else -change > bound
        ok &= not worse
        # A spread wider than the bound cannot show "unchanged" either way.
        noisy = max(benchlib.spread(b), benchlib.spread(n)) > bound
        fmt = lambda v: "{:.4g} [{:.4g}, {:.4g}]".format(  # noqa: E731
            benchlib.median(v), *benchlib.quartiles(v))
        lines.append(f"{name:14s} {fmt(b) + ' ' + unit:>32s} "
                     f"{fmt(n) + ' ' + unit:>32s} {change:+8.2%} "
                     f"{bound:6.0%}" + ("  REGRESSED" if worse else "") +
                     ("  UNRESOLVED (spread > bound)" if noisy else ""))
    return lines, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    a = ap.parse_args()
    base = [json.loads(Path(p).read_text()) for p in a.base]
    new = [json.loads(Path(p).read_text()) for p in a.new]
    try:
        check_comparable(base + new)
    except NotComparable as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for r in base + new:
        for w in r.get("warnings", []):
            print(f"WARNING ({r['workload']} seed {r['seed']}): {w}")
    lines, ok = compare(base, new, load_bounds())
    print(f"workload {base[0]['workload']}: {len(base)} base runs, "
          f"{len(new)} new runs")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
