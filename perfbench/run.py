#!/usr/bin/env python3
"""End-to-end suite benchmark: the one entry point.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0

Builds the runner (perfbench/CMakeLists.txt, an optimized build of the
repository's libraries) into .bench_build/, runs each pass of the workload
in a fresh runner process, checks every configuration's output (golden
verification, simulated times against reference.json, and for
`instrumented` an empty findings document and a trace export that parses),
and prints every metric by name and unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The full result (host manifest included) goes to
.bench_build/results/, and a traced run writes its per-layer table and spans
beside it. Exits non-zero when any configuration failed.

    python3 perfbench/run.py --workload ooo --record-reference

re-records the workload's simulated-time reference (only ever from a tree
whose modeled timestamps are known to be right).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
import benchlib  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
SETUP_PROBES = 12
MIN_PASSES = 3
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    # $CARGO_TARGET_DIR, when set, names the build directory.
    return (Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
            .resolve())


def build(out_dir):
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository")
    cmake_dir = out_dir / "cmake"
    log = out_dir / "build.log"
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "perfbench_runner", "-j", jobs])
    with open(log, "a") as lf:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT)
            if rc.returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})", 1)
    return cmake_dir / "perfbench_runner"


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spawn(runner, args, log):
    """Runs one runner process; returns its records, or exits when it
    fails or times out."""
    out = log.with_suffix(".jsonl")
    cmd = [str(runner), *args, "--out", str(out),
           "--t0-ns", str(time.monotonic_ns())]
    with open(log, "w") as lf:
        try:
            rc = subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT,
                                timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail(f"runner timed out after {RUN_TIMEOUT_S} s (log: {log})", 1)
    if rc != 0:
        fail(f"runner exited with {rc} (log: {log})", 1)
    return read_records(out)


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def run_pass(runner, work, workload, seed, index, traced=False,
             extras=False):
    """Runs one pass in its own runner process; returns its records, with
    the process's peak RSS copied into the pass record."""
    recs = spawn(runner, ["--workload", workload, "--seed", str(seed),
                          "--pass", str(index), "--traced", str(int(traced)),
                          "--extras", str(int(extras)),
                          "--work-dir", str(work / "files")],
                 work / f"pass{index}.log")
    end = next(r for r in recs if r["kind"] == "end")
    for r in recs:
        if r["kind"] == "pass":
            r["peak_rss_mb"] = end["peak_rss_mb"]
    return recs


def record_reference(runner, work, workload):
    """Writes the workload's simulated times from two passes, which must
    agree exactly, into reference.json."""
    tables = []
    for index in range(2):
        table = {}
        for r in run_pass(runner, work, workload, 0, index):
            for c in r.get("configs", []):
                if c["status"] == "failed":
                    fail(f"{c['label']} failed: {c['error']}", 1)
                if c["status"] == "ok":
                    table[c["label"]] = {k: c[k] for k in
                                         ("kernel_time", "non_kernel_time",
                                          "total_time")}
        tables.append(table)
    if tables[0] != tables[1]:
        fail("simulated times differ between passes; not recording", 1)
    ref = load_reference()
    ref[workload] = dict(sorted(tables[0].items()))
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(tables[0])} configurations of {workload} "
          f"into {REFERENCE}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    a = ap.parse_args()

    out_dir = build_dir()
    runner = build(out_dir)
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    work = out_dir / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if a.record_reference:
            record_reference(runner, work, a.workload)
            return 0
        return measure(a, runner, out_dir, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(a, runner, out_dir, work, tag):
    # Set-up is paid once per process: every pass process reports it, and
    # short-lived probes add samples; the metric is the median.
    records = []
    for i in range(SETUP_PROBES):
        records += spawn(runner, ["--setup-probe"], work / f"probe{i}.log")
    # Passes run until the next one would overrun the budget, with at least
    # MIN_PASSES. A traced run alternates untraced and traced passes, so the
    # tracing tax is measured under the same conditions; the first traced
    # pass also times the host references and the simulator.
    start = time.monotonic()
    slowest = 0.0
    index = 0
    while index < MIN_PASSES or (time.monotonic() - start + slowest
                                 <= a.seconds):
        traced = bool(a.trace) and index % 2 == 1
        t = time.monotonic()
        records += run_pass(runner, work, a.workload, a.seed, index, traced,
                            extras=traced and index == 1)
        slowest = max(slowest, time.monotonic() - t)
        index += 1
    ref = load_reference().get(a.workload, {})
    summary = benchlib.evaluate(records, ref, a.workload)
    end = next(r for r in records if r["kind"] == "end")
    manifest = benchlib.host_manifest(ROOT, end)
    warnings = benchlib.manifest_warnings(manifest)

    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    result = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "manifest": manifest, "warnings": warnings,
              **summary}
    (results / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if a.trace:
        spans = []
        for path in sorted((work / "files").glob("spans-*.json")):
            spans += benchlib.rebase_spans(json.loads(path.read_text()),
                                           len(spans))
        table = {"workload": a.workload, "seed": a.seed, "manifest": manifest,
                 "per_layer": summary["per_layer"],
                 "spans": benchlib.span_self_times(spans)}
        (results / f"{tag}-layers.json").write_text(
            json.dumps(table, indent=1) + "\n")
        (results / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n")

    for w in warnings:
        print(f"WARNING: {w}")
    for idx, label, why in summary["failures"]:
        print(f"FAILED pass {idx}: {label}: {why}")
    print(f"{a.workload}: {summary['attempted']} configurations attempted "
          f"over {summary['passes']} passes, {summary['failed']} failed "
          f"(fail_ratio {summary['fail_ratio']:.4g})")
    if a.trace:
        units = dict(benchlib.PER_LAYER)
        metrics = {n: {"value": summary["per_layer"][n], "unit": units[n]}
                   for n, _ in benchlib.PER_LAYER}
    else:
        metrics = {n: {"value": summary["end_to_end"][n], "unit": u}
                   for n, u in benchlib.END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print(f"results: {results / (tag + '.json')}")
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
