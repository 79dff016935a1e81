"""Shared pieces of the end-to-end suite benchmark: statistics, metric
catalog, host manifest and the evaluation of the runner's records.

run.py is the entry point; compare.py compares result files; the tests in
tests/ pin the helpers here. See README.md for what every metric means.
"""

import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import time
from pathlib import Path

WORKLOADS = ("suite", "ooo", "instrumented")

# (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit) of the fixed per-layer metrics, reported with --trace 1. The
# per-configuration and per-app breakdowns (apps.run_ms.<app>.<variant>.s<N>,
# apps.golden_ms.<app>, apps.setup_ms.<app>) go to the layer table file only,
# because their names depend on the workload.
PER_LAYER = (
    ("apps.run_ms", "ms"),
    ("apps.golden_ms", "ms"),
    ("apps.setup_ms", "ms"),
    ("sycl.submissions", "count"),
    ("sycl.submit_us_mean", "us"),
    ("sycl.pool_busy_s", "s"),
    ("sycl.pool_idle_s", "s"),
    ("sycl.pool_jobs", "count"),
    ("sycl.pool_chunks", "count"),
    ("sycl.sched_nodes", "count"),
    ("sycl.sched_edges", "count"),
    ("sycl.sched_dispatch_us_mean", "us"),
    ("sycl.sched_overlap_pct", "%"),
    ("sycl.pipe_items", "count"),
    ("sycl.pipe_blocked_s", "s"),
    ("sycl.pipe_parks", "count"),
    ("sycl.pipe_wakes", "count"),
    ("mem.pool_hits", "count"),
    ("mem.pool_misses", "count"),
    ("mem.hit_ratio", "ratio"),
    ("mem.hit_ratio_base", "count"),
    ("mem.parallel_copy_mb", "MB"),
    ("mem.buffer_peak_mb", "MB"),
    ("perf.simulate_ms", "ms"),
    ("analyze.shadow_intervals", "count"),
    ("analyze.race_checks", "count"),
    ("analyze.finish_ms", "ms"),
    ("analyze.findings", "count"),
    ("trace.export_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.export_mb", "MB"),
    ("fault.retries", "count"),
    ("metrics.overhead_pct", "%"),
    ("fail_ratio", "ratio"),
)

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
MIB = float(1 << 20)
EMPTY_FINDINGS = {"findings": []}

# Manifest keys that describe the host and build; two results are only
# comparable when all of them agree. The rest (git sha, load) is context.
HOST_KEYS = ("nproc", "affinity", "cpu_model", "llc_bytes", "build_type",
             "optimized", "compiler")


# ---- statistics -------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / m if m else float("inf")


# ---- host manifest ----------------------------------------------------------

def _affinity():
    cpus = sorted(os.sched_getaffinity(0))
    ranges = []
    for c in cpus:
        if ranges and c == ranges[-1][1] + 1:
            ranges[-1][1] = c
        else:
            ranges.append([c, c])
    return ",".join(f"{a}-{b}" if a != b else str(a) for a, b in ranges)


def _llc_bytes():
    """Size of the highest-level cache of cpu0, from sysfs (0 if unknown)."""
    best = (0, 0)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1 << 20}.get(size[-1:], 1)
        num = int(size[:-1]) if scale != 1 else int(size)
        best = max(best, (level, num * scale))
    return best[1]


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256(root):
    """Digest of the library sources and the benchmark's own files, so a
    result names the code it measured even when the checkout is not a git
    repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((Path(root) / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def host_manifest(root, build):
    """build: the runner's end record (build_type, optimized, compiler)."""
    return {
        "nproc": os.cpu_count(),
        "affinity": _affinity(),
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "build_type": build.get("build_type"),
        "optimized": build.get("optimized"),
        "compiler": build.get("compiler"),
        "git_sha": _git_sha(root),
        "source_sha256": source_sha256(root),
        "loadavg": list(os.getloadavg()),
        "kernel": platform.release(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def manifest_warnings(manifest):
    """Reasons a result should not be trusted as a performance baseline."""
    out = []
    if not manifest.get("optimized") or manifest.get("build_type") not in (
            "Release", "RelWithDebInfo"):
        out.append("unoptimized build (build_type="
                   f"{manifest.get('build_type')}, optimized="
                   f"{manifest.get('optimized')}): timings are not "
                   "representative")
    if (manifest.get("nproc") or 0) < 2:
        out.append(f"recorded with nproc={manifest.get('nproc')}: the thread "
                   "pool and scheduler behave differently on one CPU")
    return out


def manifest_mismatch(a, b):
    """Host/build keys on which two manifests differ."""
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]


# ---- evaluation of the runner's records ------------------------------------

def check_config(cfg, ref, instrumented):
    """Returns (failure reason or None, findings count) for one attempted
    configuration record. ref: the workload's reference entries by label."""
    if cfg["status"] != "ok":
        return f"run failed: {cfg.get('error', '')}", 0
    expected = ref.get(cfg["label"])
    if expected is None:
        return "no simulated-time reference for this configuration", 0
    for key in ("kernel_time", "non_kernel_time", "total_time"):
        if cfg.get(key) != expected[key]:
            return (f"{key} {cfg.get(key)!r} != reference "
                    f"{expected[key]!r}"), 0
    if not instrumented:
        return None, 0
    try:
        findings = json.loads(Path(cfg["findings_path"]).read_text())
    except (OSError, ValueError) as e:
        return f"findings file unreadable: {e}", 0
    count = (len(findings.get("findings", []))
             if isinstance(findings, dict) else 0)
    if findings != EMPTY_FINDINGS:
        return f"sanitizer reported {count} finding(s)", count
    try:
        json.loads(Path(cfg["trace_path"]).read_text())
    except (OSError, ValueError) as e:
        return f"trace export does not parse as JSON: {e}", 0
    return None, 0


def evaluate_pass(pass_rec, ref, instrumented):
    """Checks every configuration of one pass. Returns (attempted, failures,
    findings) where failures lists (label, reason); skipped configurations
    (variant/device pairs the registry does not support) are not attempted."""
    attempted = 0
    failures = []
    findings = 0
    for cfg in pass_rec["configs"]:
        if cfg["status"] == "skipped":
            continue
        attempted += 1
        reason, n = check_config(cfg, ref, instrumented)
        findings += n
        if reason is not None:
            failures.append((cfg["label"], reason))
    return attempted, failures, findings


def _mean(hists, name):
    h = hists.get(name)
    return h["sum"] / h["count"] if h and h["count"] else 0.0


def pass_layers(pass_rec, findings):
    """Per-layer metrics of one traced pass (the fixed ones plus the
    per-configuration apps.run_ms breakdown)."""
    v = pass_rec["metrics"]["values"]
    h = pass_rec["metrics"]["hist"]
    val = lambda name: float(v.get(name, 0.0))  # noqa: E731
    ran = [c for c in pass_rec["configs"] if c["status"] != "skipped"]
    hits = val("altis_mem_pool_hits_total")
    base = hits + val("altis_mem_pool_misses_total")
    out = {
        "apps.run_ms": sum(c["run_ms"] for c in ran),
        "sycl.submissions": val("syclite_queue_submissions_total"),
        "sycl.submit_us_mean":
            _mean(h, "syclite_queue_submit_latency_ns") / 1e3,
        "sycl.pool_busy_s": val("syclite_pool_worker_busy_ns") / 1e9,
        "sycl.pool_idle_s": val("syclite_pool_worker_idle_ns") / 1e9,
        "sycl.pool_jobs": val("syclite_pool_jobs_total"),
        "sycl.pool_chunks": val("syclite_pool_chunks_total"),
        "sycl.sched_nodes": val("altis_sched_nodes_total"),
        "sycl.sched_edges": val("altis_sched_edges_total"),
        "sycl.sched_dispatch_us_mean":
            _mean(h, "altis_sched_dispatch_latency_ns") / 1e3,
        "sycl.sched_overlap_pct": _mean(h, "altis_sched_overlap_pct"),
        "sycl.pipe_items": val("syclite_pipe_items_total"),
        "sycl.pipe_blocked_s": (val("syclite_pipe_blocked_write_ns") +
                                val("syclite_pipe_blocked_read_ns")) / 1e9,
        "sycl.pipe_parks": val("syclite_pipe_parks_total"),
        "sycl.pipe_wakes": val("syclite_pipe_wakes_total"),
        "mem.pool_hits": hits,
        "mem.pool_misses": base - hits,
        "mem.hit_ratio": hits / base if base else 0.0,
        "mem.hit_ratio_base": base,
        "mem.parallel_copy_mb":
            val("altis_mem_parallel_copy_bytes_total") / MIB,
        "mem.buffer_peak_mb": val("syclite_buffer_peak_bytes") / MIB,
        "analyze.shadow_intervals":
            val("altis_sanitize_shadow_intervals_total"),
        "analyze.race_checks": val("altis_sanitize_race_checks_total"),
        "analyze.finish_ms": sum(c.get("finish_ms", 0.0) for c in ran),
        "analyze.findings": float(findings),
        "trace.export_ms": sum(c.get("export_ms", 0.0) for c in ran),
        "trace.spans": float(sum(c.get("trace_spans", 0) for c in ran)),
        "trace.export_mb": sum(c.get("export_bytes", 0) for c in ran) / MIB,
        "fault.retries": val("altis_fault_retries_total"),
    }
    for c in ran:
        key = f"apps.run_ms.{c['app']}.{c['variant']}.s{c['size']}"
        out[key] = c["run_ms"]
    return out


def extra_layers(extra):
    """Per-layer metrics of the one-off host reference and simulator calls."""
    out = {"apps.golden_ms": 0.0, "apps.setup_ms": 0.0,
           "perf.simulate_ms": sum(s["ms"] for s in extra["simulate"])}
    for r in extra["host_reference"]:
        for kind in ("golden_ms", "setup_ms"):
            out[f"apps.{kind}"] += r[kind]
            key = f"apps.{kind}.{r['app']}"
            out[key] = out.get(key, 0.0) + r[kind]
    return out


def rebase_spans(spans, base):
    """Shifts parent indices of one process's spans past `base` earlier
    spans, so the spans of several passes can share one list."""
    return [dict(s, parent=s["parent"] + base if s["parent"] >= 0 else -1)
            for s in spans]


def span_self_times(spans):
    """Per span name: count, total ms and self ms (the span minus the part
    of it its child spans cover; children of one span never overlap)."""
    child_ns = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    out = {}
    for s, kids in zip(spans, child_ns):
        row = out.setdefault(s["name"],
                             {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        dur = s["end_ns"] - s["start_ns"]
        row["count"] += 1
        row["total_ms"] += dur / 1e6
        row["self_ms"] += (dur - kids) / 1e6
    return out


def evaluate(records, ref, workload):
    """Turns the runner's records into the run's summary: attempted/failed
    configurations (every pass is checked), the end-to-end metrics over the
    untraced passes and, when the run was traced, the per-layer table.
    Each pass record carries the peak_rss_mb of the process that ran it."""
    instrumented = workload == "instrumented"
    passes = [r for r in records if r["kind"] == "pass"]
    setups = [r["setup_s"] for r in records if r["kind"] == "setup"]
    attempted, failures = 0, []
    plain, traced = [], []
    for p in passes:
        n, fails, findings = evaluate_pass(p, ref, instrumented)
        attempted += n
        failures += [(p["index"], label, why) for label, why in fails]
        (traced if p["traced"] else plain).append((p, findings))
    summary = {
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures,
        "passes": len(passes),
        "end_to_end": {
            "wall_s": median([p["wall_s"] for p, _ in plain]),
            "cpu_s": median([p["cpu_s"] for p, _ in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([p["peak_rss_mb"] for p, _ in plain]),
        },
        "samples": {
            "wall_s": [p["wall_s"] for p, _ in plain],
            "cpu_s": [p["cpu_s"] for p, _ in plain],
            "setup_s": setups,
            "peak_rss_mb": [p["peak_rss_mb"] for p, _ in plain],
        },
    }
    if traced:
        rows = [pass_layers(p, f) for p, f in traced]
        layers = {k: median([r[k] for r in rows if k in r])
                  for k in sorted(set().union(*rows))}
        extra = next((r for r in records if r["kind"] == "extra"), None)
        if extra is not None:
            layers.update(extra_layers(extra))
        traced_wall = median([p["wall_s"] for p, _ in traced])
        layers["metrics.overhead_pct"] = (
            100.0 * (traced_wall / summary["end_to_end"]["wall_s"] - 1.0))
        layers["fail_ratio"] = summary["fail_ratio"]
        summary["per_layer"] = layers
    return summary
