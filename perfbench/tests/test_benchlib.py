"""Tests of the benchmark's own helpers. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import benchlib  # noqa: E402
import compare  # noqa: E402

REF = {
    "nw/sycl_opt/xeon_6128/size1": {
        "kernel_time": 7.30636, "non_kernel_time": 51.152,
        "total_time": 58.45836},
    "where/sycl_opt/xeon_6128/size1": {
        "kernel_time": 0.948888, "non_kernel_time": 9.104608,
        "total_time": 10.053496},
}


def config(label, status="ok", **extra):
    app, variant, device, size = label.split("/")
    rec = {"label": label, "app": app, "variant": variant, "device": device,
           "size": int(size[4:]), "status": status, "error": "",
           "run_ms": 10.0}
    if status == "ok":
        rec.update(REF[label])
    rec.update(extra)
    return rec


def pass_record(configs, index=0, traced=False, wall_s=1.0):
    rec = {"kind": "pass", "index": index, "traced": traced,
           "wall_s": wall_s, "cpu_s": 2.0 * wall_s, "peak_rss_mb": 100.0,
           "configs": configs}
    if traced:
        rec["metrics"] = {"values": {"altis_mem_pool_hits_total": 3,
                                     "altis_mem_pool_misses_total": 1},
                          "hist": {}}
    return rec


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(benchlib.quartiles([1, 2, 3, 4, 5, 6, 7, 8]),
                         (2.25, 6.75))
        self.assertEqual(benchlib.quartiles([5.0]), (5.0, 5.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchlib.spread([1, 2, 3, 4, 5, 6, 7, 8]), 1.0)
        self.assertEqual(benchlib.spread([2.0, 2.0, 2.0]), 0.0)


class MetricNames(unittest.TestCase):
    def test_catalog_names_are_valid_and_unique(self):
        names = [n for n, _ in benchlib.END_TO_END + benchlib.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(benchlib.METRIC_NAME.fullmatch(n))

    def test_breakdown_names_are_valid(self):
        p = pass_record([config("where/sycl_opt/xeon_6128/size1"),
                         config("nw/fpga_opt/stratix_10/size2",
                                status="skipped")], traced=True)
        extra = {"host_reference": [{"app": "cfd_fp64", "size": 1,
                                     "setup_ms": 1.0, "golden_ms": 2.0}],
                 "simulate": [{"label": "x", "ms": 0.5}]}
        names = list(benchlib.pass_layers(p, 0)) + list(
            benchlib.extra_layers(extra))
        self.assertIn("apps.run_ms.where.sycl_opt.s1", names)
        self.assertIn("apps.golden_ms.cfd_fp64", names)
        self.assertNotIn("apps.run_ms.nw.fpga_opt.s2", names)
        for n in names:
            self.assertTrue(benchlib.METRIC_NAME.fullmatch(n), n)

    def test_benchmark_json_matches_catalog(self):
        path = BENCH_DIR.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(benchlib.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(benchlib.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(benchlib.WORKLOADS))


class FailRatio(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def instrumented_config(self, label, findings):
        fpath = self.dir / f"{label.replace('/', '_')}-findings.json"
        tpath = self.dir / f"{label.replace('/', '_')}-trace.json"
        fpath.write_text(json.dumps({"findings": findings}))
        tpath.write_text('{"traceEvents": []}')
        return config(label, findings_path=str(fpath), trace_path=str(tpath),
                      finish_ms=1.0, export_ms=1.0, trace_spans=3,
                      export_bytes=20)

    def test_clean_pass_has_no_failures(self):
        recs = [pass_record([config("nw/sycl_opt/xeon_6128/size1"),
                             config("where/sycl_opt/xeon_6128/size1")]),
                {"kind": "setup", "setup_s": 0.01}]
        s = benchlib.evaluate(recs, REF, "suite")
        self.assertEqual((s["attempted"], s["failed"], s["fail_ratio"]),
                         (2, 0, 0.0))

    def test_simulated_time_mismatch_is_counted(self):
        bad = config("nw/sycl_opt/xeon_6128/size1")
        bad["total_time"] += 1e-12  # any move, however small, must count
        recs = [pass_record([bad, config("where/sycl_opt/xeon_6128/size1")]),
                {"kind": "setup", "setup_s": 0.01}]
        s = benchlib.evaluate(recs, REF, "suite")
        self.assertEqual((s["attempted"], s["failed"]), (2, 1))
        self.assertEqual(s["fail_ratio"], 0.5)
        self.assertIn("total_time", s["failures"][0][2])

    def test_missing_reference_is_counted(self):
        recs = [pass_record([config("nw/sycl_opt/xeon_6128/size1")]),
                {"kind": "setup", "setup_s": 0.01}]
        s = benchlib.evaluate(recs, {}, "suite")
        self.assertEqual(s["failed"], 1)

    def test_injected_finding_is_counted(self):
        finding = {"rule": "ALS-R1", "severity": "error", "message": "race"}
        configs = [
            self.instrumented_config("nw/sycl_opt/xeon_6128/size1", [finding]),
            self.instrumented_config("where/sycl_opt/xeon_6128/size1", []),
        ]
        recs = [pass_record(configs),
                pass_record(configs, index=1, traced=True),
                {"kind": "setup", "setup_s": 0.01}]
        s = benchlib.evaluate(recs, REF, "instrumented")
        self.assertEqual((s["attempted"], s["failed"]), (4, 2))
        self.assertEqual(s["fail_ratio"], 0.5)
        self.assertEqual(s["per_layer"]["analyze.findings"], 1.0)
        self.assertEqual(s["per_layer"]["fail_ratio"], 0.5)

    def test_unparsable_trace_is_counted(self):
        c = self.instrumented_config("where/sycl_opt/xeon_6128/size1", [])
        Path(c["trace_path"]).write_text('{"traceEvents": [')
        s = benchlib.evaluate([pass_record([c]),
                               {"kind": "setup", "setup_s": 0.01}],
                              REF, "instrumented")
        self.assertEqual(s["failed"], 1)

    def test_thrown_run_is_counted_and_skips_are_not_attempted(self):
        recs = [pass_record([
            config("nw/sycl_opt/xeon_6128/size1", status="failed",
                   error="verification failed"),
            config("where/sycl_opt/xeon_6128/size1", status="skipped")]),
            {"kind": "setup", "setup_s": 0.01}]
        s = benchlib.evaluate(recs, REF, "suite")
        self.assertEqual((s["attempted"], s["failed"]), (1, 1))


class TracedRun(unittest.TestCase):
    def test_per_layer_from_traced_passes(self):
        c = [config("where/sycl_opt/xeon_6128/size1")]
        recs = [pass_record(c, wall_s=2.0),
                pass_record(c, index=1, traced=True, wall_s=2.2),
                {"kind": "setup", "setup_s": 0.01}]
        s = benchlib.evaluate(recs, REF, "suite")
        layers = s["per_layer"]
        for name, _ in benchlib.PER_LAYER:
            if name not in ("apps.golden_ms", "apps.setup_ms",
                            "perf.simulate_ms"):
                self.assertIn(name, layers)
        self.assertAlmostEqual(layers["metrics.overhead_pct"], 10.0)
        self.assertEqual(layers["mem.hit_ratio"], 0.75)
        self.assertEqual(layers["mem.hit_ratio_base"], 4.0)
        # End-to-end metrics come from untraced passes only.
        self.assertEqual(s["end_to_end"]["wall_s"], 2.0)

    def test_self_time_is_span_minus_children(self):
        spans = [
            {"id": "a", "name": "config", "start_ns": 0, "end_ns": 10e6,
             "parent": -1},
            {"id": "a", "name": "apps.run", "start_ns": 1e6, "end_ns": 5e6,
             "parent": 0},
            {"id": "a", "name": "analyze.finish", "start_ns": 5e6,
             "end_ns": 8e6, "parent": 0},
        ]
        more = benchlib.rebase_spans(spans, len(spans))
        self.assertEqual(more[1]["parent"], 3)
        t = benchlib.span_self_times(spans + more)
        self.assertAlmostEqual(t["config"]["total_ms"], 20.0)
        self.assertAlmostEqual(t["config"]["self_ms"], 6.0)
        self.assertAlmostEqual(t["apps.run"]["self_ms"], 8.0)
        self.assertEqual(t["analyze.finish"]["count"], 2)


class Manifest(unittest.TestCase):
    def result(self, **manifest):
        m = {"nproc": 4, "affinity": "0-3", "cpu_model": "x", "llc_bytes": 1,
             "build_type": "Release", "optimized": True, "compiler": "GNU 12",
             "git_sha": "abc", "loadavg": [1.0, 1.0, 1.0]}
        m.update(manifest)
        return {"workload": "suite", "trace": 0, "seed": 1, "manifest": m,
                "end_to_end": {"wall_s": 1.0, "cpu_s": 1.0, "setup_s": 1.0,
                               "peak_rss_mb": 1.0}}

    def test_same_host_compares(self):
        compare.check_comparable([self.result(),
                                  self.result(git_sha="def",
                                              loadavg=[3, 2, 1])])

    def test_different_host_is_refused(self):
        with self.assertRaisesRegex(compare.NotComparable,
                                    "re-record a same-host baseline"):
            compare.check_comparable([self.result(), self.result(nproc=1)])

    def test_unoptimized_or_single_cpu_build_warns(self):
        ok = self.result()["manifest"]
        self.assertEqual(benchlib.manifest_warnings(ok), [])
        w = benchlib.manifest_warnings(
            self.result(build_type="Debug", optimized=False,
                        nproc=1)["manifest"])
        self.assertEqual(len(w), 2)
        self.assertIn("unoptimized build", w[0])

    def test_regression_past_bound_is_reported(self):
        bounds = {n: (0.1, "lower") for n, _ in benchlib.END_TO_END}
        base = [self.result() for _ in range(3)]
        new = [self.result() for _ in range(3)]
        for r in new:
            r["end_to_end"]["wall_s"] = 1.2
        lines, ok = compare.compare(base, new, bounds)
        self.assertFalse(ok)
        self.assertTrue(any("REGRESSED" in ln and ln.startswith("wall_s")
                            for ln in lines))
        self.assertTrue(compare.compare(base, base, bounds)[1])

    def test_spread_wider_than_bound_is_unresolved(self):
        bounds = {n: (0.1, "lower") for n, _ in benchlib.END_TO_END}
        base = [self.result() for _ in range(4)]
        for r, v in zip(base, (0.6, 1.0, 1.0, 1.4)):
            r["end_to_end"]["cpu_s"] = v
        lines, _ = compare.compare(base, base, bounds)
        self.assertTrue(any("UNRESOLVED" in ln and ln.startswith("cpu_s")
                            for ln in lines))
        self.assertFalse(any("UNRESOLVED" in ln and ln.startswith("wall_s")
                             for ln in lines))


if __name__ == "__main__":
    unittest.main()
