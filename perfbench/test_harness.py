"""Tests of the benchmark harness itself: the percentile rule, the answer
checkers on captured psd_serve response lines, seed handling, and the
metric tables against BENCHMARK.json.

  python3 perfbench/test_harness.py
"""
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
import run  # noqa: E402

# Response lines captured from psd_serve: a fresh solve, a memo hit of the
# same key, an admission-queue SHED and two INVALID_REQUESTs. Ids are set to
# what the harness sends (the request's index) where the checks need it.
FRESH = (b'{"id":"3","code":"OK","degraded":false,"epoch":0,"cached":false,'
         b'"coalesced":false,"steps":62,"optimal_ns":74732.320000000022,'
         b'"static_ns":74732.320000000022,"naive_bvn_ns":1314732.3200000001,'
         b'"greedy_ns":74732.320000000022,"reconfigurations":0,"speedup_vs_static":1,'
         b'"speedup_vs_bvn":17.592553262095969,"pipelined_ns":74732.320000000036,'
         b'"pipeline_chunks":1,"chosen_algo":"ring","plan_latency_ms":1.349377}')
HIT = (b'{"id":"7","code":"OK","degraded":false,"epoch":0,"cached":true,'
       b'"coalesced":false,"steps":62,"optimal_ns":74732.320000000022,'
       b'"static_ns":74732.320000000022,"naive_bvn_ns":1314732.3200000001,'
       b'"greedy_ns":74732.320000000022,"reconfigurations":0,"speedup_vs_static":1,'
       b'"speedup_vs_bvn":17.592553262095969,"pipelined_ns":74732.320000000036,'
       b'"pipeline_chunks":1,"chosen_algo":"ring","plan_latency_ms":0.0061999999999999998}')
SHED = (b'{"id":"4","code":"SHED","error":"admission queue full",'
        b'"retry_after_ms":2.6987540000000001}')
INVALID = b'{"id":"5","code":"INVALID_REQUEST","error":"missing field \\"nodes\\""}'
UNPARSABLE = (b'{"id":"","code":"INVALID_REQUEST",'
              b'"error":"JSON parse error at byte 0: invalid literal"}')


def memo_key(line):
    """The part of a plan line the daemon's memo keys on (all but the id)."""
    return line[line.index(b',"topology"'):]


def line_classes(lines):
    """Multiset of (topology, nodes, collective) over protocol lines."""
    out = {}
    for line in lines:
        obj = json.loads(line)
        c = (obj["topology"], obj["nodes"], obj["collective"])
        out[c] = out.get(c, 0) + 1
    return out


def spec_classes(spec):
    """The axes of a grid spec other than the seed-drawn values."""
    axes = dict(ln.split(" = ", 1) for ln in spec.splitlines())
    return {k: v for k, v in axes.items() if k not in ("size", "alpha_r_ns", "seed")}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_with_count_beyond(self):
        v = list(range(1, 1001))
        self.assertEqual(benchlib.percentile(v, 50), (500, 500))
        self.assertEqual(benchlib.percentile(v, 99), (990, 10))
        self.assertEqual(benchlib.percentile([5.0], 99), (5.0, 0))
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(benchlib.highest_supported_percentile(0))
        self.assertIsNone(benchlib.highest_supported_percentile(19))
        self.assertEqual(benchlib.highest_supported_percentile(20), 50.0)
        self.assertEqual(benchlib.highest_supported_percentile(999), 90.0)
        self.assertEqual(benchlib.highest_supported_percentile(1000), 99.0)
        self.assertEqual(benchlib.highest_supported_percentile(10000), 99.9)
        self.assertEqual(benchlib.highest_supported_percentile(100000), 99.99)

    def test_windows_split_at_marks(self):
        marks = [(0, 0.0), (10, 1.0), (20, 3.0)]
        done = [1, 10, 11, 20, 21]
        lat = [4e6, 1e6, 3e6, 2e6, 9e6]
        w = benchlib.window_stats(marks, done, lat)
        self.assertEqual([x["answers"] for x in w], [2, 2])
        self.assertEqual(w[0]["lat_ms"], [1.0, 4.0])
        self.assertEqual(w[1]["lat_ms"], [2.0, 3.0])
        self.assertEqual([x["cpu_s"] for x in w], [1.0, 2.0])
        self.assertEqual(w[1]["wall_s"], 10e-9)


class AnswerCheckers(unittest.TestCase):
    def test_fresh_answer_passes(self):
        # pipelined_ns exceeds optimal_ns by 2e-16 relative: rounding, not a
        # violation.
        self.assertIsNone(benchlib.check_fresh(json.loads(FRESH), "3"))

    def test_fresh_check_rejects(self):
        resp = json.loads(FRESH)
        self.assertIn("id", benchlib.check_fresh(resp, "4"))
        for key, value, why in (("cached", True, "cached"),
                                ("coalesced", True, "coalesced"),
                                ("static_ns", 70000.0, "static_ns"),
                                ("greedy_ns", 1.0, "greedy_ns"),
                                ("pipelined_ns", 75000.0, "pipelined_ns"),
                                ("chosen_algo", "", "chosen_algo")):
            bad = dict(resp, **{key: value})
            self.assertIn(why, benchlib.check_fresh(bad, "3"), key)

    def test_memo_hit_passes_against_its_warm_up_answer(self):
        body = benchlib.hit_body(FRESH)
        self.assertAlmostEqual(benchlib.check_hit_line(HIT, 7, body), 0.0062)

    def test_memo_hit_check_rejects(self):
        body = benchlib.hit_body(FRESH)
        self.assertIsNone(benchlib.check_hit_line(HIT, 8, body))  # wrong id
        self.assertIsNone(benchlib.check_hit_line(
            HIT.replace(b'"steps":62', b'"steps":61'), 7, body))
        self.assertIsNone(benchlib.check_hit_line(
            HIT.replace(b'"cached":true', b'"cached":false'), 7, body))
        self.assertIsNone(benchlib.check_hit_line(FRESH.replace(b'"3"', b'"7"'), 7, body))

    def test_error_answers_fail_both_checks(self):
        body = benchlib.hit_body(FRESH)
        for line, rid, code in ((SHED, "4", "SHED"), (INVALID, "5", "INVALID_REQUEST")):
            self.assertIn(code, benchlib.check_fresh(json.loads(line), rid))
            self.assertIsNone(benchlib.check_hit_line(line, int(rid), body))
        self.assertIn("id", benchlib.check_fresh(json.loads(UNPARSABLE), "6"))
        with self.assertRaises(ValueError):
            benchlib.hit_body(SHED)


class Seeds(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(benchlib.serve_hit_inputs(7), benchlib.serve_hit_inputs(7))
        self.assertEqual(benchlib.serve_plan_inputs(7, 500),
                         benchlib.serve_plan_inputs(7, 500))
        self.assertEqual(benchlib.sweep_specs(7), benchlib.sweep_specs(7))

    def test_other_seed_same_classes(self):
        a_warm, a_lines, _ = benchlib.serve_hit_inputs(7)
        b_warm, b_lines, _ = benchlib.serve_hit_inputs(8)
        self.assertNotEqual(a_lines, b_lines)
        self.assertEqual(line_classes(a_warm), line_classes(b_warm))
        self.assertEqual(line_classes(a_lines), line_classes(b_lines))
        a_warm, a_lines = benchlib.serve_plan_inputs(7, 500)
        b_warm, b_lines = benchlib.serve_plan_inputs(8, 500)
        self.assertNotEqual(a_lines, b_lines)
        self.assertEqual(line_classes(a_warm), line_classes(b_warm))
        self.assertEqual(line_classes(a_lines), line_classes(b_lines))
        a, b = benchlib.sweep_specs(7), benchlib.sweep_specs(8)
        self.assertNotEqual(a, b)
        for name in a:
            ca, cb = spec_classes(a[name]), spec_classes(b[name])
            self.assertEqual(ca, cb)
        self.assertIn("seed = 7", a["n16"])

    def test_serve_hit_keys_fit_the_memo(self):
        warm, lines, key_of = benchlib.serve_hit_inputs(3)
        keys = {memo_key(w) for w in warm}
        self.assertEqual(len(keys), len(warm))
        self.assertLess(len(keys), 1024)
        for line, k in zip(lines, key_of):
            self.assertEqual(memo_key(line), memo_key(warm[k]))

    def test_serve_plan_keys_are_never_seen(self):
        warm, lines = benchlib.serve_plan_inputs(3, 2000)
        keys = [memo_key(x) for x in warm + lines]
        self.assertEqual(len(set(keys)), len(keys))
        for line in lines:
            self.assertGreater(json.loads(line)["message_bytes"], 4096)


class BenchmarkJson(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
