"""Tests of the benchmark's own arithmetic and seeding.

    python3 -m unittest discover -s perfbench/tests

The program-set test builds perfbench/pbtool.exe with dune first.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pbstats  # noqa: E402
import run  # noqa: E402


def span(id_, parent, name, t0, t1):
    return {"id": id_, "parent": parent, "name": name, "t0": t0, "t1": t1,
            "req": 0, "dom": 0}


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(pbstats.percentile(values, 50), 50)
        self.assertEqual(pbstats.percentile(values, 90), 90)
        self.assertEqual(pbstats.percentile(values, 99), 99)
        self.assertEqual(pbstats.percentile(values, 100), 100)
        self.assertEqual(pbstats.percentile([7], 99), 7)
        self.assertEqual(pbstats.percentile([3, 1, 2], 50), 2)

    def test_unsorted_input_and_ties(self):
        self.assertEqual(pbstats.percentile([5, 1, 5, 5, 2], 40), 2)
        self.assertEqual(pbstats.percentile([5, 1, 5, 5, 2], 60), 5)

    def test_median(self):
        self.assertEqual(pbstats.median([3, 1, 2]), 2)
        self.assertEqual(pbstats.median([4, 1, 2, 3]), 2.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            pbstats.percentile([], 50)
        with self.assertRaises(ValueError):
            pbstats.percentile([1], 0)

    def test_tail_rule_keeps_ten_samples_beyond(self):
        self.assertIsNone(pbstats.tail_percentile(99))
        self.assertEqual(pbstats.tail_percentile(100), 90.0)
        self.assertEqual(pbstats.tail_percentile(999), 90.0)
        self.assertEqual(pbstats.tail_percentile(1000), 99.0)
        self.assertEqual(pbstats.tail_percentile(9999), 99.0)
        self.assertEqual(pbstats.tail_percentile(10000), 99.9)

    def test_tail_on_known_array(self):
        # 1000 samples: p99 is the 990th smallest, with ten larger ones.
        values = list(range(1000))
        p = pbstats.tail_percentile(len(values))
        tail = pbstats.percentile(values, p)
        self.assertEqual(tail, 989)
        self.assertEqual(sum(1 for v in values if v > tail), 10)


class Spans(unittest.TestCase):
    def test_self_time_nested(self):
        # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,70]
        spans = [span(1, 0, "root", 0, 100), span(2, 1, "a", 10, 40),
                 span(3, 2, "a1", 15, 25), span(4, 1, "b", 50, 70)]
        self.assertEqual(pbstats.self_times(spans),
                         {"root": 50, "a": 20, "a1": 10, "b": 20})

    def test_self_time_overlapping_children(self):
        # Children on two domains overlap: [10,50] and [30,60] cover 50.
        spans = [span(1, 0, "root", 0, 100), span(2, 1, "x", 10, 50),
                 span(3, 1, "y", 30, 60)]
        self.assertEqual(pbstats.self_times(spans)["root"], 50)

    def test_children_clipped_to_parent(self):
        spans = [span(1, 0, "root", 0, 10), span(2, 1, "late", 5, 20)]
        self.assertEqual(pbstats.self_times(spans)["root"], 5)

    def test_same_name_sums(self):
        spans = [span(1, 0, "r", 0, 10), span(2, 0, "r", 20, 25)]
        self.assertEqual(pbstats.self_times(spans), {"r": 15})

    def test_attributed_share(self):
        spans = [span(1, 0, "root", 0, 100), span(2, 1, "a", 0, 40),
                 span(3, 1, "wait", 40, 100), span(4, 0, "root", 200, 300),
                 span(5, 4, "a", 200, 300)]
        roots = [s for s in spans if s["name"] == "root"]
        self.assertAlmostEqual(pbstats.attributed_share(spans, roots), 1.0)
        self.assertAlmostEqual(
            pbstats.attributed_share(spans, roots, exclude={"wait"}), 0.7)

    def test_chrome_trace(self):
        doc = pbstats.chrome_trace([(1, "p", [span(1, 0, "root", 1000, 3000)])])
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(events[0]["ts"], 1.0)
        self.assertEqual(events[0]["dur"], 2.0)
        json.dumps(doc)


class Oracle(unittest.TestCase):
    PARAMS = {"accumulators": 1, "multiplier": True, "mac": False, "saturation": False,
              "imm_bits": 8, "address_regs": 4}

    def test_quality_sums_the_fixed_set(self):
        pairs = {p: (1, 10) for p in run.QUALITY_PAIRS}
        self.assertEqual(len(run.QUALITY_PAIRS), 37)
        self.assertEqual(run.quality(pairs), (37, 370, []))
        # A pair outside the set that now compiles is reported, not summed.
        pairs[("fir", "simple16")] = (5, 5)
        pairs[("n_real_updates", "asip")] = (100, 100)
        self.assertEqual(run.quality(pairs),
                         (37, 370, ["fir@simple16", "n_real_updates@asip"]))

    def test_quality_refuses_a_missing_pair(self):
        pairs = {p: (1, 10) for p in run.QUALITY_PAIRS}
        del pairs[("fir", "tic25")]
        with self.assertRaises(run.BenchError):
            run.quality(pairs)

    def test_limit_explains_only_machine_limits(self):
        agu = "loop over i needs %d address streams (+1 counter), AGU has %d registers"
        self.assertTrue(run.limit_explains(agu % (4, 4), self.PARAMS))
        self.assertTrue(run.limit_explains(agu % (6, 4), self.PARAMS))
        # The machine has the registers, or the message names other ones.
        self.assertFalse(run.limit_explains(agu % (3, 4), self.PARAMS))
        self.assertFalse(run.limit_explains(agu % (6, 5), self.PARAMS))
        self.assertTrue(run.limit_explains("register pressure: acc", self.PARAMS))
        for msg in ("exec error: virtual register reached the simulator",
                    "mode violation: ovm", "no instruction cover for (x)",
                    "register file exhausted", ""):
            self.assertFalse(run.limit_explains(msg, self.PARAMS), msg)


    def test_check_rows(self):
        agu = "loop over i needs 4 address streams (+1 counter), AGU has 4 registers"
        doc = {"seed": 1, "architectures": [{"sample": 0, "params": self.PARAMS, "kernels": [
            {"kernel": "fir", "status": "ok", "words": 9, "cycles": 40},
            {"kernel": "n_real_updates", "status": "failed", "error": agu}]}]}

        def failures(fir, nru):
            tally = run.Tally()
            run.check_rows(tally, doc, [dict(fir, sample=0, kernel="fir"),
                                        dict(nru, sample=0, kernel="n_real_updates")])
            self.assertEqual(tally.attempted, 2)
            return len(tally.failures)

        good = {"status": "ok", "words": 9, "cycles": 40, "outputs_ok": True}
        missing = {"status": "missing", "error": "not in the cache"}
        self.assertEqual(failures(good, missing), 0)
        self.assertEqual(failures(dict(good, outputs_ok=False), missing), 1)
        self.assertEqual(failures(dict(good, cycles=41), missing), 1)
        self.assertEqual(failures({"status": "failed", "error": "exec error: x"}, missing), 1)
        # Reported failed although the compile was cached: a simulator failure.
        self.assertEqual(failures(good, good), 1)

    def test_dse_exit_code_agrees_with_the_document(self):
        front = json.dumps({"pareto": [{"sample": 3}]})
        empty = json.dumps({"pareto": []})
        self.assertTrue(run.dse_exit_ok(0, "", front))
        self.assertTrue(run.dse_exit_ok(1, run.DSE_EMPTY_FRONT + "\n", empty))
        self.assertFalse(run.dse_exit_ok(0, "", empty))
        self.assertFalse(run.dse_exit_ok(1, run.DSE_EMPTY_FRONT, front))
        self.assertFalse(run.dse_exit_ok(1, "record: something else", empty))
        self.assertFalse(run.dse_exit_ok(2, "", empty))
        self.assertFalse(run.dse_exit_ok(0, "", ""))


class Seeding(unittest.TestCase):
    def test_program_set_is_a_function_of_the_seed(self):
        run.build()

        def program_set(seed, directory):
            manifest = run.gen_programs(seed, 30, directory)
            texts = []
            for prog in manifest["kernels"] + manifest["fuzz"]:
                with open(prog["file"]) as f:
                    texts.append((prog["name"], f.read(), prog["inputs"], prog["expected"]))
            return texts

        with tempfile.TemporaryDirectory() as tmp:
            a = program_set(5, os.path.join(tmp, "a"))
            b = program_set(5, os.path.join(tmp, "b"))
            c = program_set(6, os.path.join(tmp, "c"))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(len(a), 40)
        # The fuzz programs of one set are distinct.
        self.assertEqual(len({t for _, t, _, _ in a}), 40)


if __name__ == "__main__":
    unittest.main()
