"""Self-tests of the replay benchmark's correctness checks.

Run from the root of the source tree:

  python3 -m unittest discover -s perfbench/tests

The first two classes are pure Python. ReproTest builds the benchmark
(as run.py does) and replays the fixed gap x pruning-technique-2 repro,
so it takes one to two minutes on a 4-core machine.
"""

import copy
import json
import os
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def outcome(occurred, expired, digest):
    return {"occurred": occurred, "expired": expired, "digest": digest,
            "completed": True}


def reference(n):
    queries = [{"tcm": outcome(10 + i, 10 + i, "%016x" % i),
                "ref": outcome(10 + i, 10 + i, "%016x" % i)}
               for i in range(n)]
    return {"ref_engine": "symbi", "queries": queries}


class MatchReportTest(unittest.TestCase):
    def setUp(self):
        self.ref = reference(4)
        self.counts = [[10 + i, 10 + i] for i in range(4)]
        self.gaps = [0, 0, 0, 0]

    def test_agreement_scores_one(self):
        share, known, unexplained = run.match_report(self.counts, self.ref,
                                                     {}, self.gaps)
        self.assertEqual(share, 1.0)
        self.assertEqual((known, unexplained), ([], []))

    def test_wrong_count_lowers_share(self):
        counts = copy.deepcopy(self.counts)
        counts[2][1] += 1  # one expired report too many
        share, _, unexplained = run.match_report(counts, self.ref, {},
                                                 self.gaps)
        self.assertEqual(share, 0.75)
        self.assertEqual(unexplained, [2])

    def test_wrong_embedding_lowers_share(self):
        # Same counts, different embeddings: only the digest can tell.
        ref = copy.deepcopy(self.ref)
        ref["queries"][1]["tcm"]["digest"] = "deadbeefdeadbeef"
        share, _, unexplained = run.match_report(self.counts, ref, {},
                                                 self.gaps)
        self.assertEqual(share, 0.75)
        self.assertEqual(unexplained, [1])

    def test_incomplete_reference_is_not_ok(self):
        ref = copy.deepcopy(self.ref)
        ref["queries"][0]["ref"]["completed"] = False
        share, _, unexplained = run.match_report(self.counts, ref, {},
                                                 self.gaps)
        self.assertEqual(share, 0.75)
        self.assertEqual(unexplained, [0])


class KnownDefectTest(unittest.TestCase):
    def test_attribution_needs_gaps_and_a_technique_2_rerun_match(self):
        ref = reference(3)
        for q in ref["queries"]:
            q["tcm"] = outcome(0, q["ref"]["expired"], "0" * 16)
        counts = [[0, q["ref"]["expired"]] for q in ref["queries"]]
        fixed = {i: q["ref"] for i, q in enumerate(ref["queries"])}
        still_wrong = dict(fixed)
        still_wrong[2] = outcome(1, 1, "1" * 16)
        share, known, unexplained = run.match_report(
            counts, ref, still_wrong, [2, 0, 1])
        self.assertEqual(share, 0.0)  # known defects still count as wrong
        self.assertEqual(known, [0])
        self.assertEqual(unexplained, [1, 2])  # no gaps / rerun disagrees


class ReproTest(unittest.TestCase):
    """The reference check flags the documented defect on its repro:
    superuser preset seed 1, 8 queries of 9 edges, density 0.5, window
    1000, gap probability 0.5, query seed 2. Query 3 reports 0 occurred
    and 24 expired under TCM; both baselines report 24 and 24."""

    @classmethod
    def setUpClass(cls):
        deadline = time.monotonic() + 900
        cls.bins = run.build(deadline)
        cls.d, _, cls.files = run.inputs(cls.bins, "repro", 0, deadline)

    def check_query_3(self, *extra):
        files = [self.files[0], self.files[4]]  # the stream and q03.tq
        out = subprocess.run(run.check_cmd(self.bins, files, extra),
                             check=True, capture_output=True, text=True)
        return json.loads(out.stdout)["queries"][0]

    def test_query_3_is_flagged_as_the_known_defect(self):
        deadline = time.monotonic() + 600
        ref, t2off = run.reference(self.bins, self.d, self.files, deadline)
        q3 = ref["queries"][3]
        self.assertEqual((q3["tcm"]["occurred"], q3["tcm"]["expired"]),
                         (0, 24))
        self.assertEqual((q3["ref"]["occurred"], q3["ref"]["expired"]),
                         (24, 24))
        counts = [[q["tcm"]["occurred"], q["tcm"]["expired"]]
                  for q in ref["queries"]]
        share, known, unexplained = run.match_report(
            counts, ref, t2off, run.query_gaps(self.files))
        self.assertLess(share, 1.0)
        self.assertIn(3, known)
        self.assertEqual(unexplained, [])

    def test_both_baselines_and_both_knobs_agree(self):
        local = self.check_query_3("--ref", "local")["ref"]
        self.assertEqual((local["occurred"], local["expired"]), (24, 24))
        for knob in ("--prune-uniform", "--prune-gap-bounds"):
            tcm = self.check_query_3(knob, "0")["tcm"]
            self.assertEqual((tcm["occurred"], tcm["expired"]), (24, 24))


if __name__ == "__main__":
    unittest.main()
