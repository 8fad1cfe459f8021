"""Tests of the benchmark's own machinery: inputs, oracles, checks, metrics.

Run from the root of a checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import unittest

import inputs
import run


class InputsTest(unittest.TestCase):
    def test_writer_matches_known_records(self):
        inputs.self_check()
        self.assertEqual(inputs.graph6(inputs.path(5)), "DhC")

    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.stream_graphs(3), inputs.stream_graphs(3))
        self.assertNotEqual(inputs.stream_graphs(3), inputs.stream_graphs(4))
        self.assertEqual(inputs.solve_corpus(3), inputs.solve_corpus(3))
        self.assertNotEqual(inputs.solve_corpus(3), inputs.solve_corpus(4))

    def test_stream_mix(self):
        graphs = inputs.stream_graphs(1)
        self.assertEqual(len(graphs), inputs.STREAM_SIZE)
        self.assertTrue(all(map(inputs.is_connected, graphs)))
        self.assertEqual(sum(map(inputs.is_half_graph, graphs)), 5)
        share = sum(map(inputs.is_locatable, graphs)) / len(graphs)
        self.assertTrue(0.8 < share < 0.95, share)

    def test_every_solve_input_has_a_stored_answer(self):
        corpus = inputs.solve_corpus(0)
        expected = run.load_expected("solve.json")
        self.assertGreaterEqual(len(corpus), 100)
        self.assertEqual({record for record, _, _ in corpus}, set(expected))
        self.assertTrue(all(inputs.is_locatable(adj) for _, _, adj in corpus))


class ChecksTest(unittest.TestCase):
    def setUp(self):
        self.corpus = inputs.solve_corpus(0)
        self.expected = run.load_expected("solve.json")
        self.answers = [dict(self.expected[r], graph6=r) for r, _, _ in self.corpus]
        self.solve = run.Inputs([], None, len(self.corpus), None, per_graph=True)

    def test_stored_answers_pass_the_oracles(self):
        self.assertEqual(run.check_solve(self.answers, self.corpus, self.expected), [])

    def test_one_flipped_witness_bit_is_one_failed_record(self):
        answer = self.answers[7]
        answer["witness"] = sorted(set(answer["witness"]) ^ {0})
        problems = run.check_solve(self.answers, self.corpus, self.expected)
        self.assertEqual(len(problems), 1)
        self.assertIn("witness", problems[0])
        tally = run.Tally()
        tally.add(self.solve, problems, 0)
        self.assertEqual((tally.attempted, tally.failed), (len(self.corpus), 1))

    def test_missing_answer_and_bad_exit_fail(self):
        problems = run.check_solve(self.answers[1:], self.corpus, self.expected)
        self.assertEqual(len(problems), 1)
        tally = run.Tally()
        tally.add(self.solve, [], 1)
        self.assertEqual(tally.failed, len(self.corpus))

    def test_stream_report_is_checked_field_by_field(self):
        graphs = inputs.stream_graphs(2)
        want = run.stream_expectations(graphs)
        report = dict(want)
        self.assertEqual(run.check_stream([json.dumps(report)], want), [])
        report["locatable_count"] += 1
        problems = run.check_stream([json.dumps(report)], want)
        self.assertEqual(len(problems), 1)
        stream = run.Inputs([], None, len(graphs), None)
        tally = run.Tally()
        tally.add(stream, problems, 0)
        self.assertEqual(tally.failed, len(graphs))

    def test_census_report_must_match_the_stored_bytes(self):
        line = run.census_expected(8)
        self.assertEqual(run.check_census([line], line), [])
        self.assertEqual(len(run.check_census([line.replace("7442", "7441")], line)), 1)
        self.assertIn('"extremal":[]', run.census_expected(7))


class MetricsTest(unittest.TestCase):
    def test_percentiles_come_with_their_sample_counts(self):
        gaps = [i / 1000 for i in range(1, 101)]
        passes = [run.Pass(1.0, [], gaps[:50], 0, 1.0), run.Pass(1.0, [], gaps[50:], 0, 1.0)]
        latency, samples = run.latency_metrics(passes)
        self.assertEqual(samples, 100)
        # median over the two passes of each pass's percentile
        self.assertAlmostEqual(latency["graph_p50_ms"][0], (25.5 + 75.5) / 2)
        self.assertAlmostEqual(latency["graph_p90_ms"][0], (45.1 + 95.1) / 2)

    def test_each_pass_is_paced_by_the_reference_runs_around_it(self):
        passes = [run.Pass(2.0, [], [], 0, 1.0), run.Pass(3.0, [], [], 0, 1.0)]
        self.assertEqual(run.relative_walls(passes, [1.0, 1.0, 2.0]), [2.0, 2.0])
        with self.assertRaises(ValueError):
            run.relative_walls(passes, [1.0, 1.0])


if __name__ == "__main__":
    unittest.main()
