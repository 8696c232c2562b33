"""Tests of spread.py's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_of_ten_runs(self):
        # Python's exclusive method: positions 2.75 and 8.25 of 1..10.
        q1, median, q3, share = spread.spread(list(range(10, 0, -1)))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(median, 5.5)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(share, 5.5 / 5.5)

    def test_identical_runs_have_no_spread(self):
        self.assertEqual(spread.spread([3.0] * 10)[3], 0.0)

    def test_zero_median_is_infinitely_wide(self):
        self.assertEqual(spread.spread([-1.0, 0.0, 0.0, 1.0])[3],
                         float("inf"))

    def test_seed_ranges(self):
        self.assertEqual(spread.parse_seeds("1-4,9"), [1, 2, 3, 4, 9])
        self.assertEqual(spread.parse_seeds("7"), [7])


if __name__ == "__main__":
    unittest.main()
