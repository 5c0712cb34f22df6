#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/test_perfbench.py

The percentile tests are pure Python.  The input and open-loop tests build
the driver (as run.py does) and start a private netpartd.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_known_sizes(self):
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertIsNone(run.tail_percentile(19))

    def test_highest_with_ten_beyond(self):
        for n in range(20, 3000):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(n - run.rank(p, n), 10, n)
            higher = [q for q in run.TAIL_LADDER if q > p]
            if higher:
                q = min(higher)
                self.assertLess(n - run.rank(q, n), 10, n)

    def test_rank_is_exact(self):
        self.assertEqual(run.rank(99.9, 10000), 9990)
        self.assertEqual(run.rank(99.0, 1000), 990)
        self.assertEqual(run.rank(50.0, 3), 2)

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # unsorted on purpose
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.tail(values), (90.0, 90))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (50.0, 2.0))


def build_dir():
    path = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    run.build(path, run.source_digest(run.ROOT))
    return path


class SeededInputsTest(unittest.TestCase):
    def hashes(self, seed):
        raw = run.run_driver(build_dir(), ["inputs", "--seed", str(seed)])
        return [h for _, h in raw["inputs"]]

    def test_same_seed_same_hashes(self):
        first = self.hashes(7)
        self.assertEqual(first, self.hashes(7))
        self.assertGreater(len(first), 20)

    def test_other_seed_other_hashes(self):
        for a, b in zip(self.hashes(7), self.hashes(8)):
            self.assertNotEqual(a, b)


class OpenLoopTest(unittest.TestCase):
    def test_stall_shows_in_later_requests(self):
        # Pings due every 10 ms; the 11th request holds the lane for 300 ms.
        # Timed from their due times, the pings due during the stall must
        # carry the wait, shrinking as their due time nears its end.
        path = build_dir()
        with run.Daemon(path, extra=("--debug-ops",)) as daemon:
            raw = run.run_driver(path, ["stall_probe", "--socket",
                                        "@" + daemon.name])
        self.assertEqual(raw["failed"], 0)
        lat = raw["samples"]["op_ms"]
        self.assertEqual(len(lat), 60)
        self.assertLess(max(lat[:10]), 50.0)
        self.assertGreater(lat[11], 250.0)
        self.assertGreater(lat[20], 150.0)
        self.assertGreater(lat[11], lat[20])
        self.assertGreater(lat[20], lat[30])
        self.assertLess(max(lat[50:]), 50.0)


if __name__ == "__main__":
    unittest.main()
