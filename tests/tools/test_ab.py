"""Smoke test of ``python -m benchmarks.ab``, with this checkout as both trees."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_ab_runs_both_trees_and_agrees_on_the_digest():
    result = subprocess.run(
        [sys.executable, "-m", "benchmarks.ab", str(ROOT), "--workload", "fio_packet",
         "--rounds", "1", "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    first, round_line, summary, collector = result.stdout.strip().splitlines()
    # two module sets, one program: the same digest and the same event count
    events = re.search(r"events parent (\d+) change (\d+)", first)
    assert events and events[1] == events[2]
    assert round_line.startswith("round   1") and "ratio" in round_line
    assert re.search(r"  gc parent \d+\.\d{3} s  change \d+\.\d{3} s$", round_line)
    assert re.fullmatch(r"ratio median \S+  range \S+\.\.\S+  over 1 rounds", summary)
    # each tree's collector seconds and collections per generation in run()
    gc_line = re.fullmatch(
        r"gc median parent (\d+\.\d{3}) s \((\d+)/(\d+)/(\d+)\)"
        r"  change (\d+\.\d{3}) s \((\d+)/(\d+)/(\d+)\)",
        collector,
    )
    assert gc_line, collector
    assert gc_line[2] != "0"  # a round of fio_packet allocates enough to collect
