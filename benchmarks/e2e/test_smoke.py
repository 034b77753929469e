"""Smoke test of the benchmark itself (``pytest benchmarks/e2e -q``).

Outside tier-1 ``testpaths``: it checks the benchmark, not the program.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from . import layers, runner
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.02


def _units(section):
    return {entry["name"]: entry["unit"] for entry in MANIFEST[section]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_metric_names_match_the_manifest(name):
    timed = runner.measure(name, seed=1, seconds=0.0, scale=SCALE)
    assert timed.correct, timed.problems
    assert timed.failed == 0 and timed.attempted >= 1
    assert {m: e["unit"] for m, e in timed.metrics.items()} == _units("end_to_end")
    assert all(e["value"] > 0 for e in timed.metrics.values())
    # layer shares are not meaningful at this size, names and units are
    traced = runner.trace(name, seed=1, scale=SCALE)
    assert {m: e["unit"] for m, e in traced.metrics.items()} == _units("per_layer")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_fields_repeat_in_process(name):
    runs = []
    for _ in range(2):
        rnd, workload = runner.one_round(WORKLOADS[name], seed=3, scale=SCALE, verify=True)
        runs.append((rnd.outcome.digest(), rnd.events, workload.counters()))
    assert runs[0] == runs[1]


def test_manifest_matches_the_code():
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert {
        e["name"]: (e["unit"], e["better"], e["bound"]) for e in MANIFEST["end_to_end"]
    } == runner.END_TO_END
    assert _units("per_layer") == runner.per_layer_units()
    assert MANIFEST["paths"] == ["benchmarks/e2e"]


def test_every_package_has_a_layer():
    packages = {
        p.name for p in (ROOT / "src" / "repro").iterdir() if (p / "__init__.py").is_file()
    }
    assert packages - {"lint"} <= set(layers.PATH_LAYERS)
    assert layers.layer_of(str(ROOT / "src/repro/net/tcp.py")) == "net.tcp"
    assert layers.layer_of(str(ROOT / "src/repro/net/link.py")) == "net.fabric"
    assert layers.layer_of(str(ROOT / "src/repro/core/ha.py")) == "core.control"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") == layers.OTHER


def test_command_prints_the_contract_line():
    cmd = MANIFEST["command"] + ["--workload", "fio_express", "--seed", "5",
                                 "--seconds", "0", "--trace", "0", "--scale", str(SCALE)]  # fmt: skip
    cmd[0] = sys.executable
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and set(result["metrics"]) == set(_units("end_to_end"))
