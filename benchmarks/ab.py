"""In-process A/B of host time: this checkout against another, one process.

    python -m benchmarks.ab PARENT_TREE [--workload W] [--rounds N] [--seed S] [--scale F]

``PARENT_TREE`` is another checkout of this repository (a ``git clone``
of the parent commit, say).  Both trees' ``repro`` and ``benchmarks``
packages are loaded into this interpreter.  Each round builds and runs
the e2e workload ``W`` once per tree, in alternating order, and times
``run()`` in CPU seconds, as ``benchmarks.e2e`` does.  It prints each
round's ratio (this tree over the parent), their median and their
range.  It exits 1 if a round's result digest differs between the two
trees or from the untimed first round.

It also times the cyclic garbage collector inside each timed ``run()``
(``gc.callbacks``, CPU seconds) and prints each tree's median collector
seconds and collections per generation.  A profiler charges a
collection to whatever function happened to allocate, so this is the
one place a change to how much garbage a round leaves shows up.

Rounds of one process share the host's speed drift, which separate
process pairs do not, so a few tens of rounds resolve a few percent.

Each tree's modules are swapped into ``sys.modules`` (and its paths onto
``sys.path``) before its round: imports inside functions resolve
through ``sys.modules``, so a round that ran with the other tree's
modules there would mix the two programs.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Any

HERE = Path(__file__).resolve().parents[1]
PACKAGES = ("repro", "benchmarks")


def _ours(name: str) -> bool:
    return name.partition(".")[0] in PACKAGES


class Tree:
    """One checkout's modules, loaded apart from every other tree's."""

    def __init__(self, root: Path, base_path: list[str]) -> None:
        self.path = [str(root / "src"), str(root)] + base_path
        self.modules: dict[str, ModuleType] = {}
        self.activate()
        import benchmarks.e2e.runner  # noqa: F401 -- loads this tree's copy

        self.modules = {name: m for name, m in sys.modules.items() if _ours(name)}

    def activate(self) -> None:
        for name in [name for name in sys.modules if _ours(name)]:
            del sys.modules[name]
        sys.modules.update(self.modules)
        sys.path[:] = self.path

    def round(self, workload: str, seed: int, scale: float, meter: "GcMeter") -> Any:
        self.activate()
        runner = self.modules["benchmarks.e2e.runner"]
        cls = self.modules["benchmarks.e2e.workloads"].WORKLOADS[workload]
        rnd, _workload = runner.one_round(meter.metered(cls), seed, scale, verify=False)
        return rnd


class GcMeter:
    """The collector's CPU seconds and collections per generation inside
    a workload's ``run()``, from ``gc.callbacks`` (the untimed
    ``gc.collect()`` calls around it are not counted)."""

    def __init__(self) -> None:
        self.armed = False
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._start = 0.0
        self._classes: dict[type, type] = {}
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if not self.armed:
            return
        if phase == "start":
            self._start = time.process_time()
        else:
            self.seconds += time.process_time() - self._start
            self.collections[info["generation"]] += 1

    def metered(self, cls: type) -> type:
        """``cls`` with its ``run()`` measured: the reading starts over."""
        self.seconds, self.collections = 0.0, [0, 0, 0]
        if cls not in self._classes:
            meter = self

            class Metered(cls):  # type: ignore[misc, valid-type]
                def run(self) -> Any:
                    meter.armed = True
                    try:
                        return super().run()
                    finally:
                        meter.armed = False

            self._classes[cls] = Metered
        return self._classes[cls]

    def reading(self) -> tuple[float, list[int]]:
        return self.seconds, list(self.collections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)  # fmt: skip
    parser.add_argument("parent", type=Path, help="the other checkout's root")
    parser.add_argument("--workload", default="fio_packet")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    base_path = list(sys.path)
    parent, change = Tree(args.parent.resolve(), base_path), Tree(HERE, base_path)
    sides = {"parent": parent, "change": change}
    meter = GcMeter()
    # untimed: lazy imports, caches, and the digest each timed round must repeat
    first = {name: side.round(args.workload, args.seed, args.scale, meter)
             for name, side in sides.items()}  # fmt: skip
    digest = first["parent"].outcome.digest()
    bad = [name for name, rnd in first.items() if rnd.outcome.digest() != digest]
    if bad:
        print(f"digest differs between the trees ({', '.join(bad)})")
        return 1
    print(f"{args.workload} seed {args.seed} scale {args.scale}: digest {digest[:16]}, "
          f"events parent {first['parent'].events} change {first['change'].events}")  # fmt: skip
    ratios = []
    gc_runs: dict[str, list[tuple[float, list[int]]]] = {name: [] for name in sides}
    for index in range(args.rounds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        cpu = {}
        for name in order:
            rnd = sides[name].round(args.workload, args.seed, args.scale, meter)
            if rnd.outcome.digest() != digest:
                print(f"round {index + 1}: {name} digest differs")
                return 1
            cpu[name] = rnd.cpu_s
            gc_runs[name].append(meter.reading())
        ratios.append(cpu["change"] / cpu["parent"])
        print(f"round {index + 1:3d}  parent {cpu['parent']:.3f} s  change {cpu['change']:.3f} s"
              f"  ratio {ratios[-1]:.3f}  gc parent {gc_runs['parent'][-1][0]:.3f} s"
              f"  change {gc_runs['change'][-1][0]:.3f} s")  # fmt: skip
    if ratios:
        print(f"ratio median {statistics.median(ratios):.3f}  "
              f"range {min(ratios):.3f}..{max(ratios):.3f}  over {len(ratios)} rounds")  # fmt: skip
        print("gc median " + "  ".join(
            f"{name} {statistics.median(s for s, _ in runs):.3f} s "
            f"({'/'.join(str(round(statistics.median(c[g] for _, c in runs))) for g in range(3))})"
            for name, runs in gc_runs.items()))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
