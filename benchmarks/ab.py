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

Rounds of one process share the host's speed drift, which separate
process pairs do not, so a few tens of rounds resolve a few percent.

Each tree's modules are swapped into ``sys.modules`` (and its paths onto
``sys.path``) before its round: imports inside functions resolve
through ``sys.modules``, so a round that ran with the other tree's
modules there would mix the two programs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
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

    def round(self, workload: str, seed: int, scale: float) -> Any:
        self.activate()
        runner = self.modules["benchmarks.e2e.runner"]
        cls = self.modules["benchmarks.e2e.workloads"].WORKLOADS[workload]
        rnd, _workload = runner.one_round(cls, seed, scale, verify=False)
        return rnd


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
    # untimed: lazy imports, caches, and the digest each timed round must repeat
    first = {name: side.round(args.workload, args.seed, args.scale)
             for name, side in sides.items()}  # fmt: skip
    digest = first["parent"].outcome.digest()
    bad = [name for name, rnd in first.items() if rnd.outcome.digest() != digest]
    if bad:
        print(f"digest differs between the trees ({', '.join(bad)})")
        return 1
    print(f"{args.workload} seed {args.seed} scale {args.scale}: digest {digest[:16]}, "
          f"events parent {first['parent'].events} change {first['change'].events}")  # fmt: skip
    ratios = []
    for index in range(args.rounds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        cpu = {}
        for name in order:
            rnd = sides[name].round(args.workload, args.seed, args.scale)
            if rnd.outcome.digest() != digest:
                print(f"round {index + 1}: {name} digest differs")
                return 1
            cpu[name] = rnd.cpu_s
        ratios.append(cpu["change"] / cpu["parent"])
        print(f"round {index + 1:3d}  parent {cpu['parent']:.3f} s  change {cpu['change']:.3f} s"
              f"  ratio {ratios[-1]:.3f}")  # fmt: skip
    if ratios:
        print(f"ratio median {statistics.median(ratios):.3f}  "
              f"range {min(ratios):.3f}..{max(ratios):.3f}  over {len(ratios)} rounds")  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
