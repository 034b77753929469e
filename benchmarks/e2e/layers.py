"""Per-layer attribution of host time: a profiler pass bucketed by
source path.

The profiler lives here and only here: no wall-clock or profiler import
enters ``src/`` (stormlint's wall-clock rule keeps holding).  Layers are
this repo's packages; a new package under ``src/repro`` with no entry
below fails the smoke test.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import PurePath
from typing import Callable, TypeVar

T = TypeVar("T")

OTHER = "other"

#: package (or ``package/module``) under ``src/repro`` -> layer.  Module
#: entries win over their package's entry.
PATH_LAYERS: dict[str, str] = {
    "sim": "sim",
    "net": "net.fabric",  # link, switch, nat, stack, sdn, packet
    "net/tcp": "net.tcp",
    "net/express": "net.express",
    "iscsi": "iscsi",
    "core": "core.control",  # platform, saga, ha, steering, splicing, ...
    "core/relay": "core.relay",
    "core/middlebox": "core.relay",
    "core/semantics": "core.semantics",
    "cloud": "cloud",
    "blockdev": "blockdev",
    "services": "services",
    "crypto": "crypto",
    "integrity": "integrity",
    "obs": "obs",
    "fs": "fs",
    "fleet": "fleet",
    "workloads": "workloads",
    "analysis": "workloads",
    # run by no workload here; named so that they are a decision
    "faults": OTHER,
    "objstore": OTHER,
}

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(PATH_LAYERS.values()))


def layer_of(filename: str) -> str:
    """Layer of one source file; ``other`` outside ``src/repro``."""
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return OTHER
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    if not rest:
        return OTHER
    module = f"{rest[0]}/{PurePath(rest[1]).stem}" if len(rest) > 1 else rest[0]
    return PATH_LAYERS.get(module) or PATH_LAYERS.get(rest[0], OTHER)


def profile_layers(fn: Callable[[], T]) -> tuple[T, dict[str, float], dict[str, int]]:
    """Run ``fn`` under cProfile; return its result, per-layer self
    seconds and per-layer call counts.

    Self time of a function in ``src/repro`` goes to its file's layer.
    Self time of builtins and stdlib (``heapq``, ``deque``, ``hashlib``)
    is charged to the layer of the calling function through the
    profiler's caller edges; what has no caller in ``src/repro`` stays
    in ``other``.  Calls count functions defined in the layer only.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = layer_of(filename)
        if layer != OTHER:
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        charged = 0.0
        for (caller_file, _l, _n), (_nc, _cc2, edge_tottime, _ct2) in callers.items():
            caller_layer = layer_of(caller_file)
            if caller_layer != OTHER:
                self_s[caller_layer] += edge_tottime
                charged += edge_tottime
        self_s[OTHER] += max(0.0, tottime - charged)
    return result, self_s, calls
