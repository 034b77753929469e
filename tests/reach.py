"""The reach ledger: which kind of run first reaches each ``src/`` function.

    PYTHONPATH=src:. python -m tests.reach      # from the repo root, ~3 min

Runs three kinds of work, each in a child process under a stdlib
``sys.setprofile`` hook (``threading.setprofile`` for threads), in this
order:

- ``paper``: the figure and table sweep
  (``pytest benchmarks --ignore=benchmarks/e2e --benchmark-disable``);
- ``scenario``: the pinned registry (all but its slow tiers), then
  every script in ``examples/``;
- ``test``: tier-1 (``pytest tests``).

Two tier-1 tests install a profiler of their own, so under pytest the
hook is re-installed at each test's setup, call and teardown.  A
function's kind is the first of the three that called it, or ``none``.
Prints one line per ``def`` under ``src/repro`` (kind, path, line,
qualified name), then a count per kind, and exits 1 when a ``none``
function is missing from :data:`ALLOW_PATH`, where every entry gives a
one-line reason.  An entry whose function is reached, or no longer
exists, is reported as stale but does not fail the run: a new test
reaching a function is no fault of the program.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Iterator

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ALLOW_PATH = ROOT / "tests" / "reach_allow.txt"
KINDS = ("paper", "scenario", "test")

Key = tuple[str, int]  # (path relative to the repo root, first line)


def functions() -> dict[Key, str]:
    """Every ``def`` under ``src/repro``, keyed as a code object's
    ``co_filename`` and ``co_firstlineno`` give it (a decorated
    function starts at its first decorator), valued by its qualified
    name as ``co_qualname`` spells it."""
    found: dict[Key, str] = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(ROOT).as_posix()
        walk(ast.parse(file.read_text(), filename=path), path, "")
    return found


# -- the child: one kind of run under the hook --------------------------------

_CALLED: set = set()


def _hook(frame, event, _arg) -> None:
    if event == "call":
        _CALLED.add(frame.f_code)


def _install() -> None:
    sys.setprofile(_hook)
    threading.setprofile(_hook)


class _Reinstall:
    """pytest plugin: the hook goes back in before every test phase."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item) -> None:
        _install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item) -> None:
        _install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item) -> None:
        _install()


def _pytest(args: list[str]) -> None:
    code = pytest.main([*args, "-q", "-p", "no:cacheprovider"], plugins=[_Reinstall()])
    print(f"reach: pytest {' '.join(args)} exited {int(code)}", file=sys.stderr)


def _scenarios() -> None:
    from tests.determinism.pinned import SCENARIOS, SLOW

    for name, scenario in SCENARIOS.items():
        if name not in SLOW:
            scenario()
    for script in sorted((ROOT / "examples").glob("*.py")):
        argv = sys.argv
        sys.argv = [str(script)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(script), run_name="__main__")
        except SystemExit as stop:
            if stop.code not in (None, 0):
                print(f"reach: {script.name} exited {stop.code}", file=sys.stderr)
        finally:
            sys.argv = argv


def _run_kind(kind: str, out: str) -> None:
    _install()
    if kind == "paper":
        _pytest(["benchmarks", "--ignore=benchmarks/e2e", "--benchmark-disable"])
    elif kind == "scenario":
        _scenarios()
    else:
        _pytest(["tests"])
    sys.setprofile(None)
    threading.setprofile(None)
    src = str(SRC)
    reached = sorted(
        (Path(code.co_filename).relative_to(ROOT).as_posix(), code.co_firstlineno)
        for code in _CALLED
        if code.co_filename.startswith(src)
    )
    Path(out).write_text(json.dumps(reached))


# -- the parent: three children, one ledger -----------------------------------


def _reached(kind: str) -> set[Key]:
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, f"{kind}.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        subprocess.run(
            [sys.executable, "-m", "tests.reach", "--kind", kind, "--out", out],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        return {(path, line) for path, line in json.loads(Path(out).read_text())}


def allowed() -> dict[str, str]:
    """``path::qualname`` -> reason, from :data:`ALLOW_PATH` (lines
    ``path::qualname -- reason``; ``#`` starts a comment line)."""
    entries = {}
    for number, line in enumerate(ALLOW_PATH.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _sep, reason = line.partition(" -- ")
        if not reason.strip():
            raise SystemExit(f"{ALLOW_PATH.name}:{number}: entry without a reason")
        entries[name.strip()] = reason.strip()
    return entries


def ledger(reached: dict[str, set[Key]]) -> Iterator[tuple[str, Key, str]]:
    """(kind, key, qualname) for every ``src/`` function, in file order."""
    for key, qualname in sorted(functions().items()):
        kind = next((k for k in KINDS if key in reached[k]), "none")
        yield kind, key, qualname


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.reach", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--kind", choices=KINDS, help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.kind:
        _run_kind(args.kind, args.out)
        return 0
    reached = {kind: _reached(kind) for kind in KINDS}
    allow = allowed()
    counts = dict.fromkeys((*KINDS, "none"), 0)
    names, unreached = set(), set()
    for kind, (path, line), qualname in ledger(reached):
        name = f"{path}::{qualname}"  # a property's getter and setter share one
        names.add(name)
        counts[kind] += 1
        print(f"{kind:8s} {path}:{line} {qualname}")
        if kind == "none":
            unreached.add(name)
    print(" ".join(f"{kind}={n}" for kind, n in counts.items()), f"total={sum(counts.values())}")
    for name in sorted(allow.keys() - unreached):
        why = "reached" if name in names else "no such function"
        print(f"stale entry in {ALLOW_PATH.name} ({why}): {name}")
    unlisted = sorted(unreached - allow.keys())
    for name in unlisted:
        print(f"UNREACHED and not in {ALLOW_PATH.name}: {name}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
