"""Golden tests for the whole-program layer: module summaries, symbol
linking, call edges, the effect fixpoint, and reachability chains."""

from __future__ import annotations

import ast
import textwrap

from repro.lint import effects as fx
from repro.lint.callgraph import (
    ModuleSummary,
    Program,
    build_summary,
    module_name_for,
)


def summarize(path: str, source: str) -> ModuleSummary:
    source = textwrap.dedent(source)
    return build_summary(ast.parse(source), path, source.splitlines())


def build_program(files: dict[str, str]) -> Program:
    return Program(summarize(path, src) for path, src in files.items())


# -- module naming ----------------------------------------------------


def test_module_name_strips_source_roots():
    assert module_name_for("src/repro/sim/core.py") == "repro.sim.core"
    assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"
    assert module_name_for("tests/lint/fixtures/pkg/mod.py") == "pkg.mod"
    assert module_name_for("examples/demo.py") == "examples.demo"


# -- summaries (golden) -----------------------------------------------

HELPER = """\
    import time


    def stamp():
        return time.time()


    def plain(x):
        return x + 1
"""


def test_summary_golden_functions_and_effects():
    summary = summarize("src/pkg/util.py", HELPER)
    assert summary.module == "pkg.util"
    assert [f.qual for f in summary.functions] == [
        "pkg.util.<module>",
        "pkg.util.stamp",
        "pkg.util.plain",
    ]
    stamp = summary.functions[1]
    assert [(s.effect, s.snippet) for s in stamp.effect_sites] == [
        (fx.WALL_CLOCK, "return time.time()")
    ]
    assert summary.functions[2].effect_sites == []
    assert summary.imports["time"] == "time"


def test_module_level_code_lands_in_module_pseudo_function():
    summary = summarize("src/pkg/m.py", "import random\nSEED = random.random()\n")
    module_fn = summary.functions[0]
    assert module_fn.name == "<module>"
    assert [s.effect for s in module_fn.effect_sites] == [fx.GLOBAL_RNG]


def test_closures_fold_into_parent():
    summary = summarize(
        "src/pkg/m.py",
        """\
        import time


        def outer():
            def inner():
                return time.time()
            return inner
        """,
    )
    assert [f.qual for f in summary.functions] == ["pkg.m.<module>", "pkg.m.outer"]
    assert [s.effect for s in summary.functions[1].effect_sites] == [fx.WALL_CLOCK]


# -- linking (golden edges) -------------------------------------------


def test_program_links_cross_module_calls():
    program = build_program(
        {
            "src/pkg/__init__.py": "",
            "src/pkg/util.py": HELPER,
            "src/pkg/app.py": """\
                from pkg.util import stamp

                from pkg import util


                def direct():
                    return stamp()


                def dotted():
                    return util.plain(1)
                """,
        }
    )
    assert program.edges["pkg.app.direct"] == ["pkg.util.stamp"]
    assert program.edges["pkg.app.dotted"] == ["pkg.util.plain"]
    assert program.effects["pkg.app.direct"] == {fx.WALL_CLOCK}
    assert program.effects["pkg.app.dotted"] == frozenset()


def test_program_links_self_methods_and_inherited_methods():
    program = build_program(
        {
            "src/pkg/base.py": """\
                import time


                class Base:
                    def leaf(self):
                        return time.time()
                """,
            "src/pkg/child.py": """\
                from pkg.base import Base


                class Child(Base):
                    def caller(self):
                        return self.leaf()
                """,
        }
    )
    assert program.edges["pkg.child.Child.caller"] == ["pkg.base.Base.leaf"]
    assert program.effects["pkg.child.Child.caller"] == {fx.WALL_CLOCK}


def test_program_links_constructors_to_init():
    program = build_program(
        {
            "src/pkg/thing.py": """\
                import random


                class Thing:
                    def __init__(self):
                        self.v = random.random()
                """,
            "src/pkg/maker.py": """\
                from pkg.thing import Thing


                def make():
                    return Thing()
                """,
        }
    )
    assert program.edges["pkg.maker.make"] == ["pkg.thing.Thing.__init__"]
    assert program.effects["pkg.maker.make"] == {fx.GLOBAL_RNG}


def test_unresolvable_calls_produce_no_edges():
    program = build_program(
        {
            "src/pkg/m.py": """\
                def f(x):
                    return x.anything() + undefined_name()
                """
        }
    )
    assert program.edges["pkg.m.f"] == []


# -- reachability ------------------------------------------------------


def test_reachable_chains_shortest_and_deterministic():
    files = {
        "src/pkg/a.py": """\
            from pkg.b import mid

            from pkg.c import leaf


            def root():
                mid()
                leaf()
            """,
        "src/pkg/b.py": """\
            from pkg.c import leaf


            def mid():
                leaf()
            """,
        "src/pkg/c.py": """\
            def leaf():
                pass
            """,
    }
    chains = build_program(files).reachable_chains(["pkg.a.root"])
    # leaf is reachable two ways; BFS keeps the direct (shortest) chain
    assert chains["pkg.c.leaf"] == ["pkg.a.root", "pkg.c.leaf"]
    assert chains["pkg.b.mid"] == ["pkg.a.root", "pkg.b.mid"]
    again = build_program(files).reachable_chains(["pkg.a.root"])
    assert again == chains


# -- saga-step digestion ----------------------------------------------


def test_saga_steps_after_pivot_are_marked():
    summary = summarize(
        "src/pkg/ops.py",
        """\
        def build(log):
            return log.begin("op", "c", [
                SagaStep("alloc", do_a, undo=undo_a),
                SagaStep("commit", do_b, pivot=True),
                SagaStep("announce", do_c),
            ])
        """,
    )
    by_name = {s.step_name: s for s in summary.saga_steps}
    assert by_name["alloc"].has_undo and not by_name["alloc"].after_pivot
    assert by_name["commit"].pivot and not by_name["commit"].after_pivot
    assert by_name["announce"].after_pivot and not by_name["announce"].has_undo


def test_saga_step_forward_only_and_none_undo():
    summary = summarize(
        "src/pkg/ops.py",
        """\
        def build():
            return [
                SagaStep("teardown", do_a, forward_only=True),
                SagaStep("shaky", do_b, undo=None),
            ]
        """,
    )
    by_name = {s.step_name: s for s in summary.saga_steps}
    assert by_name["teardown"].forward_only
    assert not by_name["shaky"].has_undo  # undo=None is not a compensator
