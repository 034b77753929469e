"""CLI exit codes and output for ``python -m repro.lint``."""

from __future__ import annotations

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main


def _tree(tmp_path, source):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "mod.py").write_text(source)
    return tmp_path


def test_clean_tree_exits_zero(tmp_path, capsys):
    _tree(tmp_path, "def f(sim):\n    return sim.now\n")
    code = main(["src", "--root", str(tmp_path)])
    assert code == EXIT_CLEAN
    assert "0 new finding(s)" in capsys.readouterr().out


def test_violation_exits_nonzero_with_location(tmp_path, capsys):
    _tree(tmp_path, "import random\n")
    code = main(["src", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "src/repro/mod.py:1:1: global-random" in out


def test_select_unknown_rule_is_usage_error(tmp_path, capsys):
    _tree(tmp_path, "x = 1\n")
    assert main(["src", "--root", str(tmp_path), "--select", "no-such"]) == EXIT_USAGE


def test_select_restricts_rules(tmp_path):
    _tree(tmp_path, "import random\nx = hash('k')\n")
    code = main(["src", "--root", str(tmp_path), "--select", "global-random"])
    assert code == EXIT_FINDINGS


def test_no_paths_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_list_rules(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule_id in ("wall-clock", "unkernelled-process", "obs-passive"):
        assert rule_id in out


def test_syntax_error_fails(tmp_path, capsys):
    _tree(tmp_path, "def broken(:\n")
    code = main(["src", "--root", str(tmp_path)])
    assert code == EXIT_FINDINGS
    assert "syntax error" in capsys.readouterr().out
