"""CLI behaviour: exit codes and the rule catalog."""

import textwrap

from repro.lint.cli import main

BAD_SOURCE = """
def fan_out(targets: frozenset[str]) -> None:
    for target in targets:
        pass
"""

CLEAN_SOURCE = """
def fan_out(targets: frozenset[str]) -> None:
    for target in sorted(targets, key=repr):
        pass
"""


def write_tree(tmp_path, source):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "snippet.py").write_text(textwrap.dedent(source))
    return tmp_path / "repro"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = write_tree(tmp_path, CLEAN_SOURCE)
        assert main([str(root)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_new_finding_exits_one(self, tmp_path, capsys):
        root = write_tree(tmp_path, BAD_SOURCE)
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "DET-ORDER-SET" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nowhere")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("DET-ORDER-SET", "DET-SEED-GLOBAL", "DET-SEED-RANDOM", "DET-SEED-CLOCK",
                     "SEAM-IMPORT", "LINT-SUPPRESS", "LINT-PARSE"):
            assert rule in out

