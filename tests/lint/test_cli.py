"""CLI behaviour: exit codes and JSON report shape."""

import json
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
        for rule in ("DET-ORDER-SET", "DET-SEED-CLOCK", "SEAM-IMPORT", "ASYNC-TASK",
                     "SLOTS-MUT-DEFAULT", "LINT-SUPPRESS"):
            assert rule in out


class TestJsonReport:
    def test_json_shape(self, tmp_path, capsys):
        root = write_tree(tmp_path, BAD_SOURCE)
        assert main([str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"] == {"DET-ORDER-SET": 1}
        assert payload["files_checked"] == 3
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET-ORDER-SET"
        assert finding["path"].endswith("snippet.py")
        assert finding["line"] == 3
        assert "sorted" in finding["message"]

    def test_suppressed_findings_carry_reasons(self, tmp_path, capsys):
        root = write_tree(
            tmp_path,
            """
            def fan_out(targets: frozenset[str]) -> None:
                for target in targets:  # lint: allow[DET-ORDER-SET] order-insensitive
                    pass
            """,
        )
        assert main([str(root), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        (entry,) = payload["suppressed"]
        assert entry["suppressed_reason"] == "order-insensitive"


class TestStrictDictOrder:
    def test_strict_dict_order_flag(self, tmp_path, capsys):
        root = write_tree(
            tmp_path,
            """
            def walk(mapping: dict) -> None:
                for key in mapping.keys():
                    pass
            """,
        )
        assert main([str(root)]) == 0
        capsys.readouterr()
        assert main([str(root), "--strict-dict-order"]) == 1
        assert "DET-ORDER-DICT" in capsys.readouterr().out
