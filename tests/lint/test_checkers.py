"""Fixture-driven tests: one bad and one good snippet per lint rule."""

import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.lint import DEFAULT_CONFIG, lint_file
from repro.lint.runner import lint_paths, module_name


def write_module(tmp_path, module, source):
    """Materialise ``source`` as ``module`` inside a package tree."""
    parts = module.split(".")
    pkg = tmp_path
    for part in parts[:-1]:
        pkg = pkg / part
        pkg.mkdir(exist_ok=True)
        init = pkg / "__init__.py"
        if not init.exists():
            init.write_text("")
    file = pkg / f"{parts[-1]}.py"
    file.write_text(textwrap.dedent(source))
    return file


def lint_snippet(tmp_path, source, *, module="repro.core.snippet", config=DEFAULT_CONFIG):
    file = write_module(tmp_path, module, source)
    assert module_name(file) == module
    return lint_file(file, config)


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestDetOrder:
    def test_flags_iteration_over_set_typed_parameter(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            def fan_out(targets: frozenset[str]) -> list[str]:
                out = []
                for target in targets:
                    out.append(target)
                return out
            """,
        )
        assert rules_of(active) == ["DET-ORDER-SET"]

    def test_flags_set_literals_comprehensions_and_set_ops(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            def walk(a, b):
                for x in {1, 2, 3}:
                    pass
                for y in set(a):
                    pass
                for z in set(a).union(b):
                    pass
                return [w for w in frozenset(b)]
            """,
        )
        assert rules_of(active) == ["DET-ORDER-SET"] * 4

    def test_sorted_and_rebound_names_are_clean(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            def fan_out(targets: frozenset[str]) -> None:
                for target in sorted(targets, key=repr):
                    pass
                targets = sorted(targets)
                for target in targets:
                    pass
            """,
        )
        assert active == []

    def test_self_attribute_assigned_as_set_is_flagged(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            class Tracker:
                def __init__(self):
                    self.pending = set()

                def drain(self):
                    for item in self.pending:
                        pass
            """,
        )
        assert rules_of(active) == ["DET-ORDER-SET"]

    def test_does_not_apply_outside_trajectory_packages(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            def fan_out(targets: frozenset[str]) -> None:
                for target in targets:
                    pass
            """,
            module="repro.lint.snippet",
        )
        assert active == []

    @pytest.mark.parametrize(
        "expression",
        [
            "[t for t in targets]",
            "{t for t in targets}",
            "{t: 0 for t in targets}",
            "all(t for t in targets)",
        ],
        ids=["list", "set", "dict", "generator"],
    )
    def test_flags_every_comprehension_kind(self, tmp_path, expression):
        active, _ = lint_snippet(
            tmp_path,
            f"""
            def fan_out(targets: frozenset[str]):
                return {expression}
            """,
        )
        assert rules_of(active) == ["DET-ORDER-SET"]

    def test_dict_iteration_is_clean(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            def walk(mapping):
                for key in mapping.keys():
                    pass
                return {key: value for key, value in mapping.items()}
            """,
        )
        assert active == []


class TestDetSeed:
    def test_flags_module_level_random_calls_and_imports(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            import random
            from random import choice

            def pick(options):
                return random.shuffle(options)
            """,
        )
        assert rules_of(active) == ["DET-SEED-GLOBAL", "DET-SEED-GLOBAL"]

    def test_flags_unseeded_and_unsanctioned_random_instances(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            import random

            def build(run_index):
                a = random.Random()
                b = random.Random(run_index)
                return a, b
            """,
        )
        assert rules_of(active) == ["DET-SEED-RANDOM", "DET-SEED-RANDOM"]

    def test_seeded_instances_are_clean(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            import random

            def build(seed, cell):
                a = random.Random(seed)
                b = random.Random(derive_seed(cell, "network"))
                return a, b
            """,
        )
        assert active == []

    def test_flags_clock_reads_in_scope_only(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.time()
        """
        active, _ = lint_snippet(tmp_path, source)
        assert rules_of(active) == ["DET-SEED-CLOCK"]
        active, _ = lint_snippet(tmp_path, source, module="repro.lint.snippet")
        assert active == []

    def test_experiments_scope_gets_clock_but_not_seed_rules(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            import random
            import time

            def jitter():
                return random.random() + time.monotonic()
            """,
            module="repro.experiments.snippet",
        )
        assert rules_of(active) == ["DET-SEED-CLOCK"]


class TestSeam:
    @pytest.mark.parametrize(
        "module,statement,forbidden",
        [
            ("repro.core.snippet", "from repro.sim.engine import Simulator", "repro.sim.engine"),
            (
                "repro.runtime.asyncio_runtime",
                "from repro.experiments.backends.transport import pack_frame",
                "repro.experiments",
            ),
        ],
        ids=["core-to-engine", "runtime-to-experiments"],
    )
    def test_flags_forbidden_import_edge(self, tmp_path, module, statement, forbidden):
        active, _ = lint_snippet(tmp_path, statement + "\n", module=module)
        assert rules_of(active) == ["SEAM-IMPORT"]
        assert forbidden in active[0].message

    def test_relative_imports_are_resolved(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            from ..sim import engine
            """,
        )
        assert rules_of(active) == ["SEAM-IMPORT"]

    def test_type_checking_imports_are_exempt(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.sim.engine import Simulator
            """,
        )
        assert active == []

    def test_declared_adapter_modules_are_exempt(self, tmp_path):
        # The default map no longer carries adapter exceptions (only
        # repro.runtime + repro.sim touch sim machinery), so the exemption
        # mechanism is exercised through a config that declares one.
        excepted = replace(
            DEFAULT_CONFIG,
            seam_rules=tuple(
                replace(rule, exceptions=("repro.analysis.harness",))
                if rule.scope == "repro.analysis"
                else rule
                for rule in DEFAULT_CONFIG.seam_rules
            ),
        )
        active, _ = lint_snippet(
            tmp_path,
            """
            from repro.sim.engine import Simulator
            from repro.sim.network import Network
            """,
            module="repro.analysis.harness",
            config=excepted,
        )
        assert active == []

    def test_harness_imports_are_no_longer_exempt(self, tmp_path):
        # PR 9 retired the repro.analysis.harness adapter exception: the
        # default layering map flags sim-machinery imports there too.
        active, _ = lint_snippet(
            tmp_path,
            """
            from repro.sim.engine import Simulator
            from repro.sim.network import Network
            """,
            module="repro.analysis.harness",
        )
        assert rules_of(active) == ["SEAM-IMPORT", "SEAM-IMPORT"]

    def test_one_finding_per_import_statement(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            from repro.sim.network import Network, NetworkRule, WITHHOLD
            """,
        )
        assert rules_of(active) == ["SEAM-IMPORT"]


class TestSeamPrivate:
    @pytest.mark.parametrize(
        "module",
        ["repro.runtime.snippet", "repro.lint.snippet"],  # no layering rule forbids repro.analysis here
    )
    def test_flags_private_name_from_another_package(self, tmp_path, module):
        active, _ = lint_snippet(
            tmp_path,
            """
            from repro.analysis.harness import RunConfig, _drive
            """,
            module=module,
        )
        assert rules_of(active) == ["SEAM-PRIVATE"]
        assert "_drive" in active[0].message and "repro.analysis" in active[0].message

    def test_private_names_inside_one_package_and_dunders_are_clean(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            from repro.core.discovery import _helper
            from repro.sim import __doc__
            from os import _exit
            """,
        )
        assert active == []

    def test_relative_and_type_checking_imports_are_checked(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            from typing import TYPE_CHECKING

            from ..pbft.replica import _prepare_payload

            if TYPE_CHECKING:
                from repro.sim.network import _Hidden
            """,
            module="repro.adversary.snippet",
        )
        assert rules_of(active) == ["SEAM-PRIVATE", "SEAM-PRIVATE"]


class TestSuppressions:
    def test_allow_comment_suppresses_with_reason(self, tmp_path):
        active, suppressed = lint_snippet(
            tmp_path,
            """
            def fan_out(targets: frozenset[str]) -> None:
                for target in targets:  # lint: allow[DET-ORDER-SET] order-insensitive fan-out
                    pass
            """,
        )
        assert active == []
        assert [s.finding.rule for s in suppressed] == ["DET-ORDER-SET"]
        assert suppressed[0].reason == "order-insensitive fan-out"

    def test_prefix_matching_covers_subrules(self, tmp_path):
        active, suppressed = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # lint: allow[DET-SEED] operational timing
            """,
        )
        assert active == []
        assert [s.finding.rule for s in suppressed] == ["DET-SEED-CLOCK"]

    def test_allow_file_covers_whole_file(self, tmp_path):
        active, suppressed = lint_snippet(
            tmp_path,
            """
            import time  # lint: allow-file[DET-SEED-CLOCK] operational timing everywhere

            def one():
                return time.time()

            def two():
                return time.monotonic()
            """,
        )
        assert active == []
        assert len(suppressed) == 2

    def test_suppression_without_reason_is_a_finding(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            def fan_out(targets: frozenset[str]) -> None:
                for target in targets:  # lint: allow[DET-ORDER-SET]
                    pass
            """,
        )
        assert sorted(rules_of(active)) == ["DET-ORDER-SET", "LINT-SUPPRESS"]

    def test_unrelated_rule_does_not_suppress(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            def fan_out(targets: frozenset[str]) -> None:
                for target in targets:  # lint: allow[SEAM-IMPORT] wrong rule
                    pass
            """,
        )
        assert rules_of(active) == ["DET-ORDER-SET"]

    def test_multiline_statement_suppressed_from_any_line(self, tmp_path):
        active, suppressed = lint_snippet(
            tmp_path,
            """
            from repro.sim.network import (
                Network,
            )  # lint: allow[SEAM-IMPORT] adapter under construction
            """,
        )
        assert active == []
        assert [s.finding.rule for s in suppressed] == ["SEAM-IMPORT"]


class TestParseErrors:
    def test_syntax_error_becomes_finding(self, tmp_path):
        active, _ = lint_snippet(
            tmp_path,
            """
            def broken(:
            """,
        )
        assert rules_of(active) == ["LINT-PARSE"]


@pytest.mark.parametrize(
    "path_parts,expected",
    [
        (("repro", "core", "node.py"), "repro.core.node"),
        (("repro", "sim", "__init__.py"), "repro.sim"),
        (("loose.py",), "loose"),
    ],
)
def test_module_name_resolution(tmp_path, path_parts, expected):
    file = tmp_path.joinpath(*path_parts)
    file.parent.mkdir(parents=True, exist_ok=True)
    current = file.parent
    while current != tmp_path:
        (current / "__init__.py").touch()
        current = current.parent
    file.write_text("")
    assert module_name(file) == expected


def test_source_tree_has_no_findings():
    """The gate itself: every finding in ``src/repro`` is fixed or justified."""
    report = lint_paths([Path(repro.__file__).parent])
    assert report.findings == [], report.render_text()
    assert report.files_checked > 0
