"""The package's public surface: the names it exports and README's examples.

``peakparity.__all__`` holds what README documents and what the benchmark
reaches through the package; everything else is imported from its module.
README's ``python`` blocks are run line by line, and a line that ends in a
comment must print as that comment says.
"""
from __future__ import annotations

import re
from pathlib import Path

import pytest

import peakparity

ROOT = Path(__file__).parents[1]

PUBLIC = [
    "DyckPath",
    "MapKind",
    "MotzkinPath",
    "OrderedTree",
    "PathClass",
    "PeakParityClass",
    "PeakParityError",
    "classify",
    "color_edges",
    "count_table",
    "explicit_a",
    "explicit_b",
    "generate",
    "glove_to_dyck",
    "glove_to_tree",
    "phi_a",
    "phi_b",
    "psi_a",
    "psi_b",
    "relocate_reds",
    "run_verification",
    "stats",
    "tirrell_a",
    "tirrell_a_inv",
    "tirrell_b",
    "tirrell_b_inv",
    "walk_to_motzkin",
]

# `expr  # comment` or `name = expr  # comment`
_CHECKED_LINE = re.compile(r"(?:(?P<name>\w+) = )?(?P<expr>.+?)\s{2,}# (?P<comment>.+)")


def test_all_is_the_public_names():
    assert sorted(peakparity.__all__) == PUBLIC


def test_star_import_binds_the_public_names():
    assert all(hasattr(peakparity, name) for name in PUBLIC)
    namespace: dict = {}
    exec("from peakparity import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_benchmark_names_resolve():
    # bench/run.py imports the CLI module next to the package, as done here
    import peakparity.cli  # noqa: F401

    for script in ("run.py", "test_bench.py"):
        text = (ROOT / "bench" / script).read_text()
        names = set(re.findall(r"\bpp\.(\w+)", text))
        assert names
        assert [name for name in sorted(names) if not hasattr(peakparity, name)] == []


_BLOCKS = re.findall(
    r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL
)


def test_readme_has_library_examples():
    assert len(_BLOCKS) == 2


@pytest.mark.parametrize(
    "block", _BLOCKS, ids=[f"block-{i}" for i in range(1, len(_BLOCKS) + 1)]
)
def test_readme_example_runs(block):
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        match = _CHECKED_LINE.fullmatch(line)
        if not match:
            exec(line, namespace)
            continue
        value = eval(match["expr"], namespace)
        if match["name"]:
            namespace[match["name"]] = value
        comment = match["comment"]
        assert any(
            comment == shown or comment.startswith(shown + ", ")
            for shown in (repr(value), str(value))
        ), line
        checked += 1
    assert checked
