"""Command-line behavior: subcommands, formats, batch input, exit codes.

Exit code contract: 0 success, 1 for domain or validation failures
(including a failed verification run), 2 for malformed command lines.
The mutation tests at the bottom patch one entry of the map table at a
time and require the verify subcommand to catch every single one; the
planted-defect tests after them break one line of the phi or psi loop,
one table of a construction check or one line of a tree pass, and pin
the exact set of checks that fail.
"""
from __future__ import annotations

import inspect
import io
import json
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import asdict
from functools import cached_property
from pathlib import Path

import pytest

from peakparity import (
    DyckPath,
    MapKind,
    MotzkinPath,
    PeakParityClass,
    classify,
    cli,
    run_verification,
    verify,
)
from peakparity import bijections as bij
from peakparity import enumeration, paths, trees
from peakparity.enumeration import PathClass, generate, motzkin
from peakparity.paths import NotInImage

# every verify check's case count at the pinned sizes, shared with the benchmark
_VERIFY_CASES = json.loads(
    (Path(__file__).parents[1] / "bench" / "verify_cases.json").read_text()
)


def _expected_cases(max_n: int) -> list[tuple[str, int]]:
    """Each check's case count: the benchmark's pins, and the two domain
    checks added after them, with one case per Motzkin path of length <= max_n."""
    cases = list(_VERIFY_CASES[str(max_n)].items())
    at = [name for name, _ in cases].index("inverse-roundtrip-b") + 1
    paths = sum(motzkin(k) for k in range(max_n + 1))
    cases[at:at] = [("domain-a", paths), ("domain-b", paths)]
    return cases


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


_STATS_HEADER = "\t".join(
    ["map", "input", "output"]
    + [
        f"{side}_{key}"
        for side in ("input", "output")
        for key in (
            "peaks",
            "ground_returns",
            "ground_flats",
            "ground_downs",
            "u_count",
            "f_count",
            "uu_count",
            "fu_count",
            "peak_image",
        )
    ]
)
_STATS_PHI_B = (
    '{"map": "phi-b", "input": "UUDUDD", "output": "UFD", "input_stats": '
    '{"peaks": 2, "ground_returns": 1, "ground_flats": 0, "ground_downs": 1, '
    '"u_count": 3, "f_count": 0, "uu_count": 1, "fu_count": 0, "peak_image": 2}, '
    '"output_stats": {"peaks": 0, "ground_returns": 1, "ground_flats": 0, '
    '"ground_downs": 1, "u_count": 1, "f_count": 1, "uu_count": 0, "fu_count": 0, '
    '"peak_image": 2}}\n'
)
_STATS_PHI_A = (
    '{"map": "phi-a", "input": "UD", "output": "F", "input_stats": '
    '{"peaks": 1, "ground_returns": 1, "ground_flats": 0, "ground_downs": 1, '
    '"u_count": 1, "f_count": 0, "uu_count": 0, "fu_count": 0, "peak_image": 1}, '
    '"output_stats": {"peaks": 0, "ground_returns": 0, "ground_flats": 1, '
    '"ground_downs": 0, "u_count": 0, "f_count": 1, "uu_count": 0, "fu_count": 0, '
    '"peak_image": 1}}\n'
)
_COUNT_TSV = (
    "n\tcatalan\todd_count\tmotzkin_prev\teven_count\triordan\tmixed_count\n"
    "1\t1\t1\t1\t0\t0\t0\n"
    "2\t2\t1\t1\t1\t1\t0\n"
    "3\t5\t2\t2\t1\t1\t2\n"
)
_LINE_2_BAD_STEP = (
    "peakparity: error: line 2: invalid step character 'X' at position 1\n"
)
_LINE_2_EVEN = (
    "peakparity: error: line 2: path classifies as all-even, this map needs all-odd\n"
)

# (id, argv without --format, stdin, exit code, stderr, stdout per format)
_GOLDEN = [
    (
        "convert-stdin",
        ["convert", "--map", "phi-b", "-"],
        "UUDD\n\nUUDUDD\n",
        0,
        "",
        {
            "plain": "UD\n\nUFD\n",
            "tsv": "input\toutput\nUUDD\tUD\n\t\nUUDUDD\tUFD\n",
            "json-lines": (
                '{"map": "phi-b", "input": "UUDD", "output": "UD"}\n'
                '{"map": "phi-b", "input": "", "output": ""}\n'
                '{"map": "phi-b", "input": "UUDUDD", "output": "UFD"}\n'
            ),
        },
    ),
    (
        "convert-line-2-rejected",
        ["convert", "--map", "phi-a", "-"],
        "UUUDDD\nUXD\nUD\n",
        1,
        _LINE_2_BAD_STEP,
        {
            "plain": "FUD\n",
            "tsv": "input\toutput\nUUUDDD\tFUD\n",
            "json-lines": '{"map": "phi-a", "input": "UUUDDD", "output": "FUD"}\n',
        },
    ),
    (
        "convert-inverse-arg",
        ["convert", "--map", "psi-a", "FUD"],
        "",
        0,
        "",
        {
            "plain": "UUUDDD\n",
            "tsv": "input\toutput\nFUD\tUUUDDD\n",
            "json-lines": '{"map": "psi-a", "input": "FUD", "output": "UUUDDD"}\n',
        },
    ),
    (
        "convert-empty-token",
        ["convert", "--map", "phi-b", "@"],
        "",
        0,
        "",
        {
            "plain": "\n",
            "tsv": "input\toutput\n\t\n",
            "json-lines": '{"map": "phi-b", "input": "", "output": ""}\n',
        },
    ),
    (
        "classify-stdin",
        ["classify", "-"],
        "UD\n\nUDUUDD\n",
        0,
        "",
        {
            "plain": "all-odd\nall-even\nmixed\n",
            "tsv": "input\tclass\nUD\tall-odd\n\tall-even\nUDUUDD\tmixed\n",
            "json-lines": (
                '{"input": "UD", "class": "all-odd"}\n'
                '{"input": "", "class": "all-even"}\n'
                '{"input": "UDUUDD", "class": "mixed"}\n'
            ),
        },
    ),
    (
        "classify-motzkin-text",
        ["classify", "UFD"],
        "",
        1,
        "peakparity: error: flat step at position 1 is not allowed here\n",
        {"plain": "", "tsv": "input\tclass\n", "json-lines": ""},
    ),
    (
        "enumerate",
        ["enumerate", "--class", "dyck-all-odd", "--n", "3"],
        "",
        0,
        "",
        {
            "plain": "UUUDDD\nUDUDUD\n",
            "tsv": "path\nUUUDDD\nUDUDUD\n",
            "json-lines": '{"path": "UUUDDD"}\n{"path": "UDUDUD"}\n',
        },
    ),
    (
        "enumerate-empty-class",
        ["enumerate", "--class", "dyck-all-odd", "--n", "0"],
        "",
        0,
        "",
        {"plain": "", "tsv": "path\n", "json-lines": ""},
    ),
    (
        "count",
        ["count", "--max-n", "3"],
        "",
        0,
        "",
        {
            "plain": _COUNT_TSV,
            "tsv": _COUNT_TSV,
            "json-lines": (
                '{"n": 1, "catalan": 1, "odd_count": 1, "motzkin_prev": 1, '
                '"even_count": 0, "riordan": 0, "mixed_count": 0}\n'
                '{"n": 2, "catalan": 2, "odd_count": 1, "motzkin_prev": 1, '
                '"even_count": 1, "riordan": 1, "mixed_count": 0}\n'
                '{"n": 3, "catalan": 5, "odd_count": 2, "motzkin_prev": 2, '
                '"even_count": 1, "riordan": 1, "mixed_count": 2}\n'
            ),
        },
    ),
    (
        "stats",
        ["stats", "--map", "phi-b", "UUDUDD"],
        "",
        0,
        "",
        {
            "plain": _STATS_PHI_B,
            "tsv": _STATS_HEADER
            + "\nphi-b\tUUDUDD\tUFD\t2\t1\t0\t1\t3\t0\t1\t0\t2"
            + "\t0\t1\t0\t1\t1\t1\t0\t0\t2\n",
            "json-lines": _STATS_PHI_B,
        },
    ),
    (
        "stats-line-2-rejected",
        ["stats", "--map", "phi-a", "-"],
        "UD\nUUDD\n",
        1,
        _LINE_2_EVEN,
        {
            "plain": _STATS_PHI_A,
            "tsv": _STATS_HEADER
            + "\nphi-a\tUD\tF\t1\t1\t0\t1\t1\t0\t0\t0\t1"
            + "\t0\t0\t1\t0\t0\t1\t0\t0\t1\n",
            "json-lines": _STATS_PHI_A,
        },
    ),
]

# verify --max-n 1: each check's case count, and its detail once phi-a is padded
_VERIFY_N1 = [
    ("generator-lex-order", 4, ""),
    ("generator-count-dyck", 2, ""),
    ("generator-count-motzkin", 2, ""),
    ("generator-count-start-flat", 2, ""),
    ("generator-count-no-ground-flat", 2, ""),
    ("class-generator-consistency", 2, ""),
    ("parse-render-roundtrip", 4, ""),
    ("class-partition", 2, ""),
    ("counting-claim-odd", 2, ""),
    ("counting-claim-even", 2, ""),
    ("decompose-rebuild", 2, ""),
    ("ground-returns-vs-components", 2, ""),
    ("parity-alternation", 2, ""),
    ("glove-roundtrip", 2, ""),
    ("tree-codec-roundtrip", 4, ""),
    ("leaf-peak-transfer", 2, ""),
    ("root-edge-colors", 2, ""),
    ("coloring-counts", 2, "n=1: UD"),
    ("relocation-preservation", 2, ""),
    ("triple-agreement-odd", 1, "n=1: UD"),
    ("triple-agreement-even", 1, ""),
    ("size-preservation", 2, "n=1: UD"),
    ("image-odd", 2, "n=1: 1 distinct images, expected class of size 1"),
    ("image-even", 2, ""),
    ("roundtrip-recursive-a", 1, "n=1: UD"),
    ("roundtrip-recursive-b", 1, ""),
    ("roundtrip-pairing-a", 1, ""),
    ("roundtrip-pairing-b", 1, ""),
    ("inverse-roundtrip-a", 1, "n=1: F"),
    ("inverse-roundtrip-b", 1, ""),
    ("domain-a", 2, ""),
    ("domain-b", 2, ""),
    ("split-concat", 2, ""),
    ("stat-transfer-ground", 2, "n=1: UD"),
    ("stat-transfer-peaks", 2, "n=1: UD"),
    ("no-ud-pairs", 2, ""),
    ("no-unexpected-errors", 4, ""),
]


def _verify_golden(padded: bool) -> tuple[str, str]:
    """The plain report and the json-lines records of verify --max-n 1."""
    plain, records = [], []
    for name, cases, detail in _VERIFY_N1:
        detail = detail if padded else ""
        if detail:
            plain.append(f"FAIL {name} ({cases} cases): {detail}\n")
        else:
            plain.append(f"PASS {name} ({cases} cases)\n")
        records.append(
            f'{{"name": "{name}", "passed": {"false" if detail else "true"}, '
            f'"cases": {cases}, "detail": "{detail}"}}\n'
        )
    plain.append(
        "verify: 8 of 37 checks FAILED for n = 0..1\n"
        if padded
        else "verify: 37/37 checks passed for n = 0..1\n"
    )
    return "".join(plain), "".join(records)


class TestGolden:
    """Exact stdout, stderr and exit code of every command in every format.

    `count` prints its tsv table as plain, `stats` prints json-lines as
    plain, and `verify --format tsv` prints the plain report.
    """

    @pytest.mark.parametrize("fmt", ["plain", "tsv", "json-lines"])
    @pytest.mark.parametrize(
        "argv,stdin,code,err,outs",
        [case[1:] for case in _GOLDEN],
        ids=[case[0] for case in _GOLDEN],
    )
    def test_command(self, argv, stdin, code, err, outs, fmt, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        argv = [argv[0], "--format", fmt, *argv[1:]]
        assert run_cli(argv, capsys) == (code, outs[fmt], err)

    @pytest.mark.parametrize("fmt", ["plain", "tsv", "json-lines"])
    @pytest.mark.parametrize("padded", [False, True], ids=["pass", "fail"])
    def test_verify(self, padded, fmt, capsys, monkeypatch):
        if padded:
            table = bij._IMPLEMENTATION
            padded_phi_a = _pad_motzkin(table[MapKind.PHI_A])
            monkeypatch.setitem(table, MapKind.PHI_A, padded_phi_a)
        plain, records = _verify_golden(padded)
        out = records if fmt == "json-lines" else plain
        argv = ["verify", "--format", fmt, "--max-n", "1"]
        assert run_cli(argv, capsys) == (int(padded), out, "")


class TestConvert:
    def test_single(self, capsys):
        rc, out, err = run_cli(["convert", "--map", "phi-a", "UUUDDD"], capsys)
        assert rc == 0
        assert out == "FUD\n"
        assert err == ""

    def test_empty_path_token(self, capsys):
        rc, out, _ = run_cli(["convert", "--map", "phi-b", "@"], capsys)
        assert rc == 0
        assert out == "\n"

    def test_inverse_map(self, capsys):
        rc, out, _ = run_cli(["convert", "--map", "psi-b", "UFD"], capsys)
        assert rc == 0
        assert out == "UUDUDD\n"

    def test_stdin_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("UUUDDD\nUD\n"))
        rc, out, _ = run_cli(["convert", "--map", "phi-a", "-"], capsys)
        assert rc == 0
        assert out == "FUD\nF\n"

    def test_stdin_empty_line_is_empty_path(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\nUUDD\n"))
        rc, out, _ = run_cli(["convert", "--map", "phi-b", "-"], capsys)
        assert rc == 0
        assert out == "\nUD\n"

    def test_tsv(self, capsys):
        rc, out, _ = run_cli(
            ["convert", "--map", "tirrell-b", "--format", "tsv", "UUDUDD"], capsys
        )
        assert rc == 0
        assert out == "input\toutput\nUUDUDD\tUFD\n"

    def test_json_lines(self, capsys):
        rc, out, _ = run_cli(
            ["convert", "--map", "phi-a", "--format", "json-lines", "UD"], capsys
        )
        assert rc == 0
        assert json.loads(out) == {"map": "phi-a", "input": "UD", "output": "F"}

    def test_wrong_class_exits_1(self, capsys):
        rc, out, err = run_cli(["convert", "--map", "phi-a", "UUDD"], capsys)
        assert rc == 1
        assert out == ""
        assert "all-odd" in err

    def test_invalid_character_exits_1(self, capsys):
        rc, _, err = run_cli(["convert", "--map", "phi-a", "UXDD"], capsys)
        assert rc == 1
        assert "invalid step character" in err

    def test_below_ground_exits_1(self, capsys):
        rc, _, err = run_cli(["convert", "--map", "phi-a", "DU"], capsys)
        assert rc == 1
        assert "below ground" in err

    def test_not_in_image_exits_1(self, capsys):
        rc, _, err = run_cli(["convert", "--map", "psi-a", "UD"], capsys)
        assert rc == 1
        assert "flat" in err

    def test_flat_in_dyck_input_exits_1(self, capsys):
        rc, _, err = run_cli(["convert", "--map", "phi-a", "UFD"], capsys)
        assert rc == 1
        assert "flat step" in err

    @pytest.mark.parametrize(
        "kind,text,pairing",
        [
            ("explicit-b", "U" * 3000 + "D" * 3000, "tirrell-b"),
            ("phi-b", "U" * 3000 + "D" * 3000, "tirrell-b"),
            ("psi-b", "U" * 1500 + "D" * 1500, "tirrell-b-inv"),
        ],
        ids=["explicit-b", "phi-b", "psi-b"],
    )
    def test_explicit_map_past_recursion_limit(self, kind, text, pairing, capsys):
        # nesting 1,500 to 3,000 deep, past the interpreter's default limit
        rc, out, err = run_cli(["convert", "--map", kind, text], capsys)
        assert (rc, err) == (0, "")
        assert out.count("\n") == 1
        assert run_cli(["convert", "--map", pairing, text], capsys) == (0, out, "")


class TestClassify:
    def test_single(self, capsys):
        rc, out, _ = run_cli(["classify", "UUDUDD"], capsys)
        assert rc == 0
        assert out == "all-even\n"

    def test_empty(self, capsys):
        rc, out, _ = run_cli(["classify", "@"], capsys)
        assert rc == 0
        assert out == "all-even\n"

    def test_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("UD\nUDUUDD\n"))
        rc, out, _ = run_cli(["classify", "-"], capsys)
        assert rc == 0
        assert out == "all-odd\nmixed\n"

    def test_json(self, capsys):
        rc, out, _ = run_cli(["classify", "--format", "json-lines", "UD"], capsys)
        assert rc == 0
        assert json.loads(out) == {"input": "UD", "class": "all-odd"}

    def test_motzkin_input_rejected(self, capsys):
        rc, _, err = run_cli(["classify", "UFD"], capsys)
        assert rc == 1
        assert "flat step" in err


class TestEnumerate:
    def test_odd_class(self, capsys):
        rc, out, _ = run_cli(
            ["enumerate", "--class", "dyck-all-odd", "--n", "3"], capsys
        )
        assert rc == 0
        assert out == "UUUDDD\nUDUDUD\n"

    def test_empty_class_output(self, capsys):
        rc, out, _ = run_cli(
            ["enumerate", "--class", "dyck-all-odd", "--n", "0"], capsys
        )
        assert rc == 0
        assert out == ""

    def test_json_lines(self, capsys):
        rc, out, _ = run_cli(
            [
                "enumerate",
                "--class",
                "motzkin-start-flat",
                "--n",
                "3",
                "--format",
                "json-lines",
            ],
            capsys,
        )
        assert rc == 0
        assert [json.loads(line)["path"] for line in out.splitlines()] == [
            "FUD",
            "FFF",
        ]


class TestCount:
    def test_golden(self, capsys):
        rc, out, _ = run_cli(["count", "--max-n", "3"], capsys)
        assert rc == 0
        assert out == (
            "n\tcatalan\todd_count\tmotzkin_prev\teven_count\triordan\tmixed_count\n"
            "1\t1\t1\t1\t0\t0\t0\n"
            "2\t2\t1\t1\t1\t1\t0\n"
            "3\t5\t2\t2\t1\t1\t2\n"
        )

    def test_json_lines(self, capsys):
        rc, out, _ = run_cli(
            ["count", "--max-n", "2", "--format", "json-lines"], capsys
        )
        assert rc == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[1] == {
            "n": 2,
            "catalan": 2,
            "odd_count": 1,
            "motzkin_prev": 1,
            "even_count": 1,
            "riordan": 1,
            "mixed_count": 0,
        }


class TestStats:
    def test_record(self, capsys):
        rc, out, _ = run_cli(["stats", "--map", "phi-b", "UUDUDD"], capsys)
        assert rc == 0
        record = json.loads(out)
        assert record["map"] == "phi-b"
        assert record["input"] == "UUDUDD"
        assert record["output"] == "UFD"
        assert record["input_stats"]["peaks"] == 2
        assert record["input_stats"]["ground_returns"] == 1
        assert record["output_stats"]["ground_downs"] == 1
        assert record["output_stats"]["peak_image"] == 2

    def test_stats_keys(self, capsys):
        rc, out, _ = run_cli(["stats", "--map", "phi-b", "@"], capsys)
        assert rc == 0
        record = json.loads(out)
        for side in ("input_stats", "output_stats"):
            assert list(record[side]) == [
                "peaks",
                "ground_returns",
                "ground_flats",
                "ground_downs",
                "u_count",
                "f_count",
                "uu_count",
                "fu_count",
                "peak_image",
            ]

    def test_tsv(self, capsys):
        rc, out, _ = run_cli(
            ["stats", "--map", "phi-a", "--format", "tsv", "UD"], capsys
        )
        assert rc == 0
        header, row = out.splitlines()
        cols = header.split("\t")
        values = row.split("\t")
        assert cols[:3] == ["map", "input", "output"]
        assert values[:3] == ["phi-a", "UD", "F"]
        assert dict(zip(cols, values))["input_peaks"] == "1"
        assert dict(zip(cols, values))["output_peak_image"] == "1"


class TestInputErrors:
    """A rejected stdin line is named by its number; a lone argument is not."""

    CASES = [
        (
            ["convert", "--map", "phi-a", "-"],
            "UUUDDD\nUXD\nUD\n",
            1,
            "line 2: invalid step character 'X' at position 1",
        ),
        (
            ["classify", "-"],
            "UD\nUUDD\nDU\n",
            2,
            "line 3: path drops below ground at position 0",
        ),
        (
            ["stats", "--map", "phi-a", "-"],
            "UUUDDD\nUUDD\n",
            1,
            "line 2: path classifies as all-even, this map needs all-odd",
        ),
        (
            ["classify", "DU"],
            "",
            0,
            "path drops below ground at position 0",
        ),
    ]

    @pytest.mark.parametrize(
        "argv,stdin,done,message", CASES, ids=["convert", "classify", "stats", "arg"]
    )
    def test_error_names_the_line(self, argv, stdin, done, message, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        rc, out, err = run_cli(argv, capsys)
        assert rc == 1
        assert len(out.splitlines()) == done
        assert err == f"peakparity: error: {message}\n"


class TestGrammarErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "--map", "nope", "UD"],
            ["convert", "UD"],
            ["convert", "--map", "phi-a"],
            ["enumerate", "--class", "all-dyck", "--n", "-1"],
            ["enumerate", "--class", "bogus", "--n", "2"],
            ["enumerate", "--n", "2"],
            ["count", "--max-n", "0"],
            ["count"],
            ["verify"],
            ["stats", "--map", "phi-a", "--format", "xml", "UD"],
            [],
            ["frobnicate"],
        ],
    )
    def test_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        rc, out, _ = run_cli(["verify", "--max-n", "3"], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert sum(1 for line in lines if line.startswith("PASS ")) == 37
        assert not any(line.startswith("FAIL ") for line in lines)
        assert lines[-1] == "verify: 37/37 checks passed for n = 0..3"

    def test_json_lines(self, capsys):
        rc, out, _ = run_cli(
            ["verify", "--max-n", "2", "--format", "json-lines"], capsys
        )
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 37
        assert all(r["passed"] for r in records)

    @pytest.mark.parametrize("n", sorted(_VERIFY_CASES, key=int))
    def test_case_counts_pinned(self, n):
        results = run_verification(int(n))
        assert [(r.name, r.cases) for r in results] == _expected_cases(int(n))
        assert all(r.passed for r in results)

    def test_raising_path_check_is_a_failure(self, monkeypatch):
        # a mixed path, so no class member's checks are skipped
        stats = verify.stats

        def failing(path):
            if isinstance(path, DyckPath) and path.steps == "UDUUDD":
                raise RuntimeError("planted")
            return stats(path)

        cases = {r.name: r.cases for r in run_verification(5)}
        monkeypatch.setattr(verify, "stats", failing)
        results = run_verification(5)
        failed = [r for r in results if not r.passed]
        assert [(r.name, r.detail) for r in failed] == [
            ("no-unexpected-errors", "n=3: UDUUDD: RuntimeError('planted')")
        ]
        # the failure is one case more, and the checks after stats never ran
        cases["no-unexpected-errors"] += 1
        skipped = (
            "ground-returns-vs-components",
            "parity-alternation",
            "glove-roundtrip",
            "tree-codec-roundtrip",
            "leaf-peak-transfer",
        )
        for name in skipped:
            cases[name] -= 1
        assert [(r.name, r.cases) for r in results] == list(cases.items())


def _one_walk_in_step(max_n: int) -> dict:
    """The class-generator-consistency record of each pruned class walk run
    whole, in step with the members the full walk classifies into it."""
    cases, failures = 0, []
    for n in range(max_n + 1):
        walks = {cls: generate(side.dyck, n) for cls, side in verify._SIDES.items()}
        for p in generate(PathClass.ALL_DYCK, n):
            cls = classify(p)
            if cls in walks:
                got = next(walks[cls], None)
                cases += 1
                if got != p:
                    failures.append(f"n={n}: {_walk_name(cls)} yielded {got}, expected {p}")
        for cls, walk in walks.items():
            extra = next(walk, None)
            if extra is not None:
                cases += 1
                failures.append(f"n={n}: {_walk_name(cls)} yielded {extra}, expected None")
    return {
        "name": "class-generator-consistency",
        "passed": not failures,
        "cases": cases,
        "detail": failures[0] if failures else "",
    }


def _walk_name(cls: PeakParityClass) -> str:
    return verify._SIDES[cls].dyck.value


_UP = "if remaining - 2 >= up_top[level]:"
# a condition that holds only in one class walk, at n = 8, under one prefix
_AT_N8 = " {2} (peak_parity == {0} and total == 16 and prefix.startswith({1!r}))"
_UP_TOP = "up_top = [h + 2 * (h % 2 == peak_parity) for h in range(total + 1)]"
_PEAK = 'peak_parity is None or prefix[-1] != "U" or len(prefix) % 2 == peak_parity'


class TestVerifyWorkers:
    """Every scan runs in a forked worker, one per usable CPU; the records
    and errors must be those of a run in this process, and, where the
    sizes from 8 up are cut into chunks, those of one scan of each size."""

    @staticmethod
    def _forks(monkeypatch, cpus: int) -> list[int]:
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        forks: list[int] = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    @pytest.mark.parametrize("mutated", [False, True], ids=["as-is", "mutated"])
    @pytest.mark.parametrize("max_n", range(10))
    def test_workers_agree_with_in_process(self, max_n, mutated, monkeypatch):
        if mutated:
            table = bij._IMPLEMENTATION
            monkeypatch.setitem(table, MapKind.PHI_A, _pad_motzkin(table[MapKind.PHI_A]))
        runs = {}
        for cpus in (1, 3):
            forks = self._forks(monkeypatch, cpus)
            runs[cpus] = [asdict(r) for r in run_verification(max_n)]
            # one worker per CPU, but no more than the 2 * (max_n + 1) scans
            assert len(forks) == (min(cpus, 2 * max_n + 2) if cpus > 1 else 0)
        assert runs[3] == runs[1]
        failed = [r for r in runs[1] if not r["passed"]]
        # phi-a fails at every n >= 1; the detail is the one from n = 1
        assert bool(failed) == (mutated and max_n > 0)
        assert all(r["detail"].startswith("n=1: ") for r in failed)

    # defects of a pruned class walk; all but the first bite only at n = 8,
    # the first size cut into chunks, and between them they make a chunk's
    # walk part from its members in every way the merge tells apart
    CLASS_WALK_DEFECTS = [
        pytest.param(
            (_UP_TOP, _UP_TOP.replace("parity)", "parity) + (peak_parity == 1)")),
            id="odd-up-top-off-by-one",
        ),
        pytest.param(
            (
                _UP_TOP,
                _UP_TOP.replace("parity)", "parity) + (peak_parity == 1 and total == 16)"),
            ),
            id="odd-up-top-off-by-one-at-n8",
        ),
        pytest.param(
            (_UP, _UP[:-1] + _AT_N8.format(0, "UUUUDUDD", "and not") + ":"),
            id="even-walk-runs-out-in-a-chunk",
        ),
        pytest.param(
            (_UP, _UP[:-1] + _AT_N8.format(0, "UUDDUUD", "and not") + ":"),
            id="even-walk-runs-out-for-good",
        ),
        pytest.param(
            (_PEAK, _PEAK + _AT_N8.format(0, "UUUUDUDD", "or")),
            id="even-walk-yields-a-stray-in-a-chunk",
        ),
        pytest.param(
            (_PEAK, _PEAK + _AT_N8.format(1, "UUUUUU", "or")),
            id="odd-walk-spares-texts-for-the-next-chunk",
        ),
        pytest.param(
            (
                _UP,
                _UP[:-1] + _AT_N8.format(0, "UUUUDUDD", "and not") + ":",
                _PEAK,
                _PEAK + _AT_N8.format(0, "UUDDUUD", "or"),
            ),
            id="even-walk-short-in-one-chunk-long-in-another",
        ),
        pytest.param(
            (
                _PEAK,
                _PEAK + _AT_N8.format(1, "UDUDUD", "or") + _AT_N8.format(0, "UUUUDUDD", "or"),
            ),
            id="both-walks-stray-even-first",
        ),
        pytest.param(
            (
                "if level >= down_from[remaining] and (",
                "if (level >= down_from[remaining] or (peak_parity == 1 and total == 16"
                " and prefix == 'UD')) and (",
                _UP,
                _UP[:-1] + " or level < 0:",
            ),
            id="odd-walk-dips-below-ground",
        ),
    ]

    @pytest.mark.parametrize("edits", CLASS_WALK_DEFECTS)
    def test_class_walk_defect_as_one_walk_finds_it(self, edits, monkeypatch):
        # patched before the workers fork, so every scan runs the edited walk
        monkeypatch.setattr(enumeration, "_balanced", _edited(enumeration._balanced, *edits))
        runs = {}
        for cpus in (1, 3):
            self._forks(monkeypatch, cpus)
            runs[cpus] = [asdict(r) for r in run_verification(8)]
        assert runs[3] == runs[1]
        failed = {r["name"] for r in runs[1] if not r["passed"]}
        assert failed == {"class-generator-consistency"}
        [record] = [r for r in runs[1] if r["name"] == "class-generator-consistency"]
        assert record == _one_walk_in_step(8)

    def test_lex_order_failure_at_a_chunk_border(self, monkeypatch):
        # the first path of a chunk at n = 8 sorts before every path, so only
        # the check across the border from the chunk before it fails
        [first] = [p for p in generate(PathClass.ALL_DYCK, 8) if p.steps[:6] == "UUUDDD"][:1]
        [cases] = [r.cases for r in run_verification(8) if r.name == "generator-lex-order"]
        lex_key = verify.lex_key
        monkeypatch.setattr(verify, "lex_key", lambda p: () if p == first else lex_key(p))
        runs = {}
        for cpus in (1, 3):
            self._forks(monkeypatch, cpus)
            runs[cpus] = [asdict(r) for r in run_verification(8)]
        assert runs[3] == runs[1]
        detail = f"n=8: {first}"
        assert [r for r in runs[1] if not r["passed"]] == [
            {"name": "generator-lex-order", "passed": False, "cases": cases, "detail": detail}
        ]

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        forks = self._forks(monkeypatch, 3)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            results = run_verification(3)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []
        assert [(r.name, r.cases) for r in results] == _expected_cases(3)

    @pytest.mark.parametrize(
        "max_n,planted,raised",
        [
            # the first path of each n from 1, each in a class of its own
            pytest.param(4, ["UD", "UUDD", "UUUDDD"], "UD", id="workers"),
            pytest.param(
                4, ["UD", "UUDD", "UUUDDD", "UUUUDDDD"], "UD", id="largest-size-too"
            ),
            # in the chunks of prefix UDUUDD and UUUDDD of n = 9, and at n = 5
            pytest.param(9, ["UDUUDDUUUUUUDDDDDD"], "UDUUDDUUUUUUDDDDDD", id="later-chunk"),
            pytest.param(
                9,
                ["UDUUDDUUUUUUDDDDDD", "UUUDDDUDUDUDUDUDUD"],
                "UUUDDDUDUDUDUDUDUD",
                id="two-chunks",
            ),
            pytest.param(
                9,
                ["UDUUDDUUUUUUDDDDDD", "UUDUDDUDUD"],
                "UUDUDDUDUD",
                id="later-chunk-and-smaller-size",
            ),
        ],
    )
    def test_worker_error_is_raised_as_in_process(
        self, max_n, planted, raised, monkeypatch, capsys
    ):
        # a raising path check is a failed case, so the error is planted in
        # the walk's order check, which runs outside the path checks
        lex_key = verify.lex_key

        def failing(p):
            if isinstance(p, DyckPath) and p.steps in planted:
                raise NotInImage(f"planted at {p}")
            return lex_key(p)

        monkeypatch.setattr(verify, "lex_key", failing)
        argv = ["verify", "--max-n", str(max_n)]
        outcomes = {}
        for cpus in (1, 3):
            self._forks(monkeypatch, cpus)
            with pytest.raises(NotInImage) as exc:
                run_verification(max_n)
            outcomes[cpus] = type(exc.value), str(exc.value), run_cli(argv, capsys)
        assert outcomes[3] == outcomes[1]
        message = f"planted at {raised}"
        printed = (1, "", f"peakparity: error: {message}\n")
        assert outcomes[1] == (NotInImage, message, printed)


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "peakparity", "convert", "--map", "tirrell-b", "UUDUDD"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout == "UFD\n"


def test_closed_pipe_exits_quietly():
    # the reader stops after one of 208,012 lines, like `| head -1`
    argv = ["enumerate", "--class", "all-dyck", "--n", "12"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "peakparity", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == "U" * 12 + "D" * 12 + "\n"
    assert "Traceback" not in err


def _pad_motzkin(fn):
    def bad(p):
        real = fn(p)
        return MotzkinPath(real.steps + "FF")

    return bad


def _prepend_flat(fn):
    def bad(p):
        real = fn(p)
        return MotzkinPath("F" + real.steps)

    return bad


def _reverse_motzkin(fn):
    def bad(p):
        real = fn(p)
        return MotzkinPath(real.steps[::-1])

    return bad


def _wrap_dyck(fn):
    def bad(path):
        real = fn(path)
        return DyckPath("U" + real.steps + "D")

    return bad


class TestMutationSmoke:
    """Patching any single entry of the map table must make `verify` exit 1."""

    MUTATIONS = [
        (MapKind.PHI_A, _pad_motzkin),
        (MapKind.PHI_B, _prepend_flat),
        (MapKind.PSI_A, _wrap_dyck),
        (MapKind.PSI_B, _wrap_dyck),
        (MapKind.EXPLICIT_A, _reverse_motzkin),
        (MapKind.EXPLICIT_B, _reverse_motzkin),
        (MapKind.TIRRELL_A, _pad_motzkin),
        (MapKind.TIRRELL_B, _pad_motzkin),
        (MapKind.TIRRELL_A_INV, _wrap_dyck),
        (MapKind.TIRRELL_B_INV, _wrap_dyck),
    ]

    def test_every_kind_mutated(self):
        assert {kind for kind, _ in self.MUTATIONS} == set(MapKind)

    @pytest.mark.parametrize(
        "kind,wrapper",
        MUTATIONS,
        ids=[kind.value.replace("-", "_") for kind, _ in MUTATIONS],
    )
    def test_mutation_caught(self, kind, wrapper, monkeypatch, capsys):
        table = bij._IMPLEMENTATION
        monkeypatch.setitem(table, kind, wrapper(table[kind]))
        rc = cli.main(["verify", "--max-n", "4"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_skipped_relocation_caught(self, monkeypatch, capsys):
        monkeypatch.setattr(bij, "relocate_reds", lambda t, c: (t, c))
        rc = cli.main(["verify", "--max-n", "4"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL triple-agreement" in out


def _edited(fn, line: str, replacement: str, *more: str):
    """A function or method with one line of its source replaced, and one
    more for each further pair of lines in more, compiled in its own
    module; a method's decorators are applied again."""
    source = textwrap.dedent(inspect.getsource(fn))
    edits = [line, replacement, *more]
    for line, replacement in zip(edits[::2], edits[1::2]):
        assert source.count(line) == 1
        source = source.replace(line, replacement)
    namespace: dict = {}
    exec(source, vars(inspect.getmodule(fn)), namespace)
    return namespace[fn.__name__]


class TestPlantedLoopDefects:
    """One line of the phi or psi loop broken, and the checks verify then fails."""

    ROWS = [
        pytest.param(
            "_phi",
            'elif prev != "U":',
            "else:",
            {
                "coloring-counts",
                "image-even",
                "image-odd",
                "inverse-roundtrip-a",
                "inverse-roundtrip-b",
                "roundtrip-recursive-a",
                "roundtrip-recursive-b",
                "size-preservation",
                "stat-transfer-peaks",
                "triple-agreement-even",
                "triple-agreement-odd",
            },
            id="phi-flat-after-up",
        ),
        pytest.param(
            "_psi",
            'emit("DU" if opened else "U")',
            'emit("DU")',
            {"domain-a", "image-odd", "no-unexpected-errors"},
            id="psi-a-first-segment-du",
        ),
        pytest.param(
            "_psi",
            'raise NotInImage(f"flat step at ground level at position {len(out)}")',
            'emit("DU")',
            {"domain-b"},
            id="psi-b-ground-flat-accepted",
        ),
    ]

    @pytest.mark.parametrize("name,line,replacement,failed", ROWS)
    def test_failed_checks(self, name, line, replacement, failed, monkeypatch):
        # patched before the workers fork, so every size runs the edited loop
        monkeypatch.setattr(bij, name, _edited(getattr(bij, name), line, replacement))
        results = run_verification(6)
        assert {r.name for r in results if not r.passed} == failed

    def test_rejection_messages_must_agree(self, monkeypatch):
        # the pair inverse still rejects every ground flat, in its own words
        edited = _edited(bij.tirrell_b_inv, "at position", "at index")
        monkeypatch.setitem(bij._IMPLEMENTATION, MapKind.TIRRELL_B_INV, edited)
        results = run_verification(6)
        assert {r.name for r in results if not r.passed} == {"domain-b"}


class TestPlantedCheckDefects:
    """One table of the construction checks built wrong, and the checks
    verify then fails.  verify's paths are all short, so only the table of
    the short-text letter check reaches them."""

    ROWS = [
        pytest.param(
            "_DELETE_STEPS",
            str.maketrans("", "", "UD"),
            {"image-even", "image-odd", "no-unexpected-errors"},
            id="short-deletion-without-flat",
        ),
    ]

    @pytest.mark.parametrize("name,table,failed", ROWS)
    def test_failed_checks(self, name, table, failed, monkeypatch):
        # every flat is then a bad letter that the regex cannot name
        monkeypatch.setattr(paths, name, table)
        results = run_verification(6)
        assert {r.name for r in results if not r.passed} == failed


class TestPlantedTreeDefects:
    """One line of a tree pass broken, and the checks verify then fails.

    The rows for the two codec passes fail ``tree-codec-roundtrip``, so
    that check compares the array the text gives with the text the array
    gives, not the text with itself.
    """

    ROWS = [
        pytest.param(
            trees.OrderedTree,
            "parent",
            "parent.append(last[depth])",
            "parent.append(last[depth - 1])",
            {"tree-codec-roundtrip", "leaf-peak-transfer", "root-edge-colors"},
            id="parent-array-one-level-up",
        ),
        pytest.param(
            trees.OrderedTree,
            "__init__",
            'closes.append(")" * (before - len(path)))',
            'closes.append(")" * (before - len(path) - 1))',
            {"tree-codec-roundtrip"},
            id="constructor-one-close-short",
        ),
        pytest.param(
            trees,
            "relocate_reds",
            "stack[-1] += 2",
            'emit("R)")',
            {"triple-agreement-even", "triple-agreement-odd"},
            id="relocation-red-leaf-left-in-place",
        ),
        pytest.param(
            trees,
            "_pure_letters",
            "table = _LETTER_UNDER_ODD_LEAVES if odd else _LETTER_UNDER_EVEN_LEAVES",
            "table = _LETTER_UNDER_EVEN_LEAVES if odd else _LETTER_UNDER_ODD_LEAVES",
            {"image-even", "image-odd", "no-unexpected-errors"},
            id="coloring-leaf-parity-swapped",
        ),
    ]

    @pytest.mark.parametrize("owner,name,line,replacement,failed", ROWS)
    def test_failed_checks(self, owner, name, line, replacement, failed, monkeypatch):
        original = vars(owner)[name]
        edited = _edited(getattr(original, "func", original), line, replacement)
        if isinstance(edited, cached_property):
            edited.__set_name__(owner, name)
        # verify and bijections bind the tree stages at import, so the edit
        # goes wherever the original is bound, before the workers fork
        for holder in (trees.OrderedTree, trees, verify, bij):
            if vars(holder).get(name) is original:
                monkeypatch.setattr(holder, name, edited)
        results = run_verification(6)
        assert {r.name for r in results if not r.passed} == failed
