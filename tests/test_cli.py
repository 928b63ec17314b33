"""Command-line behavior: subcommands, formats, batch input, exit codes.

Exit code contract: 0 success, 1 for domain or validation failures
(including a failed verification run), 2 for malformed command lines.
The mutation tests at the bottom patch one map at a time and require the
verify subcommand to catch every single one.
"""
from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from peakparity import DyckPath, MotzkinPath, cli, run_verification
from peakparity import bijections as bij

# every verify check's case count at the pinned sizes, shared with the benchmark
_VERIFY_CASES = json.loads(
    (Path(__file__).parents[1] / "bench" / "verify_cases.json").read_text()
)


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
        assert sum(1 for line in lines if line.startswith("PASS ")) == 35
        assert not any(line.startswith("FAIL ") for line in lines)
        assert lines[-1] == "verify: 35/35 checks passed for n = 0..3"

    def test_json_lines(self, capsys):
        rc, out, _ = run_cli(
            ["verify", "--max-n", "2", "--format", "json-lines"], capsys
        )
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 35
        assert all(r["passed"] for r in records)

    @pytest.mark.parametrize("n", sorted(_VERIFY_CASES, key=int))
    def test_case_counts_pinned(self, n):
        results = run_verification(int(n))
        assert [(r.name, r.cases) for r in results] == list(_VERIFY_CASES[n].items())
        assert all(r.passed for r in results)


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "peakparity", "convert", "--map", "tirrell-b", "UUDUDD"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout == "UFD\n"


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
    """Patching any single map must make `verify` exit 1."""

    MUTATIONS = [
        ("phi_a", _pad_motzkin),
        ("phi_b", _prepend_flat),
        ("explicit_map", _reverse_motzkin),
        ("tirrell_a", _pad_motzkin),
        ("tirrell_b", _pad_motzkin),
        ("psi_a", _wrap_dyck),
        ("psi_b", _wrap_dyck),
        ("tirrell_a_inv", _wrap_dyck),
        ("tirrell_b_inv", _wrap_dyck),
    ]

    @pytest.mark.parametrize("attr,wrapper", MUTATIONS, ids=[a for a, _ in MUTATIONS])
    def test_mutation_caught(self, attr, wrapper, monkeypatch, capsys):
        monkeypatch.setattr(bij, attr, wrapper(getattr(bij, attr)))
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
