"""Generators, counters and the counting table.

The counter sequences are frozen from independent recurrence evaluation
and the generators must reproduce them by brute force; count_table then
has to agree with both on every row.
"""
from __future__ import annotations

from dataclasses import fields
from itertools import product

import pytest

from conftest import d, m
from peakparity import (
    ClaimViolation,
    DyckPath,
    MotzkinPath,
    PathClass,
    PeakParityClass,
    PeakParityError,
    catalan,
    classify,
    count_table,
    generate,
    lex_key,
    motzkin,
    riordan,
    stats,
)
from peakparity import enumeration

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511]
RIORDAN = [1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603, 1585, 4213]


class TestCounters:
    def test_catalan_sequence(self):
        assert [catalan(n) for n in range(13)] == CATALAN

    def test_motzkin_sequence(self):
        assert [motzkin(n) for n in range(13)] == MOTZKIN

    def test_riordan_sequence(self):
        assert [riordan(n) for n in range(13)] == RIORDAN

    def test_riordan_recurrence(self):
        for n in range(1, 16):
            assert riordan(n) == motzkin(n - 1) - riordan(n - 1)

    def test_motzkin_convolution(self):
        for n in range(2, 16):
            conv = sum(motzkin(k) * motzkin(n - 2 - k) for k in range(n - 1))
            assert motzkin(n) == motzkin(n - 1) + conv

    def test_larger_values(self):
        assert catalan(20) == 6564120420
        assert motzkin(15) == 310572

    @pytest.mark.parametrize("fn", [catalan, motzkin, riordan])
    def test_negative_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(-1)


def _every_path(path_type, alphabet: str, length: int) -> list:
    """Brute force: every valid text over the alphabet, in the order U < F < D."""
    found = []
    for letters in product(alphabet, repeat=length):
        if letters.count("U") == letters.count("D"):
            try:
                found.append(path_type("".join(letters)))
            except PeakParityError:
                pass
    return found


def _kept(source: PathClass, n: int, keep) -> list:
    return [p for p in generate(source, n) if keep(p)]


# for each class the walk builds, the paths it must yield at size n
_ORACLES = {
    PathClass.ALL_DYCK: lambda n: _every_path(DyckPath, "UD", 2 * n),
    PathClass.DYCK_ALL_ODD: lambda n: _kept(
        PathClass.ALL_DYCK, n, lambda p: classify(p) is PeakParityClass.ALL_ODD
    ),
    PathClass.DYCK_ALL_EVEN: lambda n: _kept(
        PathClass.ALL_DYCK, n, lambda p: classify(p) is PeakParityClass.ALL_EVEN
    ),
    PathClass.ALL_MOTZKIN: lambda n: _every_path(MotzkinPath, "UFD", n),
    PathClass.MOTZKIN_START_FLAT: lambda n: _kept(
        PathClass.ALL_MOTZKIN, n, lambda p: p.steps[:1] == "F"
    ),
    PathClass.MOTZKIN_NO_GROUND_FLAT: lambda n: _kept(
        PathClass.ALL_MOTZKIN, n, lambda p: stats(p).ground_flats == 0
    ),
}


class TestGenerate:
    @pytest.mark.parametrize("path_class", list(_ORACLES), ids=lambda c: c.value)
    def test_walk_matches_oracle(self, path_class):
        for n in range(10):
            assert list(generate(path_class, n)) == _ORACLES[path_class](n), n

    def test_all_dyck_order(self):
        got = [p.render() for p in generate(PathClass.ALL_DYCK, 3)]
        assert got == ["UUUDDD", "UUDUDD", "UUDDUD", "UDUUDD", "UDUDUD"]

    def test_all_motzkin_order(self):
        got = [p.render() for p in generate(PathClass.ALL_MOTZKIN, 3)]
        assert got == ["UFD", "UDF", "FUD", "FFF"]

    def test_odd_class(self):
        got = list(generate(PathClass.DYCK_ALL_ODD, 3))
        assert got == [d("UUUDDD"), d("UDUDUD")]

    def test_even_class(self):
        assert list(generate(PathClass.DYCK_ALL_EVEN, 3)) == [d("UUDUDD")]

    def test_mixed_class(self):
        got = list(generate(PathClass.DYCK_MIXED, 3))
        assert got == [d("UUDDUD"), d("UDUUDD")]

    def test_start_flat_class(self):
        got = list(generate(PathClass.MOTZKIN_START_FLAT, 3))
        assert got == [m("FUD"), m("FFF")]

    def test_no_ground_flat_class(self):
        assert list(generate(PathClass.MOTZKIN_NO_GROUND_FLAT, 3)) == [m("UFD")]

    def test_size_zero(self):
        assert list(generate(PathClass.ALL_DYCK, 0)) == [DyckPath()]
        assert list(generate(PathClass.DYCK_ALL_EVEN, 0)) == [DyckPath()]
        assert list(generate(PathClass.DYCK_ALL_ODD, 0)) == []
        assert list(generate(PathClass.ALL_MOTZKIN, 0)) == [MotzkinPath()]
        assert list(generate(PathClass.MOTZKIN_START_FLAT, 0)) == []
        assert list(generate(PathClass.MOTZKIN_NO_GROUND_FLAT, 0)) == [MotzkinPath()]

    def test_negative_size_rejected_eagerly(self):
        with pytest.raises(ValueError):
            generate(PathClass.ALL_DYCK, -1)

    def test_counts_against_formulas(self):
        for n in range(9):
            assert sum(1 for _ in generate(PathClass.ALL_DYCK, n)) == catalan(n)
            assert sum(1 for _ in generate(PathClass.ALL_MOTZKIN, n)) == motzkin(n)
            odd = sum(1 for _ in generate(PathClass.DYCK_ALL_ODD, n))
            assert odd == (motzkin(n - 1) if n else 0)
            even = sum(1 for _ in generate(PathClass.DYCK_ALL_EVEN, n))
            assert even == riordan(n)
            no_ground = sum(
                1 for _ in generate(PathClass.MOTZKIN_NO_GROUND_FLAT, n)
            )
            assert no_ground == riordan(n)
            start_flat = sum(1 for _ in generate(PathClass.MOTZKIN_START_FLAT, n))
            assert start_flat == (motzkin(n - 1) if n else 0)

    def test_strictly_increasing_lex(self):
        for path_class in (PathClass.ALL_DYCK, PathClass.ALL_MOTZKIN):
            for n in range(7):
                keys = [lex_key(p) for p in generate(path_class, n)]
                assert keys == sorted(keys)
                assert len(set(keys)) == len(keys)

    def test_lex_key_order_is_u_f_d(self):
        assert lex_key(m("UFD")) == (0, 1, 2)
        assert lex_key(m("UD")) < lex_key(m("FUD")) < lex_key(m("FFF"))


class TestCountTable:
    def test_columns(self):
        assert tuple(f.name for f in fields(enumeration.CountRow)) == (
            "n",
            "catalan",
            "odd_count",
            "motzkin_prev",
            "even_count",
            "riordan",
            "mixed_count",
        )

    def test_rows_start_at_one(self):
        assert [row.n for row in count_table(2)] == [1, 2]

    def test_mixed_complements(self):
        for row in count_table(6):
            assert row.mixed_count == row.catalan - row.odd_count - row.even_count

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_table(0)

    def test_claim_violation_odd(self, monkeypatch):
        monkeypatch.setattr(enumeration, "motzkin", lambda n: 999)
        with pytest.raises(ClaimViolation) as exc:
            count_table(1)
        assert exc.value.n == 1
        assert exc.value.column == "motzkin_prev"
        assert exc.value.expected == 999
        assert exc.value.actual == 1

    def test_claim_violation_even(self, monkeypatch):
        monkeypatch.setattr(enumeration, "riordan", lambda n: -1)
        with pytest.raises(ClaimViolation) as exc:
            count_table(1)
        assert exc.value.column == "riordan"
