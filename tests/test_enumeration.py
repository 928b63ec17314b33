"""Generators, counters and the counting table.

The counter sequences are frozen from independent recurrence evaluation
and the generators must reproduce them by brute force; count_table then
has to agree with both on every row.
"""
from __future__ import annotations

import sys
from dataclasses import fields
from itertools import product

import pytest

from conftest import d, m
from peakparity import (
    DyckPath,
    MotzkinPath,
    PathClass,
    PeakParityClass,
    PeakParityError,
    classify,
    count_table,
    generate,
    stats,
)
from peakparity import enumeration
from peakparity.enumeration import ClaimViolation, catalan, lex_key, motzkin, riordan

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


def _walk(total: int, **walk) -> tuple[list[str], int]:
    """The texts a walk yields, and how many prefixes it pops off its stack."""
    visits = 0

    def count(frame, event, arg):
        nonlocal visits
        if (
            event == "c_call"
            and frame.f_code is enumeration._balanced.__code__
            and arg.__name__ == "pop"
        ):
            visits += 1

    sys.setprofile(count)
    try:
        texts = list(enumeration._balanced(total, **walk))
    finally:
        sys.setprofile(None)
    return texts, visits


# each walk generate runs: steps per unit of size and its pruning; the
# start-flat class resumes the Motzkin walk from its first flat
_WALKS = [
    pytest.param(2, {}, id="dyck"),
    pytest.param(2, {"peak_parity": 1}, id="odd-peaks"),
    pytest.param(2, {"peak_parity": 0}, id="even-peaks"),
    pytest.param(1, {"flat_from": 0}, id="motzkin"),
    pytest.param(1, {"flat_from": 0, "start": "F"}, id="start-flat"),
    pytest.param(1, {"flat_from": 1}, id="no-ground-flat"),
]


def _sizes(walk: dict) -> range:
    """The sizes a walk is tested at: n <= 9, and n >= 1 when it starts
    from a prefix, since no path of length 0 has one."""
    return range(1 if walk.get("start") else 0, 10)


def _lex(text: str) -> list[int]:
    return ["UFD".index(c) for c in text]


class TestGenerate:
    @pytest.mark.parametrize("path_class", list(_ORACLES), ids=lambda c: c.value)
    def test_walk_matches_oracle(self, path_class):
        for n in range(10):
            assert list(generate(path_class, n)) == _ORACLES[path_class](n), n

    @pytest.mark.parametrize("unit,walk", _WALKS)
    def test_walk_visits_only_live_prefixes(self, unit, walk):
        # the walk visits every prefix of what it yields from its start, so
        # as many visits as such prefixes means it visits no prefix that
        # cannot finish; so too when it resumes from a prefix it stopped at
        base = walk.get("start", "")
        for n in _sizes(walk):
            stops = [
                p
                for k in (2, 6)
                for p in enumeration._balanced(unit * n, stop=len(base) + k, **walk)
            ]
            for start in [base, *stops]:
                texts, visits = _walk(unit * n, **{**walk, "start": start})
                after = range(len(start) + 1, unit * n + 1)
                live = {start} | {t[:i] for t in texts for i in after}
                assert visits == len(live), (n, start)

    @pytest.mark.parametrize("unit,walk", _WALKS)
    def test_stopped_walk_resumes_to_the_whole_walk(self, unit, walk):
        start = walk.get("start", "")
        for n in _sizes(walk):
            whole = list(enumeration._balanced(unit * n, **walk))
            for k in (0, 2, 6):
                stop = len(start) + k
                stops = list(enumeration._balanced(unit * n, stop=stop, **walk))
                # the live prefixes, each once, in lex order; the start is
                # yielded even where no text extends it
                live = {t[:stop] for t in whole} if k else {start}
                assert stops == sorted(live, key=_lex), (n, k)
                resumed = [
                    t
                    for p in stops
                    for t in enumeration._balanced(unit * n, **{**walk, "start": p})
                ]
                assert resumed == whole, (n, k)

    @pytest.mark.parametrize(
        "path_class",
        [PathClass.ALL_DYCK, PathClass.DYCK_ALL_ODD, PathClass.DYCK_ALL_EVEN],
        ids=lambda c: c.value,
    )
    def test_dyck_texts_from_any_start(self, path_class):
        # every word as a start, so also those the class walk never visits
        for n in range(9):
            whole = [p.steps for p in generate(path_class, n)]
            for k in (1, 4):
                for start in map("".join, product("UD", repeat=k)):
                    got = list(enumeration._dyck_texts(path_class, n, start))
                    assert got == [t for t in whole if t.startswith(start)], (n, start)

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
