"""Path parsing, validation, peak analysis, decomposition and statistics.

Core behaviors pinned here:
- validation errors carry the position or level they complain about
- the empty path classifies all-even, while peaks() reports it one peak
  of height 0 by convention and its literal peak count in stats() is 0
- decompose splits at returns to ground and the interiors alternate
  parity class within a pure-parity path
- every domain error of the package survives pickling, as it must to
  come back from a verify worker process
- the chunk scan that checks texts longer than 64 steps raises exactly
  what the step loop raises, on any length
- the letter checks, a deletion that only calls a regex to name the
  first bad letter, raise exactly what a regex over every letter raised
"""
from __future__ import annotations

import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import d, dyck_paths, m, motzkin_paths
from peakparity import (
    DyckPath,
    MotzkinPath,
    PeakParityClass,
    PeakParityError,
    classify,
    stats,
)
from peakparity.bijections import UnexpectedUDPair, WrongParityClass
from peakparity.enumeration import ClaimViolation
from peakparity.paths import (
    _EVEN_PEAK,
    _ODD_PEAK,
    BelowGround,
    ContainsFlat,
    InvalidCharacter,
    NotInImage,
    UnbalancedPath,
    _check_chunks,
    _check_steps,
    decompose,
    peaks,
    split_at_ground_downs,
    split_at_ground_flats,
)
from peakparity.trees import (
    IllDefinedParity,
    InvalidMotzkinOutput,
    glove_to_tree,
    relocate_reds,
    walk_to_motzkin,
)


class TestParseRender:
    def test_parse_basic(self):
        assert m("UFD").steps == "UFD"
        assert type(d("UD").steps) is str

    def test_parse_empty(self):
        assert m("").steps == ""
        assert d("") == DyckPath()

    def test_invalid_character_position(self):
        with pytest.raises(InvalidCharacter) as exc:
            m("UXD")
        assert exc.value.position == 1
        assert exc.value.char == "X"

    def test_lowercase_rejected(self):
        with pytest.raises(InvalidCharacter) as exc:
            m("Uu")
        assert exc.value.position == 1

    def test_render_inverse(self):
        assert m("UUDFD").render() == "UUDFD"

    @given(motzkin_paths())
    def test_roundtrip(self, path):
        assert MotzkinPath.from_text(path.render()) == path


class TestDyckPath:
    def test_empty_is_valid(self):
        p = DyckPath()
        assert p.semilength == 0
        assert len(p) == 0
        assert p.render() == ""

    def test_from_text(self):
        p = d("UUDD")
        assert p.semilength == 2
        assert len(p) == 4

    def test_flat_rejected(self):
        with pytest.raises(ContainsFlat) as exc:
            d("UDF")
        assert exc.value.position == 2

    def test_unbalanced(self):
        with pytest.raises(UnbalancedPath) as exc:
            d("UU")
        assert exc.value.level == 2

    def test_below_ground(self):
        with pytest.raises(BelowGround) as exc:
            d("UDDU")
        assert exc.value.position == 2

    def test_below_ground_at_start(self):
        with pytest.raises(BelowGround) as exc:
            d("DU")
        assert exc.value.position == 0

    def test_frozen(self):
        with pytest.raises(Exception):
            d("UD").steps = ""

    def test_repr(self):
        assert repr(d("UUDD")) == "DyckPath('UUDD')"

    def test_no_cross_type_equality(self):
        assert d("UD") != m("UD")
        assert m("UD") != d("UD")

    def test_hashable(self):
        assert len({d("UD"), d("UD"), d("UUDD")}) == 2

    @pytest.mark.parametrize(
        "text,error,attr,value",
        [
            ("DX", InvalidCharacter, "position", 1),
            ("UFX", InvalidCharacter, "position", 2),
            ("DUF", BelowGround, "position", 0),
            ("UDF", ContainsFlat, "position", 2),
            ("UUD", UnbalancedPath, "level", 1),
        ],
    )
    def test_first_violation_wins(self, text, error, attr, value):
        # every character is checked before any structure, then steps in order
        with pytest.raises(error) as exc:
            d(text)
        assert getattr(exc.value, attr) == value

    @given(dyck_paths())
    def test_generated_paths_stay_nonnegative(self, p):
        level = 0
        for step in p.steps:
            level += 1 if step == "U" else -1
            assert level >= 0
        assert level == 0
        assert p.semilength * 2 == len(p)


def _error(fn, *args):
    """The domain error a call raises, as type, message and attributes, or None."""
    try:
        fn(*args)
    except PeakParityError as exc:
        return type(exc), str(exc), vars(exc)
    return None


# the last and first steps around the borders of the first two chunks
_CHUNK_BORDERS = (63, 64, 65, 127, 128, 129)


@st.composite
def step_texts(draw) -> str:
    """Texts of 0-300 steps over U, D and F, built from runs of short patterns.

    Long runs climb past level 64 and fall below ground again, so the
    chunk scan's skip over high chunks is reached; a drawn step may be
    set at a chunk border.
    """
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["U", "D", "F", "UD", "DU", "UUD", "UDD"]),
                st.integers(1, 80),
            ),
            max_size=8,
        )
    )
    text = "".join(pattern * count for pattern, count in runs)[:300]
    at = draw(st.sampled_from(_CHUNK_BORDERS))
    if at < len(text) and draw(st.booleans()):
        text = text[:at] + draw(st.sampled_from("UDF")) + text[at + 1 :]
    return text


def _dip_at(position: int) -> str:
    """A Motzkin prefix back at ground after `position` steps, then a step below."""
    return "UD" * (position // 2) + "F" * (position % 2) + "D" + "UD" * 5


# texts with one fault each, and the error both scans must raise for it
_PLANTED = [
    *((_dip_at(k), True, BelowGround(k)) for k in _CHUNK_BORDERS),
    *((_dip_at(k), False, BelowGround(k)) for k in (64, 128)),
    *(("U" * k + "F" + "D" * k, False, ContainsFlat(k))
      for k in _CHUNK_BORDERS),
    # climbs past level 64, so whole chunks count only their net change
    ("U" * 100 + "D" * 101 + "UD" * 10, True, BelowGround(200)),
    ("U" * 150 + "D" * 151, False, BelowGround(300)),
    # a flat before and after a dip
    ("U" * 70 + "F" + "D" * 71, False, ContainsFlat(70)),
    ("U" * 70 + "F" + "D" * 71, True, BelowGround(141)),
    ("U" * 70 + "D" * 71 + "F", False, BelowGround(140)),
    # unbalanced ends
    ("U" * 100 + "D" * 99, False, UnbalancedPath(1)),
    ("U" * 70, True, UnbalancedPath(70)),
    ("UD" * 40 + "U", False, UnbalancedPath(1)),
    ("U" * 65 + "F" + "D" * 64, True, UnbalancedPath(1)),
]


class TestChunkScan:
    """Construction scans texts longer than 64 steps a chunk at a time and
    shorter ones step by step; both helpers must raise the same error."""

    @given(step_texts())
    def test_chunks_against_steps(self, text):
        for allow_flat in (False, True):
            assert _error(_check_chunks, text, allow_flat) == _error(
                _check_steps, text, allow_flat
            )

    @given(step_texts())
    def test_constructors_against_steps(self, text):
        assert _error(DyckPath, text) == _error(_check_steps, text, False)
        assert _error(MotzkinPath, text) == _error(_check_steps, text, True)

    @pytest.mark.parametrize(
        "text,allow_flat,error",
        _PLANTED,
        ids=[
            f"{'motzkin' if flat else 'dyck'}-{len(text)}-{type(error).__name__}"
            f"-{list(vars(error).values())[0]}"
            for text, flat, error in _PLANTED
        ],
    )
    def test_planted_faults(self, text, allow_flat, error):
        want = type(error), str(error), vars(error)
        assert _error(_check_steps, text, allow_flat) == want
        assert _error(_check_chunks, text, allow_flat) == want
        assert _error(MotzkinPath if allow_flat else DyckPath, text) == want

    @pytest.mark.parametrize("cls", [DyckPath, MotzkinPath])
    def test_bad_character_after_a_dip(self, cls):
        # every character is checked before any step, on long texts too
        with pytest.raises(InvalidCharacter) as exc:
            cls("UD" * 40 + "D" + "UD" * 10 + "x")
        assert exc.value.position == 101

    @pytest.mark.parametrize("k", [32, 33, 64, 1000])
    def test_long_valid_paths(self, k):
        assert DyckPath("U" * k + "D" * k).semilength == k
        assert len(MotzkinPath("F" * k + "U" * k + "F" + "D" * k)) == 3 * k + 1


# the letter checks as they were before the deletions: one regex over
# every letter, then, for a path, the step loop
_ANY_BAD_STEP = re.compile("[^UDF]")
_ANY_BAD_COLOR = re.compile("[^BRK]")


def _regex_check(text: str, allow_flat: bool) -> None:
    bad = _ANY_BAD_STEP.search(text)
    if bad:
        raise InvalidCharacter(bad.start(), bad.group())
    _check_steps(text, allow_flat)


def _regex_letters(t, letters: str) -> None:
    if len(letters) != t.edge_count:
        raise ValueError(
            f"expected {t.edge_count} color letters, got {len(letters)}"
        )
    bad = _ANY_BAD_COLOR.search(letters)
    if bad:
        raise ValueError(
            f"invalid color letter {bad.group()!r} at position {bad.start()}"
        )


def _value_error(fn, *args):
    """The message of the ValueError a call raises, or None."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def lettered_texts(draw) -> str:
    """Texts of 0-200 characters: a path or a run-built text over U, D and
    F with up to three bad characters set in it, ASCII ones or the
    non-ASCII é."""
    text = draw(
        st.one_of(
            step_texts(),
            dyck_paths(100).map(str),
            motzkin_paths(200).map(str),
        )
    )[:199]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("xdu é")) + text[at + 1 :]
    return text


_HALF = 50_000
# 100,000-letter texts with the bad letter first, last and in the middle
_LONG_BAD = {
    "first": "x" + "U" * (_HALF - 1) + "D" * _HALF,
    "last": "U" * _HALF + "D" * (_HALF - 1) + "x",
    "non-ascii-middle": "U" * _HALF + "é" + "D" * (_HALF - 1),
    "after-a-dip": "D" + "F" * (2 * _HALF - 2) + "u",
}


def _coloring(edges: int, where: str) -> str:
    """A coloring of a chain with one bad letter where asked, or none."""
    flats, pairs = "K" * edges, "BR" * (edges // 2) + "K" * (edges % 2)
    middle = edges // 2
    return {
        "first": "x" + flats[1:],
        "last": flats[:-1] + "k",
        "non-ascii-middle": pairs[:middle] + "é" + pairs[middle + 1 :],
        "none": pairs,
    }[where]


class TestLetterCheck:
    """Construction checks the letters with one deletion and runs a regex
    only to name the first bad one; it must raise what a regex over every
    letter, then the step loop, raised.  So must the color letter checks."""

    @given(lettered_texts())
    def test_constructors_against_regex(self, text):
        assert _error(DyckPath, text) == _error(_regex_check, text, False)
        assert _error(MotzkinPath, text) == _error(_regex_check, text, True)

    @pytest.mark.parametrize("text", _LONG_BAD.values(), ids=_LONG_BAD)
    def test_long_texts_against_regex(self, text):
        for cls, allow_flat in ((DyckPath, False), (MotzkinPath, True)):
            want = _error(_regex_check, text, allow_flat)
            assert want[0] is InvalidCharacter
            assert _error(cls, text) == want

    @pytest.mark.parametrize("edges", [1, 10, 64, 65, 100_000])
    @pytest.mark.parametrize("where", ["first", "last", "non-ascii-middle", "none"])
    def test_color_letters_against_regex(self, edges, where):
        t = glove_to_tree(DyckPath("U" * edges + "D" * edges))
        letters = _coloring(edges, where)
        want = _value_error(_regex_letters, t, letters)
        assert (want is None) == (where == "none")
        assert _value_error(relocate_reds, t, letters) == want
        assert _value_error(walk_to_motzkin, t, letters) == want


class TestMotzkinPath:
    def test_flat_only(self):
        assert len(m("F")) == 1

    def test_empty(self):
        assert len(MotzkinPath()) == 0

    def test_unbalanced(self):
        with pytest.raises(UnbalancedPath) as exc:
            m("U")
        assert exc.value.level == 1

    def test_below_ground(self):
        with pytest.raises(BelowGround) as exc:
            m("FD")
        assert exc.value.position == 1

    def test_repr(self):
        assert repr(m("UFD")) == "MotzkinPath('UFD')"

    @pytest.mark.parametrize(
        "text,error,attr,value",
        [
            ("DX", InvalidCharacter, "position", 1),
            ("UFX", InvalidCharacter, "position", 2),
            ("DUF", BelowGround, "position", 0),
            ("UUD", UnbalancedPath, "level", 1),
        ],
    )
    def test_first_violation_wins(self, text, error, attr, value):
        with pytest.raises(error) as exc:
            m(text)
        assert getattr(exc.value, attr) == value

    @given(motzkin_paths())
    def test_generated_paths_balanced(self, path):
        assert path.steps.count("U") == path.steps.count("D")


class TestPeaks:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("UD", [(0, 1)]),
            ("UUDD", [(1, 2)]),
            ("UDUD", [(0, 1), (2, 1)]),
            ("UUUDDD", [(2, 3)]),
            ("UDUUDD", [(0, 1), (3, 2)]),
            ("UUDUDD", [(1, 2), (3, 2)]),
        ],
    )
    def test_positions_and_heights(self, text, expected):
        assert peaks(d(text)) == expected

    def test_empty_path_convention(self):
        assert peaks(DyckPath()) == [(-1, 0)]

    @given(dyck_paths())
    def test_against_text_scan(self, p):
        text = p.render()
        expected = []
        for i in range(len(text) - 1):
            if text[i : i + 2] == "UD":
                height = text[: i + 1].count("U") - text[: i + 1].count("D")
                expected.append((i, height))
        if text:
            assert peaks(p) == expected
        else:
            assert peaks(p) == [(-1, 0)]


# ground-level patterns whose peaks all sit at odd, or all at even, height
_ODD_PATTERNS = ("UD", "UDUD", "UUUDDD")
_EVEN_PATTERNS = ("UUDD", "UUDUDD", "UUUUDDDD")


@st.composite
def _planted_peak_texts(draw) -> str:
    """Short Dyck patterns around one peak planted at index 62..66 or 126..130."""
    pool = draw(
        st.sampled_from([_ODD_PATTERNS, _EVEN_PATTERNS, _ODD_PATTERNS + _EVEN_PATTERNS])
    )
    at = draw(st.sampled_from([*range(62, 67), *range(126, 131)]))
    text = ""
    for pattern in draw(st.lists(st.sampled_from(pool), max_size=40)):
        if len(text) + len(pattern) > at:
            break
        text += pattern
    climb = at - len(text)
    text += "U" * climb + "UD" + "D" * climb
    for pattern in draw(st.lists(st.sampled_from(pool), max_size=40)):
        if len(text) + len(pattern) > 300:
            break
        text += pattern
    return text


class TestClassify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("", PeakParityClass.ALL_EVEN),
            ("UD", PeakParityClass.ALL_ODD),
            ("UDUD", PeakParityClass.ALL_ODD),
            ("UUUDDD", PeakParityClass.ALL_ODD),
            ("UUDD", PeakParityClass.ALL_EVEN),
            ("UUDUDD", PeakParityClass.ALL_EVEN),
            ("UDUUDD", PeakParityClass.MIXED),
            ("UUDDUD", PeakParityClass.MIXED),
            pytest.param("UD" * 100000, PeakParityClass.ALL_ODD, id="(UD)^100000"),
            pytest.param("UUDD" * 50000, PeakParityClass.ALL_EVEN, id="(UUDD)^50000"),
            pytest.param(
                "U" * 100001 + "D" * 100001,
                PeakParityClass.ALL_ODD,
                id="U^100001-D^100001",
            ),
            pytest.param(
                "UD" * 99999 + "UUDD", PeakParityClass.MIXED, id="(UD)^99999-UUDD"
            ),
        ],
    )
    def test_examples(self, text, expected):
        assert classify(d(text)) is expected

    def test_rejects_motzkin_path(self):
        with pytest.raises(TypeError):
            classify(m("FUD"))

    @given(_planted_peak_texts())
    def test_chunk_border(self, text):
        # past one chunk classify searches a case-marked copy; the regexes
        # it uses up to one chunk are the reference on every length
        if not _ODD_PEAK(text):
            expected = PeakParityClass.ALL_EVEN
        elif not _EVEN_PEAK(text):
            expected = PeakParityClass.ALL_ODD
        else:
            expected = PeakParityClass.MIXED
        assert classify(d(text)) is expected

    @given(dyck_paths())
    def test_matches_parity_sets(self, p):
        parities = {h % 2 for _, h in peaks(p)}
        got = classify(p)
        if parities == {1}:
            assert got is PeakParityClass.ALL_ODD
        elif parities == {0}:
            assert got is PeakParityClass.ALL_EVEN
        else:
            assert got is PeakParityClass.MIXED


class TestDecompose:
    def test_empty(self):
        assert decompose(DyckPath()) == ()

    def test_single_component(self):
        assert decompose(d("UUUDDD")) == (d("UUDD"),)

    def test_two_components(self):
        assert decompose(d("UUDDUD")) == (d("UD"), DyckPath())

    @given(dyck_paths())
    def test_interiors_are_valid_paths(self, p):
        for interior in decompose(p):
            assert interior == DyckPath(interior.steps)

    @given(dyck_paths())
    def test_rebuild_identity(self, p):
        rebuilt = "".join("U" + interior.steps + "D" for interior in decompose(p))
        assert rebuilt == p.steps

    @given(dyck_paths())
    def test_component_count_is_ground_returns(self, p):
        level = 0
        returns = 0
        for step in p.steps:
            level += 1 if step == "U" else -1
            if level == 0 and step == "D":
                returns += 1
        assert len(decompose(p)) == returns

    @given(dyck_paths())
    def test_alternation_in_pure_classes(self, p):
        cls = classify(p)
        interiors = decompose(p)
        if cls is PeakParityClass.ALL_ODD:
            assert all(classify(q) is PeakParityClass.ALL_EVEN for q in interiors)
        elif cls is PeakParityClass.ALL_EVEN:
            assert all(
                q.steps and classify(q) is PeakParityClass.ALL_ODD for q in interiors
            )


class TestStats:
    def test_dyck_counts(self):
        st = stats(d("UDUD"))
        assert st.peaks == 2
        assert st.ground_returns == 2
        assert st.ground_downs == 2
        assert st.ground_flats == 0

    def test_empty_path_has_zero_literal_peaks(self):
        # peaks() reports the empty path one peak of height 0 by convention,
        # but no UD factor exists, so the count here is 0
        assert stats(DyckPath()).peaks == 0

    def test_motzkin_counts(self):
        st = stats(m("FUD"))
        assert st.u_count == 1
        assert st.uu_count == 0
        assert st.f_count == 1
        assert st.fu_count == 1
        assert st.ground_flats == 1
        assert st.peak_image == 1

    def test_peak_image_counts_ground_flats_without_following_up(self):
        assert stats(m("FF")).peak_image == 2

    def test_flat_above_ground_not_counted(self):
        assert stats(m("UFD")).ground_flats == 0
        assert stats(m("UFD")).ground_downs == 1

    @given(motzkin_paths())
    def test_against_text_scan(self, path):
        text = path.render()
        st = stats(path)
        assert st.u_count == text.count("U")
        assert st.f_count == text.count("F")
        assert st.uu_count == sum(
            text[i : i + 2] == "UU" for i in range(len(text) - 1)
        )
        assert st.fu_count == sum(
            text[i : i + 2] == "FU" for i in range(len(text) - 1)
        )
        assert st.peaks == sum(
            text[i : i + 2] == "UD" for i in range(len(text) - 1)
        )
        level = 0
        gflats = returns = 0
        for ch in text:
            if ch == "F" and level == 0:
                gflats += 1
            level += {"U": 1, "D": -1, "F": 0}[ch]
            if ch == "D" and level == 0:
                returns += 1
        assert st.ground_flats == gflats
        assert st.ground_returns == returns


class TestSplits:
    def test_split_flats_examples(self):
        assert split_at_ground_flats(m("FF")) == (m("F"), m("F"))
        assert split_at_ground_flats(m("FUDF")) == (m("FUD"), m("F"))
        assert split_at_ground_flats(m("FUFDF")) == (m("FUFD"), m("F"))

    def test_split_flats_empty(self):
        assert split_at_ground_flats(MotzkinPath()) == ()

    def test_split_flats_rejects_other_start(self):
        with pytest.raises(NotInImage):
            split_at_ground_flats(m("UD"))

    def test_split_downs_examples(self):
        assert split_at_ground_downs(m("UDUD")) == (m("UD"), m("UD"))
        assert split_at_ground_downs(m("UFD")) == (m("UFD"),)

    def test_split_downs_empty(self):
        assert split_at_ground_downs(MotzkinPath()) == ()

    def test_split_downs_rejects_ground_flat(self):
        with pytest.raises(NotInImage):
            split_at_ground_downs(m("F"))
        with pytest.raises(NotInImage):
            split_at_ground_downs(m("UDF"))

    @given(motzkin_paths())
    def test_flat_split_concat_identity(self, path):
        prefixed = MotzkinPath("F" + path.steps)
        segments = split_at_ground_flats(prefixed)
        assert "".join(s.steps for s in segments) == prefixed.steps
        assert all(s.steps[0] == "F" for s in segments)
        assert all(s == MotzkinPath(s.steps) for s in segments)

    @given(motzkin_paths())
    def test_down_split_concat_identity(self, path):
        arched = MotzkinPath("U" + path.steps + "D")
        segments = split_at_ground_downs(arched)
        assert "".join(s.steps for s in segments) == arched.steps
        assert all(s == MotzkinPath(s.steps) for s in segments)
        for seg in segments:
            assert seg.steps[0] == "U"
            assert seg.steps[-1] == "D"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# one instance of every domain error, each built by its own constructor
_ERRORS = [
    InvalidCharacter(3, "x"),
    ContainsFlat(4),
    UnbalancedPath(2),
    BelowGround(1),
    NotInImage("path does not start with a ground-level flat step"),
    WrongParityClass(PeakParityClass.ALL_ODD, PeakParityClass.ALL_EVEN),
    UnexpectedUDPair(5),
    IllDefinedParity(4),
    InvalidMotzkinOutput("walk ends at level 1"),
    ClaimViolation(7, "riordan", 36, 35),
]


class TestErrorPickling:
    def test_every_error_listed(self):
        assert {type(e) for e in _ERRORS} == set(_subclasses(PeakParityError))

    @pytest.mark.parametrize("exc", _ERRORS, ids=lambda e: type(e).__name__)
    def test_roundtrip(self, exc):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert back.args == exc.args
        assert vars(back) == vars(exc)
