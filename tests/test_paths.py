"""Path parsing, validation, peak analysis, decomposition and statistics.

Core behaviors pinned here:
- validation errors carry the position or level they complain about
- the empty path classifies all-even, while peaks() reports it one peak
  of height 0 by convention and its literal peak count in stats() is 0
- decompose splits at returns to ground and the interiors alternate
  parity class within a pure-parity path
- every domain error of the package survives pickling, as it must to
  come back from a verify worker process
"""
from __future__ import annotations

import pickle

import pytest
from hypothesis import given

from conftest import d, dyck_paths, m, motzkin_paths
from peakparity import (
    BelowGround,
    ClaimViolation,
    ContainsFlat,
    DyckPath,
    IllDefinedParity,
    InvalidCharacter,
    InvalidExpansion,
    InvalidMotzkinOutput,
    MotzkinPath,
    NotInImage,
    PeakParityClass,
    PeakParityError,
    UnbalancedPath,
    UnexpectedUDPair,
    WrongParityClass,
    classify,
    peaks,
    stats,
)
from peakparity.paths import decompose, split_at_ground_downs, split_at_ground_flats


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


class TestMotzkinPath:
    def test_flat_only(self):
        assert m("F").length == 1

    def test_empty(self):
        assert MotzkinPath().length == 0

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

    def test_as_dict_keys(self):
        keys = list(stats(DyckPath()).as_dict())
        assert keys == [
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
    InvalidExpansion("expanded steps are not a Dyck path"),
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
