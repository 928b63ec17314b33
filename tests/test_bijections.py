"""The three map families: fixed values, domains, inverses, agreement.

The frozen input/output pairs below were derived by unrolling the
recursions by hand; the explicit and pairing routes are then required to
reproduce them, and hypothesis drives the round-trip identities on
randomly sampled class members.  The recursions also run literally, as
code on the factor and segment splits, against the one-pass phi and psi.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    d,
    even_dyck_paths,
    m,
    motzkin_paths,
    odd_dyck_paths,
    seeded_motzkin,
)
from peakparity import (
    DyckPath,
    MapKind,
    MotzkinPath,
    PathClass,
    PeakParityClass,
    PeakParityError,
    explicit_a,
    explicit_b,
    generate,
    phi_a,
    phi_b,
    psi_a,
    psi_b,
    stats,
    tirrell_a,
    tirrell_a_inv,
    tirrell_b,
    tirrell_b_inv,
)
from peakparity.bijections import (
    _EXPAND_PAIRS,
    UnexpectedUDPair,
    WrongParityClass,
    _expand_by_rows,
    _substitute_pairs,
    apply_map,
)
from peakparity.paths import (
    NotInImage,
    decompose,
    split_at_ground_downs,
    split_at_ground_flats,
)

ODD_PAIRS = [
    ("UD", "F"),
    ("UDUD", "FF"),
    ("UUUDDD", "FUD"),
    ("UUUDDDUD", "FUDF"),
    ("UDUUUDDD", "FFUD"),
]

EVEN_PAIRS = [
    ("", ""),
    ("UUDD", "UD"),
    ("UUDUDD", "UFD"),
    ("UUDDUUDD", "UDUD"),
    ("UUUUDDDD", "UUDD"),
    ("UUUUDDDDUUDD", "UUDDUD"),
]


_PAIRS = ("UU", "DU", "DD", "UD")


def _substitute_pairs_oracle(text: str) -> str:
    """The pair rule one pair at a time, as a lookup per pair."""
    out = []
    for k in range(0, len(text), 2):
        image = {"UU": "U", "DU": "F", "DD": "D"}.get(text[k : k + 2])
        if image is None:
            raise UnexpectedUDPair(k // 2)
        out.append(image)
    return "".join(out)


def _outcome(fn, *args):
    """A call's result, or its domain error's type, message and attributes."""
    try:
        return fn(*args)
    except PeakParityError as exc:
        return type(exc), str(exc), vars(exc)


class TestRecursiveMaps:
    @pytest.mark.parametrize("source,image", ODD_PAIRS)
    def test_phi_a_values(self, source, image):
        assert phi_a(d(source)) == m(image)

    @pytest.mark.parametrize("source,image", EVEN_PAIRS)
    def test_phi_b_values(self, source, image):
        assert phi_b(d(source)) == m(image)

    def test_phi_a_rejects_even(self):
        with pytest.raises(WrongParityClass) as exc:
            phi_a(d("UUDD"))
        assert exc.value.actual is PeakParityClass.ALL_EVEN

    def test_phi_a_rejects_empty(self):
        with pytest.raises(WrongParityClass):
            phi_a(DyckPath())

    def test_phi_b_rejects_odd(self):
        with pytest.raises(WrongParityClass) as exc:
            phi_b(d("UD"))
        assert exc.value.actual is PeakParityClass.ALL_ODD

    def test_mixed_rejected_by_both(self):
        mixed = d("UDUUDD")
        for fn in (phi_a, phi_b):
            with pytest.raises(WrongParityClass) as exc:
                fn(mixed)
            assert exc.value.actual is PeakParityClass.MIXED

    @pytest.mark.parametrize("semilength", [64, 128, 200, 100000])
    def test_deep_even_chain(self, semilength):
        # single peak at even height, maximal nesting depth
        chain = DyckPath("U" * semilength + "D" * semilength)
        image = phi_b(chain)
        assert len(image) == semilength
        assert psi_b(image) == chain

    @pytest.mark.parametrize("semilength", [65, 201, 100001])
    def test_deep_odd_chain(self, semilength):
        chain = DyckPath("U" * semilength + "D" * semilength)
        image = phi_a(chain)
        assert len(image) == semilength
        assert psi_a(image) == chain

    @pytest.mark.parametrize(
        "text,phi,psi,pairing",
        [("UD" * 100000, phi_a, psi_a, tirrell_a), ("UUDD" * 50000, phi_b, psi_b, tirrell_b)],
        ids=["odd", "even"],
    )
    def test_wide(self, text, phi, psi, pairing):
        # every peak at the lowest height its class allows, side by side
        p = DyckPath(text)
        image = phi(p)
        assert image == pairing(p)
        assert psi(image) == p


class TestInverses:
    @pytest.mark.parametrize("source,image", ODD_PAIRS)
    def test_psi_a_values(self, source, image):
        assert psi_a(m(image)) == d(source)

    @pytest.mark.parametrize("source,image", [p for p in EVEN_PAIRS if p[0]])
    def test_psi_b_values(self, source, image):
        assert psi_b(m(image)) == d(source)

    def test_psi_b_empty(self):
        assert psi_b(MotzkinPath()) == DyckPath()

    def test_psi_a_rejects_empty(self):
        with pytest.raises(NotInImage):
            psi_a(MotzkinPath())

    def test_psi_a_rejects_wrong_start(self):
        with pytest.raises(NotInImage):
            psi_a(m("UD"))

    def test_psi_b_rejects_ground_flat(self):
        with pytest.raises(NotInImage):
            psi_b(m("F"))
        with pytest.raises(NotInImage):
            psi_b(m("UDF"))

    @given(odd_dyck_paths())
    def test_roundtrip_a(self, p):
        assert psi_a(phi_a(p)) == p

    @given(even_dyck_paths())
    def test_roundtrip_b(self, p):
        assert psi_b(phi_b(p)) == p

    def test_forward_roundtrip_on_images(self):
        for n in range(8):
            for image in generate(PathClass.MOTZKIN_START_FLAT, n):
                assert phi_a(psi_a(image)) == image
            for image in generate(PathClass.MOTZKIN_NO_GROUND_FLAT, n):
                assert phi_b(psi_b(image)) == image


class TestExplicit:
    @pytest.mark.parametrize("source,image", ODD_PAIRS + EVEN_PAIRS)
    def test_values(self, source, image):
        explicit = explicit_a if (source, image) in ODD_PAIRS else explicit_b
        assert explicit(d(source)) == m(image)

    def test_rejects_mixed(self):
        for explicit in (explicit_a, explicit_b):
            with pytest.raises(WrongParityClass) as exc:
                explicit(d("UUDDUD"))
            assert exc.value.actual is PeakParityClass.MIXED

    def test_restricted_variants(self):
        assert explicit_a(d("UD")) == m("F")
        assert explicit_b(d("UUDD")) == m("UD")
        with pytest.raises(WrongParityClass):
            explicit_a(d("UUDD"))
        with pytest.raises(WrongParityClass):
            explicit_b(d("UD"))

    @given(odd_dyck_paths())
    def test_agrees_with_phi_a(self, p):
        assert explicit_a(p) == phi_a(p)

    @given(even_dyck_paths())
    def test_agrees_with_phi_b(self, p):
        assert explicit_b(p) == phi_b(p)


class TestTirrell:
    @pytest.mark.parametrize("source,image", ODD_PAIRS)
    def test_tirrell_a_values(self, source, image):
        assert tirrell_a(d(source)) == m(image)

    @pytest.mark.parametrize("source,image", EVEN_PAIRS)
    def test_tirrell_b_values(self, source, image):
        assert tirrell_b(d(source)) == m(image)

    @pytest.mark.parametrize("source,image", ODD_PAIRS)
    def test_tirrell_a_inv_values(self, source, image):
        assert tirrell_a_inv(m(image)) == d(source)

    @pytest.mark.parametrize("source,image", [p for p in EVEN_PAIRS if p[0]])
    def test_tirrell_b_inv_values(self, source, image):
        assert tirrell_b_inv(m(image)) == d(source)

    def test_tirrell_b_inv_empty(self):
        assert tirrell_b_inv(MotzkinPath()) == DyckPath()

    def test_domain_errors(self):
        with pytest.raises(WrongParityClass):
            tirrell_a(d("UUDD"))
        with pytest.raises(WrongParityClass):
            tirrell_b(d("UD"))
        with pytest.raises(NotInImage):
            tirrell_a_inv(MotzkinPath())
        with pytest.raises(NotInImage):
            tirrell_a_inv(m("UD"))
        with pytest.raises(NotInImage):
            tirrell_b_inv(m("F"))

    def test_unexpected_ud_pair_on_corrupted_input(self):
        # unreachable through the public maps; exercised on raw windows
        with pytest.raises(UnexpectedUDPair) as exc:
            _substitute_pairs("UD")
        assert exc.value.pair_index == 0
        with pytest.raises(UnexpectedUDPair) as exc:
            _substitute_pairs("UUUD")
        assert exc.value.pair_index == 1

    @given(
        st.lists(st.sampled_from(_PAIRS)) | st.lists(st.sampled_from(_PAIRS[:3]))
    )
    def test_pairs_against_loop(self, pairs):
        # the image, or the same UD pair index as the loop reports
        text = "".join(pairs)
        assert _outcome(_substitute_pairs, text) == _outcome(
            _substitute_pairs_oracle, text
        )

    @given(motzkin_paths(max_length=40))
    def test_tirrell_b_inv_ground_flat_message(self, path):
        # the error the arch split raises at the first ground flat, or none
        try:
            split_at_ground_downs(path)
        except NotInImage as exc:
            assert _outcome(tirrell_b_inv, path) == (NotInImage, str(exc), {})
        else:
            assert tirrell_b(tirrell_b_inv(path)) == path

    @pytest.mark.parametrize("g", [0, 33, 100, 1001])
    def test_tirrell_b_inv_long_ground_flat(self, g):
        # arches, one with a flat inside, reach ground after g steps; the
        # expansion is longer than one chunk, so the chunk scan finds the dip
        arches = "UFD" * (g % 2) + "UD" * (g // 2 - g % 2)
        path = m(arches + "F" + "UUDD" * 20)
        assert _outcome(tirrell_b_inv, path) == (
            NotInImage,
            f"flat step at ground level at position {g}",
            {},
        )

    @given(st.text(alphabet="UDF", max_size=200))
    def test_expand_rows_against_translate(self, text):
        assert _expand_by_rows(text) == text.translate(_EXPAND_PAIRS)

    @given(odd_dyck_paths())
    def test_roundtrip_a(self, p):
        assert tirrell_a_inv(tirrell_a(p)) == p

    @given(even_dyck_paths())
    def test_roundtrip_b(self, p):
        assert tirrell_b_inv(tirrell_b(p)) == p


class TestBeyondExhaustive:
    """Seeded class members far past the exhaustive sizes, and deep chains."""

    def _routes_agree(self, p, image, side):
        phi, psi, explicit, tirrell, tirrell_inv = {
            "a": (phi_a, psi_a, explicit_a, tirrell_a, tirrell_a_inv),
            "b": (phi_b, psi_b, explicit_b, tirrell_b, tirrell_b_inv),
        }[side]
        assert phi(p) == image
        assert explicit(p) == image
        assert tirrell(p) == image
        assert psi(image) == p
        assert tirrell_inv(image) == p

    def test_seeded_members(self):
        rng = random.Random(2017)
        for _ in range(3):
            n = rng.randint(2000, 5000)
            image = MotzkinPath("F" + seeded_motzkin(rng, n - 1, ground_flats=True))
            self._routes_agree(psi_a(image), image, "a")
            image = MotzkinPath(seeded_motzkin(rng, n, ground_flats=False))
            self._routes_agree(psi_b(image), image, "b")

    @pytest.mark.parametrize("k", [1999, 2000, 2001, 2002])
    def test_chains(self, k):
        # the one peak sits at height k, so k's parity picks the side
        image = m("F" * (k % 2) + "U" * (k // 2) + "D" * (k // 2))
        self._routes_agree(DyckPath("U" * k + "D" * k), image, "a" if k % 2 else "b")


def _phi_a_rec(text: str) -> str:
    """phi_a as the paper writes it: each factor U P D gives F phi_b(P)."""
    return "".join("F" + _phi_b_rec(q.steps) for q in decompose(d(text)))


def _phi_b_rec(text: str) -> str:
    """phi_b as the paper writes it: each factor U P D gives U phi_a(P) D, less its F."""
    return "".join("U" + _phi_a_rec(q.steps)[1:] + "D" for q in decompose(d(text)))


def _psi_a_rec(text: str) -> str:
    """psi_a as the paper writes it: each segment F S gives U psi_b(S) D."""
    segments = split_at_ground_flats(m(text))
    return "".join("U" + _psi_b_rec(seg.steps[1:]) + "D" for seg in segments)


def _psi_b_rec(text: str) -> str:
    """psi_b as the paper writes it: each arch U A D gives U psi_a(F A) D."""
    arches = split_at_ground_downs(m(text))
    return "".join("U" + _psi_a_rec("F" + arch.steps[1:-1]) + "D" for arch in arches)


class TestAgainstRecursion:
    """The one-pass maps against the paper's recursion run literally, as code."""

    @given(odd_dyck_paths())
    def test_phi_a(self, p):
        assert phi_a(p) == m(_phi_a_rec(p.steps))

    @given(even_dyck_paths())
    def test_phi_b(self, p):
        assert phi_b(p) == m(_phi_b_rec(p.steps))

    @given(motzkin_paths().filter(lambda path: path.steps))
    def test_psi_a(self, path):
        # the recursion sends the empty path to itself; psi_a rejects it,
        # since phi_a never gives it
        assert _outcome(psi_a, path) == _outcome(lambda q: d(_psi_a_rec(q.steps)), path)

    @given(motzkin_paths())
    def test_psi_b(self, path):
        assert _outcome(psi_b, path) == _outcome(lambda q: d(_psi_b_rec(q.steps)), path)

    @given(st.randoms(use_true_random=False), st.integers(2, 300))
    def test_seeded_members(self, rng, n):
        image = "F" + seeded_motzkin(rng, n - 1, ground_flats=True)
        p = d(_psi_a_rec(image))
        assert psi_a(m(image)) == p
        assert phi_a(p) == m(_phi_a_rec(p.steps)) == m(image)
        image = seeded_motzkin(rng, n, ground_flats=False)
        p = d(_psi_b_rec(image))
        assert psi_b(m(image)) == p
        assert phi_b(p) == m(_phi_b_rec(p.steps)) == m(image)


class TestStatTransfers:
    @given(odd_dyck_paths())
    def test_ground_returns_become_ground_flats(self, p):
        assert stats(p).ground_returns == stats(phi_a(p)).ground_flats

    @given(even_dyck_paths())
    def test_ground_returns_become_ground_downs(self, p):
        assert stats(p).ground_returns == stats(phi_b(p)).ground_downs

    @given(odd_dyck_paths())
    def test_peaks_transported_a(self, p):
        assert stats(p).peaks == stats(phi_a(p)).peak_image

    @given(even_dyck_paths())
    def test_peaks_transported_b(self, p):
        assert stats(p).peaks == stats(phi_b(p)).peak_image


class TestAgreementExhaustive:
    def test_triple_agreement_small(self):
        for n in range(8):
            for p in generate(PathClass.DYCK_ALL_ODD, n):
                assert phi_a(p) == explicit_a(p) == tirrell_a(p)
            for p in generate(PathClass.DYCK_ALL_EVEN, n):
                assert phi_b(p) == explicit_b(p) == tirrell_b(p)

    def test_images_small(self):
        for n in range(8):
            odd_images = {phi_a(p) for p in generate(PathClass.DYCK_ALL_ODD, n)}
            assert odd_images == set(generate(PathClass.MOTZKIN_START_FLAT, n))
            even_images = {phi_b(p) for p in generate(PathClass.DYCK_ALL_EVEN, n)}
            assert even_images == set(generate(PathClass.MOTZKIN_NO_GROUND_FLAT, n))

    @pytest.mark.parametrize(
        "psi,inverse", [(psi_a, tirrell_a_inv), (psi_b, tirrell_b_inv)]
    )
    def test_inverses_agree_on_every_motzkin_path(self, psi, inverse):
        # the same path, or NotInImage with the same message, the empty path too
        for n in range(9):
            for path in generate(PathClass.ALL_MOTZKIN, n):
                outcome = _outcome(psi, path)
                assert outcome == _outcome(inverse, path)
                assert isinstance(outcome, DyckPath) or outcome[0] is NotInImage


class TestApplyMap:
    CASES = [
        (MapKind.PHI_A, "UD", "F"),
        (MapKind.PHI_B, "UUDD", "UD"),
        (MapKind.PSI_A, "F", "UD"),
        (MapKind.PSI_B, "UD", "UUDD"),
        (MapKind.EXPLICIT_A, "UD", "F"),
        (MapKind.EXPLICIT_B, "UUDD", "UD"),
        (MapKind.TIRRELL_A, "UD", "F"),
        (MapKind.TIRRELL_B, "UUDD", "UD"),
        (MapKind.TIRRELL_A_INV, "F", "UD"),
        (MapKind.TIRRELL_B_INV, "UD", "UUDD"),
    ]

    @pytest.mark.parametrize("kind,source,target", CASES)
    def test_dispatch(self, kind, source, target):
        path = d(source) if kind.takes_dyck else m(source)
        assert apply_map(kind, path).render() == target

    def test_every_kind_has_a_case(self):
        assert {kind for kind, _, _ in self.CASES} == set(MapKind)

    def test_domain_flags(self):
        dyck_side = {k for k in MapKind if k.takes_dyck}
        assert dyck_side == {
            MapKind.PHI_A,
            MapKind.PHI_B,
            MapKind.EXPLICIT_A,
            MapKind.EXPLICIT_B,
            MapKind.TIRRELL_A,
            MapKind.TIRRELL_B,
        }

    def test_cli_names(self):
        assert {k.value for k in MapKind} == {
            "phi-a",
            "phi-b",
            "psi-a",
            "psi-b",
            "explicit-a",
            "explicit-b",
            "tirrell-a",
            "tirrell-b",
            "tirrell-a-inv",
            "tirrell-b-inv",
        }
