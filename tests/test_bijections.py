"""The three map families: fixed values, domains, inverses, agreement.

The frozen input/output pairs below were derived by unrolling the
recursions by hand; the explicit and pairing routes are then required to
reproduce them, and hypothesis drives the round-trip identities on
randomly sampled class members.
"""
from __future__ import annotations

import pytest
from hypothesis import given

from conftest import d, even_dyck_paths, m, odd_dyck_paths
from peakparity import (
    DyckPath,
    InvalidExpansion,
    MapKind,
    MotzkinPath,
    NotInImage,
    PathClass,
    PeakParityClass,
    UnexpectedUDPair,
    WrongParityClass,
    apply_map,
    classify,
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
from peakparity.bijections import _expanded_dyck, _substitute_pairs

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

    def test_invalid_expansion_on_corrupted_steps(self):
        with pytest.raises(InvalidExpansion):
            _expanded_dyck("DU")
        with pytest.raises(InvalidExpansion):
            _expanded_dyck("U")

    @given(odd_dyck_paths())
    def test_roundtrip_a(self, p):
        assert tirrell_a_inv(tirrell_a(p)) == p

    @given(even_dyck_paths())
    def test_roundtrip_b(self, p):
        assert tirrell_b_inv(tirrell_b(p)) == p


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
