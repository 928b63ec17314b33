"""Acceptance gate: every advertised guarantee, checked exhaustively.

One test per criterion, in order.  Each prints a single
``criterion N (...): PASS`` or ``FAIL`` line so a ``pytest -s`` run of
this module reads as a checklist.  All comparisons are exact; the two
timed criteria also assert their wall-clock budgets.

The expected count sequences are frozen literals, and the tests
recompute them here from scratch via the convolution and alternating
recurrences so that a regression in the library's own number theory
cannot hide.
"""
from __future__ import annotations

import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from peakparity import (
    PathClass,
    PeakParityClass,
    UnexpectedUDPair,
    classify,
    explicit_a,
    explicit_b,
    generate,
    glove_to_dyck,
    glove_to_tree,
    motzkin,
    peaks,
    phi_a,
    phi_b,
    psi_a,
    psi_b,
    riordan,
    stats,
    tirrell_a,
    tirrell_a_inv,
    tirrell_b,
    tirrell_b_inv,
)
from peakparity.bijections import _substitute_pairs

MAX_N = 12

ODD_COUNTS = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798]  # n = 1..12
EVEN_COUNTS = [1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603, 1585, 4213]  # n = 0..12


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def _motzkin_oracle(limit: int) -> list[int]:
    # independent of the library: plain convolution recurrence
    seq = [1]
    for m in range(1, limit + 1):
        total = seq[m - 1]
        for k in range(m - 1):
            total += seq[k] * seq[m - 2 - k]
        seq.append(total)
    return seq


def _riordan_oracle(limit: int) -> list[int]:
    moz = _motzkin_oracle(limit)
    seq = [1, 0]
    for n in range(2, limit + 1):
        seq.append(moz[n - 1] - seq[n - 1])
    return seq[: limit + 1]


@pytest.fixture(scope="module")
def dyck_buckets():
    """Odd- and even-class Dyck paths for every semilength up to 12.

    Returns (odd, even, elapsed) where elapsed is the wall time of the
    full enumeration plus classification sweep, charged to criterion 1.
    """
    start = time.monotonic()
    odd: dict[int, list] = {}
    even: dict[int, list] = {}
    for n in range(MAX_N + 1):
        odd_n, even_n = [], []
        for p in generate(PathClass.ALL_DYCK, n):
            cls = classify(p)
            if cls is PeakParityClass.ALL_ODD:
                odd_n.append(p)
            elif cls is PeakParityClass.ALL_EVEN:
                even_n.append(p)
        odd[n] = odd_n
        even[n] = even_n
    elapsed = time.monotonic() - start
    return odd, even, elapsed


@pytest.fixture(scope="module")
def motzkin_targets():
    start_flat = {
        n: set(generate(PathClass.MOTZKIN_START_FLAT, n)) for n in range(MAX_N + 1)
    }
    no_ground = {
        n: set(generate(PathClass.MOTZKIN_NO_GROUND_FLAT, n))
        for n in range(MAX_N + 1)
    }
    return start_flat, no_ground


@pytest.fixture(scope="module")
def odd_images(dyck_buckets):
    odd, _, _ = dyck_buckets
    return {n: [phi_a(p) for p in odd[n]] for n in range(MAX_N + 1)}


@pytest.fixture(scope="module")
def even_images(dyck_buckets):
    _, even, _ = dyck_buckets
    return {n: [phi_b(p) for p in even[n]] for n in range(MAX_N + 1)}


def test_criterion_1_odd_counts(dyck_buckets):
    odd, _, elapsed = dyck_buckets
    with criterion(1, "odd-class counts follow the shifted convolution sequence"):
        oracle = _motzkin_oracle(MAX_N - 1)
        for n in range(1, MAX_N + 1):
            assert len(odd[n]) == ODD_COUNTS[n - 1]
            assert oracle[n - 1] == ODD_COUNTS[n - 1]
            assert motzkin(n - 1) == ODD_COUNTS[n - 1]
        assert elapsed < 60.0


def test_criterion_2_even_counts(dyck_buckets):
    _, even, _ = dyck_buckets
    with criterion(2, "even-class counts follow the alternating-sum sequence"):
        oracle = _riordan_oracle(MAX_N)
        for n in range(MAX_N + 1):
            assert len(even[n]) == EVEN_COUNTS[n]
            assert oracle[n] == EVEN_COUNTS[n]
            assert riordan(n) == EVEN_COUNTS[n]


def test_criterion_3_images_and_injectivity(
    dyck_buckets, motzkin_targets, odd_images, even_images
):
    odd, even, _ = dyck_buckets
    start_flat, no_ground = motzkin_targets
    with criterion(3, "image sets are exact and the maps are injective"):
        for n in range(MAX_N + 1):
            odd_set = set(odd_images[n])
            assert len(odd_set) == len(odd[n])
            assert odd_set == start_flat[n]
            even_set = set(even_images[n])
            assert len(even_set) == len(even[n])
            assert even_set == no_ground[n]


def test_criterion_4_three_descriptions_agree(dyck_buckets, odd_images, even_images):
    odd, even, _ = dyck_buckets
    with criterion(4, "recursive, explicit, and pairing maps agree everywhere"):
        for n in range(1, MAX_N + 1):
            for p, image in zip(odd[n], odd_images[n]):
                assert explicit_a(p) == image
                assert tirrell_a(p) == image
        for n in range(MAX_N + 1):
            for p, image in zip(even[n], even_images[n]):
                assert explicit_b(p) == image
                assert tirrell_b(p) == image


def test_criterion_5_round_trips(
    dyck_buckets, motzkin_targets, odd_images, even_images
):
    odd, even, _ = dyck_buckets
    start_flat, no_ground = motzkin_targets
    with criterion(5, "all six round-trip identities hold"):
        for n in range(MAX_N + 1):
            for p, image in zip(odd[n], odd_images[n]):
                assert psi_a(image) == p
                assert tirrell_a_inv(tirrell_a(p)) == p
            for p, image in zip(even[n], even_images[n]):
                assert psi_b(image) == p
                assert tirrell_b_inv(tirrell_b(p)) == p
            for m in start_flat[n]:
                assert phi_a(psi_a(m)) == m
            for m in no_ground[n]:
                assert phi_b(psi_b(m)) == m


def test_criterion_6_statistic_transfer(dyck_buckets, odd_images, even_images):
    odd, even, _ = dyck_buckets
    with criterion(6, "returns and peaks transfer as advertised"):
        for n in range(MAX_N + 1):
            for p, image in zip(odd[n], odd_images[n]):
                assert stats(p).ground_returns == stats(image).ground_flats
                assert stats(p).peaks == stats(image).peak_image
            for p, image in zip(even[n], even_images[n]):
                assert stats(p).ground_returns == stats(image).ground_downs
                assert stats(p).peaks == stats(image).peak_image


def test_criterion_7_no_ud_pairs(dyck_buckets):
    odd, even, _ = dyck_buckets
    with criterion(7, "pairing windows never contain a UD pair on class members"):
        for n in range(1, MAX_N + 1):
            for p in odd[n]:
                body = p.steps[1:-1]
                for i in range(0, len(body), 2):
                    assert body[i : i + 2] != "UD"
        for n in range(MAX_N + 1):
            for p in even[n]:
                for i in range(0, len(p.steps), 2):
                    assert p.steps[i : i + 2] != "UD"
        # the guard exists and fires only when fed a corrupted window
        with pytest.raises(UnexpectedUDPair) as exc:
            _substitute_pairs("UD")
        assert exc.value.pair_index == 0


def test_criterion_8_glove_fidelity():
    with criterion(8, "tree encoding round-trips and matches leaf depths to peaks"):
        for n in range(MAX_N + 1):
            for p in generate(PathClass.ALL_DYCK, n):
                tree = glove_to_tree(p)
                assert glove_to_dyck(tree) == p
                assert tree.leaf_depths() == [h for _, h in peaks(p)]


def test_criterion_9_verify_command():
    with criterion(9, "the full verification command passes in budget"):
        start = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-m", "peakparity", "verify", "--max-n", str(MAX_N)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        elapsed = time.monotonic() - start
        assert result.returncode == 0
        assert "verify: 35/35 checks passed for n = 0..12" in result.stdout
        assert elapsed < 300.0
