"""Three interchangeable routes between parity-constrained Dyck paths and
restricted Motzkin paths.

All routes send a Dyck path of semilength n whose peaks all sit at odd
heights to a Motzkin path of length n starting with a ground-level flat
step, and a path whose peaks all sit at even heights to a Motzkin path of
length n with no ground-level flat step at all.

phi_a and phi_b unroll the paper's recursion on the return-to-ground
factorization into one pass over the steps, psi_a and psi_b invert them
in one pass that keeps only the current level and whether psi_a has
opened a segment, explicit_a and explicit_b go through the colored-tree
rewrite in one shot, and the tirrell maps substitute adjacent step pairs
directly.  The pair rule is fixed-width, so the tirrell maps and their
inverses run as whole-string byte and str operations with no Python
loop per step; phi and psi stay step-by-step passes, so that the routes
still check each other.  The routes agree pointwise; the verification
module checks that exhaustively.
"""
from __future__ import annotations

from .paths import (
    _CHUNK_STEPS,
    BelowGround,
    DyckPath,
    MotzkinPath,
    NotInImage,
    PeakParityClass,
    PeakParityError,
    classify,
)
from .trees import color_edges, glove_to_tree, relocate_reds, walk_to_motzkin
from enum import Enum


class WrongParityClass(PeakParityError):
    """The input Dyck path is not in the peak-parity class this map accepts."""

    def __init__(self, actual: PeakParityClass, expected: PeakParityClass):
        self.actual = actual
        self.expected = expected
        super().__init__(
            f"path classifies as {actual.value}, this map needs {expected.value}"
        )


class UnexpectedUDPair(PeakParityError):
    """Pair substitution hit an up step directly followed by a down step.

    Cannot happen for inputs in the advertised parity classes; carries the
    0-based index of the offending pair.
    """

    def __init__(self, pair_index: int):
        self.pair_index = pair_index
        super().__init__(f"up-down pair at pair index {pair_index}")


def _require_class(p: DyckPath, expected: PeakParityClass) -> None:
    actual = classify(p)
    if actual is not expected:
        raise WrongParityClass(actual, expected)


def _phi(text: str, on_a: bool) -> MotzkinPath:
    # on_a: the factors starting at the current level are phi_a's (even
    # levels under phi_a, odd under phi_b); each emits F, which rest drops
    # right after a U.  A phi_b factor emits U, its interior's image, D.
    out, prev = [], ""
    emit = out.append
    for ch in text:
        if ch == "U":
            if not on_a:
                emit("U")
            elif prev != "U":
                emit("F")
        elif on_a:
            emit("D")
        on_a = not on_a
        prev = ch
    return MotzkinPath("".join(out))


def phi_a(p: DyckPath) -> MotzkinPath:
    """Map an all-odd-peak Dyck path to a Motzkin path starting with a flat.

    Each return-to-ground factor U P D contributes F followed by the image
    of its interior under phi_b; the interiors of an all-odd path are
    all-even, so the recursion alternates.
    """
    _require_class(p, PeakParityClass.ALL_ODD)
    return _phi(p.steps, True)


def phi_b(p: DyckPath) -> MotzkinPath:
    """Map an all-even-peak Dyck path to a Motzkin path with no ground flat.

    Each factor U P D contributes U, then the phi_a image of its interior
    with the leading flat removed, then D.  The interior of a factor of an
    all-even path is nonempty and all-odd, so the leading flat exists.
    """
    _require_class(p, PeakParityClass.ALL_EVEN)
    return _phi(p.steps, False)


def _psi(text: str, side: str) -> DyckPath:
    # the pair expansion, U to UU, D to DD and F to DU, on a level counter;
    # only a ground flat differs.  psi_b has none, and psi_a's segments
    # F S give U psi_b(S) D: the first opens with U alone, each later one
    # with the DU that closes the one before, and a final D closes the last
    out, level, opened = [], 0, False
    emit = out.append
    for ch in text:
        if ch == "U":
            emit("UU")
            level += 1
        elif ch == "D":
            emit("DD")
            level -= 1
        elif level:
            emit("DU")
        elif side == "b":
            # on side b every earlier step gave one item
            raise NotInImage(f"flat step at ground level at position {len(out)}")
        else:
            emit("DU" if opened else "U")
            opened = True
    return DyckPath("".join(out) + ("D" if opened else ""))


def psi_a(m: MotzkinPath) -> DyckPath:
    """Invert phi_a.  Accepts exactly the Motzkin paths starting with a flat.

    Each segment F S, cut before a ground flat, contributes U psi_b(S) D.
    """
    if not m.steps.startswith("F"):
        raise NotInImage("path does not start with a ground-level flat step")
    return _psi(m.steps, "a")


def psi_b(m: MotzkinPath) -> DyckPath:
    """Invert phi_b.  Accepts exactly the Motzkin paths with no ground flat.

    Each arch U A D contributes U psi_a(F A) D.
    """
    return _psi(m.steps, "b")


def _explicit(p: DyckPath) -> MotzkinPath:
    tree = glove_to_tree(p)
    coloring = color_edges(tree)
    relocated, transported = relocate_reds(tree, coloring)
    return walk_to_motzkin(relocated, transported)


def explicit_a(p: DyckPath) -> MotzkinPath:
    """One-shot route through the colored tree on all-odd inputs; agrees with phi_a.

    Other inputs are rejected before any tree work: a mixed path's tree
    has edges without a well-defined parity.
    """
    _require_class(p, PeakParityClass.ALL_ODD)
    return _explicit(p)


def explicit_b(p: DyckPath) -> MotzkinPath:
    """The colored-tree route on all-even inputs; agrees with phi_b."""
    _require_class(p, PeakParityClass.ALL_EVEN)
    return _explicit(p)


_EXPAND_PAIRS = str.maketrans({"U": "UU", "F": "DU", "D": "DD"})
_FIRST_OF_PAIR = bytes.maketrans(b"F", b"D")
_SECOND_OF_PAIR = bytes.maketrans(b"F", b"U")

# a pair's code is its first step's (U 0, D 1) plus its second step's
# (U 0, D 2); the codes fit in a byte each, so adding the two rows of
# codes as integers adds every pair at once without carries
_FIRST_STEP_CODE = bytes.maketrans(b"UD", b"\x00\x01")
_SECOND_STEP_CODE = bytes.maketrans(b"UD", b"\x00\x02")
_UD_PAIR = 2
_PAIR_IMAGE = bytes.maketrans(b"\x00\x01\x03", b"UFD")


def _substitute_pairs(text: str) -> str:
    # even length is the caller's responsibility
    steps = text.encode("ascii")
    codes = (
        int.from_bytes(steps[0::2].translate(_FIRST_STEP_CODE), "big")
        + int.from_bytes(steps[1::2].translate(_SECOND_STEP_CODE), "big")
    ).to_bytes(len(steps) // 2, "big")
    bad = codes.find(_UD_PAIR)
    if bad >= 0:
        raise UnexpectedUDPair(bad)
    return codes.translate(_PAIR_IMAGE).decode("ascii")


def _expand_pairs(text: str) -> str:
    """Each Motzkin step as its Dyck pair: U to UU, F to DU, D to DD."""
    # str.translate with two-letter values goes one letter at a time; it
    # beats the two byte rows only on short texts
    if len(text) > _CHUNK_STEPS:
        return _expand_by_rows(text)
    return text.translate(_EXPAND_PAIRS)


def _expand_by_rows(text: str) -> str:
    """_expand_pairs as two byte rows, the pairs' first and second steps."""
    steps = text.encode("ascii")
    pairs = bytearray(2 * len(steps))
    pairs[0::2] = steps.translate(_FIRST_OF_PAIR)
    pairs[1::2] = steps.translate(_SECOND_OF_PAIR)
    return pairs.decode("ascii")


def tirrell_a(p: DyckPath) -> MotzkinPath:
    """Pair-substitution route on all-odd inputs.

    Drops the first and last steps, reads the remaining steps two at a
    time (UU to U, DU to F, DD to D), and prepends a flat.  A UD pair
    never occurs here for all-odd inputs.
    """
    _require_class(p, PeakParityClass.ALL_ODD)
    return MotzkinPath("F" + _substitute_pairs(p.steps[1:-1]))


def tirrell_b(p: DyckPath) -> MotzkinPath:
    """Pair-substitution route on all-even inputs, pairing all steps."""
    _require_class(p, PeakParityClass.ALL_EVEN)
    return MotzkinPath(_substitute_pairs(p.steps))


def tirrell_a_inv(m: MotzkinPath) -> DyckPath:
    """Invert tirrell_a: expand each step and restore the dropped U and D."""
    if not m.steps.startswith("F"):
        raise NotInImage("path does not start with a ground-level flat step")
    # the rest of m is a Motzkin path, whose expansion dips to -1 only
    # inside a ground flat; the leading U lifts it and the final D closes it
    return DyckPath("U" + _expand_pairs(m.steps[1:]) + "D")


def tirrell_b_inv(m: MotzkinPath) -> DyckPath:
    """Invert tirrell_b.  Rejects paths with ground-level flats."""
    try:
        return DyckPath(_expand_pairs(m.steps))
    except BelowGround as exc:
        # the expansion is at twice the Motzkin level after each pair, so
        # only a ground flat, F -> DU at level 0, dips below: first at 2g
        raise NotInImage(
            f"flat step at ground level at position {exc.position // 2}"
        ) from None


class MapKind(Enum):
    """Names of the ten map directions exposed on the command line."""

    PHI_A = "phi-a"
    PHI_B = "phi-b"
    PSI_A = "psi-a"
    PSI_B = "psi-b"
    EXPLICIT_A = "explicit-a"
    EXPLICIT_B = "explicit-b"
    TIRRELL_A = "tirrell-a"
    TIRRELL_B = "tirrell-b"
    TIRRELL_A_INV = "tirrell-a-inv"
    TIRRELL_B_INV = "tirrell-b-inv"

    @property
    def takes_dyck(self) -> bool:
        """True when the map consumes Dyck paths; psi-* and *-inv read Motzkin paths."""
        return not (self.value.startswith("psi") or self.value.endswith("-inv"))


# the one place a map direction is looked up: apply_map and verify read it
_IMPLEMENTATION = {
    MapKind.PHI_A: phi_a,
    MapKind.PHI_B: phi_b,
    MapKind.PSI_A: psi_a,
    MapKind.PSI_B: psi_b,
    MapKind.EXPLICIT_A: explicit_a,
    MapKind.EXPLICIT_B: explicit_b,
    MapKind.TIRRELL_A: tirrell_a,
    MapKind.TIRRELL_B: tirrell_b,
    MapKind.TIRRELL_A_INV: tirrell_a_inv,
    MapKind.TIRRELL_B_INV: tirrell_b_inv,
}


def apply_map(kind: MapKind, path):
    """Apply one of the named maps to an already validated path."""
    return _IMPLEMENTATION[kind](path)
