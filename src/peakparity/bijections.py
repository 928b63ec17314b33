"""Three interchangeable routes between parity-constrained Dyck paths and
restricted Motzkin paths.

All routes send a Dyck path of semilength n whose peaks all sit at odd
heights to a Motzkin path of length n starting with a ground-level flat
step, and a path whose peaks all sit at even heights to a Motzkin path of
length n with no ground-level flat step at all.

phi_a and phi_b unroll the paper's recursion on the return-to-ground
factorization into one pass over the steps, psi_a and psi_b invert them
in one pass, explicit_a and explicit_b go through the colored-tree
rewrite in one shot, and the tirrell maps substitute adjacent step pairs
directly.  The routes agree pointwise; the verification module checks
that exhaustively.
"""
from __future__ import annotations

from .paths import (
    DyckPath,
    MotzkinPath,
    NotInImage,
    PeakParityClass,
    PeakParityError,
    _arch_bounds,
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


class InvalidExpansion(PeakParityError):
    """Pair expansion produced a step sequence that is not a Dyck path."""


def _require_class(p: DyckPath, expected: PeakParityClass) -> None:
    actual = classify(p)
    if actual is not expected:
        raise WrongParityClass(actual, expected)


def _phi(text: str, on_a: bool) -> MotzkinPath:
    # on_a: the factors starting at the current level are phi_a's (even
    # levels under phi_a, odd under phi_b); each emits F, which rest drops
    # right after a U.  A phi_b factor emits U, its interior's image, D.
    out, prev = [], ""
    for ch in text:
        if ch == "U" and not on_a:
            out.append("U")
        elif ch == "U" and prev != "U":
            out.append("F")
        elif ch == "D" and on_a:
            out.append("D")
        on_a, prev = not on_a, ch
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
    # one (side, a psi_a segment is open) frame per open level.  An arch
    # U A D of psi_b reads A as psi_a(F A): its U opens the arch and A's
    # first segment, a flat in A closes one segment and opens the next,
    # and its D closes the last segment and the arch
    out, frames = [], [(side, False)]
    for i, ch in enumerate(text):
        if ch == "U":
            out.append("UU")
            frames.append(("a", True))
        elif ch == "D":
            out.append("DD")
            frames.pop()
        elif frames[-1][0] == "b":
            raise NotInImage(f"flat step at ground level at position {i}")
        else:
            out.append("DU" if frames[-1][1] else "U")
            frames[-1] = ("a", True)
    return DyckPath("".join(out) + ("D" if frames[0][1] else ""))


def psi_a(m: MotzkinPath) -> DyckPath:
    """Invert phi_a.  Accepts exactly the Motzkin paths starting with a flat.

    Each segment F S, cut before a ground flat, contributes U psi_b(S) D.
    """
    if not m.steps:
        raise NotInImage("the empty path is not in the image of phi_a")
    if m.steps[0] != "F":
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


_PAIR_IMAGE = {"UU": "U", "DU": "F", "DD": "D"}

_EXPAND_PAIRS = str.maketrans({"U": "UU", "F": "DU", "D": "DD"})


def _substitute_pairs(text: str) -> str:
    # even length is the caller's responsibility
    out = []
    for k in range(0, len(text), 2):
        image = _PAIR_IMAGE.get(text[k : k + 2])
        if image is None:
            raise UnexpectedUDPair(k // 2)
        out.append(image)
    return "".join(out)


def _expanded_dyck(text: str) -> DyckPath:
    try:
        return DyckPath(text)
    except PeakParityError as exc:
        raise InvalidExpansion(f"expanded steps are not a Dyck path: {exc}") from exc


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
    return _expanded_dyck("U" + m.steps[1:].translate(_EXPAND_PAIRS) + "D")


def tirrell_b_inv(m: MotzkinPath) -> DyckPath:
    """Invert tirrell_b.  Rejects paths with ground-level flats."""
    _arch_bounds(m.steps)  # raises NotInImage at a ground-level flat
    return _expanded_dyck(m.steps.translate(_EXPAND_PAIRS))


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
