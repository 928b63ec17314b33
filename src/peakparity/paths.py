"""Lattice path value types and the peak-parity analysis built on them.

A Dyck path is a balanced sequence of up and down steps that never dips
below its starting level.  A Motzkin path additionally allows flat steps.
Both hold their validated one-letter text over U, D and F in the field
``steps``, so paths are sliced, joined and searched as plain strings.  The
functions here classify Dyck paths by the parities of their peak heights,
decompose paths at returns to ground level, and collect the step
statistics that the bijection maps preserve.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Union


class PeakParityError(Exception):
    """Base class for every domain error raised by this package."""

    def __reduce__(self):
        # Exception's own pickling calls the class with self.args, which
        # fails or doubles the message when __init__ takes other parameters
        return _rebuild_error, (type(self), self.args, self.__dict__)


def _rebuild_error(cls, args, attributes):
    """Unpickle a domain error without running its __init__."""
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(attributes)
    return exc


class InvalidCharacter(PeakParityError):
    """A character outside the step alphabet was found while parsing."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"invalid step character {char!r} at position {position}")


class ContainsFlat(PeakParityError):
    """A flat step appeared where only up and down steps are allowed."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"flat step at position {position} is not allowed here")


class UnbalancedPath(PeakParityError):
    """The steps do not return to the starting level."""

    def __init__(self, level: int):
        self.level = level
        super().__init__(f"path ends at level {level}, expected 0")


class BelowGround(PeakParityError):
    """A step took the path below its starting level."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"path drops below ground at position {position}")


class NotInImage(PeakParityError):
    """The path cannot be produced by the map whose inverse was requested."""


class PeakParityClass(Enum):
    """Which parities occur among a Dyck path's peak heights."""

    ALL_ODD = "all-odd"
    ALL_EVEN = "all-even"
    MIXED = "mixed"


_NOT_A_STEP = re.compile("[^UDF]")


def _validate(text: str, allow_flat: bool) -> None:
    """Raise the first violation: any bad character, then steps in order, then balance."""
    bad = _NOT_A_STEP.search(text)
    if bad:
        raise InvalidCharacter(bad.start(), bad.group())
    level = 0
    for i, ch in enumerate(text):
        if ch == "U":
            level += 1
        elif ch == "D":
            level -= 1
            if level < 0:
                raise BelowGround(i)
        elif not allow_flat:
            raise ContainsFlat(i)
    if level != 0:
        raise UnbalancedPath(level)


@dataclass(frozen=True)
class _Path:
    """Validated step text; instances of different subclasses never compare equal."""

    steps: str = ""
    allows_flat: ClassVar[bool]

    def __post_init__(self):
        _validate(self.steps, self.allows_flat)

    @classmethod
    def from_text(cls, text: str):
        return cls(text)

    @classmethod
    def _built(cls, steps: str):
        # text this package builds step by step is valid by construction;
        # skipping the check keeps it off every generated path and slice
        path = object.__new__(cls)
        object.__setattr__(path, "steps", steps)
        return path

    def render(self) -> str:
        return self.steps

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return self.steps

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.steps!r})"


class DyckPath(_Path):
    """Balanced up/down text that never goes below its starting level.

    Validation happens at construction, so every instance in circulation
    is a well-formed path.  The empty path is allowed.
    """

    allows_flat = False

    @property
    def semilength(self) -> int:
        """Number of up steps, half the step count."""
        return len(self.steps) // 2


class MotzkinPath(_Path):
    """Balanced up/down/flat text that never goes below its start."""

    allows_flat = True

    @property
    def length(self) -> int:
        return len(self.steps)


Path = Union[DyckPath, MotzkinPath]


def _ground_points(text: str) -> list[int]:
    """Every i in 0..len(text) such that a balanced path is at ground level after i steps."""
    points = [0]
    level = 0
    for i, ch in enumerate(text, 1):
        if ch == "U":
            level += 1
        elif ch == "D":
            level -= 1
        if level == 0:
            points.append(i)
    return points


def _arch_bounds(text: str) -> list[int]:
    """Ground points of a path made of arches only.

    Raises NotInImage at the first flat step taken at ground level.
    """
    points = _ground_points(text)
    for g in points[:-1]:
        if text[g] == "F":
            raise NotInImage(f"flat step at ground level at position {g}")
    return points


def peaks(p: DyckPath) -> list[tuple[int, int]]:
    """(position, height) of every up step immediately followed by a down step.

    The position is the index of the up step and the height is the level
    reached by it.  The empty path has no literal peak; by convention it
    reports a single peak of height 0 at position -1, matching the one
    leaf, at depth 0, of the single-node tree that spells it.
    """
    text = p.steps
    if not text:
        return [(-1, 0)]
    found = []
    level = counted = 0
    i = text.find("UD")
    while i >= 0:
        level += text.count("U", counted, i + 1) - text.count("D", counted, i + 1)
        counted = i + 1
        found.append((i, level))
        i = text.find("UD", i + 2)
    return found


# a UD at an even index is a peak at odd height, at an odd index at even height
_ODD_PEAK = re.compile("(?:..)*?UD").match
_EVEN_PEAK = re.compile(".(?:..)*?UD").match


def classify(p: DyckPath) -> PeakParityClass:
    """Sort a Dyck path by the parities occurring among its peak heights.

    A peak's height is its up step's 1-based position minus twice the downs before it.
    The empty path has no peak and counts as all-even.  A flat step would
    break the parity rule, so anything but a DyckPath raises TypeError.
    """
    if not isinstance(p, DyckPath):
        raise TypeError(f"classify takes a DyckPath, not {type(p).__name__}")
    if not _ODD_PEAK(p.steps):
        return PeakParityClass.ALL_EVEN
    if not _EVEN_PEAK(p.steps):
        return PeakParityClass.ALL_ODD
    return PeakParityClass.MIXED


def decompose(p: DyckPath) -> tuple[DyckPath, ...]:
    """Interior of each return-to-ground factor, in order.

    Every nonempty Dyck path factors uniquely as U P1 D U P2 D ... U Pk D
    where each cut is a return to ground level; the Pi are returned.  The
    empty path yields the empty tuple.
    """
    cuts = _ground_points(p.steps)
    return tuple(
        DyckPath._built(p.steps[a + 1 : b - 1]) for a, b in zip(cuts, cuts[1:])
    )


@dataclass(frozen=True)
class PathStats:
    """Statistics of the steps, preserved or transported by the maps.

    peaks counts literal up-down factors, so the empty path has 0 here
    even though the peaks function reports it one by convention.
    """

    peaks: int
    ground_returns: int
    ground_flats: int
    u_count: int
    f_count: int
    uu_count: int
    fu_count: int

    @property
    def ground_downs(self) -> int:
        """Down steps that land on ground level."""
        return self.ground_returns

    @property
    def peak_image(self) -> int:
        """(#U - #UU) + (#F - #FU), the peak count transported to an image path."""
        return (self.u_count - self.uu_count) + (self.f_count - self.fu_count)

    keys: ClassVar[tuple[str, ...]] = (
        "peaks",
        "ground_returns",
        "ground_flats",
        "ground_downs",
        "u_count",
        "f_count",
        "uu_count",
        "fu_count",
        "peak_image",
    )

    def as_dict(self) -> dict[str, int]:
        return {key: getattr(self, key) for key in self.keys}


def stats(path: Path) -> PathStats:
    """Every statistic for a Dyck or Motzkin path, from one level scan and counts."""
    text = path.steps
    grounds = _ground_points(text)
    # each step landing on a ground point is a return or a ground flat
    gflats = sum(text[g] == "F" for g in grounds[:-1])
    u = text.count("U")
    fu = text.count("FU")
    # a U either follows a U or starts a run of U's, and a run starts at
    # the beginning or right after a D or an F
    uu = u - text.startswith("U") - text.count("DU") - fu
    return PathStats(
        peaks=text.count("UD"),
        ground_returns=len(grounds) - 1 - gflats,
        ground_flats=gflats,
        u_count=u,
        f_count=text.count("F"),
        uu_count=uu,
        fu_count=fu,
    )


def split_at_ground_flats(m: MotzkinPath) -> tuple[MotzkinPath, ...]:
    """Cut before every ground-level flat step.

    Defined on paths that start with a ground-level flat, so every
    segment begins with one.  Raises NotInImage otherwise.  The empty
    path splits into no segments.
    """
    text = m.steps
    if not text:
        return ()
    if text[0] != "F":
        raise NotInImage("path does not start with a ground-level flat step")
    cuts = [g for g in _ground_points(text)[:-1] if text[g] == "F"]
    cuts.append(len(text))
    return tuple(MotzkinPath._built(text[a:b]) for a, b in zip(cuts, cuts[1:]))


def split_at_ground_downs(m: MotzkinPath) -> tuple[MotzkinPath, ...]:
    """Cut after every down step landing on ground level.

    Defined on paths with no ground-level flat step; each segment is then
    a single arch.  Raises NotInImage if a ground-level flat is present.
    """
    cuts = _arch_bounds(m.steps)
    return tuple(MotzkinPath._built(m.steps[a:b]) for a, b in zip(cuts, cuts[1:]))
