"""Exhaustive generation of the path classes and the counting sequences
they are claimed to follow.

Generation is lexicographic with U before F before D.  The counters are
computed independently of the generators (convolution and recurrence
formulas), so comparing the two is a genuine cross-check rather than one
piece of code agreeing with itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

from .paths import (
    DyckPath,
    MotzkinPath,
    PeakParityClass,
    PeakParityError,
    classify,
)


class ClaimViolation(PeakParityError):
    """An exhaustively generated count disagrees with its counting formula."""

    def __init__(self, n: int, column: str, expected: int, actual: int):
        self.n = n
        self.column = column
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"counting claim failed at n={n}: {column} expected {expected}, got {actual}"
        )


class PathClass(Enum):
    """Enumerable path families; n means semilength for Dyck, length for Motzkin."""

    ALL_DYCK = "all-dyck"
    DYCK_ALL_ODD = "dyck-all-odd"
    DYCK_ALL_EVEN = "dyck-all-even"
    DYCK_MIXED = "dyck-mixed"
    ALL_MOTZKIN = "all-motzkin"
    MOTZKIN_START_FLAT = "motzkin-start-flat"
    MOTZKIN_NO_GROUND_FLAT = "motzkin-no-ground-flat"


def lex_key(path: Union[DyckPath, MotzkinPath]) -> tuple[int, ...]:
    """Sort key realizing the U before F before D generation order."""
    return tuple(map("UFD".index, path.steps))


def _balanced(
    total: int,
    flat_from: int | None = None,
    peak_parity: int | None = None,
    start: str = "",
    stop: int | None = None,
) -> Iterator[str]:
    """Nonnegative balanced step texts of the given length, in lex order.

    F goes only at levels of at least flat_from, if set.  A D right after
    a U closes a peak at the parity of the prefix length, which must then
    equal peak_parity, if set.  Every prefix the walk visits is extended
    by some text it yields.

    The walk resumes from start, a prefix it visits, and yields the texts
    that extend it.  With stop, it yields the prefixes of that length in
    place of extending them, so resuming from each of those in turn
    yields the whole walk.
    """
    # depth first, and the last push is popped first, so pushing D, F, U
    # yields U < F < D.  A child is pushed only if some text extends it.
    # Beyond its level being at most the steps left, two states are dead:
    # a return to ground leaving one step (only a ground flat fits) or two
    # (only a peak at height 1); and a U to a peak height of the wrong
    # parity leaving no steps to climb once more.  Two tables hold the
    # rule: a D may leave from levels of at least down_from[remaining],
    # and a U from level h needs at least up_top[h] + 2 steps remaining.
    dead_return = 1 if flat_from == 1 else 2 if peak_parity == 0 else None
    down_from = [1] * (total + 1)
    if dead_return is not None and dead_return < total:
        down_from[dead_return + 1] = 2
    up_top = [h + 2 * (h % 2 == peak_parity) for h in range(total + 1)]
    # a prefix is yielded once at most this many steps remain
    done = 0 if stop is None else max(total - stop, 0)
    stack = [(start, start.count("U") - start.count("D"))]
    while stack:
        prefix, level = stack.pop()
        remaining = total - len(prefix)
        if remaining <= done:
            yield prefix
            continue
        if level >= down_from[remaining] and (
            peak_parity is None or prefix[-1] != "U" or len(prefix) % 2 == peak_parity
        ):
            stack.append((prefix + "D", level - 1))
        if flat_from is not None and level >= flat_from and remaining - 1 >= level:
            stack.append((prefix + "F", level))
        if remaining - 2 >= up_top[level]:
            stack.append((prefix + "U", level + 1))


# the peak parity each Dyck class's walk prunes to
_PEAK_PARITY = {
    PathClass.ALL_DYCK: None,
    PathClass.DYCK_ALL_ODD: 1,
    PathClass.DYCK_ALL_EVEN: 0,
}


def _dyck_texts(
    path_class: PathClass, n: int, start: str = "", stop: int | None = None
) -> Iterator[str]:
    """The step texts of a Dyck class at semilength n that begin with
    start, in lex order; with stop, their prefixes of that length instead.

    The class's walk resumes from start only if its own walk stopped at
    that length yields start, so a start it never visits gives no text.
    """
    parity = _PEAK_PARITY[path_class]
    if parity == 1 and n == 0:
        # the empty path counts as all-even
        return iter(())
    if start and start not in _balanced(2 * n, peak_parity=parity, stop=len(start)):
        return iter(())
    return _balanced(2 * n, peak_parity=parity, start=start, stop=stop)


def generate(path_class: PathClass, n: int) -> Iterator[Union[DyckPath, MotzkinPath]]:
    """Every path of the class at size n, in lex order with U < F < D.

    The walk builds only valid text, so the paths skip validation.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if path_class is PathClass.DYCK_MIXED:
        # no local rule prunes the mixed class, so it alone is a filter
        dyck = generate(PathClass.ALL_DYCK, n)
        return (p for p in dyck if classify(p) is PeakParityClass.MIXED)
    if path_class is PathClass.MOTZKIN_START_FLAT:
        # no path of length 0 starts with a flat
        texts = _balanced(n, flat_from=0, start="F") if n else ()
        return map(MotzkinPath._built, texts)
    if path_class is PathClass.ALL_MOTZKIN:
        return map(MotzkinPath._built, _balanced(n, flat_from=0))
    if path_class is PathClass.MOTZKIN_NO_GROUND_FLAT:
        return map(MotzkinPath._built, _balanced(n, flat_from=1))
    return map(DyckPath._built, _dyck_texts(path_class, n))


_CATALAN: list[int] = [1]
_MOTZKIN: list[int] = [1]


def catalan(n: int) -> int:
    """Number of Dyck paths of semilength n, by the convolution recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_CATALAN) <= n:
        m = len(_CATALAN)
        _CATALAN.append(sum(_CATALAN[i] * _CATALAN[m - 1 - i] for i in range(m)))
    return _CATALAN[n]


def motzkin(n: int) -> int:
    """Number of Motzkin paths of length n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_MOTZKIN) <= n:
        m = len(_MOTZKIN)
        _MOTZKIN.append(
            _MOTZKIN[m - 1] + sum(_MOTZKIN[k] * _MOTZKIN[m - 2 - k] for k in range(m - 1))
        )
    return _MOTZKIN[n]


def riordan(n: int) -> int:
    """Number of Motzkin paths of length n with no ground-level flat step."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    r = 1
    for m in range(1, n + 1):
        r = motzkin(m - 1) - r
    return r


@dataclass(frozen=True)
class CountRow:
    """Observed class sizes at one semilength next to their claimed formulas."""

    n: int
    catalan: int
    odd_count: int
    motzkin_prev: int
    even_count: int
    riordan: int
    mixed_count: int


def count_table(max_n: int) -> tuple[CountRow, ...]:
    """Exhaustive class counts for semilengths 1 through max_n.

    Every row is checked against the counting formulas on the way out;
    a mismatch raises ClaimViolation rather than returning bad data.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    pure = (PathClass.ALL_DYCK, PathClass.DYCK_ALL_ODD, PathClass.DYCK_ALL_EVEN)
    rows = []
    for n in range(1, max_n + 1):
        total, odd, even = (sum(1 for _ in generate(c, n)) for c in pure)
        row = CountRow(
            n=n,
            catalan=catalan(n),
            odd_count=odd,
            motzkin_prev=motzkin(n - 1),
            even_count=even,
            riordan=riordan(n),
            mixed_count=total - odd - even,
        )
        if total != row.catalan:
            raise ClaimViolation(n, "catalan", row.catalan, total)
        if odd != row.motzkin_prev:
            raise ClaimViolation(n, "motzkin_prev", row.motzkin_prev, odd)
        if even != row.riordan:
            raise ClaimViolation(n, "riordan", row.riordan, even)
        rows.append(row)
    return tuple(rows)
