"""Shared helpers and hypothesis strategies."""
from __future__ import annotations

import random

from hypothesis import strategies as st

from peakparity import (
    DyckPath,
    MotzkinPath,
    PathClass,
    generate,
)


def d(text: str) -> DyckPath:
    return DyckPath.from_text(text)


def m(text: str) -> MotzkinPath:
    return MotzkinPath.from_text(text)


def seeded_motzkin(rng: random.Random, length: int, ground_flats: bool) -> str:
    """A random Motzkin walk of the given length; each step is any that can finish."""
    steps, level = [], 0
    for left in range(length - 1, -1, -1):
        options = []
        if left >= level + 1:
            options.append("U")
        if left >= level and (ground_flats or level):
            options.append("F")
        # a return to ground with one step left would need a ground flat
        if level and (ground_flats or level > 1 or left != 1):
            options.append("D")
        step = rng.choice(options)
        steps.append(step)
        level += {"U": 1, "F": 0, "D": -1}[step]
    return "".join(steps)


@st.composite
def dyck_paths(draw, max_semilength: int = 10) -> DyckPath:
    n = draw(st.integers(0, max_semilength))
    ups_left = n
    downs_left = n
    steps = []
    while ups_left or downs_left:
        can_up = ups_left > 0
        can_down = downs_left > ups_left
        if can_up and can_down:
            go_up = draw(st.booleans())
        else:
            go_up = can_up
        if go_up:
            steps.append("U")
            ups_left -= 1
        else:
            steps.append("D")
            downs_left -= 1
    return DyckPath("".join(steps))


@st.composite
def motzkin_paths(draw, max_length: int = 12) -> MotzkinPath:
    length = draw(st.integers(0, max_length))
    steps = []
    level = 0
    for remaining in range(length, 0, -1):
        options = []
        if remaining - 1 >= level + 1:
            options.append("U")
        if remaining - 1 >= level:
            options.append("F")
        if level > 0:
            options.append("D")
        step = draw(st.sampled_from(options))
        steps.append(step)
        level += {"U": 1, "F": 0, "D": -1}[step]
    return MotzkinPath("".join(steps))


# small pools for class-restricted strategies, built once at import
_MAX_POOL_N = 7
_ODD_POOL = {
    n: list(generate(PathClass.DYCK_ALL_ODD, n)) for n in range(_MAX_POOL_N + 1)
}
_EVEN_POOL = {
    n: list(generate(PathClass.DYCK_ALL_EVEN, n)) for n in range(_MAX_POOL_N + 1)
}


@st.composite
def odd_dyck_paths(draw) -> DyckPath:
    n = draw(st.integers(1, _MAX_POOL_N))
    return draw(st.sampled_from(_ODD_POOL[n]))


@st.composite
def even_dyck_paths(draw) -> DyckPath:
    n = draw(st.integers(0, _MAX_POOL_N))
    pool = _EVEN_POOL[n]
    if not pool:
        n = 2
        pool = _EVEN_POOL[n]
    return draw(st.sampled_from(pool))
