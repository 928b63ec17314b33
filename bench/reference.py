"""Seeded class members and their images, computed without the package.

Every benchmark input is built here from a Motzkin path by the pair
expansion U -> UU, F -> DU, D -> DD.  A Motzkin path of length n with no
flat step at ground level expands to an all-even Dyck path of semilength
n; a Motzkin path F M' of length n expands, as U expand(M') D, to an
all-odd Dyck path of semilength n.  All three routes of the package send
the Dyck path back to the Motzkin path it came from, so the Motzkin path
is the reference image for every forward map and the Dyck path the
reference output of every inverse map.

Paths are plain strings over U, F, D.  Nothing here imports peakparity.
"""
from __future__ import annotations

import random

_EXPANSION = {"U": "UU", "F": "DU", "D": "DD"}
_LETTER = {1: "U", 0: "F", -1: "D"}


def expand(motzkin: str) -> str:
    """Pair expansion of a Motzkin path into a Dyck path of twice the length."""
    return "".join(_EXPANSION[c] for c in motzkin)


def odd_member(image: str) -> str:
    """All-odd Dyck path whose image is `image`, a Motzkin path starting with F."""
    if not image.startswith("F"):
        raise ValueError(f"odd-side image must start with F: {image!r}")
    return "U" + expand(image[1:]) + "D"


def even_member(image: str) -> str:
    """All-even Dyck path whose image is `image`, a Motzkin path with no ground flat."""
    return expand(image)


def has_ground_flat(motzkin: str) -> bool:
    level = 0
    for c in motzkin:
        if c == "F" and level == 0:
            return True
        level += (c == "U") - (c == "D")
    return False


def peak_parity(dyck: str) -> str:
    """'odd', 'even' or 'mixed' by the parities of the peak heights.

    The empty path has no peak and counts as all-even, as in the paper.
    """
    parities = set()
    level = 0
    for i, c in enumerate(dyck):
        level += 1 if c == "U" else -1
        if c == "U" and dyck[i + 1 : i + 2] == "D":
            parities.add(level % 2)
    if not parities or parities == {0}:
        return "even"
    return "odd" if parities == {1} else "mixed"


def uniform_motzkin(n: int, rng: random.Random) -> str:
    """A Motzkin path of length n drawn uniformly at random.

    A Motzkin path of length n is a Lukasiewicz word of a unary-binary
    tree with n + 1 nodes, less its final down step.  The number k of
    binary nodes is drawn with weight equal to the number of step
    multisets with k up, n - 2k flat and k + 1 down steps; a uniform
    shuffle of that multiset is then rotated to start just after its
    first lowest prefix, which by the cycle lemma is the unique rotation
    that is a Lukasiewicz word.  Exact big-integer weights keep the draw
    uniform at any length, in O(n) memory.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    nodes = n + 1
    weights = []
    weight = nodes  # nodes! / (0! (nodes - 1)! 1!)
    k = 0
    while 2 * k + 1 <= nodes:
        weights.append(weight)
        weight = weight * (nodes - 1 - 2 * k) * (nodes - 2 - 2 * k) // ((k + 1) * (k + 2))
        k += 1
    pick = rng.randrange(sum(weights))
    for k, weight in enumerate(weights):
        if pick < weight:
            break
        pick -= weight
    steps = [1] * k + [0] * (nodes - 1 - 2 * k) + [-1] * (k + 1)
    rng.shuffle(steps)
    level = lowest = 0
    cut = 0
    for i, step in enumerate(steps):
        level += step
        if level < lowest:
            lowest, cut = level, i + 1
    word = steps[cut:] + steps[:cut]
    return "".join(_LETTER[s] for s in word[:-1])


def uniform_no_ground_flat(n: int, rng: random.Random) -> str:
    """A Motzkin path of length n with no ground flat, uniformly at random.

    Rejection from uniform_motzkin; about a quarter of Motzkin paths
    qualify, so a few draws suffice.
    """
    while True:
        path = uniform_motzkin(n, rng)
        if not has_ground_flat(path):
            return path


def area(motzkin: str) -> int:
    """Sum of the heights reached after each step."""
    level = total = 0
    for c in motzkin:
        level += (c == "U") - (c == "D")
        total += level
    return total


def typical(draw, n: int, rng: random.Random) -> str:
    """A draw(n, rng) whose area lies within 2% (at least 1) of 0.5 n^1.5.

    0.5 n^1.5 is about the mean area of a uniform Motzkin path of length
    n (sqrt(2/3) sqrt(pi/8) n^1.5 for the scaled Brownian excursion).
    The area sets the cost of every map that recurses on the height, and
    a single uniform draw varies it by about 40% from seed to seed; the
    result is uniform among the paths of typical area, so every seed
    presents the same amount of work.  About twenty draws suffice.
    """
    target = 0.5 * n**1.5
    while True:
        path = draw(n, rng)
        if abs(area(path) - target) <= max(0.02 * target, 1):
            return path


def odd_image(n: int, rng: random.Random) -> str:
    """Uniform image of a uniform all-odd Dyck path of semilength n >= 1."""
    return "F" + uniform_motzkin(n - 1, rng)


def motzkin_paths(n: int) -> list[str]:
    """Every Motzkin path of length n, in lexicographic order with U < F < D."""
    out: list[str] = []

    def extend(prefix: str, level: int) -> None:
        remaining = n - len(prefix)
        if remaining == level:
            out.append(prefix + "D" * level)
            return
        if remaining >= level + 2:
            extend(prefix + "U", level + 1)
        extend(prefix + "F", level)
        if level:
            extend(prefix + "D", level - 1)

    extend("", 0)
    return out


def dyck_paths(n: int) -> list[str]:
    """Every Dyck path of semilength n, in lexicographic order with U < D."""
    out: list[str] = []

    def extend(prefix: str, ups: int, level: int) -> None:
        if ups == n:
            out.append(prefix + "D" * level)
            return
        extend(prefix + "U", ups + 1, level + 1)
        if level:
            extend(prefix + "D", ups, level - 1)

    extend("", 0, 0)
    return out


def class_images(max_n: int) -> tuple[list[str], list[str]]:
    """Images of every all-odd and every all-even Dyck path of semilength 0..max_n.

    Odd images are F followed by any Motzkin path of length n - 1; even
    images are the Motzkin paths of length n with no ground flat.
    """
    odd = ["F" + m for n in range(1, max_n + 1) for m in motzkin_paths(n - 1)]
    even = [m for n in range(max_n + 1) for m in motzkin_paths(n) if not has_ground_flat(m)]
    return odd, even
