"""Ordered rooted trees and the edge-coloring route from Dyck to Motzkin paths.

A Dyck path corresponds to an ordered rooted tree by the usual traversal
correspondence: an up step descends into a new child, a down step climbs
back out.  On trees whose leaves all sit at depths of one parity, each
edge gets a well-defined parity (the parity of the edge count from its
lower endpoint down to any leaf below it).  Odd-parity edges are colored
blue, the leftmost child edge of each blue edge is colored red, and the
rest are black.  Each red edge is then relocated, alone, to the right
end of its parent's children; reading the tree in preorder and emitting
U for blue, D for red, F for black gives the recursive maps' Motzkin path.

A tree is one flat array: nodes are numbered in preorder with the root
as 0, and edge i joins node i + 1 to its parent ``parent[i]``.  So edges
are numbered in preorder too, and a coloring is a plain string with one
letter per edge in that order: B (blue), R (red) or K (black).  Every
pass below is a loop over these arrays or a whole-string operation on
the letters: the coloring makes one loop and then byte operations, and
relocation takes one loop.  None recurses, so tree depth is limited
only by memory.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .paths import DyckPath, MotzkinPath, PeakParityError


class IllDefinedParity(PeakParityError):
    """An edge has leaf descendants at both parities, so it has no parity."""

    def __init__(self, edge: int):
        self.edge = edge
        super().__init__(f"edge {edge} has leaf descendants at both parities")


class InvalidMotzkinOutput(PeakParityError):
    """A colored-tree walk produced a step sequence that is not a Motzkin path."""


@dataclass(frozen=True)
class OrderedTree:
    """Ordered rooted tree as its preorder parent array.

    ``parent[i]`` is the parent of node i + 1; the root is node 0.  In
    preorder that parent is node i or one of its ancestors; any other
    array raises ValueError naming the first index where this fails.
    """

    parent: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parent", tuple(self.parent))
        path = [0]  # root to the node numbered last
        for i, p in enumerate(self.parent):
            while path and path[-1] != p:
                path.pop()
            if not path:
                raise ValueError(
                    f"not a preorder parent array: parent[{i}] = {p!r} is not "
                    f"node {i} or an ancestor of it"
                )
            path.append(i + 1)

    @classmethod
    def _built(cls, parent: list[int]) -> "OrderedTree":
        # arrays this module builds in preorder or reads off a DyckPath are
        # valid by construction; skipping the check keeps it off the hot path
        tree = object.__new__(cls)
        object.__setattr__(tree, "parent", tuple(parent))
        return tree

    @property
    def node_count(self) -> int:
        return len(self.parent) + 1

    @property
    def edge_count(self) -> int:
        return len(self.parent)

    def leaf_depths(self) -> list[int]:
        """Depth of each leaf, left to right."""
        depth = [0]
        for p in self.parent:
            depth.append(depth[p] + 1)
        # in preorder a node's first child, if any, directly follows it
        return [depth[v] for v, q in enumerate((*self.parent, -1)) if q != v]

    def to_parens(self) -> str:
        """Balanced-parentheses form; the single-node tree renders as ''."""
        # the ")" run before each node's "(", then the run after the last node
        depth = [0]
        closes: list[str] = []
        for p in self.parent:
            closes.append(")" * (depth[-1] - depth[p]))
            depth.append(depth[p] + 1)
        closes.append(")" * depth[-1])
        return "(".join(closes)

    @classmethod
    def from_parens(cls, text: str) -> "OrderedTree":
        parent: list[int] = []
        last = [0] * (len(text) + 1)  # node opened last at each depth
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                parent.append(last[depth])
                depth += 1
                last[depth] = len(parent)
            elif ch == ")":
                if not depth:
                    raise ValueError(f"unmatched ')' at position {i}")
                depth -= 1
            else:
                raise ValueError(f"invalid character {ch!r} at position {i}")
        if depth:
            raise ValueError("unmatched '(' at end of input")
        return cls._built(parent)

    def __repr__(self) -> str:
        return f"OrderedTree.from_parens({self.to_parens()!r})"


_STEP_FOR_PAREN = str.maketrans("()", "UD")


def glove_to_tree(p: DyckPath) -> OrderedTree:
    """Tree whose traversal spells the given Dyck path."""
    parent: list[int] = []
    last = [0] * (len(p.steps) // 2 + 1)  # node opened last at each height
    height = 0
    for step in p.steps:
        if step == "U":
            parent.append(last[height])
            height += 1
            last[height] = len(parent)
        else:
            height -= 1
    return OrderedTree._built(parent)


def glove_to_dyck(t: OrderedTree) -> DyckPath:
    """Dyck path spelled by traversing the tree, inverse of glove_to_tree."""
    # the parentheses form of a valid tree is balanced, so the text is a Dyck path
    return DyckPath._built(t.to_parens().translate(_STEP_FOR_PAREN))


# leaf-distance parities below a node as a mask: 1 even, 2 odd, 3 both;
# one more edge on top swaps the two bits
_EVEN, _ODD, _MIXED = 1, 2, 3
_ONE_EDGE_UP = (0, _ODD, _EVEN, _MIXED)
_LETTER_FOR_CODE = bytes.maketrans(bytes((_EVEN, _ODD)), b"KB")


def color_edges(t: OrderedTree) -> str:
    """Color every edge blue (odd parity), red, or black, as B/R/K letters.

    Red edges are the leftmost child edges of blue edges; everything not
    blue or red is black.  A red edge always has even parity, so the two
    rules never collide.  Raises IllDefinedParity at the first edge (in
    preorder) whose parity is not well defined.
    """
    parent = t.parent
    mask = [0] * t.node_count
    # children follow their parent in preorder, so this sees each node
    # after all of its descendants; a node still at 0 is a leaf
    for v in range(len(parent), 0, -1):
        below = mask[v] or _EVEN
        mask[v] = below
        mask[parent[v - 1]] |= _ONE_EDGE_UP[below]
    codes = bytes(mask[1:])  # edge i's code is mask[i + 1]
    mixed = codes.find(_MIXED)
    if mixed >= 0:
        raise IllDefinedParity(mixed)
    # a blue edge's lower node is never a leaf, so the next edge in
    # preorder is its first child edge, of even parity: every B is
    # followed by a K that the red rule turns into an R
    return codes.translate(_LETTER_FOR_CODE).replace(b"BK", b"BR").decode("ascii")


_NOT_A_COLOR = re.compile("[^BRK]")


def _check_letters(t: OrderedTree, letters: str) -> None:
    if len(letters) != t.edge_count:
        raise ValueError(
            f"expected {t.edge_count} color letters, got {len(letters)}"
        )
    bad = _NOT_A_COLOR.search(letters)
    if bad:
        raise ValueError(
            f"invalid color letter {bad.group()!r} at position {bad.start()}"
        )


def relocate_reds(t: OrderedTree, letters: str) -> tuple[OrderedTree, str]:
    """Move each red edge to the rightmost slot under its parent node.

    The red edge travels alone: its lower endpoint becomes a childless
    rightmost child, and the children it used to carry are spliced into
    its old position in order.  Red siblings keep their order at the
    right end.  Node count, edge count and the color multiset are all
    preserved, with colors following their edges.  Returns the
    renumbered tree and its letters in the new preorder.

    One preorder pass: a red node emits nothing, its children hang where
    it would have, and it joins there as a leaf after its parent's subtree.
    """
    _check_letters(t, letters)
    parent: list[int] = []
    moved: list[str] = []
    attach = [0] * t.node_count  # new node each original node's children hang from
    waiting = [-1]  # the parent of each red edge not yet emitted, in preorder
    for v, (p, letter) in enumerate(zip(t.parent, letters), 1):
        while waiting[-1] > p:
            parent.append(attach[waiting.pop()])
            moved.append("R")
        if letter == "R":
            waiting.append(p)
            attach[v] = attach[p]
        else:
            parent.append(attach[p])
            moved.append(letter)
            attach[v] = len(parent)
    parent.extend(attach[u] for u in reversed(waiting[1:]))
    return OrderedTree._built(parent), "".join(moved) + "R" * (len(waiting) - 1)


_STEP_FOR_LETTER = str.maketrans("BRK", "UDF")


def walk_to_motzkin(t: OrderedTree, letters: str) -> MotzkinPath:
    """Read the tree in preorder, emitting one step per edge by color.

    Blue becomes U, red becomes D, black becomes F.  Raises ValueError
    unless there is one B/R/K letter per edge, and InvalidMotzkinOutput
    if the resulting step sequence is not a Motzkin path, which signals
    an inconsistent tree and coloring pair.
    """
    _check_letters(t, letters)
    try:
        return MotzkinPath(letters.translate(_STEP_FOR_LETTER))
    except PeakParityError as exc:
        raise InvalidMotzkinOutput(
            f"walk emitted a non-Motzkin step sequence: {exc}"
        ) from exc
