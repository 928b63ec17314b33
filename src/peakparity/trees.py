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

A tree is its balanced-parentheses text: each "(" enters a new node and
each ")" climbs back out.  Nodes are numbered in preorder with the root
as 0, so edge i is the edge into node i + 1, entered by the i-th "(".
Its preorder parent array, ``parent[i]`` the parent of node i + 1, is
derived from the text when first asked for.  A coloring is a plain
string with one letter per edge in preorder: B (blue), R (red) or K
(black).  The glove maps are translations of the text, the coloring is
byte operations on one marked copy of it, and relocation is one pass
over it.  None recurses, so tree depth is limited only by memory.
"""
from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .paths import DyckPath, MotzkinPath, PeakParityError, _ground_points


class IllDefinedParity(PeakParityError):
    """An edge has leaf descendants at both parities, so it has no parity."""

    def __init__(self, edge: int):
        self.edge = edge
        super().__init__(f"edge {edge} has leaf descendants at both parities")


class InvalidMotzkinOutput(PeakParityError):
    """A colored-tree walk produced a step sequence that is not a Motzkin path."""


@dataclass(frozen=True, init=False)
class OrderedTree:
    """Ordered rooted tree as its balanced-parentheses text.

    ``OrderedTree(parent)`` builds the tree of a preorder parent array:
    ``parent[i]`` is the parent of node i + 1, and the root is node 0.  In
    preorder that parent is node i or one of its ancestors; any other
    array raises ValueError naming the first index where this fails.
    """

    parens: str

    def __init__(self, parent: Iterable[int] = ()):
        # the ")" run before each node's "(", then the run after the last node
        closes: list[str] = []
        path = [0]  # root to the node numbered last
        for i, p in enumerate(parent):
            before = len(path)
            while path and path[-1] != p:
                path.pop()
            if not path:
                raise ValueError(
                    f"not a preorder parent array: parent[{i}] = {p!r} is not "
                    f"node {i} or an ancestor of it"
                )
            closes.append(")" * (before - len(path)))
            path.append(i + 1)
        closes.append(")" * (len(path) - 1))
        object.__setattr__(self, "parens", "(".join(closes))

    @classmethod
    def _built(cls, parens: str) -> "OrderedTree":
        # text this module translates from a DyckPath or writes in one pass
        # is balanced by construction; skipping the check keeps it off the
        # hot path
        tree = object.__new__(cls)
        object.__setattr__(tree, "parens", parens)
        return tree

    @cached_property
    def parent(self) -> tuple[int, ...]:
        """Preorder parent array, derived from the text on first use."""
        parent: list[int] = []
        last = [0] * (len(self.parens) // 2 + 1)  # node opened last at each depth
        depth = 0
        for ch in self.parens:
            if ch == "(":
                parent.append(last[depth])
                depth += 1
                last[depth] = len(parent)
            else:
                depth -= 1
        return tuple(parent)

    @property
    def node_count(self) -> int:
        return len(self.parens) // 2 + 1

    @property
    def edge_count(self) -> int:
        return len(self.parens) // 2

    def leaf_depths(self) -> list[int]:
        """Depth of each leaf, left to right."""
        depth = [0]
        for p in self.parent:
            depth.append(depth[p] + 1)
        # in preorder a node's first child, if any, directly follows it
        return [depth[v] for v, q in enumerate((*self.parent, -1)) if q != v]

    def to_parens(self) -> str:
        """Balanced-parentheses form; the single-node tree renders as ''."""
        return self.parens

    @classmethod
    def from_parens(cls, text: str) -> "OrderedTree":
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                if not depth:
                    raise ValueError(f"unmatched ')' at position {i}")
                depth -= 1
            else:
                raise ValueError(f"invalid character {ch!r} at position {i}")
        if depth:
            raise ValueError("unmatched '(' at end of input")
        return cls._built(text)

    def __repr__(self) -> str:
        return f"OrderedTree.from_parens({self.parens!r})"


_PAREN_FOR_STEP = str.maketrans("UD", "()")
_STEP_FOR_PAREN = str.maketrans("()", "UD")


def glove_to_tree(p: DyckPath) -> OrderedTree:
    """Tree whose traversal spells the given Dyck path."""
    return OrderedTree._built(p.steps.translate(_PAREN_FOR_STEP))


def glove_to_dyck(t: OrderedTree) -> DyckPath:
    """Dyck path spelled by traversing the tree, inverse of glove_to_tree."""
    # the text of a valid tree is balanced, so it spells a Dyck path
    return DyckPath._built(t.parens.translate(_STEP_FOR_PAREN))


# the "(" at index i enters a node at depth i + 1 minus an even number, so
# marking the opens at odd indices marks the nodes at even depth; a leaf
# is "()" at odd depth and "[)" at even depth
_MARK_OPEN = bytes.maketrans(b"(", b"[")
_ODD_LEAF, _EVEN_LEAF = b"()", b"[)"
# an edge's parity is its leaves' depth minus its lower node's depth, so
# the blue edges are the opens marked the other way from the leaves
_LETTER_UNDER_ODD_LEAVES = bytes.maketrans(b"([", b"KB")
_LETTER_UNDER_EVEN_LEAVES = bytes.maketrans(b"([", b"BK")


def _pure_letters(marked: bytes) -> bytes | None:
    """The B/K letters of a marked text starting at an even index, if its
    leaves all sit at one depth parity; None if they do not."""
    odd = _ODD_LEAF in marked
    if odd and _EVEN_LEAF in marked:
        return None
    table = _LETTER_UNDER_ODD_LEAVES if odd else _LETTER_UNDER_EVEN_LEAVES
    return marked.translate(table, b")")


def color_edges(t: OrderedTree) -> str:
    """Color every edge blue (odd parity), red, or black, as B/R/K letters.

    Red edges are the leftmost child edges of blue edges; everything not
    blue or red is black.  A red edge always has even parity, so the two
    rules never collide.  Raises IllDefinedParity at the first edge (in
    preorder) whose parity is not well defined.
    """
    text = t.parens.encode("ascii")
    marked = bytearray(text)
    marked[1::2] = text[1::2].translate(_MARK_OPEN)
    letters = _pure_letters(marked)
    if letters is None:
        # an edge's parity depends only on the leaves below it, so each
        # root subtree is colored on its own; an edge's ancestors hold all
        # of its leaves and come before it, so the first edge with both
        # parities is a root edge, entered by the "(" at an even index
        cuts = _ground_points(t.parens.translate(_STEP_FOR_PAREN))
        parts = []
        for start, end in zip(cuts, cuts[1:]):
            part = _pure_letters(marked[start:end])
            if part is None:
                raise IllDefinedParity(start // 2)
            parts.append(part)
        letters = b"".join(parts)
    # a blue edge's lower node is never a leaf, so the next edge in
    # preorder is its first child edge, of even parity: every B is
    # followed by a K that the red rule turns into an R
    return letters.replace(b"BK", b"BR").decode("ascii")


# deleting the color letters leaves only the bad ones, so the deletion
# checks the letters and the regex runs only to name the first
_NOT_A_COLOR = re.compile("[^BRK]")
_DELETE_COLORS = str.maketrans("", "", "BRK")


def _check_letters(t: OrderedTree, letters: str) -> None:
    if len(letters) != t.edge_count:
        raise ValueError(
            f"expected {t.edge_count} color letters, got {len(letters)}"
        )
    if letters.translate(_DELETE_COLORS):
        bad = _NOT_A_COLOR.search(letters)
        raise ValueError(
            f"invalid color letter {bad.group()!r} at position {bad.start()}"
        )


_OPEN_FOR_LETTER = bytes.maketrans(b"BRK", b"(((")


def relocate_reds(t: OrderedTree, letters: str) -> tuple[OrderedTree, str]:
    """Move each red edge to the rightmost slot under its parent node.

    The red edge travels alone: its lower endpoint becomes a childless
    rightmost child, and the children it used to carry are spliced into
    its old position in order.  Red siblings keep their order at the
    right end.  Node count, edge count and the color multiset are all
    preserved, with colors following their edges.  Returns the
    renumbered tree and its letters in the new preorder.

    One pass over the text writes the relocated tree with its letters in
    place of its opens.  A red node writes nothing, so its children hang
    where it would have; it is written as a leaf "R)" when its parent
    closes.  Each stack entry is a node's red children times two, plus
    one if the node itself is red.
    """
    _check_letters(t, letters)
    out: list[str] = []
    emit = out.append
    stack = [0]
    colors = iter(letters)
    for ch in t.parens:
        if ch == "(":
            letter = next(colors)
            if letter == "R":
                stack.append(1)
            else:
                stack.append(0)
                emit(letter)
        else:
            entry = stack.pop()
            emit("R)" * (entry >> 1))
            if entry & 1:
                stack[-1] += 2
            else:
                emit(")")
    emit("R)" * (stack[0] >> 1))
    # on bytes, the translation and the deletion are no slower than their
    # str forms on the shortest texts and several times faster on long ones
    written = "".join(out).encode("ascii")
    relocated = OrderedTree._built(written.translate(_OPEN_FOR_LETTER).decode("ascii"))
    return relocated, written.translate(None, b")").decode("ascii")


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
