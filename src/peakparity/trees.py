"""Ordered rooted trees and the edge-coloring route from Dyck to Motzkin paths.

A Dyck path corresponds to an ordered rooted tree by the usual traversal
correspondence: an up step descends into a new child, a down step climbs
back out.  On trees whose leaves all sit at heights of one parity, each
edge gets a well-defined parity (the parity of the edge count from its
lower endpoint down to any leaf below it).  Odd-parity edges are colored
blue, the leftmost child edge of each blue edge is colored red, and the
rest are black.  After red edges are relocated, reading the tree in
preorder and emitting U for blue, D for red, F for black produces the
same Motzkin path as the recursive maps.  Paths enter and leave as text:
the tree is built from the path's U and D letters, and the walk is the
B/R/K coloring letters translated to U, D and F.

Edges are identified with their lower endpoint and addressed by the
tuple of child indices leading from the root to that endpoint.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

from .paths import DyckPath, MotzkinPath, PeakParityError

Edge = tuple[int, ...]


class IllDefinedParity(PeakParityError):
    """An edge has leaf descendants at both parities, so it has no parity."""

    def __init__(self, edge: Edge):
        self.edge = edge
        super().__init__(f"edge {edge} has leaf descendants at both parities")


class InvalidMotzkinOutput(PeakParityError):
    """A colored-tree walk produced a step sequence that is not a Motzkin path."""


class EdgeColor(Enum):
    BLUE = "B"
    RED = "R"
    BLACK = "K"

    def __repr__(self) -> str:
        return f"EdgeColor.{self.name}"


@dataclass(frozen=True)
class OrderedTree:
    """Ordered rooted tree; a node is just the tuple of its child subtrees."""

    children: tuple["OrderedTree", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def node_count(self) -> int:
        return 1 + sum(c.node_count for c in self.children)

    @property
    def edge_count(self) -> int:
        return self.node_count - 1

    def node_at(self, edge: Edge) -> "OrderedTree":
        """Subtree rooted at the lower endpoint of the given edge address."""
        node = self
        for depth, index in enumerate(edge):
            if not 0 <= index < len(node.children):
                raise ValueError(f"no child {index} at depth {depth}")
            node = node.children[index]
        return node

    def edges(self) -> Iterator[Edge]:
        """Edge addresses in preorder, each edge at its first encounter."""

        def walk(node: "OrderedTree", prefix: Edge) -> Iterator[Edge]:
            for i, child in enumerate(node.children):
                here = prefix + (i,)
                yield here
                yield from walk(child, here)

        return walk(self, ())

    def leaf_depths(self) -> list[int]:
        """Depth of each leaf, left to right."""
        out: list[int] = []

        def walk(node: "OrderedTree", depth: int) -> None:
            if node.is_leaf:
                out.append(depth)
                return
            for child in node.children:
                walk(child, depth + 1)

        walk(self, 0)
        return out

    def to_parens(self) -> str:
        """Balanced-parentheses form; the single-node tree renders as ''."""
        pieces: list[str] = []

        def walk(node: "OrderedTree") -> None:
            for child in node.children:
                pieces.append("(")
                walk(child)
                pieces.append(")")

        walk(self)
        return "".join(pieces)

    @classmethod
    def from_parens(cls, text: str) -> "OrderedTree":
        stack: list[list["OrderedTree"]] = [[]]
        for i, ch in enumerate(text):
            if ch == "(":
                stack.append([])
            elif ch == ")":
                if len(stack) == 1:
                    raise ValueError(f"unmatched ')' at position {i}")
                children = stack.pop()
                stack[-1].append(cls(tuple(children)))
            else:
                raise ValueError(f"invalid character {ch!r} at position {i}")
        if len(stack) > 1:
            raise ValueError("unmatched '(' at end of input")
        return cls(tuple(stack[0]))

    def __repr__(self) -> str:
        return f"OrderedTree.from_parens({self.to_parens()!r})"


@dataclass(frozen=True)
class EdgeColoring:
    """Color of every edge of one specific tree, keyed by edge address."""

    colors: Mapping[Edge, EdgeColor]

    def __post_init__(self):
        object.__setattr__(self, "colors", dict(self.colors))

    def __getitem__(self, edge: Edge) -> EdgeColor:
        return self.colors[edge]

    def __len__(self) -> int:
        return len(self.colors)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.colors)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.colors

    def items(self):
        return self.colors.items()

    def count(self, color: EdgeColor) -> int:
        return sum(1 for c in self.colors.values() if c is color)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return self.colors == other.colors

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {c.value}" for e, c in sorted(self.colors.items()))
        return f"EdgeColoring({{{inner}}})"


def glove_to_tree(p: DyckPath) -> OrderedTree:
    """Tree whose traversal spells the given Dyck path."""
    stack: list[list[OrderedTree]] = [[]]
    for step in p.steps:
        if step == "U":
            stack.append([])
        else:
            children = stack.pop()
            stack[-1].append(OrderedTree(tuple(children)))
    return OrderedTree(tuple(stack[0]))


def glove_to_dyck(t: OrderedTree) -> DyckPath:
    """Dyck path spelled by traversing the tree, inverse of glove_to_tree."""
    steps: list[str] = []

    def walk(node: OrderedTree) -> None:
        for child in node.children:
            steps.append("U")
            walk(child)
            steps.append("D")

    walk(t)
    return DyckPath("".join(steps))


def _leaf_parities(node: OrderedTree) -> set[int]:
    """Parities of edge distances from this node down to its leaves."""
    if node.is_leaf:
        return {0}
    found: set[int] = set()
    for child in node.children:
        found.update((p + 1) % 2 for p in _leaf_parities(child))
        if len(found) == 2:
            break
    return found


def edge_parity(t: OrderedTree, edge: Edge) -> int:
    """Parity of the edge count from this edge's lower endpoint to any leaf below.

    Raises IllDefinedParity when leaves below disagree.
    """
    parities = _leaf_parities(t.node_at(edge))
    if len(parities) > 1:
        raise IllDefinedParity(edge)
    return next(iter(parities))


def color_edges(t: OrderedTree) -> EdgeColoring:
    """Color every edge blue (odd parity), red, or black.

    Red edges are the leftmost child edges of blue edges; everything not
    blue or red is black.  A red edge always has even parity, so the two
    rules never collide.  Raises IllDefinedParity at the first edge (in
    preorder) whose parity is not well defined.
    """
    colors: dict[Edge, EdgeColor] = {}
    blues: list[Edge] = []

    def visit(node: OrderedTree, prefix: Edge) -> None:
        for i, child in enumerate(node.children):
            here = prefix + (i,)
            parities = _leaf_parities(child)
            if len(parities) > 1:
                raise IllDefinedParity(here)
            if 1 in parities:
                colors[here] = EdgeColor.BLUE
                blues.append(here)
            else:
                colors[here] = EdgeColor.BLACK
            visit(child, here)

    visit(t, ())
    # a blue edge has odd parity, so its endpoint always has children
    for e in blues:
        colors[e + (0,)] = EdgeColor.RED
    return EdgeColoring(colors)


def _check_total(t: OrderedTree, coloring: EdgeColoring) -> None:
    if set(coloring) != set(t.edges()):
        raise ValueError("coloring does not cover exactly the tree's edges")


def relocate_reds(
    t: OrderedTree, coloring: EdgeColoring
) -> tuple[OrderedTree, EdgeColoring]:
    """Move each red edge to the rightmost slot under its parent node.

    The red edge travels alone: its lower endpoint becomes a childless
    rightmost child, and the children it used to carry are spliced into
    its old position in order.  In a valid coloring each node has at most
    one red child edge, sitting leftmost.  Node count, edge count and the
    color multiset are all preserved, with colors following their edges.
    """
    _check_total(t, coloring)

    # shaped form: list of (edge color, shaped children) per child slot
    def rebuild(node: OrderedTree, path: Edge) -> list:
        entries: list = []
        tail: list = []
        for i, child in enumerate(node.children):
            color = coloring[path + (i,)]
            child_entries = rebuild(child, path + (i,))
            if color is EdgeColor.RED:
                entries.extend(child_entries)
                tail.append((color, []))
            else:
                entries.append((color, child_entries))
        return entries + tail

    new_colors: dict[Edge, EdgeColor] = {}

    def realize(entries: list, prefix: Edge) -> tuple[OrderedTree, ...]:
        nodes = []
        for i, (color, child_entries) in enumerate(entries):
            here = prefix + (i,)
            new_colors[here] = color
            nodes.append(OrderedTree(realize(child_entries, here)))
        return tuple(nodes)

    new_tree = OrderedTree(realize(rebuild(t, ()), ()))
    return new_tree, EdgeColoring(new_colors)


_STEP_FOR_LETTER = str.maketrans("BRK", "UDF")


def walk_to_motzkin(t: OrderedTree, coloring: EdgeColoring) -> MotzkinPath:
    """Read the tree in preorder, emitting one step per edge by color.

    Blue becomes U, red becomes D, black becomes F.  Raises
    InvalidMotzkinOutput if the resulting step sequence is not a Motzkin
    path, which signals an inconsistent tree and coloring pair.
    """
    steps = coloring_to_letters(t, coloring).translate(_STEP_FOR_LETTER)
    try:
        return MotzkinPath(steps)
    except PeakParityError as exc:
        raise InvalidMotzkinOutput(
            f"walk emitted a non-Motzkin step sequence: {exc}"
        ) from exc


def coloring_to_letters(t: OrderedTree, coloring: EdgeColoring) -> str:
    """Serialize a coloring as one B/R/K letter per edge in preorder."""
    _check_total(t, coloring)
    return "".join(coloring[e].value for e in t.edges())


def coloring_from_letters(t: OrderedTree, text: str) -> EdgeColoring:
    """Inverse of coloring_to_letters for the given tree."""
    edges = list(t.edges())
    if len(text) != len(edges):
        raise ValueError(
            f"expected {len(edges)} color letters, got {len(text)}"
        )
    colors: dict[Edge, EdgeColor] = {}
    for i, (edge, ch) in enumerate(zip(edges, text)):
        try:
            colors[edge] = EdgeColor(ch)
        except ValueError:
            raise ValueError(f"invalid color letter {ch!r} at position {i}") from None
    return EdgeColoring(colors)
