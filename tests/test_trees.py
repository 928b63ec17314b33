"""Ordered trees, the traversal correspondence, edge coloring and relocation.

A tree is its preorder parent array and a coloring is one B/R/K letter per
edge in preorder, so edge i is the edge into node i + 1.

The relocation semantics pinned here: a red edge moves to the rightmost
slot under its parent node WITHOUT its subtree; the children its endpoint
used to carry are spliced into its old position in order.  The large
worked example below exercises a splice where the moved endpoint had two
child subtrees, which distinguishes this from moving whole subtrees.
``_relocate_oracle`` states that rule recursively on the parentheses text,
and relocation is compared against it on every coloring of every small
tree, not only on the colorings that color_edges produces.
"""
from __future__ import annotations

from dataclasses import fields
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import d, dyck_paths, m
from peakparity import (
    DyckPath,
    IllDefinedParity,
    InvalidMotzkinOutput,
    OrderedTree,
    PathClass,
    classify,
    color_edges,
    explicit_a,
    explicit_b,
    generate,
    glove_to_dyck,
    glove_to_tree,
    peaks,
    relocate_reds,
    tirrell_a,
    tirrell_b,
    walk_to_motzkin,
)

_PARENS = str.maketrans("UD", "()")


@st.composite
def _parent_arrays(draw, max_edges: int = 20) -> list[int]:
    """A preorder parent array: each node hangs off the last one or its ancestor."""
    parent: list[int] = []
    path = [0]  # root to the node numbered last
    for node in range(1, draw(st.integers(0, max_edges)) + 1):
        del path[len(path) - draw(st.integers(0, len(path) - 1)) :]
        parent.append(path[-1])
        path.append(node)
    return parent


def _top_level(text: str):
    """Inner text of each top-level pair of parentheses, left to right."""
    depth = start = 0
    for i, ch in enumerate(text):
        depth += 1 if ch == "(" else -1
        if depth == 0:
            yield text[start + 1 : i]
            start = i + 1


def _relocate_oracle(parens: str, letters: str) -> tuple[str, str]:
    """The nested-tree relocation rule, run on the parentheses text."""
    colors = iter(letters)

    def rebuild(text: str) -> list:
        entries: list = []
        tail: list = []
        for inner in _top_level(text):
            color = next(colors)
            below = rebuild(inner)
            if color == "R":
                entries.extend(below)
                tail.append((color, []))
            else:
                entries.append((color, below))
        return entries + tail

    def realize(entries: list) -> tuple[str, str]:
        shape, colored = "", ""
        for color, below in entries:
            sub_shape, sub_colored = realize(below)
            shape += "(" + sub_shape + ")"
            colored += color + sub_colored
        return shape, colored

    return realize(rebuild(parens))


def _edge_parities(parens: str, edge: int) -> set[int]:
    """Parities of the leaf distances below an edge, from its text slice."""
    start = [i for i, ch in enumerate(parens) if ch == "("][edge]
    depth = 0
    found = set()
    for i in range(start + 1, len(parens)):
        if parens[i] == "(":
            depth += 1
            if parens[i + 1] == ")":
                found.add(depth % 2)
        elif depth == 0:
            return found or {0}
        else:
            depth -= 1
    raise AssertionError("unbalanced parentheses")


class TestOrderedTree:
    def test_single_node(self):
        t = OrderedTree.from_parens("")
        assert t.parent == ()
        assert t.node_count == 1
        assert t.edge_count == 0

    def test_structure(self):
        t = OrderedTree.from_parens("(())()")
        assert t.parent == (0, 1, 0)
        assert t.node_count == 4
        assert t.edge_count == 3

    def test_one_field(self):
        assert [f.name for f in fields(OrderedTree)] == ["parent"]
        assert OrderedTree([0, 1]) == OrderedTree((0, 1))

    def test_parens_roundtrip(self):
        for text in ["", "()", "(())()", "((())())(())"]:
            assert OrderedTree.from_parens(text).to_parens() == text

    def test_unmatched_close(self):
        with pytest.raises(ValueError):
            OrderedTree.from_parens("())")

    def test_unmatched_open(self):
        with pytest.raises(ValueError):
            OrderedTree.from_parens("(()")

    def test_invalid_character(self):
        with pytest.raises(ValueError):
            OrderedTree.from_parens("(x)")

    def test_edges_preorder(self):
        # edge i joins node i + 1 to parent[i]; nodes are numbered in preorder
        assert OrderedTree.from_parens("((())())(())").parent == (0, 1, 2, 1, 0, 5)

    def test_leaf_depths(self):
        assert OrderedTree.from_parens("(())()").leaf_depths() == [2, 1]
        assert OrderedTree().leaf_depths() == [0]

    @pytest.mark.parametrize(
        "parent,index",
        [((1,), 0), ((0, 0, 1), 2), ((5,), 0)],
        ids=["own-parent", "parent-left-behind", "no-such-node"],
    )
    def test_rejects_non_preorder_parent(self, parent, index):
        # node i + 1's parent must be node i or an ancestor of it
        with pytest.raises(ValueError, match=rf"parent\[{index}\]"):
            OrderedTree(parent)


class TestGlove:
    def test_examples(self):
        assert glove_to_tree(d("UUDD")).to_parens() == "(())"
        assert glove_to_tree(d("UDUD")).to_parens() == "()()"
        assert glove_to_tree(DyckPath()).to_parens() == ""

    def test_inverse_examples(self):
        assert glove_to_dyck(OrderedTree.from_parens("(())")) == d("UUDD")
        assert glove_to_dyck(OrderedTree()) == DyckPath()

    @given(dyck_paths())
    def test_roundtrip(self, p):
        assert glove_to_dyck(glove_to_tree(p)) == p

    @given(_parent_arrays())
    def test_inverse_is_valid_path(self, parent):
        p = glove_to_dyck(OrderedTree(parent))
        assert p == DyckPath(p.steps)

    @given(dyck_paths())
    def test_leaf_heights_are_peak_heights(self, p):
        t = glove_to_tree(p)
        assert t.leaf_depths() == [h for _, h in peaks(p)]

    def test_exhaustive_small(self):
        for n in range(6):
            for p in generate(PathClass.ALL_DYCK, n):
                t = glove_to_tree(p)
                assert glove_to_dyck(t) == p
                assert OrderedTree.from_parens(t.to_parens()) == t

    def test_deeper_than_recursion_limit(self):
        text = "U" * 1500 + "D" * 1500
        t = glove_to_tree(DyckPath(text))
        assert t.to_parens() == text.translate(_PARENS)
        assert glove_to_dyck(t) == DyckPath(text)
        assert t == OrderedTree.from_parens(t.to_parens())
        assert t != glove_to_tree(DyckPath("U" * 1499 + "D" * 1499))


class TestEdgeParity:
    """color_edges' blue edges against parities read off the text slice."""

    def test_two_edge_chain(self):
        assert _edge_parities("(())", 0) == {1}
        assert _edge_parities("(())", 1) == {0}
        assert color_edges(OrderedTree.from_parens("(())")) == "BR"

    def test_cherry(self):
        assert _edge_parities("(()())", 0) == {1}
        assert color_edges(OrderedTree.from_parens("(()())"))[0] == "B"

    def test_ill_defined(self):
        # one leaf one edge below, another two edges below
        assert _edge_parities("(()(()))", 0) == {0, 1}
        with pytest.raises(IllDefinedParity) as exc:
            color_edges(OrderedTree.from_parens("(()(()))"))
        assert exc.value.edge == 0

    def test_parity_against_distance_oracle(self):
        parens = "UUUDDDUD".translate(_PARENS)
        letters = color_edges(OrderedTree.from_parens(parens))
        assert letters == "KBRK"
        for i, color in enumerate(letters):
            assert _edge_parities(parens, i) == ({1} if color == "B" else {0})


class TestColorEdges:
    def test_chain_two(self):
        assert color_edges(glove_to_tree(d("UUDD"))) == "BR"

    def test_cherry_interior(self):
        letters = color_edges(glove_to_tree(d("UUDUDD")))
        assert letters[0] == "B"
        assert letters[1] == "R"
        assert letters[2] == "K"

    def test_single_edge(self):
        assert color_edges(glove_to_tree(d("UD"))) == "K"

    def test_mixed_parity_tree_rejected(self):
        t = glove_to_tree(d("UUDUUDDD"))
        assert classify(d("UUDUUDDD")).value == "mixed"
        with pytest.raises(IllDefinedParity):
            color_edges(t)

    def test_first_mixed_edge_in_preorder(self):
        # edge 0 is consistent; edges 1 and 5 are mixed
        with pytest.raises(IllDefinedParity) as exc:
            color_edges(OrderedTree.from_parens("()(()(()))(()(()))"))
        assert exc.value.edge == 1

    def test_letters_roundtrip(self):
        t = glove_to_tree(d("UUDUDD"))
        letters = color_edges(t)
        assert type(letters) is str
        assert letters == "BRK"
        assert walk_to_motzkin(t, letters) == m("UDF")

    def test_letters_length_mismatch(self):
        t = glove_to_tree(d("UD"))
        with pytest.raises(ValueError, match="expected 1 color letters, got 2"):
            relocate_reds(t, "BR")
        with pytest.raises(ValueError, match="expected 1 color letters, got 2"):
            walk_to_motzkin(t, "BR")

    def test_letters_invalid(self):
        t = glove_to_tree(d("UDUD"))
        with pytest.raises(ValueError, match="'X' at position 1"):
            relocate_reds(t, "KX")
        with pytest.raises(ValueError, match="'X' at position 1"):
            walk_to_motzkin(t, "KX")

    def test_invariants_exhaustive_small(self):
        for n in range(7):
            for path_class in (PathClass.DYCK_ALL_ODD, PathClass.DYCK_ALL_EVEN):
                for p in generate(path_class, n):
                    parens = p.steps.translate(_PARENS)
                    t = glove_to_tree(p)
                    letters = color_edges(t)
                    blues = []
                    for i, color in enumerate(letters):
                        parity = _edge_parities(parens, i)
                        if color == "B":
                            assert parity == {1}
                            blues.append(i)
                        else:
                            assert parity == {0}
                        if color == "R":
                            # red only ever sits leftmost under a blue edge:
                            # its node directly follows the blue edge's node
                            assert t.parent[i] == i
                            assert letters[i - 1] == "B"
                    for i in blues:
                        assert t.parent[i + 1] == i + 1
                        assert letters[i + 1] == "R"
                    assert letters.count("B") == letters.count("R")


class TestRelocateReds:
    def test_leaf_red_moves_to_rightmost(self):
        t = glove_to_tree(d("UUDUDD"))
        relocated, moved = relocate_reds(t, color_edges(t))
        assert relocated.to_parens() == "(()())"
        assert moved == "BKR"

    def test_red_with_subtree_moves_alone(self):
        # chain of four edges: the upper red's endpoint carried a chain of
        # two more edges; those splice into its old slot, it leaves alone
        t = glove_to_tree(d("UUUUDDDD"))
        letters = color_edges(t)
        assert letters == "BRBR"
        relocated, moved = relocate_reds(t, letters)
        assert relocated.to_parens() == "((())())"
        assert moved == "BBRR"
        assert walk_to_motzkin(relocated, moved) == m("UUDD")

    def test_no_reds_is_identity(self):
        t = glove_to_tree(d("UDUD"))
        letters = color_edges(t)
        relocated, moved = relocate_reds(t, letters)
        assert relocated == t
        assert moved == letters

    def test_coloring_domain_mismatch(self):
        t = glove_to_tree(d("UD"))
        with pytest.raises(ValueError):
            relocate_reds(t, "KK")

    def test_every_coloring_matches_nested_rule(self):
        cases = 0
        for k in range(1, 6):
            for p in generate(PathClass.ALL_DYCK, k):
                parens = p.steps.translate(_PARENS)
                t = OrderedTree.from_parens(parens)
                for letters in map("".join, product("BRK", repeat=k)):
                    relocated, moved = relocate_reds(t, letters)
                    got = (relocated.to_parens(), moved)
                    assert got == _relocate_oracle(parens, letters), (parens, letters)
                    cases += 1
        assert cases == 11_496

    def test_conservation_exhaustive_small(self):
        for n in range(7):
            for path_class in (PathClass.DYCK_ALL_ODD, PathClass.DYCK_ALL_EVEN):
                for p in generate(path_class, n):
                    t = glove_to_tree(p)
                    letters = color_edges(t)
                    relocated, moved = relocate_reds(t, letters)
                    assert relocated.node_count == t.node_count
                    assert relocated.edge_count == t.edge_count
                    assert sorted(moved) == sorted(letters)


class TestWalk:
    def test_examples(self):
        for text, image in [("UUDD", "UD"), ("UUDUDD", "UFD"), ("UD", "F")]:
            t = glove_to_tree(d(text))
            relocated, moved = relocate_reds(t, color_edges(t))
            assert walk_to_motzkin(relocated, moved) == m(image)

    def test_invalid_output(self):
        t = OrderedTree.from_parens("()")
        with pytest.raises(InvalidMotzkinOutput):
            walk_to_motzkin(t, "R")

    def test_coloring_domain_mismatch(self):
        t = OrderedTree.from_parens("()()")
        with pytest.raises(ValueError):
            walk_to_motzkin(t, "K")


class TestWorkedExample:
    """A 19-edge tree with every coloring and relocation feature at once.

    Edge 2 is red, as the leftmost child edge of blue edge 1, and its
    endpoint carries two subtrees, entered by edges 3 and 6.  Relocation
    splices both into its slot and moves the red edge alone to the right.
    """

    PARENS = "((((()())(()))()((())))(())(()((()))))"

    def test_coloring(self):
        t = OrderedTree.from_parens(self.PARENS)
        assert color_edges(t) == "KBRBRKBRKKBRBRBRKBR"

    def test_relocation_and_walk(self):
        t = OrderedTree.from_parens(self.PARENS)
        relocated, moved = relocate_reds(t, color_edges(t))
        assert relocated.to_parens() == "(((()())(())()((()))())(())(((()))()))"
        assert moved == "KBBKRBRKKBRRBRBKBRR"
        assert walk_to_motzkin(relocated, moved) == m("FUUFDUDFFUDDUDUFUDD")

    def test_all_leaves_odd(self):
        t = OrderedTree.from_parens(self.PARENS)
        assert all(depth % 2 == 1 for depth in t.leaf_depths())


class TestLargeTrees:
    """Every stage is one loop, so depth and width are limited by memory."""

    @pytest.mark.parametrize(
        "text,pairing,explicit",
        [
            ("U" * 100_001 + "D" * 100_001, tirrell_a, explicit_a),
            ("U" * 100_000 + "D" * 100_000, tirrell_b, explicit_b),
            ("UD" * 100_000, tirrell_a, explicit_a),
            ("UUDD" * 50_000, tirrell_b, explicit_b),
        ],
        ids=["odd-chain", "even-chain", "odd-wide", "even-wide"],
    )
    def test_stages_agree_with_pairing(self, text, pairing, explicit):
        p = DyckPath(text)
        want = pairing(p)
        t = glove_to_tree(p)
        relocated, moved = relocate_reds(t, color_edges(t))
        assert walk_to_motzkin(relocated, moved) == want
        assert explicit(p) == want
