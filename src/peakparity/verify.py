"""Exhaustive cross-checks over every path up to a size bound.

Each named check accumulates cases across all sizes 0..max_n and reports
pass or fail with the first failing case.  The map functions are looked
up through the bijections module at call time, so replacing one there is
enough to watch the harness catch the change.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from . import bijections
from .enumeration import (
    PathClass,
    catalan,
    generate,
    lex_key,
    motzkin,
    riordan,
)
from .paths import (
    DyckPath,
    MotzkinPath,
    PeakParityClass,
    classify,
    decompose,
    peaks,
    split_at_ground_downs,
    split_at_ground_flats,
    stats,
)
from .trees import (
    OrderedTree,
    color_edges,
    glove_to_dyck,
    glove_to_tree,
    relocate_reds,
)

CHECK_NAMES = (
    "generator-lex-order",
    "generator-count-dyck",
    "generator-count-motzkin",
    "generator-count-start-flat",
    "generator-count-no-ground-flat",
    "class-generator-consistency",
    "parse-render-roundtrip",
    "class-partition",
    "counting-claim-odd",
    "counting-claim-even",
    "decompose-rebuild",
    "ground-returns-vs-components",
    "parity-alternation",
    "glove-roundtrip",
    "tree-codec-roundtrip",
    "leaf-peak-transfer",
    "root-edge-colors",
    "coloring-counts",
    "relocation-preservation",
    "triple-agreement-odd",
    "triple-agreement-even",
    "size-preservation",
    "image-odd",
    "image-even",
    "roundtrip-recursive-a",
    "roundtrip-recursive-b",
    "roundtrip-pairing-a",
    "roundtrip-pairing-b",
    "inverse-roundtrip-a",
    "inverse-roundtrip-b",
    "split-concat",
    "stat-transfer-ground",
    "stat-transfer-peaks",
    "no-ud-pairs",
    "no-unexpected-errors",
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""


class _Recorder:
    def __init__(self):
        self._passed = {name: True for name in CHECK_NAMES}
        self._cases = {name: 0 for name in CHECK_NAMES}
        self._detail = {name: "" for name in CHECK_NAMES}

    def ok(self, name: str, cases: int = 1) -> None:
        self._cases[name] += cases

    def fail(self, name: str, detail: str) -> None:
        self._cases[name] += 1
        if self._passed[name]:
            self._passed[name] = False
            self._detail[name] = detail

    def expect(self, name: str, condition: bool, n: int, subject) -> None:
        if condition:
            self._cases[name] += 1
        else:
            self.fail(name, f"n={n}: {subject}")

    def expect_count(self, name: str, n: int, expected: int, actual: int) -> None:
        if expected == actual:
            self._cases[name] += 1
        else:
            self.fail(name, f"n={n}: expected {expected}, got {actual}")

    def results(self) -> list[CheckResult]:
        return [
            CheckResult(name, self._passed[name], self._cases[name], self._detail[name])
            for name in CHECK_NAMES
        ]


def _scan_dyck(n: int, rec: _Recorder) -> tuple[list[DyckPath], list[DyckPath]]:
    odd: list[DyckPath] = []
    even: list[DyckPath] = []
    mixed = 0
    total = 0
    prev = None
    for p in generate(PathClass.ALL_DYCK, n):
        total += 1
        key = lex_key(p)
        rec.expect("generator-lex-order", prev is None or prev < key, n, p)
        prev = key
        rec.expect("parse-render-roundtrip", DyckPath.from_text(p.render()) == p, n, p)
        comps = decompose(p)
        rebuilt = "".join("U" + c.steps + "D" for c in comps)
        rec.expect("decompose-rebuild", rebuilt == p.steps, n, p)
        rec.expect(
            "ground-returns-vs-components",
            stats(p).ground_returns == len(comps),
            n,
            p,
        )
        cls = classify(p)
        if cls is PeakParityClass.ALL_ODD:
            odd.append(p)
            alternates = all(classify(c) is PeakParityClass.ALL_EVEN for c in comps)
        elif cls is PeakParityClass.ALL_EVEN:
            even.append(p)
            alternates = all(
                c.steps and classify(c) is PeakParityClass.ALL_ODD for c in comps
            )
        else:
            mixed += 1
            alternates = True
        rec.expect("parity-alternation", alternates, n, p)
        t = glove_to_tree(p)
        rec.expect("glove-roundtrip", glove_to_dyck(t) == p, n, p)
        rec.expect(
            "tree-codec-roundtrip", OrderedTree.from_parens(t.to_parens()) == t, n, p
        )
        rec.expect(
            "leaf-peak-transfer",
            t.leaf_depths() == [h for _, h in peaks(p)],
            n,
            p,
        )
    rec.expect_count("generator-count-dyck", n, catalan(n), total)
    rec.expect_count("class-partition", n, total, len(odd) + len(even) + mixed)
    rec.expect_count("counting-claim-odd", n, motzkin(n - 1) if n else 0, len(odd))
    rec.expect_count("counting-claim-even", n, riordan(n), len(even))
    return odd, even


def _check_class_generators(
    n: int, rec: _Recorder, odd: list[DyckPath], even: list[DyckPath]
) -> None:
    for path_class, bucket in (
        (PathClass.DYCK_ALL_ODD, odd),
        (PathClass.DYCK_ALL_EVEN, even),
    ):
        for got, want in zip_longest(generate(path_class, n), bucket):
            if got != want:
                rec.fail(
                    "class-generator-consistency",
                    f"n={n}: {path_class.value} yielded {got}, expected {want}",
                )
                return
            rec.ok("class-generator-consistency")


def _scan_motzkin(
    n: int, rec: _Recorder
) -> tuple[list[MotzkinPath], list[MotzkinPath]]:
    total = 0
    prev = None
    for m in generate(PathClass.ALL_MOTZKIN, n):
        total += 1
        key = lex_key(m)
        rec.expect("generator-lex-order", prev is None or prev < key, n, m)
        prev = key
        rec.expect(
            "parse-render-roundtrip", MotzkinPath.from_text(m.render()) == m, n, m
        )
    rec.expect_count("generator-count-motzkin", n, motzkin(n), total)
    start_flat = list(generate(PathClass.MOTZKIN_START_FLAT, n))
    no_ground = list(generate(PathClass.MOTZKIN_NO_GROUND_FLAT, n))
    rec.expect_count(
        "generator-count-start-flat", n, motzkin(n - 1) if n else 0, len(start_flat)
    )
    rec.expect_count("generator-count-no-ground-flat", n, riordan(n), len(no_ground))
    for m in start_flat:
        try:
            rec.expect(
                "inverse-roundtrip-a",
                bijections.phi_a(bijections.psi_a(m)) == m
                and bijections.tirrell_a(bijections.tirrell_a_inv(m)) == m,
                n,
                m,
            )
            joined = "".join(seg.steps for seg in split_at_ground_flats(m))
            rec.expect("split-concat", joined == m.steps, n, m)
            rec.ok("no-unexpected-errors")
        except Exception as exc:
            rec.fail("no-unexpected-errors", f"n={n}: {m}: {exc!r}")
    for m in no_ground:
        try:
            rec.expect(
                "inverse-roundtrip-b",
                bijections.phi_b(bijections.psi_b(m)) == m
                and bijections.tirrell_b(bijections.tirrell_b_inv(m)) == m,
                n,
                m,
            )
            joined = "".join(seg.steps for seg in split_at_ground_downs(m))
            rec.expect("split-concat", joined == m.steps, n, m)
            rec.ok("no-unexpected-errors")
        except Exception as exc:
            rec.fail("no-unexpected-errors", f"n={n}: {m}: {exc!r}")
    return start_flat, no_ground


def _scan_parity_class(
    n: int,
    rec: _Recorder,
    paths: list[DyckPath],
    odd_side: bool,
    expected_image: list[MotzkinPath],
) -> None:
    if odd_side:
        triple, rt_rec, rt_pair, image_name = (
            "triple-agreement-odd",
            "roundtrip-recursive-a",
            "roundtrip-pairing-a",
            "image-odd",
        )
    else:
        triple, rt_rec, rt_pair, image_name = (
            "triple-agreement-even",
            "roundtrip-recursive-b",
            "roundtrip-pairing-b",
            "image-even",
        )
    images: set[MotzkinPath] = set()
    for p in paths:
        try:
            if odd_side:
                m1 = bijections.phi_a(p)
                m3 = bijections.tirrell_a(p)
                back = bijections.psi_a(m1)
                back_pair = bijections.tirrell_a_inv(m3)
                ground_image = stats(m1).ground_flats
                body = p.steps[1:-1]
            else:
                m1 = bijections.phi_b(p)
                m3 = bijections.tirrell_b(p)
                back = bijections.psi_b(m1)
                back_pair = bijections.tirrell_b_inv(m3)
                ground_image = stats(m1).ground_downs
                body = p.steps
            m2 = bijections.explicit_map(p)
            rec.expect(triple, m1 == m2 and m2 == m3, n, p)
            rec.expect("size-preservation", len(m1) == n, n, p)
            rec.expect(rt_rec, back == p, n, p)
            rec.expect(rt_pair, back_pair == p, n, p)
            st = stats(p)
            rec.expect("stat-transfer-ground", st.ground_returns == ground_image, n, p)
            rec.expect("stat-transfer-peaks", st.peaks == stats(m1).peak_image, n, p)
            clean = all(body[k : k + 2] != "UD" for k in range(0, len(body) - 1, 2))
            rec.expect("no-ud-pairs", clean, n, p)
            t = glove_to_tree(p)
            letters = color_edges(t)
            root_colors = {c for c, up in zip(letters, t.parent) if up == 0}
            wanted = {"K"} if odd_side else {"B"}
            rec.expect("root-edge-colors", root_colors <= wanted, n, p)
            counts = [letters.count(c) for c in "BRK"]
            blue, red, black = counts
            downs = m1.steps.count("D")
            flats = m1.steps.count("F")
            rec.expect(
                "coloring-counts", blue == red == downs and black == flats, n, p
            )
            relocated, moved = relocate_reds(t, letters)
            rec.expect(
                "relocation-preservation",
                relocated.edge_count == t.edge_count
                and [moved.count(c) for c in "BRK"] == counts,
                n,
                p,
            )
            rec.expect(
                "tree-codec-roundtrip",
                OrderedTree.from_parens(relocated.to_parens()) == relocated,
                n,
                p,
            )
            images.add(m1)
            rec.ok("no-unexpected-errors")
        except Exception as exc:
            rec.fail("no-unexpected-errors", f"n={n}: {p}: {exc!r}")
    if images == set(expected_image):
        rec.ok(image_name, cases=max(len(paths), 1))
    else:
        rec.fail(
            image_name,
            f"n={n}: {len(images)} distinct images, expected class of size "
            f"{len(expected_image)}",
        )


def run_verification(max_n: int) -> list[CheckResult]:
    """Run every registered check for all sizes 0..max_n."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    rec = _Recorder()
    for n in range(max_n + 1):
        start_flat, no_ground = _scan_motzkin(n, rec)
        odd, even = _scan_dyck(n, rec)
        _check_class_generators(n, rec, odd, even)
        _scan_parity_class(n, rec, odd, True, start_flat)
        _scan_parity_class(n, rec, even, False, no_ground)
    return rec.results()


def format_report(results: list[CheckResult], max_n: int) -> str:
    lines = []
    failed = 0
    for r in results:
        if r.passed:
            lines.append(f"PASS {r.name} ({r.cases} cases)")
        else:
            failed += 1
            lines.append(f"FAIL {r.name} ({r.cases} cases): {r.detail}")
    if failed:
        lines.append(
            f"verify: {failed} of {len(results)} checks FAILED for n = 0..{max_n}"
        )
    else:
        lines.append(
            f"verify: {len(results)}/{len(results)} checks passed for n = 0..{max_n}"
        )
    return "\n".join(lines)
