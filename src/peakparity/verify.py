"""Exhaustive cross-checks over every path up to a size bound.

Each named check accumulates cases across all sizes 0..max_n and reports
pass or fail with the first failing case.  For each n one scan walks the
Motzkin paths and keeps the two target classes; then one pass over the
Dyck paths runs every per-path check and, on each all-odd or all-even
path, that side's checks against the same tree and statistics.  What
differs between the two sides lives in one table, ``_SIDES``.

The sizes are independent, so they run side by side: the largest in the
calling process, the others in forked workers, one per other usable CPU
(every size runs in the calling process when only one CPU is usable).
The per-size results are merged in n order, so the cases are summed and
each check keeps the failure of the smallest failing n, exactly as one
sequential run would report them.

Each check compares two independent computations:
- generator counts against the counting formulas, and each pruned class
  walk against the members the full walk classifies into that class
- ``decompose`` against ``stats`` (ground returns) and against the
  components' ``classify`` (parity alternation)
- the tree's leaf depths against ``peaks``; ``glove_to_dyck`` and
  ``from_parens`` against the text they invert
- the recursive, colored-tree and pair-substitution routes against each
  other, against their inverses and against the target Motzkin class
- the statistics of each path against those of its image

The maps are read from ``bijections._IMPLEMENTATION`` at call time, the
table ``apply_map`` and the CLI run, so replacing an entry there is
enough to watch the harness catch the change.  The workers are forked,
not spawned, so they check the table as the caller left it, patched
entries included.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import bijections
from .bijections import MapKind
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
    PathStats,
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
        self._results = {name: CheckResult(name, True, 0) for name in CHECK_NAMES}

    def ok(self, name: str, cases: int = 1) -> None:
        self._results[name].cases += cases

    def fail(self, name: str, detail: str) -> None:
        r = self._results[name]
        r.cases += 1
        if r.passed:
            r.passed = False
            r.detail = detail

    def expect(self, name: str, condition: bool, n: int, subject) -> None:
        if condition:
            self._results[name].cases += 1
        else:
            self.fail(name, f"n={n}: {subject}")

    def expect_count(self, name: str, n: int, expected: int, actual: int) -> None:
        if expected == actual:
            self._results[name].cases += 1
        else:
            self.fail(name, f"n={n}: expected {expected}, got {actual}")

    def merge(self, results: list[CheckResult]) -> None:
        """Add the results of a later size, keeping the earliest failure."""
        for r in results:
            total = self._results[r.name]
            total.cases += r.cases
            if total.passed and not r.passed:
                total.passed = False
                total.detail = r.detail

    def results(self) -> list[CheckResult]:
        return list(self._results.values())


class _Side(NamedTuple):
    """What differs between the all-odd and the all-even half of the checks."""

    letter: str  # names the a/b checks
    maps: tuple[MapKind, ...]  # phi, psi, explicit, tirrell and its inverse
    parity: str  # names the odd/even checks
    dyck: PathClass
    motzkin: PathClass
    size: Callable[[int], int]  # the class size both generators must reach
    interior: PeakParityClass  # the class of every return-to-ground interior
    split: Callable[[MotzkinPath], tuple[MotzkinPath, ...]]
    ground_image: str  # the image statistic that ground returns go to
    paired: slice  # the steps the pair substitution reads
    root_color: str  # the one color a root edge may take


_SIDES = {
    PeakParityClass.ALL_ODD: _Side(
        letter="a",
        maps=(
            MapKind.PHI_A,
            MapKind.PSI_A,
            MapKind.EXPLICIT_A,
            MapKind.TIRRELL_A,
            MapKind.TIRRELL_A_INV,
        ),
        parity="odd",
        dyck=PathClass.DYCK_ALL_ODD,
        motzkin=PathClass.MOTZKIN_START_FLAT,
        size=lambda n: motzkin(n - 1) if n else 0,
        interior=PeakParityClass.ALL_EVEN,
        split=split_at_ground_flats,
        ground_image="ground_flats",
        paired=slice(1, -1),
        root_color="K",
    ),
    PeakParityClass.ALL_EVEN: _Side(
        letter="b",
        maps=(
            MapKind.PHI_B,
            MapKind.PSI_B,
            MapKind.EXPLICIT_B,
            MapKind.TIRRELL_B,
            MapKind.TIRRELL_B_INV,
        ),
        parity="even",
        dyck=PathClass.DYCK_ALL_EVEN,
        motzkin=PathClass.MOTZKIN_NO_GROUND_FLAT,
        size=riordan,
        interior=PeakParityClass.ALL_ODD,
        split=split_at_ground_downs,
        ground_image="ground_downs",
        paired=slice(None),
        root_color="B",
    ),
}


def _maps(side: _Side) -> tuple[Callable, ...]:
    """One side's maps, as the map table holds them now."""
    return tuple(bijections._IMPLEMENTATION[kind] for kind in side.maps)


def _scan_motzkin(n: int, rec: _Recorder) -> dict[PeakParityClass, list[MotzkinPath]]:
    """Check the Motzkin generators and inverses; return each side's target class."""
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
    targets = {}
    for cls, side in _SIDES.items():
        phi, psi, _, pair, unpair = _maps(side)
        targets[cls] = target = list(generate(side.motzkin, n))
        name = side.motzkin.value.removeprefix("motzkin-")
        rec.expect_count(f"generator-count-{name}", n, side.size(n), len(target))
        for m in target:
            try:
                inverts = phi(psi(m)) == m and pair(unpair(m)) == m
                rec.expect(f"inverse-roundtrip-{side.letter}", inverts, n, m)
                joined = "".join(seg.steps for seg in side.split(m))
                rec.expect("split-concat", joined == m.steps, n, m)
                rec.ok("no-unexpected-errors")
            except Exception as exc:
                rec.fail("no-unexpected-errors", f"n={n}: {m}: {exc!r}")
    return targets


def _check_member(
    n: int, rec: _Recorder, side: _Side, p: DyckPath, t: OrderedTree, st: PathStats
) -> MotzkinPath:
    """Run one side's checks on a class member; return its phi image."""
    phi, psi, explicit, pair, unpair = _maps(side)
    m1 = phi(p)
    m3 = pair(p)
    back = psi(m1)
    back_pair = unpair(m3)
    image = stats(m1)
    m2 = explicit(p)
    rec.expect(f"triple-agreement-{side.parity}", m1 == m2 and m2 == m3, n, p)
    rec.expect("size-preservation", len(m1) == n, n, p)
    rec.expect(f"roundtrip-recursive-{side.letter}", back == p, n, p)
    rec.expect(f"roundtrip-pairing-{side.letter}", back_pair == p, n, p)
    ground_image = getattr(image, side.ground_image)
    rec.expect("stat-transfer-ground", st.ground_returns == ground_image, n, p)
    rec.expect("stat-transfer-peaks", st.peaks == image.peak_image, n, p)
    body = p.steps[side.paired]
    clean = all(body[k : k + 2] != "UD" for k in range(0, len(body) - 1, 2))
    rec.expect("no-ud-pairs", clean, n, p)
    letters = color_edges(t)
    root_colors = {c for c, up in zip(letters, t.parent) if up == 0}
    rec.expect("root-edge-colors", root_colors <= {side.root_color}, n, p)
    counts = [letters.count(c) for c in "BRK"]
    blue, red, black = counts
    downs, flats = m1.steps.count("D"), m1.steps.count("F")
    rec.expect("coloring-counts", blue == red == downs and black == flats, n, p)
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
    return m1


def _scan_dyck(
    n: int, rec: _Recorder, targets: dict[PeakParityClass, list[MotzkinPath]]
) -> None:
    """One pass over the Dyck paths: every per-path check, and each member's side."""
    # the pruned class walks run in step with the full walk's members
    walks = {cls: generate(side.dyck, n) for cls, side in _SIDES.items()}
    images: dict[PeakParityClass, set[MotzkinPath]] = {cls: set() for cls in _SIDES}
    sizes = dict.fromkeys(PeakParityClass, 0)
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
        st = stats(p)
        rec.expect(
            "ground-returns-vs-components", st.ground_returns == len(comps), n, p
        )
        cls = classify(p)
        sizes[cls] += 1
        side = _SIDES.get(cls)
        alternates = side is None or all(classify(c) is side.interior for c in comps)
        rec.expect("parity-alternation", alternates, n, p)
        t = glove_to_tree(p)
        rec.expect("glove-roundtrip", glove_to_dyck(t) == p, n, p)
        rec.expect(
            "tree-codec-roundtrip", OrderedTree.from_parens(t.to_parens()) == t, n, p
        )
        rec.expect(
            "leaf-peak-transfer", t.leaf_depths() == [h for _, h in peaks(p)], n, p
        )
        if side is None:
            continue
        got = next(walks[cls], None)
        walked = f"{side.dyck.value} yielded {got}, expected {p}"
        rec.expect("class-generator-consistency", got == p, n, walked)
        try:
            images[cls].add(_check_member(n, rec, side, p, t, st))
            rec.ok("no-unexpected-errors")
        except Exception as exc:
            rec.fail("no-unexpected-errors", f"n={n}: {p}: {exc!r}")
    rec.expect_count("generator-count-dyck", n, catalan(n), total)
    rec.expect_count("class-partition", n, total, sum(sizes.values()))
    for cls, side in _SIDES.items():
        extra = next(walks[cls], None)
        if extra is not None:
            rec.fail(
                "class-generator-consistency",
                f"n={n}: {side.dyck.value} yielded {extra}, expected None",
            )
        rec.expect_count(f"counting-claim-{side.parity}", n, side.size(n), sizes[cls])
        if images[cls] == set(targets[cls]):
            rec.ok(f"image-{side.parity}", cases=max(sizes[cls], 1))
        else:
            rec.fail(
                f"image-{side.parity}",
                f"n={n}: {len(images[cls])} distinct images, expected class of size "
                f"{len(targets[cls])}",
            )


def _verify_size(n: int) -> list[CheckResult]:
    """Every check's results at size n alone."""
    rec = _Recorder()
    _scan_dyck(n, rec, _scan_motzkin(n, rec))
    return rec.results()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _verify_sizes(max_n: int) -> list[list[CheckResult]]:
    """Each size's results, in n order.

    The largest size runs in this process.  The others, largest first,
    run in forked workers, one per other usable CPU; a forked worker sees
    the map table as it is here, patches included.  With one usable CPU,
    no fork, or another thread running (a fork could copy a lock that
    thread holds), every size runs here.
    """
    workers = min(_usable_cpus() - 1, max_n)
    if workers < 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_verify_size(n) for n in range(max_n + 1)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        pending = {n: pool.submit(_verify_size, n) for n in reversed(range(max_n))}
        try:
            largest = _verify_size(max_n)
        except Exception:
            # a run in n order raises a smaller size's error first
            for n in range(max_n):
                pending[n].result()
            raise
        return [pending[n].result() for n in range(max_n)] + [largest]


def run_verification(max_n: int) -> list[CheckResult]:
    """Run every registered check for all sizes 0..max_n."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    rec = _Recorder()
    for results in _verify_sizes(max_n):
        rec.merge(results)
    return rec.results()
