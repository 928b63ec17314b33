"""Exhaustive cross-checks over every path up to a size bound.

Each named check accumulates cases across all sizes 0..max_n and reports
pass or fail with the first failing case.  For each n one scan walks the
Motzkin paths and keeps the two target classes; then a pass over the
Dyck paths runs every per-path check and, on each all-odd or all-even
path, that side's checks against the same tree and statistics.  What
differs between the two sides lives in one table, ``_SIDES``.

From n = 8 the Dyck pass is cut into chunks, one per prefix of 6 steps
that the walks visit; a chunk resumes the full walk from its prefix and
returns the class members it meets and the two pruned class walks' texts
under that prefix.  The scans are independent, so they run side by side
in forked workers, one per usable CPU, while the calling process merges
each size in n order once its scans are done (all run in the calling
process, in the same order, when only one CPU is usable).  The merge
sums the cases, checks the walk order across chunk borders, runs each
class walk, joined over the chunks, in step with the joined members, and
keeps each check's first failure in (n, lex) order, exactly as one
sequential scan of each size would report them.  A check that raises on
a path is a failure of ``no-unexpected-errors`` naming n and that path,
and the run goes on.

Each check compares two independent computations:
- generator counts against the counting formulas, and each pruned class
  walk against the members the full walk classifies into that class
- ``decompose``, which finds the returns to ground with a level count of
  its own, against the ground returns of ``stats`` and against the
  components' ``classify`` (parity alternation)
- the tree's leaf depths, read off its derived parent array, against
  ``peaks``; ``glove_to_dyck`` against the path it inverts; and the
  parent array a tree derives from its text against the text the
  ``OrderedTree`` constructor builds back from that array
- the recursive, colored-tree and pair-substitution routes against each
  other, against their inverses and against the target Motzkin class
- what each side's inverses accept, on every Motzkin path, against that
  side's pruned class walk, and the message of psi against that of the
  pair inverse on every path they reject
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
from itertools import chain
from typing import Callable, NamedTuple

from . import bijections
from .bijections import MapKind
from .enumeration import (
    PathClass,
    _dyck_texts,
    catalan,
    generate,
    lex_key,
    motzkin,
    riordan,
)
from .paths import (
    DyckPath,
    MotzkinPath,
    NotInImage,
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

# sizes from this semilength up are scanned in chunks, one per walk
# prefix of this many steps
_SPLIT_FROM = 8
_PREFIX_STEPS = 6

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
    "domain-a",
    "domain-b",
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


def _rejection(inverse: Callable, m: MotzkinPath) -> str | None:
    """The NotInImage message the inverse rejects m with, or None if it accepts m."""
    try:
        inverse(m)
    except NotInImage as exc:
        return str(exc)
    return None


def _scan_motzkin(n: int) -> tuple[list[CheckResult], dict[PeakParityClass, list[str]]]:
    """Check the Motzkin generators and inverses at size n; return the
    results and each side's target class as texts."""
    rec = _Recorder()
    targets = {cls: list(generate(side.motzkin, n)) for cls, side in _SIDES.items()}
    # each side's psi and pair inverse accept exactly the pruned walk's
    # paths, and reject every other path with one message
    domains = []
    for cls, side in _SIDES.items():
        _, psi, _, _, unpair = _maps(side)
        domains.append((f"domain-{side.letter}", set(targets[cls]), (psi, unpair)))
    total = 0
    prev = None
    for m in generate(PathClass.ALL_MOTZKIN, n):
        total += 1
        key = lex_key(m)
        rec.expect("generator-lex-order", prev is None or prev < key, n, m)
        prev = key
        try:
            parsed = MotzkinPath.from_text(m.render())
        except Exception as exc:
            rec.fail("no-unexpected-errors", f"n={n}: {m}: {exc!r}")
        else:
            rec.expect("parse-render-roundtrip", parsed == m, n, m)
        for name, members, inverses in domains:
            try:
                verdicts = {_rejection(inverse, m) for inverse in inverses}
            except Exception as exc:
                rec.fail(name, f"n={n}: {m}: {exc!r}")
                continue
            accepted = verdicts == {None}
            rejected_alike = len(verdicts) == 1 and None not in verdicts
            rec.expect(name, accepted if m in members else rejected_alike, n, m)
    rec.expect_count("generator-count-motzkin", n, motzkin(n), total)
    for cls, side in _SIDES.items():
        phi, psi, _, pair, unpair = _maps(side)
        target = targets[cls]
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
    return rec.results(), {cls: [m.steps for m in ms] for cls, ms in targets.items()}


def _rewrites(t: OrderedTree) -> bool:
    """Whether the constructor writes the tree's text back from the parent
    array derived from that text; an array it rejects is a failed case."""
    try:
        return OrderedTree(t.parent) == t
    except ValueError:
        return False


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
    rec.expect("tree-codec-roundtrip", _rewrites(relocated), n, p)
    return m1


def _check_path(
    n: int, rec: _Recorder, p: DyckPath, side: _Side | None
) -> tuple[OrderedTree, PathStats]:
    """Run the checks every Dyck path gets; return its tree and statistics."""
    rec.expect("parse-render-roundtrip", DyckPath.from_text(p.render()) == p, n, p)
    comps = decompose(p)
    rebuilt = "".join("U" + c.steps + "D" for c in comps)
    rec.expect("decompose-rebuild", rebuilt == p.steps, n, p)
    st = stats(p)
    rec.expect("ground-returns-vs-components", st.ground_returns == len(comps), n, p)
    alternates = side is None or all(classify(c) is side.interior for c in comps)
    rec.expect("parity-alternation", alternates, n, p)
    t = glove_to_tree(p)
    rec.expect("glove-roundtrip", glove_to_dyck(t) == p, n, p)
    rec.expect("tree-codec-roundtrip", _rewrites(t), n, p)
    rec.expect("leaf-peak-transfer", t.leaf_depths() == [h for _, h in peaks(p)], n, p)
    return t, st


class _Chunk(NamedTuple):
    """One chunk of a size's Dyck scan, as plain values for the merge."""

    results: list[CheckResult]
    paths: int  # the paths the full walk yielded
    ends: tuple[tuple[int, ...], str, tuple[int, ...]] | None  # first key and path, last key
    sizes: dict[PeakParityClass, int]
    images: dict[PeakParityClass, set[str]]  # the members' phi images
    walks: dict[PeakParityClass, list[str]]  # each pruned class walk's texts under the prefix
    members: list[tuple[PeakParityClass, str]]  # the class members, in walk order


def _scan_chunk(n: int, prefix: str) -> _Chunk:
    """Every per-path check on the Dyck paths of semilength n that begin
    with prefix, each member's side, and each pruned class walk's texts."""
    walks = {cls: list(_dyck_texts(side.dyck, n, prefix)) for cls, side in _SIDES.items()}
    members: list[tuple[PeakParityClass, str]] = []
    images: dict[PeakParityClass, set[str]] = {cls: set() for cls in _SIDES}
    sizes = dict.fromkeys(PeakParityClass, 0)
    rec = _Recorder()
    prev = None
    paths = 0
    for paths, text in enumerate(_dyck_texts(PathClass.ALL_DYCK, n, prefix), 1):
        p = DyckPath._built(text)
        key = lex_key(p)
        # the merge checks the order of each chunk's first path
        if prev is None:
            first = (key, text)
        else:
            rec.expect("generator-lex-order", prev < key, n, p)
        prev = key
        # a check that raises is a failure of no-unexpected-errors, which
        # counts a case only for the members whose checks all return
        try:
            cls = classify(p)
            sizes[cls] += 1
            side = _SIDES.get(cls)
            if side is not None:
                members.append((cls, text))
            t, st = _check_path(n, rec, p, side)
            if side is not None:
                images[cls].add(_check_member(n, rec, side, p, t, st).steps)
                rec.ok("no-unexpected-errors")
        except Exception as exc:
            rec.fail("no-unexpected-errors", f"n={n}: {p}: {exc!r}")
    ends = None if prev is None else (*first, prev)
    return _Chunk(rec.results(), paths, ends, sizes, images, walks, members)


def _merge_walks(n: int, rec: _Recorder, chunks: list[_Chunk]) -> None:
    """Run each pruned class walk, whole, in step with the members the
    full walk classifies into its class."""
    walks = {cls: chain(*[c.walks[cls] for c in chunks]) for cls in _SIDES}
    for cls, member in chain.from_iterable(c.members for c in chunks):
        got = next(walks[cls], None)
        walked = f"{_SIDES[cls].dyck.value} yielded {got}, expected {member}"
        rec.expect("class-generator-consistency", got == member, n, walked)
    for cls, walk in walks.items():
        extra = next(walk, None)
        if extra is not None:
            walked = f"{_SIDES[cls].dyck.value} yielded {extra}, expected None"
            rec.fail("class-generator-consistency", f"n={n}: {walked}")


def _merge_size(
    n: int,
    motzkin_scan: tuple[list[CheckResult], dict[PeakParityClass, list[str]]],
    chunks: list[_Chunk],
) -> list[CheckResult]:
    """Size n's results from its scans, as one scan of the whole size gives them."""
    rec = _Recorder()
    results, targets = motzkin_scan
    rec.merge(results)
    prev = None
    for chunk in chunks:
        # within a chunk each path's order is checked; across chunks, here
        if chunk.ends is not None:
            first, path, last = chunk.ends
            rec.expect("generator-lex-order", prev is None or prev < first, n, path)
            prev = last
        rec.merge(chunk.results)
    sizes = {cls: sum(c.sizes[cls] for c in chunks) for cls in PeakParityClass}
    total = sum(c.paths for c in chunks)
    rec.expect_count("generator-count-dyck", n, catalan(n), total)
    rec.expect_count("class-partition", n, total, sum(sizes.values()))
    _merge_walks(n, rec, chunks)
    for cls, side in _SIDES.items():
        rec.expect_count(f"counting-claim-{side.parity}", n, side.size(n), sizes[cls])
        images = set().union(*(c.images[cls] for c in chunks))
        if images == set(targets[cls]):
            rec.ok(f"image-{side.parity}", cases=max(sizes[cls], 1))
        else:
            rec.fail(
                f"image-{side.parity}",
                f"n={n}: {len(images)} distinct images, expected class of size "
                f"{len(targets[cls])}",
            )
    return rec.results()


def _prefixes(n: int) -> list[str]:
    """The walk prefixes that cut size n's Dyck scan into chunks, in lex order."""
    if n < _SPLIT_FROM:
        return [""]
    # every prefix any of the three walks visits, so that no text of a
    # class walk falls outside every chunk
    walks = (PathClass.ALL_DYCK, *(side.dyck for side in _SIDES.values()))
    found = {p for c in walks for p in _dyck_texts(c, n, stop=_PREFIX_STEPS)}
    # all of one length, so U before D is the reverse of character order
    return sorted(found, reverse=True)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _verify_sizes(max_n: int) -> list[list[CheckResult]]:
    """Each size's results, in n order.

    Each size is one Motzkin scan and its Dyck scan's chunks, one per
    walk prefix from _prefixes.  They run in forked workers, one per
    usable CPU, and this process merges each size, in n order, as soon
    as its scans are done, then drops them; a forked worker sees the map
    table as it is here, patches included.  With one usable CPU, no
    fork, or another thread running (a fork could copy a lock that
    thread holds), the scans run here, in the same order.  Either way the
    first scan in that order to raise raises its error.
    """
    plans = [(n, _prefixes(n)) for n in range(max_n + 1)]
    cpus = _usable_cpus()
    if cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [
            _merge_size(n, _scan_motzkin(n), [_scan_chunk(n, p) for p in prefixes])
            for n, prefixes in plans
        ]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    workers = min(cpus, sum(1 + len(prefixes) for _, prefixes in plans))
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        pending = [
            (
                n,
                pool.submit(_scan_motzkin, n),
                [pool.submit(_scan_chunk, n, p) for p in prefixes],
            )
            for n, prefixes in plans
        ]
        merged = []
        try:
            while pending:
                # a merged size's futures go, and the texts they hold with them
                n, scan, chunks = pending.pop(0)
                merged.append(_merge_size(n, scan.result(), [c.result() for c in chunks]))
            return merged
        except BaseException:
            # no scan after the one that raised can change the error
            pool.shutdown(cancel_futures=True)
            raise


def run_verification(max_n: int) -> list[CheckResult]:
    """Run every registered check for all sizes 0..max_n."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    rec = _Recorder()
    for results in _verify_sizes(max_n):
        rec.merge(results)
    return rec.results()
