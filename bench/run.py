"""Benchmark for peakparity: the verify, batch and deep workloads.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload verify|batch|deep --seed N --seconds S --trace 0|1

The package is imported from this checkout's src/ and measured only
through its public calls, in this one process, with no extra threads.
Operations run in a closed loop: each call starts when the previous one
has returned, and a new operation starts only while it is expected to end
within --seconds.

Every output is compared with a reference computed by reference.py from
the seeded inputs.  A call that raises PeakParityError or RecursionError
is a failed operation and the run goes on; an output that differs from
the reference is a failed operation and makes the run incorrect.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced operations with traced ones, which record spans
around every call into the package and then replay the workload's inputs
through each module's public functions, and reports the per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  README.md lists the
workloads, the metrics and which layer metric should move which
end-to-end metric.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
VERIFY_CASES = Path(__file__).resolve().parent / "verify_cases.json"

MAPS = (
    "phi-a",
    "phi-b",
    "psi-a",
    "psi-b",
    "explicit-a",
    "explicit-b",
    "tirrell-a",
    "tirrell-b",
    "tirrell-a-inv",
    "tirrell-b-inv",
)
ROUTES = {"phi": "recursive", "psi": "recursive", "explicit": "explicit", "tirrell": "pairing"}
TREE_STAGES = ("glove_to_tree", "color_edges", "relocate_reds", "walk_to_motzkin")
PATH_FUNCTIONS = ("from_text", "classify", "stats", "render")
PARITY_VALUE = {"odd": "all-odd", "even": "all-even", "mixed": "mixed"}


def route_of(map_name: str) -> str:
    return ROUTES[map_name.split("-")[0]]


def side_of(map_name: str) -> str:
    """'a' for the maps between all-odd paths and their images, 'b' for all-even."""
    return "a" if "-a" in map_name else "b"


def takes_dyck(map_name: str) -> bool:
    return not (map_name.startswith("psi") or map_name.endswith("-inv"))


def key(map_name: str) -> str:
    return map_name.replace("-", "_")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads."""

    verify_max_n: int = 10
    batch_members: int = 2000
    batch_semilengths: tuple[int, int] = (8, 40)
    deep_semilength: int = 3000
    # Motzkin chain U^j D^j expands to the Dyck chain U^2j D^2j (all-even)
    # and F U^j D^j to U^(2j+1) D^(2j+1) (all-odd); j = 600 puts both past
    # the interpreter's default recursion limit.
    chain_half: int = 600
    # fresh-interpreter imports timed before each untraced operation, so
    # that setup_s samples the whole run rather than its first second
    imports_per_op: int = 3


FULL = Sizes()
SMOKE = Sizes(
    verify_max_n=3,
    batch_members=20,
    batch_semilengths=(2, 6),
    deep_semilength=40,
    chain_half=6,
    imports_per_op=1,
)


def load_package():
    """Import peakparity from this checkout's src/, never from an installed copy."""
    init = SRC / "peakparity" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} not found; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import peakparity
    import peakparity.cli

    if Path(peakparity.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported peakparity from {peakparity.__file__}, not {init}")
    return peakparity


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def time_import() -> float:
    """Wall time of a fresh interpreter that imports peakparity and exits."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import peakparity"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        check=True,
    )
    return perf_counter() - start


@dataclass
class Tally:
    """Operations attempted and failed over a whole run."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, where: str, exc: BaseException | str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.failures[where] += count
        reason = exc if isinstance(exc, str) else type(exc).__name__
        self.errors[f"{where}: {reason}"] += count

    def mismatch(self, where: str, detail: str) -> None:
        self.fail(where, "wrong output")
        if len(self.wrong) < 5:
            self.wrong.append(f"{where}: {detail[:300]}")

    def check(self, where: str, got, want, subject: str) -> None:
        if got == want:
            self.ok()
        else:
            self.mismatch(where, f"{subject} gave {got!r}, expected {want!r}")


class Tracer:
    """Spans recorded around calls into the package, kept in memory.

    A span is (operation index, name, start, end); the operation index is
    the identifier shared by the spans of one workload operation.
    """

    def __init__(self, op: int):
        self.op = op
        self.spans: list[tuple[int, str, float, float]] = []
        self.counts: Counter = Counter()

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((self.op, name, start, end))

    def call(self, name: str, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.record(name, start, perf_counter())

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end in self.spans:
            out[name] += end - start
        return out

    def durations(self, prefix: str) -> list[float]:
        return [end - start for _, name, start, end in self.spans if name.startswith(prefix)]


@dataclass
class OpTimes:
    """Timings of one workload operation.

    map_s and map_calls hold, per map, the seconds spent in that map's
    calls (or its convert call) and the number of paths it converted.
    op_s is the time the workload is named for; busy_s is everything the
    operation timed, which the tracing overhead compares.
    """

    op_s: float
    busy_s: float
    map_s: Counter
    map_calls: Counter
    tracer: Tracer | None = None


@dataclass(frozen=True)
class Job:
    """One map call with its input and the reference output text."""

    map_name: str
    kind: object
    path: object
    expected: str


def member_jobs(pp, members: list[tuple[str, str]]) -> list[Job]:
    """The five calls of each member's side: three forward maps, two inverses."""
    jobs = []
    for dyck, image in members:
        side = "a" if image.startswith("F") else "b"
        dyck_path = pp.DyckPath.from_text(dyck)
        image_path = pp.MotzkinPath.from_text(image)
        for name in MAPS:
            if side_of(name) != side:
                continue
            if takes_dyck(name):
                jobs.append(Job(name, pp.MapKind(name), dyck_path, image))
            else:
                jobs.append(Job(name, pp.MapKind(name), image_path, dyck))
    return jobs


def call_maps(pp, jobs: list[Job], tally: Tally, tracer: Tracer | None) -> OpTimes:
    """Run every job through bijections.apply_map and check each output."""
    apply_map = pp.bijections.apply_map
    errors = (pp.PeakParityError, RecursionError)
    map_s: Counter = Counter()
    map_calls: Counter = Counter()
    began = perf_counter()
    for job in jobs:
        start = perf_counter()
        try:
            out = apply_map(job.kind, job.path)
        except errors as exc:
            end = perf_counter()
            tally.fail(key(job.map_name), exc)
        else:
            end = perf_counter()
            if tracer is None:
                text = out.render()
            else:
                text = tracer.call("paths.render", out.render)
            tally.check(key(job.map_name), text, job.expected, f"{job.map_name} on input of length {len(job.path)}")
        if tracer is not None:
            tracer.record(f"bijections.{key(job.map_name)}", start, end)
        map_s[job.map_name] += end - start
        map_calls[job.map_name] += 1
    return OpTimes(sum(map_s.values()), perf_counter() - began, map_s, map_calls)


def run_cli(pp, argv: list[str], stdin: str = "") -> tuple[object, str, str, float, float]:
    """Call cli.main in-process; returns (exit code, stdout, stderr, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = pp.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            except RecursionError:
                code = "RecursionError"
            end = perf_counter()
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), start, end


def replay_parse(pp, tracer: Tracer, dyck_texts, motzkin_texts, tally: Tally):
    """paths.from_text over every input text; returns the parsed paths."""
    dycks = [tracer.call("paths.from_text", pp.DyckPath.from_text, t) for t in dyck_texts]
    motzkins = [tracer.call("paths.from_text", pp.MotzkinPath.from_text, t) for t in motzkin_texts]
    for text, path in zip(list(dyck_texts) + list(motzkin_texts), dycks + motzkins):
        tally.check("from_text", path.render(), text, "parse and render")
    return dycks, motzkins


def replay_inspect(pp, tracer: Tracer, dycks, motzkins, parities, tally: Tally) -> None:
    """paths.classify on every Dyck input and paths.stats on every input."""
    for path, parity in zip(dycks, parities):
        text = path.render()
        got = tracer.call("paths.classify", pp.classify, path)
        tally.check("classify", got.value, PARITY_VALUE[parity], text[:40])
        st = tracer.call("paths.stats", pp.stats, path)
        tally.check("stats", st.peaks, text.count("UD"), text[:40])
    for path in motzkins:
        text = path.render()
        st = tracer.call("paths.stats", pp.stats, path)
        tally.check("stats", st.f_count, text.count("F"), text[:40])


def replay_trees(pp, tracer: Tracer, members, tally: Tally) -> None:
    """The colored-tree stages, one at a time, on every Dyck member."""
    errors = (pp.PeakParityError, RecursionError)
    for path, image in members:
        try:
            tree = tracer.call("trees.glove_to_tree", pp.glove_to_tree, path)
            coloring = tracer.call("trees.color_edges", pp.color_edges, tree)
            moved, moved_colors = tracer.call("trees.relocate_reds", pp.relocate_reds, tree, coloring)
            walk = tracer.call("trees.walk_to_motzkin", pp.walk_to_motzkin, moved, moved_colors)
        except errors as exc:
            tally.fail("trees", exc)
            continue
        tally.check("trees", walk.render(), image, f"tree route on length {len(path)}")


class Verify:
    """cli verify --max-n N in-process, then every map over the class members
    of semilength 0..N, the inputs verify cross-checks."""

    name = "verify"
    cli_parts = ("verify.run_verification",)

    def __init__(self, pp, sizes: Sizes, rng: random.Random, trace: bool):
        self.pp = pp
        self.max_n = sizes.verify_max_n
        cases = json.loads(VERIFY_CASES.read_text())
        if str(self.max_n) not in cases:
            raise SystemExit(f"bench: no recorded verify case counts for max_n={self.max_n}")
        self.cases = cases[str(self.max_n)]
        odd, even = reference.class_images(self.max_n)
        self.members = [(reference.odd_member(m), m) for m in odd]
        self.members += [(reference.even_member(m), m) for m in even]
        self.jobs = member_jobs(pp, self.members)
        if trace:
            self.dyck_texts = [p for n in range(self.max_n + 1) for p in reference.dyck_paths(n)]
            self.motzkin_texts = [m for n in range(self.max_n + 1) for m in reference.motzkin_paths(n)]
            self.parities = [reference.peak_parity(p) for p in self.dyck_texts]
            self.tree_members = [(pp.DyckPath.from_text(d), m) for d, m in self.members]
            self.classes = self._reference_classes()

    def _reference_classes(self) -> dict[str, list[str]]:
        n = self.max_n
        dyck = reference.dyck_paths(n)
        motzkin = reference.motzkin_paths(n)
        by_parity = {p: [d for d in dyck if reference.peak_parity(d) == p] for p in PARITY_VALUE}
        return {
            "all-dyck": dyck,
            "dyck-all-odd": by_parity["odd"],
            "dyck-all-even": by_parity["even"],
            "dyck-mixed": by_parity["mixed"],
            "all-motzkin": motzkin,
            "motzkin-start-flat": [m for m in motzkin if m.startswith("F")],
            "motzkin-no-ground-flat": [m for m in motzkin if not reference.has_ground_flat(m)],
        }

    def _check_results(self, where: str, results: dict[str, tuple[bool, int]], tally: Tally) -> None:
        """Every check passes, and the seed's checks cover as many cases as at the seed."""
        for name, want in self.cases.items():
            if name not in results:
                tally.mismatch(where, f"check {name} missing")
        for name, (passed, cases) in results.items():
            want = self.cases.get(name, cases)
            tally.check(where, (passed, cases), (True, want), f"check {name}")

    def _check_report(self, code, out: str, err: str, tally: Tally) -> None:
        results = {}
        for line in out.splitlines():
            with contextlib.suppress(ValueError, KeyError, TypeError):
                record = json.loads(line)
                results[record["name"]] = (record["passed"], record["cases"])
        if code != 0:
            tally.mismatch("verify", f"exit code {code}: {err.strip()[:200]}")
        self._check_results("verify", results, tally)

    def op(self, tally: Tally, tracer: Tracer | None) -> OpTimes:
        argv = ["verify", "--max-n", str(self.max_n), "--format", "json-lines"]
        code, out, err, start, end = run_cli(self.pp, argv)
        self._check_report(code, out, err, tally)
        times = call_maps(self.pp, self.jobs, tally, tracer)
        times.op_s = end - start
        times.busy_s += end - start
        if tracer is not None:
            tracer.record("cli.main", start, end)
            self._replay(tally, tracer)
        times.tracer = tracer
        return times

    def _replay(self, tally: Tally, tracer: Tracer) -> None:
        pp = self.pp
        results = tracer.call("verify.run_verification", pp.run_verification, self.max_n)
        tracer.counts["verify.run_verification.cases"] = sum(r.cases for r in results)
        self._check_results("run_verification", {r.name: (r.passed, r.cases) for r in results}, tally)
        for cls, want in self.classes.items():
            path_class = pp.PathClass(cls)
            start = perf_counter()
            got = list(pp.generate(path_class, self.max_n))
            tracer.record(f"enumeration.generate.{key(cls)}", start, perf_counter())
            tracer.counts[f"enumeration.generate.{key(cls)}.paths"] = len(got)
            tally.check("generate", [p.render() for p in got], want, f"generate({cls}, {self.max_n})")
        counts = tracer.counts
        counts["enumeration.yield_ratio"] = (
            counts["enumeration.generate.dyck_all_odd.paths"] / counts["enumeration.generate.all_dyck.paths"]
        )
        dycks, motzkins = replay_parse(pp, tracer, self.dyck_texts, self.motzkin_texts, tally)
        replay_inspect(pp, tracer, dycks, motzkins, self.parities, tally)
        replay_trees(pp, tracer, self.tree_members, tally)


class Batch:
    """cli convert --map M - once per map, the seeded class members on stdin."""

    name = "batch"
    cli_parts = ("paths.from_text", "paths.render") + tuple(f"bijections.{key(m)}" for m in MAPS)

    def __init__(self, pp, sizes: Sizes, rng: random.Random, trace: bool):
        self.pp = pp
        low, high = sizes.batch_semilengths
        half = sizes.batch_members // 2
        odd = [reference.odd_image(rng.randint(low, high), rng) for _ in range(half)]
        even = [reference.uniform_no_ground_flat(rng.randint(low, high), rng) for _ in range(half)]
        self.members = {
            "a": [(reference.odd_member(m), m) for m in odd],
            "b": [(reference.even_member(m), m) for m in even],
        }
        self.lines = {}
        for name in MAPS:
            pairs = self.members[side_of(name)]
            if takes_dyck(name):
                self.lines[name] = ([d for d, _ in pairs], [m for _, m in pairs])
            else:
                self.lines[name] = ([m for _, m in pairs], [d for d, _ in pairs])
        if trace:
            everyone = self.members["a"] + self.members["b"]
            self.dycks = [pp.DyckPath.from_text(d) for d, _ in everyone]
            self.images = [pp.MotzkinPath.from_text(m) for _, m in everyone]
            self.parities = ["odd"] * half + ["even"] * half
            self.tree_members = list(zip(self.dycks, [m for _, m in everyone]))

    def op(self, tally: Tally, tracer: Tracer | None) -> OpTimes:
        map_s: Counter = Counter()
        map_calls: Counter = Counter()
        for name in MAPS:
            inputs, expected = self.lines[name]
            stdin = "\n".join(inputs) + "\n"
            code, out, err, start, end = run_cli(self.pp, ["convert", "--map", name, "-"], stdin)
            elapsed = end - start
            got = out.splitlines()
            for i, (line, want) in enumerate(zip(got, expected)):
                tally.check(key(name), line, want, f"convert --map {name}, line {i + 1}")
            if len(got) < len(expected):
                reason = err.strip().splitlines()[-1][:200] if err.strip() else f"exit code {code}"
                tally.fail(key(name), reason, len(expected) - len(got))
            if tracer is not None:
                tracer.record("cli.main", start, end)
            map_s[name] += elapsed
            map_calls[name] += len(expected)
        total = sum(map_s.values())
        times = OpTimes(total, total, map_s, map_calls, tracer)
        if tracer is not None:
            self._replay(tally, tracer)
        return times

    def _replay(self, tally: Tally, tracer: Tracer) -> None:
        """What each convert call does, one library call at a time."""
        pp = self.pp
        apply_map = pp.bijections.apply_map
        errors = (pp.PeakParityError, RecursionError)
        for name in MAPS:
            kind = pp.MapKind(name)
            parse = pp.DyckPath.from_text if takes_dyck(name) else pp.MotzkinPath.from_text
            span = f"bijections.{key(name)}"
            for text, want in zip(*self.lines[name]):
                t0 = perf_counter()
                try:
                    path = parse(text)
                    t1 = perf_counter()
                    out = apply_map(kind, path)
                    t2 = perf_counter()
                except errors as exc:
                    tally.fail(key(name), exc)
                    continue
                line = out.render()
                t3 = perf_counter()
                tracer.record("paths.from_text", t0, t1)
                tracer.record(span, t1, t2)
                tracer.record("paths.render", t2, t3)
                tally.check(key(name), line, want, f"{name} on {text}")
        replay_inspect(pp, tracer, self.dycks, self.images, self.parities, tally)
        replay_trees(pp, tracer, self.tree_members, tally)


class Deep:
    """Every map of each side, through the library, on one all-odd and one
    all-even member of semilength 3,000 and typical area, and on the chains
    U^k D^k for one odd and one even k of about 1,200."""

    name = "deep"
    cli_parts = ()

    def __init__(self, pp, sizes: Sizes, rng: random.Random, trace: bool):
        self.pp = pp
        n, j = sizes.deep_semilength, sizes.chain_half
        images = [
            reference.typical(reference.odd_image, n, rng),
            reference.typical(reference.uniform_no_ground_flat, n, rng),
            "F" + "U" * j + "D" * j,
            "U" * j + "D" * j,
        ]
        self.members = [
            (reference.odd_member(m) if m.startswith("F") else reference.even_member(m), m)
            for m in images
        ]
        self.jobs = member_jobs(pp, self.members)
        if trace:
            self.parities = [reference.peak_parity(d) for d, _ in self.members]
            self.tree_members = [(pp.DyckPath.from_text(d), m) for d, m in self.members]

    def op(self, tally: Tally, tracer: Tracer | None) -> OpTimes:
        times = call_maps(self.pp, self.jobs, tally, tracer)
        times.tracer = tracer
        if tracer is not None:
            dycks, motzkins = replay_parse(
                self.pp, tracer, [d for d, _ in self.members], [m for _, m in self.members], tally
            )
            replay_inspect(self.pp, tracer, dycks, motzkins, self.parities, tally)
            replay_trees(self.pp, tracer, self.tree_members, tally)
        return times


WORKLOADS = {w.name: w for w in (Verify, Batch, Deep)}


def end_to_end(ops: list[OpTimes], setup: list[float]) -> dict[str, float]:
    """Timings are medians over the run's operations; rates are the paths
    converted over the run divided by the seconds the maps concerned took."""

    def rate(names) -> float:
        return sum(o.map_calls[n] for o in ops for n in names) / sum(o.map_s[n] for o in ops for n in names)

    metrics = {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median([o.op_s for o in ops]),
        "paths_per_s": rate(MAPS),
    }
    for route in ("recursive", "explicit", "pairing"):
        metrics[f"{route}_paths_per_s"] = rate([n for n in MAPS if route_of(n) == route])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(bench, plain: list[OpTimes], traced: list[OpTimes], tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics named as in BENCHMARK.json, and the workload-specific rest."""
    totals = [o.tracer.totals() for o in traced]

    def layer(name: str) -> float:
        return statistics.median([t.get(name, 0.0) for t in totals])

    metrics: dict[str, float] = {}
    for fn in PATH_FUNCTIONS:
        metrics[f"paths.{fn}_s"] = layer(f"paths.{fn}")
    for name in MAPS:
        metrics[f"bijections.{key(name)}_s"] = layer(f"bijections.{key(name)}")
    latencies = [d for o in traced for d in o.tracer.durations("bijections.")]
    percentiles = statistics.quantiles(latencies, n=100) if len(latencies) > 1 else latencies * 99
    metrics["bijections.call_p50_ms"] = 1000 * statistics.median(latencies)
    metrics["bijections.call_p99_ms"] = 1000 * percentiles[98]
    for stage in TREE_STAGES:
        metrics[f"trees.{stage}_s"] = layer(f"trees.{stage}")
    metrics["trace.overhead_s"] = statistics.median([o.busy_s for o in traced]) - statistics.median(
        [o.busy_s for o in plain]
    )
    operations = len(plain) + len(traced)
    for name in MAPS:
        metrics[f"bijections.{key(name)}.failures"] = tally.failures[key(name)] / operations

    extra: dict[str, float] = {"bijections.calls_sampled": len(latencies)}
    for name in sorted({n for t in totals for n in t if n.startswith(("enumeration.", "verify."))}):
        extra[f"{name}_s"] = layer(name)
    extra.update(sorted(traced[0].tracer.counts.items()))
    if bench.cli_parts:
        extra["cli.overhead_s"] = layer("cli.main") - sum(layer(p) for p in bench.cli_parts)
    return metrics, extra


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """One benchmark run; returns the result object and prints the report."""
    pp = load_package()
    context = machine()
    rng = random.Random(seed)
    bench = WORKLOADS[workload](pp, sizes, rng, trace)
    setup: list[float] = []
    if not trace:
        time_import()  # fill the bytecode cache
    tally = Tally()
    plain: list[OpTimes] = []
    traced: list[OpTimes] = []
    # Start another operation (with tracing, another untraced and traced
    # pair) only while it is expected to end within the run's seconds.
    start = perf_counter()
    while True:
        began = perf_counter()
        if not trace:
            setup += [time_import() for _ in range(sizes.imports_per_op)]
        plain.append(bench.op(tally, None))
        if trace:
            traced.append(bench.op(tally, Tracer(len(traced))))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break

    if trace:
        metrics, extra = per_layer(bench, plain, traced, tally)
    else:
        metrics, extra = end_to_end(plain, setup), {}
    units = {name: unit_of(name) for name in metrics}
    failures = {key(m): tally.failures[key(m)] / len(plain + traced) for m in MAPS}

    print(f"machine: python {context['python']}, nproc {context['nproc']}, cpu {context['cpu']}")
    print(
        f"workload {workload}: seed {seed}, {len(plain)} untraced and {len(traced)} traced "
        f"operations in {perf_counter() - start:.1f} s"
    )
    for name, value in metrics.items():
        print(f"{workload}.{name} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{workload}.{name} {value:.6g}")
    for alias, name in ALIASES.get(workload, {}).items():
        if name in metrics:
            print(f"{alias} {metrics[name]:.6g} {units[name]}  (= {workload}.{name})")
    print(f"ops_attempted {tally.attempted}")
    print(f"ops_failed {tally.failed}")
    for reason, count in sorted(tally.errors.items()):
        print(f"  failed {count}: {reason}")
    for line in tally.wrong:
        print(f"  wrong output: {line}")
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": context,
        "operations": len(plain) + len(traced),
        "op_s_samples": [o.op_s for o in plain],
        "setup_s_samples": setup,
        "failures_per_operation": {k: v for k, v in failures.items() if v},
        "extra": extra,
    }
    print("detail " + json.dumps(detail))
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return result


# Workload names of the end-to-end metrics, printed beside the generic ones.
ALIASES = {
    "verify": {"verify_s": "op_s"},
    "batch": {
        "batch_paths_per_s": "paths_per_s",
        "batch_recursive_paths_per_s": "recursive_paths_per_s",
        "batch_explicit_paths_per_s": "explicit_paths_per_s",
        "batch_pairing_paths_per_s": "pairing_paths_per_s",
    },
    "deep": {"deep_s": "op_s"},
}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
