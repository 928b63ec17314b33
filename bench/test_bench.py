"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import reference
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result_of(capsys) -> tuple[dict, str]:
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(capsys, workload, trace):
    run.run(workload, seed=7, seconds=0, trace=bool(trace), sizes=run.SMOKE)
    result, out = result_of(capsys)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert f"{workload}.{metric['name']} " in out
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_wrong_map_is_caught(capsys, monkeypatch, workload):
    pp = run.load_package()

    def wrong_phi_a(path):
        return pp.MotzkinPath.from_text("F" * (path.semilength + 1))

    monkeypatch.setattr(pp.bijections, "phi_a", wrong_phi_a)
    monkeypatch.setitem(pp.bijections._IMPLEMENTATION, pp.MapKind.PHI_A, wrong_phi_a)
    run.run(workload, seed=7, seconds=0, trace=False, sizes=run.SMOKE)
    result, out = result_of(capsys)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "wrong output" in out


def test_recursion_error_is_a_failed_operation(capsys, monkeypatch):
    pp = run.load_package()

    def too_deep(path):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(pp.bijections._IMPLEMENTATION, pp.MapKind.PSI_B, too_deep)
    run.run("deep", seed=7, seconds=0, trace=False, sizes=run.SMOKE)
    result, out = result_of(capsys)
    # psi_b runs once on each of the two even-side inputs
    assert result["failed"] == 2
    assert result["correct"] is True
    assert "failed 2: psi_b: RecursionError" in out


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_uniform_motzkin_is_uniform_and_seeded():
    rng = random.Random(3)
    draws = Counter(reference.uniform_motzkin(4, rng) for _ in range(9000))
    assert set(draws) == set(reference.motzkin_paths(4))
    assert all(900 <= c <= 1100 for c in draws.values())
    assert reference.uniform_motzkin(50, random.Random(5)) == reference.uniform_motzkin(50, random.Random(5))


def test_reference_members_are_in_their_classes():
    odd, even = reference.class_images(8)
    assert len(odd) == sum(len(reference.motzkin_paths(n)) for n in range(8))
    assert [len(reference.motzkin_paths(n)) for n in range(8)] == [1, 1, 2, 4, 9, 21, 51, 127]
    assert len(even) == sum([1, 0, 1, 1, 3, 6, 15, 36, 91])  # Riordan numbers
    assert all(reference.peak_parity(reference.odd_member(m)) == "odd" for m in odd)
    assert all(reference.peak_parity(reference.even_member(m)) == "even" for m in even)
