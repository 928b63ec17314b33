"""Run every workload on several seeds and write one trajectory point.

    python3 bench/trajectory.py --seeds 1-10 --out bench/results/BENCH_<k>.json

Each workload runs once per seed untraced, then once traced on the first
seed, each run in its own process and one at a time, for the run_seconds
of BENCHMARK.json.  The file records, per workload and end-to-end metric,
the values, their median, quartiles and spread (quartile distance over
median); the traced run's per-layer metrics; the failures per map; and
the machine the runs used.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def summary(values: list[float]) -> dict:
    q1, mid, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    point = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            result, detail = bench(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result, "operations": detail["operations"]})
            point["machine"] = detail["machine"]
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], result["attempted"], result["failed"], values, flush=True)
        traced, traced_detail = bench(workload, args.seeds[0], seconds, 1)
        point["workloads"][workload] = {
            "end_to_end": {
                name: {"unit": unit["unit"], **summary([r["metrics"][name]["value"] for r in runs])}
                for name, unit in runs[0]["metrics"].items()
            },
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failures_per_operation": traced_detail["failures_per_operation"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_extra": traced_detail["extra"],
        }
        for name, s in point["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.3f}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
