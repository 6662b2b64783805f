"""Measure the benchmark's run-to-run spread on each workload.

    python3 perfbench/check_spread.py --runs 10 [--workloads fanout,wire] [--first-seed 1]

Runs ``run.py --trace 0`` once per seed (one process at a time) and prints,
for every end-to-end metric, the median of the runs and their spread: the
distance between the first and third quartiles as a share of the median.
A spread should stay below a third of the metric's bound in
``BENCHMARK.json`` (``setup_s`` is exempt from that third).  Timings are also shown
without the host-speed rescaling (speed.py).  The values of every run go
to ``.perfbench/spread.json``.  Exits non-zero when a run
fails, reports incorrect output, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from stats import median, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload: str, seed: int) -> dict:
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    completed = subprocess.run(
        command
        + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect:\n{completed.stderr}")
    with open(os.path.join(ROOT, ".perfbench", f"{workload}.trace0.json"), encoding="utf-8") as handle:
        result["unscaled"] = json.load(handle)["unscaled"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    record: dict[str, dict[str, list[float]]] = {}
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        unscaled: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(spec, workload, seed)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in result["unscaled"].items():
                unscaled.setdefault(name, []).append(value)
        record[workload] = {"rescaled": values, "unscaled": unscaled}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for name, bound in bounds.items():
            share = spread(values[name])
            verdict = "ok"
            if share > bound:
                verdict = "OVER BOUND"
                failed = True
            elif name != "setup_s" and share > bound / 3:
                verdict = "above a third of the bound"
            raw = f"  (unscaled spread {spread(unscaled[name]):.4f})" if name in unscaled else ""
            print(
                f"  {name:20s} median {median(values[name]):12.6g}  "
                f"spread {share:7.4f}  bound {bound:5.3f}  {verdict}{raw}"
            )
        sys.stdout.flush()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "spread.json"), "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
