"""Fit-and-serve benchmark for planemix.

    python3 perfbench/run.py --workload fit-auto --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Workloads (one closed-loop client each; see BENCHMARK.json for why):
    fit-auto    train_classifier with every default on moons
    fit-linear  train_classifier(lift="linear") on aniso, five datasets in turn
    serve       load a saved moons RFF model, then rounds of one 16384-row
                batch and a burst of single rows

Each workload reports every end-to-end metric: fit workloads serve their
dataset-0 model on 4096 generated rows between fits, and `serve` reports the
median time of three fits of its model spread over the run.

Each workload runs in a fresh Python process with BLAS pinned to one thread
and numpy's huge-page advice off, both through the environment before numpy
loads, and with src/ on the import path, from the root of a checkout. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. With --workload all, each
workload runs in turn and prints its own lines.

Self-tests: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fit-auto", "fit-linear", "serve")
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    # numpy's transparent-hugepage advice makes peak RSS depend on how much
    # huge-page memory the host has free, so the same run reads 213 or 290 MB
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"{workload}: no result within {CHILD_TIMEOUT_S}s",
              file=sys.stderr)
        return 3
    return proc.returncode


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="planemix fit-and-serve benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "planemix", "__init__.py")):
        print(f"no planemix sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        sys.stdout.flush()
        code = run_workload(workload, args.seed, args.seconds, args.trace)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
