"""Paired benchmark records and protocol checks of a change against its parent.

    python3 tools/bench_pairs.py pairs --parent HEAD --change INDEX \\
        --workload fit-linear --seeds 2201-2210 --out BENCH_22.json
    python3 tools/bench_pairs.py protocol --parent HEAD --change INDEX \\
        --out BENCH_22.json

Each side is exported with `git archive` into a scratch directory; INDEX
names the staged tree, any other value a commit. `pairs` runs
`perfbench/run.py --workload W --seed S` on both exports in fresh processes,
one pair per seed, the side that runs first alternating from pair to pair,
and writes the pairs, the summary and the claim in the schema
tests/test_bench_record.py checks. Pairs of other workloads already in the
record are kept, so one record can collect several workloads.

`protocol` runs in both exports, with BLAS at one thread: the 14 protocol
fits (moons, circles, aniso and spirals at seeds 0-2 through `planemix fit`,
aniso seed 0 with `--lift linear`, and perfbench's serve recipe), hashing
each model file; `class_scores` and `certified_predict` on 11 moons pools
of 16384 rows (seeds 10000-10010) on the served model, hashed, with the
rescored counts; the same on pool 10000 with row 0 set to FAR_ROW, beyond
the served model's input limit; and the one-row `predict` time of the
served model and the linear aniso model, with both exports' packages in
one process (the parent's imported as planemix_parent) and timed in
alternating rounds. The results go into the record's `checks` block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROTOCOL_FITS = [(d, s, ()) for d in ("moons", "circles", "aniso", "spirals")
                 for s in (0, 1, 2)] + [("aniso", 0, ("--lift", "linear"))]
POOL_SEEDS = range(10000, 10011)
POOL_ROWS = 16384
FAR_ROW = [1e37, 0.0]   # a row beyond the served model's input limit
LATENCY_ROUNDS = 15     # alternating in-process timings per side
SIDES = ("parent", "change")
DESCRIPTION = (
    "Alternating parent/change pairs of `python3 perfbench/run.py "
    "--workload W --seed S --seconds T --trace 0`, each side run in a fresh "
    "process from a `git archive` export of its tree, one run at a time, "
    "the side that runs first alternating from pair to pair. Each side "
    "holds the detail line and the result line its run printed, and its "
    "wall time; `ratio` is change/parent per end-to-end metric and `order` "
    "the order the sides ran in.")


def declared_metrics() -> dict[str, str]:
    """Each end-to-end metric of BENCHMARK.json and the way it improves."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def ratios(parent: dict, change: dict, names) -> dict[str, float]:
    """change/parent of each named metric whose parent value is nonzero."""
    out = {}
    for name in names:
        p = parent["result"]["metrics"][name]["value"]
        c = change["result"]["metrics"][name]["value"]
        if p:
            out[name] = c / p
    return out


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: the pair count, the median change/parent
    ratio, wins and losses by the metric's direction (ties count for
    neither side) and each side's 25/50/75 percentiles."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        chosen = [p for p in pairs if p["workload"] == workload]
        summary[workload] = {}
        for name, direction in better.items():
            values = {side: np.array([p[side]["result"]["metrics"][name]
                                      ["value"] for p in chosen])
                      for side in SIDES}
            gain = values["change"] - values["parent"]
            if direction == "lower":
                gain = -gain
            summary[workload][name] = {
                **{f"{side}_q1_median_q3": np.percentile(
                    values[side], [25, 50, 75]).tolist() for side in SIDES},
                "change_wins": int((gain > 0).sum()),
                "change_losses": int((gain < 0).sum()),
                "pairs": len(chosen),
                "median_ratio": float(np.median(
                    [p["ratio"][name] for p in chosen])),
            }
    return summary


def judge(summary: dict, workload: str, metric: str, better: str) -> dict:
    """The claim on one summarised metric: the change wins at least 9 of
    10 pairs (that share of any count) and its median beats the parent's
    by more than the parent's interquartile range."""
    row = summary[workload][metric]
    p_q1, p_med, p_q3 = row["parent_q1_median_q3"]
    c_med = row["change_q1_median_q3"][1]
    gain = (p_med - c_med) if better == "lower" else (c_med - p_med)
    return {"workload": workload, "metric": metric,
            "rule": "change wins at least 9 of 10 pairs and its median "
                    "beats the parent's by more than the parent's "
                    "interquartile range",
            "change_wins": row["change_wins"], "pairs": row["pairs"],
            "median_ratio": row["median_ratio"],
            "median_gain": gain, "parent_iqr": p_q3 - p_q1,
            "holds": bool(row["change_wins"] >= 0.9 * row["pairs"]
                          and gain > p_q3 - p_q1)}


def export(rev: str, dest: str) -> str:
    """Write rev (INDEX: the staged tree) into dest; returns its tree id."""
    tree = (subprocess.run(["git", "write-tree"], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
            if rev == "INDEX" else
            subprocess.run(["git", "rev-parse", f"{rev}^{{tree}}"], cwd=ROOT,
                           check=True, capture_output=True,
                           text=True).stdout.strip())
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return tree


def run_perfbench(root: str, workload: str, seed: int,
                  seconds: float) -> dict:
    """One fresh `perfbench/run.py` process in the export at root: its
    detail line, its final result line and its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line)["detail"] for line in lines
                  if line.startswith('{"detail"'))
    return {"detail": detail, "result": json.loads(lines[-1]),
            "wall_s": round(wall, 1)}


def load_record(path: str) -> dict:
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return {"pairs": [], "checks": {}}


def write_record(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_pairs(args, work: str) -> None:
    better = declared_metrics()
    record = load_record(args.out)
    trees = {side: export(rev, os.path.join(work, side))
             for side, rev in (("parent", args.parent),
                               ("change", args.change))}
    record.update(description=DESCRIPTION, parent_src_tree=trees["parent"],
                  change_src_tree=trees["change"])
    pairs = [p for p in record["pairs"] if p["workload"] != args.workload]
    for i, seed in enumerate(seed_range(args.seeds)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"workload": args.workload, "seed": seed, "order": list(order)}
        for side in order:
            pair[side] = run_perfbench(os.path.join(work, side),
                                       args.workload, seed, args.seconds)
        pair["ratio"] = ratios(pair["parent"], pair["change"], better)
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{k} {v:.3f}" for k, v in pair["ratio"].items()), flush=True)
        record["pairs"] = pairs
        record["summary"] = summarise(pairs, better)
        write_record(args.out, record)
    if args.claim:
        record["claim"] = judge(record["summary"], args.workload, args.claim,
                                better[args.claim])
        write_record(args.out, record)


def side_env(path: str) -> dict:
    env = dict(os.environ, PYTHONPATH=path,
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_side(path: str, mode: str, root: str, work: str) -> dict:
    """This tool's mode in a child process importing from path."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), mode,
                           "--root", root, "--work", work],
                          env=side_env(path), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def protocol_side(root: str, work: str) -> dict:
    """Inside one export: the model-file hashes and the pool results."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads
    from planemix import cli, model, persist, workflow
    files = {}
    for dataset, seed, extra in PROTOCOL_FITS:
        name = f"{dataset}_{seed}{'_linear' if extra else ''}.json"
        path = os.path.join(work, name)
        with open(os.devnull, "w") as quiet:
            stdout, sys.stdout = sys.stdout, quiet
            try:
                code = cli.main(["fit", "--dataset", dataset, "--seed",
                                 str(seed), *extra, "--out", path])
            finally:
                sys.stdout = stdout
        assert code == 0, name
        with open(path, "rb") as fh:
            files[name] = digest(fh.read())
    served = workloads.ServedModel(work, workloads.Ledger())
    served.fit()
    files["served.json"] = served.digest
    mdl = persist.load_model(served.path)[0]

    def scored(pool: np.ndarray) -> dict:
        labels, rescored = model.certified_predict(mdl, pool)
        return {
            "class_scores": digest(model.class_scores(mdl, pool).tobytes()),
            "labels": digest(labels.astype(np.int64).tobytes()),
            "rescored": int(rescored.size)}

    pools = {str(seed): scored(workflow.generate_dataset(
        "moons", n=POOL_ROWS, seed=seed).features) for seed in POOL_SEEDS}
    far = workflow.generate_dataset("moons", n=POOL_ROWS,
                                    seed=POOL_SEEDS[0]).features
    far[0] = FAR_ROW
    return {"files": files, "pools": pools, "far_row_pool": scored(far)}


def latency_pair(work: str) -> dict:
    """In one process, with the parent's package imported as
    planemix_parent next to the change's planemix: one-row predict on the
    served model and the linear aniso model, each side on the files its
    own export wrote, timed in alternating rounds; the quartiles over
    rounds of us per call."""
    import timeit
    import planemix_parent
    import planemix
    out = {}
    for name in ("served.json", "aniso_0_linear.json"):
        calls = {}
        for side, package in (("parent", planemix_parent),
                              ("change", planemix)):
            path = os.path.join(work, side + "_files", name)
            mdl = package.persist.load_model(path)[0]
            row = package.workflow.generate_dataset(
                "moons" if name == "served.json" else "aniso", n=64,
                seed=0).features[:1]
            package.model.predict(mdl, row)
            calls[side] = (lambda p=package, m=mdl, r=row:
                           p.model.predict(m, r))
        times = {side: [] for side in SIDES}
        for i in range(LATENCY_ROUNDS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                times[side].append(timeit.timeit(calls[side], number=2000)
                                   / 2000 * 1e6)
        out[name] = {f"{side}_q1_median_q3_us": np.percentile(
            times[side], [25, 50, 75]).tolist() for side in SIDES}
    return out


def cmd_protocol(args, work: str) -> None:
    record = load_record(args.out)
    results, dirs = {}, {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        export(rev, os.path.join(work, side))
        dirs[side] = os.path.join(work, side + "_files")
        os.makedirs(dirs[side])
        root = os.path.join(work, side)
        results[side] = run_side(os.path.join(root, "src"), "protocol-side",
                                 root, dirs[side])
    alias = os.path.join(work, "alias")
    os.makedirs(alias)
    for side, name in (("parent", "planemix_parent"), ("change", "planemix")):
        os.symlink(os.path.join(work, side, "src", "planemix"),
                   os.path.join(alias, name))
    latency = run_side(alias, "latency-pair", alias, work)
    parent, change = results["parent"], results["change"]
    record.setdefault("checks", {})["protocol"] = {
        "what": "model-file sha256 of the 14 protocol fits, and class_scores "
                "and certified_predict label sha256 with rescored counts on "
                "11 moons pools of 16384 rows on the served model, in each "
                "export with BLAS at one thread",
        "files_identical": sorted(n for n in parent["files"]
                                  if parent["files"][n] == change["files"][n]),
        "files_differing": sorted(n for n in parent["files"]
                                  if parent["files"][n] != change["files"][n]),
        "pools_identical": sorted(s for s in parent["pools"]
                                  if parent["pools"][s] == change["pools"][s]),
        "pools_differing": sorted(s for s in parent["pools"]
                                  if parent["pools"][s] != change["pools"][s]),
        "rescored": {s: [parent["pools"][s]["rescored"],
                         change["pools"][s]["rescored"]]
                     for s in parent["pools"]},
        "far_row_pool": {
            "what": f"pool {POOL_SEEDS[0]} with row 0 set to {FAR_ROW}; "
                    "rescored is [parent, change]",
            **{f"{key}_identical": parent["far_row_pool"][key]
               == change["far_row_pool"][key]
               for key in ("class_scores", "labels")},
            "rescored": [parent["far_row_pool"]["rescored"],
                         change["far_row_pool"]["rescored"]]},
        "parent": parent, "change": change}
    record["checks"]["one_row_predict_us"] = {
        "what": "quartiles over rounds of 2000 one-row model.predict calls, "
                "parent and change packages in one process, "
                f"{LATENCY_ROUNDS} rounds per side in alternating order, "
                "BLAS at one thread",
        **latency}
    write_record(args.out, record)
    print(json.dumps({k: record["checks"]["protocol"][k] for k in
                      ("files_differing", "pools_differing", "rescored",
                       "far_row_pool")}))
    print(json.dumps(record["checks"]["one_row_predict_us"]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("pairs", "protocol"):
        q = sub.add_parser(mode)
        q.add_argument("--parent", default="HEAD")
        q.add_argument("--change", default="INDEX")
        q.add_argument("--out", required=True)
        if mode == "pairs":
            q.add_argument("--workload", required=True)
            q.add_argument("--seeds", required=True, help="e.g. 2201-2210")
            q.add_argument("--seconds", type=float, default=30)
            q.add_argument("--claim", help="metric to judge the claim on")
    for mode in ("protocol-side", "latency-pair"):
        q = sub.add_parser(mode)
        q.add_argument("--root", required=True)
        q.add_argument("--work", required=True)
    args = p.parse_args(argv)
    if args.mode == "protocol-side":
        print(json.dumps(protocol_side(args.root, args.work)))
    elif args.mode == "latency-pair":
        print(json.dumps(latency_pair(args.work)))
    else:
        args.out = os.path.abspath(args.out)
        with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
            (cmd_pairs if args.mode == "pairs" else cmd_protocol)(args, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
