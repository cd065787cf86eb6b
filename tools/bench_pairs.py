"""Run the benchmark in alternating pairs on two checkouts and condense the runs.

    python tools/bench_pairs.py BASE CHANGE --workload moment_gauss --pairs 10 \\
        --seed 59 --out BENCH_matrix_storage.json

Each pair runs ``perfbench/run.py --trace 0`` at the given seed, for the
runner's own run length, once in each checkout, as a subprocess with the
checkout as its working directory.  Every pair runs BASE and then CHANGE, so
the runs alternate BASE, CHANGE, BASE, .. and no side ever runs twice in a
row: a fast or slow spell of the host that spans two runs touches both sides,
never one side twice.  ``--setup-only`` times one set-up per run instead (the
runner's ``{"setup_s": ...}`` line).  The last line a run prints is its JSON
result.

Every run sets ``PYTHONDONTWRITEBYTECODE=1``, so each child compiles the
library from source as a fresh checkout does.  A bytecode cache left in
either checkout would make its side import faster, so the tool refuses
(exit 2, naming the directory) when ``src/`` or ``perfbench/`` of either
checkout holds a ``__pycache__``; it deletes nothing.

The output file holds one section per workload (``<workload>/setup`` for
set-up pairs), so several invocations can fill one file: the environment
(python, cpu count, both git shas, load average before and after), the seed,
every run's metrics, each side's median and quartiles per metric, the pair
ratios CHANGE / BASE and the wins.  A pair is a win for the side whose value
is better in the direction ``BENCHMARK.json`` gives; ties count for neither.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CODE_DIRS = ("src", "perfbench")   # where a run imports code from the checkout


def bytecode_caches(checkout: Path):
    """The ``__pycache__`` directories under the checkout's code directories."""
    return sorted(p for d in CODE_DIRS for p in (checkout / d).rglob("__pycache__"))


def run_once(checkout: Path, workload, seed, setup_only):
    """The metric values and correctness of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--setup-only"] if setup_only else ["--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if setup_only:
        return {"correct": True, "metrics": {"setup_s": result["setup_s"]}}
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    """(q1, median, q3) of the values; all three equal for a single value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def condense(runs, better):
    """Per-metric summary of alternating pairs.

    ``runs`` are records {"pair", "side" ("base" or "change"), "metrics"};
    ``better`` maps a metric name to "higher" or "lower".  Only metrics named
    in ``better`` and present in both runs of a pair are summarized.
    """
    pairs = {}
    for rec in runs:
        pairs.setdefault(rec["pair"], {})[rec["side"]] = rec["metrics"]
    out = {}
    for name, direction in better.items():
        base, change, ratios = [], [], []
        wins = {"change": 0, "base": 0, "tie": 0}
        for _, sides in sorted(pairs.items()):
            if not {"base", "change"} <= sides.keys():
                continue
            b, c = sides["base"].get(name), sides["change"].get(name)
            if b is None or c is None:
                continue
            base.append(b)
            change.append(c)
            ratios.append(c / b if b else None)
            if b == c:
                wins["tie"] += 1
            elif (c > b) == (direction == "higher"):
                wins["change"] += 1
            else:
                wins["base"] += 1
        if not base:
            continue
        bq, cq = quartiles(base), quartiles(change)
        out[name] = {
            "better": direction,
            "base": {"q1": bq[0], "median": bq[1], "q3": bq[2], "runs": base},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2], "runs": change},
            "median_ratio": cq[1] / bq[1] if bq[1] else None,
            "pair_ratios": ratios,
            "wins": wins,
        }
    return out


def git_sha(checkout: Path):
    """HEAD of the checkout, suffixed "-dirty" when a tracked file differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True).stdout.strip()

    sha = git("rev-parse", "HEAD")
    if sha and git("status", "--porcelain", "--untracked-files=no"):
        sha += "-dirty"
    return sha or None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    for checkout in (args.base, args.change):
        caches = bytecode_caches(checkout)
        if caches:
            print(f"error: {caches[0]} holds bytecode, which would speed up one side's "
                  "imports; remove it or benchmark a fresh clone", file=sys.stderr)
            return 2

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    env = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "base_sha": git_sha(args.base), "change_sha": git_sha(args.change),
           "loadavg_start": os.getloadavg()}
    runs = []
    for i in range(args.pairs):
        for side in ("base", "change"):
            rec = run_once(getattr(args, side), args.workload, args.seed, args.setup_only)
            runs.append({"pair": i, "side": side, **rec})
            print(json.dumps(runs[-1]), flush=True)
    env["loadavg_end"] = os.getloadavg()

    key = args.workload + ("/setup" if args.setup_only else "")
    table = json.loads(args.out.read_text()) if args.out.exists() else {}
    table[key] = {
        "environment": env,
        "seed": args.seed,
        "pairs": args.pairs,
        "all_correct": all(r["correct"] for r in runs),
        "runs": runs,
        "summary": condense(runs, better),
    }
    args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
