"""Count the bytecode instructions of one warm pass, on one or two checkouts.

    python tools/opcount.py BASE [CHANGE] --suite orbit --seed 1 --trials 5
    python tools/opcount.py BASE [CHANGE] --workload functor --seed 3 --top 15

For each checkout a child process, with the checkout as its working
directory and its ``src`` (and, for a workload, its ``perfbench``) first on
``sys.path``, runs one pass of a ``qs check`` suite over the checkout's
``corpus/`` (``suites.run_suite``) or of an in-process benchmark workload
(every case of ``perfbench/workloads.py``'s ``setup(name, seed)``).  It then
runs a second pass under ``sys.settrace`` with ``frame.f_trace_opcodes`` set
and counts its ``opcode`` events.  The first pass is a warm-up, so imports
and the per-shape plan caches are not counted.  Children run with
``PYTHONHASHSEED=0`` and write no bytecode, and for fixed seeds the count is
exact: two runs of one checkout give the same number.

The tool prints the count of each checkout and, for two, the ratio BASE /
CHANGE (above 1 when CHANGE runs fewer instructions); ``--top N`` adds the N
functions with the most instructions in each checkout, as a profile with no
timing noise, and ``--json`` prints one JSON object instead of the text.

The count sees Python bytecode only.  Work inside C calls is invisible to
it: the big-integer products inside ``sum(map(mul, ..))``, ``_echelon``'s
row arithmetic and ``lru_cache`` hits.  A change that moves work into C, or
makes the integers larger, can look like a gain here and be none, so report
the ratio next to the wall-time pairs of ``tools/bench_pairs.py``, never in
place of them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = ("orbit", "functor", "moment_gauss")   # the in-process workloads
SUITES = ("coxeter", "moment", "functor", "orbit", "regularize", "all")


def job(args):
    """The pass to count, as a JSON-able description."""
    if args.suite is not None:
        return {"suite": args.suite, "seed": args.seed, "trials": args.trials}
    return {"workload": args.workload, "seed": args.seed}


def make_pass(spec):
    """A function that runs one pass of the described suite or workload."""
    if "suite" in spec:
        from qschemes.quiver import parse_quiver
        from qschemes.suites import run_suite

        quivers = {p.stem: parse_quiver(p.read_text(encoding="utf-8"))
                   for p in sorted(Path("corpus").glob("*.quiver"))}
        return lambda: run_suite(quivers, spec["suite"], spec["seed"], spec["trials"])
    import workloads

    wl = workloads.setup(spec["workload"], spec["seed"])
    if wl.prepare is not None:
        wl.prepare(wl)

    def one_pass():
        for case in wl.cases:
            wl.run(case)
    return one_pass


def traced_counts(run):
    """The ``opcode`` events of one call of ``run``, per code object."""
    counts = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def child(spec, top):
    """Warm up, count one pass, and print the result as one JSON line."""
    run = make_pass(spec)
    run()
    counts = traced_counts(run)
    cwd = Path.cwd()

    def where(code):
        path = Path(code.co_filename)
        path = path.relative_to(cwd) if path.is_relative_to(cwd) else path
        return f"{path}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}"

    print(json.dumps({"count": sum(counts.values()),
                      "top": [[where(code), n] for code, n in counts.most_common(top)]}))


def count(checkout: Path, spec, top=0):
    """{"count", "top"} of one warm pass in a child process on the checkout."""
    path = [str(checkout / "src")] + ([str(checkout / "perfbench")] if "workload" in spec else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec),
           "--top", str(top)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", nargs="*", type=Path, help="BASE and optionally CHANGE")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--suite", choices=SUITES)
    what.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=5, help="trials of a suite")
    p.add_argument("--top", type=int, default=0, help="also list the N busiest functions")
    p.add_argument("--json", action="store_true", help="print one JSON object")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is None:
        if not 1 <= len(args.checkouts) <= 2:
            p.error("give one or two checkouts")
        if args.suite is None and args.workload is None:
            p.error("give --suite or --workload")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.child is not None:
        child(json.loads(args.child), args.top)
        return 0
    spec = job(args)
    results = [dict(count(c.resolve(), spec, args.top), checkout=str(c))
               for c in args.checkouts]
    out = {"job": spec, "runs": results}
    if len(results) == 2:
        out["ratio"] = results[0]["count"] / results[1]["count"]
    if args.json:
        print(json.dumps(out))
        return 0
    print(", ".join(f"{k} {v}" for k, v in spec.items()))
    for side, r in zip(("BASE", "CHANGE"), results):
        print(f"  {side:<6} {r['count']:>13,}  {r['checkout']}")
    if "ratio" in out:
        print(f"  ratio BASE / CHANGE: x{out['ratio']:.3f}")
    for side, r in zip(("BASE", "CHANGE"), results):
        if r["top"]:
            print(f"{side} busiest functions:")
            for where, n in r["top"]:
                print(f"  {n:>11,}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
