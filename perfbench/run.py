#!/usr/bin/env python3
"""qschemes benchmark runner.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from the
checkout's own ``src``.  Workloads are closed loops: one process, one case at
a time.  ``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
the library unwrapped, running whole passes over the seeded cases until
``--seconds`` have passed and at least MIN_CASES cases are done.  Case times
are reported in wall time and, for the gated metrics, in units of a fixed
reference block timed between cases (see ``RefClock``).
``--trace 1`` runs one untraced and one traced pass twice each, whatever
``--seconds`` says, so that its counts depend on the seed alone, and reports
the per-layer metrics.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it,
starting with ``#``, repeat every metric by name and unit and add
``failed_frac``, the environment and the output digest.

A case *fails* when it raises, returns a wrong exact result, or (cli) exits
with the wrong code or prints a traceback; the run is *incorrect* when a case
returns a wrong exact result, when two passes over the same inputs disagree,
when the output digest differs from the one recorded in ``digests.json`` for
this workload and seed (or none is recorded where the workload requires one),
when a per-layer metric reads a span that no wrapped function records, or
when two traced passes give different call trees or operation counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
OUT = Path(".perfbench")
WORKLOADS = ("orbit", "functor", "moment_gauss", "cli")
SETUP_REPEATS = 3      # setup_s is the median of this many full set-ups
MIN_CASES = 210        # leaves at least ten cases beyond the 95th percentile
PROBE_REPEATS = 7      # subprocesses per cli start-up probe
REF_LOOPS = 12000      # iterations of the reference block (about 1 ms)
REF_EVERY_S = 0.05     # case time between two reference blocks
FAILED = object()      # output slot of a case that did not pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for the set-up repeats)")
    p.add_argument("--record", action="store_true",
                   help="run one pass and store its output digest in digests.json")
    return p.parse_args(argv)


def timed_setup(workload, seed):
    t0 = time.perf_counter()
    import workloads  # first import of qschemes: part of the set-up time

    wl = workloads.setup(workload, seed)
    return wl, time.perf_counter() - t0


def setup_repeats(args, first):
    """Median set-up time over this process and fresh child processes, so
    every sample includes interpreter-level imports."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


class Tally:
    def __init__(self):
        self.status = Counter()
        self.messages = Counter()

    @property
    def attempted(self):
        return sum(self.status.values())

    @property
    def failed(self):
        return self.attempted - self.status["ok"]


def reference_block():
    """Fixed pure-Python integer work, independent of the library: the unit
    ("ref") of the gated time metrics."""
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return s


class RefClock:
    """Times the reference block between cases, once per REF_EVERY_S of case
    time.  The shared host runs this process 20-40% slower or faster for
    minutes at a time; a case time divided by the median reference block of
    the same run cancels much of that drift (library code can slow more
    than the block does), while a change to the library moves the case
    times alone."""

    def __init__(self):
        self.samples = []
        self._since = 0.0

    def tick(self, case_s):
        self._since += case_s
        if self._since >= REF_EVERY_S:
            self._since = 0.0
            t0 = time.perf_counter()
            reference_block()
            self.samples.append(time.perf_counter() - t0)

    def unit_s(self):
        return statistics.median(self.samples)


def run_pass(wl, runner, tally, ref=None, latencies=None, tracer=None, clock=None):
    """One pass over the cases; returns the outputs (FAILED where a case did
    not pass).  Outputs must equal the reference pass, case by case."""
    from workloads import WrongResult

    outputs = []
    for k, case in enumerate(wl.cases):
        if tracer is not None:
            tracer.case = k
        t0 = time.perf_counter()
        try:
            out, status = runner(case), "ok"
        except WrongResult as exc:
            out, status = FAILED, "wrong"
            tally.messages[f"wrong: {exc}"] += 1
        except Exception as exc:
            out, status = FAILED, "error"
            tally.messages[f"error: {type(exc).__name__}: {exc}"] += 1
        dt = time.perf_counter() - t0
        if latencies is not None:
            latencies.append(dt)
        if clock is not None:
            clock.tick(dt)
        if status == "ok" and ref is not None and ref[k] is not FAILED and out != ref[k]:
            out, status = FAILED, "wrong"
            tally.messages["wrong: output differs between passes"] += 1
        tally.status[status] += 1
        outputs.append(out)
    if tracer is not None:
        tracer.case = -1
    return outputs


def digest(wl, outputs):
    h = hashlib.sha256()
    for case, out in zip(wl.cases, outputs):
        if wl.digested(case):
            obj = "failed" if out is FAILED else wl.canon(case, out)
            h.update(json.dumps(obj, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def recorded_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def check_digest(wl, workload, key, value):
    want = recorded_digests().get(workload, {}).get(key)
    return want == value or (want is None and wl.digest_seed is None), want


def environment():
    from qschemes.scalars import GaussQ

    try:  # a checkout without .git, or no git at all, records no sha
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        sha = None
    return {
        "python": sys.version.split()[0],
        "scalar_backend": type(GaussQ(1).re).__name__,
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


# -- end-to-end run ------------------------------------------------------------------

def measure(wl, seconds):
    """Whole passes until both ``seconds`` (on average) and MIN_CASES are reached."""
    tally, lat, clock = Tally(), [], RefClock()
    start = time.perf_counter()
    ref = None
    while True:
        t_pass = time.perf_counter()
        outputs = run_pass(wl, wl.run, tally, ref, lat, clock=clock)
        if ref is None:
            ref = outputs
        now = time.perf_counter()
        if len(lat) >= MIN_CASES and now - start >= seconds - (now - t_pass) / 2:
            return tally, lat, clock, now - start, ref


def end_to_end(args, wl, setup_s):
    tally, lat, clock, wall, ref = measure(wl, args.seconds)
    lat = sorted(lat)
    p50, p95 = statistics.median(lat), statistics.quantiles(lat, n=20)[18]
    unit = clock.unit_s()
    metrics = {
        "setup_s": setup_s,
        "cases_per_kref": 1000 * len(lat) * unit / sum(lat),
        "case_p50_ref": p50 / unit,
        "case_p95_ref": p95 / unit,
        "peak_rss_mb": wl.peak_rss_kb() / 1024,
        # the same figures in wall time, which drift with the host
        "cases_per_s": len(lat) / sum(lat),
        "case_p50_ms": p50 * 1000,
        "case_p95_ms": p95 * 1000,
        "ref_ms": unit * 1000,
    }
    info = {
        "wall_s": wall,
        "case_s": sum(lat),
        "ref_blocks": len(clock.samples),
        "passes": len(lat) // len(wl.cases),
        "cases_per_pass": len(wl.cases),
        "beyond_p95": sum(x > p95 for x in lat),
        "failed_frac": tally.failed / tally.attempted,
    }
    return tally, metrics, info, ref


# -- traced run --------------------------------------------------------------------

def startup_probe():
    """Median wall time of bare ``python -c pass`` and of importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = {"interp": [], "import": []}
    for _ in range(PROBE_REPEATS):
        for key, code in (("interp", "pass"), ("import", "import qschemes.cli")):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times[key].append((time.perf_counter() - t0) * 1000)
    interp = statistics.median(times["interp"])
    return interp, statistics.median(times["import"]) - interp


# Spans the per-layer metrics that are not "<span>.<calls|self_s|incl_s>" read.
DERIVED_FROM = {
    "linalg.matmul.mkn": "linalg.matmul",
    "linalg.matmul.integral_frac": "linalg.matmul",
    "linalg.matmul.nonreal_frac": "linalg.matmul",
    "linalg.echelon.ops": "linalg.echelon",
    "rmatrix.compose.order_gt1_frac": "rmatrix.compose",
    "orbit.membership.composes_per_call": "orbit.membership",
    "orbit.membership.calls_per_case": "orbit.membership",
    "orbit.membership.calls_per_member_case": "orbit.membership",
    "orbit.membership.calls_per_nonmember_case": "orbit.membership",
}


def unwrapped_spans(tracer, names):
    """Per-layer metrics among ``names`` whose span no wrapped function
    records: a renamed or inlined library function would read as 0."""
    missing = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        span = DERIVED_FROM.get(name, span if kind in ("calls", "self_s", "incl_s") else None)
        if span is not None and span not in tracer.wrapped:
            missing[name] = span
    return missing


def layer_metrics(tracer, wl, names):
    """The per-layer metrics ``names``: ``<span>.calls``, ``<span>.self_s`` and
    ``<span>.incl_s`` come from the spans, the rest from operation counts."""
    kinds = [wl.kind(c) for c in wl.cases]
    calls, incl, self_s, per_kind = tracer.summary(kinds)
    counts = tracer.counts
    n_kind = Counter(kinds)

    def frac(num, den):
        return num / den if den else 0.0

    m = {
        "linalg.matmul.mkn": counts["linalg.matmul.mkn"],
        "linalg.matmul.integral_frac": frac(counts["linalg.matmul.integral"],
                                            calls["linalg.matmul"]),
        "linalg.matmul.nonreal_frac": frac(counts["linalg.matmul.nonreal"],
                                           calls["linalg.matmul"]),
        "linalg.echelon.ops": counts["linalg.echelon.ops"],
        "rmatrix.compose.order_gt1_frac": frac(counts["rmatrix.compose.order_gt1"],
                                               calls["rmatrix.compose"]),
        "orbit.membership.composes_per_call": frac(counts["orbit.membership.composes"],
                                                   calls["orbit.membership"]),
        "orbit.membership.calls_per_case": frac(sum(per_kind.values()), len(kinds)),
        "orbit.membership.calls_per_member_case": frac(per_kind["member"], n_kind["member"]),
        "orbit.membership.calls_per_nonmember_case": frac(per_kind["nonmember"],
                                                          n_kind["nonmember"]),
        "trace.spans": len(tracer.spans),
    }
    from_spans = {"calls": calls, "self_s": self_s, "incl_s": incl}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind in from_spans:
            m[name] = from_spans[kind][span]
    return m


def traced(args, wl, names):
    """Untraced and traced passes, alternating, over the same cases."""
    from tracer import Tracer

    runner = wl.run_traced or wl.run
    tally = Tally()
    walls = {"plain": [], "traced": []}
    ref, layers, shapes = None, [], []
    for rep in range(2):
        t0 = time.perf_counter()
        outputs = run_pass(wl, runner, tally, ref)
        walls["plain"].append(time.perf_counter() - t0)
        if ref is None:
            ref = outputs
        tracer = Tracer()
        tracer.install()
        missing = unwrapped_spans(tracer, names)
        try:
            t0 = time.perf_counter()
            run_pass(wl, runner, tally, ref, tracer=tracer)
            walls["traced"].append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        if rep == 0:
            path = OUT / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
            path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(path)
        layers.append(layer_metrics(tracer, wl, names))
        shapes.append(tracer.shape())
    counts_equal = shapes[0] == shapes[1]
    if not counts_equal:
        tally.messages["wrong: operation counts differ between two traced passes"] += 1
    metrics = {k: (layers[0][k] + layers[1][k]) / 2 if k.endswith("_s") else layers[0][k]
               for k in layers[0]}
    metrics["cli.interp_ms"], metrics["cli.import_ms"] = startup_probe()
    # the faster pass of each kind, since the host slows down in spells
    metrics["trace.overhead_frac"] = min(walls["traced"]) / min(walls["plain"]) - 1
    for name, span in missing.items():
        tally.messages[f"wrong: {name} reads span {span}, which no wrapped function records"] += 1
    info = {"pass_wall_s": walls, "counts_repeat": counts_equal, "unwrapped_spans": missing}
    return tally, metrics, info, ref


# -- entry point -----------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "qschemes" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        sys.stderr.write(f"perfbench: {ROOT} holds no qschemes checkout (src/qschemes, corpus)\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        _, setup_s = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    load_start = os.getloadavg()
    wl, first_setup = timed_setup(args.workload, args.seed)
    if wl.prepare is not None:
        wl.prepare(wl)
    key = str(args.seed if wl.digest_seed is None else wl.digest_seed)
    env = environment()
    if args.record:
        tally = Tally()
        ref = run_pass(wl, wl.run_traced or wl.run, tally)
        if tally.status["wrong"]:
            sys.stderr.write(f"perfbench: wrong results, digest not recorded: {dict(tally.messages)}\n")
            return 1
        value = digest(wl, ref)
        table = recorded_digests()
        table.setdefault(args.workload, {})[key] = value
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"workload": args.workload, "seed": key, "digest": value}))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        wanted = bench["per_layer"]
        tally, metrics, info, ref = traced(args, wl, [m["name"] for m in wanted])
    else:
        setup_s, samples = setup_repeats(args, first_setup)
        tally, metrics, info, ref = end_to_end(args, wl, setup_s)
        info["setup_samples_s"] = samples
        wanted = bench["end_to_end"]

    value = digest(wl, ref)
    digest_ok, want = check_digest(wl, args.workload, key, value)
    if not digest_ok:
        tally.messages[f"wrong: digest {value[:12]} differs from recorded "
                       f"{want[:12] if want else 'none (required for this workload)'}"] += 1
    correct = (tally.status["wrong"] == 0 and digest_ok and info.get("counts_repeat", True)
               and not info.get("unwrapped_spans"))
    env["loadavg_start"], env["loadavg_end"] = load_start, os.getloadavg()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "digest": value, "info": info,
              "messages": dict(tally.messages), "metrics": metrics}
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for msg, n in sorted(tally.messages.items()):
        print(f"# {n} x {msg}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True))
    print(f"# digest {value}" + ("" if want else " (no recorded digest for this seed)"))
    for m in wanted:
        print(f"# {args.workload} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        for name, unit in (("cases_per_s", "1/s"), ("case_p50_ms", "ms"),
                           ("case_p95_ms", "ms"), ("ref_ms", "ms")):
            print(f"# {args.workload} {name} = {metrics[name]:.6g} {unit} (wall time)")
    print(f"# {args.workload} failed_frac = {tally.failed / tally.attempted:.6g} 1")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
