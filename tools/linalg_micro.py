"""Microbenchmarks of qschemes.linalg and its scalars on two checkouts.

    python tools/linalg_micro.py BASE CHANGE --out BENCH_matrix_storage.json

Each of three rounds times every operation once in a fresh child process per
checkout, alternating which checkout goes first; the child imports
``qschemes`` from the checkout's ``src``.  A timing is the best of five repeats of a timeit
loop, in microseconds per call, and the file keeps the best over the rounds
under ``"microbench"``, with the ratio CHANGE / BASE.  Inputs are seeded
integer and Gaussian-integer matrices, built through ``Matrix(rows)`` of
``GaussQ`` entries, which every version of the library accepts.  The scalar
rows time ``GaussQ`` arithmetic on Gaussian rationals with denominators,
``trunc_mul`` and ``trunc_inv`` of such truncated scalars at orders 1 to 4,
``scalar_end`` and ``scale_end`` on a rank-3 module of order 3, and
``restrict_scalars`` and ``restrict_scalars_rev`` from R_q to R_1 (q = 2, 3)
of endomorphisms of rank-2 and rank-4 modules.  ``scale_end`` takes only
maps over their full order, so no row scales a map over R_1 (the
``scale_end_3_d3_base1`` row of older result files).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROUNDS = 3

CHILD = r"""
import json, random, sys, timeit
sys.path.insert(0, sys.argv[1] + "/src")
from fractions import Fraction
from qschemes.linalg import Matrix, hstack, inverse, rank
from qschemes.repn import random_linear_map
from qschemes.rmatrix import (ModShape, restrict_scalars, restrict_scalars_rev, scalar_end,
                              scale_end)
from qschemes.rng import SplitMix64
from qschemes.scalars import GaussQ, TruncScalar, trunc_inv, trunc_mul

rng = random.Random(5)

def mat(m, n, nonreal=False):
    return Matrix([[GaussQ(rng.randint(-9, 9), rng.randint(-9, 9) if nonreal else 0)
                    for _ in range(n)] for _ in range(m)], ncols=n)

a1, b1 = mat(1, 1), mat(1, 1)
r12, s12, c12 = mat(12, 12), mat(12, 12), mat(12, 12, True)
cols = [mat(12, 3) for _ in range(4)]
r24, c24 = mat(24, 24), mat(24, 24, True)
ops = {
    "matmul_1x1": (lambda: a1 @ b1, 20000),
    "matmul_12_real": (lambda: r12 @ s12, 200),
    "matmul_12_real_by_nonreal": (lambda: r12 @ c12, 200),
    "add_12_real": (lambda: r12 + s12, 2000),
    "hstack_4x12x3_real": (lambda: hstack(cols), 2000),
    "rank_24_real": (lambda: rank(r24), 5),
    "rank_24_nonreal": (lambda: rank(c24), 2),
    "inverse_24_nonreal": (lambda: inverse(c24), 2),
}

def gq():
    return GaussQ(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 6)))

def trunc(d):
    return TruncScalar(d, [GaussQ(rng.randint(1, 9))] + [gq() for _ in range(d - 1)])

x, y = gq(), gq()
ops["gaussq_mul"] = (lambda: x * y, 20000)
ops["gaussq_add"] = (lambda: x + y, 20000)
ops["gaussq_div"] = (lambda: x / y, 20000)
for d in (1, 2, 3, 4):
    s, t = trunc(d), trunc(d)
    ops[f"trunc_mul_d{d}"] = ((lambda s=s, t=t: trunc_mul(s, t)), 2000)
    ops[f"trunc_inv_d{d}"] = ((lambda s=s: trunc_inv(s)), 2000)
t3, sh = trunc(3), ModShape(3, 3)
f3 = random_linear_map(SplitMix64(3), sh, sh, 3)
ops["scalar_end_3_d3"] = (lambda: scalar_end(t3, 3), 2000)
ops["scale_end_3_d3"] = (lambda: scale_end(f3, t3), 500)
for q in (2, 3):
    for n in (2, 4):
        near, far, draw = ModShape(n, q), ModShape(n, 1), SplitMix64(10 * q + n)
        ends = random_linear_map(draw, near, near, q), random_linear_map(draw, near, near, q)
        ops[f"restrict_scalars_q{q}_n{n}"] = (
            (lambda f=ends[0], far=far: restrict_scalars(f, far, 1)), 500)
        ops[f"restrict_scalars_rev_q{q}_n{n}"] = (
            (lambda f=ends[1], far=far: restrict_scalars_rev(f, far, 1)), 500)
out = {name: min(timeit.repeat(f, number=n, repeat=5)) / n * 1e6 for name, (f, n) in ops.items()}
print(json.dumps(out))
"""


def time_checkout(checkout: Path):
    proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout.resolve())],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    best = {"base": {}, "change": {}}
    for i in range(ROUNDS):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            for name, us in time_checkout(getattr(args, side)).items():
                best[side][name] = min(us, best[side].get(name, us))
    table = json.loads(args.out.read_text()) if args.out.exists() else {}
    table["microbench"] = {
        "unit": "us per call, best of the rounds",
        "rounds": ROUNDS,
        "rows": {name: {"base": best["base"][name], "change": us,
                        "ratio": us / best["base"][name]}
                 for name, us in best["change"].items()},
    }
    args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
