"""Microbenchmarks of qschemes.linalg and its scalars on two checkouts.

    python tools/linalg_micro.py BASE CHANGE --out BENCH_int_trunc.json

Each of three rounds times every operation once in a fresh child process per
checkout, alternating which checkout goes first; the child imports
``qschemes`` from the checkout's ``src``.  A timing is the best of five repeats of a timeit
loop, in microseconds per call, and the file keeps the best over the rounds
under ``"microbench"``, with the ratio CHANGE / BASE.  Inputs are seeded
integer and Gaussian-integer matrices, built through ``Matrix(rows)`` of
``GaussQ`` entries, which every version of the library accepts.  The scalar
rows time ``GaussQ`` arithmetic on Gaussian rationals with denominators,
``trunc_mul`` and ``trunc_inv`` of such truncated scalars at orders 1 to 4
(rows ``_real`` use real ones with denominators), their sums and
differences, ``TruncScalar(d, ints)`` construction (``trunc_new_ints``),
``scalar_end`` and ``scale_end`` on a rank-3 module of order 3, f + t Id
there (``plus_scalar_3_d3``: ``shift_end`` where the checkout has it, else
``f + scalar_end(t, 3)``, which ``add_scalar_end_3_d3`` times on both), and
``restrict_scalars`` and ``restrict_scalars_rev`` from R_q to R_1 (q = 2, 3)
of endomorphisms of rank-2 and rank-4 modules.  ``scale_end`` takes only
maps over their full order, so no row scales a map over R_1 (the
``scale_end_3_d3_base1`` row of older result files).  The module-map rows
time ``compose`` of endomorphisms of rank n and order d over R_c for (n, d,
c) = (1, 1, 1), (2, 1, 1), (2, 2, 2), (2, 3, 3) and (4, 4, 4), on real and on
Gaussian maps; ``+`` of two maps over different bases; ``pr_cd`` from R_2
to R_4 and from R_1 to R_3; and ``reflect.split`` and ``unsplit`` of one
representation of ``corpus/nested.quiver`` at its order-4 vertex q.  The
rows ``invert_end_n{n}_d{d}_{real,gauss}`` invert a unit endomorphism of
rank n and order d, (n, d) = (1, 1), (2, 1), (2, 2) and (2, 3), the shapes
the ``moment_gauss`` workload gauges by: a real one from
``repn.random_unit_end`` and a Gaussian one whose constant slice is a product
of two unitriangular Gaussian-integer matrices.  ``moment_derivative_check``
times one Hamiltonian check on ``corpus/chain_d2.quiver`` at v = (1, 2, 1),
with the point, direction and xi drawn by ``random_rep`` and
``random_gauge`` at seeds 1, 2 and 3.  The rows
``orbit_membership_{profile}_{member,nonmember}`` decide membership of a
``random_conjugate`` and of a ``random_non_member`` at seed 11, and
``leg_factorize_{profile}`` factorizes that member without a witness, on the
(d, dims) = (4, (2, 2, 1)) and (2, (1, 1, 1, 1)) profiles of the ``orbit``
workload (profile ``d4_221`` and ``d2_1111``), with distinct constant terms
in -5..5 and higher coefficients in -3..3.  The gather rows time the kernels
that run on per-shape plans at the shapes of the ``moment_gauss`` workload,
rank n in {1, 2} and order d in {2, 3, 4} over R_c, c = 2 for d = 4 and
c = 1 otherwise, on Gaussian maps: ``pair_d`` of two endomorphisms over R_d
(rows ``pair_d_n{n}_d{d}``), ``pr_cd`` of an endomorphism over R_c
(``pr_cd_n{n}_d{d}_c{c}``), ``compose`` of an endomorphism over R_d after
one over R_c (``compose_cross_n{n}_d{d}_c{c}``, which lowers the first
through ``block_toeplitz``) and ``extend_scalars`` of a map from rank n over
R_c to rank n over R_d (``extend_scalars_n{n}_d{d}_c{c}``).  Each has a
``_warm`` row and a ``_cold`` row; a cold call first empties every plan
cache (``linalg._PLANS``; a checkout without plans empties nothing), and its
time includes that.  A
checkout that lacks an operation gives no row for it, and the file keeps
the rows both checkouts time.  ``scalar_end`` is read from
``tests/helpers.py`` where the library no longer has it.
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
import qschemes.linalg as linalg
from qschemes.linalg import Matrix, hstack, inverse, rank
from qschemes.orbit import (OrbitSpec, leg_factorize, orbit_membership, random_conjugate,
                            random_non_member)
from qschemes.quiver import parse_quiver
from qschemes.reflect import random_level_point, split, unsplit
from qschemes.repn import (moment_derivative_check, random_gauge, random_linear_map, random_rep,
                           random_unit_end)
import qschemes.rmatrix as rmatrix
from qschemes.rmatrix import (ModShape, compose, extend_scalars, from_slices, invert_end, pair_d,
                              pr_cd, restrict_scalars, restrict_scalars_rev, scale_end)
try:
    from qschemes.rmatrix import scalar_end
except ImportError:
    sys.path.insert(0, sys.argv[1] + "/tests")
    from helpers import scalar_end
from qschemes.weyl import random_params
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

def trunc(d, real=False):
    rest = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if real else gq()
            for _ in range(d - 1)]
    return TruncScalar(d, [GaussQ(rng.randint(1, 9))] + rest)

x, y = gq(), gq()
ops["gaussq_mul"] = (lambda: x * y, 20000)
ops["gaussq_add"] = (lambda: x + y, 20000)
ops["gaussq_div"] = (lambda: x / y, 20000)
for d in (1, 2, 3, 4):
    ints = [rng.randint(-9, 9) for _ in range(d)]
    ops[f"trunc_new_ints_d{d}"] = ((lambda ints=ints, d=d: TruncScalar(d, ints)), 20000)
    for kind in ("", "_real"):
        s, t = trunc(d, kind == "_real"), trunc(d, kind == "_real")
        ops[f"trunc_mul_d{d}{kind}"] = ((lambda s=s, t=t: trunc_mul(s, t)), 2000)
        ops[f"trunc_inv_d{d}{kind}"] = ((lambda s=s: trunc_inv(s)), 2000)
        ops[f"trunc_add_d{d}{kind}"] = ((lambda s=s, t=t: s + t), 5000)
        ops[f"trunc_sub_d{d}{kind}"] = ((lambda s=s, t=t: s - t), 5000)
t3, sh = trunc(3), ModShape(3, 3)
f3 = random_linear_map(SplitMix64(3), sh, sh, 3)
ops["scalar_end_3_d3"] = (lambda: scalar_end(t3, 3), 2000)
ops["scale_end_3_d3"] = (lambda: scale_end(f3, t3), 500)
ops["add_scalar_end_3_d3"] = (lambda: f3 + scalar_end(t3, 3), 1000)
shift = getattr(rmatrix, "shift_end", None)
ops["plus_scalar_3_d3"] = ((lambda: shift(f3, t3)) if shift else ops["add_scalar_end_3_d3"][0],
                           1000)
for q in (2, 3):
    for n in (2, 4):
        near, far, draw = ModShape(n, q), ModShape(n, 1), SplitMix64(10 * q + n)
        ends = random_linear_map(draw, near, near, q), random_linear_map(draw, near, near, q)
        ops[f"restrict_scalars_q{q}_n{n}"] = (
            (lambda f=ends[0], far=far: restrict_scalars(f, far, 1)), 500)
        ops[f"restrict_scalars_rev_q{q}_n{n}"] = (
            (lambda f=ends[1], far=far: restrict_scalars_rev(f, far, 1)), 500)
I = GaussQ(0, 1)
for n, d, c in ((1, 1, 1), (2, 1, 1), (2, 2, 2), (2, 3, 3), (4, 4, 4)):
    sh, draw = ModShape(n, d), SplitMix64(100 * n + 10 * d + c)
    u, v, w = (random_linear_map(draw, sh, sh, c) for _ in range(3))
    for kind, (a, b) in (("real", (u, v)), ("gauss", (u + w.scale(I), v - w.scale(I)))):
        ops[f"compose_n{n}_d{d}_c{c}_{kind}"] = ((lambda a=a, b=b: compose(a, b)), 500)
sh, draw = ModShape(2, 4), SplitMix64(7)
u, v, z = (random_linear_map(draw, sh, sh, c) for c in (4, 2, 2))
ops["add_n2_d4_c4_c2"] = (lambda: u + v, 2000)
ops["pr_cd_n2_d4_c2"] = (lambda: pr_cd(z), 2000)
z1 = random_linear_map(draw, ModShape(2, 3), ModShape(2, 3), 1)
ops["pr_cd_n2_d3_c1"] = (lambda: pr_cd(z1), 2000)
nested = parse_quiver(open(sys.argv[1] + "/corpus/nested.quiver").read())
lam = random_params(nested, 5, units=[1])
point = random_level_point(nested, lam, (1, 2, 1), "q", 7)
parted = split(point, "q")
ops["split_nested_q"] = (lambda: split(point, "q"), 1000)
ops["unsplit_nested_q"] = (lambda: unsplit(nested, point.v, parted), 1000)

def unitriangular(n, lower):
    return Matrix([[GaussQ(1) if i == j else
                    GaussQ(rng.randint(-2, 2), rng.randint(-2, 2)) if (i > j) == lower else
                    GaussQ(0) for j in range(n)] for i in range(n)], ncols=n)

for n, d in ((1, 1), (2, 1), (2, 2), (2, 3)):
    real = random_unit_end(SplitMix64(10 * n + d), ModShape(n, d))
    gauss = from_slices([unitriangular(n, True) @ unitriangular(n, False)]
                        + [mat(n, n, True) for _ in range(d - 1)], d)
    for kind, g in (("real", real), ("gauss", gauss)):
        ops[f"invert_end_n{n}_d{d}_{kind}"] = ((lambda g=g: invert_end(g)), 2000)
chain = parse_quiver(open(sys.argv[1] + "/corpus/chain_d2.quiver").read())
ham = (random_rep(chain, (1, 2, 1), 1), random_rep(chain, (1, 2, 1), 2),
       random_gauge(chain, (1, 2, 1), 3))
ops["moment_derivative_check"] = (lambda: moment_derivative_check(*ham), 200)
for d, dims in ((4, (2, 2, 1)), (2, (1, 1, 1, 1))):
    consts = rng.sample(range(-5, 6), len(dims))
    spec = OrbitSpec(d, tuple((w, TruncScalar(d, [c] + [rng.randint(-3, 3) for _ in range(d - 1)]))
                              for w, c in zip(dims, consts)))
    tag = f"d{d}_" + "".join(map(str, dims))
    member, other = random_conjugate(spec, 11), random_non_member(spec, 11)
    for kind, a in (("member", member), ("nonmember", other)):
        ops[f"orbit_membership_{tag}_{kind}"] = (
            (lambda spec=spec, a=a: orbit_membership(spec, a)), 20)
    ops[f"leg_factorize_{tag}"] = ((lambda spec=spec, a=member: leg_factorize(spec, a)), 20)
plans = getattr(linalg, "_PLANS", ())

def cold(op):
    def call():
        for plan in plans:
            plan.cache_clear()
        return op()
    return call

# the gather rows at rank n and order d, in a function so that their names
# leave alone the module globals that the lambdas above read
def gather_rows(n, d):
    c = 2 if d == 4 else 1
    sh, sub, draw = ModShape(n, d), ModShape(n, c), SplitMix64(1000 + 10 * n + d)

    def gmap(src, dst, base):
        re, im = (random_linear_map(draw, src, dst, base) for _ in range(2))
        return re + im.scale(I)

    f, g, z, h, e = (gmap(sh, sh, d), gmap(sh, sh, d), gmap(sh, sh, c), gmap(sh, sh, c),
                     gmap(sub, sh, c))
    return {f"pair_d_n{n}_d{d}": lambda: pair_d(f, g, d),
            f"pr_cd_n{n}_d{d}_c{c}": lambda: pr_cd(z),
            f"compose_cross_n{n}_d{d}_c{c}": lambda: compose(f, h),
            f"extend_scalars_n{n}_d{d}_c{c}": lambda: extend_scalars(e)}

for n in (1, 2):
    for d in (2, 3, 4):
        for name, op in gather_rows(n, d).items():
            ops[name + "_warm"] = (op, 1000)
            ops[name + "_cold"] = (cold(op), 1000)
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
                 for name, us in best["change"].items() if name in best["base"]},
    }
    args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
