"""Weyl-group actions attached to a quiver with multiplicities.

Two mutually transposed actions of the simple reflections are implemented:
``reflect_dim`` (s_i) on integer dimension vectors, and ``reflect_param``
(r_i) on tuples of truncated scalars, one of order d_j per vertex.  The
transpose of r_i with respect to the per-vertex residue pairings is
``transpose_action_matrix``; it factors through the lifted Cartan matrix on
the index set {(i, k) : k < d_i}.

Parameter vectors are flattened vertex-major with eps-powers ascending, so
every action here is also available as an exact integer matrix (lists of
int rows, built with the ``int_*`` helpers); Coxeter relations are verified
by full matrix powering, never by sampling.

``check_params``, ``random_params`` and ``level_check`` act on parameters and
dimension vectors alone, so the coxeter and regularize suites need no maps.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import Checks, LengthMismatch, MismatchedOrder
from .quiver import QuiverMult, check_dims
from .scalars import GQ_ZERO, GaussQ, TruncScalar, _trunc_canon

COXETER_TABLE = {0: 2, 1: 3, 2: 4, 3: 6}


# -- parameter vectors --------------------------------------------------------

def check_params(q: QuiverMult, lam) -> tuple[TruncScalar, ...]:
    lam = tuple(lam)
    if len(lam) != q.n:
        raise LengthMismatch(f"{len(lam)} parameters for {q.n} vertices")
    for v, x in zip(q.vertices, lam):
        if x.d != v.mult:
            raise MismatchedOrder(
                f"parameter at {v.name} has order {x.d}, vertex multiplicity {v.mult}"
            )
    return lam


def level_check(q: QuiverMult, lam, v) -> bool:
    """Whether sum_i v_i * (top residue of lam_i) vanishes."""
    lam = check_params(q, lam)
    v = check_dims(q, v)
    acc = GQ_ZERO
    for vi, x in zip(v, lam):
        acc = acc + GaussQ(vi) * x.coeff(x.d - 1)
    return not acc


def random_params(q: QuiverMult, seed, units=()) -> tuple[TruncScalar, ...]:
    """Random parameter tuple, coefficients in -3..3; vertices listed in
    ``units`` get unit values (the constant term is redrawn until nonzero)."""
    from .rng import SplitMix64
    rng = SplitMix64(seed)
    unit_ids = {q.index(u) for u in units}
    out = []
    for i, m in enumerate(q.mults):
        c0 = rng.randint(-3, 3)
        while c0 == 0 and i in unit_ids:
            c0 = rng.randint(-3, 3)
        out.append(TruncScalar(m, [c0] + [rng.randint(-3, 3) for _ in range(m - 1)]))
    return tuple(out)


def param_offsets(q: QuiverMult) -> list[int]:
    offs, total = [], 0
    for m in q.mults:
        offs.append(total)
        total += m
    return offs


def _matched_powers(di, dj):
    """Matched eps-powers (k_i, k_j) = (m d_i/g, m d_j/g), m < g = gcd(d_i, d_j).

    eps_i^(d_i/g) and eps_j^(d_j/g) both act as the generator of the common
    subring R_g, so k_i and k_j are the same power of it.  The reflections
    pair the top powers (d_i - 1 - k_i, d_j - 1 - k_j), their transposes the
    bottom powers themselves.
    """
    g = math.gcd(di, dj)
    return [(m * (di // g), m * (dj // g)) for m in range(g)]


# -- reflections --------------------------------------------------------------

def reflect_dim(q: QuiverMult, i, v) -> tuple[int, ...]:
    """s_i(v) = v - (sum_j c_ij v_j) e_i."""
    i = q.index(i)
    v = check_dims(q, v)
    c = q.cartan.c
    out = list(v)
    out[i] = v[i] - sum(c[i][j] * v[j] for j in range(q.n))
    return tuple(out)


def reflect_param(q: QuiverMult, i, lam) -> tuple[TruncScalar, ...]:
    """r_i: negate at i, and correct each neighbour j by top coefficients of lam_i.

    r_i(lam)_j = lam_j - c_ij * sum_{l < gcd(d_i,d_j)}
                 lam_{i, d_i - (d_i/gcd) l - 1} * eps_j^(d_j - (d_j/gcd) l - 1).
    """
    i = q.index(i)
    lam = check_params(q, lam)
    d = q.mults
    c = q.cartan.c
    out = list(lam)
    out[i] = -lam[i]
    for j in range(q.n):
        if j == i or c[i][j] == 0:
            continue
        # the correction's numerators are some of lam_i's, over its denominator
        x, re, im = lam[i], [0] * d[j], [0] * d[j]
        for ki, kj in _matched_powers(d[i], d[j]):
            re[d[j] - 1 - kj] = x.re[d[i] - 1 - ki]
            im[d[j] - 1 - kj] = x.im[d[i] - 1 - ki] if x.im else 0
        out[j] = lam[j] - _trunc_canon(d[j], tuple(re), tuple(im), x.den) * c[i][j]
    return tuple(out)


def rho(q: QuiverMult, lam) -> tuple[GaussQ, ...]:
    """Per-vertex residue: the top coefficient of each parameter."""
    lam = check_params(q, lam)
    return tuple(x.coeff(x.d - 1) for x in lam)


# -- matrices of the actions ---------------------------------------------------

def int_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def int_transpose(a):
    return [list(r) for r in zip(*a)]


def dim_reflection_matrix(q: QuiverMult, i):
    i = q.index(i)
    c = q.cartan.c
    m = int_identity(q.n)
    for j in range(q.n):
        m[i][j] -= c[i][j]
    return m


def param_reflection_matrix(q: QuiverMult, i):
    i = q.index(i)
    d = q.mults
    c = q.cartan.c
    offs = param_offsets(q)
    n = sum(d)
    m = int_identity(n)
    for k in range(d[i]):
        m[offs[i] + k][offs[i] + k] = -1
    for j in range(q.n):
        if j == i or c[i][j] == 0:
            continue
        for ki, kj in _matched_powers(d[i], d[j]):
            m[offs[j] + d[j] - 1 - kj][offs[i] + d[i] - 1 - ki] -= c[i][j]
    return m


def transpose_action_matrix(q: QuiverMult, i):
    i = q.index(i)
    d = q.mults
    c = q.cartan.c
    offs = param_offsets(q)
    m = int_identity(sum(d))
    for j in range(q.n):
        if c[i][j] == 0:
            continue
        for ki, kj in _matched_powers(d[i], d[j]):
            m[offs[i] + ki][offs[j] + kj] -= c[i][j]
    return m


def pairing_matrix(q: QuiverMult):
    """Gram matrix of the summed residue pairings: per-vertex anti-diagonal."""
    d = q.mults
    offs = param_offsets(q)
    n = sum(d)
    m = [[0] * n for _ in range(n)]
    for i in range(q.n):
        for k in range(d[i]):
            m[offs[i] + k][offs[i] + d[i] - 1 - k] = 1
    return m


def rho_matrix(q: QuiverMult):
    d = q.mults
    offs = param_offsets(q)
    m = [[0] * sum(d) for _ in range(q.n)]
    for i in range(q.n):
        m[i][offs[i] + d[i] - 1] = 1
    return m


# -- lifted Cartan matrix ------------------------------------------------------

class LiftedCartan(namedtuple("LiftedCartan", (
    "indices",  # (vertex, k) pairs, flattened vertex-major
    "c",        # integer matrix on the lifted index set
    "d",        # symmetrizer: multiplicity of the underlying vertex
))):
    __slots__ = ()

    def reflection_matrix(self, pos):
        n = len(self.indices)
        m = int_identity(n)
        for jl in range(n):
            m[pos][jl] -= self.c[pos][jl]
        return m


def lift_cartan(q: QuiverMult) -> LiftedCartan:
    """Cartan matrix on {(i,k) : k < d_i} whose reflections assemble r_i's transpose.

    Entry ((i,k),(j,l)) equals c_ij exactly when k and l are the m-th
    multiples of d_i/gcd and d_j/gcd for one common m, and 0 otherwise.
    """
    d = q.mults
    c = q.cartan.c
    offs = param_offsets(q)
    indices = [(i, k) for i in range(q.n) for k in range(d[i])]
    n = len(indices)
    out = [[0] * n for _ in range(n)]
    for i in range(q.n):
        for j in range(q.n):
            for k, l in _matched_powers(d[i], d[j]):
                out[offs[i] + k][offs[j] + l] = c[i][j]
    return LiftedCartan(
        tuple(indices),
        tuple(tuple(r) for r in out),
        tuple(d[i] for i, _ in indices),
    )


# -- Coxeter relations ----------------------------------------------------------

def verify_coxeter(q: QuiverMult):
    """Exact verification of r_i^2 = 1, s_i^2 = 1 and all finite braid relations:
    checks with cases ``(action, vertex names, order)``, action ``"param"`` or
    ``"dim"``, and the skipped pairs ``((name_i, name_j), c_ij * c_ji)``."""
    checks, skipped = Checks("coxeter relations"), []
    c = q.cartan.c
    size = sum(q.mults)
    rid = int_identity(size)
    sid = int_identity(q.n)
    rmats = [param_reflection_matrix(q, i) for i in range(q.n)]
    smats = [dim_reflection_matrix(q, i) for i in range(q.n)]
    for i in range(q.n):
        checks.record(int_mat_mul(rmats[i], rmats[i]) == rid, ("param", (q.name(i),), 2))
        checks.record(int_mat_mul(smats[i], smats[i]) == sid, ("dim", (q.name(i),), 2))
    for i in range(q.n):
        for j in range(i + 1, q.n):
            m = COXETER_TABLE.get(c[i][j] * c[j][i])
            if m is None:
                skipped.append(((q.name(i), q.name(j)), c[i][j] * c[j][i]))
                continue
            rprod = int_mat_mul(rmats[i], rmats[j])
            sprod = int_mat_mul(smats[i], smats[j])
            racc, sacc = rid, sid
            for _ in range(m):
                racc = int_mat_mul(racc, rprod)
                sacc = int_mat_mul(sacc, sprod)
            pair = (q.name(i), q.name(j))
            checks.record(racc == rid, ("param", pair, m))
            checks.record(sacc == sid, ("dim", pair, m))
    return checks, skipped
