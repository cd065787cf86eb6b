"""Conjugation orbits of block-scalar endomorphisms and leg factorizations.

An ``OrbitSpec`` fixes block dimensions w_0..w_l and scalars theta_0..theta_l
of R_d whose pairwise differences are units; the model point Theta acts as
theta_i on the i-th block.  Membership of an endomorphism A in the orbit of
Theta is decided by two conditions:

    (1) prod_j (A - theta_j) = 0;
    (2) for each i the residue of the projector
            pi_i = c_i^{-1} prod_{j != i} (A - theta_j),
            c_i = prod_{j != i} (theta_i - theta_j),
        has rank w_i.

They suffice because the differences theta_i - theta_j are units: the ideals
(x - theta_j) of R_d[x] are pairwise comaximal, so by the Chinese remainder
theorem R_d[x]/prod_j (x - theta_j) is the product of the rings
R_d[x]/(x - theta_j) = R_d, and the Lagrange polynomials
c_i^{-1} prod_{j != i} (x - theta_j) are its orthogonal idempotents, summing
to 1, with x acting as theta_i on the i-th.  Under (1) A makes V (x) R_d a
module over that quotient, so the pi_i are orthogonal idempotents summing to
the identity with A pi_i = theta_i pi_i, and V (x) R_d is the direct sum of
the images of the pi_i.  Each image is a direct summand of a free module over
the local ring R_d, hence free of rank equal to the residue rank of pi_i, and
(2) makes A conjugate to Theta.  Both conditions hold at Theta and are
invariant under conjugation.

``orbit_membership`` tests (1) with the prefix products
P_k = prod_{j<k} (A - theta_j) (l composes; P_{l+1} is the product) and (2)
on the n x n constant slices alone: the residue of P_k is its constant slice,
and only the residues of the suffix products are multiplied out.  That is the
whole decision, for a member as for a non-member.  Its witness keeps the
factors A - theta_j and the P_k, and projectors are built when read:
pi_i = c_i^{-1} P_i S_i, with the suffix products S_i = prod_{j>i} (A - theta_j).

``leg_factorize`` writes a member A as the value of the chain-of-modules
presentation: nested images V_i = Im(sum_{j>=i} pi_j) get free bases by the
deterministic rule of ``free_basis`` (column-reduce the residue, pick the
lexicographically smallest pivot set, lift those columns), and the connecting
maps are coordinates of (-A + theta_i) between consecutive bases.  Distinct
basis choices differ by a gauge transformation only.

A chain point is a ``repn.Representation`` of the leg quiver
``OrbitSpec.quiver``: vertices 0..l, all of multiplicity d, with dimension
vector (dim V_0, .., dim V_l), and arrows b_i: i -> i+1 carrying
down[i] : V_i (x) R_d -> V_{i+1} (x) R_d, their reversals b_i~ carrying
up[i].  Every chain map, the junction maps with V_0 included, is R_d-linear.
The chain's moment values are those of ``repn.moment_component``: at 0 it
is -up[0] down[0], so ``nu`` = theta_0 + mu_0 is the presented
endomorphism, and at i >= 1 it is down[i-1] up[i-1] - up[i] down[i], equal
to -(theta_i - theta_{i-1}) Id on the level set that ``leg_mesh_residuals``
tests.  Only ``serialize`` reads base-field blocks of the junction maps,
off their flat views, for printing.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import accumulate, combinations
from operator import matmul

from .errors import NotInOrbit, ShapeMismatch
from .linalg import Matrix, hstack, pivot_columns, poly_shift, rank, solve
from .rmatrix import (
    ModShape,
    RMap,
    _lower,
    _rmap,
    compose,
    invert_end,
    scale_end,
    shift_end,
)
from .quiver import QuiverMult
from .repn import Representation, moment_component, random_unit_end
from .rng import SplitMix64
from .scalars import GaussQ, TruncScalar, trunc_inv, trunc_mul


class OrbitSpec(namedtuple("OrbitSpec", (
    "d",
    "blocks",   # (dimension, theta) pairs
))):
    __slots__ = ()

    def __new__(cls, d, blocks):
        if len(blocks) < 2:
            raise ValueError("need at least two blocks")
        for dim, theta in blocks:
            if dim < 0:
                raise ValueError("block dimension must be non-negative")
            if theta.d != d:
                raise ValueError("theta order differs from spec order")
        for i, (_, ti) in enumerate(blocks):
            for j, (_, tj) in enumerate(blocks):
                if i < j and not (ti - tj).is_unit():
                    raise ValueError(
                        f"theta_{i} - theta_{j} is not a unit of R_{d}"
                    )
        return tuple.__new__(cls, (d, blocks))

    @property
    def legs(self) -> int:
        """l: the number of blocks minus one."""
        return len(self.blocks) - 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.blocks)

    @property
    def thetas(self) -> tuple[TruncScalar, ...]:
        return tuple(t for _, t in self.blocks)

    @property
    def total(self) -> int:
        return sum(self.dims)

    def tail_dim(self, i) -> int:
        """Dimension of the i-th chain module: sum of block dims from i on."""
        return sum(self.dims[i:])

    @property
    def quiver(self) -> QuiverMult:
        """The leg quiver whose representations are the chain points."""
        return _leg_quiver(self.d, self.legs)


@functools.cache
def _leg_quiver(d, l) -> QuiverMult:
    """Vertices 0..l, all of multiplicity d, and arrows b_i: i -> i+1."""
    return QuiverMult.build([(str(i), d) for i in range(l + 1)],
                            [(f"b{i}", str(i), str(i + 1)) for i in range(l)])


def big_theta(spec: OrbitSpec) -> RMap:
    """The model point: block-diagonal action of the theta scalars."""
    return _block_scalar(spec.d, spec.blocks)


def _block_scalar(d, blocks) -> RMap:
    """The endomorphism acting as theta on a block of rank w, per (w, theta):
    the thetas' numerators, over the lcm of their denominators, on the
    diagonals of the zero map."""
    n = sum(w for w, _ in blocks)
    den = math.lcm(*[t.den for _, t in blocks])

    def diags(part):
        rows = [[] for _ in range(d)]
        for w, t in blocks:
            f, xs = den // t.den, getattr(t, part) or (0,) * d
            for m in range(d):
                rows[m] += [xs[m] * f] * w
        return rows

    im = diags("im") if any(t.im for _, t in blocks) else None
    shape = ModShape(n, d)
    return _rmap(shape, shape, d, poly_shift(diags("re"), im, den, Matrix.zero(n, d * n)))


def _constant(f: RMap) -> Matrix:
    """f's slice 0, the residue of a map over its full order."""
    return f.block if f.base == 1 else f.block.take(cols=slice(0, f.src.dim // f.base))


# -- membership ----------------------------------------------------------------

class MembershipWitness:
    """The verdict of ``orbit_membership``: ``ok``, the failed conditions in
    ``reasons``, and the factors A - theta_j with their prefix products P_k,
    from which the projectors are built when read."""
    __slots__ = ("ok", "reasons", "_thetas", "_factors", "_prefix")

    def __init__(self, ok, reasons, thetas, factors, prefix):
        self.ok, self.reasons = ok, reasons
        self._thetas, self._factors, self._prefix = thetas, factors, prefix

    @property
    def idempotents(self) -> tuple[RMap, ...]:
        """(pi_0, .., pi_l) for a member, () for a non-member; built on each read."""
        return tuple(self._projectors(0)) if self.ok else ()

    def _projectors(self, start) -> list[RMap]:
        """pi_start, .., pi_l: (l - start - 1)^+ composes for the suffix
        products S_i, one more for each P_i S_i with 0 < i < l, and one
        ``scale_end`` per projector."""
        thetas, prefix = self._thetas, self._prefix
        suffix = _prefix_products(self._factors[:start:-1], compose)[::-1]
        pis = []
        for i in range(start, len(thetas)):
            c = None
            for j, tj in enumerate(thetas):
                if j != i:
                    c = _times(c, thetas[i] - tj, trunc_mul)
            pis.append(scale_end(_times(prefix[i], suffix[i - start], compose), trunc_inv(c)))
        return pis


def _prefix_products(factors, mul) -> list:
    """[None, f_0, f_0 f_1, ..., f_0 ... f_(m-1)]; None stands for the identity."""
    out = [None]
    for f in factors:
        out.append(f if out[-1] is None else mul(out[-1], f))
    return out


def _times(x, y, mul):
    """x y, where None stands for the identity."""
    return y if x is None else x if y is None else mul(x, y)


def orbit_membership(spec: OrbitSpec, a: RMap) -> MembershipWitness:
    """Decide whether A lies in the orbit of Theta (see the module docstring).

    l composes and no ``scale_end``, whatever the verdict.  A non-member's
    witness has no idempotents and lists the failed conditions.
    """
    n = spec.total
    shape = ModShape(n, spec.d)
    if a.src != shape or a.dst != shape or not a.is_end():
        raise ShapeMismatch(
            f"endomorphism must act on a rank-{n} order-{spec.d} module"
        )
    thetas = spec.thetas
    factors = [shift_end(a, -t) for t in thetas]
    prefix = _prefix_products(factors, compose)
    reasons = []
    if not prefix[-1].is_zero():
        reasons.append("product of (A - theta_j) does not vanish")
    # residues: those of the prefix products are their constant slices
    res_prefix = [None] + [_constant(p) for p in prefix[1:]]
    res_suffix = _prefix_products([_constant(f) for f in factors[:0:-1]], matmul)[::-1]
    for i, w in enumerate(spec.dims):
        if rank(_times(res_prefix[i], res_suffix[i], matmul)) != w:
            reasons.append(f"residue rank of pi_{i} differs from block dimension")
    return MembershipWitness(not reasons, reasons, thetas, factors, prefix)


# -- free bases over the truncated ring -----------------------------------------

def free_basis(e: RMap) -> RMap:
    """Deterministic free basis of the image of an idempotent endomorphism.

    Column-reduce the residue e(0), take the lexicographically smallest pivot
    column set, and lift those generator columns e(v_j (x) 1); by Nakayama
    they form a free basis of the image.
    """
    pivots = pivot_columns(_constant(e))
    d, n = e.src.order, e.src.rank
    return _rmap(ModShape(len(pivots), d), e.src, d,
                 e.block.take(cols=[m * n + j for m in range(d) for j in pivots]))


def coordinates(u: RMap, f: RMap) -> RMap:
    """The map k with u . k = f, for u injective with Im f inside Im u.

    One ``solve`` over the common base ring R_c: sum_{j<=m} u_j k_(m-j) = f_m
    for every slice m, with one elimination of u_0 for all of them; u_0 has
    full column rank exactly when u is injective.
    """
    if u.dst != f.dst:
        raise ShapeMismatch("targets differ")
    c = math.gcd(u.base, f.base)
    return _rmap(f.src, u.src, c, solve(_lower(u, c), _lower(f, c), c))


# -- leg points ------------------------------------------------------------------

def _leg_point(spec: OrbitSpec, down, up) -> Representation:
    """The representation of the leg quiver with down[i] on b_i, up[i] on b_i~."""
    q = spec.quiver
    v = tuple(spec.tail_dim(i) for i in range(spec.legs + 1))
    return Representation(q, v, {h.name: f for h, f in zip(q.double, down + up)})


def canonical_leg_point(spec: OrbitSpec) -> Representation:
    """The distinguished point presenting Theta itself.

    Up maps are the inclusions of the nested coordinate modules; down maps act
    as theta_i - theta_j on the j-th block.
    """
    l = spec.legs
    return _leg_point(spec, [_scaled_projection(spec, i) for i in range(l)],
                      [_inclusion(spec, i) for i in range(l)])


def _inclusion(spec: OrbitSpec, i) -> RMap:
    """V_{i+1} (x) R_d -> V_i (x) R_d, the last blocks of V_i."""
    d = spec.d
    src = ModShape(spec.tail_dim(i + 1), d)
    dst = ModShape(spec.tail_dim(i), d)
    const = Matrix.identity(dst.rank).take(cols=slice(spec.dims[i], None))
    return _rmap(src, dst, d, hstack([const, Matrix.zero(dst.rank, (d - 1) * src.rank)]))


def _scaled_projection(spec: OrbitSpec, i) -> RMap:
    """(-Theta + theta_i)|_{V_i}: kills block i, scales block j by theta_i - theta_j."""
    d = spec.d
    src = ModShape(spec.tail_dim(i), d)
    dst = ModShape(spec.tail_dim(i + 1), d)
    # theta_i - Theta on V_i is block-scalar; drop block i's rows
    shifted = _block_scalar(d, [(w, spec.thetas[i] - t) for w, t in spec.blocks[i:]])
    return _rmap(src, dst, d, shifted.block.take(slice(spec.dims[i], None)))


def nu(spec: OrbitSpec, point: Representation) -> RMap:
    """theta_0 + mu_0 = theta_0 - up[0] down[0]; recovers the presented endomorphism."""
    return shift_end(moment_component(point, 0), spec.thetas[0])


def leg_mesh_residuals(spec: OrbitSpec, point: Representation) -> tuple[RMap, ...]:
    """mu_i + (theta_i - theta_{i-1}) Id at the chain vertices i = 1..l; zero
    on the level set."""
    th = spec.thetas
    return tuple(shift_end(moment_component(point, i), th[i] - th[i - 1])
                 for i in range(1, spec.legs + 1))


def leg_rank_checks(spec: OrbitSpec, point: Representation) -> bool:
    """Residue-rank witnesses: up maps injective, down maps surjective.

    Either map of the arrow pair between V_i and V_{i+1} has residue rank
    dim V_{i+1}.
    """
    return all(rank(_constant(point.maps[h.name])) == spec.tail_dim(max(h.source, h.target))
               for h in point.quiver.double)


def leg_factorize(spec: OrbitSpec, a_end: RMap, witness=None) -> Representation:
    """Present a member of the orbit as a chain point with nu equal to it.

    ``witness`` is the result of ``orbit_membership(spec, a_end)`` when the
    caller already holds it; otherwise membership is decided here.
    """
    if witness is None:
        witness = orbit_membership(spec, a_end)
    if not witness.ok:
        raise NotInOrbit("; ".join(witness.reasons))
    l = spec.legs
    thetas = spec.thetas
    # V_0 is the ambient module and V_i the image of pi_i + .. + pi_l; those
    # tails are summed once, from the end, and pi_0 is never built
    tails = list(accumulate(reversed(witness._projectors(1)), lambda s, pi: pi + s))
    bases = [None] + [free_basis(p) for p in reversed(tails)]
    minus_a = -a_end
    down = [coordinates(bases[1], shift_end(minus_a, thetas[0]))]
    up = [bases[1]]
    for i in range(1, l):
        down.append(coordinates(bases[i + 1], compose(shift_end(minus_a, thetas[i]), bases[i])))
        up.append(coordinates(bases[i], bases[i + 1]))
    return _leg_point(spec, down, up)


def orbit_dimension(spec: OrbitSpec) -> int:
    """d (n^2 - sum w_i^2): ambient group dimension minus stabilizer dimension."""
    n = spec.total
    return spec.d * (n * n - sum(w * w for w in spec.dims))


# -- deterministic generators --------------------------------------------------------

def random_conjugate(spec: OrbitSpec, seed) -> RMap:
    rng = SplitMix64(seed)
    g = random_unit_end(rng, ModShape(spec.total, spec.d))
    theta = big_theta(spec)
    return compose(g, compose(theta, invert_end(g)))


def random_non_member(spec: OrbitSpec, seed) -> RMap:
    """A point certainly outside the orbit.

    Either shifts one diagonal eigenvalue away from every theta (breaks the
    minimal-polynomial product) or, when two block dimensions differ, uses the
    same scalars with swapped block sizes (breaks the residue-rank condition);
    then conjugates.
    """
    n, dims = spec.total, spec.dims
    if not n:
        raise ShapeMismatch("an orbit of total rank 0 has no non-member")
    rng = SplitMix64(seed)
    differ = [(i, j) for i, j in combinations(range(len(dims)), 2) if dims[i] != dims[j]]
    if rng.randint(0, 1) and differ:
        # the first two blocks of different sizes trade sizes
        (i, j), blocks = differ[0], list(spec.blocks)
        blocks[i], blocks[j] = (dims[j], spec.thetas[i]), (dims[i], spec.thetas[j])
        base = big_theta(OrbitSpec(spec.d, tuple(blocks)))
    else:
        consts = [t.coeff(0) for t in spec.thetas]
        nonempty = [i for i, w in enumerate(dims) if w > 0]
        block = nonempty[rng.randint(0, len(nonempty) - 1)]
        shift = next(GaussQ(c) for c in range(1, len(consts) + 2)
                     if consts[block] + GaussQ(c) not in consts)
        # the first vertex of the block becomes a block of its own, at theta + shift
        w, theta = spec.blocks[block]
        split = ((1, theta + shift), (w - 1, theta))
        base = big_theta(OrbitSpec(spec.d, spec.blocks[:block] + split + spec.blocks[block + 1:]))
    g = random_unit_end(rng, ModShape(n, spec.d))
    return compose(g, compose(base, invert_end(g)))
