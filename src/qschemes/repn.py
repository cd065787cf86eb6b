"""Representation points, the per-vertex moment map, and its invariances.

A representation assigns to each arrow h of the double (``quiver.double``)
an RMap between the endpoint modules that is linear over the common subring
R_gcd; ``maps`` is keyed by arrow name, with a "~" suffix for the reversed
copy.  The moment component at a vertex i averages the composites B_h B_hbar
over the incoming arrows ``quiver.incoming[i]`` into an R_{d_i}-linear
endomorphism with alternating signs:

    mu_i = sum over incoming h of sgn(h) * pr(B_h . B_hbar)

where pr is the averaging map of rmatrix.pr_cd.

Random maps are drawn as base-field blocks, extended by rmatrix.slice_extend:
a plain linear map out of the slice spanned by the first d/gcd eps-powers of
the source, which determines an R_gcd-linear map.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import LengthMismatch, NotInvertible, ShapeMismatch
from .linalg import Matrix
from .quiver import QuiverMult, check_dims
from .rmatrix import (
    ModShape,
    RMap,
    compose,
    from_slices,
    invert_end,
    pair_d,
    pr_cd,
    scalar_end,
    slice_extend,
    trace_r,
    zero_map,
)
from .rng import SplitMix64
from .scalars import GQ_ZERO, GaussQ
# random_params is also read as repn.random_params, by perfbench/workloads.py
from .weyl import check_params, int_mat_mul, random_params  # noqa: F401


class Representation:
    """A point of the representation space: one RMap per arrow of the double."""

    __slots__ = ("quiver", "v", "maps")

    def __init__(self, quiver: QuiverMult, v, maps):
        v = check_dims(quiver, v, nonnegative=True)
        shapes = [ModShape(x, m) for x, m in zip(v, quiver.mults)]
        normalized = {}
        for h in quiver.double:
            if h.name not in maps:
                raise ShapeMismatch(f"missing map for arrow {h.name}")
            f = maps[h.name]
            want_src, want_dst = shapes[h.source], shapes[h.target]
            if f.src != want_src or f.dst != want_dst:
                raise ShapeMismatch(
                    f"arrow {h.name}: got {f.src}->{f.dst}, want {want_src}->{want_dst}"
                )
            if f.base == h.base:
                normalized[h.name] = f
            else:
                # re-declare at the arrow's base, checking linearity over it
                normalized[h.name] = RMap.from_flat(f.src, f.dst, h.base, f.flat)
        extra = set(maps) - set(normalized)
        if extra:
            raise ShapeMismatch(f"maps for unknown arrows: {sorted(extra)}")
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "maps", MappingProxyType(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (
            self.quiver == other.quiver
            and self.v == other.v
            and dict(self.maps) == dict(other.maps)
        )

    def __add__(self, other):
        self._same_space(other)
        return Representation(
            self.quiver, self.v,
            {k: self.maps[k] + other.maps[k] for k in self.maps},
        )

    def _same_space(self, other):
        if self.quiver != other.quiver or self.v != other.v:
            raise ShapeMismatch("representations live on different spaces")


# -- random maps linear over a common subring ------------------------------------

def random_linear_map(rng: SplitMix64, src: ModShape, dst: ModShape, base: int) -> RMap:
    """Deterministic random R_base-linear map, drawn in the slice parametrization."""
    block = _random_matrix(rng, dst.dim, src.rank * (src.order // base))
    return slice_extend(src, dst, base, block)


# -- moment map -----------------------------------------------------------------

def moment_component(rep: Representation, i) -> RMap:
    """Moment value at one vertex."""
    q = rep.quiver
    i = q.index(i)
    acc = None
    for h in q.incoming[i]:
        prod = pr_cd(compose(rep.maps[h.name], rep.maps[h.reversed_name]))
        if acc is None:
            acc = prod if h.sign > 0 else -prod
        else:
            acc = acc + prod if h.sign > 0 else acc - prod
    if acc is None:
        shape = ModShape(rep.v[i], q.mults[i])
        return zero_map(shape, shape)
    return acc


def moment_map(rep: Representation) -> tuple[RMap, ...]:
    """Per-vertex moment value; component i is an R_{d_i}-endomorphism."""
    return tuple(moment_component(rep, i) for i in range(rep.quiver.n))


def mesh_check(rep: Representation, lam) -> tuple[RMap, ...]:
    """Residuals mu_i + lam_i * Id; all zero exactly on the level set."""
    lam = check_params(rep.quiver, lam)
    mu = moment_map(rep)
    out = []
    for i, m in enumerate(mu):
        out.append(m + scalar_end(lam[i], rep.v[i]))
    return tuple(out)


def moment_trace_sum(mu) -> GaussQ:
    """Pairing of a moment value against the central direction; always zero."""
    acc = GQ_ZERO
    for m in mu:
        t = trace_r(m)
        acc = acc + t.coeffs[t.d - 1]
    return acc


# -- symplectic structure ---------------------------------------------------------

def symplectic_form(t1: Representation, t2: Representation) -> GaussQ:
    """omega(t1, t2) summed over unreversed arrows at their gcd orders."""
    t1._same_space(t2)
    acc = GQ_ZERO
    for h in t1.quiver.double:
        if h.sign < 0:
            continue
        acc = acc + pair_d(t1.maps[h.name], t2.maps[h.reversed_name], h.base)
        acc = acc - pair_d(t2.maps[h.name], t1.maps[h.reversed_name], h.base)
    return acc


def symplectic_form_signed(t1: Representation, t2: Representation) -> GaussQ:
    """Half the signed sum over the full double; equals symplectic_form."""
    t1._same_space(t2)
    acc = GQ_ZERO
    for h in t1.quiver.double:
        term = pair_d(t1.maps[h.name], t2.maps[h.reversed_name], h.base)
        term = term - pair_d(t2.maps[h.name], t1.maps[h.reversed_name], h.base)
        acc = acc + (GaussQ(h.sign) * term)
    return acc / GaussQ(2)


def generating_tangent(rep: Representation, xi) -> Representation:
    """Tangent vector of the gauge action direction xi at the point rep."""
    q = rep.quiver
    if len(xi) != q.n:
        raise LengthMismatch("one endomorphism per vertex required")
    maps = {}
    for h in q.double:
        b = rep.maps[h.name]
        maps[h.name] = compose(xi[h.target], b) - compose(b, xi[h.source])
    return Representation(q, rep.v, maps)


def moment_derivative_check(rep: Representation, delta: Representation, xi) -> bool:
    """Hamiltonian identity <Dmu(B)[delta], xi> = omega(xi*, delta), exactly.

    The derivative is computed by polarization of the quadratic map mu.
    """
    rep._same_space(delta)
    mults = rep.quiver.mults
    mu_b = moment_map(rep)
    mu_bd = moment_map(rep + delta)
    mu_d = moment_map(delta)
    lhs = GQ_ZERO
    for i in range(rep.quiver.n):
        deriv = mu_bd[i] - mu_b[i] - mu_d[i]
        lhs = lhs + pair_d(deriv, xi[i], mults[i])
    rhs = symplectic_form(generating_tangent(rep, xi), delta)
    return lhs == rhs


# -- gauge action ------------------------------------------------------------------

def gauge(rep: Representation, g) -> Representation:
    """Transform by one unit endomorphism per vertex: B_h -> g_t B_h g_s^{-1}."""
    q = rep.quiver
    if len(g) != q.n:
        raise LengthMismatch("one gauge element per vertex required")
    mults = q.mults
    ginv = []
    for i, gi in enumerate(g):
        if gi.src != ModShape(rep.v[i], mults[i]) or not gi.is_end():
            raise ShapeMismatch(f"gauge element at vertex {q.name(i)} has wrong shape")
        try:
            ginv.append(invert_end(gi))
        except NotInvertible:
            raise NotInvertible(
                f"gauge element at vertex {q.name(i)} is not a unit"
            ) from None
    maps = {}
    for h in q.double:
        maps[h.name] = compose(g[h.target], compose(rep.maps[h.name], ginv[h.source]))
    return Representation(q, rep.v, maps)


# -- deterministic generators -------------------------------------------------------

def _random_matrix(rng: SplitMix64, nrows, ncols, lo=-3, hi=3) -> Matrix:
    return Matrix.from_ints(
        [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)], ncols)


def random_unit_end(rng: SplitMix64, shape: ModShape) -> RMap:
    """Deterministic unit of End_{R_d}: unitriangular times nonzero diagonal."""
    n, d = shape.rank, shape.order
    lower = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(n)]
             for i in range(n)]
    diag_choices = (1, -1, 2, -2, 3)
    diag = [diag_choices[rng.randint(0, 4)] for _ in range(n)]
    const = int_mat_mul(lower, [[x * c for c in row] for x, row in zip(diag, upper)])
    parts = [Matrix.from_ints(const, n)] + [_random_matrix(rng, n, n, -2, 2)
                                            for _ in range(d - 1)]
    return from_slices(parts, d)


def random_rep(q: QuiverMult, v, seed) -> Representation:
    """Deterministic random point, drawn in the per-arrow free parametrization."""
    v = check_dims(q, v, nonnegative=True)
    rng = SplitMix64(seed)
    maps = {}
    for h in q.double:
        src = ModShape(v[h.source], q.mults[h.source])
        dst = ModShape(v[h.target], q.mults[h.target])
        maps[h.name] = random_linear_map(rng, src, dst, h.base)
    return Representation(q, v, maps)


def random_gauge(q: QuiverMult, v, seed):
    rng = SplitMix64(seed)
    mults = q.mults
    return tuple(
        random_unit_end(rng, ModShape(v[i], mults[i])) for i in range(q.n)
    )
