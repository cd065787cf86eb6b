"""Reflection functor at a vertex with a unit parameter.

A representation splits at a vertex i into the maps into i, the maps out of
i, and the untouched remainder.  Extending the scalars of each arrow map at i
to R_{d_i} (rmatrix.extend_scalars*) and joining the results (signs folded
into the incoming side) gives the R_{d_i}-linear pair

    into : V~ (x) R_{d_i} -> V_i (x) R_{d_i},
    outof : V_i (x) R_{d_i} -> V~ (x) R_{d_i},

where V~ concatenates, per double arrow h that ends at i and in the order of
``quiver.incoming[i]``, the source module of h as a free module over the
arrow's base ring; ``tilde_dimension`` is its rank.  Each map keeps its
slices side by side in one block (``rmatrix.RMap.block``), so ``split``
joins blocks once per vertex: ``outof`` is the row stack of the arrows'
blocks and ``into`` one column gather of their join.  ``unsplit`` cuts the
pair into its per-arrow blocks, one gather each, and restricts their scalars
back.  Both gathers run on per-shape plans (``linalg._plan``).  In between,
every map is composed as it is.  The functor refactors the shifted composite
A - lam_i, A = -outof . into, through a fresh vertex module of rank
dim V~ - v_i: the one-leg case of orbit.leg_factorize, for the orbit of
diag(0 .. 0, lam_i .. lam_i) with block dimensions (dim V~ - v_i, v_i).  The
output is one specific gauge representative, pinned by the deterministic basis
rule of orbit.free_basis.

The functor reads the moment value at i off its split: mu_i = X Y for
X = into and Y = outof.  For a double arrow h into i over R_c, q = d_i/c, the
map x = extend_scalars(x_h) agrees with x_h on the free R_c-module underneath,
and y = extend_scalars_rev(x_h~) sends v to sum_{k<q} x_h~(eps^(q-1-k) v) eps^k,
so x y = pr_cd(x_h x_h~) by the formula of ``pr_cd``.  X joins the maps
sign_h x side by side and Y stacks the maps y, so X Y = sum_h sign_h
pr_cd(x_h x_h~), which is ``repn.moment_component``; the moment suite's split
cross-check certifies this identity independently.

The moment condition alone puts A in that orbit, where A = -Y X.  If
X Y = -lam_i Id with lam_i a unit, then

    A^2 = Y (X Y) X = -lam_i Y X = lam_i A,

so E = -lam_i^{-1} (A - lam_i) satisfies E^2 = lam_i^{-2} (A^2 - 2 lam_i A
+ lam_i^2) = -lam_i^{-1} (A - lam_i) = E.  On residues X(0) Y(0) = -lam_i(0) I
is invertible, so rank A(0) = v_i; as A(0)^2 = lam_i(0) A(0) with lam_i(0) != 0,
rank E(0) = dim ker A(0) = dim V~ - v_i, the reflected dimension.  So
``reflection_functor`` checks X Y = -lam_i Id only, then takes the free basis
U of Im E and the coordinates of -(A - lam_i) = lam_i E against U.  As
lam_i(0) != 0, U is ``free_basis(lam_i E)`` with its columns scaled by lam_i^{-1}.

``random_level_point`` runs this the other way round.  The canonical chain
point of the same two-block orbit is a representation of the one-arrow leg
quiver 0 -> 1 whose moment value at 1 is -lam_i Id; moved by a random gauge
transformation (``repn.gauge``), its two maps are ``into`` and ``outof``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from types import MappingProxyType

from .errors import EmptyLevelSet, NotAUnit, NotInLevelSet
from .linalg import _picker, _plan, _regroup, _take_cols, hstack, poly_scale, vstack
from .orbit import OrbitSpec, canonical_leg_point, coordinates, free_basis
from .quiver import QuiverMult, check_dims
from .repn import (
    Representation,
    gauge,
    random_linear_map,
    random_unit_end,
)
from .rmatrix import (
    ModShape,
    _rmap,
    compose,
    extend_scalars,
    extend_scalars_rev,
    restrict_scalars,
    restrict_scalars_rev,
    shift_end,
    zero_map,
)
from .rng import SplitMix64
from .scalars import TruncScalar, trunc_inv
from .weyl import check_params


class SplitAtVertex(namedtuple("SplitAtVertex", (
    "vertex",
    "into",     # V~ (x) R_{d_i} -> V_i (x) R_{d_i}, signs folded in
    "outof",    # V_i (x) R_{d_i} -> V~ (x) R_{d_i}
    "rest",     # mapping from untouched arrow names to their maps
))):
    __slots__ = ()


def tilde_dimension(q: QuiverMult, i, v) -> int:
    """dim V~ at vertex i: sum of f_in * v_src over incoming double arrows."""
    return sum(h.f_in * v[h.source] for h in q.incoming[q.index(i)])


def _reflected_rank(q: QuiverMult, i: int, lam, v) -> tuple[int, int]:
    """dim V~ and the reflected rank dim V~ - v_i at vertex i, for lam_i a unit."""
    if not lam[i].is_unit():
        raise NotAUnit(f"parameter at vertex {q.name(i)} is not a unit")
    tilde = tilde_dimension(q, i, v)
    if tilde < v[i]:
        raise EmptyLevelSet(f"reflected dimension at {q.name(i)} would be {tilde - v[i]}")
    return tilde, tilde - v[i]


def split(rep: Representation, i) -> SplitAtVertex:
    q = rep.quiver
    i = q.index(i)
    d = q.mults[i]
    shape_i = ModShape(rep.v[i], d)
    arrows = q.incoming[i]
    if arrows:
        ins = [extend_scalars(rep.maps[h.name]) for h in arrows]
        outs = [extend_scalars_rev(rep.maps[h.reversed_name]).block for h in arrows]
        ws = [f.src.rank for f in ins]
        tilde = ModShape(sum(ws), d)
        joined = hstack([f.block if h.sign > 0 else -f.block for f, h in zip(ins, arrows)])
        if len(ws) > 1:
            joined = _regroup(joined, 1, _split_plan(d, tuple(ws)), joined.ncols)
        into = _rmap(tilde, shape_i, d, joined)
        outof = _rmap(shape_i, tilde, d, vstack(outs))
    else:
        empty = ModShape(0, d)
        into, outof = zero_map(empty, shape_i), zero_map(shape_i, empty)
    rest = {
        h.name: rep.maps[h.name]
        for h in q.double
        if h.source != i and h.target != i
    }
    return SplitAtVertex(i, into, outof, MappingProxyType(rest))


@_plan
def _split_plan(d, ws):
    """The picker of ``split`` from the join of the arrows' blocks, of widths
    ws, to ``into``."""
    # the join holds column j of slice m of arrow h at d pos_h + m w_h + j,
    # and into at m dim V~ + pos_h + j
    starts = [d * pos for pos in accumulate((0,) + ws[:-1])]
    return (_picker([start + m * w + j for m in range(d)
                     for start, w in zip(starts, ws) for j in range(w)]),)


def unsplit(q: QuiverMult, v, s: SplitAtVertex) -> Representation:
    """Inverse of split; v may differ from the original at the split vertex."""
    maps = dict(s.rest)
    d_i = q.mults[s.vertex]
    into, outof = s.into.block, s.outof.block
    tilde = s.into.src.rank
    pos = 0
    for h in q.incoming[s.vertex]:
        src = ModShape(v[h.source], q.mults[h.source])
        block = ModShape(h.f_in * src.rank, d_i)
        w = block.rank
        x, y = into, outof
        if w != tilde:   # otherwise this arrow holds all of V~
            x = _take_cols(x, _unsplit_plan(d_i, tilde, pos, w), d_i * w)
            y = y.take(slice(pos, pos + w))
        x = _rmap(block, s.into.dst, d_i, x if h.sign > 0 else -x)
        maps[h.name] = restrict_scalars(x, src, h.base)
        maps[h.reversed_name] = restrict_scalars_rev(_rmap(s.outof.src, block, d_i, y),
                                                     src, h.base)
        pos += w
    return Representation(q, v, maps)


@_plan
def _unsplit_plan(d_i, tilde, pos, w):
    """The picker of the columns of arrow block pos..pos+w in ``into``."""
    return _picker([m * tilde + pos + j for m in range(d_i) for j in range(w)])


def phi(rep: Representation, i):
    """First factorization component -outof . into, plus the untouched maps."""
    s = split(rep, i)
    return -compose(s.outof, s.into), s


def random_level_point(q: QuiverMult, lam, v, i, seed) -> Representation:
    """Deterministic point with moment value exactly -lam_i Id at vertex i.

    The canonical point of the two-block orbit (a representation of its
    one-arrow leg quiver) moved by a random gauge transformation gives the
    maps into and out of i; the remaining arrows are drawn freely.
    """
    q_i = q.index(i)
    lam = check_params(q, lam)
    v = check_dims(q, v, nonnegative=True)
    tilde, comp = _reflected_rank(q, q_i, lam, v)
    d_i = q.mults[q_i]
    rng = SplitMix64(seed)
    spec = OrbitSpec(
        d_i, ((comp, TruncScalar(d_i)), (v[q_i], lam[q_i]))
    )
    g = random_unit_end(rng, ModShape(tilde, d_i))
    h_gauge = random_unit_end(rng, ModShape(v[q_i], d_i))
    # the double order: b_0 (the map into i), then b_0~
    into, outof = gauge(canonical_leg_point(spec), (g, h_gauge)).maps.values()
    rest = {}
    for h in q.double:
        if h.source == q_i or h.target == q_i:
            continue
        src = ModShape(v[h.source], q.mults[h.source])
        dst = ModShape(v[h.target], q.mults[h.target])
        rest[h.name] = random_linear_map(rng, src, dst, h.base)
    return unsplit(q, v, SplitAtVertex(q_i, into, outof, MappingProxyType(rest)))


def reflection_functor(rep: Representation, i, lam) -> Representation:
    """Move a vertex-i level-set point to one for the reflected data.

    Requires lam_i a unit and moment value -lam_i Id at i.  The output lives
    on the reflected dimension vector; its moment value at i is lam_i Id, and
    away from i the moment values change by the scalar correction matching
    the parameter reflection.
    """
    q = rep.quiver
    q_i = q.index(i)
    lam = check_params(q, lam)
    lam_i = lam[q_i]
    _, new_rank = _reflected_rank(q, q_i, lam, rep.v)
    s = split(rep, q_i)
    if not shift_end(compose(s.into, s.outof), lam_i).is_zero():
        raise NotInLevelSet(
            f"moment value at {q.name(q_i)} is not -lambda Id"
        )
    # for A = -outof . into, the moment condition makes -(A - lam_i) =
    # outof . into + lam_i equal to lam_i times an idempotent of residue rank
    # new_rank (see the module docstring)
    shifted = shift_end(compose(s.outof, s.into), lam_i)
    basis, t = free_basis(shifted), trunc_inv(lam_i)
    basis = _rmap(basis.src, basis.dst, basis.base, poly_scale(t.re, t.im, t.den, basis.block))
    s2 = SplitAtVertex(q_i, coordinates(basis, shifted), basis, s.rest)
    return unsplit(q, rep.v[:q_i] + (new_rank,) + rep.v[q_i + 1:], s2)
