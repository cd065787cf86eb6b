"""Irregular legs and the quiver rewrite that removes them.

A leg is a chain of vertices 0,1,..,l in which consecutive vertices are
joined by exactly one arrow, nothing else touches 1..l, the base 0 has
multiplicity 1 and the rest share a multiplicity d > 1.  The rewrite deletes
the chain arrows, reconnects every neighbour of the base to each of 1..l,
adds a (d-2)-fold complete graph on 0..l, and drops all chain multiplicities
to 1.

The companion parameter map sends (lam, v) to the rewritten quiver's data:
consecutive differences on the dimension side, partial sums of top residues
on the parameter side.  Both the lattice comparison map ``phi_map`` and the
parameter map are exposed as exact integer matrices; ``verify_semidirect``
and ``verify_param_equivariance`` certify, by full matrix identities, that
conjugation by phi turns each chain reflection into a transposition of
adjacent chain coordinates and leaves the remaining generators intact.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidLeg
from .quiver import QuiverMult, check_dims
from .scalars import TruncScalar
from .weyl import (
    check_params,
    dim_reflection_matrix,
    int_identity,
    int_mat_mul,
    int_transpose,
    param_offsets,
    param_reflection_matrix,
)


class LegDescriptor(namedtuple("LegDescriptor", (
    "base",         # vertex of multiplicity 1 the leg hangs from
    "vertices",     # leg vertices in chain order, all of multiplicity d
    "d",
))):
    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.vertices)

    def chain(self) -> tuple:
        """Base plus leg vertices: chain positions 0..l."""
        return (self.base,) + self.vertices


def find_legs(q: QuiverMult) -> list[LegDescriptor]:
    """All maximal chains satisfying the leg conditions, in discovery order.

    Row i of the adjacency counts ``q.cartan.a`` gives the neighbours of i in
    ascending order and the number of arrows joining i to each.
    """
    mults, a = q.mults, q.cartan.a
    legs = []
    for b in range(q.n):
        if mults[b] != 1:
            continue
        for first in range(q.n):
            d = mults[first]
            if d <= 1 or a[b][first] != 1:
                continue
            seq = [first]
            prev, cur = b, first
            ok = True
            while True:
                extra = [j for j in range(q.n) if a[cur][j] and j != prev]
                if not extra:
                    break
                if len(extra) > 1:
                    ok = False
                    break
                nxt = extra[0]
                if (
                    mults[nxt] != d
                    or nxt == b
                    or nxt in seq
                    or a[cur][nxt] != 1
                ):
                    ok = False
                    break
                seq.append(nxt)
                prev, cur = cur, nxt
            if ok:
                legs.append(LegDescriptor(b, tuple(seq), d))
    return legs


def _validate_leg(q: QuiverMult, leg: LegDescriptor):
    if leg not in find_legs(q):
        raise InvalidLeg(
            f"chain ({', '.join(q.name(c) for c in leg.chain())}) is not a leg"
        )


def leg_from_names(q: QuiverMult, names) -> LegDescriptor:
    """Descriptor from base,leg... vertex names, validated."""
    ids = [q.index(n) for n in names]
    if len(ids) < 2:
        raise InvalidLeg("a leg needs a base and at least one vertex")
    leg = LegDescriptor(ids[0], tuple(ids[1:]), q.mults[ids[1]])
    _validate_leg(q, leg)
    return leg


def regularize_quiver(q: QuiverMult, leg: LegDescriptor) -> QuiverMult:
    """Rewrite the quiver along one leg; vertex order is preserved."""
    _validate_leg(q, leg)
    chain = leg.chain()
    chain_set = set(chain)
    consecutive = {frozenset(p) for p in zip(chain, chain[1:])}
    vertices = [
        (v.name, 1 if i in chain_set else v.mult)
        for i, v in enumerate(q.vertices)
    ]
    kept = [
        ar for ar in q.arrows
        if frozenset((ar.source, ar.target)) not in consecutive
    ]
    used = {ar.name for ar in kept}

    def fresh(name):
        while name in used:
            name += "_x"
        used.add(name)
        return name

    arrows = [(ar.name, q.name(ar.source), q.name(ar.target)) for ar in kept]
    for ar in kept:
        if ar.target == leg.base:
            for i in leg.vertices:
                arrows.append(
                    (fresh(f"{ar.name}_to_{q.name(i)}"), q.name(ar.source), q.name(i))
                )
    for ar in kept:
        if ar.source == leg.base:
            for i in leg.vertices:
                arrows.append(
                    (fresh(f"{ar.name}_to_{q.name(i)}"), q.name(i), q.name(ar.target))
                )
    for a_pos in range(len(chain)):
        for b_pos in range(a_pos + 1, len(chain)):
            for k in range(leg.d - 2):
                arrows.append(
                    (
                        fresh(f"reg_{q.name(chain[a_pos])}_{q.name(chain[b_pos])}_{k}"),
                        q.name(chain[a_pos]),
                        q.name(chain[b_pos]),
                    )
                )
    return QuiverMult.build(vertices, arrows)


def regularize_params(q: QuiverMult, leg: LegDescriptor, lam, v):
    """(lam, v) for the rewritten quiver: partial top-residue sums and differences."""
    lam = check_params(q, lam)
    v = check_dims(q, v)
    chain = leg.chain()
    new_v = list(v)
    for pos in range(len(chain) - 1):
        new_v[chain[pos]] = v[chain[pos]] - v[chain[pos + 1]]
    new_lam = list(lam)
    acc = lam[leg.base].coeffs[0]
    new_lam[leg.base] = TruncScalar(1, [acc])
    for i in leg.vertices:
        acc = acc + lam[i].coeffs[lam[i].d - 1]
        new_lam[i] = TruncScalar(1, [acc])
    return tuple(new_lam), tuple(new_v)


class HypothesisReport:
    def __init__(self):
        self.dim_conditions = []    # (vertex name, value, ok)
        self.unit_conditions = []   # ((i names), ok)

    @property
    def all_ok(self) -> bool:
        return all(ok for _, _, ok in self.dim_conditions) and all(
            ok for _, ok in self.unit_conditions
        )


def check_theorem_hypotheses(q, leg: LegDescriptor, lam, v) -> HypothesisReport:
    """Evaluate the two transfer hypotheses exactly."""
    lam = check_params(q, lam)
    v = check_dims(q, v)
    chain = leg.chain()
    report = HypothesisReport()
    for pos in range(len(chain) - 1):
        value = v[chain[pos]] - v[chain[pos + 1]]
        report.dim_conditions.append((q.name(chain[pos]), value, value >= 0))
    legs = leg.vertices
    for a in range(leg.length):
        acc = TruncScalar(leg.d)
        for b in range(a, leg.length):
            acc = acc + lam[legs[b]]
            report.unit_conditions.append(
                (tuple(q.name(x) for x in legs[a:b + 1]), acc.is_unit())
            )
    return report


class PhiMap(namedtuple("PhiMap", "matrix inverse")):
    __slots__ = ()

    def apply(self, v):
        return tuple(
            sum(row[j] * v[j] for j in range(len(v))) for row in self.matrix
        )


def phi_map(q: QuiverMult, leg: LegDescriptor) -> PhiMap:
    """Lattice comparison map: consecutive differences along the chain."""
    _validate_leg(q, leg)
    chain = leg.chain()
    m = int_identity(q.n)
    for pos in range(len(chain) - 1):
        m[chain[pos]][chain[pos + 1]] = -1
    inv = int_identity(q.n)
    for pos in range(len(chain) - 1):
        for later in range(pos + 1, len(chain)):
            inv[chain[pos]][chain[later]] = 1
    return PhiMap(tuple(tuple(r) for r in m), tuple(tuple(r) for r in inv))


def isometry_check(q: QuiverMult, leg: LegDescriptor) -> bool:
    """t(phi) DC(regularized) phi == DC(original), exactly."""
    phi = phi_map(q, leg)
    reg = regularize_quiver(q, leg)
    dc = q.cartan.dc_list()
    dc_reg = reg.cartan.dc_list()
    m = [list(r) for r in phi.matrix]
    lhs = int_mat_mul(int_transpose(m), int_mat_mul(dc_reg, m))
    return lhs == dc


def _swap(n, a, b):
    """Permutation matrix of Z^n swapping coordinates a and b."""
    m = int_identity(n)
    m[a][a] = m[b][b] = 0
    m[a][b] = m[b][a] = 1
    return m


class VerifyReport:
    def __init__(self):
        self.items = []

    def add(self, label, ok):
        self.items.append((label, ok))

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in self.items)

    def summary(self) -> str:
        good = sum(1 for _, ok in self.items if ok)
        lines = [f"{good}/{len(self.items)} identities hold"]
        lines.extend(f"  FAIL {label}" for label, ok in self.items if not ok)
        return "\n".join(lines)


def verify_semidirect(q: QuiverMult, leg: LegDescriptor) -> VerifyReport:
    """phi s_i phi^{-1} is a chain transposition on the leg and s-check elsewhere,
    and transpositions conjugate the regularized reflections by relabelling."""
    chain = leg.chain()
    reg = regularize_quiver(q, leg)
    phi = phi_map(q, leg)
    m = [list(r) for r in phi.matrix]
    minv = [list(r) for r in phi.inverse]
    report = VerifyReport()
    leg_positions = {v: pos for pos, v in enumerate(chain)}
    for i in range(q.n):
        conj = int_mat_mul(m, int_mat_mul(dim_reflection_matrix(q, i), minv))
        if i in leg_positions and leg_positions[i] >= 1:
            pos = leg_positions[i]
            want = _swap(q.n, chain[pos - 1], chain[pos])
            report.add(f"phi s_{q.name(i)} phi^-1 = swap", conj == want)
        else:
            want = dim_reflection_matrix(reg, i)
            report.add(f"phi s_{q.name(i)} phi^-1 = reflected", conj == want)
    for pos in range(1, len(chain)):
        sigma = _swap(q.n, chain[pos - 1], chain[pos])
        perm = {chain[pos - 1]: chain[pos], chain[pos]: chain[pos - 1]}
        for k in range(q.n):
            lhs = int_mat_mul(sigma, int_mat_mul(dim_reflection_matrix(reg, k), sigma))
            rhs = dim_reflection_matrix(reg, perm.get(k, k))
            report.add(
                f"swap_{pos} s_{q.name(k)} swap_{pos} = s_image", lhs == rhs
            )
    return report


def param_map_matrix(q: QuiverMult, leg: LegDescriptor):
    """Integer matrix of the parameter transfer, flat coordinates on both sides."""
    chain = leg.chain()
    reg = regularize_quiver(q, leg)
    offs_src = param_offsets(q)
    offs_dst = param_offsets(reg)
    rows = sum(reg.mults)
    cols = sum(q.mults)
    m = [[0] * cols for _ in range(rows)]
    chain_set = set(chain)
    for i in range(q.n):
        if i not in chain_set:
            for k in range(q.mults[i]):
                m[offs_dst[i] + k][offs_src[i] + k] = 1
    m[offs_dst[leg.base]][offs_src[leg.base]] = 1
    for pos, i in enumerate(leg.vertices, start=1):
        row = offs_dst[i]
        m[row][offs_src[leg.base]] = 1
        for j in leg.vertices[:pos]:
            m[row][offs_src[j] + q.mults[j] - 1] = 1
    return m


def verify_param_equivariance(q: QuiverMult, leg: LegDescriptor) -> VerifyReport:
    """The parameter transfer intertwines each r_i with its phi-conjugated image."""
    chain = leg.chain()
    reg = regularize_quiver(q, leg)
    psi = param_map_matrix(q, leg)
    offs = param_offsets(reg)
    report = VerifyReport()
    leg_positions = {v: pos for pos, v in enumerate(chain)}
    for i in range(q.n):
        lhs = int_mat_mul(psi, param_reflection_matrix(q, i))
        if i in leg_positions and leg_positions[i] >= 1:
            # both chain components have order 1 after regularization
            pos = leg_positions[i]
            action = _swap(sum(reg.mults), offs[chain[pos - 1]], offs[chain[pos]])
            label = f"psi r_{q.name(i)} = swap psi"
        else:
            action = param_reflection_matrix(reg, i)
            label = f"psi r_{q.name(i)} = reflected psi"
        report.add(label, lhs == int_mat_mul(action, psi))
    return report
