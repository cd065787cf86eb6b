"""Randomized and exact property suites behind ``qs check``.

Each suite walks its invariants over a corpus of quivers, drawing any
randomness from a SplitMix64 stream seeded per case, so a failing case is
reproducible from the seed recorded with its verdict.  The orbit suite walks
five built-in profiles instead, given as (d, block sizes): (1, (1, 1)),
(2, (2, 1)), (2, (1, 1, 1, 1)), (3, (1, 2)) and (3, (2, 1, 1)), chains with
l = 1, 1, 3, 1 and 2 legs.

A suite returns one ``errors.Checks`` record named ``suite <name>``.  A call
of a verifier that returns its own record (``verify_coxeter``,
``verify_semidirect``, ``verify_param_equivariance``) is one check, whose
detail is that record's summary.

Each suite imports its names in its body, as ``cli``'s commands do, so a
suite loads only its own modules; such an import reads the defining
module's attribute at call time, so patching it there reaches the suite.

The acceptance criteria in ``tests/test_acceptance.py`` are runs of these
suites at fixed quivers, seeds and trial counts.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import Checks, EmptyLevelSet, UnknownSuite
from .rng import SplitMix64

SUITE_NAMES = ("coxeter", "moment", "functor", "orbit", "regularize", "all")


def suite_coxeter(quivers, seed, trials) -> Checks:
    from .scalars import GaussQ
    from .weyl import (dim_reflection_matrix, int_mat_mul, int_transpose, lift_cartan,
                       pairing_matrix, param_reflection_matrix, random_params, reflect_dim,
                       reflect_param, rho, rho_matrix, transpose_action_matrix,
                       verify_coxeter)
    report = Checks("suite coxeter")
    rng = SplitMix64(seed)
    for qname in sorted(quivers):
        q = quivers[qname]
        cox, _ = verify_coxeter(q)
        report.record(cox.ok, f"{qname}: coxeter relations", detail=cox.summary())
        pairing = pairing_matrix(q)
        lifted = lift_cartan(q)
        n = len(lifted.indices)
        dc = [[lifted.d[a] * lifted.c[a][b] for b in range(n)] for a in range(n)]
        report.record(dc == int_transpose(dc), f"{qname}: lifted symmetrizer")
        rho_m = rho_matrix(q)
        for i in range(q.n):
            mr = param_reflection_matrix(q, i)
            ms = transpose_action_matrix(q, i)
            report.record(
                int_mat_mul(int_transpose(mr), pairing) == int_mat_mul(pairing, ms),
                f"{qname}: transpose duality at {q.name(i)}",
            )
            prod = None
            for a, (vi, _k) in enumerate(lifted.indices):
                if vi != i:
                    continue
                refl = lifted.reflection_matrix(a)
                prod = refl if prod is None else int_mat_mul(prod, refl)
            report.record(
                prod == ms, f"{qname}: lifted factorization at {q.name(i)}"
            )
            report.record(
                int_mat_mul(rho_m, mr)
                == int_mat_mul(int_transpose(dim_reflection_matrix(q, i)), rho_m),
                f"{qname}: residue intertwining at {q.name(i)}",
            )
        for t in range(max(1, trials // 5)):
            case_seed = rng.next_u64()
            srng = SplitMix64(case_seed)
            lam = random_params(q, srng.next_u64())
            v = tuple(srng.randint(-3, 3) for _ in range(q.n))
            i = srng.randint(0, q.n - 1)
            lhs = sum(
                (GaussQ(x) * r for x, r in zip(v, rho(q, lam))), GaussQ(0)
            )
            v2 = reflect_dim(q, i, v)
            lam2 = reflect_param(q, i, lam)
            rhs = sum(
                (GaussQ(x) * r for x, r in zip(v2, rho(q, lam2))), GaussQ(0)
            )
            report.record(lhs == rhs, f"{qname}: level compatibility", case_seed)
    return report


def suite_moment(quivers, seed, trials) -> Checks:
    from .reflect import split
    from .repn import (gauge, moment_derivative_check, moment_map, moment_trace_sum,
                       random_gauge, random_rep, symplectic_form, symplectic_form_signed)
    from .rmatrix import compose, invert_end
    from .scalars import GaussQ
    report = Checks("suite moment")
    rng = SplitMix64(seed)
    for qname in sorted(quivers):
        q = quivers[qname]
        for t in range(trials):
            case_seed = rng.next_u64()
            srng = SplitMix64(case_seed)
            v = tuple(srng.randint(0, 2) for _ in range(q.n))
            rep = random_rep(q, v, srng.next_u64())
            mu = moment_map(rep)
            case = f"{qname}[{t}]"
            report.record(
                moment_trace_sum(mu) == GaussQ(0), f"{case}: center-perpendicular",
                case_seed,
            )
            for i in range(q.n):
                s = split(rep, i)
                report.record(
                    compose(s.into, s.outof) == mu[i],
                    f"{case}: split cross-check at {q.name(i)}", case_seed,
                )
            g = random_gauge(q, v, srng.next_u64())
            mu_g = moment_map(gauge(rep, g))
            conj_ok = all(
                mu_g[i] == compose(g[i], compose(mu[i], invert_end(g[i])))
                for i in range(q.n)
            )
            report.record(conj_ok, f"{case}: gauge equivariance", case_seed)
            delta = random_rep(q, v, srng.next_u64())
            xi = random_gauge(q, v, srng.next_u64())
            report.record(
                moment_derivative_check(rep, delta, xi),
                f"{case}: hamiltonian identity", case_seed,
            )
            t2 = random_rep(q, v, srng.next_u64())
            w = symplectic_form(delta, t2)
            report.record(
                symplectic_form(t2, delta) == -w, f"{case}: antisymmetry", case_seed
            )
            report.record(
                symplectic_form_signed(delta, t2) == w,
                f"{case}: signed-half agreement", case_seed,
            )
            report.record(
                symplectic_form(gauge(delta, g), gauge(t2, g)) == w,
                f"{case}: gauge-invariant form", case_seed,
            )
    return report


def suite_functor(quivers, seed, trials) -> Checks:
    from .reflect import phi, random_level_point, reflection_functor, tilde_dimension
    from .repn import moment_component
    from .rmatrix import shift_end
    from .weyl import random_params, reflect_dim, reflect_param
    report = Checks("suite functor")
    rng = SplitMix64(seed)
    for qname in sorted(quivers):
        q = quivers[qname]
        for t in range(trials):
            case_seed = rng.next_u64()
            srng = SplitMix64(case_seed)
            i = t % q.n
            lam = random_params(q, srng.next_u64(), units=[i])
            v = tuple(srng.randint(0, 2) for _ in range(q.n))
            case = f"{qname}[{t}]@{q.name(i)}"
            new_rank = tilde_dimension(q, i, v) - v[i]
            if new_rank < 0:
                try:
                    random_level_point(q, lam, v, i, srng.next_u64())
                    report.record(False, f"{case}: empty level set not raised",
                                  case_seed)
                except EmptyLevelSet:
                    report.record(True, f"{case}: empty level set raised", case_seed)
                continue
            p = random_level_point(q, lam, v, i, srng.next_u64())
            report.record(
                shift_end(moment_component(p, i), lam[i]).is_zero(),
                f"{case}: generator moment", case_seed,
            )
            out = reflection_functor(p, i, lam)
            lam2 = reflect_param(q, i, lam)
            report.record(
                out.v == reflect_dim(q, i, v), f"{case}: dimension bookkeeping",
                case_seed,
            )
            report.record(
                shift_end(moment_component(out, i), -lam[i]).is_zero(),
                f"{case}: vertex moment flip", case_seed,
            )
            diff_ok = True
            for j in range(q.n):
                if j == i:
                    continue
                diff = moment_component(out, j) - moment_component(p, j)
                if not shift_end(diff, lam2[j] - lam[j]).is_zero():
                    diff_ok = False
            report.record(diff_ok, f"{case}: neighbour correction", case_seed)
            back = reflection_functor(out, i, lam2)
            a0, s0 = phi(p, i)
            a1, s1 = phi(back, i)
            report.record(
                a0 == a1 and dict(s0.rest) == dict(s1.rest),
                f"{case}: double application", case_seed,
            )
    return report


def _orbit_profiles(seed):
    from .orbit import OrbitSpec
    from .scalars import TruncScalar
    rng = SplitMix64(seed)
    profiles = [
        (1, (1, 1)),           # l = 1
        (2, (2, 1)),           # l = 1
        (2, (1, 1, 1, 1)),     # l = 3
        (3, (1, 2)),           # l = 1
        (3, (2, 1, 1)),        # l = 2
    ]
    specs = []
    for d, dims in profiles:
        consts = []
        while len(consts) < len(dims):
            c = rng.randint(-5, 5)
            if all(c != x for x in consts):
                consts.append(c)
        blocks = []
        for w, c in zip(dims, consts):
            coeffs = [c] + [rng.randint(-3, 3) for _ in range(d - 1)]
            blocks.append((w, TruncScalar(d, coeffs)))
        specs.append(OrbitSpec(d, tuple(blocks)))
    return specs


def suite_orbit(seed, trials) -> Checks:
    from .linalg import hstack, rank
    from .orbit import (big_theta, free_basis, leg_factorize, leg_mesh_residuals,
                        leg_rank_checks, nu, orbit_dimension, orbit_membership,
                        random_conjugate, random_non_member)
    from .rmatrix import compose, shift_end
    report = Checks("suite orbit")
    rng = SplitMix64(seed)
    for spec in _orbit_profiles(rng.next_u64()):
        tag = f"d={spec.d},dims={spec.dims}"
        lhs = spec.d * (spec.total ** 2 - sum(w * w for w in spec.dims))
        report.record(orbit_dimension(spec) == lhs, f"{tag}: dimension identity")
        theta = big_theta(spec)
        for t in range(trials):
            case_seed = rng.next_u64()
            a = random_conjugate(spec, case_seed)
            case = f"{tag}[{t}]"
            w = orbit_membership(spec, a)
            report.record(w.ok, f"{case}: membership", case_seed,
                          "; ".join(w.reasons))
            if not w.ok:
                continue
            point = leg_factorize(spec, a, w)
            report.record(nu(spec, point) == a, f"{case}: nu recovers", case_seed)
            report.record(
                all(r.is_zero() for r in leg_mesh_residuals(spec, point)),
                f"{case}: chain moment residuals", case_seed,
            )
            report.record(
                leg_rank_checks(spec, point), f"{case}: rank witnesses", case_seed
            )
            # leg i: Im(sum_{j>=i} pi_j) = Im(prod_{j<i} (theta_j - A)), with
            # the sums built as suffix sums and the products as prefix products
            tails = list(accumulate(reversed(w.idempotents[1:]), lambda s, pi: pi + s))
            tails.reverse()
            img_ok = True
            prod, minus_a = None, -a
            for theta_j, proj in zip(spec.thetas, tails):
                f = shift_end(minus_a, theta_j)
                prod = f if prod is None else compose(f, prod)
                u = free_basis(proj)
                stacked = hstack([u.flat, prod.flat])
                if not (rank(stacked) == rank(u.flat) == rank(prod.flat)):
                    img_ok = False
            report.record(img_ok, f"{case}: image agreement", case_seed)
        for t in range(trials):
            case_seed = rng.next_u64()
            bad = random_non_member(spec, case_seed)
            report.record(
                not orbit_membership(spec, bad).ok,
                f"{tag}: non-member rejected [{t}]", case_seed,
            )
        report.record(
            orbit_membership(spec, theta).ok, f"{tag}: model point accepted"
        )
    return report


def suite_regularize(quivers, seed, trials) -> Checks:
    from .quiver import expected_dim
    from .regularize import (find_legs, isometry_check, phi_map, regularize_params,
                             regularize_quiver, verify_param_equivariance,
                             verify_semidirect)
    from .weyl import level_check, random_params
    report = Checks("suite regularize")
    rng = SplitMix64(seed)
    for qname in sorted(quivers):
        q = quivers[qname]
        legs = find_legs(q)
        for ln, leg in enumerate(legs):
            tag = f"{qname}/leg{ln}"
            reg = regularize_quiver(q, leg)
            report.record(isometry_check(q, leg, reg), f"{tag}: form isometry")
            sd = verify_semidirect(q, leg, reg)
            report.record(sd.ok, f"{tag}: semidirect identities", detail=sd.summary())
            pe = verify_param_equivariance(q, leg, reg)
            report.record(pe.ok, f"{tag}: parameter equivariance", detail=pe.summary())
            chain = set(leg.chain())
            leftover = [
                l2 for l2 in find_legs(reg) if set(l2.vertices) & chain
            ]
            report.record(not leftover, f"{tag}: chain fully regularized")
            pm = phi_map(q, leg)
            for t in range(trials):
                case_seed = rng.next_u64()
                srng = SplitMix64(case_seed)
                v = [srng.randint(0, 4) for _ in range(q.n)]
                ch = leg.chain()
                for pos in range(1, len(ch)):
                    v[ch[pos]] = min(v[ch[pos]], v[ch[pos - 1]])
                v = tuple(v)
                lam = random_params(q, srng.next_u64())
                lamc, vc = regularize_params(q, leg, lam, v)
                ok = (
                    vc == pm.apply(v)
                    and expected_dim(q, v) == expected_dim(reg, vc)
                    and level_check(q, lam, v) == level_check(reg, lamc, vc)
                )
                report.record(ok, f"{tag}: transfer invariants [{t}]", case_seed)
    return report


def run_suite(quivers, name, seed=1, trials=25) -> Checks:
    """Run one named suite (or all of them) over a corpus of quivers."""
    if name not in SUITE_NAMES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if name == "coxeter":
        return suite_coxeter(quivers, seed, trials)
    if name == "moment":
        return suite_moment(quivers, seed, trials)
    if name == "functor":
        return suite_functor(quivers, seed, trials)
    if name == "orbit":
        return suite_orbit(seed, trials)
    if name == "regularize":
        return suite_regularize(quivers, seed, trials)
    total = Checks("suite all")
    for sub in SUITE_NAMES[:-1]:
        total.merge(run_suite(quivers, sub, seed, trials))
    return total
