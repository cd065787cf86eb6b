"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Criteria 1-3 and 5-8 are runs of the ``qs check`` suites at fixed quivers,
seeds and trial counts: each asserts that the suite reports no failure and
makes exactly the expected number of checks.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import pytest

from qschemes.errors import EmptyLevelSet, QuiverSyntaxError
from qschemes.quiver import parse_quiver, serialize_quiver
from qschemes.reflect import random_level_point
from qschemes.repn import random_linear_map, random_params
from qschemes.rmatrix import ModShape, pair_d, pr_cd
from qschemes.rng import SplitMix64
from qschemes.suites import run_suite

from helpers import example_star, example_two_legs


def report(num, label):
    print(f"ACCEPTANCE {num} ({label}): PASS")


def check_suite(quivers, name, seed, trials, checks):
    result = run_suite(quivers, name, seed, trials)
    assert result.ok, result.summary()
    assert result.checks == checks


def pick(corpus, *names):
    return {name: corpus[name] for name in names}


def test_criterion_1_coxeter_relations(corpus):
    quivers = pick(corpus, "chain_d2", "chain_d3", "double_d2", "double_d3",
                   "a3", "pair_d2", "pair_d3")
    check_suite(quivers, "coxeter", 1, 25, 106)
    report(1, "Coxeter relations on parameters and dimensions")


def test_criterion_2_transpose_and_lift_coherence(corpus):
    check_suite(corpus, "coxeter", 2, 25, 228)
    report(2, "pairing transpose and lifted-reflection factorization")


def test_criterion_3_residue_intertwining(corpus):
    check_suite(corpus, "coxeter", 3, 25, 228)
    report(3, "residue map intertwines the two actions")


def test_criterion_4_averaging_adjointness():
    for c, d in ((1, 2), (1, 3), (2, 4), (3, 6)):
        rng = SplitMix64(10_000 * c + d)
        for t in range(50):
            rank = rng.randint(1, 3)
            shape = ModShape(rank, d)
            z = random_linear_map(rng, shape, shape, c)
            zp = random_linear_map(rng, shape, shape, d)
            assert pair_d(pr_cd(z), zp, d) == pair_d(z, zp, c), (c, d, t)
    report(4, "averaging map adjoint to the endomorphism inclusion")


def test_criterion_5_moment_identities(corpus):
    # 52 representations across the four quivers
    quivers = pick(corpus, "chain_d2", "chain_d3", "double_d2", "double_d3")
    check_suite(quivers, "moment", 5, 13, 468)
    report(5, "moment map: center-perpendicular, equivariant, Hamiltonian")


def test_criterion_6_reflection_functor(corpus):
    check_suite(corpus, "functor", 6, 25, 1439)
    # (e) the empty level set is also forced on every quiver
    for q in corpus.values():
        lam = random_params(q, 99, units=[0])
        v = tuple(5 if k == 0 else 0 for k in range(q.n))
        with pytest.raises(EmptyLevelSet):
            random_level_point(q, lam, v, 0, 1)
    report(6, "reflection functor: moment values, dimensions, involution, emptiness")


def test_criterion_7_orbit_module():
    # five profiles, each with 100 member and 100 non-member draws
    check_suite({}, "orbit", 7, 100, 3010)
    report(7, "orbit membership, factorization, rank witnesses, rejection")


def test_criterion_8_regularization():
    family = {}
    for d in (2, 3, 4):
        family[f"star_n3_d{d}"] = example_star(3, d)
        family[f"star_n4_d{d}"] = example_star(4, d)
        family[f"twolegs_n4_d{d}"] = example_two_legs(4, d)
        family[f"twolegs_n5_d{d}"] = example_two_legs(5, d)
    # 18 legs, each with 4 exact identities and 3 transfer draws
    check_suite(family, "regularize", 8, 3, 126)
    report(8, "regularization: isometry, semidirect product, equivariance, transfer")


MALFORMED = [
    "quiver { vertex a mult 1 arrow x : a -> a }",        # edge-loop
    "quiver { vertex a mult 1 vertex a mult 2 }",          # duplicate vertex
    "quiver { vertex a mult 1 vertex b mult 1 "
    "arrow x : a -> b arrow x : b -> a }",                 # duplicate arrow
    "quiver { vertex a mult 1 arrow x : a -> zz }",        # dangling target
    "quiver { vertex a mult 1 arrow x : zz -> a }",        # dangling source
    "quiver { vertex a mult 0 }",                          # zero multiplicity
    "quiver { vertex a }",                                 # missing mult
    "quiver { vertex a mult 1",                            # unclosed brace
    "quiver { arrow : a -> b }",                           # missing name
    "quiver { vertex a mult 1 } junk",                     # trailing input
    "nonsense",                                            # no header
    "quiver { vertex 1a mult 1 }",                         # bad identifier
]


def test_criterion_9_parser(corpus):
    for name, q in corpus.items():
        assert parse_quiver(serialize_quiver(q)) == q, name
    rejected = 0
    for text in MALFORMED:
        with pytest.raises(QuiverSyntaxError) as exc:
            parse_quiver(text)
        assert exc.value.line >= 1 and exc.value.col >= 1
        rejected += 1
    assert rejected == len(MALFORMED)
    report(9, "parser round-trip and 100% rejection of the malformed corpus")
