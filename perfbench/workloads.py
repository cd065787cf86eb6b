"""The four benchmark workloads: seeded inputs, one case runner each.

``setup(name, seed)`` builds a ``Workload``: the list of cases that make up
one pass, a runner that executes and verifies one case, and a canonical JSON
form of each case's output for the run digest.  Inputs come only from the
seed and the library's own generators, and are built here, before any timing
starts.  A runner returns the case output, raises ``WrongResult`` when an
exact identity or verdict fails, and lets any other exception escape; the
caller counts both as failed cases.

Every call into the library goes through a module attribute (``O.compose``,
not a name imported from it) so that the tracer, which rebinds module
attributes, sees every call the workloads make.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import qschemes.cli as C
import qschemes.orbit as O
import qschemes.quiver as Q
import qschemes.reflect as RF
import qschemes.regularize as RG
import qschemes.repn as R
import qschemes.rmatrix as M
import qschemes.serialize as S
import qschemes.weyl as W
from qschemes.linalg import Matrix
from qschemes.rng import SplitMix64
from qschemes.scalars import GaussQ, TruncScalar

CORPUS = Path("corpus")
# Dimension vectors are drawn from this fixed stream, not from the run seed:
# module sizes set most of a case's cost, so every seed runs the same sizes
# and the seed varies parameters, entries and conjugators.
SHAPE_SEED = 20240416
WORKDIR = Path(".perfbench")


class WrongResult(Exception):
    """A case finished but its exact result is wrong."""


@dataclass
class Workload:
    cases: list
    run: Callable                 # case -> output
    canon: Callable               # (case, output) -> JSON-able digest form
    kind: Callable = lambda case: "case"
    digested: Callable = lambda case: True   # case output enters the digest
    run_traced: Callable = None   # in-process variant for the traced run
    prepare: Callable = None      # untimed work after set-up, before the first pass
    # when set, the run must match the digest recorded for this seed (the
    # inputs came from it); otherwise a seed with no recorded digest passes
    digest_seed: int = None
    peak_rss_kb: Callable = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _shuffled(cases, rng):
    """The cases in a seeded random order.  The host's speed drifts over
    seconds; interleaving the kinds of case lets a slow spell hit all of them
    alike instead of one block of cases."""
    cases = list(cases)
    for k in range(len(cases) - 1, 0, -1):
        j = rng.randint(0, k)
        cases[k], cases[j] = cases[j], cases[k]
    return cases


def load_corpus():
    return {
        p.stem: Q.parse_quiver(p.read_text(encoding="utf-8"))
        for p in sorted(CORPUS.glob("*.quiver"))
    }


# -- orbit -----------------------------------------------------------------------

# (d, block dims).  The first is the smallest profile, the next five are
# those of ``qs check --suite orbit``, two more are the acceptance
# criterion-7 profiles, and the last is the large module (flat size 20).
# Like ``qs check``, a pass runs the same number of cases on every profile.
ORBIT_PROFILES = (
    (1, (1, 1)),
    (2, (2, 1)),
    (2, (1, 2, 1)),
    (3, (1, 1)),
    (3, (2, 1, 1)),
    (2, (1, 1, 1, 1)),
    (3, (1, 2)),
    (4, (2, 2, 1)),
)
ORBIT_PAIRS_PER_PROFILE = 7   # member/non-member pairs of each profile per pass


def _orbit_spec(rng, d, dims):
    consts = []
    while len(consts) < len(dims):
        c = rng.randint(-5, 5)
        if c not in consts:
            consts.append(c)
    blocks = tuple(
        (w, TruncScalar(d, [c] + [rng.randint(-3, 3) for _ in range(d - 1)]))
        for w, c in zip(dims, consts)
    )
    return O.OrbitSpec(d, blocks)


def _orbit_case(case):
    kind, spec, a = case
    witness = O.orbit_membership(spec, a)
    if kind == "nonmember":
        if witness.ok:
            raise WrongResult("non-member accepted")
        return None
    if not witness.ok:
        raise WrongResult("member rejected: " + "; ".join(witness.reasons))
    point = O.leg_factorize(spec, a)
    if O.nu(spec, point) != a:
        raise WrongResult("nu does not recover the input")
    if not all(r.is_zero() for r in O.leg_mesh_residuals(spec, point)):
        raise WrongResult("chain moment residuals are not zero")
    if not O.leg_rank_checks(spec, point):
        raise WrongResult("rank witnesses fail")
    return point


def _orbit_canon(case, point):
    # non-member reasons are excluded: their wording may change
    return {"member": False} if point is None else S.leg_point_to_obj(point)


def setup_orbit(seed):
    rng = SplitMix64(seed)
    cases = []
    for d, dims in ORBIT_PROFILES:
        for _ in range(ORBIT_PAIRS_PER_PROFILE):
            # a fresh spec per pair, so a run averages over many theta sizes
            spec = _orbit_spec(rng, d, dims)
            cases.append(("member", spec, O.random_conjugate(spec, rng.next_u64())))
            cases.append(("nonmember", spec, O.random_non_member(spec, rng.next_u64())))
    return Workload(_shuffled(cases, rng), _orbit_case, _orbit_canon, kind=lambda case: case[0])


# -- functor ---------------------------------------------------------------------

# Enough cases that the slowest ones (nested quiver, mult-4 vertex) form a
# continuous tail rather than a few isolated outliers around the 95th percentile.
FUNCTOR_CASES_PER_VERTEX = 8


def _functor_case(case):
    q, i, lam, p = case
    out = RF.reflection_functor(p, i, lam)
    if out.v != W.reflect_dim(q, i, p.v):
        raise WrongResult("reflected dimension vector is wrong")
    lam2 = W.reflect_param(q, i, lam)
    back = RF.reflection_functor(out, i, lam2)
    a0, s0 = RF.phi(p, i)
    a1, s1 = RF.phi(back, i)
    if a0 != a1 or dict(s0.rest) != dict(s1.rest):
        raise WrongResult("double application does not return the input")
    return out, back


def _functor_canon(case, outputs):
    return [S.rep_to_obj(r) for r in outputs]


def setup_functor(seed):
    rng, shapes = SplitMix64(seed), SplitMix64(SHAPE_SEED)
    cases = []
    for q in load_corpus().values():
        for t in range(FUNCTOR_CASES_PER_VERTEX * q.n):
            i = t % q.n
            lam = R.random_params(q, rng.next_u64(), units=[i])
            # redraw empty level sets here, so every timed case is a round trip
            for _ in range(1000):
                v = tuple(shapes.randint(0, 2) for _ in range(q.n))
                if RF.tilde_dimension(q, i, v) >= v[i]:
                    break
            else:
                raise RuntimeError("no dimension vector with a non-empty level set")
            p = RF.random_level_point(q, lam, v, i, rng.next_u64())
            cases.append((q, i, lam, p))
    return Workload(_shuffled(cases, rng), _functor_case, _functor_canon)


# -- moment_gauss ----------------------------------------------------------------

MOMENT_CASES_PER_QUIVER = 6
I_UNIT = GaussQ(0, 1)


def _gauss(rng):
    return GaussQ(rng.randint(-2, 2), rng.randint(-2, 2))


def _gauss_matrix(rng, n):
    return Matrix([[_gauss(rng) for _ in range(n)] for _ in range(n)], ncols=n)


def _gauss_rep(q, v, rng):
    """A + i B for two real draws: every map gets non-real Gaussian entries."""
    a = R.random_rep(q, v, rng.next_u64())
    b = R.random_rep(q, v, rng.next_u64())
    return R.Representation(q, v, {k: a.maps[k] + b.maps[k].scale(I_UNIT) for k in a.maps})


def _gauss_unit(rng, n, d):
    """Unit endomorphism: its constant slice is a product of two unitriangular
    Gaussian-integer matrices, so it has determinant 1."""
    zero, one = GaussQ(0), GaussQ(1)
    lower = Matrix(
        [[one if i == j else _gauss(rng) if i > j else zero for j in range(n)] for i in range(n)],
        ncols=n,
    )
    upper = Matrix(
        [[one if i == j else _gauss(rng) if i < j else zero for j in range(n)] for i in range(n)],
        ncols=n,
    )
    return M.from_slices([lower @ upper] + [_gauss_matrix(rng, n) for _ in range(d - 1)], d)


def _gauss_end(rng, n, d):
    return M.from_slices([_gauss_matrix(rng, n) for _ in range(d)], d)


def _moment_case(case):
    q, rep, delta, t2, g, xi = case
    mu = R.moment_map(rep)
    if R.moment_trace_sum(mu) != GaussQ(0):
        raise WrongResult("moment trace sum is not zero")
    mu_g = R.moment_map(R.gauge(rep, g))
    for i in range(q.n):
        if mu_g[i] != M.compose(g[i], M.compose(mu[i], M.invert_end(g[i]))):
            raise WrongResult("moment map is not gauge equivariant")
    if not R.moment_derivative_check(rep, delta, xi):
        raise WrongResult("hamiltonian identity fails")
    w = R.symplectic_form(delta, t2)
    if R.symplectic_form(t2, delta) != -w:
        raise WrongResult("symplectic form is not antisymmetric")
    if R.symplectic_form(R.gauge(delta, g), R.gauge(t2, g)) != w:
        raise WrongResult("symplectic form is not gauge invariant")
    return mu, w


def _moment_canon(case, outputs):
    mu, w = outputs
    return {"mu": [S.rmap_to_obj(m) for m in mu], "omega": str(w)}


def setup_moment_gauss(seed):
    rng, shapes = SplitMix64(seed), SplitMix64(SHAPE_SEED)
    cases = []
    for q in load_corpus().values():
        mults = q.mults
        for _ in range(MOMENT_CASES_PER_QUIVER):
            v = tuple(shapes.randint(1, 2) for _ in range(q.n))
            rep, delta, t2 = (_gauss_rep(q, v, rng) for _ in range(3))
            g = tuple(_gauss_unit(rng, v[i], mults[i]) for i in range(q.n))
            xi = tuple(_gauss_end(rng, v[i], mults[i]) for i in range(q.n))
            cases.append((q, rep, delta, t2, g, xi))
    return Workload(_shuffled(cases, rng), _moment_case, _moment_canon)


# -- cli -------------------------------------------------------------------------

CLI_SLOTS = 2   # rounds of the well-formed commands per pass
# The only check of a well-formed command other than its recorded digest is
# ``main`` run in-process from the same checkout, so cli inputs come from
# ``seed % CLI_SEEDS`` and digests are recorded for all of those seeds.
CLI_SEEDS = 32
QS = "import sys; from qschemes.cli import main; sys.exit(main())"


def _inproc(argv):
    """Exit code, stdout and stderr of ``qs argv`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = C.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def _dims(q, rng, lo=0, hi=2):
    return ",".join(str(rng.randint(lo, hi)) for _ in range(q.n))


def _write(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


def _cli_commands(seed, work):
    """Well-formed command lines (CLI_SLOTS round-robin slots) plus the
    malformed inputs; input files are written into ``work``."""
    rng = SplitMix64(seed)
    quivers = load_corpus()
    names = sorted(quivers)
    leg_names = [n for n in names if RG.find_legs(quivers[n])]
    small = O.OrbitSpec(2, ((2, TruncScalar(2, [1, 1])), (1, TruncScalar(2, [-2, 0]))))
    spec_path = _write(work / "spec.json", S.orbit_spec_to_obj(small))
    cmds = []
    for slot in range(CLI_SLOTS):
        name = names[rng.randint(0, len(names) - 1)]
        q, qf = quivers[name], str(CORPUS / f"{name}.quiver")
        lname = leg_names[rng.randint(0, len(leg_names) - 1)]
        lq, lf = quivers[lname], str(CORPUS / f"{lname}.quiver")
        leg = RG.find_legs(lq)[0]
        leg_arg = ",".join(lq.name(i) for i in leg.chain())
        lam = R.random_params(q, rng.next_u64())
        lam_path = _write(work / f"lam{slot}.json", S.params_to_obj(q, lam))
        v = _dims(q, rng, 1, 2)
        rep = R.random_rep(q, tuple(int(x) for x in v.split(",")), rng.next_u64())
        rep_path = _write(work / f"rep{slot}.json", S.rep_to_obj(rep))
        a = O.random_conjugate(small, rng.next_u64())
        a_path = _write(work / f"a{slot}.json", S.rmap_to_obj(a))
        run_seed = str(rng.randint(0, 10**6))
        vertex = q.name(rng.randint(0, q.n - 1))
        j = ("--format", "json")
        cmds += [
            ("parse", qf, "--dot"),
            j + ("cartan", qf),
            j + ("dim", qf, "--v", _dims(q, rng)),
            j + ("weyl-verify", qf),
            j + ("legs", lf),
            j + ("regularize", lf, "--leg", leg_arg),
            j + ("reg-verify", lf, "--leg", leg_arg),
            j + ("reflect", qf, "--vertex", vertex, "--lambda", lam_path, "--v", v),
            j + ("random-rep", qf, "--v", v, "--seed", run_seed),
            j + ("moment", qf, "--rep", rep_path),
            j + ("orbit-check", spec_path, "--a", a_path),
            j + ("check", str(CORPUS), "--suite", "coxeter", "--trials", "2", "--seed", run_seed),
            j + ("check", str(CORPUS), "--suite", "regularize", "--trials", "2", "--seed", run_seed),
        ]
    # malformed inputs: untrusted input must give exit 2 and no traceback
    q = quivers["chain_d2"]
    bad_lam = _write(work / "bad_lam.json", {q.name(i): [1] * m for i, m in enumerate(q.mults)})
    bad_a = S.rmap_to_obj(O.random_conjugate(small, 1))
    bad_a["src"]["rank"] = "x"
    bad_a_path = _write(work / "bad_a.json", bad_a)
    malformed = [
        ("--format", "json", "reflect", str(CORPUS / "chain_d2.quiver"), "--vertex", "i",
         "--lambda", bad_lam, "--v", "1,1,1"),
        ("--format", "json", "orbit-check", spec_path, "--a", bad_a_path),
    ]
    return cmds, malformed


def _check_qs(case, code, out, err):
    argv, expected, malformed = case
    if malformed:
        if code != 2 or b"Traceback" in err:
            raise RuntimeError(f"malformed input: exit {code}"
                               + (" with a traceback" if b"Traceback" in err else ""))
        return None
    if b"Traceback" in err:
        raise RuntimeError("qs printed a traceback")
    if (code, out) != expected:
        raise WrongResult(f"qs {argv[2]}: output differs from in-process main")
    return code, out


class QsRunner:
    """Runs one case as a ``qs`` child process on the checkout's own src and
    keeps the largest child peak RSS (from ``wait4``, i.e. RUSAGE_CHILDREN of
    that child alone)."""

    def __init__(self, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        self.peak_kb = 0

    def __call__(self, case):
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            proc = subprocess.Popen([sys.executable, "-c", QS, *case[0]],
                                    stdout=fo, stderr=fe, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return _check_qs(case, proc.returncode, out_path.read_bytes(), err_path.read_bytes())


def _run_qs_inproc(case):
    return _check_qs(case, *_inproc(case[0]))


def _cli_canon(case, output):
    return [output[0], output[1].decode()]


def _cli_expect(wl):
    """Reference exit codes and outputs from ``main`` in-process.  No ``qs``
    user pays for them, so they are computed after the set-up timer stops."""
    wl.cases = [(argv, None if malformed else _inproc(argv)[:2], malformed)
                for argv, _, malformed in wl.cases]


def setup_cli(seed):
    seed %= CLI_SEEDS
    work = WORKDIR / "cli" / str(seed)
    work.mkdir(parents=True, exist_ok=True)
    cmds, malformed = _cli_commands(seed, work)
    cases = [(argv, None, False) for argv in cmds]
    # spread the malformed inputs through the pass
    for k, argv in enumerate(malformed):
        cases.insert((k + 1) * len(cases) // (len(malformed) + 1), (argv, None, True))
    runner = QsRunner(work)
    return Workload(cases, runner, _cli_canon,
                    kind=lambda case: "malformed" if case[2] else "command",
                    # fixing the error handling of malformed inputs changes their output
                    digested=lambda case: not case[2],
                    run_traced=_run_qs_inproc, peak_rss_kb=lambda: runner.peak_kb,
                    prepare=_cli_expect, digest_seed=seed)


SETUPS = {
    "orbit": setup_orbit,
    "functor": setup_functor,
    "moment_gauss": setup_moment_gauss,
    "cli": setup_cli,
}


def setup(name, seed):
    return SETUPS[name](seed)
