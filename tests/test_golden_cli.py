"""Byte-for-byte contract on the ``--format json`` output of ``qs``.

Each case runs ``qs`` in-process on fixed inputs (the corpus plus the JSON
files in ``tests/golden/``) and compares its stdout and exit code with the
recorded file ``tests/golden/out_<case>.json``.  Every output is seeded, so
any difference is a behaviour change.  After an intended change, rerun
``python tests/test_golden_cli.py`` to rewrite the recorded outputs, and
review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
GOLDEN = REPO / "tests" / "golden"


def _q(name):
    return str(CORPUS / f"{name}.quiver")


def _g(name):
    return str(GOLDEN / name)


J = ("--format", "json")

# (case name, argv, exit code).  A command reading another case's output
# reads its recorded file, so each case stands alone.
CASES = [
    ("random_rep_a3", J + ("random-rep", _q("a3"), "--v", "1,2,1", "--seed", "7"), 0),
    ("moment_a3", J + ("moment", _q("a3"), "--rep", _g("out_random_rep_a3.json")), 0),
    ("random_rep_double_d3",
     J + ("random-rep", _q("double_d3"), "--v", "2,1,1", "--seed", "11"), 0),
    ("moment_double_d3",
     J + ("moment", _q("double_d3"), "--rep", _g("out_random_rep_double_d3.json")), 0),
    ("random_rep_star_n3_d3",
     J + ("random-rep", _q("star_n3_d3"), "--v", "2,1,1", "--seed", "5"), 0),
    ("moment_star_n3_d3",
     J + ("moment", _q("star_n3_d3"), "--rep", _g("out_random_rep_star_n3_d3.json")), 0),
    ("random_level_chain_d2",
     J + ("random-level", _q("chain_d2"), "--vertex", "i", "--lambda",
          _g("lam_chain_d2.json"), "--v", "1,1,1", "--seed", "3"), 0),
    ("functor_chain_d2",
     J + ("functor", _q("chain_d2"), "--vertex", "i", "--lambda", _g("lam_chain_d2.json"),
          "--rep", _g("out_random_level_chain_d2.json")), 0),
    ("random_level_nested",
     J + ("random-level", _q("nested"), "--vertex", "q", "--lambda",
          _g("lam_nested.json"), "--v", "1,1,1", "--seed", "4"), 0),
    ("functor_nested",
     J + ("functor", _q("nested"), "--vertex", "q", "--lambda", _g("lam_nested.json"),
          "--rep", _g("out_random_level_nested.json")), 0),
    ("orbit_check_member",
     J + ("orbit-check", _g("spec.json"), "--a", _g("a_member.json")), 0),
    ("orbit_check_non_member",
     J + ("orbit-check", _g("spec.json"), "--a", _g("a_non_member.json")), 1),
    ("leg_factor_member",
     J + ("leg-factor", _g("spec.json"), "--a", _g("a_member.json")), 0),
    ("leg_factor_non_member",
     J + ("leg-factor", _g("spec.json"), "--a", _g("a_non_member.json")), 2),
    ("check_all",
     J + ("check", str(CORPUS), "--suite", "all", "--seed", "1", "--trials", "2"), 0),
    ("parse_double_d3", J + ("parse", _q("double_d3")), 0),
    ("parse_dot_kronecker", J + ("parse", _q("kronecker"), "--dot"), 0),
    ("cartan_double_d3", J + ("cartan", _q("double_d3")), 0),
    ("dim_chain_d2", J + ("dim", _q("chain_d2"), "--v", "1,1,1"), 0),
    ("reflect_chain_d2",
     J + ("reflect", _q("chain_d2"), "--vertex", "i", "--lambda", _g("lam_chain_d2.json"),
          "--v", "1,1,1"), 0),
    ("weyl_verify_double_d3", J + ("weyl-verify", _q("double_d3")), 0),
    ("weyl_verify_kronecker", J + ("weyl-verify", _q("kronecker")), 0),
    ("mesh_chain_d2",
     J + ("mesh", _q("chain_d2"), "--rep", _g("out_random_level_chain_d2.json"),
          "--lambda", _g("lam_chain_d2.json")), 1),
    ("legs_twolegs_n4_d3", J + ("legs", _q("twolegs_n4_d3")), 0),
    ("regularize_double_d3",
     J + ("regularize", _q("double_d3"), "--leg", "k,i,j", "--lambda", _g("lam_double_d3.json"),
          "--v", "1,1,2"), 0),
    ("reg_verify_double_d3", J + ("reg-verify", _q("double_d3"), "--leg", "k,i,j"), 0),
]


def run_qs(argv):
    from qschemes.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code):
    got_code, got = run_qs(argv)
    assert got_code == code
    assert got == (GOLDEN / f"out_{name}.json").read_bytes()


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    for name, argv, code in CASES:
        got_code, got = run_qs(argv)
        if got_code != code:
            raise SystemExit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / f"out_{name}.json").write_bytes(got)
        print(f"recorded out_{name}.json ({len(got)} bytes)")
