import json
import os
import subprocess
import sys

import pytest

from qschemes import orbit, reflect, regularize, repn, suites, weyl  # noqa: F401
from qschemes import serialize as ser
from qschemes.cli import main
from qschemes.orbit import OrbitSpec, random_conjugate, random_non_member
from qschemes.quiver import parse_quiver
from qschemes.scalars import GaussQ, TruncScalar


@pytest.fixture
def chain_file(corpus_dir):
    return str(corpus_dir / "chain_d2.quiver")


@pytest.fixture
def lam_file(tmp_path):
    path = tmp_path / "lam.json"
    path.write_text(json.dumps({"i": ["5"], "j": ["1", "2"], "k": ["-3"]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_parse_roundtrip(self, capsys, chain_file, corpus):
        code, out, _ = run(capsys, "parse", chain_file)
        assert code == 0
        assert parse_quiver(out) == corpus["chain_d2"]

    def test_parse_dot(self, capsys, chain_file):
        code, out, _ = run(capsys, "parse", chain_file, "--dot")
        assert code == 0 and out.startswith("digraph")

    def test_cartan_text_and_json(self, capsys, chain_file):
        code, out, _ = run(capsys, "cartan", chain_file)
        assert code == 0 and "2 -2 -1" in out
        code, out, _ = run(capsys, "--format", "json", "cartan", chain_file)
        obj = json.loads(out)
        assert obj["c"] == [[2, -2, -1], [-1, 2, 0], [-1, 0, 2]]

    def test_dim(self, capsys, chain_file):
        code, out, _ = run(capsys, "dim", chain_file, "--v", "1,1,1")
        assert code == 0 and "0" in out

    def test_reflect(self, capsys, chain_file, lam_file):
        code, out, _ = run(capsys, "--format", "json", "reflect", chain_file,
                           "--vertex", "i", "--lambda", lam_file, "--v", "1,1,1")
        assert code == 0
        obj = json.loads(out)
        assert obj["v"] == [2, 1, 1]
        assert obj["lambda"]["i"] == ["-5"]
        assert obj["lambda"]["j"] == ["1", "12"]
        assert obj["lambda"]["k"] == ["2"]

    def test_weyl_verify(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "weyl-verify", str(corpus_dir / "kronecker.quiver"))
        assert code == 0
        assert out == ("coxeter relations: 4 checks, 0 failures [ok]\n"
                       "  skipped infinite pair ('p', 'q') (c_ij*c_ji = 4)\n")

    def test_error_paths(self, capsys, tmp_path):
        bad = tmp_path / "bad.quiver"
        bad.write_text("quiver { vertex a mult 1 arrow x : a -> a }")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 2
        assert err.startswith("error[syntax]")
        code, _, err = run(capsys, "parse", str(tmp_path / "missing.quiver"))
        assert code == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 2


class TestRepresentationCommands:
    def test_random_rep_and_moment(self, capsys, chain_file, tmp_path):
        rep_file = str(tmp_path / "rep.json")
        code, _, _ = run(capsys, "random-rep", chain_file, "--v", "1,1,1",
                         "--seed", "7", "--out", rep_file)
        assert code == 0
        code, out, _ = run(capsys, "--format", "json", "moment", chain_file,
                           "--rep", rep_file)
        assert code == 0 and set(json.loads(out)) == {"i", "j", "k"}

    def test_random_rep_deterministic(self, capsys, chain_file):
        code, out1, _ = run(capsys, "random-rep", chain_file, "--v", "1,1,1", "--seed", "7")
        code, out2, _ = run(capsys, "random-rep", chain_file, "--v", "1,1,1", "--seed", "7")
        assert out1 == out2

    def test_mesh_and_functor_flow(self, capsys, chain_file, lam_file, tmp_path):
        rep_file = str(tmp_path / "rep.json")
        code, _, _ = run(capsys, "random-level", chain_file, "--vertex", "i",
                         "--lambda", lam_file, "--v", "1,1,1", "--seed", "3",
                         "--out", rep_file)
        assert code == 0
        # only the chosen vertex is constrained, so mesh reports nonzero
        code, out, _ = run(capsys, "mesh", chain_file, "--rep", rep_file,
                           "--lambda", lam_file)
        assert code == 1
        out_file = str(tmp_path / "out.json")
        code, _, _ = run(capsys, "functor", chain_file, "--vertex", "i",
                         "--lambda", lam_file, "--rep", rep_file, "--out", out_file)
        assert code == 0
        obj = json.loads((tmp_path / "out.json").read_text())
        assert obj["v"] == [2, 1, 1]


class TestOrbitCommands:
    def test_check_and_factor(self, capsys, tmp_path):
        spec = OrbitSpec(2, ((1, TruncScalar(2, [0, 1])), (1, TruncScalar(2, [2]))))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(ser.dumps(ser.orbit_spec_to_obj(spec)))
        a_file = tmp_path / "a.json"
        a_file.write_text(ser.dumps(ser.rmap_to_obj(random_conjugate(spec, 3))))
        code, out, _ = run(capsys, "orbit-check", str(spec_file), "--a", str(a_file))
        assert code == 0 and "member" in out
        code, _, _ = run(capsys, "leg-factor", str(spec_file), "--a", str(a_file),
                         "--out", str(tmp_path / "point.json"))
        assert code == 0
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(ser.dumps(ser.rmap_to_obj(random_non_member(spec, 5))))
        code, out, _ = run(capsys, "orbit-check", str(spec_file), "--a", str(bad_file))
        assert code == 1


class TestRegularizeCommands:
    def test_legs_and_regularize(self, capsys, corpus_dir):
        qfile = corpus_dir / "star_n3_d3.quiver"
        code, out, _ = run(capsys, "legs", str(qfile))
        assert code == 0 and "base base" in out
        code, out, _ = run(capsys, "regularize", str(qfile), "--leg", "base,leg")
        assert code == 0
        reg = parse_quiver(out)
        assert all(v.mult == 1 for v in reg.vertices)
        code, out, _ = run(capsys, "reg-verify", str(qfile), "--leg", "base,leg")
        assert code == 0

    def test_regularize_text_out_keeps_the_transferred_data(self, capsys, corpus_dir, tmp_path):
        # with --out the quiver goes to the file and the "# v:" and
        # "# hypotheses ok:" lines still go to stdout
        qfile = str(corpus_dir / "double_d3.quiver")
        lam = str(corpus_dir.parent / "tests" / "golden" / "lam_double_d3.json")
        flags = ("--leg", "k,i,j", "--lambda", lam, "--v", "1,1,2")
        code, inline, _ = run(capsys, "regularize", qfile, *flags)
        assert code == 0
        out_file = tmp_path / "reg.quiver"
        code, out, _ = run(capsys, "regularize", qfile, *flags, "--out", str(out_file))
        assert code == 0
        assert inline == out_file.read_text() + out
        _, js, _ = run(capsys, "--format", "json", "regularize", qfile, *flags)
        obj = json.loads(js)
        assert out == f"# v: {obj['v']}\n# hypotheses ok: {obj['hypotheses_ok']}\n"

    def test_reg_verify_text(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "reg-verify", str(corpus_dir / "double_d3.quiver"),
                           "--leg", "k,i,j")
        assert code == 0
        assert out == ("isometry: ok\n"
                       "semidirect: 9 checks, 0 failures [ok]\n"
                       "equivariance: 3 checks, 0 failures [ok]\n")

    def test_invalid_leg(self, capsys, corpus_dir):
        qfile = corpus_dir / "star_n3_d3.quiver"
        code, _, err = run(capsys, "regularize", str(qfile), "--leg", "base,c1")
        assert code == 2 and err.startswith("error[invalid-leg]")


class TestCheckCommand:
    def test_small_run(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "check", str(corpus_dir), "--suite", "coxeter",
                           "--seed", "1", "--trials", "5")
        assert code == 0 and "0 failures" in out

    def test_text(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "check", str(corpus_dir), "--suite", "coxeter",
                           "--seed", "1", "--trials", "2")
        assert code == 0
        assert out == "suite coxeter: 168 checks, 0 failures [ok]\n"

    def test_unknown_suite_rejected(self, capsys, corpus_dir):
        code, out, err = run(capsys, "check", str(corpus_dir), "--suite", "bogus")
        assert code == 2 and out == ""
        assert err.startswith("error[unknown-suite]")
        assert all(repr(name) in err for name in suites.SUITE_NAMES)

    @pytest.mark.parametrize("where", ("empty", "missing"))
    def test_no_quiver_files(self, capsys, tmp_path, where):
        corpus_dir = tmp_path / where
        if where == "empty":
            corpus_dir.mkdir()
        code, out, err = run(capsys, "check", str(corpus_dir), "--suite", "coxeter")
        assert code == 2 and out == ""
        assert err == f"error[malformed-input]: no .quiver files in {corpus_dir}\n"

    def test_json_format(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "--format", "json", "check", str(corpus_dir),
                           "--suite", "regularize", "--seed", "1", "--trials", "2")
        obj = json.loads(out)
        assert code == 0 and obj["failures"] == []

    # per suite: an invariant it calls, its defining module, and a wrong value
    # made from the right one
    BROKEN = {
        "coxeter": (weyl, "reflect_dim", lambda v: tuple(x + 1 for x in v)),
        "moment": (repn, "moment_trace_sum", lambda s: s + GaussQ(1)),
        "functor": (weyl, "reflect_dim", lambda v: tuple(x + 1 for x in v)),
        "orbit": (orbit, "nu", lambda a: -a),
        "regularize": (regularize, "regularize_params",
                       lambda out: (out[0], tuple(x + 1 for x in out[1]))),
    }

    @pytest.mark.parametrize("suite", BROKEN)
    def test_broken_invariant_fails(self, capsys, monkeypatch, corpus, corpus_dir, suite):
        """A suite whose invariant returns a wrong value must report it.

        A suite imports its names when it runs, so patching the defining
        module reaches it.  Every module the suites run is imported at the
        top of this file, before any patch, so none binds a patched name when
        it loads."""
        module, name, wrong = self.BROKEN[suite]
        right = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: wrong(right(*args)))
        report = suites.run_suite(corpus, suite, 1, 2)
        assert report.failures
        assert all(f["case"] and f["seed"] is not None for f in report.failures)
        code, out, _ = run(capsys, "--format", "json", "check", str(corpus_dir),
                           "--suite", suite, "--seed", "1", "--trials", "2")
        assert code == 1
        assert json.loads(out)["failures"] == report.failures


class TestBrokenVerifier:
    """A verifier command whose identity is broken exits 1, marks the broken
    entries false, lists them as FAIL lines, and ``qs check`` puts the
    verifier's summary in the failure's detail."""

    @staticmethod
    def break_reflection(monkeypatch):
        right = weyl.param_reflection_matrix
        monkeypatch.setattr(weyl, "param_reflection_matrix",
                            lambda q, i: [[2 * x for x in row] for row in right(q, i)])

    @staticmethod
    def break_swap(monkeypatch):
        monkeypatch.setattr(regularize, "_swap", lambda n, a, b: weyl.int_identity(n))

    def test_weyl_verify(self, capsys, monkeypatch, corpus_dir):
        self.break_reflection(monkeypatch)
        qfile = str(corpus_dir / "double_d3.quiver")
        code, out, _ = run(capsys, "--format", "json", "weyl-verify", qfile)
        obj = json.loads(out)
        assert code == 1 and obj["ok"] is False
        assert [c["ok"] for c in obj["checks"]] == [c["action"] == "dim" for c in obj["checks"]]
        code, out, _ = run(capsys, "weyl-verify", qfile)
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == "coxeter relations: 12 checks, 6 failures [FAIL]"
        assert lines[1:] == [
            f"  FAIL {('param', tuple(c['vertices']), c['order'])}"
            for c in obj["checks"] if c["action"] == "param"
        ]

    def test_reg_verify(self, capsys, monkeypatch, corpus_dir):
        self.break_swap(monkeypatch)
        argv = ("reg-verify", str(corpus_dir / "double_d3.quiver"), "--leg", "k,i,j")
        code, out, _ = run(capsys, "--format", "json", *argv)
        obj = json.loads(out)
        assert code == 1 and obj["ok"] is False and obj["isometry"] is True
        failed = [c["label"] for key in ("semidirect", "equivariance")
                  for c in obj[key] if not c["ok"]]
        assert failed and all("swap" in label for label in failed)
        assert all(c["ok"] for key in ("semidirect", "equivariance") for c in obj[key]
                   if "swap" not in c["label"])
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert [line.removeprefix("  FAIL ") for line in out.splitlines()
                if line.startswith("  FAIL ")] == failed

    @pytest.mark.parametrize("suite", ["coxeter", "regularize"])
    def test_check_detail(self, capsys, monkeypatch, corpus, corpus_dir, suite):
        if suite == "coxeter":
            self.break_reflection(monkeypatch)
            records = {f"{name}: coxeter relations": weyl.verify_coxeter(q)[0]
                       for name, q in corpus.items()}
        else:
            self.break_swap(monkeypatch)
            records = {}
            for name, q in corpus.items():
                for ln, leg in enumerate(regularize.find_legs(q)):
                    reg = regularize.regularize_quiver(q, leg)
                    records[f"{name}/leg{ln}: semidirect identities"] = \
                        regularize.verify_semidirect(q, leg, reg)
                    records[f"{name}/leg{ln}: parameter equivariance"] = \
                        regularize.verify_param_equivariance(q, leg, reg)
        code, out, _ = run(capsys, "--format", "json", "check", str(corpus_dir),
                           "--suite", suite, "--seed", "1", "--trials", "2")
        got = {f["case"]: f["detail"] for f in json.loads(out)["failures"]
               if f["case"] in records}
        assert code == 1
        assert got == {case: rec.summary() for case, rec in records.items() if not rec.ok}
        assert got and all("[FAIL]\n  FAIL " in detail for detail in got.values())

    def test_check_text_nests_detail(self, capsys, monkeypatch, corpus_dir):
        """The suite's FAIL lines start at two spaces; the lines of a failing
        verifier's summary in their detail sit deeper, under their FAIL line."""
        self.break_swap(monkeypatch)
        code, out, _ = run(capsys, "check", str(corpus_dir), "--suite", "regularize",
                           "--seed", "1", "--trials", "2")
        body = out.splitlines()[1:]
        assert code == 1 and body[0].startswith("  FAIL ")
        assert all(line.startswith(("  FAIL ", "      FAIL ")) for line in body)
        for k, line in enumerate(body):
            if line.startswith("  FAIL "):
                assert line.endswith("[FAIL]") and body[k + 1].startswith("      FAIL ")


class TestInputBoundary:
    """Malformed input fails with a typed error and exit 2, not a traceback."""

    @staticmethod
    def orbit_check(capsys, tmp_path, edit_spec=lambda obj: None, edit_map=lambda obj: None):
        """Run orbit-check on a member whose spec and map JSON are edited first."""
        spec = OrbitSpec(2, ((1, TruncScalar(2, [0, 1])), (1, TruncScalar(2, [2]))))
        spec_obj = ser.orbit_spec_to_obj(spec)
        map_obj = ser.rmap_to_obj(random_conjugate(spec, 1))
        edit_spec(spec_obj)
        edit_map(map_obj)
        spec_file, a_file = tmp_path / "spec.json", tmp_path / "a.json"
        spec_file.write_text(json.dumps(spec_obj))
        a_file.write_text(json.dumps(map_obj))
        return run(capsys, "orbit-check", str(spec_file), "--a", str(a_file))

    def test_orbit_check_non_integer_rank(self, capsys, tmp_path):
        def edit(obj):
            obj["src"]["rank"] = "x"
        code, out, err = self.orbit_check(capsys, tmp_path, edit_map=edit)
        assert code == 2 and out == ""
        assert err.startswith("error[malformed-input]") and "rank" in err

    def test_orbit_spec_zero_denominator(self, capsys, tmp_path):
        def edit(obj):
            obj["blocks"][0]["theta"][0] = "1/0"
        code, out, err = self.orbit_check(capsys, tmp_path, edit_spec=edit)
        assert code == 2 and out == ""
        assert err.startswith("error[input]") and "zero denominator" in err

    def test_map_zero_denominator(self, capsys, tmp_path):
        def edit(obj):
            obj["flat"][0][0] = "2/0"
        code, out, err = self.orbit_check(capsys, tmp_path, edit_map=edit)
        assert code == 2 and out == ""
        assert err.startswith("error[input]") and "zero denominator" in err

    @staticmethod
    def assert_missing_field(result, what, key):
        code, out, err = result
        assert code == 2 and out == ""
        assert err == f"error[malformed-input]: {what} has no field {key!r}\n"

    def test_map_without_base(self, capsys, tmp_path):
        result = self.orbit_check(capsys, tmp_path, edit_map=lambda obj: obj.pop("base"))
        self.assert_missing_field(result, "map", "base")

    def test_orbit_spec_without_blocks(self, capsys, tmp_path):
        result = self.orbit_check(capsys, tmp_path, edit_spec=lambda obj: obj.pop("blocks"))
        self.assert_missing_field(result, "orbit spec", "blocks")

    def test_representation_without_v(self, capsys, corpus_dir, tmp_path):
        golden = corpus_dir.parent / "tests" / "golden" / "out_random_rep_a3.json"
        obj = json.loads(golden.read_text())
        del obj["v"]
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(obj))
        result = run(capsys, "moment", str(corpus_dir / "a3.quiver"), "--rep", str(rep))
        self.assert_missing_field(result, "representation", "v")

    @staticmethod
    def moment_double_d3(capsys, corpus_dir, tmp_path, edit_a):
        """Run moment on the golden double_d3 point with its map a edited first."""
        golden = corpus_dir.parent / "tests" / "golden"
        obj = json.loads((golden / "out_random_rep_double_d3.json").read_text())
        edit_a(obj["maps"]["a"])
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(obj))
        return run(capsys, "--format", "json", "moment",
                   str(corpus_dir / "double_d3.quiver"), "--rep", str(rep))

    def test_map_below_arrow_base_is_redeclared(self, capsys, corpus_dir, tmp_path):
        """A map given over R_1 is re-declared at its arrow's base R_3."""
        code, out, err = self.moment_double_d3(capsys, corpus_dir, tmp_path,
                                               lambda a: a.update(base=1))
        golden = corpus_dir.parent / "tests" / "golden" / "out_moment_double_d3.json"
        assert code == 0 and err == ""
        assert out == golden.read_text()

    def test_map_below_arrow_base_not_linear(self, capsys, corpus_dir, tmp_path):
        def edit(a):
            a["base"] = 1
            a["flat"][0][1] = "1"   # above the diagonal of an R_3-linear block
        code, out, err = self.moment_double_d3(capsys, corpus_dir, tmp_path, edit)
        assert code == 2 and out == ""
        assert err.startswith("error[not-linear-over-base]")

    def test_parameters_without_a_vertex(self, capsys, chain_file, tmp_path):
        lam = tmp_path / "lam.json"
        lam.write_text(json.dumps({"i": ["5"], "k": ["-3"]}))
        result = run(capsys, "reflect", chain_file, "--vertex", "i",
                     "--lambda", str(lam), "--v", "1,1,1")
        self.assert_missing_field(result, "parameters", "j")

    def test_parameter_zero_denominator(self, capsys, chain_file, tmp_path):
        lam = tmp_path / "lam.json"
        lam.write_text(json.dumps({"i": ["5"], "j": ["1", "3/0"], "k": ["-3"]}))
        code, out, err = run(capsys, "reflect", chain_file, "--vertex", "i",
                             "--lambda", str(lam), "--v", "1,1,1")
        assert code == 2 and out == ""
        assert err.startswith("error[input]") and "zero denominator" in err

    def test_numeric_parameter_coefficients(self, capsys, chain_file, tmp_path):
        lam = tmp_path / "lam.json"
        lam.write_text(json.dumps({"i": [1], "j": [1, 2], "k": [1]}))
        code, out, err = run(capsys, "reflect", chain_file, "--vertex", "i",
                             "--lambda", str(lam), "--v", "1,1,1")
        assert code == 2 and out == ""
        assert err.startswith("error[malformed-input]")

    def test_random_level_short_dimension_vector(self, capsys, corpus_dir):
        lam = corpus_dir.parent / "tests" / "golden" / "lam_chain_d2.json"
        code, out, err = run(capsys, "random-level", str(corpus_dir / "chain_d2.quiver"),
                             "--vertex", "i", "--lambda", str(lam), "--v", "1,1", "--seed", "1")
        assert code == 2 and out == ""
        assert err.startswith("error[length-mismatch]")

    def test_random_level_negative_dimension(self, capsys, corpus_dir):
        lam = corpus_dir.parent / "tests" / "golden" / "lam_chain_d2.json"
        code, out, err = run(capsys, "random-level", str(corpus_dir / "chain_d2.quiver"),
                             "--vertex", "i", "--lambda", str(lam), "--v=1,-1,1", "--seed", "1")
        assert code == 2 and out == ""
        assert err.startswith("error[negative-dimension]")

    def test_deeply_nested_json(self, capsys, corpus_dir, tmp_path):
        rep = tmp_path / "deep.json"
        rep.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "moment", str(corpus_dir / "a3.quiver"), "--rep", str(rep))
        assert code == 2 and out == ""
        assert err.startswith("error[malformed-input]") and "nested" in err

    def test_random_rep_short_dimension_vector(self, capsys, corpus_dir):
        code, out, err = run(capsys, "random-rep", str(corpus_dir / "a3.quiver"),
                             "--v", "1,2", "--seed", "1")
        assert code == 2 and out == ""
        assert err.startswith("error[length-mismatch]")

    @staticmethod
    def regularize(capsys, corpus_dir, *flags):
        """Run regularize on double_d3 along its leg k,i,j with extra flags."""
        return run(capsys, "--format", "json", "regularize",
                   str(corpus_dir / "double_d3.quiver"), "--leg", "k,i,j", *flags)

    def test_regularize_wrong_length_dimension_vector(self, capsys, corpus_dir):
        lam = str(corpus_dir.parent / "tests" / "golden" / "lam_double_d3.json")
        for v in ("1", "1,1", "1,1,2,4"):
            code, out, err = self.regularize(capsys, corpus_dir, "--lambda", lam, "--v", v)
            assert code == 2 and out == ""
            assert err.startswith("error[length-mismatch]")

    def test_regularize_needs_lambda_and_v_together(self, capsys, corpus_dir):
        lam = str(corpus_dir.parent / "tests" / "golden" / "lam_double_d3.json")
        for flags in (("--lambda", lam), ("--v", "1,1,2")):
            code, out, err = self.regularize(capsys, corpus_dir, *flags)
            assert code == 2 and out == ""
            assert err.startswith("error[malformed-input]")

    @pytest.mark.parametrize("command", [("dim",), ("random-rep", "--seed", "1")])
    @pytest.mark.parametrize("v", ["1,,2", "1,x,2"])
    def test_malformed_dimension_vector(self, capsys, corpus_dir, command, v):
        name, *flags = command
        code, out, err = run(capsys, "--format", "json", name,
                             str(corpus_dir / "a3.quiver"), "--v", v, *flags)
        assert code == 2 and out == ""
        assert err == ("error[malformed-input]: --v must be comma-separated integers, "
                       f"got {v!r}\n")

    def test_check_rejects_non_positive_trials(self, capsys, corpus_dir):
        for trials in ("-3", "0"):
            code, out, err = run(capsys, "check", str(corpus_dir), "--suite", "coxeter",
                                 "--trials", trials)
            assert code == 2 and out == ""
            assert err.startswith("error[malformed-input]")


class TestImportsPerCommand:
    """A command loads only the modules it runs.  One fresh interpreter per
    group of commands runs each of them through ``main`` and lists the
    ``qschemes`` modules it has loaded; no command loads ``dataclasses``."""

    CHILD = (
        "import contextlib, io, json, sys\n"
        "from qschemes.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, [m for m in sys.modules if m.startswith('qschemes.')],\n"
        "                  'dataclasses' in sys.modules]))\n"
    )

    @classmethod
    def loaded(cls, repo, *commands):
        proc = subprocess.run([sys.executable, "-c", cls.CHILD, json.dumps(commands)],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=str(repo / "src")))
        codes, modules, dataclasses = json.loads(proc.stdout)
        assert codes == [0] * len(commands)
        assert not dataclasses
        return {m.removeprefix("qschemes.") for m in modules}

    def test_quiver_commands(self, corpus_dir):
        chain = str(corpus_dir / "chain_d2.quiver")
        loaded = self.loaded(corpus_dir.parent, ["parse", chain, "--dot"], ["cartan", chain],
                             ["dim", chain, "--v", "1,1,1"])
        assert loaded == {"cli", "errors", "quiver", "serialize"}

    def test_quiver_and_lattice_commands(self, corpus_dir):
        repo = corpus_dir.parent
        chain, double = corpus_dir / "chain_d2.quiver", corpus_dir / "double_d3.quiver"
        lam_chain = repo / "tests" / "golden" / "lam_chain_d2.json"
        lam_double = repo / "tests" / "golden" / "lam_double_d3.json"
        loaded = self.loaded(
            repo,
            ["parse", str(chain), "--dot"],
            ["cartan", str(chain)],
            ["dim", str(chain), "--v", "1,1,1"],
            ["weyl-verify", str(double)],
            ["legs", str(double)],
            ["regularize", str(double), "--leg", "k,i,j", "--lambda", str(lam_double),
             "--v", "1,1,2"],
            ["reg-verify", str(double), "--leg", "k,i,j"],
            ["reflect", str(chain), "--vertex", "i", "--lambda", str(lam_chain), "--v", "1,1,1"],
        )
        assert loaded == {"cli", "errors", "quiver", "regularize", "scalars", "serialize", "weyl"}

    def test_representation_commands(self, corpus_dir):
        repo, a3 = corpus_dir.parent, str(corpus_dir / "a3.quiver")
        rep = str(repo / "tests" / "golden" / "out_random_rep_a3.json")
        loaded = self.loaded(repo, ["random-rep", a3, "--v", "1,2,1", "--seed", "7"],
                             ["moment", a3, "--rep", rep])
        assert "repn" in loaded
        assert not loaded & {"orbit", "reflect", "suites", "regularize"}

    def test_orbit_check(self, corpus_dir):
        repo = corpus_dir.parent
        golden = repo / "tests" / "golden"
        loaded = self.loaded(repo, ["orbit-check", str(golden / "spec.json"),
                                    "--a", str(golden / "a_member.json")])
        assert "orbit" in loaded
        assert not loaded & {"reflect", "suites"}

    def test_lattice_suites(self, corpus_dir):
        loaded = self.loaded(corpus_dir.parent,
                             *(["check", str(corpus_dir), "--suite", suite, "--trials", "1"]
                               for suite in ("coxeter", "regularize")))
        assert loaded == {"cli", "errors", "quiver", "regularize", "rng", "scalars", "serialize",
                          "suites", "weyl"}


def test_installed_entry_point(chain_file):
    proc = subprocess.run(
        [sys.executable, "-m", "qschemes.cli", "cartan", chain_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "2 -2 -1" in proc.stdout
