"""tools/bench_pairs.py: the condensing step on synthetic run records, the
checkout sha it records, and its runs on checkouts without bytecode caches."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def records(pairs):
    """Run records from (base, change) metric dicts, alternating the order."""
    out = []
    for i, (base, change) in enumerate(pairs):
        sides = [("base", base), ("change", change)]
        for side, metrics in sides if i % 2 == 0 else sides[::-1]:
            out.append({"pair": i, "side": side, "metrics": metrics})
    return out


class TestCondense:
    def test_medians_quartiles_ratios_and_wins(self):
        runs = records([
            ({"cases_per_kref": 100.0, "case_p50_ref": 10.0},
             {"cases_per_kref": 200.0, "case_p50_ref": 5.0}),
            ({"cases_per_kref": 120.0, "case_p50_ref": 12.0},
             {"cases_per_kref": 180.0, "case_p50_ref": 12.0}),
            ({"cases_per_kref": 80.0, "case_p50_ref": 8.0},
             {"cases_per_kref": 60.0, "case_p50_ref": 9.0}),
        ])
        got = bench_pairs.condense(runs, {"cases_per_kref": "higher", "case_p50_ref": "lower"})
        thr = got["cases_per_kref"]
        assert thr["base"]["runs"] == [100.0, 120.0, 80.0]
        assert thr["change"]["runs"] == [200.0, 180.0, 60.0]
        assert (thr["base"]["q1"], thr["base"]["median"], thr["base"]["q3"]) == (90.0, 100.0, 110.0)
        assert thr["change"]["median"] == 180.0
        assert thr["median_ratio"] == pytest.approx(1.8)
        assert thr["pair_ratios"] == pytest.approx([2.0, 1.5, 0.75])
        assert thr["wins"] == {"change": 2, "base": 1, "tie": 0}
        lat = got["case_p50_ref"]
        # lower is better; the equal pair is a tie and counts for neither side
        assert lat["wins"] == {"change": 1, "base": 1, "tie": 1}
        assert lat["pair_ratios"] == pytest.approx([0.5, 1.0, 9 / 8])

    def test_incomplete_pairs_and_unknown_metrics_are_skipped(self):
        runs = records([({"setup_s": 2.0, "extra": 1.0}, {"setup_s": 1.0, "extra": 3.0})])
        runs.append({"pair": 1, "side": "base", "metrics": {"setup_s": 9.0}})
        got = bench_pairs.condense(runs, {"setup_s": "lower", "peak_rss_mb": "lower"})
        assert set(got) == {"setup_s"}
        assert got["setup_s"]["base"]["runs"] == [2.0]
        assert got["setup_s"]["wins"] == {"change": 1, "base": 0, "tie": 0}
        assert got["setup_s"]["base"]["q1"] == got["setup_s"]["base"]["q3"] == 2.0


class TestGitSha:
    def test_modified_checkout_is_marked_dirty(self, tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                 "-c", "commit.gpgsign=false", *args],
                capture_output=True, text=True, check=True).stdout.strip()

        git("init", "-q")
        (tmp_path / "f.txt").write_text("one\n")
        git("add", "f.txt")
        git("commit", "-q", "-m", "one")
        head = git("rev-parse", "HEAD")
        (tmp_path / "new.txt").write_text("untracked\n")
        assert bench_pairs.git_sha(tmp_path) == head
        (tmp_path / "f.txt").write_text("two\n")
        assert bench_pairs.git_sha(tmp_path) == head + "-dirty"


# A stand-in for perfbench/run.py: imports a module from the checkout's src
# and reports a set-up time of 1.0 when bytecode writing is off.
FAKE_RUN = """
import json, sys
sys.path.insert(0, "src")
import lib
print(json.dumps({"setup_s": 1.0 if sys.dont_write_bytecode else 0.0}))
"""


def fake_checkout(root):
    (root / "perfbench").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "src" / "lib.py").write_text("VALUE = 1\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "setup_s", "better": "lower"}]}))
    return root


class TestBytecodeCaches:
    def test_runs_write_no_bytecode(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        base, change = fake_checkout(tmp_path / "base"), fake_checkout(tmp_path / "change")
        out = tmp_path / "out.json"
        argv = [str(base), str(change), "--workload", "cli", "--pairs", "2", "--seed", "1",
                "--setup-only", "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        runs = json.loads(out.read_text())["cli/setup"]["runs"]
        assert [r["metrics"]["setup_s"] for r in runs] == [1.0] * 4
        assert bench_pairs.bytecode_caches(base) == bench_pairs.bytecode_caches(change) == []

    @pytest.mark.parametrize("where", ["src", "perfbench"])
    def test_a_cache_in_either_checkout_is_refused(self, tmp_path, capsys, monkeypatch, where):
        base, change = fake_checkout(tmp_path / "base"), fake_checkout(tmp_path / "change")
        cache = change / where / "__pycache__"
        cache.mkdir()
        (cache / "lib.cpython.pyc").write_bytes(b"")
        monkeypatch.setattr(bench_pairs, "run_once", None)   # no run may start
        out = tmp_path / "out.json"
        for argv in ([base, change], [change, base]):
            code = bench_pairs.main([*map(str, argv), "--workload", "cli", "--seed", "1",
                                     "--out", str(out)])
            assert code == 2
            assert str(cache) in capsys.readouterr().err
        assert not out.exists()
        assert (cache / "lib.cpython.pyc").exists()
