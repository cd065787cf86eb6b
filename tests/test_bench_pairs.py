"""tools/bench_pairs.py: the condensing step on synthetic run records, and
the checkout sha it records."""

import importlib.util
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
