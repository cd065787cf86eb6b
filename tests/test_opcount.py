"""tools/opcount.py: two runs of one checkout count the same instructions."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "opcount.py"
spec = importlib.util.spec_from_file_location("opcount", TOOL)
opcount = importlib.util.module_from_spec(spec)
spec.loader.exec_module(opcount)


def test_two_runs_count_the_same(capsys):
    # the same checkout as BASE and CHANGE: two child processes, one pass each
    assert opcount.main([str(REPO), str(REPO), "--suite", "orbit", "--trials", "1",
                         "--top", "3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    base, change = out["runs"]
    assert out["job"] == {"suite": "orbit", "seed": 1, "trials": 1}
    assert base["count"] == change["count"] > 0 and out["ratio"] == 1.0
    assert base["top"] == change["top"] and len(base["top"]) == 3
    assert sum(n for _, n in base["top"]) <= base["count"]


def test_needs_a_checkout_and_a_pass():
    with pytest.raises(SystemExit):
        opcount.parse_args(["--suite", "orbit"])
    with pytest.raises(SystemExit):
        opcount.parse_args([str(REPO)])
