import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

sys.path.insert(0, str(REPO / "src"))


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


@pytest.fixture(scope="session")
def corpus():
    """The shipped corpus, parsed from ``corpus/*.quiver`` and keyed by file stem."""
    from qschemes.quiver import parse_quiver

    return {p.stem: parse_quiver(p.read_text(encoding="utf-8"))
            for p in sorted(CORPUS.glob("*.quiver"))}
