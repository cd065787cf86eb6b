import sys
import warnings
from pathlib import Path

import pytest

# hypothesis first imports this module in its report hook when a property
# fails; libcst, which it loads, raises a DeprecationWarning on import that
# filterwarnings = ["error"] turns into an INTERNALERROR hiding the
# falsifying example.  Imported here once, with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

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
