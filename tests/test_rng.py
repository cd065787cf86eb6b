import pytest

from qschemes.rng import SplitMix64


def test_randint_rejects_empty_range():
    with pytest.raises(ValueError, match="^empty range$"):
        SplitMix64(1).randint(5, 4)
