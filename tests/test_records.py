"""What outputs rely on in the record types: their reprs, which error texts
print, their hashes, which fix set and dict order, and their validation."""

import pytest

from qschemes.orbit import OrbitSpec
from qschemes.quiver import QuiverMult
from qschemes.rmatrix import ModShape
from qschemes.scalars import TruncScalar


def test_reprs():
    assert repr(ModShape(2, 3)) == "ModShape(rank=2, order=3)"
    spec = OrbitSpec(1, ((1, TruncScalar(1, [0])), (2, TruncScalar(1, [1]))))
    assert repr(spec) == (
        "OrbitSpec(d=1, blocks=((1, TruncScalar(1, ['0'])), (2, TruncScalar(1, ['1']))))")
    q = QuiverMult.build([("a", 2), ("b", 4)], [("x", "a", "b")])
    assert [repr(h) for h in q.double] == [
        "DoubleArrow(name='x', source=0, target=1, sign=1, base=2, f_out=2, f_in=1)",
        "DoubleArrow(name='x~', source=1, target=0, sign=-1, base=2, f_out=1, f_in=2)",
    ]


def test_hash_is_the_tuple_hash():
    assert hash(ModShape(2, 3)) == hash((2, 3))


@pytest.mark.parametrize("rank, order", [(-1, 1), (1, 0)])
def test_mod_shape_rejects(rank, order):
    with pytest.raises(ValueError):
        ModShape(rank, order)


def test_orbit_spec_rejects_a_non_unit_theta_difference():
    with pytest.raises(ValueError, match="theta_0 - theta_1 is not a unit"):
        OrbitSpec(2, ((1, TruncScalar(2, [1, 0])), (1, TruncScalar(2, [1, 5]))))


def test_fields_are_read_only():
    shape = ModShape(2, 3)
    with pytest.raises(AttributeError):
        shape.rank = 4
