import json

from qschemes import serialize as ser
from qschemes.orbit import OrbitSpec, canonical_leg_point
from qschemes.quiver import parse_quiver, serialize_quiver
from qschemes.repn import random_params, random_rep
from qschemes.rmatrix import ModShape
from qschemes.scalars import GaussQ, TruncScalar

from helpers import example_chain, example_double, identity_end


class TestRoundTrips:
    def test_rmap(self):
        rep = random_rep(example_double(2), (1, 2, 1), 3)
        for f in rep.maps.values():
            obj = ser.rmap_to_obj(f)
            back = ser.rmap_from_obj(json.loads(json.dumps(obj)))
            assert back == f and back.base == f.base

    def test_representation(self):
        q = example_chain(3)
        rep = random_rep(q, (2, 1, 1), 9)
        back = ser.rep_from_obj(q, json.loads(ser.dumps(ser.rep_to_obj(rep))))
        assert back == rep

    def test_params(self):
        q = example_double(3)
        lam = random_params(q, 4)
        back = ser.params_from_obj(q, json.loads(ser.dumps(ser.params_to_obj(q, lam))))
        assert back == lam

    def test_orbit_spec(self):
        spec = OrbitSpec(2, ((1, TruncScalar(2, [0, 1])), (2, TruncScalar(2, [1]))))
        back = ser.orbit_spec_from_obj(json.loads(ser.dumps(ser.orbit_spec_to_obj(spec))))
        assert back == spec

    def test_leg_point_shape(self):
        spec = OrbitSpec(2, ((1, TruncScalar(2, [0, 1])), (2, TruncScalar(2, [1]))))
        obj = ser.leg_point_to_obj(canonical_leg_point(spec))
        assert set(obj) == {"d", "dims", "down", "up", "a", "b"}

    def test_quiver_dsl(self):
        q = example_chain(2)
        assert parse_quiver(serialize_quiver(q)) == q

    def test_gaussq_strings(self):
        vals = [GaussQ(3), GaussQ(-1, 2), GaussQ(0, -7)]
        for v in vals:
            assert GaussQ.parse(str(v)) == v


class TestDeterminism:
    def test_dumps_stable(self):
        q = example_chain(2)
        rep = random_rep(q, (1, 1, 1), 5)
        a = ser.dumps(ser.rep_to_obj(rep))
        b = ser.dumps(ser.rep_to_obj(random_rep(q, (1, 1, 1), 5)))
        assert a == b

    def test_identity_map_form(self):
        obj = ser.rmap_to_obj(identity_end(ModShape(1, 2)))
        assert obj["flat"] == [["1", "0"], ["0", "1"]]
        assert obj["base"] == 2
