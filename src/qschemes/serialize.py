"""Deterministic JSON forms for the domain values.

Scalars are strings ("a/b" or "a/b+c/di"), truncated scalars are coefficient
lists low-to-high, matrices are row-major string grids in the canonical flat
basis order.  ``dumps`` fixes key order and spacing, so serialization is
byte-identical across runs.

The ``*_from_obj`` readers take untrusted JSON: a missing field or a value
of the wrong type raises ``MalformedInput``, a matrix of the wrong size
``ShapeMismatch``.  Each reader imports the modules it builds with, so a
command that reads no parameters, scalars or maps loads none of them.
"""

from __future__ import annotations

import json

from .errors import MalformedInput, ShapeMismatch
from .quiver import QuiverMult


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(x, kind, what):
    """x itself when it is exactly of type kind (so no bool for int)."""
    if type(x) is not kind:
        raise MalformedInput(f"{what} must be {_KINDS[kind]}, got {type(x).__name__}")
    return x


def _field(obj, key, what):
    """obj[key], where obj is the JSON object read as ``what``."""
    if key not in obj:
        raise MalformedInput(f"{what} has no field {key!r}")
    return obj[key]


# -- scalars -----------------------------------------------------------------

def trunc_to_obj(t: TruncScalar) -> list:
    return [str(c) for c in t.coeffs]


def trunc_from_obj(obj, d=None) -> TruncScalar:
    from .scalars import GaussQ, TruncScalar
    coeffs = [GaussQ.parse(_typed(c, str, "coefficient"))
              for c in _typed(obj, list, "truncated scalar")]
    if d is None:
        d = len(coeffs)
    return TruncScalar(_typed(d, int, "order"), coeffs)


# -- maps ---------------------------------------------------------------------

def rmap_to_obj(f: RMap) -> dict:
    return {
        "src": {"rank": f.src.rank, "order": f.src.order},
        "dst": {"rank": f.dst.rank, "order": f.dst.order},
        "base": f.base,
        "flat": [[str(x) for x in row] for row in f.flat.rows],
    }


def _shape(obj, what) -> ModShape:
    from .rmatrix import ModShape
    obj = _typed(obj, dict, what)
    return ModShape(_typed(_field(obj, "rank", what), int, f"{what} rank"),
                    _typed(_field(obj, "order", what), int, f"{what} order"))


def rmap_from_obj(obj) -> RMap:
    from .linalg import Matrix
    from .rmatrix import RMap
    from .scalars import GaussQ
    obj = _typed(obj, dict, "map")
    src = _shape(_field(obj, "src", "map"), "src")
    dst = _shape(_field(obj, "dst", "map"), "dst")
    rows = [[GaussQ.parse(_typed(x, str, "matrix entry"))
             for x in _typed(row, list, "matrix row")]
            for row in _typed(_field(obj, "flat", "map"), list, "flat")]
    if len(rows) != dst.dim or any(len(row) != src.dim for row in rows):
        raise ShapeMismatch(f"flat must be {dst.dim}x{src.dim}")
    base = _typed(_field(obj, "base", "map"), int, "base")
    return RMap.from_flat(src, dst, base, Matrix(rows, ncols=src.dim))


# -- parameters ------------------------------------------------------------------

def params_to_obj(q: QuiverMult, lam) -> dict:
    from .weyl import check_params
    lam = check_params(q, lam)
    return {q.name(i): trunc_to_obj(x) for i, x in enumerate(lam)}


def params_from_obj(q: QuiverMult, obj) -> tuple:
    from .weyl import check_params
    obj = _typed(obj, dict, "parameters")
    return check_params(q, [trunc_from_obj(_field(obj, v.name, "parameters"), v.mult)
                            for v in q.vertices])


# -- representations ----------------------------------------------------------------

def rep_to_obj(rep: Representation) -> dict:
    return {
        "v": {rep.quiver.name(i): x for i, x in enumerate(rep.v)},
        "maps": {name: rmap_to_obj(f) for name, f in rep.maps.items()},
    }


def rep_from_obj(q: QuiverMult, obj) -> Representation:
    from .repn import Representation
    obj = _typed(obj, dict, "representation")
    dims = _typed(_field(obj, "v", "representation"), dict, "v")
    v = tuple(_typed(_field(dims, q.name(i), "v"), int, "dimension") for i in range(q.n))
    maps = {name: rmap_from_obj(o)
            for name, o in _typed(_field(obj, "maps", "representation"), dict, "maps").items()}
    return Representation(q, v, maps)


# -- orbit data -----------------------------------------------------------------------

def orbit_spec_to_obj(spec: OrbitSpec) -> dict:
    return {
        "d": spec.d,
        "blocks": [
            {"dim": w, "theta": trunc_to_obj(t)} for w, t in spec.blocks
        ],
    }


def orbit_spec_from_obj(obj) -> OrbitSpec:
    from .orbit import OrbitSpec
    obj = _typed(obj, dict, "orbit spec")
    d = _typed(_field(obj, "d", "orbit spec"), int, "d")
    blocks = tuple(
        (_typed(_field(_typed(b, dict, "block"), "dim", "block"), int, "block dim"),
         trunc_from_obj(_field(b, "theta", "block"), d))
        for b in _typed(_field(obj, "blocks", "orbit spec"), list, "blocks")
    )
    return OrbitSpec(d, blocks)


def leg_point_to_obj(p: Representation) -> dict:
    """A chain point (a representation of ``OrbitSpec.quiver``): the down
    maps (on the arrows b_i) and up maps (on b_i~) past the junction, and the
    junction maps ``a`` and ``b`` as base-field blocks read off their flat
    views: ``a`` is down[0] on V_0 (x) 1, ``b`` the eps^(d-1) component of
    up[0].  Each determines its R_d-linear map."""
    from .rmatrix import ModShape, RMap
    q = p.quiver
    l, d = len(q.arrows), q.mults[0]
    down = [p.maps[h.name] for h in q.double[:l]]
    up = [p.maps[h.name] for h in q.double[l:]]
    a = RMap(ModShape(down[0].src.rank, 1), down[0].dst, 1,
             [down[0].flat.take(cols=slice(0, None, d))])
    b = RMap(up[0].src, ModShape(up[0].dst.rank, 1), 1, [up[0].flat.take(slice(d - 1, None, d))])
    return {
        "d": d,
        "dims": list(p.v),
        "down": [rmap_to_obj(f) for f in down[1:]],
        "up": [rmap_to_obj(f) for f in up[1:]],
        "a": rmap_to_obj(a),
        "b": rmap_to_obj(b),
    }
