"""Input-boundary fuzz: one-node mutations of the golden JSON inputs.

Each example takes a JSON input of a golden ``qs`` case (a representation, a
parameter file, an orbit spec or an endomorphism from ``tests/golden/``),
replaces, deletes or duplicates one node of it, and runs the case's command
in-process on the result.  The command must exit 0, 1 or 2 and raise
nothing: malformed input is a typed ``error[<code>]``, never a traceback.

Replacement values come from a small fixed pool in which no integer exceeds
8, so no command allocates by a drawn size.  The quiver DSL is not mutated:
multiplicities have no typed bound yet, and ``weyl-verify`` allocates
(sum of multiplicities)^2 entries.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from qschemes.cli import main

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
GOLDEN = REPO / "tests" / "golden"

# (command with the mutated file as "{}", the golden file mutated); every
# other file is read as recorded, from ``corpus/`` or ``tests/golden/``
CASES = [
    (("moment", "a3.quiver", "--rep", "{}"), "out_random_rep_a3.json"),
    (("moment", "double_d3.quiver", "--rep", "{}"), "out_random_rep_double_d3.json"),
    (("moment", "star_n3_d3.quiver", "--rep", "{}"), "out_random_rep_star_n3_d3.json"),
    (("functor", "chain_d2.quiver", "--vertex", "i", "--lambda", "lam_chain_d2.json",
      "--rep", "{}"), "out_random_level_chain_d2.json"),
    (("functor", "nested.quiver", "--vertex", "q", "--lambda", "{}",
      "--rep", "out_random_level_nested.json"), "lam_nested.json"),
    (("mesh", "chain_d2.quiver", "--rep", "out_random_level_chain_d2.json",
      "--lambda", "{}"), "lam_chain_d2.json"),
    (("random-level", "chain_d2.quiver", "--vertex", "i", "--lambda", "{}",
      "--v", "1,1,1", "--seed", "3"), "lam_chain_d2.json"),
    (("regularize", "double_d3.quiver", "--leg", "k,i,j", "--lambda", "{}",
      "--v", "1,1,2"), "lam_double_d3.json"),
    (("orbit-check", "{}", "--a", "a_member.json"), "spec.json"),
    (("leg-factor", "spec.json", "--a", "{}"), "a_member.json"),
]

POOL = [None, True, False, 0, 1, -1, 2, 8, -8, 0.5, "", "0", "1", "-1", "1/2",
        "1/0", "2+i", "x", [], {}, ["1"], {"rank": 1, "order": 1}]


def _nodes(obj, path=()):
    """Paths to every node of a JSON value, the root included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutate(obj, path, op, value):
    """obj with the node at path replaced by value, deleted or duplicated."""
    if not path:
        return value if op == "replace" else obj
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[f"{key}2"] = copy.deepcopy(parent[key])
    return obj


def _arg(word, mutated):
    if word == "{}":
        return mutated
    if word.endswith(".quiver"):
        return str(CORPUS / word)
    return str(GOLDEN / word) if word.endswith(".json") else word


@seed(20)
@settings(max_examples=120, deadline=None, database=None)
@given(st.data())
def test_one_node_mutation_exits_typed(tmp_path_factory, data):
    argv, name = data.draw(st.sampled_from(CASES))
    obj = json.loads((GOLDEN / name).read_text())
    path = data.draw(st.sampled_from(list(_nodes(obj))))
    op = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    mutated = _mutate(obj, path, op, data.draw(st.sampled_from(POOL)))
    target = tmp_path_factory.mktemp("fuzz") / name
    target.write_text(json.dumps(mutated))
    args = [_arg(w, str(target)) for w in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json"] + args)
    assert code in (0, 1, 2), (args, mutated)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error["), (args, mutated)
