"""Malformed ensemble and chain files: a valid file is mutated (a key or an
element dropped, duplicated or retyped, a row made ragged, a value nested
deeper, a huge, non-finite or boolean value put in) and ``cli.main`` must
answer with exit 0, 2 or 3, no traceback and at most one line on stderr."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, seed, settings, strategies as st

from kdcheck.cli import main

ENSEMBLE = {
    "prior": {"alphabet": {"size": 2, "power": 1}, "weights": ["1/4", 0.75]},
    "states": [{"dim": 2, "diag": ["3/4", "1/4"]},
               {"matrix": [[0.5, [0, 0]], [[0, 0.0], "1/2"]]}],
}
CHAIN = {"rows": [["1/2", "1/2"], [1, 0]]}
COMMANDS = {
    "ensemble": (ENSEMBLE, ["quantum-lhl", "--q", "2", "--m", "1", "--k", "1", "--ensemble"]),
    "chain": (CHAIN, ["markov", "--matrix"]),
}

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.just(1e308),
    st.sampled_from(["1/2", "1/0", "0.5", "1e-3", "x", "", "2", "-1/3", "1+0j"]),
    st.just([]), st.just({}))


class Duplicated(dict):
    """A JSON object that may be written with one key twice: ``first``, when
    set, is written before the object's own members, so a reader keeps the
    later value."""

    first = None


def own(obj):
    """``obj`` with every object a :class:`Duplicated`."""
    if isinstance(obj, dict):
        return Duplicated({k: own(v) for k, v in obj.items()})
    return [own(v) for v in obj] if isinstance(obj, list) else obj


def dump(obj) -> str:
    """JSON text, with NaN and Infinity as Python's json writes them."""
    if isinstance(obj, dict):
        items = ([obj.first] if getattr(obj, "first", None) else []) + list(obj.items())
        return "{%s}" % ", ".join("%s: %s" % (json.dumps(k), dump(v)) for k, v in items)
    if isinstance(obj, list):
        return "[%s]" % ", ".join(dump(v) for v in obj)
    return json.dumps(obj)


def slots(obj):
    """Every ``(container, key)`` below ``obj``, the container first."""
    keys = obj.keys() if isinstance(obj, dict) else range(len(obj))
    for key in list(keys):
        yield obj, key
        if isinstance(obj[key], (dict, list)):
            yield from slots(obj[key])


def mutate(data, doc):
    """Apply one drawn mutation to a slot of ``doc``, in place."""
    where = list(slots(doc))
    parent, key = where[data.draw(st.integers(0, len(where) - 1))]
    value = parent[key]
    op = data.draw(st.sampled_from(["drop", "duplicate", "retype", "nest", "grow"]))
    if op == "drop":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, own(json.loads(json.dumps(value))))
    elif op == "duplicate" and isinstance(parent, Duplicated):
        parent.first = (key, data.draw(LEAVES))
    elif op in ("duplicate", "retype"):
        parent[key] = data.draw(LEAVES)
    elif op == "nest":
        parent[key] = data.draw(st.sampled_from([[value], [[value]], own({"value": value})]))
    elif isinstance(value, list):  # grow: a longer list, a ragged row if it is one
        value.append(data.draw(LEAVES))
    else:
        parent[key] = data.draw(LEAVES)


@pytest.mark.parametrize("schema", sorted(COMMANDS))
@seed(37)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_cleanly(tmp_path_factory, schema, data):
    base, argv = COMMANDS[schema]
    doc = own(json.loads(json.dumps(base)))
    for _ in range(data.draw(st.integers(1, 3))):
        if doc:
            mutate(data, doc)
    path = tmp_path_factory.mktemp(schema) / "input.json"
    path.write_text(dump(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + [str(path)])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""


@pytest.mark.parametrize("schema", sorted(COMMANDS))
def test_unmutated_input_is_read(capsys, tmp_path, schema):
    base, argv = COMMANDS[schema]
    path = tmp_path / "input.json"
    path.write_text(dump(base))
    assert main(argv + [str(path)]) == 0 and capsys.readouterr().err == ""


def test_mutation_writer_keeps_nan_and_the_later_duplicate():
    doc = Duplicated({"a": [1, math.nan]})
    doc.first = ("a", True)
    assert dump(doc) == '{"a": true, "a": [1, NaN]}'
    assert json.loads(dump(doc))["a"][0] == 1
