"""The bundle and certificate JSON readers under mutation: every verb ends
in an exit code of 0-3, with stderr empty or one `error:` line, and never
a Python traceback.

Each example takes a valid input and makes one change: a key or list
entry dropped, a value replaced by one of another JSON type, a list entry
duplicated, or a string replaced by another element string (a number, a
ratio, a component id or junk). Every generated number is small, so no
mutation asks for unbounded work.
"""
import contextlib
import copy
import io
import json
import traceback
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treebundles.cli import main  # noqa: E402
from treebundles.serialize import (bundle_to_json,  # noqa: E402
                                   certificate_to_json, dumps)
from treebundles.specialize import certify  # noqa: E402
from treebundles.splitting import SplittingType  # noqa: E402

from conftest import build_chain, build_ex  # noqa: E402


def _chain():
    # rank 2 on three components, degree 4, with a non-diagonal gluing
    return build_chain(("v1", "v2", "v3"),
                       {"v1": (1, 0), "v2": (0, 1), "v3": (1, 1)},
                       {0: [[F(1), F(2)], [F(0), F(1)]],
                        1: [[F(0), F(1)], [F(1), F(0)]]})


BUNDLES = [bundle_to_json(build_ex()), bundle_to_json(_chain())]
CERTIFICATES = [certificate_to_json(certify(build_ex(), SplittingType((3, 1)))),
                certificate_to_json(certify(build_ex(), SplittingType((4, 0)))),
                certificate_to_json(certify(_chain(), SplittingType((2, 2))))]

numbers = st.integers(-8, 8)
json_values = st.one_of(
    st.none(), st.booleans(), numbers,
    st.floats(-8, 8, allow_nan=False, allow_infinity=False),
    st.text(max_size=6), st.lists(numbers, max_size=3),
    st.dictionaries(st.text(max_size=3), numbers, max_size=2))
element_strings = st.one_of(
    numbers.map(str),
    st.builds("{}/{}".format, numbers, st.integers(0, 8)),
    st.sampled_from(["", " ", "x", "1e3", "1.5", "v1", "v2", "v3", "v9"]))


def _paths(obj, path=()):
    """Every position in a JSON tree, the root first."""
    yield path, obj
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _paths(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, x in enumerate(obj):
            yield from _paths(x, path + (i,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated(draw, bases):
    """One of `bases`, copied and changed in one place."""
    obj = copy.deepcopy(draw(st.sampled_from(bases)))
    places = list(_paths(obj))
    kind = draw(st.sampled_from(["drop", "retype", "duplicate", "element"]))
    if kind == "drop":
        path, _ = draw(st.sampled_from(places[1:]))
        del _at(obj, path[:-1])[path[-1]]
    elif kind == "retype":
        path, old = draw(st.sampled_from(places))
        new = draw(json_values.filter(lambda x: type(x) is not type(old)))
        if not path:
            return new
        _at(obj, path[:-1])[path[-1]] = new
    elif kind == "duplicate":
        lists = [(p, x) for p, x in places if isinstance(x, list) and x]
        path, seq = draw(st.sampled_from(lists))
        entry = draw(st.sampled_from(seq))
        seq.insert(draw(st.integers(0, len(seq))), copy.deepcopy(entry))
    else:
        strings = [p for p, x in places if isinstance(x, str) and p]
        path = draw(st.sampled_from(strings))
        _at(obj, path[:-1])[path[-1]] = draw(element_strings)
    return obj


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def _check(path, obj, argv):
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["-i", str(path)])
        except Exception:  # noqa: BLE001 - the contract forbids any escape
            pytest.fail("%s escaped on %s:\n%s"
                        % (argv, dumps(obj), traceback.format_exc()))
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, obj, code)
    assert "Traceback" not in err
    assert err == "" or (err.startswith("error:")
                         and len(err.splitlines()) == 1), (argv, obj, err)


FIELDS = st.sampled_from(["q", "p:7", "p:1000003"])


@pytest.mark.parametrize("verb", [
    ["h0"], ["dmax"], ["decide", "--target", "3,1"],
    ["certify", "--target", "2,2"]], ids=lambda v: v[0])
@settings(max_examples=200, deadline=None)
@given(obj=mutated(BUNDLES), field=FIELDS)
def test_a_mutated_bundle_keeps_the_cli_contract(input_path, verb, obj, field):
    _check(input_path, obj, verb + ["--field", field])


@settings(max_examples=200, deadline=None)
@given(obj=mutated(CERTIFICATES), field=FIELDS)
def test_a_mutated_certificate_keeps_the_cli_contract(input_path, obj, field):
    _check(input_path, obj, ["verify", "--field", field])
