"""JSON round-trips and schema rejection."""
import json
import random
from fractions import Fraction as F

import pytest

from treebundles import curve as curve_module
from treebundles.bundle import BundleError, make_bundle
from treebundles.curve import (CurveError, Edge, Enlargement, TreeCurve,
                               insert_bridge, validate_tree)
from treebundles.fields import PrimeField, RationalField
from treebundles.sampling import (balanced_splitting, random_bundle,
                                  random_invertible, random_tree, spread)
from treebundles.serialize import (SerializeError, bundle_from_json,
                                   bundle_to_json, certificate_from_json,
                                   certificate_to_json, curve_from_json,
                                   curve_to_json, dumps,
                                   enlargement_from_json, enlargement_to_json,
                                   multidegree_from_json, multidegree_to_json,
                                   splitting_from_json, splitting_to_json,
                                   subbundle_from_json, subbundle_to_json)
from treebundles.serialize import _bundle_in_steps
from treebundles.specialize import (EnlargementStep, SplitOffStep, certify,
                                    find_line_subbundle, verify_certificate)
from treebundles.splitting import SplittingType

from reference_linalg import curve_in_steps


def test_curve_roundtrip(ex_bundle):
    curve = ex_bundle.curve
    obj = curve_to_json(curve)
    assert obj == {"components": ["v1", "v2"],
                   "edges": [{"a": "v1", "pa": "0", "b": "v2", "pb": "0"}]}
    assert curve_from_json(obj) == curve


def test_curve_roundtrip_prime_field():
    fld = PrimeField(13)
    curve = TreeCurve(("a", "b"), (Edge("a", fld.of(5), "b", fld.of(0)),), fld)
    back = curve_from_json(curve_to_json(curve), fld)
    assert back == curve
    assert back.field == fld


def test_curve_rejects_malformed():
    with pytest.raises(SerializeError, match="missing"):
        curve_from_json({"components": ["a"]})
    with pytest.raises(SerializeError, match="wrong shape"):
        curve_from_json({"components": "a", "edges": []})
    with pytest.raises(SerializeError, match="edge 0"):
        curve_from_json({"components": ["a", "b"], "edges": [{"a": "a"}]})


@pytest.mark.parametrize("fld", [RationalField(), PrimeField(7)],
                         ids=lambda f: f.name)
def test_a_curve_is_read_by_one_read_row_call(fld, monkeypatch):
    # every node coordinate in one row: one call for an n-component curve,
    # where each coordinate was read by its own call, 2(n-1) of them; over
    # q one curve has non-integral coordinates, some repeated
    calls = []
    read = type(fld).read_row

    def counted(self, row):
        calls.append(len(row))
        return read(self, row)

    monkeypatch.setattr(type(fld), "read_row", counted)
    rng = random.Random(7)
    curves = [random_tree(rng, n, fld) for n in (2, 3, 5, 8)]
    if not fld.char:
        curves.append(TreeCurve(("a", "b", "c"),
                                (Edge("a", F(1, 2), "b", F(-3, 4)),
                                 Edge("b", F(1, 2), "c", F(1, 2))), fld))
    for curve in curves:
        calls.clear()
        assert curve_from_json(curve_to_json(curve), fld) == curve
        assert calls == [2 * len(curve.edges)]


@pytest.mark.parametrize("fld", [RationalField(), PrimeField(7)],
                         ids=lambda f: f.name)
def test_a_curve_reports_its_first_bad_edge_in_edge_order(fld):
    # the coordinates are read together, but the first fault in edge order
    # is the error, as when the edges were read one by one
    def curve(edge0, edge1):
        return {"components": ["a", "b", "c"],
                "edges": [dict({"a": "a", "pa": "0", "b": "b", "pb": "0"},
                               **edge0),
                          dict({"a": "b", "pa": "1", "b": "c", "pb": "0"},
                               **edge1)]}

    bad = "not a rational number: '1e3'" if not fld.char else \
        "not an element of GF(7): '1e3'"
    obj = curve({"pa": "1e3"}, {})
    del obj["edges"][1]["a"]
    with pytest.raises(ValueError) as err:
        curve_from_json(obj, fld)
    assert (type(err.value), str(err.value)) == (ValueError, bad)
    obj = curve({}, {"pa": "1e3"})
    del obj["edges"][0]["b"]
    with pytest.raises(SerializeError, match="^curve edge 0: missing 'b'$"):
        curve_from_json(obj, fld)
    for edge1 in ({"pb": 0}, {"b": 3}, {"pa": "1/0"}):
        with pytest.raises(SerializeError,
                           match="^curve edge 0: 'pb' has the wrong shape$"):
            curve_from_json(curve({"pb": 5}, edge1), fld)
    # every coordinate reads, and the tree check comes after
    with pytest.raises(CurveError, match="two nodes of 'b' share"):
        curve_from_json(curve({}, {"pa": "0"}), fld)


def test_multidegree_roundtrip():
    md = {"v1": -2, "v2": 3}
    assert multidegree_from_json(multidegree_to_json(md)) == md
    with pytest.raises(SerializeError, match="integer"):
        multidegree_from_json({"v": "x"})
    with pytest.raises(SerializeError, match="integer"):
        multidegree_from_json({"v": True})
    with pytest.raises(SerializeError, match="object"):
        multidegree_from_json([1, 2])


def test_splitting_roundtrip():
    st = SplittingType((3, 1, -2))
    assert splitting_to_json(st) == [3, 1, -2]
    assert splitting_from_json([1, 3, -2]) == st
    with pytest.raises(SerializeError):
        splitting_from_json([])
    with pytest.raises(SerializeError):
        splitting_from_json([1, "2"])


def test_bundle_roundtrip_golden(ex_bundle):
    obj = bundle_to_json(ex_bundle)
    assert dumps(obj) == (
        '{"curve":{"components":["v1","v2"],"edges":[{"a":"v1","b":"v2",'
        '"pa":"0","pb":"0"}]},"gluings":[{"edge":0,"matrix":[["1","0"],'
        '["0","1"]]}],"rank":2,"splittings":{"v1":[2,0],"v2":[0,2]}}')
    assert bundle_from_json(obj) == ex_bundle


def test_bundle_roundtrip_random():
    rng = random.Random(61)
    for _ in range(20):
        curve = random_tree(rng, rng.randint(1, 4))
        bundle = random_bundle(rng, curve, rng.randint(1, 3))
        assert bundle_from_json(bundle_to_json(bundle)) == bundle


def test_bundle_roundtrip_fractional_entries():
    curve = TreeCurve(("a", "b"), (Edge("a", F(1, 2), "b", F(-2, 3)),))
    bundle = make_bundle(curve, {"a": (1, 0), "b": (0, 0)},
                         {0: [[F(1, 3), F(1)], [F(0), F(2)]]})
    back = bundle_from_json(bundle_to_json(bundle))
    assert back == bundle


def test_bundle_rejects_malformed(ex_bundle):
    obj = bundle_to_json(ex_bundle)
    bad = json.loads(dumps(obj))
    bad["rank"] = 3
    with pytest.raises(SerializeError, match="rank"):
        bundle_from_json(bad)
    bad2 = json.loads(dumps(obj))
    bad2["splittings"]["v1"] = [2, "x"]
    with pytest.raises(SerializeError, match="integer array"):
        bundle_from_json(bad2)
    bad3 = json.loads(dumps(obj))
    del bad3["gluings"]
    with pytest.raises(SerializeError, match="missing"):
        bundle_from_json(bad3)


FIELDS = [RationalField(), PrimeField(7), PrimeField(1000003)]


def _respelled(obj, fld, rng):
    # about half the element strings spelled another way: n/d as kn/kd
    # over Q, a residue plus a multiple of p over GF(p)
    def spell(s):
        k = rng.randint(2, 5)
        if rng.random() < 0.5:
            return s
        if fld.char:
            return str(int(s) + k * fld.char)
        num, _, den = s.partition("/")
        return "%d/%d" % (k * int(num), k * int(den or 1))

    for e in obj["curve"]["edges"]:
        e["pa"], e["pb"] = spell(e["pa"]), spell(e["pb"])
    for g in obj["gluings"]:
        g["matrix"] = [[spell(x) for x in row] for row in g["matrix"]]
    return obj


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.name)
def test_the_one_pass_reader_loads_what_the_step_by_step_path_loads(fld):
    # one-component curves to five components, ranks 1-4, every other
    # gluing with its rows divided by 1-4 (non-integral over Q), entries
    # and coordinates respelled; each curve keeps the one check it ran
    rng = random.Random(66)
    fractional = 0
    for n in range(1, 6):
        for r in range(1, 5):
            curve = random_tree(rng, n, fld)
            gluings = {}
            for i in range(n - 1):
                m = random_invertible(rng, fld, r)
                if (n + r + i) % 2:
                    m = [[x / d for x in row]
                         for row, d in zip(m, map(fld.of, rng.choices(
                             range(1, 5), k=r)))]
                gluings[i] = m
            bundle = make_bundle(curve, {v: tuple(rng.randint(-3, 3)
                                                  for _ in range(r))
                                         for v in curve.components}, gluings)
            obj = _respelled(json.loads(dumps(bundle_to_json(bundle))),
                             fld, rng)
            back = bundle_from_json(obj, fld)
            assert back == _bundle_in_steps(obj, fld, None) == bundle
            assert back.curve.problems == tuple(validate_tree(back.curve)) == ()
            fractional += sum(den > 1 for _, den in back.integer_gluings)
    assert fractional > 0 or fld.char


def _chain_json(r):
    ones = [[str(int(i == j)) for j in range(r)] for i in range(r)]
    swap = [[str(int(i + j == r - 1)) for j in range(r)] for i in range(r)]
    return {"curve": {"components": ["v1", "v2", "v3"],
                      "edges": [{"a": "v1", "pa": "0", "b": "v2", "pb": "0"},
                                {"a": "v2", "pa": "1", "b": "v3", "pb": "0"}]},
            "rank": r,
            "splittings": {"v1": [1] * r, "v2": [0] * r, "v3": [-1] * r},
            "gluings": [{"edge": 0, "matrix": ones},
                        {"edge": 1, "matrix": swap}]}


def _ragged(obj, r, p):
    # the identity's entries in rows of r-1 and r+1 entries (one row of 2
    # at rank 1): read as one run of r*r entries it would be the identity
    flat = [x for row in obj["gluings"][0]["matrix"] for x in row]
    rows = [flat[:r - 1], flat[r - 1:2 * r]] + [flat[k:k + r] for k in
                                                 range(2 * r, r * r, r)]
    obj["gluings"][0]["matrix"] = rows if r > 1 else [flat + ["0"]]


def _singular(obj, r, p):
    # the identity with its last 1 replaced by p (0 over Q): singular over
    # the field read, though over GF(p) invertible over Q
    obj["gluings"][0]["matrix"][-1][-1] = str(p)


def _edit(path, value):
    def edit(obj, r, p):
        *head, last = path
        for key in head:
            obj = obj[key]
        if value is None:
            del obj[last]
            return
        new = value(r, p) if callable(value) else value
        if isinstance(obj, list) and last == len(obj):
            obj.append(new)
        else:
            obj[last] = new
    return edit


def _two(*edits):
    def edit(obj, r, p):
        for e in edits:
            e(obj, r, p)
    return edit


def _row_spelled_as_a_string(obj, r, p):
    obj["gluings"][0]["matrix"][0] = "1" + "0" * (r - 1)


def _extra_row(obj, r, p):
    obj["gluings"][0]["matrix"].append(["0"] * r)


SPLITTING = "splitting of 'v2' is not an integer array"
COMPONENTS = "splittings must cover the components exactly"
EDGES = "gluings must cover the edges exactly"
SHARED = "two nodes of 'v2' share coordinate"

# one mutation per check of the reader, with a fragment of the error it
# must raise
READER_MUTATIONS = [
    (_edit(("splittings", "v2", 0), True), SPLITTING),
    (_edit(("splittings", "v2", 0), 10 ** 1000), SPLITTING),
    (_edit(("splittings", "v2", 0), -10 ** 1000), SPLITTING),
    (_edit(("splittings", "v2"), lambda r, p: (0,) * r), SPLITTING),
    (_edit(("rank",), None), "bundle: missing 'rank'"),
    (_edit(("gluings", 1, "matrix"), None),
     "bundle gluing 1: missing 'matrix'"),
    (_edit(("gluings", 1, "matrix"), "1"),
     "bundle gluing 1: 'matrix' has the wrong shape"),
    (_edit(("gluings", 1, "edge"), None), "bundle gluing 1: missing 'edge'"),
    (_edit(("splittings",), lambda r, p: [[0] * r] * 3),
     "bundle: 'splittings' has the wrong shape"),
    (_edit(("gluings",), {}), "bundle: 'gluings' has the wrong shape"),
    (_edit(("curve",), lambda r, p: [["v1", "v2", "v3"]]),
     "bundle: 'curve' has the wrong shape"),
    (_edit(("curve", "edges", 1, "pb"), None), "curve edge 1: missing 'pb'"),
    (_edit(("splittings", "v3"), None), COMPONENTS),
    (_edit(("splittings", "v9"), lambda r, p: [0] * r), COMPONENTS),
    (_edit(("gluings", 1, "edge"), 0),
     "bundle gluing 1: edge 0 is listed twice"),
    (_edit(("gluings", 1), None), EDGES),
    (_edit(("gluings", 1, "edge"), -1), EDGES),
    (_edit(("gluings", 1, "edge"), 2), EDGES),
    (_edit(("gluings", 1, "edge"), True),
     "bundle gluing 1: 'edge' has the wrong shape"),
    (_edit(("gluings", 0, "matrix", 0), None), "gluing 0 is not"),
    (_extra_row, "gluing 0 is not"),
    (_ragged, "gluing 0 is not"),
    (_row_spelled_as_a_string,
     "bundle gluing 0: matrix is not a list of rows"),
    (_singular, "gluing 0 is singular"),
    (_edit(("rank",), lambda r, p: r + 1), "bundle: declared rank"),
    (_edit(("rank",), True), "bundle: 'rank' has the wrong shape"),
    (_edit(("splittings", "v3"), lambda r, p: [0] * (r + 1)),
     "components disagree on the rank"),
    (_edit(("curve", "edges", 1, "b"), "v9"),
     "edge 1 references unknown component"),
    (_edit(("curve", "edges", 1, "b"), "v2"),
     "edge 1 joins component 'v2' to itself"),
    (_edit(("curve", "edges", 2), {"a": "v3", "pa": "1", "b": "v1", "pb": "1"}),
     "cycle: 3 edges on 3 components"),
    (_two(_edit(("curve", "components", 3), "v4"),
          _edit(("splittings", "v4"), lambda r, p: [0] * r)),
     "curve is not connected"),
    # one coordinate spelled two ways on v2's chart
    (_two(_edit(("curve", "edges", 0, "pb"), "1/2"),
          _edit(("curve", "edges", 1, "pa"), "2/4")), SHARED),
    (_two(_edit(("curve", "edges", 0, "pb"), "1"),
          _edit(("curve", "edges", 1, "pa"),
                lambda r, p: str(1 + p) if p else "2/2")), SHARED),
]


def _error(read, obj, fld):
    try:
        read(obj, fld)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("r", (1, 2, 3))
def test_the_one_pass_reader_raises_what_the_step_by_step_path_raises(fld, r):
    assert _error(bundle_from_json, _chain_json(r), fld) is None
    for k, (edit, text) in enumerate(READER_MUTATIONS):
        obj = _chain_json(r)
        edit(obj, r, fld.char)
        one = _error(bundle_from_json, obj, fld)
        steps = _error(lambda o, f: _bundle_in_steps(o, f, None), obj, fld)
        assert one == steps and one is not None and text in one[1], (k, one)


# values a mutation puts in place of a key's or entry's value: every JSON
# type, integers past INT_LIMIT, and strings that are ids, coordinates,
# misspelled coordinates and an integer past int()'s digit limit
POOL = [None, True, 0, 1, -1, 2, 10 ** 1000, 1.5, "x", "1/0", "1_0", "2/4",
        "0", "1", " 7 ", "v1", "v2", "v9", "", [], {}, ["0"], [0],
        ["1", "0"], [["1"]], {"a": "v1"}, "1" * 4400]


def _mutated(rng, obj):
    """obj, a copy of JSON, with one mutation at a uniformly drawn key or
    entry: deleted, replaced from POOL, duplicated or swapped in its list,
    copied to another key, or nudged (a string respelled or turned into
    another, an integer moved)."""
    found, stack = [], [obj]
    while stack:
        node = stack.pop()
        keys = (list(node) if isinstance(node, dict) else
                range(len(node)) if isinstance(node, list) else ())
        for k in keys:
            found.append((node, k))
            stack.append(node[k])
    if not found:
        return obj
    node, k = rng.choice(found)
    value, op = node[k], rng.randrange(6)
    if op == 0:
        del node[k]
    elif op == 1:
        node[k] = json.loads(json.dumps(rng.choice(POOL)))
    elif op == 2 and isinstance(node, list):
        node.insert(k, json.loads(json.dumps(value)))
    elif op == 3 and isinstance(node, list):
        j = rng.randrange(len(node))
        node[k], node[j] = node[j], value
    elif op == 4 and isinstance(node, dict):
        node[rng.choice(["v1", "v9", "a", "edge"])] = json.loads(
            json.dumps(value))
    elif isinstance(value, str):
        node[k] = rng.choice(["2/2", value + "0", "-" + value, value + "/3",
                              "3/" + value, "7"])
    elif isinstance(value, int) and not isinstance(value, bool):
        node[k] = value + rng.choice((-1, 1, 7))
    else:
        node[k] = json.loads(json.dumps(rng.choice(POOL)))
    return obj


def _outcome(read, obj, fld):
    """What a reader makes of obj: the object read, or the error's type
    and text."""
    try:
        return read(obj, fld)
    except ValueError as exc:
        return type(exc), str(exc)


def _mutated_corpus(seed, draws, base):
    """(JSON, field) pairs: `draws` times, a bundle drawn by `sampling`
    (1-6 components, rank 1-4, the fields in turn), its JSON cut down to
    `base` of it, with one to three mutations."""
    rng = random.Random(seed)
    for k in range(draws):
        fld = FIELDS[k % len(FIELDS)]
        bundle = random_bundle(rng, random_tree(rng, rng.randint(1, 6), fld),
                               rng.randint(1, 4))
        obj = base(json.loads(dumps(bundle_to_json(bundle))))
        for _ in range(rng.randint(1, 3)):
            obj = _mutated(rng, obj)
        yield obj, fld


def _tally(outcomes):
    """How many outcomes were objects read, and how many distinct error
    texts the rest raised."""
    texts = {x[1] for x in outcomes if isinstance(x, tuple)}
    return sum(not isinstance(x, tuple) for x in outcomes), len(texts)


def test_the_one_pass_curve_reader_matches_the_reference_on_mutated_curves():
    # 1,200 curves with one to three mutations each: the same curve, or
    # the same first fault by type and text, as the reference that parses
    # each coordinate and checks the tree with validate_tree
    outcomes = []
    for obj, fld in _mutated_corpus(44, 1200, lambda b: b["curve"]):
        got = _outcome(curve_from_json, obj, fld)
        assert got == _outcome(curve_in_steps, obj, fld), obj
        outcomes.append(got)
    read, texts = _tally(outcomes)
    assert read >= 100 and texts >= 50, (read, texts)


def test_the_one_pass_reader_matches_the_step_by_step_path_on_mutated_bundles():
    # 1,200 bundles with one to three mutations each: the same bundle, or
    # the same first fault by type and text, as the step-by-step path
    outcomes = []
    for obj, fld in _mutated_corpus(45, 1200, lambda b: b):
        got = _outcome(bundle_from_json, obj, fld)
        assert got == _outcome(lambda o, f: _bundle_in_steps(o, f, None),
                               obj, fld), obj
        outcomes.append(got)
    read, texts = _tally(outcomes)
    assert read >= 50 and texts >= 100, (read, texts)


def test_subbundle_roundtrip(ex_bundle):
    enl, sub = find_line_subbundle(ex_bundle)
    host = sub.host
    obj = subbundle_to_json(sub)
    back = subbundle_from_json(json.loads(dumps(obj)), host)
    assert back == sub
    back.validate()
    missing = dict(obj)
    missing["degrees"] = {"v1": 2}
    with pytest.raises(SerializeError, match="coverage"):
        subbundle_from_json(missing, host)


def test_enlargement_roundtrip(ex_bundle):
    grown, step = insert_bridge(ex_bundle.curve, 0)
    obj = enlargement_to_json(step)
    assert obj["contracted"] == ["v1+v2"]
    back = enlargement_from_json(json.loads(dumps(obj)), ex_bundle.curve)
    assert back == step
    assert back.validate() == []


def test_certificate_roundtrip_affirmative(ex_bundle):
    cert = certify(ex_bundle, SplittingType((3, 1)))
    obj = certificate_to_json(cert)
    kinds = [s["kind"] for s in obj["steps"]]
    assert kinds == ["dominance", "enlarge", "splitoff", "rank1"]
    back = certificate_from_json(json.loads(dumps(obj)))
    assert back.source == cert.source
    assert back.target == cert.target
    assert back.steps == cert.steps
    ok, report = verify_certificate(back)
    assert ok, report


def test_certificate_roundtrip_refutation(ex_bundle):
    cert = certify(ex_bundle, SplittingType((4, 0)))
    obj = certificate_to_json(cert)
    assert obj["steps"] == [{"kind": "witness",
                             "multidegree": {"v1": -2, "v2": -2},
                             "lhs": 0, "rhs": 1}]
    back = certificate_from_json(json.loads(dumps(obj)))
    assert back.is_refutation and back.steps == cert.steps


def test_certificate_roundtrip_random():
    rng = random.Random(62)
    done = 0
    for _ in range(12):
        curve = random_tree(rng, rng.randint(1, 3))
        bundle = random_bundle(rng, curve, rng.randint(1, 3), lo=-2, hi=2)
        src = spread(rng, balanced_splitting(bundle.rank, bundle.degree()),
                     rng.randint(0, 2))
        cert = certify(bundle, src)
        blob = dumps(certificate_to_json(cert))
        back = certificate_from_json(json.loads(blob))
        assert dumps(certificate_to_json(back)) == blob
        assert verify_certificate(back)[0] == verify_certificate(cert)[0] == True
        done += 1
    assert done == 12


def test_certificate_rejects_malformed(ex_bundle):
    cert = certify(ex_bundle, SplittingType((3, 1)))
    obj = json.loads(dumps(certificate_to_json(cert)))
    obj["steps"][0]["kind"] = "zigzag"
    with pytest.raises(SerializeError, match="unknown kind"):
        certificate_from_json(obj)
    headless = json.loads(dumps(certificate_to_json(cert)))
    del headless["claim"]
    with pytest.raises(SerializeError, match="missing"):
        certificate_from_json(headless)
    # split-off with no enlargement in front has no host to attach to
    reordered = json.loads(dumps(certificate_to_json(cert)))
    reordered["steps"] = [reordered["steps"][2]]
    with pytest.raises(SerializeError, match="before any enlargement"):
        certificate_from_json(reordered)


def test_every_integer_read_is_bounded(ex_bundle):
    # below 10^1000 in absolute value, so every count built from them
    # prints within Python's 4,300 digits
    big = 10 ** 1000
    assert multidegree_from_json({"v": 1 - big}) == {"v": 1 - big}
    assert splitting_from_json([big - 1]) == SplittingType((big - 1,))
    for x in (big, -big):
        with pytest.raises(SerializeError, match="not an integer"):
            multidegree_from_json({"v": x})
        with pytest.raises(SerializeError, match="integer array"):
            splitting_from_json([1, x])
        obj = bundle_to_json(ex_bundle)
        obj["splittings"]["v1"] = [x, 0]
        with pytest.raises(SerializeError, match="integer array"):
            bundle_from_json(obj)
    refutation = certificate_to_json(certify(ex_bundle, SplittingType((4, 0))))
    affirmative = certificate_to_json(certify(ex_bundle, SplittingType((3, 1))))
    (base,) = [s for s in affirmative["steps"] if s["kind"] == "rank1"]

    def witness_md(step):
        step["multidegree"]["v1"] = big

    def witness_lhs(step):
        step["lhs"] = big

    def witness_rhs(step):
        step["rhs"] = -big

    def base_degree(step):
        step["degree"] = big

    for cert, index, edit in ((refutation, 0, witness_md),
                              (refutation, 0, witness_lhs),
                              (refutation, 0, witness_rhs),
                              (affirmative, affirmative["steps"].index(base),
                               base_degree)):
        obj = json.loads(dumps(cert))
        edit(obj["steps"][index])
        with pytest.raises(SerializeError):
            certificate_from_json(obj)
    source = json.loads(dumps(affirmative))
    source["claim"]["source"] = [big, 4 - big]
    with pytest.raises(SerializeError, match="integer array"):
        certificate_from_json(source)


def _count_tree_validations(monkeypatch):
    # the curves given to the one tree check, which validate_tree and the
    # JSON reader both call
    seen = []
    inner = curve_module.tree_problems

    def counted(curve, keys):
        seen.append(curve)
        return inner(curve, keys)

    monkeypatch.setattr(curve_module, "tree_problems", counted)
    return seen


def test_bundle_load_validates_its_tree_once(monkeypatch):
    # the reader checks the tree on the integers it read, by the shared
    # check, once, and keeps the result on the curve: validate_tree, the
    # check on field elements, never runs on a valid load
    rng = random.Random(63)
    seen = _count_tree_validations(monkeypatch)
    on_elements = []
    validate = curve_module.validate_tree
    monkeypatch.setattr(curve_module, "validate_tree",
                        lambda curve: on_elements.append(curve)
                        or validate(curve))
    for _ in range(5):
        bundle = random_bundle(rng, random_tree(rng, rng.randint(1, 4)),
                               rng.randint(1, 3))
        obj = json.loads(dumps(bundle_to_json(bundle)))
        seen.clear()
        on_elements.clear()
        back = bundle_from_json(obj)
        assert back == bundle
        assert [id(c) for c in seen] == [id(back.curve)]
        assert on_elements == []
        assert back.curve.problems == ()


def test_certificate_load_validates_each_enlargement_source_once(monkeypatch):
    # a rank-3 target splits off twice, so its certificate enlarges twice
    ident = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    curve = TreeCurve(("a", "b", "c"),
                      (Edge("a", F(0), "b", F(0)), Edge("b", F(1), "c", F(0))))
    bundle = make_bundle(curve, {"a": (2, 0, 0), "b": (0, 1, 0),
                                 "c": (0, 0, 2)}, {0: ident, 1: ident})
    obj = json.loads(dumps(certificate_to_json(
        certify(bundle, SplittingType((2, 2, 1))))))
    seen = _count_tree_validations(monkeypatch)
    back = certificate_from_json(obj)
    sources = [s.enlargement.source for s in back.steps
               if isinstance(s, EnlargementStep)]
    assert len(sources) == 2
    assert [sum(c is src for c in seen) for src in sources] == [1, 1]
    assert verify_certificate(back) == (True, [])
    # each curve keeps its check: verify checks no curve object again
    assert all(sum(c is x for c in seen) == 1 for x in seen)


def test_certificate_load_checks_a_curve_once_per_enlargement(monkeypatch):
    # a split-off's quotient lives on the enlarged curve its JSON repeats,
    # and an identity enlargement's source is the curve it enlarges: the
    # reader builds each on the curve object it read that JSON into, so a
    # loaded certificate checks each distinct curve once, and nothing else
    rng = random.Random(64)
    certs = []
    for k in range(9):
        fld = PrimeField(1000003) if k % 3 == 2 else None
        bundle = random_bundle(rng, random_tree(rng, 1 + k % 4, fld),
                               2 + k % 3, lo=-2, hi=2)
        certs.append((json.loads(dumps(certificate_to_json(certify(
            bundle, balanced_splitting(bundle.rank, bundle.degree()))))), fld))
    seen = _count_tree_validations(monkeypatch)
    most = 0
    for obj, fld in certs:
        seen.clear()
        back = certificate_from_json(obj, fld)
        enlarged = [s.enlargement.source for s in back.steps
                    if isinstance(s, EnlargementStep)]
        quotients = [s.quotient.curve for s in back.steps
                     if isinstance(s, SplitOffStep)]
        curves = [back.target.curve] + enlarged
        assert len(seen) == len({dumps(curve_to_json(c)) for c in curves})
        assert {id(c) for c in seen} == {id(c) for c in curves}
        assert all(q is c for q, c in zip(quotients, enlarged))
        most = max(most, len(enlarged))
    assert most == 3


def test_certificate_load_builds_each_curve_once(monkeypatch):
    # one TreeCurve per distinct curve JSON in a certificate: the target's,
    # an identity enlargement's source and each quotient's repeat a curve
    # read before; and each enlargement walks its target edges once, for
    # its check, the reader's pullback and verify's pullback together
    rng = random.Random(65)
    built, walks = [], []
    post = TreeCurve.__post_init__
    paths = Enlargement.target_edge_paths.func
    monkeypatch.setattr(TreeCurve, "__post_init__",
                        lambda self: built.append(self) or post(self))
    monkeypatch.setattr(Enlargement.target_edge_paths, "func",
                        lambda self: walks.append(self) or paths(self))
    identities = 0
    for k in range(9):
        fld = PrimeField(1000003) if k % 3 == 2 else None
        bundle = random_bundle(rng, random_tree(rng, 1 + k % 4, fld),
                               2 + k % 3, lo=-2, hi=2)
        obj = json.loads(dumps(certificate_to_json(certify(
            bundle, balanced_splitting(bundle.rank, bundle.degree())))))
        steps = obj["steps"]
        curves = ([obj["claim"]["target"]["curve"]]
                  + [s["source"] for s in steps if s["kind"] == "enlarge"]
                  + [s["quotient"]["curve"] for s in steps
                     if s["kind"] == "splitoff"])
        built.clear()
        walks.clear()
        back = certificate_from_json(obj, fld)
        assert len(built) == len({dumps(c) for c in curves})
        assert verify_certificate(back) == (True, [])
        enlargements = [s.enlargement for s in back.steps
                        if isinstance(s, EnlargementStep)]
        assert sorted(map(id, walks)) == sorted(map(id, enlargements))
        identities += sum(e.source is e.target for e in enlargements)
    assert identities > 0


def test_certificate_load_still_checks_each_enlargement(ex_bundle):
    obj = certificate_to_json(certify(ex_bundle, SplittingType((3, 1))))
    (k,) = [i for i, s in enumerate(obj["steps"]) if s["kind"] == "enlarge"]
    unmapped = json.loads(dumps(obj))
    unmapped["steps"][k]["contracted"] = []
    with pytest.raises(BundleError, match="invalid enlargement: surviving"):
        certificate_from_json(unmapped)
    crowded = json.loads(dumps(obj))
    for e in crowded["steps"][k]["source"]["edges"]:
        e["pa"] = e["pb"] = "0"
    with pytest.raises(CurveError, match="share coordinate"):
        certificate_from_json(crowded)


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
