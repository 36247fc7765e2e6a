"""JSON forms for curves, bundles, subbundles and certificates.

Field elements travel as canonical strings (lowest terms, positive
denominator over the rationals; plain decimal residues over a prime
field). The field itself is not part of the payload; readers supply it.

A curve and a bundle are read and checked in one pass over their JSON.
A curve has one reader, `curve_from_json`: once every id and coordinate
is a string, its node coordinates are read by one `read_row` call, over
one den, each distinct value's element is built once, and the tree is
checked on those numerators (`curve.tree_problems`, through
`TreeCurve.read`), the check `validate_tree` runs on a curve built in
code; when some edge is not four strings, its edges are read key by key,
so the first fault raises with its text. A bundle's splittings and
gluings are checked as they are read, with make_bundle's checks: they
cover the components and edges, agree on one rank, and each gluing is
r x r and invertible (`linalg.invertible`, by its determinant up to
4x4). Each gluing is read by one `read_row` call, straight to integers
over one den, and held so: a load builds no field element for it
(`GluedBundle.of_integers`). The curve keeps its check result
(`problems`), so `make_bundle`, `pullback` and `verify` do not check it
again. On any fault the one pass gives the same JSON to the step-by-step
reader (`_bundle_in_steps`), which reads key by key, builds field
elements, calls `bundle.make_bundle` and raises the first fault with its
text; that path runs only on a fault. It is kept because one reader,
built through make_bundle's checks on every load, cost about 11 us per
load on sections.

Every other matrix, a gluing on the step-by-step path or a subbundle
component's coefficient lists, is read by `_rows_from_json`: all its
entries by one `read_row` call, over one den, the rows then cut back by
their lengths (the `LineSubbundle` constructor holds the embedding so). A
certificate reader builds each curve once, reusing the curve object for
JSON equal to a curve it has read (`_Curves`), and its target and
quotient bundles take the one pass through it, so nothing read is
checked twice.
"""
from __future__ import annotations

import json
from itertools import islice
from operator import itemgetter

from . import poly
from .bundle import GluedBundle, make_bundle, pullback
from .curve import Edge, Enlargement, TreeCurve
from .fields import RationalField
from .linalg import element, invertible
from .specialize import (Certificate, DominanceStep, EnlargementStep,
                         FailureWitness, RankOneBase, SplitOffStep)
from .splitting import SplittingType
from .subbundles import LineSubbundle


# bound on the absolute value of every integer read and of a `--twist`
# entry, far below the 4,300 digits Python prints of an integer, so no
# degree or twist pushes h0, h1 or dmax past them
INT_LIMIT = 10 ** 1000


class SerializeError(ValueError):
    pass


# json.dumps builds an encoder on every call given these arguments
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    """Canonical byte form: sorted keys, no whitespace."""
    return _ENCODER.encode(obj)


def _is_int(x):
    """Whether x is an integer, not a bool, below INT_LIMIT in absolute
    value."""
    return (isinstance(x, int) and not isinstance(x, bool)
            and -INT_LIMIT < x < INT_LIMIT)


def _need(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise SerializeError("%s: missing %r" % (where, key))
    val = obj[key]
    if not (_is_int(val) if kind is int else isinstance(val, kind)):
        raise SerializeError("%s: %r has the wrong shape" % (where, key))
    return val


def _need_names(obj, key, where):
    """A list of component ids, each a string."""
    names = _need(obj, key, list, where)
    if not all(isinstance(v, str) for v in names):
        raise SerializeError("%s: %r must list strings" % (where, key))
    return names


# -- curves -------------------------------------------------------------------

def curve_to_json(curve: TreeCurve) -> dict:
    return {
        "components": list(curve.components),
        "edges": [{"a": e.a, "pa": str(e.pa),
                   "b": e.b, "pb": str(e.pb)} for e in curve.edges],
    }


def curve_from_json(obj, field=None) -> TreeCurve:
    """The curve read and checked in one pass: every node coordinate is
    read by one `fld.read_row` call, each distinct value's element is built
    once, and the tree is checked on the numerators over the row's den
    (`TreeCurve.read`). When some edge is not four strings, its edges are
    read key by key instead (`_edge_strings`), so the first fault raises
    in edge order."""
    fld = field if field is not None else RationalField()
    comps = _need_names(obj, "components", "curve")
    raw = _need(obj, "edges", list, "curve")
    try:
        ends = [v for e in raw for v in (e["a"], e["b"])]
        coords = [x for e in raw for x in (e["pa"], e["pb"])]
        strings = set(map(type, ends + coords)) <= {str}
    except (KeyError, TypeError):
        # an edge that is not an object, or lacks a key
        strings = False
    if not strings:
        ends, coords = _edge_strings(raw, fld)
    nums, den = fld.read_row(coords)
    elements = {x: element(x, den, fld.char) for x in set(nums)}
    coords = [elements[x] for x in nums]
    edges = tuple(map(Edge, ends[::2], coords[::2], ends[1::2], coords[1::2]))
    return TreeCurve.read(tuple(comps), edges, fld, nums).validate()


def _edge_strings(raw, fld):
    """The edges' ids and coordinates, each in edge order, a before b, read
    key by key (a, pa, b, pb) with each coordinate read (`fld.ratio`)
    before the next key, so the first fault raises with its text."""
    ends, coords = [], []
    for k, e in enumerate(raw):
        where = "curve edge %d" % k
        for end, coord in (("a", "pa"), ("b", "pb")):
            ends.append(_need(e, end, str, where))
            coords.append(_need(e, coord, str, where))
            fld.ratio(coords[-1])
    return ends, coords


class _Curves:
    """A certificate's curves, each built and checked once: called on a
    curve's JSON equal to JSON it has read, it returns the curve object it
    read then. Only curves that read without error are kept, and equal
    JSON reads identically, so this changes no result and no error."""

    def __init__(self, field):
        self.field = field
        self.seen = []  # (JSON, curve)

    def __call__(self, obj):
        for raw, curve in self.seen:
            if raw == obj:
                return curve
        curve = curve_from_json(obj, self.field)
        self.seen.append((obj, curve))
        return curve


# -- multidegrees and splitting types -----------------------------------------

def multidegree_to_json(md) -> dict:
    return {str(v): int(d) for v, d in md.items()}


def multidegree_texts(ids, values):
    """dumps(multidegree_to_json(dict(zip(ids, t)))) for each tuple t of
    `values`, lazily, with no dict built: each t, reordered to the sorted
    keys when they are not in `ids` order, fills one %-template whose keys
    are the encoded ids with every '%' doubled."""
    keys = [str(v) for v in ids]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    template = "{%s}" % ",".join(
        _ENCODER.encode(keys[k]).replace("%", "%%") + ":%d" for k in order)
    if order != list(range(len(order))):
        values = map(itemgetter(*order), values)
    return map(template.__mod__, values)


def multidegree_from_json(obj) -> dict:
    if not isinstance(obj, dict):
        raise SerializeError("multidegree: expected an object")
    out = {}
    for v, d in obj.items():
        if not _is_int(d):
            raise SerializeError("multidegree: degree on %r is not an integer" % v)
        out[v] = d
    return out


def splitting_to_json(st: SplittingType) -> list:
    return list(st.degrees)


def splitting_from_json(obj) -> SplittingType:
    if not isinstance(obj, list) or not obj or not all(map(_is_int, obj)):
        raise SerializeError("splitting type: expected a nonempty integer array")
    return SplittingType(tuple(obj))


# -- bundles ------------------------------------------------------------------

def _rows_from_json(fld, obj, where, shape):
    """A gluing's rows or a subbundle component's coefficient lists as
    (integer rows, den), equal to `linalg.cleared` of the parsed rows:
    every entry read by one `fld.read_row` call, which raises at the first
    bad entry in row-major order, and the rows cut back by their lengths,
    so ragged rows stay ragged; `shape` names `obj`."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SerializeError("%s: %s" % (where, shape))
    try:
        ints, den = fld.read_row([x for row in obj for x in row])
    except TypeError:
        # the first bad entry is not a string, and every entry before it
        # is one
        bad = next(x for row in obj for x in row if not isinstance(x, str))
        raise SerializeError("%s: field element %r is not a string"
                             % (where, bad))
    entries = iter(ints)
    return [list(islice(entries, len(row))) for row in obj], den


def bundle_to_json(bundle: GluedBundle) -> dict:
    gluings = bundle.gluings
    return {
        "curve": curve_to_json(bundle.curve),
        "rank": bundle.rank,
        "splittings": {v: list(bundle.splittings[v])
                       for v in bundle.curve.components},
        "gluings": [{"edge": i,
                     "matrix": [[str(x) for x in row] for row in gluings[i]]}
                    for i in range(len(bundle.curve.edges))],
    }


def bundle_from_json(obj, field=None, curves=None) -> GluedBundle:
    """The bundle read and checked in one pass, holding its gluings as
    integers; its curve is read by `curves`, a `_Curves`, when one is
    given, else by `curve_from_json`. On any fault the same JSON goes to
    `_bundle_in_steps`, which raises the first fault with its text."""
    try:
        bundle = _bundle_in_one_pass(obj, field, curves)
    except (KeyError, TypeError, ValueError):
        bundle = None
    return bundle or _bundle_in_steps(obj, field, curves)


def _bundle_in_one_pass(obj, field, curves):
    """`bundle_from_json`'s one pass: `make_bundle`'s checks run as the
    splittings and gluings are read, each gluing read by one `read_row`
    call and tested invertible on its integers; None, or KeyError,
    TypeError or ValueError, at a fault."""
    if type(obj) is not dict:
        return None
    raw = obj["curve"]
    curve = curves(raw) if curves else curve_from_json(raw, field)
    comps, n = curve.components, len(curve.edges)
    r, raw = obj["rank"], obj["splittings"]
    if (type(r) is not int or r < 1 or type(raw) is not dict
            or len(raw) != len(comps)):
        return None
    lists = [raw[v] for v in comps]
    degrees = [d for ds in lists for d in ds]
    if (set(map(type, lists)) != {list} or set(map(len, lists)) != {r}
            or set(map(type, degrees)) != {int}
            or not -INT_LIMIT < min(degrees) <= max(degrees) < INT_LIMIT):
        return None
    raw = obj["gluings"]
    if type(raw) is not list or len(raw) != n:
        return None
    read, p = curve.field.read_row, curve.field.char
    gluings = [None] * n
    for g in raw:
        if type(g) is not dict:
            return None
        i, m = g["edge"], g["matrix"]
        if (type(i) is not int or not 0 <= i < n or gluings[i] is not None
                or type(m) is not list or len(m) != r
                or set(map(type, m)) != {list} or set(map(len, m)) != {r}):
            return None
        # one read of the whole matrix puts its rows over one den
        ints, den = read([x for row in m for x in row])
        rows = [ints[k:k + r] for k in range(0, r * r, r)]
        if not invertible(rows, p):
            return None
        gluings[i] = rows, den
    return GluedBundle.of_integers(
        curve, r, dict(zip(comps, map(tuple, lists))), gluings)


def _bundle_in_steps(obj, field, curves):
    """`bundle_from_json`'s error path: the bundle read key by key, its
    curve by `curves` when one is given, else by `curve_from_json`, each
    gluing's integer rows made field elements, and built by
    `bundle.make_bundle`, so the first fault raises with its text."""
    raw = _need(obj, "curve", dict, "bundle")
    curve = curves(raw) if curves else curve_from_json(raw, field)
    fld = curve.field
    raw = _need(obj, "splittings", dict, "bundle")
    splittings = {}
    for v, ds in raw.items():
        if not isinstance(ds, list) or not all(map(_is_int, ds)):
            raise SerializeError("bundle: splitting of %r is not an integer array" % v)
        splittings[v] = tuple(ds)
    gluings = {}
    for k, g in enumerate(_need(obj, "gluings", list, "bundle")):
        where = "bundle gluing %d" % k
        i = _need(g, "edge", int, where)
        if i in gluings:
            raise SerializeError("%s: edge %d is listed twice" % (where, i))
        rows, den = _rows_from_json(fld, _need(g, "matrix", list, where),
                                    where, "matrix is not a list of rows")
        gluings[i] = [[element(x, den, fld.char) for x in row] for row in rows]
    rank = _need(obj, "rank", int, "bundle")
    bundle = make_bundle(curve, splittings, gluings)
    if bundle.rank != rank:
        raise SerializeError("bundle: declared rank %r disagrees with splittings" % rank)
    return bundle


# -- subbundles (relative to a known host) ------------------------------------

def subbundle_to_json(sub: LineSubbundle) -> dict:
    embeddings = sub.embeddings
    return {
        "degrees": {v: sub.degrees[v] for v in sub.host.curve.components},
        "embeddings": {v: [[str(c) for c in p] for p in embeddings[v]]
                       for v in sub.host.curve.components},
        "scalars": [{"edge": i, "value": str(sub.scalars[i])}
                    for i in sorted(sub.scalars)],
    }


def subbundle_from_json(obj, host: GluedBundle) -> LineSubbundle:
    fld = host.field
    degrees = multidegree_from_json(_need(obj, "degrees", dict, "subbundle"))
    raw = _need(obj, "embeddings", dict, "subbundle")
    embeddings = {}
    for v, ps in raw.items():
        ints, den = _rows_from_json(fld, ps, "subbundle embedding of %r" % v,
                                    "not a list of coefficient lists")
        embeddings[v] = [poly.trim(q) for q in ints], den
    scalars = {}
    for k, s in enumerate(_need(obj, "scalars", list, "subbundle")):
        where = "subbundle scalar %d" % k
        i = _need(s, "edge", int, where)
        if i in scalars:
            raise SerializeError("%s: edge %d is listed twice" % (where, i))
        scalars[i] = fld.parse(_need(s, "value", str, where))
    missing = (set(degrees) ^ set(host.curve.components)) | (set(embeddings) ^ set(host.curve.components))
    if missing:
        raise SerializeError("subbundle: component coverage differs at %s" % sorted(missing))
    return LineSubbundle(host, degrees, embeddings, scalars)


# -- enlargements (target implicit) -------------------------------------------

def enlargement_to_json(enl: Enlargement) -> dict:
    return {
        "source": curve_to_json(enl.source),
        "contracted": sorted(enl.contracted),
    }


def enlargement_from_json(obj, target: TreeCurve, curves=None) -> Enlargement:
    """The enlargement onto `target`; its source is read by `curves`, a
    `_Curves`, when one is given."""
    raw = _need(obj, "source", dict, "enlargement")
    source = curves(raw) if curves else curve_from_json(raw, target.field)
    contracted = _need_names(obj, "contracted", "enlargement")
    return Enlargement(source, target, frozenset(contracted))


# -- certificates -------------------------------------------------------------

def certificate_to_json(cert: Certificate) -> dict:
    steps = []
    for step in cert.steps:
        if isinstance(step, FailureWitness):
            steps.append({"kind": "witness",
                          "multidegree": multidegree_to_json(step.multidegree),
                          "lhs": step.lhs, "rhs": step.rhs})
        elif isinstance(step, DominanceStep):
            steps.append({"kind": "dominance",
                          "from": splitting_to_json(step.source),
                          "to": splitting_to_json(step.target)})
        elif isinstance(step, EnlargementStep):
            entry = enlargement_to_json(step.enlargement)
            entry["kind"] = "enlarge"
            steps.append(entry)
        elif isinstance(step, SplitOffStep):
            steps.append({"kind": "splitoff",
                          "subbundle": subbundle_to_json(step.subbundle),
                          "quotient": bundle_to_json(step.quotient),
                          "qprime": splitting_to_json(step.qprime)})
        elif isinstance(step, RankOneBase):
            steps.append({"kind": "rank1", "degree": step.degree})
        else:
            raise SerializeError("unknown certificate step %r" % type(step).__name__)
    return {
        "claim": {"source": splitting_to_json(cert.source),
                  "target": bundle_to_json(cert.target)},
        "steps": steps,
    }


def certificate_from_json(obj, field=None) -> Certificate:
    """The certificate read; each curve is built and checked once
    (`_Curves`): the target's, each enlargement's source, and each
    quotient's, which is the enlargement's source repeated."""
    curves = _Curves(field if field is not None else RationalField())
    claim = _need(obj, "claim", dict, "certificate")
    target = bundle_from_json(_need(claim, "target", dict, "certificate claim"),
                              curves=curves)
    source = splitting_from_json(_need(claim, "source", list, "certificate claim"))
    steps = []
    cur_t = target
    pulled = None
    for k, raw in enumerate(_need(obj, "steps", list, "certificate")):
        where = "certificate step %d" % k
        kind = _need(raw, "kind", str, where)
        if kind == "witness":
            steps.append(FailureWitness(
                multidegree_from_json(_need(raw, "multidegree", dict, where)),
                _need(raw, "lhs", int, where), _need(raw, "rhs", int, where)))
        elif kind == "dominance":
            steps.append(DominanceStep(
                splitting_from_json(_need(raw, "from", list, where)),
                splitting_from_json(_need(raw, "to", list, where))))
        elif kind == "enlarge":
            enl = enlargement_from_json(raw, cur_t.curve, curves)
            pulled = pullback(cur_t, enl)
            steps.append(EnlargementStep(enl))
        elif kind == "splitoff":
            if pulled is None:
                raise SerializeError("%s: split-off before any enlargement" % where)
            sub = subbundle_from_json(_need(raw, "subbundle", dict, where), pulled)
            quot = bundle_from_json(_need(raw, "quotient", dict, where),
                                    curves=curves)
            steps.append(SplitOffStep(sub, quot,
                                      splitting_from_json(_need(raw, "qprime", list, where))))
            cur_t = quot
            pulled = None
        elif kind == "rank1":
            steps.append(RankOneBase(_need(raw, "degree", int, where)))
        else:
            raise SerializeError("%s: unknown kind %r" % (where, kind))
    return Certificate(source, target, tuple(steps))
