"""JSON forms for curves, bundles, subbundles and certificates.

Field elements travel as canonical strings (lowest terms, positive
denominator over the rationals; plain decimal residues over a prime
field). The field itself is not part of the payload; readers supply it.
"""
from __future__ import annotations

import json

from .bundle import GluedBundle, make_bundle, pullback
from .curve import Edge, Enlargement, TreeCurve
from .fields import RationalField
from .specialize import (Certificate, DominanceStep, EnlargementStep,
                         FailureWitness, RankOneBase, SplitOffStep)
from .splitting import SplittingType
from .subbundles import LineSubbundle


class SerializeError(ValueError):
    pass


def dumps(obj) -> str:
    """Canonical byte form: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _need(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise SerializeError("%s: missing %r" % (where, key))
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, kind):
        raise SerializeError("%s: %r has the wrong shape" % (where, key))
    return val


# -- curves -------------------------------------------------------------------

def curve_to_json(curve: TreeCurve) -> dict:
    fld = curve.field
    return {
        "components": list(curve.components),
        "edges": [{"a": e.a, "pa": fld.to_str(e.pa),
                   "b": e.b, "pb": fld.to_str(e.pb)} for e in curve.edges],
    }


def curve_from_json(obj, field=None) -> TreeCurve:
    fld = field if field is not None else RationalField()
    comps = _need(obj, "components", list, "curve")
    edges = []
    for k, e in enumerate(_need(obj, "edges", list, "curve")):
        where = "curve edge %d" % k
        edges.append(Edge(_need(e, "a", str, where),
                          fld.parse(_need(e, "pa", str, where)),
                          _need(e, "b", str, where),
                          fld.parse(_need(e, "pb", str, where))))
    return TreeCurve(tuple(comps), tuple(edges), fld).validate()


# -- multidegrees and splitting types -----------------------------------------

def multidegree_to_json(md) -> dict:
    return {str(v): int(d) for v, d in md.items()}


def multidegree_from_json(obj) -> dict:
    if not isinstance(obj, dict):
        raise SerializeError("multidegree: expected an object")
    out = {}
    for v, d in obj.items():
        if not isinstance(d, int) or isinstance(d, bool):
            raise SerializeError("multidegree: degree on %r is not an integer" % v)
        out[v] = d
    return out


def splitting_to_json(st: SplittingType) -> list:
    return list(st.degrees)


def splitting_from_json(obj) -> SplittingType:
    if (not isinstance(obj, list) or not obj
            or any(isinstance(d, bool) or not isinstance(d, int) for d in obj)):
        raise SerializeError("splitting type: expected a nonempty integer array")
    return SplittingType(tuple(obj))


# -- bundles ------------------------------------------------------------------

def _matrix_to_json(fld, m):
    return [[fld.to_str(x) for x in row] for row in m]


def _element(fld, x, where):
    if not isinstance(x, str):
        raise SerializeError("%s: field element %r is not a string" % (where, x))
    return fld.parse(x)


def _matrix_from_json(fld, obj, where):
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SerializeError("%s: matrix is not a list of rows" % where)
    return [[_element(fld, x, where) for x in row] for row in obj]


def bundle_to_json(bundle: GluedBundle) -> dict:
    fld = bundle.field
    return {
        "curve": curve_to_json(bundle.curve),
        "rank": bundle.rank,
        "splittings": {v: list(bundle.splittings[v])
                       for v in bundle.curve.components},
        "gluings": [{"edge": i, "matrix": _matrix_to_json(fld, bundle.gluings[i])}
                    for i in range(len(bundle.curve.edges))],
    }


def bundle_from_json(obj, field=None) -> GluedBundle:
    curve = curve_from_json(_need(obj, "curve", dict, "bundle"), field)
    fld = curve.field
    raw = _need(obj, "splittings", dict, "bundle")
    splittings = {}
    for v, ds in raw.items():
        if not isinstance(ds, list) or any(
                isinstance(d, bool) or not isinstance(d, int) for d in ds):
            raise SerializeError("bundle: splitting of %r is not an integer array" % v)
        splittings[v] = tuple(ds)
    gluings = {}
    for k, g in enumerate(_need(obj, "gluings", list, "bundle")):
        where = "bundle gluing %d" % k
        i = _need(g, "edge", int, where)
        gluings[i] = _matrix_from_json(fld, _need(g, "matrix", list, where), where)
    rank = _need(obj, "rank", int, "bundle")
    bundle = make_bundle(curve, splittings, gluings)
    if bundle.rank != rank:
        raise SerializeError("bundle: declared rank %r disagrees with splittings" % rank)
    return bundle


# -- subbundles (relative to a known host) ------------------------------------

def subbundle_to_json(sub: LineSubbundle) -> dict:
    fld = sub.host.field
    return {
        "degrees": {v: sub.degrees[v] for v in sub.host.curve.components},
        "embeddings": {v: [[fld.to_str(c) for c in p] for p in sub.embeddings[v]]
                       for v in sub.host.curve.components},
        "scalars": [{"edge": i, "value": fld.to_str(sub.scalars[i])}
                    for i in sorted(sub.scalars)],
    }


def subbundle_from_json(obj, host: GluedBundle) -> LineSubbundle:
    fld = host.field
    degrees = multidegree_from_json(_need(obj, "degrees", dict, "subbundle"))
    raw = _need(obj, "embeddings", dict, "subbundle")
    embeddings = {}
    for v, ps in raw.items():
        where = "subbundle embedding of %r" % v
        if not isinstance(ps, list) or not all(isinstance(p, list) for p in ps):
            raise SerializeError("%s: not a list of coefficient lists" % where)
        embeddings[v] = [[_element(fld, c, where) for c in p] for p in ps]
    scalars = {}
    for k, s in enumerate(_need(obj, "scalars", list, "subbundle")):
        where = "subbundle scalar %d" % k
        scalars[_need(s, "edge", int, where)] = fld.parse(_need(s, "value", str, where))
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


def enlargement_from_json(obj, target: TreeCurve) -> Enlargement:
    source = curve_from_json(_need(obj, "source", dict, "enlargement"), target.field)
    contracted = _need(obj, "contracted", list, "enlargement")
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
    claim = _need(obj, "claim", dict, "certificate")
    target = bundle_from_json(_need(claim, "target", dict, "certificate claim"), field)
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
            enl = enlargement_from_json(raw, cur_t.curve)
            steps.append(EnlargementStep(enl))
            pulled = pullback(cur_t, enl)
        elif kind == "splitoff":
            if pulled is None:
                raise SerializeError("%s: split-off before any enlargement" % where)
            sub = subbundle_from_json(_need(raw, "subbundle", dict, where), pulled)
            quot = bundle_from_json(_need(raw, "quotient", dict, where), target.field)
            steps.append(SplitOffStep(sub, quot,
                                      splitting_from_json(_need(raw, "qprime", list, where))))
            cur_t = quot
            pulled = None
        elif kind == "rank1":
            steps.append(RankOneBase(_need(raw, "degree", int, where)))
        else:
            raise SerializeError("%s: unknown kind %r" % (where, kind))
    return Certificate(source, target, tuple(steps))
