"""Correctness checks on CLI outputs, each by a route other than the one
under test.

* h0: `h0_oracle` (sample values and Lagrange weights, its own
  elimination) on the twist with every summand degree capped at
  valence - 1, plus the columns the cap removed. Evaluation at val(v)
  distinct nodes is onto once a block has val(v) coefficients, so capping
  leaves the rank of the section system unchanged and h0 drops by exactly
  the removed column count. h1 must equal h0 - (degree + rank).
* dmax and decide witnesses: recomputed with `h0_oracle`; the P^1 side
  from its closed formula.
* box: re-enumerated here, in the documented lexicographic order.
* certify: the certificate must come back valid from the `verify` verb,
  state the claim it was asked for, and agree with `decide`.

A check returns None when the output is right, else a one-line reason.
Library modules are looked up at call time, because the set-up phase
re-imports the package.
"""
from __future__ import annotations

import json


def _lib():
    from treebundles import bundle, fields, serialize
    return bundle, fields, serialize


def _bundle(case):
    bundle, fields, serialize = _lib()
    return serialize.bundle_from_json(case["bundle"],
                                      fields.field_from_name(case["field"]))


def _valence(case):
    val = {v: 0 for v in case["bundle"]["curve"]["components"]}
    for e in case["bundle"]["curve"]["edges"]:
        val[e["a"]] += 1
        val[e["b"]] += 1
    return val


def _oracle(b, degrees):
    """h0_oracle of the bundle with these per-summand degrees."""
    bundle, _, _ = _lib()
    return bundle.h0_oracle(bundle.GluedBundle(b.curve, b.rank, degrees, b.gluings))


def _oracle_twist(b, md):
    return _oracle(b, {v: tuple(d + md[v] for d in b.splittings[v])
                       for v in b.curve.components})


def _p1_h0(degrees, e):
    return sum(max(0, d + e + 1) for d in degrees)


def _in_box(case, md):
    spl = case["bundle"]["splittings"]
    return (set(md) == set(spl)
            and all(isinstance(md[v], int) and md[v] >= -max(spl[v]) - 1
                    for v in spl))


def _check_witness(case, b, w, source):
    """A no-witness: in the box, inside the level window, and its two
    sides recompute (tree side by the oracle)."""
    md = w.get("multidegree")
    if not isinstance(md, dict) or not _in_box(case, md):
        return "witness multidegree %r is outside the clamp box" % (md,)
    e = sum(md.values())
    if not -source[0] <= e <= -source[-1] - 2:
        return "witness level %d is outside the window" % e
    lhs, rhs = _oracle_twist(b, md), _p1_h0(source, e)
    if (w.get("lhs"), w.get("rhs")) != (lhs, rhs) or not lhs < rhs:
        return "witness %r recomputes to lhs=%d rhs=%d" % (w, lhs, rhs)
    return None


def check_h0(case, outs):
    rc, out = outs[0]
    if rc != 0:
        return "exit code %r" % rc
    got = json.loads(out)
    b = _bundle(case)
    val, tw = _valence(case), case["twist"]
    capped, removed = {}, 0
    for v in b.curve.components:
        row = []
        for d in b.splittings[v]:
            m = d + tw[v]
            if m > val[v] - 1:
                removed += m - (val[v] - 1)
                m = val[v] - 1
            row.append(m)
        capped[v] = tuple(row)
    want = _oracle(b, capped) + removed
    if got.get("h0") != want:
        return "h0 %r, oracle says %d" % (got.get("h0"), want)
    euler = b.degree() + b.rank * sum(tw.values()) + b.rank
    if got.get("h1") != want - euler:
        return "h1 %r, expected %d" % (got.get("h1"), want - euler)
    return None


def check_dmax(case, outs):
    rc, out = outs[0]
    if rc != 0:
        return "exit code %r" % rc
    got = json.loads(out)
    d, w = got.get("dmax"), got.get("witness")
    if not isinstance(d, int) or not isinstance(w, dict) or not _in_box(case, w):
        return "malformed dmax output %r" % out.strip()
    if sum(w.values()) != -(d + 1):
        return "witness %r is not at level %d" % (w, -(d + 1))
    have = _oracle_twist(_bundle(case), w)
    if have != 0:
        return "witness %r has %d sections" % (w, have)
    return None


def check_decide(case, outs):
    rc, out = outs[0]
    got = json.loads(out)
    if rc == 0:
        return None if got == {"verdict": "yes"} else "yes output %r" % out.strip()
    if rc != 3 or got.get("verdict") != "no":
        return "exit code %r with %r" % (rc, out.strip())
    return _check_witness(case, _bundle(case), got.get("witness", {}),
                          case["source"])


def check_box(case, outs):
    rc, out = outs[0]
    if rc != 0:
        return "exit code %r" % rc
    comps = case["bundle"]["curve"]["components"]
    spl = case["bundle"]["splittings"]
    floors = [-max(spl[v]) - 1 for v in comps]
    want = []

    def rec(i, prefix, remaining):
        if i == len(comps) - 1:
            if remaining >= floors[i]:
                want.append(dict(zip(comps, prefix + [remaining])))
            return
        for x in range(floors[i], remaining - sum(floors[i + 1:]) + 1):
            rec(i + 1, prefix + [x], remaining - x)

    rec(0, [], case["level"])
    got = json.loads(out).get("box")
    if got != want:
        return "box has %d entries, expected %d" % (len(got or []), len(want))
    return None


def check_certify(case, outs):
    (rc, out), (vrc, vout) = outs
    cert, report = json.loads(out), json.loads(vout)
    if vrc != 0 or report != {"valid": True, "report": []}:
        return "verify says %r (exit %r)" % (vout.strip(), vrc)
    _, fields, serialize = _lib()
    fld = fields.field_from_name(case["field"])
    b = _bundle(case)
    claim = cert["claim"]
    if (claim["source"] != case["source"]
            or serialize.bundle_from_json(claim["target"], fld) != b):
        return "certificate states another claim"
    steps = cert["steps"]
    refutes = len(steps) == 1 and steps[0].get("kind") == "witness"
    if rc != (3 if refutes else 0):
        return "exit code %r for a %s certificate" % (
            rc, "refutation" if refutes else "affirmative")
    from treebundles import specialize, splitting
    yes = specialize.decide(b, splitting.SplittingType(tuple(case["source"]))).yes
    if yes == refutes:
        return "certificate disagrees with decide (%s)" % ("yes" if yes else "no")
    if refutes:
        return _check_witness(case, b, steps[0], case["source"])
    return None


CHECKS = {"h0": check_h0, "dmax": check_dmax, "decide": check_decide,
          "box": check_box, "certify": check_certify}
