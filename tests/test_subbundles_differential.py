"""The integer node checks, saturation and quotient gluings of
`treebundles.subbundles` against the field-element route in
`reference_linalg`, on seeded bundles over q, p:7 and p:1000003.

Over q the node coordinates (1/2, -2/3, 5/7 among others) and the gluing
entries have denominators. Neither the bench corpus nor
`sampling.random_tree` ever puts a denominator on a node, so without these
bundles the homogeneous scaling d^(K-k) of the node values would go
untested. The last test runs certify and verify entirely on the reference
route, so a fault that certify and verify would share cannot hide there.
"""
import random

import pytest

from treebundles import poly, specialize, subbundles
from treebundles.bundle import GluedBundle, make_bundle, section_basis, twist
from treebundles.curve import Edge, TreeCurve
from treebundles.fields import PrimeField, RationalField
from treebundles.linalg import cleared, element, invertible
from treebundles.sampling import balanced_splitting, random_tree
from treebundles.serialize import (certificate_to_json, dumps,
                                   subbundle_from_json, subbundle_to_json)
from treebundles.specialize import certify, find_line_subbundle, verify_certificate
from treebundles.subbundles import SubbundleError, _quotient, saturate

import reference_linalg as ref
from conftest import field_sections, projections

FIELDS = [RationalField(), PrimeField(7), PrimeField(1000003)]
COORDS = ("1/2", "-2/3", "5/7", "0", "3", "-1", "7/4")


def _coordinates(fld):
    """The distinct values of COORDS in the field (5/7 does not exist mod 7,
    and 1/2 = -2/3 there)."""
    values = []
    for s in COORDS:
        try:
            x = fld.parse(s)
        except ValueError:
            continue
        if x not in values:
            values.append(x)
    return values


def _tree(rng, fld, n):
    """A random tree whose node coordinates are drawn from COORDS."""
    curve = random_tree(rng, n, fld)
    values = _coordinates(fld)
    pick = {v: rng.sample(values, len(values)) for v in curve.components}
    edges = [Edge(e.a, pick[e.a].pop(), e.b, pick[e.b].pop())
             for e in curve.edges]
    return TreeCurve(curve.components, tuple(edges), fld)


def _gluing(rng, fld, r):
    while True:
        m = [[fld.of(rng.randint(-3, 3)) / fld.of(rng.choice((1, 2, 3, 5)))
              for _ in range(r)] for _ in range(r)]
        if invertible(cleared(m, fld.char)[0], fld.char):
            return m


def _bundle(rng, fld):
    curve = _tree(rng, fld, rng.randint(1, 4))
    r = rng.randint(2, 3)
    spl = {v: tuple(rng.randint(-2, 2) for _ in range(r)) for v in curve.components}
    return make_bundle(curve, spl, {i: _gluing(rng, fld, r)
                                    for i in range(len(curve.edges))})


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except SubbundleError as exc:
        return ("error", str(exc))


def _reference_validate(sub):
    problems = ref.subbundle_problems(sub)
    if problems:
        raise SubbundleError("; ".join(problems))
    return sub


def _reference_quotient(bundle, sub):
    r = bundle.rank
    qsplit, rows = {}, {}
    for v in bundle.curve.components:
        found = ref.kernel_generators(bundle.field, list(bundle.splittings[v]),
                                      sub.degrees[v], sub.embeddings[v], r - 1)
        qsplit[v] = tuple(b for b, _ in found)
        rows[v] = [gens for _, gens in found]
    glue = ref.quotient_gluings(bundle, rows)
    return GluedBundle(bundle.curve, r - 1, qsplit, glue), rows


def _field_coords(coords, p):
    """Integer coordinate lists over a den, per component, as field-element
    polynomials: where the reference route takes over from the search."""
    return {v: [[element(x, den, p) for x in q] for q in ints]
            for v, (ints, den) in coords.items()}


def _over_scale(u, p):
    """A field-element vector as an integer vector over its scale, as the
    search records a bridge's fiber vectors."""
    (ints,), den = cleared([u], p)
    return ints, den


def _reference_saturate(bundle, coords):
    p = bundle.field.char
    degrees, embeddings, scalars = ref.saturate(bundle, _field_coords(coords, p))
    return degrees, {v: cleared([poly.trim(q) for q in ps], p)
                     for v, ps in embeddings.items()}, scalars


def _reference_junction(bundle, edge_index, plan):
    e = bundle.curve.edges[edge_index]
    p = bundle.field.char
    u0, vb = ref.node_fibres(bundle, edge_index, _field_coords(plan.coords, p))
    rho = ref.direction_scalar(u0, vb)
    if rho is not None:
        assert rho, "transported fiber vector vanished"
        plan.scalars[(e.a, e.b)] = rho
    else:
        plan.bridges.append((e.a, e.b, _over_scale(u0, p), _over_scale(vb, p)))


def _tampered(rng, sub):
    """Copies of a valid subbundle with one thing changed, each reaching
    one of validate's problems (or none, when the change keeps it valid).
    Each copy is built through the constructor, as changing what
    `embeddings` returns changes no subbundle."""
    host, fld = sub.host, sub.host.field
    comps = host.curve.components

    def copy(coords=None):
        # component v's coordinate polynomials replaced by coords, if given
        embeddings = sub.embeddings
        if coords is not None:
            embeddings[v] = coords
        return ref.subbundle_of(host, sub.degrees, embeddings, sub.scalars)

    v = rng.choice(comps)
    if sub.scalars:
        t = copy()
        i = rng.choice(sorted(t.scalars))
        t.scalars[i] = t.scalars[i] * fld.of(rng.choice((2, 3))) / fld.of(5)
        yield t
        t = copy()
        t.scalars[i] = fld.zero
        yield t
    coords = sub.embeddings[v]
    q = rng.choice([q for q in coords if q])
    q[rng.randrange(len(q))] += fld.one / fld.of(2)
    yield copy(coords)
    yield copy([ref.trim([fld.of(-3) * c for c in q] + [fld.zero])
                if q else [] for q in sub.embeddings[v]])
    # a common zero at a point: every coordinate times (x - 1/2)
    half = fld.one / fld.of(2)
    t = copy([ref.trim([-half * q[0]] + [q[k - 1] - half * q[k]
                                        for k in range(1, len(q))]
                       + [q[-1]]) if q else [] for q in sub.embeddings[v]])
    t.degrees[v] -= 1
    yield t
    t = copy()
    t.degrees[v] += 1
    yield t
    yield copy(sub.embeddings[v][:-1])
    yield copy([[] for _ in sub.embeddings[v]])
    t = copy()
    t.scalars[len(host.curve.edges)] = fld.one
    yield t


def _sections(rng, bundle):
    """Sections of a few positive twists: basis vectors and random
    combinations."""
    fld = bundle.field
    for _ in range(2):
        md = {v: rng.randint(0, 2) for v in bundle.curve.components}
        host = twist(bundle, md)
        basis = field_sections(host)
        for sec in basis[:3]:
            yield host, sec
        if len(basis) > 1:
            sec = {v: [[] for _ in range(host.rank)] for v in host.curve.components}
            for b in basis:
                c = fld.of(rng.randint(1, 9)) / fld.of(rng.choice((1, 2, 3)))
                for v, polys in sec.items():
                    for i in range(host.rank):
                        polys[i] = ref.add(polys[i], ref.scale(b[v][i], c),
                                           fld.zero)
            yield host, sec


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.name)
def test_saturate_validate_and_quotients_match_the_field_route(fld):
    rng = random.Random(1500 + fld.char % 1000)
    saturated = errors = problems = valid = quotients = bridged = 0
    for _ in range(30):
        bundle = _bundle(rng, fld)
        for host, sec in _sections(rng, bundle):
            got = _outcome(saturate, host, sec)
            want = _outcome(ref.saturate, host, sec)
            if got[0] == "ok":
                s = got[1]
                got = ("ok", (s.degrees, s.embeddings, s.scalars))
                saturated += 1
            else:
                errors += 1
            assert got == want
        enl, sub = find_line_subbundle(bundle)
        bridged += len(enl.contracted)
        assert ref.subbundle_problems(sub) == []
        subs = [sub] + list(_tampered(rng, sub))
        assert all(t != sub for t in subs[1:])
        for t in subs:
            got = _outcome(lambda s: s.validate() and "", t)
            want = ref.subbundle_problems(t)
            assert got == (("error", "; ".join(want)) if want else ("ok", ""))
            problems += len(want)
            valid += not want
        for t in subs:
            if ref.subbundle_problems(t):
                continue
            want_quot, want_proj = _reference_quotient(t.host, t)
            assert _quotient(t.host, t) == want_quot
            assert projections(t.host, t) == want_proj
            quotients += 1
    assert saturated > 40 and errors > 5
    assert problems > 150 and valid >= 30 and quotients >= 30
    if fld.char != 7:
        assert bridged > 0


def _two_components(fld, splittings, gluing):
    """A bundle on two components meeting at 0 on both, over fld; gluing
    is an integer matrix."""
    zero = fld.zero
    curve = TreeCurve(("v1", "v2"), (Edge("v1", zero, "v2", zero),), fld)
    return make_bundle(curve, splittings,
                       {0: [[fld.of(x) for x in row] for row in gluing]})


def _respelled(obj, fld):
    """A subbundle's JSON with every coefficient spelled out of lowest
    terms: 0 as "-0", a/b as 2a/2b over q ("1/2" as "2/4"), a residue c as
    c + p over GF(p) ("1" as "8" over p:7), and a trailing "0" on every
    coordinate."""
    def spell(c):
        if c == "0":
            return "-0"
        if fld.char:
            return str(int(c) + fld.char)
        n, _, d = c.partition("/")
        return "%d/%d" % (2 * int(n), 2 * int(d or 1))

    return dict(obj, embeddings={v: [[spell(c) for c in q] + ["0"] for q in ps]
                                 for v, ps in obj["embeddings"].items()})


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.name)
def test_integer_saturation_does_not_see_the_presentation(fld):
    """(k ints, k den) stands for one section for every nonzero k, the
    negative dens a Bareiss pivot can give included: the integer core of
    `saturate` gives equal degrees, embeddings and scalars for k = 1, -3
    and 2, the public `saturate` of the section's field elements gives
    them too, and `integer_embeddings` is `cleared` of the trimmed
    embedding for saturations, for bridged `find_line_subbundle` results
    (the swap bundle of `conftest.build_swap` needs a bridge on every
    field) and for subbundles read from JSON, spelled in lowest terms or
    out of them: each reads back as the subbundle it was."""
    rng = random.Random(1502 + fld.char % 1000)
    p = fld.char
    saturated = errors = negative = bridged = 0
    subs = []
    for _ in range(20):
        bundle = _bundle(rng, fld)
        host = twist(bundle, {v: rng.randint(0, 2) for v in bundle.curve.components})
        sections, den = section_basis(host)
        negative += den < 0
        for sec, fsec in list(zip(sections, field_sections(host)))[:4]:
            outcomes = []
            for k in (1, -3, 2):
                coords = {v: ([[k * x % p if p else k * x for x in q] for q in qs],
                              k * den % p if p else k * den)
                          for v, qs in sec.items()}
                outcomes.append(_outcome(subbundles._saturate, host, coords))
            public = _outcome(saturate, host, fsec)
            if public[0] == "ok":
                s = public[1]
                subs.append(s)
                public = ("ok", (s.degrees, s.integer_embeddings, s.scalars))
                saturated += 1
            else:
                errors += 1
            outcomes.append(public)
            assert outcomes[1:] == outcomes[:1] * 3
        enl, sub = find_line_subbundle(bundle)
        bridged += len(enl.contracted)
        subs.append(sub)
    enl, sub = find_line_subbundle(
        _two_components(fld, {"v1": (2, 0), "v2": (2, 0)}, [[0, 1], [1, 0]]))
    bridged += len(enl.contracted)
    subs.append(sub)
    # the constant first-summand direction of the running example, over
    # 1/2 on v1 and 8 on v2, as "2/4" and "8" among spellings of 0
    ex = _two_components(fld, {"v1": (2, 0), "v2": (0, 2)}, [[1, 0], [0, 1]])
    spelled = subbundle_from_json(
        {"degrees": {"v1": 2, "v2": 0},
         "embeddings": {"v1": [["2/4", "-0", "0"], ["-0"]], "v2": [["8"], []]},
         "scalars": [{"edge": 0, "value": "1/16"}]}, ex).validate()
    assert spelled == ref.subbundle_of(
        ex, {"v1": 2, "v2": 0},
        {"v1": [[fld.one / fld.of(2)], []], "v2": [[fld.of(8)], []]},
        {0: fld.one / fld.of(16)})
    subs.append(spelled)
    for sub in subs:
        assert sub.integer_embeddings == {
            v: cleared([poly.trim(q) for q in ps], p)
            for v, ps in sub.embeddings.items()}
        obj = subbundle_to_json(sub)
        back = subbundle_from_json(obj, sub.host)
        assert back.integer_embeddings == sub.integer_embeddings
        assert back == sub
        assert subbundle_from_json(_respelled(obj, fld), sub.host) == sub
    assert saturated > 20 and errors > 3
    if not p:
        assert negative > 0
    assert bridged > 0


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.name)
def test_certify_and_verify_match_the_field_route(fld, monkeypatch):
    rng = random.Random(1501 + fld.char % 1000)
    cases = []
    # over q, cases 18 and 22 saturate a section whose gcd is not monic
    for _ in range(24):
        bundle = _bundle(rng, fld)
        cases.append((bundle, balanced_splitting(bundle.rank, bundle.degree())))

    def run():
        out = []
        for bundle, src in cases:
            cert = certify(bundle, src)
            assert verify_certificate(cert) == (True, [])
            out.append(dumps(certificate_to_json(cert)))
        return out

    got = run()
    with monkeypatch.context() as m:
        m.setattr(subbundles, "_junction", _reference_junction)
        m.setattr(subbundles, "_saturate", _reference_saturate)
        m.setattr(specialize, "_quotient",
                  lambda b, s: _reference_quotient(b, s)[0])
        m.setattr(subbundles.LineSubbundle, "validate", _reference_validate)
        want = run()
    assert got == want
