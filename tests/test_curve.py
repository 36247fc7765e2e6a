"""Tree curves: validation, graph views, multidegrees, enlargements."""
import random
from fractions import Fraction as F

import pytest

from treebundles.curve import (CurveError, Edge, Enlargement, TreeCurve,
                               check_multidegree, compose_enlargements,
                               fill_multidegree, identity_enlargement,
                               insert_bridge, md_total, restrict_curve,
                               validate_tree)
from treebundles.fields import PrimeField, field_from_name
from treebundles.sampling import random_tree


def t2():
    return TreeCurve(("v1", "v2"), (Edge("v1", F(0), "v2", F(0)),))


def star4():
    # hub h with legs a, b, c at distinct hub coordinates
    return TreeCurve(("h", "a", "b", "c"),
                     (Edge("h", F(0), "a", F(0)),
                      Edge("h", F(1), "b", F(0)),
                      Edge("h", F(2), "c", F(0))))


def test_validate_accepts_good_trees():
    assert t2().validate() is not None
    assert star4().validate().components == ("h", "a", "b", "c")


def test_validate_rejects_cycle():
    curve = TreeCurve(("a", "b"),
                      (Edge("a", F(0), "b", F(0)), Edge("a", F(1), "b", F(1))))
    assert any("cycle" in p for p in validate_tree(curve))


def test_validate_rejects_disconnected():
    curve = TreeCurve(("a", "b", "c"), (Edge("a", F(0), "b", F(0)),))
    assert any("not connected" in p for p in validate_tree(curve))
    # n - 1 edges, but a doubled node leaves c-d apart from a-b
    split = TreeCurve(("a", "b", "c", "d"),
                      (Edge("a", F(0), "b", F(0)), Edge("a", F(1), "b", F(1)),
                       Edge("c", F(0), "d", F(0))))
    assert validate_tree(split) == ["curve is not connected"]


def test_validate_rejects_duplicate_node_coordinate():
    curve = TreeCurve(("a", "b", "c"),
                      (Edge("a", F(0), "b", F(0)), Edge("b", F(0), "c", F(0))))
    with pytest.raises(CurveError, match="share coordinate"):
        curve.validate()
    # a shared point is found by value in both fields: 1/2 and 4/8 over Q,
    # 1 and 8 mod 7, and the problem prints the element itself
    for fld in (field_from_name("q"), PrimeField(7)):
        x, y = (F(1, 2), F(4, 8)) if not fld.char else (fld.of(1), fld.of(8))
        curve = TreeCurve(("a", "b", "c"), (Edge("a", x, "b", fld.zero),
                                            Edge("a", y, "c", fld.zero)), fld)
        assert validate_tree(curve) == [
            "two nodes of 'a' share coordinate %r" % (x,)]


def test_validate_rejects_self_loop_and_unknown_ids():
    loop = TreeCurve(("a",), (Edge("a", F(0), "a", F(1)),))
    assert any("itself" in p for p in validate_tree(loop))
    dangling = TreeCurve(("a",), (Edge("a", F(0), "z", F(0)),))
    assert any("unknown component" in p for p in validate_tree(dangling))


def test_validate_checks_coordinate_field():
    curve = TreeCurve(("a", "b"), (Edge("a", 0, "b", F(0)),))
    assert any("element" in p for p in validate_tree(curve))
    fld = PrimeField(7)
    ok = TreeCurve(("a", "b"), (Edge("a", fld.of(0), "b", fld.of(0)),), fld)
    assert validate_tree(ok) == []


def test_a_field_that_is_no_field_holds_no_coordinate():
    # the field is asked whether it holds each coordinate; an object that
    # cannot say holds none, so each coordinate is one problem
    from types import SimpleNamespace
    curve = TreeCurve(("a", "b"), (Edge("a", F(0), "b", F(1)),),
                      SimpleNamespace(name="gf4"))
    assert validate_tree(curve) == [
        "edge 0 coordinate Fraction(0, 1) is not a gf4 element",
        "edge 0 coordinate Fraction(1, 1) is not a gf4 element"]


def test_graph_views():
    curve = star4()
    assert curve.edge_between("b", "h") == 1
    assert curve.edge_between("a", "b") is None
    assert curve.side_of(1, "b") == {"b"}
    assert curve.side_of(1, "h") == {"h", "a", "c"}
    assert curve.ordered({"c", "a"}) == ("a", "c")


def test_is_connected_subset():
    curve = star4()
    assert curve.is_connected_subset({"a", "h", "b"})
    assert not curve.is_connected_subset({"a", "b"})
    assert not curve.is_connected_subset(set())
    assert not curve.is_connected_subset({"a", "h", "zz"})


def _union_find_pieces(curve, members, cut):
    parent = {v: v for v in members}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, e in enumerate(curve.edges):
        if i not in cut and e.a in members and e.b in members:
            parent[root(e.a)] = root(e.b)
    groups = {}
    for v in curve.components:
        if v in members:
            groups.setdefault(root(v), []).append(v)
    return [tuple(g) for g in groups.values()]


def test_pieces_against_union_find():
    rng = random.Random(5)
    for _ in range(200):
        tree = random_tree(rng, rng.randint(1, 9))
        comps = list(tree.components)
        edges = list(tree.edges)
        rng.shuffle(comps)
        rng.shuffle(edges)
        curve = TreeCurve(tuple(comps), tuple(edges))
        members = {v for v in comps if rng.random() < 0.7}
        cut = {i for i in range(len(edges)) if rng.random() < 0.3}
        want = _union_find_pieces(curve, members, cut)
        assert curve.pieces(members, cut) == want
        assert curve.is_connected_subset(members) == \
            (len(_union_find_pieces(curve, members, set())) == 1)
        for i, e in enumerate(edges):
            for end in (e.a, e.b):
                (side,) = [p for p in _union_find_pieces(curve, set(comps), {i})
                           if end in p]
                assert curve.side_of(i, end) == set(side)


def test_multidegree_helpers():
    curve = t2()
    md = {"v1": 2, "v2": -1}
    assert check_multidegree(curve, md) is md
    assert md_total(md) == 1
    with pytest.raises(CurveError, match="keys"):
        check_multidegree(curve, {"v1": 0})
    with pytest.raises(CurveError, match="integer"):
        check_multidegree(curve, {"v1": F(1, 2), "v2": 0})
    assert fill_multidegree(curve, {"v2": 3}) == {"v1": 0, "v2": 3}
    with pytest.raises(CurveError, match="unknown"):
        fill_multidegree(curve, {"zz": 1})


def test_insert_bridge_layout():
    curve = t2()
    grown, step = insert_bridge(curve, 0)
    assert grown.components == ("v1", "v2", "v1+v2")
    e0, e1 = grown.edges
    # replacement edges go at the end, a-side half first; the bridge chart
    # meets its neighbours at 0 and 1
    assert (e0.a, e0.b, e0.pb) == ("v1", "v1+v2", F(0))
    assert (e1.a, e1.pa, e1.b) == ("v1+v2", F(1), "v2")
    assert e0.pa == curve.edges[0].pa and e1.pb == curve.edges[0].pb
    assert step.contracted == frozenset({"v1+v2"})
    assert step.source == grown and step.target == curve
    assert step.validate() == []


def test_compose_enlargements():
    curve = t2()
    g1, s1 = insert_bridge(curve, 0)
    g2, s2 = insert_bridge(g1, 0)
    total = compose_enlargements(compose_enlargements(identity_enlargement(curve), s1), s2)
    assert total.source == g2
    assert total.target == curve
    assert total.contracted == s1.contracted | s2.contracted
    assert total.validate() == []


# Enlargement shapes, mostly onto the target u-w, w-x. Each case: source
# edges and target edges as (a, pa, b, pb) rows, the contracted set, the
# problems `validate` reports, and the walk of each target edge (None where
# it does not end at the b-side's node).
CHAIN = "contracted chain %s is not a path between two survivors"
UWX = [("u", 0, "w", 0), ("w", 1, "x", 0)]
SHAPES = {
    "moved-coordinate": (
        [("u", 0, "w", 2), ("w", 1, "x", 0)], UWX, set(),
        [CHAIN % []], [None, [(1, True)]]),
    "leaf-off-chain": (
        [("u", 0, "b", 0), ("b", 1, "w", 0), ("b", 2, "L", 0),
         ("w", 1, "x", 0)], UWX, {"b", "L"},
        [CHAIN % ["L", "b"]], [None, [(3, True)]]),
    "three-attachments": (
        [("u", 0, "b", 0), ("b", 1, "w", 0), ("b", 2, "x", 0)], UWX, {"b"},
        [CHAIN % ["b"]], [None, None]),
    "wrong-survivors": (
        [("u", 0, "b", 0), ("b", 1, "x", 1), ("w", 1, "x", 0)], UWX, {"b"},
        [CHAIN % ["b"]], [None, [(2, True)]]),
    "survivor-in-chain": (
        [("u", 0, "b1", 0), ("b1", 1, "s", 0), ("s", 1, "b2", 0),
         ("b2", 1, "w", 0), ("w", 1, "x", 0)], UWX + [("x", 1, "s", 2)],
        {"b1", "b2"},
        [CHAIN % ["b1"], CHAIN % ["b2"]], [None, [(4, True)], None]),
    "reversed-edge": (
        [("u", 0, "b", 0), ("w", 0, "b", 1), ("x", 0, "w", 1)], UWX, {"b"},
        [], [[(0, True), (1, False)], [(2, False)]]),
    "backwards-two-bridges": (
        [("u", 0, "b1", 0), ("b1", 1, "b2", 0), ("b2", 1, "w", 0),
         ("w", 1, "x", 0)], [("w", 0, "u", 0), ("w", 1, "x", 0)],
        {"b1", "b2"},
        [], [[(2, False), (1, False), (0, False)], [(3, True)]]),
}


@pytest.mark.parametrize("field", ["q", "p:1000003"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_enlargement_shapes(field, shape):
    source, target, contracted, problems, walks = SHAPES[shape]
    fld = field_from_name(field)

    def tree(rows):
        comps = []
        for a, _, b, _ in rows:
            comps += [v for v in (a, b) if v not in comps]
        return TreeCurve(tuple(comps), tuple(
            Edge(a, fld.of(pa), b, fld.of(pb)) for a, pa, b, pb in rows), fld)

    enl = Enlargement(tree(source), tree(target), frozenset(contracted))
    assert enl.validate() == problems
    assert enl.target_edge_paths == walks


def test_enlargement_problems_before_the_walks():
    curve = t2()
    assert Enlargement(curve, curve, frozenset({"zz"})).validate() == [
        "contracted set contains unknown components"]
    assert Enlargement(curve, curve, frozenset({"v1"})).validate() == [
        "surviving components do not match the target"]
    # coordinates mod 7 match no node mod 11: a problem, not an error
    f7, f11 = PrimeField(7), PrimeField(11)
    source, target = (TreeCurve(("a", "b"), (Edge("a", f.of(0), "b", f.of(0)),), f)
                      for f in (f7, f11))
    assert Enlargement(source, target, frozenset()).validate() == [
        "source and target coefficient fields differ", CHAIN % []]


@pytest.mark.parametrize("field", ["q", "p:7"])
def test_composed_bridge_insertions_leave_no_target_edge_unmatched(field):
    # a valid enlargement puts every source edge on a walk, so every target
    # edge has one: a tree of n_target - 1 walks joins the survivors
    fld = field_from_name(field)
    rng = random.Random(19 + fld.char)
    for _ in range(60):
        curve = random_tree(rng, rng.randint(2, 6), fld)
        total = identity_enlargement(curve)
        for _ in range(rng.randint(1, 3)):
            source = total.source
            _, step = insert_bridge(source, rng.randrange(len(source.edges)))
            total = compose_enlargements(total, step)
        assert total.validate() == []
        walks = total.target_edge_paths
        assert len(walks) == len(curve.edges) and None not in walks
        assert sorted(i for walk in walks for i, _ in walk) == list(
            range(len(total.source.edges)))


def test_restrict_curve():
    curve = star4()
    sub = restrict_curve(curve, {"h", "b"})
    assert sub.components == ("h", "b")
    assert len(sub.edges) == 1 and sub.edges[0].b == "b"
    sub.validate()
