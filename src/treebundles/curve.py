"""Trees of smooth rational curves and their combinatorics.

A curve is a connected nodal curve whose components are projective lines
and whose dual graph is a tree. Each component carries an affine
coordinate chart; a node is recorded as an edge holding the exact
coordinate of the attachment point on both sides. No node sits at
infinity, which costs nothing (move it by a chart automorphism) and keeps
evaluation at nodes plain polynomial evaluation.

A curve is checked by one tree check, `tree_problems`, on the component
ids, the edges and one key per node coordinate: `validate_tree` keys a
curve built in code by its elements, and the JSON reader (`TreeCurve.read`)
by the integers it read them as. Either way the result is kept on the
frozen curve (`problems`), so no curve is checked twice.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from typing import NamedTuple

from .fields import field_from_name


class CurveError(ValueError):
    pass


class Edge(NamedTuple):
    """One node: component `a` at coordinate `pa` meets component `b` at `pb`."""

    a: str
    pa: object
    b: str
    pb: object


@dataclass(frozen=True)
class TreeCurve:
    components: tuple
    edges: tuple
    field: object = dc_field(default_factory=partial(field_from_name, "q"))

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "edges", tuple(self.edges))

    # -- basic graph views ------------------------------------------------

    def adjacency(self):
        """component id -> list of (neighbour id, edge index), in edge order."""
        adj = {v: [] for v in self.components}
        for i, e in enumerate(self.edges):
            adj[e.a].append((e.b, i))
            adj[e.b].append((e.a, i))
        return adj

    def edge_between(self, x, y):
        for i, e in enumerate(self.edges):
            if {e.a, e.b} == {x, y}:
                return i
        return None

    def _reach(self, adj, start, members, cut):
        """Members reachable from `start` without crossing an edge in `cut`."""
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w, i in adj[v]:
                if w in members and w not in seen and i not in cut:
                    seen.add(w)
                    stack.append(w)
        return seen

    def side_of(self, edge_index, endpoint):
        """Components reachable from `endpoint` without crossing the edge."""
        e = self.edges[edge_index]
        assert endpoint in (e.a, e.b)
        adj = self.adjacency()
        return self._reach(adj, endpoint, adj, (edge_index,))

    def pieces(self, members, cut=()):
        """Connected pieces of the subgraph on `members` minus the `cut` edges.

        Each piece is a tuple in component order, and the pieces are
        ordered by their first member.
        """
        members, cut = set(members), set(cut)
        adj = self.adjacency()
        seen = set()
        out = []
        for v in self.components:
            if v in members and v not in seen:
                part = self._reach(adj, v, members, cut)
                seen |= part
                out.append(self.ordered(part))
        return out

    def is_connected_subset(self, members):
        members = set(members)
        return members <= set(self.components) and len(self.pieces(members)) == 1

    def ordered(self, members):
        """Members as a tuple in component order."""
        members = set(members)
        return tuple(v for v in self.components if v in members)

    @classmethod
    def read(cls, components, edges, field, keys):
        """The curve, its `problems` found by `tree_problems` on `keys`
        (one per node coordinate, edge by edge, a before b): the JSON
        reader's, which holds the coordinates as numerators over one den,
        so no element is read back and `validate_tree` never runs on it."""
        curve = cls(components, edges, field)
        curve.__dict__["problems"] = tuple(tree_problems(curve, keys))
        return curve

    @cached_property
    def problems(self):
        """`validate_tree` of the frozen curve, computed on first use, or
        the check `read` ran."""
        return tuple(validate_tree(self))

    def validate(self):
        if self.problems:
            raise CurveError("; ".join(self.problems))
        return self


def validate_tree(curve: TreeCurve):
    """Every violation found, as human-readable strings; empty means valid:
    `tree_problems` keyed by each coordinate's (num, den), None for one
    that is not an element of the curve's field."""
    # a field that cannot say which elements it holds holds none
    holds = getattr(curve.field, "holds", lambda x: False)
    return tree_problems(curve, [x.as_integer_ratio() if holds(x) else None
                                 for e in curve.edges for x in (e.pa, e.pb)])


def tree_problems(curve: TreeCurve, keys):
    """The one tree check: every violation found, as human-readable
    strings, on the curve's component ids and edges, each node coordinate
    compared by its key. keys[2i] and keys[2i + 1] stand for edge i's pa
    and pb; two keys are equal exactly when the coordinates are, and None
    marks a coordinate that is not an element of the curve's field.
    `validate_tree` keys a curve built in code by its elements' (num,
    den); the JSON reader keys one by the numerators over the one den it
    reads them over (`TreeCurve.read`), so it reads no element back."""
    problems = []
    comps = curve.components
    if not comps:
        return ["curve has no components"]
    if len(set(comps)) != len(comps):
        problems.append("duplicate component ids")
    for v in comps:
        if not isinstance(v, str) or not v:
            problems.append("component id %r is not a nonempty string" % (v,))
    known = set(comps)
    edges = curve.edges
    for i, e in enumerate(edges):
        if e.a not in known or e.b not in known:
            problems.append("edge %d references unknown component" % i)
        elif e.a == e.b:
            problems.append("edge %d joins component %r to itself" % (i, e.a))
        for x, key in ((e.pa, keys[2 * i]), (e.pb, keys[2 * i + 1])):
            if key is None:
                problems.append("edge %d coordinate %r is not a %s element"
                                % (i, x, curve.field.name))
    if problems:
        return problems
    # connectivity and acyclicity by one union-find over the edges; a
    # connected graph on n vertices with n-1 edges is a tree, but report
    # the two failures separately
    if len(edges) > len(comps) - 1:
        problems.append("cycle: %d edges on %d components"
                        % (len(edges), len(comps)))
    root = {v: v for v in comps}
    joined = 0
    for e in edges:
        a, b = e.a, e.b
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[a] = b
            joined += 1
    if joined != len(comps) - 1:
        problems.append("curve is not connected")
    # distinct node coordinates on every chart, each chart's nodes in edge
    # order; the pairs are walked only when some chart has a repeat
    sides = [v for e in edges for v in (e.a, e.b)]
    if len(set(zip(sides, keys))) == len(sides):
        return problems
    charts = {v: [] for v in comps}
    for k, v in enumerate(sides):
        charts[v].append(k)
    for v in comps:
        chart = charts[v]
        for n, k in enumerate(chart):
            for j in chart[n + 1:]:
                if keys[k] == keys[j]:
                    x = edges[k // 2].pb if k % 2 else edges[k // 2].pa
                    problems.append("two nodes of %r share coordinate %r" % (v, x))
    return problems


# -- multidegrees ---------------------------------------------------------

def check_multidegree(curve: TreeCurve, md):
    if set(md) != set(curve.components):
        raise CurveError("multidegree keys %s do not match components %s"
                         % (sorted(md), list(curve.components)))
    for v, d in md.items():
        if not isinstance(d, int):
            raise CurveError("degree on %r is not an integer: %r" % (v, d))
    return md


def md_total(md):
    return sum(md.values())


def fill_multidegree(curve: TreeCurve, partial):
    """Complete a partial component->int map with zeros."""
    unknown = set(partial) - set(curve.components)
    if unknown:
        raise CurveError("unknown components in multidegree: %s" % sorted(unknown))
    return {v: int(partial.get(v, 0)) for v in curve.components}


# -- enlargements ----------------------------------------------------------

@dataclass(frozen=True)
class Enlargement:
    """A tree map source -> target contracting some components to nodes.

    Surviving components keep their ids and map isomorphically; the
    contracted set falls apart into chains, each of which lands on one node
    of the target.
    """

    source: TreeCurve
    target: TreeCurve
    contracted: frozenset

    def survivors(self):
        return tuple(v for v in self.source.components if v not in self.contracted)

    @cached_property
    def problems(self):
        """The trees' `problems`, or if none the map's; computed on first use."""
        trees = self.source.problems + self.target.problems
        if trees:
            return trees
        problems = []
        if self.source.field != self.target.field:
            problems.append("source and target coefficient fields differ")
        if not self.contracted <= set(self.source.components):
            problems.append("contracted set contains unknown components")
            return tuple(problems)
        if set(self.survivors()) != set(self.target.components):
            problems.append("surviving components do not match the target")
            return tuple(problems)
        # every source edge must lie on a walk: a direct edge alone, a
        # contracted piece with all of its edges (see target_edge_paths).
        # Then every target edge has a walk: contracting each piece leaves
        # a tree on the survivors whose n_target - 1 edges are walks, each
        # realizing a distinct target edge.
        paths = self.target_edge_paths
        walked = {i for walk in paths if walk for i, _ in walk}
        src = self.source
        for i, e in enumerate(src.edges):
            if (e.a not in self.contracted and e.b not in self.contracted
                    and i not in walked):
                problems.append("contracted chain [] is not a path between two survivors")
        adj = src.adjacency()
        for chain in src.pieces(self.contracted):
            if any(i not in walked for x in chain for _, i in adj[x]):
                problems.append("contracted chain %s is not a path between two survivors"
                                % (sorted(chain),))
        return tuple(problems)

    def validate(self):
        return list(self.problems)

    @cached_property
    def target_edge_paths(self):
        """For each target edge: the source edge walk realizing it, or None;
        computed on first use and kept, like `problems`, so the check, a
        reader's pullback and `verify`'s pullback walk the curves once.

        The walk starts at the target edge's a-side survivor, takes the
        source edge at node coordinate `pa`, and goes on through contracted
        components that have exactly two nodes; it realizes the target edge
        when it stops at the b-side survivor at coordinate `pb`, and is None
        otherwise. A list indexed like target.edges, which no caller
        changes; each walk is a list of (source edge index, forward) pairs,
        forward meaning the source edge is traversed from its own a-side to
        its b-side.
        """
        src = self.source
        at = {(v, p): i for i, e in enumerate(src.edges)
              for v, p in ((e.a, e.pa), (e.b, e.pb))}
        adj = src.adjacency()
        paths = []
        for t in self.target.edges:
            v, i = t.a, at.get((t.a, t.pa))
            walk = []
            while i is not None:
                e = src.edges[i]
                forward = e.a == v
                walk.append((i, forward))
                v, pv = (e.b, e.pb) if forward else (e.a, e.pa)
                if v not in self.contracted or len(adj[v]) != 2:
                    break
                (_, j), (_, k) = adj[v]
                i = k if j == i else j
            ends = i is not None and (v, pv) == (t.b, t.pb)
            paths.append(walk if ends else None)
        return paths


def identity_enlargement(curve: TreeCurve):
    return Enlargement(curve, curve, frozenset())


def compose_enlargements(outer: Enlargement, inner: Enlargement):
    """outer after inner: inner.source -> inner.target == outer.source -> outer.target."""
    if inner.target != outer.source:
        raise CurveError("enlargements do not chain")
    return Enlargement(inner.source, outer.target, inner.contracted | outer.contracted)


def insert_bridge(curve: TreeCurve, edge_index):
    """Replace one node with a bridge component glued at coordinates 0 and 1.

    The two replacement edges are appended at the end of the edge list, the
    half touching the old a-side first. Returns the new curve and the
    enlargement contracting the bridge back. The bridge is named "a+b"
    after the edge's ends, primed until the name is fresh.
    """
    if not 0 <= edge_index < len(curve.edges):
        raise CurveError("no edge %r" % (edge_index,))
    e = curve.edges[edge_index]
    bid = "%s+%s" % (e.a, e.b)
    while bid in curve.components:
        bid += "'"
    zero, one = curve.field.zero, curve.field.one
    edges = tuple(x for i, x in enumerate(curve.edges) if i != edge_index)
    edges = edges + (Edge(e.a, e.pa, bid, zero), Edge(bid, one, e.b, e.pb))
    bigger = TreeCurve(curve.components + (bid,), edges, curve.field)
    return bigger, Enlargement(bigger, curve, frozenset({bid}))


def restrict_curve(curve: TreeCurve, members):
    """Induced subtree on a connected set of components."""
    members = set(members)
    if not curve.is_connected_subset(members):
        raise CurveError("restriction target %s is not connected" % sorted(members))
    comps = tuple(v for v in curve.components if v in members)
    edges = tuple(e for e in curve.edges if e.a in members and e.b in members)
    return TreeCurve(comps, edges, curve.field)
