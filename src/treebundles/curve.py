"""Trees of smooth rational curves and their combinatorics.

A curve is a connected nodal curve whose components are projective lines
and whose dual graph is a tree. Each component carries an affine
coordinate chart; a node is recorded as an edge holding the exact
coordinate of the attachment point on both sides. No node sits at
infinity, which costs nothing (move it by a chart automorphism) and keeps
evaluation at nodes plain polynomial evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial

from .fields import field_from_name


class CurveError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
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

    @cached_property
    def problems(self):
        """`validate_tree` of the frozen curve, computed on first use."""
        return tuple(validate_tree(self))

    def validate(self):
        if self.problems:
            raise CurveError("; ".join(self.problems))
        return self


def validate_tree(curve: TreeCurve):
    """Every violation found, as human-readable strings; empty means valid."""
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
    # a field that cannot say which elements it holds holds none
    holds = getattr(curve.field, "holds", lambda x: False)
    for i, e in enumerate(curve.edges):
        if e.a not in known or e.b not in known:
            problems.append("edge %d references unknown component" % i)
        elif e.a == e.b:
            problems.append("edge %d joins component %r to itself" % (i, e.a))
        for x in (e.pa, e.pb):
            if not holds(x):
                problems.append("edge %d coordinate %r is not a %s element"
                                % (i, x, curve.field.name))
    if problems:
        return problems
    # connectivity and acyclicity; a connected graph on n vertices with
    # n-1 edges is a tree, but report the two failures separately
    if len(curve.edges) > len(comps) - 1:
        problems.append("cycle: %d edges on %d components"
                        % (len(curve.edges), len(comps)))
    adj = curve.adjacency()
    if (len(curve.edges) < len(comps) - 1
            or len(curve._reach(adj, comps[0], adj, ())) != len(comps)):
        problems.append("curve is not connected")
    # distinct node coordinates on every chart, each chart's nodes in edge
    # order, compared by (num, den), which within one field is equal
    # exactly when the elements are; the pairs are walked only on a chart
    # that has a repeat
    edges = curve.edges
    for v in comps:
        coords = [edges[i].pa if edges[i].a == v else edges[i].pb
                  for _, i in adj[v]]
        keys = [x.as_integer_ratio() for x in coords]
        if len(set(keys)) == len(keys):
            continue
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                if keys[i] == keys[j]:
                    problems.append("two nodes of %r share coordinate %r" % (v, coords[i]))
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
