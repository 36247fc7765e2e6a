"""DOT renderings of trees, bundles and certificates. Deterministic:
components and edges appear in their stored order."""
from __future__ import annotations

from .bundle import GluedBundle
from .curve import TreeCurve
from .specialize import (Certificate, DominanceStep, EnlargementStep,
                         FailureWitness, RankOneBase, SplitOffStep)


def _q(s):
    return '"%s"' % str(s).replace("\\", "\\\\").replace('"', '\\"')


def _tree_lines(curve: TreeCurve, indent, highlight, labels=None, arrow="--"):
    out = []
    for v in curve.components:
        attrs = ["label=%s" % _q(labels[v])] if labels else []
        if v in highlight:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgrey")
        suffix = " [%s]" % ", ".join(attrs) if attrs else ""
        out.append("%s%s%s;" % (indent, _q(v), suffix))
    for e in curve.edges:
        label = "%s|%s" % (e.pa, e.pb)
        out.append("%s%s %s %s [label=%s];"
                   % (indent, _q(e.a), arrow, _q(e.b), _q(label)))
    return out


def curve_to_dot(curve: TreeCurve) -> str:
    lines = ["graph tree {"] + _tree_lines(curve, "  ", set()) + ["}"]
    return "\n".join(lines) + "\n"


def bundle_to_dot(bundle: GluedBundle) -> str:
    labels = {v: "%s %s" % (v, tuple(bundle.splittings[v]))
              for v in bundle.curve.components}
    lines = (["graph bundle {"]
             + _tree_lines(bundle.curve, "  ", set(), labels) + ["}"])
    return "\n".join(lines) + "\n"


def _step_label(step):
    if isinstance(step, DominanceStep):
        return "dominance %s -> %s" % (step.source, step.target)
    if isinstance(step, EnlargementStep):
        return "enlarge: insert %s" % ", ".join(sorted(step.enlargement.contracted))
    if isinstance(step, SplitOffStep):
        degs = step.subbundle.multidegree()
        return "split off line %s, quotient rank %d" % (degs, step.quotient.rank)
    if isinstance(step, RankOneBase):
        return "rank one base, degree %d" % step.degree
    if isinstance(step, FailureWitness):
        return "failure at %s: %d < %d" % (step.multidegree, step.lhs, step.rhs)
    return type(step).__name__


def certificate_to_dot(cert: Certificate) -> str:
    lines = ["digraph certificate {", "  node [shape=box];"]
    claim = "claim: %s on P1 to rank %d bundle on %d components" % (
        cert.source, cert.target.rank, len(cert.target.curve.components))
    lines.append("  claim [label=%s];" % _q(claim))
    prev = "claim"
    for k, step in enumerate(cert.steps):
        name = "step%d" % k
        lines.append("  %s [label=%s];" % (name, _q(_step_label(step))))
        lines.append("  %s -> %s;" % (prev, name))
        prev = name
        if isinstance(step, EnlargementStep):
            enl = step.enlargement
            lines.append("  subgraph cluster_%d {" % k)
            lines.append("    label=%s;" % _q("enlarged tree"))
            lines.append("    edge [dir=none];")
            lines.extend(_tree_lines(enl.source, "    ", set(enl.contracted),
                                     arrow="->"))
            lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
