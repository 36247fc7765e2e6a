"""Batch front end: JSON in, JSON (or DOT) out.

Exit codes: 0 success/accepted, 1 malformed input, 2 rank or degree
mismatch, 3 negative answer (refused specialization, rejected certificate,
oracle discrepancy).
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from math import comb

from .bundle import (clamp_box, clamp_multidegree, dmax, h0, h0_oracle, h1,
                     twist, vanishing_floor)
from .curve import CurveError, fill_multidegree
from .fields import field_from_name
from .sampling import random_bundle, random_multidegree, random_tree
from .serialize import (INT_LIMIT, SerializeError, bundle_from_json,
                        certificate_from_json, certificate_to_json,
                        curve_from_json, dumps, multidegree_to_json,
                        splitting_from_json)
from .specialize import (MismatchError, SplitOffError, certify, decide,
                         verify_certificate)
from . import dot


class InputError(ValueError):
    pass


# largest clamp box `box --level` prints
_BOX_LIMIT = 10 ** 6


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, the digit limit on an integer literal, and
        # nesting deeper than the decoder recurses; nothing else in this
        # try recurses, so no recursion in the library is masked
        raise InputError("%s is not JSON: %s" % (path, exc))


def _parse_int(text, what):
    """An integer option or twist entry, below serialize.INT_LIMIT in
    absolute value; `what` names it in the error."""
    try:
        n = int(text)
        if abs(n) < INT_LIMIT:
            return n
    except ValueError:
        # not an integer, or more digits than int() reads
        pass
    raise InputError("%s is not an integer below 10^1000 in absolute value"
                     % what)


def _parse_twist(curve, text):
    md = {}
    if text:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise InputError("twist entry %r is not id:integer" % part)
            v, _, num = part.rpartition(":")
            md[v] = _parse_int(num, "twist entry on %r" % v)
    try:
        return fill_multidegree(curve, md)
    except CurveError as exc:
        raise InputError(str(exc))


def _parse_target(text):
    try:
        return splitting_from_json([int(x) for x in text.split(",")])
    except (ValueError, SerializeError):
        raise InputError("target %r is not a comma-separated integer list" % text)


def _parse_field(name):
    try:
        return field_from_name(name)
    except ValueError as exc:
        raise InputError(str(exc))


def _emit(obj):
    sys.stdout.write(dumps(obj) + "\n")


def _bundle_arg(args):
    try:
        return bundle_from_json(_load(args.input), args.field)
    except (SerializeError, ValueError) as exc:
        raise InputError(str(exc))


def _cmd_h0(args):
    bundle = _bundle_arg(args)
    twisted = twist(bundle, _parse_twist(bundle.curve, args.twist))
    sections = h0(twisted)
    # h1 is h0 minus the Euler characteristic; one section system serves both
    _emit({"h0": sections, "h1": sections - twisted.euler()})
    return 0


def _cmd_h1(args):
    bundle = _bundle_arg(args)
    twisted = twist(bundle, _parse_twist(bundle.curve, args.twist))
    _emit({"h1": h1(twisted)})
    return 0


def _cmd_dmax(args):
    bundle = _bundle_arg(args)
    d, witness = dmax(bundle)
    _emit({"dmax": d, "witness": multidegree_to_json(witness)})
    return 0


def _cmd_box(args):
    bundle = _bundle_arg(args)
    level = _parse_int(args.level, "--level")
    n = len(bundle.curve.components)
    spare = level - sum(vanishing_floor(bundle).values())
    if spare > 0 and comb(spare + n - 1, n - 1) > _BOX_LIMIT:
        raise InputError("box at level %d has more than %d entries"
                         % (level, _BOX_LIMIT))
    _emit({"box": [multidegree_to_json(md)
                   for md in clamp_box(bundle, level)]})
    return 0


def _cmd_decide(args):
    bundle = _bundle_arg(args)
    source = _parse_target(args.target)
    try:
        decision = decide(bundle, source)
    except MismatchError as exc:
        _emit({"error": str(exc)})
        return 2
    if decision.yes:
        _emit({"verdict": "yes"})
        return 0
    w = decision.witness
    _emit({"verdict": "no",
           "witness": {"multidegree": multidegree_to_json(w.multidegree),
                       "lhs": w.lhs, "rhs": w.rhs}})
    return 3


def _cmd_certify(args):
    bundle = _bundle_arg(args)
    source = _parse_target(args.target)
    try:
        cert = certify(bundle, source)
    except MismatchError as exc:
        _emit({"error": str(exc)})
        return 2
    _emit(certificate_to_json(cert))
    return 0 if not cert.is_refutation else 3


def _cmd_verify(args):
    try:
        cert = certificate_from_json(_load(args.input), args.field)
    except (SerializeError, ValueError) as exc:
        raise InputError(str(exc))
    ok, report = verify_certificate(cert)
    _emit({"valid": ok, "report": report})
    return 0 if ok else 3


def _cmd_oracle_check(args):
    # the corpus reaches summand degree 5, which h0_oracle samples at 0..5
    if args.field.char and args.field.char < 7:
        raise InputError("oracle-check needs --field q or p:<prime> with prime >= 7")
    rng = random.Random(_parse_int(args.seed, "--seed"))
    cases = _parse_int(args.cases, "--cases")
    h0_bad, box_bad = [], []
    for _ in range(cases):
        curve = random_tree(rng, rng.randint(1, 4), args.field)
        bundle = random_bundle(rng, curve, rng.randint(1, 3))
        for _ in range(3):
            twisted = twist(bundle, random_multidegree(rng, curve, -2, 2))
            a, b = h0(twisted), h0_oracle(twisted)
            if a != b:
                h0_bad.append({"bundle": dumps({"h0": a, "oracle": b})})
        # sectionless twists just outside the box must clamp onto
        # sectionless twists inside it (floor raising preserves h0)
        d, _ = dmax(bundle)
        wide = twist(bundle, {v: 1 for v in curve.components})
        for lev in (-d - 1, -d - 2):
            for md in clamp_box(wide, lev):
                if h0(twist(bundle, md)) == 0:
                    clamped = clamp_multidegree(bundle, md)
                    if h0(twist(bundle, clamped)) != 0:
                        box_bad.append(multidegree_to_json(md))
    _emit({"cases": cases, "h0_mismatches": len(h0_bad),
           "box_mismatches": len(box_bad)})
    return 0 if not h0_bad and not box_bad else 3


def _cmd_export_dot(args):
    obj = _load(args.input)
    try:
        if isinstance(obj, dict) and "claim" in obj:
            text = dot.certificate_to_dot(certificate_from_json(obj, args.field))
        elif isinstance(obj, dict) and "curve" in obj:
            text = dot.bundle_to_dot(bundle_from_json(obj, args.field))
        elif isinstance(obj, dict) and "components" in obj:
            text = dot.curve_to_dot(curve_from_json(obj, args.field))
        else:
            raise InputError("input is neither curve, bundle nor certificate")
    except (SerializeError, ValueError) as exc:
        raise InputError(str(exc))
    sys.stdout.write(text)
    return 0


def build_parser():
    """The argument parser, built once per process: every default is an
    immutable string, and parse_args returns a fresh namespace."""
    return _parsers()[0]


@functools.cache
def _parsers():
    """(the argument parser, {verb: the verb's own parser}), each verb's
    parser kept as it is built."""
    verbs = {}
    parser = argparse.ArgumentParser(
        prog="treebundles",
        description="exact section counts and specialization certificates "
                    "for bundles on trees of rational curves")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, needs_input=True):
        p = verbs[name] = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if needs_input:
            p.add_argument("-i", "--input", required=True,
                           help="path to the JSON input")
        p.add_argument("--field", default="q",
                       help="q for exact rationals or p:<prime>")
        return p

    p = add("h0", _cmd_h0)
    p.add_argument("--twist", default="", help="multidegree id:int,...")
    p = add("h1", _cmd_h1)
    p.add_argument("--twist", default="", help="multidegree id:int,...")
    add("dmax", _cmd_dmax)
    p = add("box", _cmd_box)
    p.add_argument("--level", required=True,
                   help="total twist degree of the box")
    p = add("decide", _cmd_decide)
    p.add_argument("--target", required=True,
                   help="splitting type on the line, e.g. \"3,1\"")
    p = add("certify", _cmd_certify)
    p.add_argument("--target", required=True,
                   help="splitting type on the line, e.g. \"3,1\"")
    add("verify", _cmd_verify)
    p = add("oracle-check", _cmd_oracle_check, needs_input=False)
    p.add_argument("--seed", default="0")
    p.add_argument("--cases", default="50")
    add("export-dot", _cmd_export_dot)
    return parser, verbs


def main(argv=None) -> int:
    """Run one verb line; returns the exit code.

    A line that starts with a verb is parsed once, by that verb's parser,
    as the full parser would hand it on. Any other line (no verb, an
    unknown one, help) and any line that leaves an argument over goes to
    the full parser, so every usage message and exit code is argparse's
    own.
    """
    parser, verbs = _parsers()
    # `--target X` as `--target=X`: argparse takes a separate X that starts
    # with '-' and is no plain number, such as -1,-1, for an option
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--target":
            argv[i - 1:i + 1] = ["--target=" + argv[i]]
    verb = verbs.get(argv[0]) if argv else None
    args, rest = verb.parse_known_args(argv[1:]) if verb else (None, None)
    if args is None or rest:
        args = parser.parse_args(argv)
    try:
        args.field = _parse_field(args.field)
        return args.fn(args)
    except (InputError, SplitOffError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
