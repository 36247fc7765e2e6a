"""Batch front end: JSON in, JSON (or DOT) out.

One table, `_VERBS`, declares each verb: its command and its options,
each with its default or as required. The argument parser is built from
it, and a plain verb line is read from it alone, with no argparse run,
into the namespace argparse would return (`main` says which lines are
plain and why the reading is argparse's); every other line goes to the
full parser.

Exit codes: 0 success/accepted, 1 malformed input, 2 rank or degree
mismatch, 3 negative answer (refused specialization, rejected certificate,
oracle discrepancy). A verb returns 0 or 3 and raises for the rest; `main`
alone maps what it raises to a code: a `MismatchError` to {"error": ...}
on stdout and 2, any other `ValueError` (every library error is one) to
one `error:` line on stderr and 1. A line argparse refuses, such as a verb
with a required option missing, exits 2 with argparse's own usage text,
two lines on stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from itertools import islice
from math import comb

from .bundle import (clamp_box, clamp_multidegree, dmax, h0, h0_oracle, h1,
                     level_tuples, twist, vanishing_floor)
from .curve import fill_multidegree
from .fields import field_from_name
from .sampling import random_bundle, random_multidegree, random_tree
from .serialize import (INT_LIMIT, bundle_from_json, certificate_from_json,
                        certificate_to_json, curve_from_json, dumps,
                        multidegree_texts, multidegree_to_json,
                        splitting_from_json)
from .specialize import MismatchError, certify, decide, verify_certificate
from . import dot


class InputError(ValueError):
    pass


# largest clamp box `box --level` prints, and the entries it writes at once
_BOX_LIMIT = 10 ** 6
_BOX_CHUNK = 4096


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
            if v in md:
                raise InputError("twist names component %r twice" % v)
            md[v] = _parse_int(num, "twist entry on %r" % v)
    return fill_multidegree(curve, md)


def _parse_target(text):
    try:
        return splitting_from_json([int(x) for x in text.split(",")])
    except ValueError:
        raise InputError("target %r is not a comma-separated integer list" % text)


def _emit(obj):
    sys.stdout.write(dumps(obj) + "\n")


def _bundle_arg(args):
    return bundle_from_json(_load(args.input), args.field)


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
    comps = bundle.curve.components
    n = len(comps)
    floors = tuple(vanishing_floor(bundle).values())
    spare = level - sum(floors)
    if spare > 0 and comb(spare + n - 1, n - 1) > _BOX_LIMIT:
        raise InputError("box at level %d has more than %d entries"
                         % (level, _BOX_LIMIT))
    texts = multidegree_texts(comps, level_tuples(floors, None, level))
    # dumps({"box": [...]}) + "\n", a chunk of entries at a time
    write = sys.stdout.write
    write('{"box":[')
    sep = ""
    while chunk := ",".join(islice(texts, _BOX_CHUNK)):
        write(sep + chunk)
        sep = ","
    write("]}\n")
    return 0


def _cmd_decide(args):
    bundle = _bundle_arg(args)
    source = _parse_target(args.target)
    decision = decide(bundle, source)
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
    cert = certify(bundle, source)
    _emit(certificate_to_json(cert))
    return 0 if not cert.is_refutation else 3


def _cmd_verify(args):
    cert = certificate_from_json(_load(args.input), args.field)
    ok, report = verify_certificate(cert)
    _emit({"valid": ok, "report": report})
    return 0 if ok else 3


def _cmd_oracle_check(args):
    # the corpus reaches summand degree 5, which h0_oracle samples at 0..5
    if args.field.char and args.field.char < 7:
        raise InputError("oracle-check needs --field q or p:<prime> with prime >= 7")
    rng = random.Random(_parse_int(args.seed, "--seed"))
    cases = _parse_int(args.cases, "--cases")
    if cases < 0:
        raise InputError("--cases %d is negative" % cases)
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
    if isinstance(obj, dict) and "claim" in obj:
        text = dot.certificate_to_dot(certificate_from_json(obj, args.field))
    elif isinstance(obj, dict) and "curve" in obj:
        text = dot.bundle_to_dot(bundle_from_json(obj, args.field))
    elif isinstance(obj, dict) and "components" in obj:
        text = dot.curve_to_dot(curve_from_json(obj, args.field))
    else:
        raise InputError("input is neither curve, bundle nor certificate")
    sys.stdout.write(text)
    return 0


# every verb: its command and its options in help order, each as (option
# strings, default, help) with the default None for a required option;
# the options argparse parses and a plain line is read by (`_plain`)
_INPUT = (("-i", "--input"), None, "path to the JSON input")
_FIELD = (("--field",), "q", "q for exact rationals or p:<prime>")
_TWIST = (("--twist",), "", "multidegree id:int,...")
_TARGET = (("--target",), None, "splitting type on the line, e.g. \"3,1\"")
_VERBS = {
    "h0": (_cmd_h0, (_INPUT, _FIELD, _TWIST)),
    "h1": (_cmd_h1, (_INPUT, _FIELD, _TWIST)),
    "dmax": (_cmd_dmax, (_INPUT, _FIELD)),
    "box": (_cmd_box, (_INPUT, _FIELD, (("--level",), None,
                                        "total twist degree of the box"))),
    "decide": (_cmd_decide, (_INPUT, _FIELD, _TARGET)),
    "certify": (_cmd_certify, (_INPUT, _FIELD, _TARGET)),
    "verify": (_cmd_verify, (_INPUT, _FIELD)),
    "oracle-check": (_cmd_oracle_check, (_FIELD, (("--seed",), "0", None),
                                         (("--cases",), "50", None))),
    "export-dot": (_cmd_export_dot, (_INPUT, _FIELD)),
}


@functools.cache
def build_parser():
    """The argument parser, built from `_VERBS` once per process: every
    default is an immutable string, and parse_args returns a fresh
    namespace."""
    parser = argparse.ArgumentParser(
        prog="treebundles",
        description="exact section counts and specialization certificates "
                    "for bundles on trees of rational curves")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (fn, options) in _VERBS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for strings, default, text in options:
            if default is None:
                p.add_argument(*strings, required=True, help=text)
            else:
                p.add_argument(*strings, default=default, help=text)
    return parser


@functools.cache
def _plain_options(verb):
    """({option string: dest} of the verb, {long option: dest},
    {dest: default} of its options with one, the dests of its required
    options)."""
    strings, longs, defaults, required = {}, {}, {}, []
    for names, default, _ in _VERBS[verb][1]:
        # argparse's dest: the long option string, the last, undashed
        dest = names[-1][2:]
        for s in names:
            strings[s] = dest
            if s.startswith("--"):
                longs[s] = dest
        if default is None:
            required.append(dest)
        else:
            defaults[dest] = default
    return strings, longs, defaults, required


# the tokens argparse reads as a negative number, hence as a value, on a
# parser with no option string that looks like one
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _plain(argv):
    """The namespace `build_parser().parse_args(argv)` returns, read from
    `_VERBS` alone when argv is a plain verb line; None for any other
    line. See `main`."""
    verb = _VERBS.get(argv[0]) if argv else None
    if verb is None:
        return None
    strings, longs, defaults, required = _plain_options(argv[0])
    given = {}
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        dest = strings.get(token)
        if dest is not None and i + 1 < n:
            value = argv[i + 1]
            if value[:1] == "-" and not _NEGATIVE.fullmatch(value):
                return None
            i += 2
        else:
            name, eq, value = token.partition("=")
            dest = longs.get(name) if eq else None
            # argparse drops an attached value "--" on some versions
            if dest is None or value == "--":
                return None
            i += 1
        if dest in given:
            return None
        given[dest] = value
    if any(dest not in given for dest in required):
        return None
    return argparse.Namespace(verb=argv[0], fn=verb[0], **{**defaults, **given})


def main(argv=None) -> int:
    """Run one verb line; returns the exit code.

    A plain verb line is read from `_VERBS` alone (`_plain`), with no
    argparse run; every other line goes to the full parser, so every usage
    message, help text and exit code is argparse's own. A line is plain
    when its first token is a verb and every other token is either an
    option string of that verb followed by a value, or `--name=value` with
    `--name` a long option of that verb and the value other than "--";
    no option is given twice (by either of its strings) and every required
    option is given; and a separate value starts with '-' only as a
    negative number (`_NEGATIVE`).

    That reading is the full parser's. The full parser hands every token
    after the verb to the verb's parser. That parser reads each option
    string as its exact option, and `--name=value` as the option `--name`
    with the value as it is; "--" alone is dropped from an attached value
    by argparse before 3.13, which returns [] for it, so it is not read
    here, and after the full parser `main` reads that [] as the "--" that
    3.13 returns (no option here takes a list). A separate value that does
    not start with '-', or is a negative number, is a value to it: no
    option string of these parsers looks like a negative number.
    Each option takes one value, so the tokens pair up as read here, and
    with every option given once and every required one present, argparse
    sets each given option's value, every other option's default, `verb`
    and `fn`, and nothing else, without an error. Help, an abbreviation,
    an attached short value such as `-iPATH`, a repeated option, a stray
    token, "--" and a missing or unknown verb all fall outside this and
    go to the full parser.
    """
    # `--target X` as `--target=X`: argparse takes a separate X that starts
    # with '-' and is no plain number, such as -1,-1, for an option
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--target":
            argv[i - 1:i + 1] = ["--target=" + argv[i]]
    args = _plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        vars(args).update({dest: "--" for dest, value in vars(args).items()
                           if value == []})
    # the one place an exception becomes an exit code; a MismatchError is
    # a ValueError, so it is caught first
    try:
        args.field = field_from_name(args.field)
        return args.fn(args)
    except MismatchError as exc:
        _emit({"error": str(exc)})
        return 2
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
