"""Command line surface: verbs, flags, exit codes, byte-stable output."""
import contextlib
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

import treebundles
from treebundles import cli, dot, subbundles
from treebundles.bundle import (BundleError, clamp_box, dmax, make_bundle,
                                vanishing_floor)
from treebundles.cli import _BOX_CHUNK, main
from treebundles.curve import CurveError, TreeCurve
from treebundles.fields import field_from_name
from treebundles.sampling import (balanced_splitting, random_bundle,
                                  random_tree, spread)
from treebundles.serialize import (SerializeError, bundle_to_json,
                                   certificate_to_json, curve_to_json, dumps,
                                   multidegree_to_json)
from treebundles.specialize import certify
from treebundles.splitting import SplittingType
from treebundles.subbundles import SubbundleError

from conftest import build_chain, build_ex, build_swap, regression_bundle

CERTIFY_CORPUS_DIGEST = "55986de21ab72c0a2d703ee90aad69530847e51901a735135787e9c18648e396"
SURGERY_CORPUS_DIGEST = "1482da6adefba40fe40a63c6a1d08a4ad17cd87c653f560d19e0a6611e67e593"


@pytest.fixture
def ex_path(tmp_path):
    path = tmp_path / "ex.json"
    path.write_text(dumps(bundle_to_json(build_ex())))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_h0_golden(ex_path, capsys):
    code, out, err = run(capsys, "h0", "-i", ex_path)
    assert (code, out, err) == (0, '{"h0":6,"h1":0}\n', "")


def test_h0_with_twist(ex_path, capsys):
    code, out, _ = run(capsys, "h0", "-i", ex_path, "--twist", "v1:-2,v2:-2")
    assert code == 0
    assert out == '{"h0":0,"h1":2}\n'


def test_main_twice_in_one_process_shares_no_state(ex_path, capsys):
    # the parser is built once per process; the second call's namespace
    # must not inherit the first call's --twist
    assert run(capsys, "h0", "-i", ex_path, "--twist", "v1:-2,v2:-2")[:2] == \
        (0, '{"h0":0,"h1":2}\n')
    assert run(capsys, "h0", "-i", ex_path)[:2] == (0, '{"h0":6,"h1":0}\n')


def test_h0_verb_builds_one_section_system(ex_path, capsys, monkeypatch):
    # h0, dmax and decide each read every count, floor and cap from one
    # SectionSystem of the bundle
    from treebundles.bundle import SectionSystem
    calls = []
    init = SectionSystem.__init__

    def counted(self, b):
        calls.append(b)
        init(self, b)

    monkeypatch.setattr(SectionSystem, "__init__", counted)
    assert run(capsys, "h0", "-i", ex_path, "--twist", "v1:-2,v2:-1")[:2] == \
        (0, '{"h0":1,"h1":1}\n')
    assert len(calls) == 1
    assert run(capsys, "dmax", "-i", ex_path)[0] == 0
    assert len(calls) == 2
    assert run(capsys, "decide", "-i", ex_path, "--target", "4,0")[0] == 3
    assert len(calls) == 3


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# argv lines, with {i} the example bundle's path: a plain verb line is
# read from the verb table (`cli._plain`), everything else by the full parser
ARGV_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "-i", "{i}"], ["H0"],
    ["-i", "{i}", "h0"], ["--field", "q", "h0", "-i", "{i}"],
    ["h0"], ["h0", "-i"], ["h0", "-h"], ["h0", "-i", "{i}", "--he"],
    ["h0", "-i", "{i}"], ["h0", "-i", "{i}", "stray"],
    ["h0", "-i", "{i}", "--bogus"], ["h0", "-i", "{i}", "--fie", "q"],
    ["h0", "-i", "{i}", "--fie", "p:7"], ["h0", "-i", "{i}", "--field", "p:8"],
    ["h0", "-i", "{i}", "--"], ["h0", "--", "-i", "{i}"],
    ["h0", "-i", "{i}", "--", "x"], ["h0", "-i={i}"], ["h0", "-i{i}"],
    ["h0", "--input={i}"], ["h0", "-i", "/nonexistent/x.json", "-i", "{i}"],
    ["h0", "-i", "{i}", "-i", "/nonexistent/x.json"],
    ["h0", "-i", "{i}", "--twist", "v1:-2,v2:-2"], ["h0", "-i", "{i}", "--twist"],
    ["h1", "-i", "{i}", "--twist=v1:1"], ["dmax", "-i", "{i}", "--twist", "v1:1"],
    ["box", "-i", "{i}"], ["box", "-i", "{i}", "--level", "-3"],
    ["decide", "-i", "{i}", "--target", "-1,-1"],
    ["decide", "-i", "{i}", "--target", "3,1"], ["decide", "-i", "{i}"],
    ["certify", "-i", "{i}", "--target", "3,1", "--target", "2,2"],
    ["verify", "-i", "{i}"], ["export-dot", "-i", "{i}", "--field", "q"],
    ["oracle-check", "--cases", "1", "-i", "{i}"],
    ["oracle-check", "--cases", "1", "--seed", "3"],
    ["decide", "-i", "{i}", "--target=3,1"], ["h0", "-i", "{i}", "--twist=v1:1"],
    ["dmax", "--input={i}", "--field", "p:7"], ["h0", "-i", ""], ["h0", "-i", "-"],
    ["dmax", "-i", "{i}", "--field=-5"], ["box", "-i", "{i}", "--level", "- 3"],
    ["h0", "-i", "{i}", "--field", "q", "--field", "p:7"],
    ["h0", "--input", "{i}", "-i", "{i}"], ["h0", "-i", "{i}", "-h"],
]


# a line whose option has the attached value "--", and its error
DOUBLE_DASH = [
    (["h0", "-i", "{i}", "--field=--"],
     "unknown field '--' (expected 'q' or 'p:<prime>')"),
    (["h0", "--input=--"],
     "cannot read --: [Errno 2] No such file or directory: '--'"),
    (["h0", "-i", "{i}", "--twist=--"], "twist entry '--' is not id:integer"),
    (["decide", "-i", "{i}", "--target", "--"],
     "target '--' is not a comma-separated integer list"),
    (["box", "-i", "{i}", "--level=--"],
     "--level is not an integer below 10^1000 in absolute value"),
    (["oracle-check", "--seed=--"],
     "--seed is not an integer below 10^1000 in absolute value"),
]


@pytest.mark.parametrize("line, error", DOUBLE_DASH,
                         ids=[" ".join(line) for line, _ in DOUBLE_DASH])
def test_argv_an_attached_double_dash_is_the_value_double_dash(
        ex_path, capsys, line, error):
    # argparse before 3.13 returns [] for an attached "--" value, and 3.13
    # the string "--"; either way the line ends in one error line
    argv = [a.replace("{i}", ex_path) for a in line]
    assert _outcome(capsys, argv) == (1, "", "error: %s\n" % error)


@pytest.mark.parametrize("line", ARGV_CORPUS,
                         ids=lambda line: " ".join(line) or "(empty)")
def test_argv_dispatch_matches_the_full_parser(ex_path, capsys, monkeypatch,
                                               line):
    # (exit code, stdout, stderr) as when the full parser reads every line
    from treebundles import cli
    argv = [a.replace("{i}", ex_path) for a in line]
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_plain", lambda argv: None)
    assert got == _outcome(capsys, argv)


def test_argv_of_a_verb_line_is_parsed_once(ex_path, capsys, monkeypatch):
    # a plain line makes no argparse parse call; a line with a stray token
    # makes one, the full parser's (which hands the verb's tokens on to the
    # verb's parser itself)
    import argparse
    calls = []
    parse_args = argparse.ArgumentParser.parse_args
    parse_known = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_args(self, *args, **kwargs)

    def known(self, *args, **kwargs):
        calls.append("known " + self.prog)
        return parse_known(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", known)
    assert run(capsys, "h0", "-i", ex_path) == (0, '{"h0":6,"h1":0}\n', "")
    assert run(capsys, "box", "-i", ex_path, "--level", "-3")[0] == 0
    assert run(capsys, "decide", "--input=" + ex_path, "--target", "-1,-1",
               "--field", "p:7")[0] == 2
    assert calls == []
    assert _outcome(capsys, ["h0", "-i", ex_path, "stray"])[0] == 2
    assert calls[0] == "treebundles"
    assert [c for c in calls if not c.startswith("known ")] == ["treebundles"]


# option strings and values the generated lines are drawn from: every
# verb's options, abbreviations, help, attached values, "--", and values
# that look like options or negative numbers
_ARGV_TOKENS = ["-i", "--input", "--field", "--twist", "--level", "--target",
                "--seed", "--cases", "--fie", "--inp", "--tw", "-h", "--help",
                "--", "-", "-x", "--bogus", "stray"]
_ARGV_VALUES = ["", "x.json", "q", "p:7", "-3", "-.5", "-1.5", "-1,-1",
                "- x", "- 3", "--", "-", "-i", "--field", "3,1", "v1:1,v2:-2",
                "a=b", "-\u0663", "-3\n", "h0", " ", "-1e3", "--x"]


def test_argv_plain_lines_read_as_the_full_parser_reads_them():
    # whenever the verb table reads a line, the full parser reads the same
    # namespace from it, and does not exit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from treebundles import cli
    values = (st.sampled_from(_ARGV_VALUES) | st.text(max_size=4)
              | st.sampled_from(["x.json", "q", "3,1", "-3"]))
    pair = st.tuples(st.sampled_from(_ARGV_TOKENS), values)
    token = (pair.map(list) | pair.map(lambda tv: ["=".join(tv)])
             | values.map(lambda v: [v]))

    @hypothesis.settings(max_examples=1000, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        verb = data.draw(st.sampled_from(list(cli._VERBS) + ["bogus", "-h"]))
        line, noise = [verb], True
        if verb in cli._VERBS and data.draw(st.booleans()):
            # some of the verb's own options, each once, as a plain line has
            options = data.draw(st.permutations(cli._VERBS[verb][1]))
            if data.draw(st.booleans()):
                options = options[:data.draw(st.integers(0, len(options)))]
            for strings, _, _ in options:
                s, v = data.draw(st.sampled_from(strings)), data.draw(values)
                line += [s + "=" + v] if data.draw(st.booleans()) else [s, v]
            noise = data.draw(st.sampled_from([True, False, False]))
        if noise:
            line += [t for ts in data.draw(st.lists(token, max_size=3))
                     for t in ts]
        plain = cli._plain(line)
        if plain is None:
            return
        try:
            full = cli.build_parser().parse_args(line)
        except SystemExit:
            pytest.fail("the full parser exits on %r" % (line,))
        assert full == plain, line

    check()


_HELP = json.loads((Path(__file__).parent / "help_golden.json").read_text(
    encoding="utf-8"))


@pytest.mark.parametrize("line", sorted(next(iter(_HELP.values()))))
def test_argv_help_output_is_the_recorded_text(capsys, monkeypatch, line):
    # `-h` of treebundles and of each verb, byte for byte as recorded from
    # the hand-built parser the verb table replaced; argparse lays help out
    # differently from 3.13 on
    monkeypatch.setenv("COLUMNS", "80")
    version = "%d.%d" % sys.version_info[:2]
    texts = [t for k, t in _HELP.items() if version in k.split()]
    if not texts:
        pytest.skip("no help text recorded for Python %s" % version)
    assert _outcome(capsys, line.split()) == (0, texts[0][line], "")


def test_h1_verb(ex_path, capsys):
    code, out, _ = run(capsys, "h1", "-i", ex_path, "--twist", "v1:-2,v2:-2")
    assert (code, out) == (0, '{"h1":2}\n')


def test_twist_defaults_unmentioned_components_to_zero(ex_path, capsys):
    code, out, _ = run(capsys, "h0", "-i", ex_path, "--twist", "v1:-3")
    twisted = json.loads(out)
    assert code == 0 and twisted == {"h0": 2, "h1": 2}
    # empty entries are skipped
    assert run(capsys, "h0", "-i", ex_path, "--twist", "v1:-3,,") == (
        code, out, "")


@pytest.mark.parametrize("flags, expected", [
    (("--twist", "v1:100000000"), '{"h0":200000006,"h1":0}\n'),
    (("--twist", "v1:100000000,v2:-100000000", "--field", "p:1000003"),
     '{"h0":200000002,"h1":199999996}\n'),
])
def test_h0_cost_does_not_depend_on_the_twist(ex_path, capsys, flags, expected):
    # the section system is capped at val(v) - 1 per block, so a twist of
    # 10^8 costs what a twist of 1 does
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "h0", "-i", ex_path, *flags)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (0, expected)


def test_dmax_golden(ex_path, capsys):
    code, out, _ = run(capsys, "dmax", "-i", ex_path)
    assert code == 0
    assert out == '{"dmax":3,"witness":{"v1":-2,"v2":-2}}\n'


def test_box_golden(ex_path, capsys):
    code, out, _ = run(capsys, "box", "-i", ex_path, "--level", "-4")
    assert code == 0
    assert json.loads(out) == {"box": [{"v1": -3, "v2": -1},
                                       {"v1": -2, "v2": -2},
                                       {"v1": -1, "v2": -3}]}


def test_decide_yes(ex_path, capsys):
    code, out, _ = run(capsys, "decide", "-i", ex_path, "--target", "3,1")
    assert (code, out) == (0, '{"verdict":"yes"}\n')


def test_decide_no_with_witness(ex_path, capsys):
    code, out, _ = run(capsys, "decide", "-i", ex_path, "--target", "4,0")
    assert code == 3
    assert json.loads(out) == {
        "verdict": "no",
        "witness": {"multidegree": {"v1": -2, "v2": -2}, "lhs": 0, "rhs": 1}}


def test_decide_mismatch_exit_2(ex_path, capsys):
    # certify meets the mismatch in its decide and prints the same
    for target, text in (("3,2", "degree 4 vs 5"), ("2,1,1", "rank 2 vs 3")):
        for verb in ("decide", "certify"):
            assert run(capsys, verb, "-i", ex_path, "--target", target) == (
                2, '{"error":"%s"}\n' % text, "")


def test_malformed_input_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "h0", "-i", str(bad))
    assert code == 1 and out == "" and err.startswith("error:")
    code2, _, err2 = run(capsys, "h0", "-i", str(tmp_path / "absent.json"))
    assert code2 == 1 and "cannot read" in err2


def test_bad_twist_flag_exit_1(ex_path, capsys):
    code, _, err = run(capsys, "h0", "-i", ex_path, "--twist", "v1=2")
    assert code == 1 and "id:integer" in err
    code2, _, err2 = run(capsys, "h0", "-i", ex_path, "--twist", "zz:1")
    assert code2 == 1 and "unknown" in err2


@pytest.mark.parametrize("verb", ["h0", "h1"])
def test_a_component_twisted_twice_ends_in_one_error_line(ex_path, capsys,
                                                          verb):
    # no entry overrides an earlier one; the JSON reader refuses an edge
    # listed twice the same way
    for twist in ("v1:1,v1:2", "v1:1, v2:0 ,v1:1", "v2:1,v1:-2,v2:x"):
        code, out, err = run(capsys, verb, "-i", ex_path, "--twist", twist)
        assert (code, out) == (1, "")
        assert err == "error: twist names component %r twice\n" % (
            "v2" if twist.startswith("v2") else "v1")


@pytest.mark.parametrize("verb", ["h0", "h1"])
def test_a_twist_entry_past_the_bound_ends_in_one_error_line(tmp_path, capsys,
                                                             verb):
    # at a:<4,300 nines> on O(0,0) + O(0,0), h0 has 4,301 digits, more than
    # Python prints of an integer; entries are bounded below 10^1000
    i2 = [[F(1), F(0)], [F(0), F(1)]]
    bundle = build_chain(("a", "b"), {"a": (0, 0), "b": (0, 0)}, {0: i2})
    path = tmp_path / "flat.json"
    path.write_text(dumps(bundle_to_json(bundle)))
    nines = "9" * 4300
    for entry in (nines, "-" + nines, "1" + "0" * 1000, "-1" + "0" * 1000):
        code, out, err = run(capsys, verb, "-i", str(path),
                             "--twist", "a:" + entry)
        assert (code, out) == (1, "")
        assert err.startswith("error: twist entry on 'a'")
        assert err.count("\n") == 1
    # the largest entry allowed still prints: h0 = 2t + 2, h1 = 0
    t = 10 ** 1000 - 1
    code, out, err = run(capsys, verb, "-i", str(path), "--twist", "a:%d" % t)
    assert (code, err) == (0, "")
    assert json.loads(out) == ({"h0": 2 * t + 2, "h1": 0} if verb == "h0"
                               else {"h1": 0})


@pytest.mark.parametrize("verb", ["h0", "dmax"])
def test_a_summand_degree_past_the_bound_ends_in_one_error_line(tmp_path,
                                                                capsys, verb):
    # a degree of 4,300 nines on a flat rank-2 tree gives an h0 and a dmax
    # of more than the 4,300 digits Python prints of an integer; every
    # integer read is bounded below 10^1000
    i2 = [[F(1), F(0)], [F(0), F(1)]]
    bundle = build_chain(("a", "b"), {"a": (0, 0), "b": (0, 0)}, {0: i2})
    obj = bundle_to_json(bundle)
    for degree in (int("9" * 4300), -10 ** 1000, 10 ** 1000):
        obj["splittings"]["a"] = [degree, 0]
        code, out, err = run(capsys, verb, "-i", _write(tmp_path, obj))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
    # a degree of 10^999 still prints
    obj["splittings"]["a"] = [10 ** 999, 0]
    code, out, err = run(capsys, verb, "-i", _write(tmp_path, obj))
    assert (code, err) == (0, "")
    big = build_chain(("a", "b"), {"a": (10 ** 999, 0), "b": (0, 0)},
                      {0: i2})
    if verb == "h0":
        assert json.loads(out) == {"h0": 10 ** 999 + 2, "h1": 0}
    else:
        d, witness = dmax(big)
        assert json.loads(out) == {"dmax": d, "witness": witness}


@pytest.mark.parametrize("verb", ["export-dot", "verify"])
def test_an_integer_literal_past_the_digit_limit_ends_in_one_error_line(
        tmp_path, capsys, verb):
    # json.load refuses a literal of more than 4,300 digits with a plain
    # ValueError, not a JSONDecodeError
    path = tmp_path / "long.json"
    text = dumps(curve_to_json(build_ex().curve))
    path.write_text(text[:-1] + ',"extra":' + "7" * 5000 + "}")
    code, out, err = run(capsys, verb, "-i", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: %s is not JSON" % path)
    assert err.count("\n") == 1


@pytest.mark.parametrize("verb", ["h0", "dmax", "verify", "export-dot"])
def test_nesting_deeper_than_the_decoder_recurses_ends_in_one_error_line(
        tmp_path, capsys, verb):
    # json.load raises RecursionError, not a ValueError, on deep nesting:
    # 1,100 arrays are enough on Python 3.10 and 3.11, about 10^4 on 3.12
    # and 3.13; 10^5 is past every limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 10 ** 5 + "]" * 10 ** 5)
    code, out, err = run(capsys, verb, "-i", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: %s is not JSON" % path)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_bad_target_flag_exit_1(ex_path, capsys):
    code, _, err = run(capsys, "decide", "-i", ex_path, "--target", "3;1")
    assert code == 1 and "target" in err


@pytest.mark.parametrize("verb", ["decide", "certify"])
def test_target_with_a_negative_first_degree(tmp_path, capsys, verb):
    # argparse reads a separate value that starts with '-' as an option
    # unless it is a plain negative number; -1,-1 is not
    ident = [[F(1), F(0)], [F(0), F(1)]]
    bundle = build_chain(("v1", "v2"), {"v1": (-1, -1), "v2": (0, 0)},
                         {0: ident})
    path = tmp_path / "negative.json"
    path.write_text(dumps(bundle_to_json(bundle)))
    joined = run(capsys, verb, "-i", str(path), "--target=-1,-1")
    assert joined[0] == 0 and joined[2] == ""
    assert run(capsys, verb, "-i", str(path), "--target", "-1,-1") == joined


def _write(tmp_path, obj):
    path = tmp_path / "input.json"
    path.write_text(dumps(obj))
    return str(path)


def _ex_with(edit):
    def make(tmp_path):
        obj = bundle_to_json(build_ex())
        edit(obj)
        return _write(tmp_path, obj)
    return make


def _int_gluing_entry(obj):
    obj["gluings"][0]["matrix"][0][0] = 1


def _zero_denominator_node(obj):
    obj["curve"]["edges"][0]["pa"] = "1/0"


def _three_component_chain(tmp_path):
    ident = [[F(1), F(0)], [F(0), F(1)]]
    bundle = build_chain(("v1", "v2", "v3"),
                         {"v1": (1, 0), "v2": (0, 0), "v3": (0, 1)},
                         {0: ident, 1: ident})
    return _write(tmp_path, bundle_to_json(bundle))


def _cert_with_int_embedding_entry(tmp_path):
    obj = certificate_to_json(certify(build_ex(), SplittingType((3, 1))))
    (step,) = [s for s in obj["steps"] if s["kind"] == "splitoff"]
    emb = step["subbundle"]["embeddings"]
    emb[next(iter(emb))][0] = [1]
    return _write(tmp_path, obj)


def _rank_one_with_boolean_rank_and_edge(tmp_path):
    obj = bundle_to_json(build_chain(("v1", "v2"), {"v1": (2,), "v2": (0,)},
                                     {0: [[F(1)]]}))
    obj["rank"] = True
    obj["gluings"][0]["edge"] = False
    return _write(tmp_path, obj)


def _list_component_id(obj):
    obj["curve"]["components"][0] = ["v1"]


def _cert_with_list_contracted_id(tmp_path):
    obj = certificate_to_json(certify(build_ex(), SplittingType((3, 1))))
    (step,) = [s for s in obj["steps"] if s["kind"] == "enlarge"]
    step["contracted"] = [[1]]
    return _write(tmp_path, obj)


def _refutation_with_boolean_lhs(tmp_path):
    obj = certificate_to_json(certify(build_ex(), SplittingType((4, 0))))
    obj["steps"][0]["lhs"] = True
    return _write(tmp_path, obj)


@pytest.mark.parametrize("verb, make_input, flags", [
    ("h0", _ex_with(lambda obj: None), ("--field", "p:9")),
    ("export-dot", _ex_with(lambda obj: None), ("--field", "p:x")),
    ("h0", _ex_with(lambda obj: None), ("--field", "p:2")),
    ("h0", _ex_with(_int_gluing_entry), ()),
    ("verify", _cert_with_int_embedding_entry, ()),
    ("h0", _ex_with(_zero_denominator_node), ("--field", "p:7")),
    ("box", _three_component_chain, ("--level", "100000")),
    ("h0", _rank_one_with_boolean_rank_and_edge, ()),
    ("verify", _refutation_with_boolean_lhs, ()),
    ("h0", _ex_with(_list_component_id), ()),
    ("verify", _cert_with_list_contracted_id, ()),
], ids=["field-p9", "field-px", "field-p2", "int-gluing-entry",
        "int-embedding-entry", "zero-denominator-node-mod-7",
        "box-level-100000", "boolean-rank-and-edge", "boolean-lhs",
        "list-component-id", "list-contracted-id"])
def test_bad_input_ends_in_one_error_line(tmp_path, capsys, verb, make_input,
                                          flags):
    code, out, err = run(capsys, verb, "-i", make_input(tmp_path), *flags)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def _rank_one_with_edge_listed_twice(tmp_path):
    # the later matrix used to win, and h0 printed {"h0":2,"h1":0}
    obj = bundle_to_json(build_chain(("v1", "v2"), {"v1": (0,), "v2": (0,)},
                                     {0: [[F(1)]]}))
    obj["gluings"].append({"edge": 0, "matrix": [["2"]]})
    return _write(tmp_path, obj)


def _cert_with_target_edge_listed_twice(tmp_path):
    obj = certificate_to_json(certify(build_ex(), SplittingType((3, 1))))
    gluings = obj["claim"]["target"]["gluings"]
    gluings.append(dict(gluings[0]))
    return _write(tmp_path, obj)


def _cert_with_scalar_edge_listed_twice(tmp_path):
    # the same edge and value twice: the certificate used to verify
    obj = certificate_to_json(certify(build_ex(), SplittingType((3, 1))))
    (step,) = [s for s in obj["steps"] if s["kind"] == "splitoff"]
    scalars = step["subbundle"]["scalars"]
    assert scalars[0]["edge"] == 0
    scalars.insert(1, dict(scalars[0]))
    return _write(tmp_path, obj)


@pytest.mark.parametrize("verb, make_input, message", [
    ("h0", _rank_one_with_edge_listed_twice,
     "error: bundle gluing 1: edge 0 is listed twice\n"),
    ("verify", _cert_with_target_edge_listed_twice,
     "error: bundle gluing 1: edge 0 is listed twice\n"),
    ("verify", _cert_with_scalar_edge_listed_twice,
     "error: subbundle scalar 1: edge 0 is listed twice\n"),
], ids=["h0-gluing", "verify-target-gluing", "verify-subbundle-scalar"])
def test_an_edge_listed_twice_ends_in_one_error_line(tmp_path, capsys, verb,
                                                     make_input, message):
    code, out, err = run(capsys, verb, "-i", make_input(tmp_path))
    assert (code, out, err) == (1, "", message)


def _huge_exponent_node(obj):
    obj["curve"]["edges"][0]["pa"] = "1e999999999"


def _huge_exponent_gluing(obj):
    obj["gluings"][0]["matrix"][0][0] = "1e999999999"


def _huge_exponent_everywhere(obj):
    _huge_exponent_node(obj)
    _huge_exponent_gluing(obj)


@pytest.mark.parametrize("edit", [
    _huge_exponent_node, _huge_exponent_gluing, _huge_exponent_everywhere,
], ids=["node", "gluing", "node-and-gluing"])
def test_exponent_spelling_is_refused_at_once(tmp_path, capsys, edit):
    # an exact 10**999999999 would take gigabytes; the parse refuses the
    # spelling before it builds anything
    start = time.perf_counter()
    code, out, err = run(capsys, "decide", "-i", _ex_with(edit)(tmp_path),
                         "--target", "4,0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: not a rational number: '1e999999999'\n"


def test_certify_verify_pipeline(ex_path, tmp_path, capsys):
    code, out, _ = run(capsys, "certify", "-i", ex_path, "--target", "3,1")
    assert code == 0
    cert_obj = json.loads(out)
    assert [s["kind"] for s in cert_obj["steps"]] == \
        ["dominance", "enlarge", "splitoff", "rank1"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code2, out2, _ = run(capsys, "verify", "-i", str(cert_path))
    assert code2 == 0
    assert json.loads(out2) == {"valid": True, "report": []}


def test_certify_refutation_exit_3(ex_path, tmp_path, capsys):
    code, out, _ = run(capsys, "certify", "-i", ex_path, "--target", "4,0")
    assert code == 3
    obj = json.loads(out)
    assert obj["steps"][0]["kind"] == "witness"
    cert_path = tmp_path / "ref.json"
    cert_path.write_text(out)
    code2, out2, _ = run(capsys, "verify", "-i", str(cert_path))
    assert code2 == 0 and json.loads(out2)["valid"] is True


def test_verify_rejects_tampering_exit_3(ex_path, tmp_path, capsys):
    _, out, _ = run(capsys, "certify", "-i", ex_path, "--target", "3,1")
    obj = json.loads(out)
    for step in obj["steps"]:
        if step["kind"] == "splitoff":
            step["subbundle"]["degrees"]["v1+v2"] = 0
    cert_path = tmp_path / "tampered.json"
    cert_path.write_text(dumps(obj))
    code, out2, _ = run(capsys, "verify", "-i", str(cert_path))
    assert code == 3
    payload = json.loads(out2)
    assert payload["valid"] is False and payload["report"]


def test_verify_rejects_a_short_embedding_exit_3(ex_path, tmp_path, capsys):
    # a component with too few coordinate polynomials is reported, and the
    # node checks skip it instead of indexing past the end
    _, out, _ = run(capsys, "certify", "-i", ex_path, "--target", "3,1")
    obj = json.loads(out)
    (step,) = [s for s in obj["steps"] if s["kind"] == "splitoff"]
    emb = step["subbundle"]["embeddings"]
    emb["v2"] = emb["v2"][:1]
    code, out2, err = run(capsys, "verify", "-i", _write(tmp_path, obj))
    assert (code, err) == (3, "")
    assert json.loads(out2) == {"valid": False, "report": [
        "step 2: invalid subbundle: component 'v2': expected 2 coordinates"]}


@pytest.mark.parametrize("edge", [99, -1])
def test_verify_rejects_a_scalar_on_an_edge_the_host_lacks_exit_3(
        ex_path, tmp_path, capsys, edge):
    # the split-off's host has edges 0 and 1, on both sides of the bridge; a
    # scalar recorded on any other edge is reported, not ignored
    _, out, _ = run(capsys, "certify", "-i", ex_path, "--target", "3,1")
    obj = json.loads(out)
    (step,) = [s for s in obj["steps"] if s["kind"] == "splitoff"]
    step["subbundle"]["scalars"].append({"edge": edge, "value": "5"})
    code, out2, err = run(capsys, "verify", "-i", _write(tmp_path, obj))
    assert (code, err) == (3, "")
    assert json.loads(out2) == {"valid": False, "report": [
        "step 2: invalid subbundle: edge %d: the host has no such edge" % edge]}


def _enlarge_edits(rng, cert):
    """Copies of `cert`, each with one field of one enlarge step changed: a
    source coordinate, a `contracted` entry, or a dropped or added source
    edge. Every new number is drawn from 10..19, above every coordinate
    the corpus uses, so each edit changes the step."""
    for k, step in enumerate(cert["steps"]):
        if step["kind"] != "enlarge":
            continue
        for edit in ("coordinate", "contracted", "drop", "add"):
            obj = json.loads(dumps(cert))
            source, con = obj["steps"][k]["source"], obj["steps"][k]["contracted"]
            comps, edges = source["components"], source["edges"]
            if edit == "coordinate":
                rng.choice(edges)[rng.choice(("pa", "pb"))] = str(rng.randint(10, 19))
            elif edit == "contracted":
                others = [v for v in comps if v not in con] + ["zz"]
                if con:
                    con[rng.randrange(len(con))] = rng.choice(others)
                else:
                    con.append(rng.choice(others))
            elif edit == "drop":
                edges.pop(rng.randrange(len(edges)))
            else:
                edges.append({"a": rng.choice(comps), "pa": str(rng.randint(10, 19)),
                              "b": rng.choice(comps), "pb": str(rng.randint(10, 19))})
            yield edit, obj


@pytest.mark.parametrize("field", ["q", "p:1000003"])
def test_verify_rejects_tampered_enlarge_steps(tmp_path, capsys, field):
    # the certificates of a seeded corpus, each with at least one bridge
    rng = random.Random(14)
    fld = field_from_name(field)
    certs = []
    while len(certs) < 8:
        curve = random_tree(rng, rng.randint(2, 3), fld)
        bundle = random_bundle(rng, curve, rng.randint(2, 3), lo=-2, hi=2)
        cert = certificate_to_json(
            certify(bundle, balanced_splitting(bundle.rank, bundle.degree())))
        if any(s["kind"] == "enlarge" and s["contracted"] for s in cert["steps"]):
            certs.append(cert)
    seen = set()
    for cert in certs:
        for edit, obj in _enlarge_edits(rng, cert):
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", "-i", _write(tmp_path, obj),
                                 "--field", field)
            assert time.perf_counter() - start < 1.0
            if code == 1:
                assert out == "" and err.startswith("error:")
                assert len(err.splitlines()) == 1
            else:
                assert (code, err) == (3, "")
                assert json.loads(out)["valid"] is False
            seen.add((edit, code))
    assert {edit for edit, _ in seen} == {"coordinate", "contracted", "drop", "add"}


def _splitoff_edits(rng, cert):
    """Copies of `cert`, each with one field of one splitoff step changed:
    a subbundle scalar, an embedding coefficient, a quotient gluing entry
    or a `qprime` degree. Every new number is drawn from 10..19 and differs
    from the one it replaces."""
    def fresh(old):
        return rng.choice([x for x in range(10, 20) if str(x) != str(old)])

    for k, step in enumerate(cert["steps"]):
        if step["kind"] != "splitoff":
            continue
        for edit in ("scalar", "embedding", "gluing", "qprime"):
            obj = json.loads(dumps(cert))
            split = obj["steps"][k]
            if edit == "scalar":
                scalar = rng.choice(split["subbundle"]["scalars"])
                scalar["value"] = str(fresh(scalar["value"]))
            elif edit == "embedding":
                coords = [c for ps in split["subbundle"]["embeddings"].values()
                          for c in ps if c]
                coord = rng.choice(coords)
                i = rng.randrange(len(coord))
                coord[i] = str(fresh(coord[i]))
            elif edit == "gluing":
                row = rng.choice(rng.choice(split["quotient"]["gluings"])["matrix"])
                i = rng.randrange(len(row))
                row[i] = str(fresh(row[i]))
            else:
                qprime = split["qprime"]
                i = rng.randrange(len(qprime))
                qprime[i] = fresh(qprime[i])
            yield edit, obj


@pytest.mark.parametrize("field", ["q", "p:1000003"])
def test_verify_rejects_tampered_splitoff_steps(tmp_path, capsys, field):
    # the certificates of a seeded corpus on trees, so every pulled-back
    # host and every quotient has a node
    rng = random.Random(15)
    fld = field_from_name(field)
    certs = []
    while len(certs) < 8:
        curve = random_tree(rng, rng.randint(2, 3), fld)
        bundle = random_bundle(rng, curve, rng.randint(2, 3), lo=-2, hi=2)
        certs.append(certificate_to_json(
            certify(bundle, balanced_splitting(bundle.rank, bundle.degree()))))
    seen = set()
    for cert in certs:
        for edit, obj in _splitoff_edits(rng, cert):
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", "-i", _write(tmp_path, obj),
                                 "--field", field)
            assert time.perf_counter() - start < 1.0
            if code == 1:
                assert out == "" and err.startswith("error:")
                assert len(err.splitlines()) == 1
            else:
                assert (code, err) == (3, "")
                assert json.loads(out)["valid"] is False
            seen.add((edit, code))
    assert {edit for edit, _ in seen} == {"scalar", "embedding", "gluing", "qprime"}


def _base_edits(rng, cert):
    """Copies of `cert`, each with one number of one dominance, rank1 or
    witness step changed: one degree moved between two entries of a
    dominance `from` or `to` (the sum kept, the multiset changed), the
    `rank1` degree, a witness multidegree coordinate, `lhs` or `rhs`. Every
    new number is drawn from 10..19 and differs from the one it replaces."""
    def fresh(old):
        return rng.choice([x for x in range(10, 20) if x != old])

    edits = {"dominance": ("from", "to"), "rank1": ("degree",),
             "witness": ("multidegree", "lhs", "rhs")}
    for k, step in enumerate(cert["steps"]):
        for edit in edits.get(step["kind"], ()):
            obj = json.loads(dumps(cert))
            step = obj["steps"][k]
            if edit in ("from", "to"):
                ds = step[edit]
                i, j = rng.sample(range(len(ds)), 2)
                if ds[i] - ds[j] == 1:
                    # moving one from i to j would only swap the two
                    i, j = j, i
                ds[i] -= 1
                ds[j] += 1
            elif edit == "multidegree":
                md = step["multidegree"]
                v = rng.choice(sorted(md))
                md[v] = fresh(md[v])
            else:
                step[edit] = fresh(step[edit])
            yield step["kind"] + ":" + edit, obj


@pytest.mark.parametrize("field", ["q", "p:1000003"])
def test_verify_rejects_tampered_dominance_base_and_witness_steps(
        tmp_path, capsys, field):
    # seeded certificates of both verdicts: balanced sources and sources
    # spread outward, which some trees refute
    rng = random.Random(16)
    fld = field_from_name(field)
    certs = {"yes": [], "no": []}
    while min(map(len, certs.values())) < 4:
        curve = random_tree(rng, rng.randint(2, 3), fld)
        bundle = random_bundle(rng, curve, rng.randint(2, 3), lo=-2, hi=2)
        source = spread(rng, balanced_splitting(bundle.rank, bundle.degree()),
                        rng.randint(0, 4))
        cert = certificate_to_json(certify(bundle, source))
        verdict = "no" if cert["steps"][0]["kind"] == "witness" else "yes"
        certs[verdict].append(cert)
    seen = set()
    for cert in certs["yes"][:4] + certs["no"][:4]:
        for edit, obj in _base_edits(rng, cert):
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", "-i", _write(tmp_path, obj),
                                 "--field", field)
            assert time.perf_counter() - start < 1.0
            if code == 1:
                assert out == "" and err.startswith("error:")
                assert len(err.splitlines()) == 1
            else:
                assert (code, err) == (3, "")
                assert json.loads(out)["valid"] is False
            seen.add((edit, code))
    assert {edit for edit, _ in seen} == {
        "dominance:from", "dominance:to", "rank1:degree", "witness:multidegree",
        "witness:lhs", "witness:rhs"}


@pytest.mark.parametrize("field", ["p:3", "p:5"])
def test_oracle_check_refuses_small_primes(capsys, field):
    # the oracle samples a summand of degree m at 0..m, which repeat mod p
    # once m >= p; the corpus reaches m = 5
    code, out, err = run(capsys, "oracle-check", "--field", field,
                         "--seed", "0", "--cases", "50")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_oracle_check_refuses_a_negative_case_count(capsys):
    code, out, err = run(capsys, "oracle-check", "--cases", "-1")
    assert (code, out, err) == (1, "", "error: --cases -1 is negative\n")
    assert run(capsys, "oracle-check", "--cases", "0") == (
        0, '{"box_mismatches":0,"cases":0,"h0_mismatches":0}\n', "")


# psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on the twelve
# prime bases 2..37; modulo it, the node coordinates 0 and 399165290221 on
# v1 differ by a zero divisor, and elimination met a pivot it could not
# invert, a traceback where the field is now refused by one error line
PSI12_BUNDLE = {
    "curve": {"components": ["v1", "v2", "v3", "v4"],
              "edges": [{"a": "v1", "pa": "0", "b": "v2", "pb": "0"},
                        {"a": "v1", "pa": "399165290221", "b": "v3", "pb": "0"},
                        {"a": "v1", "pa": "798330580442", "b": "v4",
                         "pb": "0"}]},
    "rank": 1,
    "splittings": {"v1": [1], "v2": [-2], "v3": [-2], "v4": [-2]},
    "gluings": [{"edge": i, "matrix": [["1"]]} for i in range(3)]}


def test_a_strong_pseudoprime_is_no_prime_field(tmp_path, capsys):
    path = _write(tmp_path, PSI12_BUNDLE)
    for field in ("q", "p:1000003"):
        assert run(capsys, "h0", "-i", path, "--field", field) == (
            0, '{"h0":0,"h1":4}\n', "")
    for p in ("318665857834031151167461", "3317044064679887385961981"):
        code, out, err = run(capsys, "h0", "-i", path, "--field", "p:" + p)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: " + p)


def test_box_on_a_long_rank_one_chain(tmp_path, capsys):
    n = 1200
    ids = ["c%d" % i for i in range(n)]
    bundle = build_chain(ids, {v: (0,) for v in ids},
                         {i: [[F(1)]] for i in range(n - 1)})
    path = _write(tmp_path, bundle_to_json(bundle))
    # every floor is -1, so the level at their sum holds the floors alone
    code, out, err = run(capsys, "box", "-i", path, "--level", str(-n))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"box": [dict.fromkeys(ids, -1)]}


def _box_by_dumps(bundle, level):
    return dumps({"box": [multidegree_to_json(md)
                          for md in clamp_box(bundle, level)]}) + "\n"


def _odd_ids_chain():
    # ids whose sorted order is not the component order, and ids that
    # JSON escapes or that '%' formatting would read
    ids = ("v10", "v2", "a%d", "\u00e9", 'q"', "b\\")
    return build_chain(ids, {v: (0,) for v in ids},
                       {i: [[F(1)]] for i in range(len(ids) - 1)})


def test_box_streams_the_bytes_dumps_writes(tmp_path, capsys):
    rng = random.Random(43)
    cases = []
    for k in range(24):
        curve = random_tree(rng, rng.randint(1, 5))
        cases.append(random_bundle(rng, curve, rng.randint(1, 3)))
    cases.append(_odd_ids_chain())
    cases.append(make_bundle(TreeCurve(("x",), ()), {"x": (1, -2)}, {}))
    boxes = 0
    for bundle in cases:
        path = _write(tmp_path, bundle_to_json(bundle))
        floors = sum(vanishing_floor(bundle).values())
        # one level below the floors holds an empty box
        for level in (floors - 1, floors, floors + rng.randint(1, 6)):
            code, out, err = run(capsys, "box", "-i", path, "--level",
                                 str(level))
            assert (code, err) == (0, "")
            assert out == _box_by_dumps(bundle, level)
            boxes += out != '{"box":[]}\n'
    assert boxes > 40
    # more entries than one chunk: 17 choose 5 is 6,188
    bundle = _odd_ids_chain()
    path = _write(tmp_path, bundle_to_json(bundle))
    code, out, _ = run(capsys, "box", "-i", path, "--level", "6")
    assert len(json.loads(out)["box"]) > _BOX_CHUNK
    assert (code, out) == (0, _box_by_dumps(bundle, 6))


class _Sink:
    def write(self, text):
        return len(text)


def test_box_memory_does_not_grow_with_the_box(tmp_path):
    # 33,649 entries: the parent built every entry as two dicts and the
    # answer as one string, a peak of about 19 MB
    ids = ["c%d" % i for i in range(6)]
    bundle = build_chain(ids, {v: (0,) for v in ids},
                         {i: [[F(1)]] for i in range(5)})
    path = _write(tmp_path, bundle_to_json(bundle))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Sink()):
            assert main(["box", "-i", path, "--level", "12"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_field_flag_prime(tmp_path, capsys):
    from treebundles.bundle import make_bundle
    from treebundles.curve import Edge, TreeCurve
    from treebundles.fields import PrimeField
    fld = PrimeField(101)
    curve = TreeCurve(("a", "b"), (Edge("a", fld.of(0), "b", fld.of(0)),), fld)
    bundle = make_bundle(curve, {"a": (2, 0), "b": (0, 2)},
                         {0: [[fld.one, fld.zero], [fld.zero, fld.one]]})
    path = tmp_path / "p.json"
    path.write_text(dumps(bundle_to_json(bundle)))
    code, out, _ = run(capsys, "h0", "-i", str(path), "--field", "p:101")
    assert (code, out) == (0, '{"h0":6,"h1":0}\n')


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", "--seed", "3", "--cases", "4")
    assert code == 0
    assert json.loads(out) == {"cases": 4, "h0_mismatches": 0,
                               "box_mismatches": 0}


@pytest.mark.parametrize("verb,option", [("box", "--level"),
                                          ("oracle-check", "--seed"),
                                          ("oracle-check", "--cases")])
def test_an_integer_option_past_the_bound_ends_in_one_error_line(
        ex_path, capsys, verb, option):
    # read by the reader --twist uses: more digits than int() reads, a
    # bound of 10^1000, and trailing junk are each one error line, exit 1,
    # not argparse's usage message and exit 2
    argv = [verb] + (["-i", ex_path] if verb == "box" else [])
    for value in ("9" * 5000, "1" + "0" * 1000, "12abc"):
        code, out, err = run(capsys, *argv, option, value)
        assert (code, out) == (1, "")
        assert err == ("error: %s is not an integer below 10^1000 in "
                       "absolute value\n" % option)
    # one less than the bound is read: no box lies that low, and one case
    # runs under that seed
    value = "-" + "9" * 1000 if verb == "box" else "9" * 1000
    extra = ["--cases", "1"] if option == "--seed" else []
    if option != "--cases":
        code, out, err = run(capsys, *argv, option, value, *extra)
        assert (code, err) == (0, "")
        assert json.loads(out) == ({"box": []} if verb == "box" else
                                   {"cases": 1, "h0_mismatches": 0,
                                    "box_mismatches": 0})


# drawn at k = 2 of the p:7 seed in test_metamorphic.py, with its edges
# reordered: over p:7 decide accepts (3,3,-1), but the first split-off
# leaves a quotient of dmax 2 against the remaining source (3,-1)
P7_SPLIT_OFF = {
    "curve": {"components": ["v1", "v2", "v3", "v4"],
              "edges": [{"a": "v1", "pa": "0", "b": "v2", "pb": "0"},
                        {"a": "v1", "pa": "1", "b": "v4", "pb": "0"},
                        {"a": "v2", "pa": "1", "b": "v3", "pb": "0"}]},
    "rank": 3,
    "splittings": {"v1": [0, 0, 1], "v2": [2, 2, 0], "v3": [1, 1, -2],
                   "v4": [0, 1, -1]},
    "gluings": [
        {"edge": 0, "matrix": [["0", "3", "6"], ["4", "4", "6"], ["5", "1", "0"]]},
        {"edge": 1, "matrix": [["6", "5", "4"], ["6", "1", "5"], ["3", "2", "5"]]},
        {"edge": 2, "matrix": [["2", "3", "3"], ["2", "6", "4"], ["1", "4", "2"]]}],
}


def test_certify_with_no_summand_to_split_off_ends_in_one_error_line(
        tmp_path, capsys):
    path = _write(tmp_path, P7_SPLIT_OFF)
    argv = ["-i", path, "--field", "p:7", "--target", "3,3,-1"]
    code, out, _ = run(capsys, "decide", *argv)
    assert (code, out) == (0, '{"verdict":"yes"}\n')
    code, out, err = run(capsys, "certify", *argv)
    assert (code, out) == (1, "")
    assert err == ("error: certify over p:7: split-off round 2 found a line "
                   "subbundle of degree 2, and the remaining source (3, -1) "
                   "has no summand of that degree\n")


def test_export_dot_curve(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(dumps(curve_to_json(build_ex().curve)))
    code, out, _ = run(capsys, "export-dot", "-i", str(path))
    assert code == 0
    assert out.startswith("graph") and '"v1" -- "v2"' in out


def test_export_dot_bundle(ex_path, capsys):
    code, out, _ = run(capsys, "export-dot", "-i", ex_path)
    assert code == 0
    assert "(2, 0)" in out and "label" in out


def test_export_dot_certificate(ex_path, tmp_path, capsys):
    cert = certify(build_ex(), SplittingType((3, 1)))
    path = tmp_path / "cert.json"
    path.write_text(dumps(certificate_to_json(cert)))
    code, out, _ = run(capsys, "export-dot", "-i", str(path))
    assert code == 0 and out.startswith("digraph")
    code2, _, err = run(capsys, "export-dot", "-i", str(tmp_path / "cert.json"))
    assert code2 == 0
    junk = tmp_path / "junk.json"
    junk.write_text('{"neither": 1}')
    code3, _, err3 = run(capsys, "export-dot", "-i", str(junk))
    assert code3 == 1 and "neither" in err3
    # a refutation is one witness step
    path = _write(tmp_path, certificate_to_json(
        certify(build_ex(), SplittingType((4, 0)))))
    assert run(capsys, "export-dot", "-i", path) == (0, (
        'digraph certificate {\n'
        '  node [shape=box];\n'
        '  claim [label="claim: (4, 0) on P1 to rank 2 bundle on 2 '
        'components"];\n'
        '  step0 [label="failure at {\'v1\': -2, \'v2\': -2}: 0 < 1"];\n'
        '  claim -> step0;\n'
        '}\n'), "")


class _Refusal(ValueError):
    """A ValueError no verb names."""


# each verb, its options past -i, and the first library call it makes
# before it writes, with an error for that call to raise: `main` alone
# turns every ValueError into one error line
_LIBRARY_CALLS = [
    ("h0", (), cli, "h0", BundleError),
    ("h1", (), cli, "h1", CurveError),
    ("dmax", (), cli, "dmax", SubbundleError),
    ("box", ("--level", "0"), cli, "vanishing_floor", SerializeError),
    ("decide", ("--target", "3,1"), cli, "decide", _Refusal),
    ("certify", ("--target", "3,1"), cli, "certify", SubbundleError),
    ("verify", (), cli, "verify_certificate", BundleError),
    ("oracle-check", ("--cases", "1"), cli, "h0_oracle", ValueError),
    ("export-dot", (), dot, "bundle_to_dot", CurveError),
]


@pytest.mark.parametrize("verb,options,module,name,error", _LIBRARY_CALLS,
                         ids=[case[0] for case in _LIBRARY_CALLS])
def test_a_library_error_in_any_verb_ends_in_one_error_line(
        ex_path, tmp_path, capsys, monkeypatch, verb, options, module, name,
        error):
    cert = _write(tmp_path, certificate_to_json(
        certify(build_ex(), SplittingType((3, 1)))))
    inputs = {"verify": ("-i", cert), "oracle-check": ()}.get(
        verb, ("-i", ex_path))

    def refuse(*args):
        raise error("%s refused: 'v1' \u00e9" % name)

    monkeypatch.setattr(module, name, refuse)
    assert run(capsys, verb, *inputs, *options) == (
        1, "", "error: %s refused: 'v1' \u00e9\n" % name)


def test_a_line_argparse_refuses_exits_2_with_its_usage_text(capsys):
    code, out, err = _outcome(capsys, ["dmax"])
    lines = err.splitlines()
    assert (code, out, len(lines)) == (2, "", 2)
    assert lines[0].startswith("usage: treebundles dmax ")
    assert lines[1].startswith("treebundles dmax: error: ")


def test_output_is_byte_stable(ex_path, capsys):
    first = run(capsys, "certify", "-i", ex_path, "--target", "3,1")
    second = run(capsys, "certify", "-i", ex_path, "--target", "3,1")
    assert first == second
    a = run(capsys, "oracle-check", "--seed", "7", "--cases", "3")
    b = run(capsys, "oracle-check", "--seed", "7", "--cases", "3")
    assert a == b


def test_entry_point_subprocess(ex_path):
    # run the children on the same copy of the package the suite imports
    src = str(Path(treebundles.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "treebundles.cli",
                          "dmax", "-i", ex_path],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout == '{"dmax":3,"witness":{"v1":-2,"v2":-2}}\n'
    # run the declared console script the way a generated wrapper does,
    # so no install is needed
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["treebundles"]
    module, attr = target.split(":")
    code = (f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'treebundles'; sys.exit({attr}())")
    script = subprocess.run([sys.executable, "-c", code, "decide",
                             "-i", ex_path, "--target", "2,2"],
                            capture_output=True, text=True, env=env)
    assert script.returncode == 0
    assert script.stdout == '{"verdict":"yes"}\n'


@pytest.mark.skipif(shutil.which("treebundles") is None,
                    reason="treebundles console script not installed")
def test_installed_console_script(ex_path):
    script = subprocess.run(["treebundles", "decide", "-i", ex_path,
                             "--target", "2,2"],
                            capture_output=True, text=True)
    assert script.returncode == 0
    assert script.stdout == '{"verdict":"yes"}\n'


def test_certify_stdout_digest_on_a_seeded_corpus(tmp_path, capsys):
    # canonical certify output, byte for byte, over 30 random bundles per
    # field (n 2-4, rank 2-3, balanced sources); the digest was recorded
    # before the test-only helpers left the library, and it moves if the
    # subbundle search takes a different assembly anywhere in the corpus
    rng = random.Random(11)
    path = tmp_path / "bundle.json"
    digest = hashlib.sha256()
    for name in ("q", "p:1000003"):
        fld = field_from_name(name)
        for _ in range(30):
            curve = random_tree(rng, rng.randint(2, 4), fld)
            bundle = random_bundle(rng, curve, rng.randint(2, 3))
            source = balanced_splitting(bundle.rank, bundle.degree())
            path.write_text(dumps(bundle_to_json(bundle)))
            target = "--target=" + ",".join(map(str, source.degrees))
            code, out, err = run(capsys, "certify", "-i", str(path),
                                 "--field", name, target)
            assert (code, err) == (0, "")
            digest.update(out.encode())
    assert digest.hexdigest() == CERTIFY_CORPUS_DIGEST


def test_certify_stdout_digest_past_the_walk(tmp_path, capsys, monkeypatch):
    # the corpus above is answered by the zero-locus walk alone; these
    # bundles also reach the surgery-free enumeration (the regression
    # chain's quotient, and once per field in the seeded set) and the cut
    # assembly (one seeded bundle), and the digest pins certify's bytes there
    answered = dict.fromkeys(("_bridgeless", "_cut_assembly"), 0)
    for name in answered:
        def counted(*args, _assembly=getattr(subbundles, name), _name=name):
            plan = _assembly(*args)
            answered[_name] += plan is not None
            return plan
        monkeypatch.setattr(subbundles, name, counted)
    bundles = [regression_bundle(), build_swap()]
    rng = random.Random(385)
    for name in ("q", "p:1000003"):
        fld = field_from_name(name)
        for _ in range(10):
            curve = random_tree(rng, rng.randint(2, 4), fld)
            bundles.append(random_bundle(rng, curve, rng.randint(2, 3)))
    path = tmp_path / "bundle.json"
    digest = hashlib.sha256()
    for bundle in bundles:
        source = balanced_splitting(bundle.rank, bundle.degree())
        path.write_text(dumps(bundle_to_json(bundle)))
        target = "--target=" + ",".join(map(str, source.degrees))
        code, out, err = run(capsys, "certify", "-i", str(path),
                             "--field", bundle.field.name, target)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert answered == {"_bridgeless": 3, "_cut_assembly": 1}
    assert digest.hexdigest() == SURGERY_CORPUS_DIGEST
