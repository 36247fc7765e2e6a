"""Command line surface: verbs, flags, exit codes, byte-stable output."""
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import treebundles
from treebundles.cli import main
from treebundles.serialize import (bundle_to_json, certificate_to_json,
                                   curve_to_json, dumps)
from treebundles.specialize import certify
from treebundles.splitting import SplittingType

from conftest import build_chain, build_ex


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


def test_h1_verb(ex_path, capsys):
    code, out, _ = run(capsys, "h1", "-i", ex_path, "--twist", "v1:-2,v2:-2")
    assert (code, out) == (0, '{"h1":2}\n')


def test_twist_defaults_unmentioned_components_to_zero(ex_path, capsys):
    code, out, _ = run(capsys, "h0", "-i", ex_path, "--twist", "v1:-3")
    twisted = json.loads(out)
    assert code == 0 and twisted == {"h0": 2, "h1": 2}


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
    code, out, _ = run(capsys, "decide", "-i", ex_path, "--target", "3,2")
    assert code == 2
    assert "error" in json.loads(out)
    code2, _, _ = run(capsys, "decide", "-i", ex_path, "--target", "2,1,1")
    assert code2 == 2


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


def test_bad_target_flag_exit_1(ex_path, capsys):
    code, _, err = run(capsys, "decide", "-i", ex_path, "--target", "3;1")
    assert code == 1 and "target" in err


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
], ids=["field-p9", "field-px", "field-p2", "int-gluing-entry",
        "int-embedding-entry", "zero-denominator-node-mod-7",
        "box-level-100000", "boolean-rank-and-edge", "boolean-lhs"])
def test_bad_input_ends_in_one_error_line(tmp_path, capsys, verb, make_input,
                                          flags):
    code, out, err = run(capsys, verb, "-i", make_input(tmp_path), *flags)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


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
