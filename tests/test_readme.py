"""README guard: the Quick start runs as documented and the package root
exports exactly the names README lists."""
import ast
import inspect
import re
from pathlib import Path

import treebundles

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    return README.split("## %s\n" % title, 1)[1].split("\n## ", 1)[0]


def _quick_start():
    return re.search(r"```python\n(.*?)```", _section("Quick start"), re.S).group(1)


def test_quick_start_prints_its_commented_results():
    source = _quick_start()
    lines = source.splitlines()
    scope, results = {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), scope)
            results[lines[node.end_lineno - 1].split("#", 1)[1].strip()] = value
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), scope)
    assert list(results) == ["(6, 0)", "True",
                             "no: witness twist {v1: -2, v2: -2}", "(True, [])"]
    assert results["(6, 0)"] == (6, 0)
    assert results["True"] is True
    refused = results["no: witness twist {v1: -2, v2: -2}"]
    assert not refused.yes
    assert refused.witness.multidegree == {"v1": -2, "v2": -2}
    assert results["(True, [])"] == (True, [])


def test_package_root_exports_the_documented_names():
    spans = re.findall(r"`([^`]+)`", _section("What it computes"))
    listed = {re.match(r"\w*", s).group(0) for s in spans
              if not s.startswith("treebundles")}
    imports = {alias.name for node in ast.parse(_quick_start()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {"h0", "dmax", "certify", "saturate", "PrimeField"} <= listed
    for name in listed | imports:
        assert hasattr(treebundles, name), name
    exported = {name for name, obj in vars(treebundles).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == listed | imports
