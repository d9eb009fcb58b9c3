"""The package uses only Ray's public API, so a Ray upgrade cannot break
it through a private module: no module under ``greenex_py_ray/``
imports ``ray.data._internal`` or reads a ``._plan`` attribute (the
private execution plan of a ``Dataset``)."""

import ast
import pathlib

import greenex_py_ray

PKG = pathlib.Path(greenex_py_ray.__file__).parent
PRIVATE = "ray.data._internal"


def private_uses(source: str) -> list:
    """Lines of ``source`` that import from ``ray.data._internal`` or
    read a ``._plan`` attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        if any(n == PRIVATE or n.startswith(PRIVATE + ".") for n in names):
            lines.append(node.lineno)
        if isinstance(node, ast.Attribute) and node.attr == "_plan":
            lines.append(node.lineno)
    return lines


def test_the_check_sees_private_uses():
    assert private_uses(
        "import ray.data._internal.logical as lg\n"
        "from ray.data._internal.plan import ExecutionPlan\n"
        "n = ds._plan.initial_num_blocks()\n"
        "from ray.data import DataContext\n") == [1, 2, 3]


def test_no_module_uses_rays_private_api():
    found = {str(p.relative_to(PKG)): private_uses(p.read_text())
             for p in sorted(PKG.rglob("*.py"))}
    assert {p: lines for p, lines in found.items() if lines} == {}
