"""Every stateful per-batch stage of the package runs as a
``KernelStage`` task: no ``map_batches`` call under ``greenex_py_ray/``
starts an actor pool (a class as the mapped callable, constructor
arguments or an actor compute strategy)."""

import ast
import pathlib

import greenex_py_ray

PKG = pathlib.Path(greenex_py_ray.__file__).parent
ACTOR_KWARGS = {"fn_constructor_args", "fn_constructor_kwargs", "compute"}


def _last_name(node) -> str:
    """The last name of a ``Name`` / dotted ``Attribute`` expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def actor_map_batches(source: str, classes: set) -> list:
    """Lines of the ``map_batches`` calls in ``source`` that map a class
    (one of ``classes``, or any CapWords name) or pass an actor-only
    keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and _last_name(node.func) == "map_batches"):
            continue
        fn = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "fn"), None)
        name = _last_name(fn)
        if (name in classes or name[:1].isupper()
                or any(k.arg in ACTOR_KWARGS for k in node.keywords)):
            lines.append(node.lineno)
    return lines


def test_no_map_batches_call_starts_an_actor_pool():
    sources = {f: f.read_text() for f in sorted(PKG.rglob("*.py"))}
    classes = {n.name for s in sources.values() for n in ast.walk(ast.parse(s))
               if isinstance(n, ast.ClassDef)}
    hits = [f"{f.relative_to(PKG.parent)}:{line}"
            for f, s in sources.items()
            for line in actor_map_batches(s, classes)]
    assert not hits, f"actor map_batches stages: {hits}"


def test_checker_flags_each_actor_spelling():
    """The check catches a package class, a dotted CapWords class, a
    class passed as ``fn=`` and constructor kwargs, and passes plain
    task stages."""
    src = ("ds.map_batches(scorer)\n"
           "ds.map_batches(mod.Scorer, batch_format='pandas')\n"
           "ds.map_batches(fn=Tagger)\n"
           "ds.map_batches(fn, fn_constructor_kwargs={})\n"
           "ds.map_batches(_run_kernel, fn_kwargs={})\n"
           "ds.map_batches(lambda b: b)\n")
    assert actor_map_batches(src, {"scorer"}) == [1, 2, 3, 4]
