"""Function-level reachability of the ``greenex_py_ray`` package.

Walks the AST from the roots: the public API names (``_API_NAMES`` in
``greenex_py_ray/__init__.py``), ``__ray_entry__.py`` (and through it
``pipelines/driver_queries.py``), ``bench.py``, ``perfbench/*.py`` and
``tools/*.py``.  A top-level ``def``/``class`` is reached when a reached
body names it; a reached module's module-level code is a reached body.
Every ``Name``, ``Attribute`` and import alias counts as a use: a name
resolves through the module's own defs and its imports, and an
attribute of anything but a module resolves to every def of that name.
So the walk can miss dead code, but it never flags live code.

Every name a root imports from the package, or reads off a package
module, is resolved by importing it; one that does not resolve stops
the walk with an error.

Then the parameters: for every reached top-level function and class
``__init__`` (the public API functions excepted: their parameters are
the interface), the defaulted parameters that no call in a reached body
passes, by keyword or by position.  A call's callee resolves the way a
name does above.  ``KernelStage(cls, dict(...))`` passes the mapping's
keys to ``cls``; a Ray map (``map_batches`` & co.) passes its batch, its
``fn_args`` and its ``fn_kwargs`` to its function (through a
``functools.partial`` too), and ``f.remote(...)`` /
``f.options(...).remote(...)`` call ``f``.  A ``*args``, a ``**kw`` or a
mapping that is not a literal passes every parameter, and so does any
other use of a def as a value: a def that escapes may be called with
anything.  Like the walk, the pass can miss an unset parameter but
never reports one that a call sets.

Prints the unreached top-level defs, the unset parameters, the LoC
reachable from ``greenex_py_ray.api`` (core) and the LoC only the gates
and tools reach (gate-only).

Usage: python tools/reachability.py
"""

from __future__ import annotations

import ast
import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "greenex_py_ray"


class Module:
    def __init__(self, name: str, path: str, is_pkg: bool):
        self.name, self.path, self.is_pkg = name, path, is_pkg
        with open(path) as f:
            src = f.read()
        self.n_lines = len(src.splitlines())
        self.tree = ast.parse(src, path)
        self.defs = {}
        self.top = []  # module-level code: runs on import
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.defs[node.name] = node
                self.top += node.decorator_list + getattr(node, "bases", [])
                if not isinstance(node, ast.ClassDef):
                    self.top += [d for d in node.args.defaults
                                 + node.args.kw_defaults if d is not None]
            else:
                self.top.append(node)
        self.bindings: dict[str, list] = {}


def def_lines(node) -> int:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return node.end_lineno - first + 1


class Index:
    def __init__(self):
        self.mods: dict[str, Module] = {}
        for d, _, files in os.walk(os.path.join(ROOT, PKG)):
            for f in files:
                if f.endswith(".py"):
                    rel = os.path.relpath(os.path.join(d, f), ROOT)[:-3]
                    parts = rel.split(os.sep)
                    is_pkg = parts[-1] == "__init__"
                    name = ".".join(parts[:-1] if is_pkg else parts)
                    self.mods[name] = Module(name, os.path.join(ROOT, rel + ".py"),
                                             is_pkg)
        self.roots = [self._add_root(p) for p in root_files()]
        self.by_name: dict[str, list[tuple[str, str]]] = {}
        for m in self.mods.values():
            if m.name not in self.roots:
                for n in m.defs:
                    self.by_name.setdefault(n, []).append((m.name, n))
            self._bind(m)

    def _add_root(self, path: str) -> str:
        name = os.path.relpath(path, ROOT)[:-3].replace(os.sep, ".")
        self.mods[name] = m = Module(name, path, False)
        # a script runs as a whole: its defs are roots too
        m.top = [m.tree]
        return name

    def _base(self, m: Module, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        parts = m.name.split(".")
        if not m.is_pkg:
            parts = parts[:-1]
        parts = parts[:len(parts) - node.level + 1]
        return ".".join(parts + ([node.module] if node.module else []))

    def _bind(self, m: Module) -> None:
        for node in ast.walk(m.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    top = a.name.split(".")[0]
                    m.bindings.setdefault(a.asname or top, []).append(
                        ("mod", a.name if a.asname else top))
            elif isinstance(node, ast.ImportFrom):
                base = self._base(m, node)
                for a in node.names:
                    if a.name == "*":  # its names could not be resolved
                        raise SystemExit(f"{m.path}: star import from {base}")
                    sub = f"{base}.{a.name}"
                    tgt = ("mod", sub) if sub in self.mods else ("name", base, a.name)
                    m.bindings.setdefault(a.asname or a.name, []).append(tgt)

    # -- resolution ---------------------------------------------------
    def resolve(self, tgt, seen=None) -> list:
        """A binding → the modules and defs it names."""
        if tgt[0] == "mod":
            return [tgt] if tgt[1] in self.mods else []
        _, mod, name = tgt
        if mod not in self.mods:
            return []
        m = self.mods[mod]
        out = [("mod", mod)]
        if name in m.defs:
            out.append(("def", mod, name))
        seen = seen or set()
        if (mod, name) not in seen:
            seen.add((mod, name))
            for b in m.bindings.get(name, []):
                out += self.resolve(b, seen)
        return out

    def as_module(self, m: Module, expr) -> str | None:
        if isinstance(expr, ast.Name):
            for b in m.bindings.get(expr.id, []):
                if b[0] == "mod" and b[1] in self.mods:
                    return b[1]
            return None
        if isinstance(expr, ast.Attribute):
            base = self.as_module(m, expr.value)
            if base and f"{base}.{expr.attr}" in self.mods:
                return f"{base}.{expr.attr}"
        return None

    def uses(self, m: Module, body) -> list:
        """Every module and def that the nodes in ``body`` name."""
        out = []
        for root in body:
            for node in ast.walk(root):
                if isinstance(node, ast.Name):
                    if node.id in m.defs:
                        out.append(("def", m.name, node.id))
                    for b in m.bindings.get(node.id, []):
                        out += self.resolve(b)
                elif isinstance(node, ast.Attribute):
                    mod = self.as_module(m, node.value)
                    if mod is not None:
                        got = self.resolve(("name", mod, node.attr))
                        if len(got) > 1 or f"{mod}.{node.attr}" in self.mods:
                            out += got + [("mod", f"{mod}.{node.attr}")]
                            continue
                    out += [("def",) + d for d in self.by_name.get(node.attr, [])]
                elif isinstance(node, ast.Import):
                    out += [("mod", a.name) for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = self._base(m, node)
                    for a in node.names:
                        out += [("mod", f"{base}.{a.name}")] + self.resolve(
                            ("name", base, a.name))
        return [u for u in out if u[0] == "def" or u[1] in self.mods]

    # -- the walk -----------------------------------------------------
    def walk(self, roots: list) -> tuple[set, set]:
        """Fixed point from ``roots`` → (reached modules, reached defs)."""
        mods, defs = set(), set()
        todo = list(roots)
        while todo:
            u = todo.pop()
            if u[0] == "mod":
                name = u[1]
                if name in mods or name not in self.mods:
                    continue
                mods.add(name)
                parts = name.split(".")
                todo += [("mod", ".".join(parts[:i])) for i in range(1, len(parts))]
                m = self.mods[name]
                todo += self.uses(m, m.top)
                # module hooks (``__getattr__``) run on the module's behalf
                todo += [("def", name, d) for d in m.defs
                         if d.startswith("__") and d.endswith("__")]
            else:
                key = (u[1], u[2])
                if key in defs:
                    continue
                defs.add(key)
                todo.append(("mod", u[1]))
                m = self.mods[u[1]]
                todo += self.uses(m, [m.defs[u[2]]])
        return mods, defs

    def api_roots(self) -> list:
        init = self.mods[PKG]
        names = []
        for node in init.tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", "") == "_API_NAMES"
                            for t in node.targets)):
                names = [e.value for e in node.value.elts]
        if not names:
            raise SystemExit(f"{PKG}._API_NAMES not found")
        return [("mod", PKG), ("mod", f"{PKG}.api")] + [
            ("def", f"{PKG}.api", n) for n in names]

    def check_roots(self) -> None:
        """Import every package name a root file uses; raise on any that
        does not resolve."""
        missing = []
        for r in self.roots:
            m = self.mods[r]
            for node in ast.walk(m.tree):
                pairs = []
                if isinstance(node, ast.ImportFrom):
                    base = self._base(m, node)
                    pairs = [(base, a.name) for a in node.names]
                elif isinstance(node, ast.Attribute):
                    mod = self.as_module(m, node.value)
                    if mod:
                        pairs = [(mod, node.attr)]
                for mod, name in pairs:
                    if not mod.startswith(PKG):
                        continue
                    try:
                        obj = importlib.import_module(mod)
                    except ImportError as e:
                        missing.append(f"{m.path}: {mod} ({e})")
                        continue
                    if (not hasattr(obj, name)
                            and f"{mod}.{name}" not in self.mods):
                        missing.append(f"{m.path}:{node.lineno}: {mod}.{name}")
        if missing:
            raise ImportError("root names that do not resolve:\n  "
                              + "\n  ".join(missing))


#: Ray methods that call their first argument on each batch or group
#: (and executors' ``map``, which call it with one item per iterable)
RAY_MAPS = {"map_batches", "map_groups", "map", "flat_map", "filter"}
ALL = "*"  # every parameter passed


class Calls:
    """The parameters that the calls in the reached bodies pass to each
    package def: ``passed[(module, def)]`` is a set of keyword names
    and positional indexes, or :data:`ALL`."""

    def __init__(self, idx: Index, mods: set, defs: set):
        self.idx = idx
        self.passed: dict[tuple, object] = {}
        for name in mods:
            m = idx.mods[name]
            body = m.top + [node for d, node in m.defs.items()
                            if (name, d) in defs]
            self.done: set = set()  # expressions already read as callees
            nodes = [n for root in body for n in ast.walk(root)]
            for node in nodes:
                if isinstance(node, ast.Call):
                    self._call(m, node)
            for node in nodes:
                if (isinstance(node, (ast.Name, ast.Attribute))
                        and id(node) not in self.done):
                    for d in self.targets(m, node):
                        self.passed[d] = ALL

    def targets(self, m: Module, expr) -> list:
        """The package defs that ``expr`` names (see :meth:`Index.uses`)."""
        idx = self.idx
        if isinstance(expr, ast.Name):
            got = [("def", m.name, expr.id)] if expr.id in m.defs else []
            for b in m.bindings.get(expr.id, []):
                got += idx.resolve(b)
        elif isinstance(expr, ast.Attribute):
            mod = idx.as_module(m, expr.value)
            got = []
            if mod is not None:
                got = idx.resolve(("name", mod, expr.attr))
                if len(got) > 1 or f"{mod}.{expr.attr}" in idx.mods:
                    return [g[1:] for g in got if g[0] == "def"]
            got = [("def",) + d for d in idx.by_name.get(expr.attr, [])]
        else:
            return []
        return [g[1:] for g in got if g[0] == "def"]

    def _pass(self, defs, npos, keys) -> None:
        for d in defs:
            cur = self.passed.setdefault(d, set())
            if cur is ALL or keys is ALL:
                self.passed[d] = ALL
            else:
                cur.update(range(npos), keys)

    @staticmethod
    def _mapping(expr):
        """The keys of a literal ``dict(k=...)`` / ``{"k": ...}``, else
        :data:`ALL`."""
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
                and expr.func.id == "dict" and not expr.args
                and all(k.arg for k in expr.keywords)):
            return {k.arg for k in expr.keywords}
        if isinstance(expr, ast.Dict) and all(
                isinstance(k, ast.Constant) and isinstance(k.value, str)
                for k in expr.keys):
            return {k.value for k in expr.keys}
        return ALL

    @staticmethod
    def _arg(call: ast.Call, pos: int, name: str):
        if len(call.args) > pos and not isinstance(call.args[pos],
                                                   ast.Starred):
            return call.args[pos]
        return next((k.value for k in call.keywords if k.arg == name), None)

    def _callee(self, m: Module, expr) -> list:
        """The defs that ``expr`` names, marking it read as a callee."""
        self.done.add(id(expr))
        return self.targets(m, expr)

    def _call(self, m: Module, call: ast.Call) -> None:
        func = call.func
        spread = (any(isinstance(a, ast.Starred) for a in call.args)
                  or any(k.arg is None for k in call.keywords))
        keys = ALL if spread else {k.arg for k in call.keywords}
        if isinstance(func, ast.Attribute) and func.attr == "remote":
            base = func.value
            if (isinstance(base, ast.Call)
                    and isinstance(base.func, ast.Attribute)
                    and base.func.attr == "options"):
                base = base.func.value
            self._pass(self._callee(m, base), len(call.args), keys)
        elif isinstance(func, ast.Attribute) and func.attr in RAY_MAPS:
            self._ray_map(m, call)
        callees = self._callee(m, func)
        self._pass(callees, len(call.args), keys)
        if any(d[1] == "KernelStage" and d[0].endswith(".joins")
               for d in callees):
            cls, kw = self._arg(call, 0, "cls"), self._arg(call, 1, "kwargs")
            if cls is not None and kw is not None:
                self._pass(self._callee(m, cls), 0, self._mapping(kw))

    def _ray_map(self, m: Module, call: ast.Call) -> None:
        fn = self._arg(call, 0, "fn")
        if fn is None:
            return
        npos, keys = max(1, len(call.args) - 1), set()
        kw = {k.arg: k.value for k in call.keywords}
        if "fn_args" in kw:
            a = kw["fn_args"]
            if not isinstance(a, (ast.Tuple, ast.List)):
                keys = ALL
            else:
                npos += len(a.elts)
        if "fn_kwargs" in kw and keys is not ALL:
            keys = self._mapping(kw["fn_kwargs"])
        if (isinstance(fn, ast.Call) and fn.args
                and any(b in (("mod", "functools"),
                              ("name", "functools", "partial"))
                        for b in self._bindings(m, fn.func))):
            if any(isinstance(a, ast.Starred) for a in fn.args[1:]) or any(
                    k.arg is None for k in fn.keywords):
                keys = ALL
            elif keys is not ALL:
                keys |= {k.arg for k in fn.keywords}
            npos += len(fn.args) - 1
            fn = fn.args[0]
        elif kw.keys() & {"fn_constructor_args", "fn_constructor_kwargs"}:
            keys = ALL  # a class: its constructor is called with these
        self._pass(self._callee(m, fn), npos, keys)

    @staticmethod
    def _bindings(m: Module, expr) -> list:
        if isinstance(expr, ast.Name):
            return m.bindings.get(expr.id, [])
        if isinstance(expr, ast.Attribute) and expr.attr == "partial":
            return Calls._bindings(m, expr.value)
        return []


def signature(node) -> "ast.arguments | None":
    """The arguments of a function, or of a class's own ``__init__``."""
    if isinstance(node, ast.ClassDef):
        node = next((n for n in node.body if isinstance(n, ast.FunctionDef)
                     and n.name == "__init__"), None)
    return node.args if node is not None else None


def unset_params(idx: Index, mods: set, defs: set, skip: set) -> list[str]:
    """``module.def(param)`` of every defaulted parameter of a reached
    package def (not in ``skip``) that no reached call passes."""
    calls = Calls(idx, mods, defs)
    out = []
    for mod, name in sorted(defs):
        if mod.split(".")[0] != PKG or (mod, name) in skip:
            continue
        args = signature(idx.mods[mod].defs[name])
        if args is None:
            continue
        passed = calls.passed.get((mod, name), set())
        if passed is ALL:
            continue
        pos = args.posonlyargs + args.args
        if isinstance(idx.mods[mod].defs[name], ast.ClassDef):
            pos = pos[1:]  # self
        params = [(a.arg, i) for i, a in enumerate(pos)
                  if i >= len(pos) - len(args.defaults)]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults)
                   if d is not None]
        out += [f"{mod}.{name}({p})" for p, i in params
                if p not in passed and i not in passed]
    return out


def root_files() -> list[str]:
    out = [os.path.join(ROOT, f) for f in ("bench.py", "__ray_entry__.py")]
    for d in ("perfbench", "tools"):
        out += sorted(os.path.join(ROOT, d, f)
                      for f in os.listdir(os.path.join(ROOT, d))
                      if f.endswith(".py"))
    return out


def report() -> dict:
    """``unreached`` ({module.def: lines}), ``unset`` (parameters, see
    :func:`unset_params`), ``core``, ``gate_only`` and ``package`` LoC."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    idx = Index()
    idx.check_roots()
    pkg = [n for n in idx.mods if n.split(".")[0] == PKG]
    live_mods, live = idx.walk([("mod", r) for r in idx.roots]
                               + idx.api_roots())
    core_mods, core = idx.walk(idx.api_roots())

    def loc(mods, reached) -> int:
        return sum(idx.mods[n].n_lines
                   - sum(def_lines(node) for d, node in idx.mods[n].defs.items()
                         if (n, d) not in reached)
                   for n in mods)

    unreached = {f"{n}.{d}": def_lines(node)
                 for n in sorted(pkg)
                 for d, node in idx.mods[n].defs.items() if (n, d) not in live}
    core_loc = loc([n for n in core_mods if n in pkg], core)
    api = {d[1:] for d in idx.api_roots() if d[0] == "def"}
    return dict(unreached=unreached,
                unset=unset_params(idx, live_mods, live, api), core=core_loc,
                gate_only=loc(pkg, live) - core_loc,
                package=sum(idx.mods[n].n_lines for n in pkg))


def main() -> None:
    r = report()
    for name, n in r["unreached"].items():
        print(f"{n:5d}  {name}")
    print(f"unreached: {len(r['unreached'])} defs, "
          f"{sum(r['unreached'].values())} lines")
    for name in r["unset"]:
        print(f"unset  {name}")
    print(f"unset: {len(r['unset'])} parameters")
    print(f"core LoC (reachable from {PKG}.api): {r['core']}")
    print(f"gate-only LoC: {r['gate_only']}")
    print(f"package LoC: {r['package']}")


if __name__ == "__main__":
    main()
