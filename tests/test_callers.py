"""Every top-level name in src/qbell has a package caller.

A function, class or constant that no package code names is run by the
tests alone, or by nothing, and belongs in the tests (tests/helpers.py).
A name counts as used when package code outside its own definition names
it, as a bare name or as an attribute, read rather than assigned.  Names
are matched to definitions by name across modules, as imports bind them.
A use inside another top-level definition counts only while that
definition is itself used, so the scan drops unused names until none is
left to drop.  Module-level statements that define nothing (imports, the
__main__ guard) always run.  Dunder names such as __version__ are read by
the interpreter and by packaging tools, not by package code.
"""

import ast
import os

from helpers import SRC

PKG = os.path.join(SRC, "qbell")

# top-level names no package code uses, each with the reason it stays
ALLOWED = {
    "circuits.run_two_branch": "bench/layers.py traces it as the scalar engine's entry point",
}


def _read_names(node):
    """Names node reads: bare names and attribute names in load context."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _defined(stmt):
    """Top-level names a module statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _scan():
    """({module.name: (name, names its definition reads)}, names the
    module-level statements that define nothing read)."""
    defs, always = {}, set()
    for fname in sorted(os.listdir(PKG)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PKG, fname)) as f:
            tree = ast.parse(f.read())
        for stmt in tree.body:
            defined = _defined(stmt)
            if not defined:
                always |= _read_names(stmt)
            for name in defined:
                if not name.startswith("__"):
                    defs[f"{fname[:-3]}.{name}"] = (name, _read_names(stmt))
    return defs, always


def unused_names():
    defs, always = _scan()
    live = set(defs)
    while True:
        kept = {q for q in live if defs[q][0] in always
                or any(defs[q][0] in defs[o][1] for o in live if o != q)}
        if kept == live:
            return set(defs) - live
        live = kept


def test_every_name_has_a_package_caller():
    assert sorted(unused_names() - ALLOWED.keys()) == []


def test_allowlist_names_unused_names():
    # an entry whose name is gone or now used by the package is stale
    assert sorted(ALLOWED.keys() - unused_names()) == []
