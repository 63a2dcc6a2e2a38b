"""Every option in src/qbell has a package caller that sets it.

A defaulted function parameter or dataclass field that no call in the
package passes holds a single value, so it should be a constant.  Calls
are matched to definitions by name: f(...) and obj.f(...) reach every
function, method or class named f, and a class takes the arguments of its
__init__ or its dataclass fields.  An argument counts only when it is not
itself an unset option passed along: a defaulted parameter of the calling
function, or a field read through a parameter annotated with its
dataclass.
"""

import ast
import os

from helpers import SRC

PKG = os.path.join(SRC, "qbell")

# options no package call sets, each with the reason it stays
ALLOWED = {
    "cli.main.argv": "console entry point: the command line supplies argv",
    "protocol.Transcript.msgs": "filled tag by tag as the iteration is played",
    "protocol.Transcript.outcome": "set by assignment when the iteration is judged",
}


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_dataclass(cls):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


class _Scan(ast.NodeVisitor):
    def __init__(self, module):
        self.module = module
        self.defs = []  # (callable name, qualified id, parameter names, defaulted names)
        self.calls = []  # (call node, enclosing class, enclosing function's def)
        self.fields = {}  # dataclass name -> qualified id prefix
        self._cls = self._fn = None

    def visit_ClassDef(self, node):
        outer, self._cls = self._cls, node
        if _is_dataclass(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)]
            qual = f"{self.module}.{node.name}"
            self.fields[node.name] = qual
            self.defs.append((node.name, qual, [s.target.id for s in fields],
                              {s.target.id for s in fields if s.value is not None}))
        self.generic_visit(node)
        self._cls = outer

    def visit_FunctionDef(self, node):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        static = any(_name(d) == "staticmethod" for d in node.decorator_list)
        if self._cls is not None and not static:
            positional = positional[1:]
        defaulted = {a.arg for a in (args.posonlyargs + args.args)[-len(args.defaults):]
                     } if args.defaults else set()
        defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d}
        owner = f"{self.module}.{self._cls.name}" if self._cls else self.module
        qual = f"{owner}.{node.name}"
        names = [node.name] + ([self._cls.name] if node.name == "__init__" else [])
        for name in names:
            self.defs.append((name, qual, positional, defaulted))
        outer, self._fn = self._fn, (node, qual, defaulted)
        self.generic_visit(node)
        self._fn = outer

    def visit_Call(self, node):
        self.calls.append((node, self._cls, self._fn))
        self.generic_visit(node)


def _scan():
    scans = []
    for fname in sorted(os.listdir(PKG)):
        if fname.endswith(".py"):
            with open(os.path.join(PKG, fname)) as f:
                scan = _Scan(fname[:-3])
                scan.visit(ast.parse(f.read()))
                scans.append(scan)
    return scans


def _source(expr, fn, fields):
    """The option expr forwards from the calling function, or None."""
    if fn is None:
        return None
    node, qual, defaulted = fn
    if isinstance(expr, ast.Name) and expr.id in defaulted:
        return f"{qual}.{expr.id}"
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        ann = next((a.annotation for a in params if a.arg == expr.value.id), None)
        if ann is not None and _name(ann) in fields:
            return f"{fields[_name(ann)]}.{expr.attr}"
    return None


def unset_options():
    scans = _scan()
    defs = [d for s in scans for d in s.defs]
    fields = {k: v for s in scans for k, v in s.fields.items()}
    options = {f"{qual}.{p}" for _, qual, _, defaulted in defs for p in defaulted}
    passes = []  # (option, option it forwards or None)
    for scan in scans:
        for call, cls, fn in scan.calls:
            callee = _name(call.func)
            if callee == "cls" and cls is not None:
                callee = cls.name
            star = any(isinstance(a, ast.Starred) for a in call.args) or \
                any(k.arg is None for k in call.keywords)
            for name, qual, positional, defaulted in defs:
                if name != callee:
                    continue
                given = dict(zip(positional, call.args))
                given.update((k.arg, k.value) for k in call.keywords if k.arg)
                for p in defaulted:
                    if star:
                        passes.append((f"{qual}.{p}", None))
                    elif p in given:
                        passes.append((f"{qual}.{p}", _source(given[p], fn, fields)))
    set_ = set()
    grew = True
    while grew:
        grew = False
        for option, source in passes:
            if option not in set_ and (source is None or source in set_):
                set_.add(option)
                grew = True
    return options - set_


def test_every_option_is_set_by_a_caller():
    assert sorted(unset_options() - ALLOWED.keys()) == []


def test_allowlist_names_unset_options():
    # an entry whose option is gone or now set by a caller is stale
    assert sorted(ALLOWED.keys() - unset_options()) == []
