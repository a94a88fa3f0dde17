"""Dead-code guard: every name of the package has a caller in the package.

Four rules, each over the sources of src/perifsi alone, so a use in a test
or in perfbench keeps nothing:

* every module-level function, class and UPPER_CASE constant is loaded
  outside the lines of its own definition (for a constant, the lines of
  its assignment) by a load that resolves to it: a name load in its own
  module that no local binding shadows, a name load of its alias from
  `from .module import name` (with or without `as`), or an attribute load
  `module.name` on a name bound to its module;
* every method and property is read as an attribute (`x.name`) outside
  its own definition; for a name that dict, list or np.ndarray also
  defines, only a read on the receiver `self`, `cls` or the class's own
  name counts, so a container read such as `sample.items()` keeps no
  method `items`;
* every parameter whose default is True or False is passed by keyword,
  with a value other than that literal, outside its own definition;
* every parameter with a default is passed, by keyword or by position, by
  some call of its function's name outside its own definition.

Uses are read from the syntax tree, so a mention in a docstring, a comment
or a string is not a use, and neither is an import: a re-export in
__init__.py keeps nothing.  A module-level name is resolved through the
scopes of each load (function, lambda, comprehension and class bodies, with
`global` declarations), so a local variable or an attribute of another
object that shares its name keeps nothing.  The other rules match by name
only: a method whose name another class's method shares (outside the
container names), or a parameter passed to another function of the same
name, passes trivially.  Dunder methods are called by the language and are
not checked.  A name that the rules report and that
stays on purpose is an entry of EXCEPTIONS, with its reason; an entry that
no rule reports any more (the name is gone, or it has gained a caller in
the package) fails the guard.
"""

import ast
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "perifsi"

EXCEPTIONS = {
    "geometry.check_injectivity":
        "perfbench/spans.py wraps it by name as the geometry.check_injectivity "
        "span; it goes together with that span",
    "cli.main(argv=)":
        "the console script calls main() with no arguments; perfbench/child.py "
        "and the tests pass argv",
    "extension_ops.ExtensionOperator.extend":
        "list defines extend too, and the package reads it as "
        "basis.ext_op.extend, on a receiver the method rule does not resolve",
}


def _package_trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _module_level_names(tree):
    """(name, definition node) of each module-level function, class and
    UPPER_CASE constant of a parsed module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id):
                    yield target.id, node


def _outside(module, node, m, i):
    """Whether line index i of module m lies outside node of module."""
    return not (m == module and node.lineno - 1 <= i < node.end_lineno)


def _attribute_loads(trees):
    """(module, line index, name, receiver) of every attribute load
    (`x.name`); the receiver is the name x, or None when x is not a name."""
    return [(m, node.lineno - 1, node.attr, getattr(node.value, "id", None))
            for m, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _in_package(dotted):
    """The module path of a dotted name inside perifsi ("" for the package
    itself), None for a name outside it."""
    head, _, rest = (dotted or "").partition(".")
    return rest if head == "perifsi" else None


def _imported(node):
    """{bound name: origin} of an import statement.  The origin is
    ("name", module, name) for a name of a package module, ("module",
    module) for a package module itself, and None for anything else."""
    out = {}
    for alias in node.names:
        origin = None
        if isinstance(node, ast.ImportFrom):
            source = {0: _in_package(node.module), 1: node.module or ""}.get(node.level)
            if source is not None:
                origin = ("name", source, alias.name) if source else ("module", alias.name)
        elif alias.asname and _in_package(alias.name):
            origin = ("module", _in_package(alias.name))
        out[alias.asname or alias.name.split(".")[0]] = origin
    return out


def _params(args):
    """The parameters (ast.arg) of a def's or a lambda's arguments."""
    return [a for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if a]


def _outer_parts(scope):
    """The parts of a nested scope's node that its enclosing scope
    evaluates: decorators, bases, defaults, annotations and a
    comprehension's first iterable."""
    if isinstance(scope, ast.ClassDef):
        return scope.decorator_list + scope.bases + [k.value for k in scope.keywords]
    if not hasattr(scope, "args"):
        return [scope.generators[0].iter]
    args = scope.args
    outer = args.defaults + [d for d in args.kw_defaults if d]
    if isinstance(scope, ast.Lambda):
        return outer
    return (outer + scope.decorator_list + [scope.returns]
            + [a.annotation for a in _params(args)])


def _bindings(scope, module):
    """{name: origin} of the names a scope binds (see _imported).  A module
    binds its own names to ("name", module, name), any other scope to
    None; `global` and `nonlocal` names are not bound."""
    own = isinstance(scope, ast.Module)
    args = getattr(scope, "args", None)
    bound = {a.arg: None for a in _params(args)} if isinstance(args, ast.arguments) else {}
    declared = set()
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        name = None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.ExceptHandler):
            name = node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(_imported(node))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if name:
            bound[name] = ("name", module, name) if own else None
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return {k: v for k, v in bound.items() if k not in declared}


def _resolved_loads(module, tree):
    """(line index, module, name) of every load of a parsed package module
    that resolves to a module-level name: each name load through its
    scopes, and each attribute load `x.name` on a name x bound to a package
    module.  A name no scope binds is the module's own (or a builtin)."""
    out, done = [], set()

    def lookup(chain, name):
        # a class body's names are not visible in the scopes it holds
        for depth, (is_class, bound) in enumerate(reversed(chain)):
            if name in bound and not (is_class and depth):
                return bound[name]
        return ("name", module, name)

    def visit(node, chain):
        if id(node) in done:
            return
        load = isinstance(getattr(node, "ctx", None), ast.Load)
        if isinstance(node, ast.Name) and load:
            origin = lookup(chain, node.id)
            if origin and origin[0] == "name":
                out.append((node.lineno - 1, origin[1], origin[2]))
        elif isinstance(node, ast.Attribute) and load and isinstance(node.value, ast.Name):
            origin = lookup(chain, node.value.id)
            if origin and origin[0] == "module":
                out.append((node.lineno - 1, origin[1], node.attr))
        if isinstance(node, _SCOPES):
            for part in _outer_parts(node):
                if part is not None:
                    visit(part, chain)
                    done.add(id(part))
            chain = chain + ((isinstance(node, ast.ClassDef), _bindings(node, module)),)
        for child in ast.iter_child_nodes(node):
            visit(child, chain)

    visit(tree, ((False, _bindings(tree, module)),))
    return out


def _functions(tree):
    """(def node, enclosing class or None) of every module-level function and
    every method of a parsed module."""
    yield from ((node, None) for node in tree.body if isinstance(node, ast.FunctionDef))
    yield from ((item, cls) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for item in cls.body if isinstance(item, ast.FunctionDef))


def _defaulted(node):
    """(parameter, position or None for keyword-only, default node) of every
    parameter of a def with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i, d) for i, (a, d) in enumerate(zip(positional[first:], args.defaults),
                                                    start=first)]
    out += [(a.arg, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    return out


def _calls(trees):
    """(module, line index, called name, call node) of every call."""
    out = []
    for m, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.append((m, node.lineno - 1, name, node))
    return out


def unused_module_names(trees):
    """{module.name: location} of each module-level name with no load that
    resolves to it outside its own definition."""
    uses = {}
    for p, tree in trees.items():
        for i, m, name in _resolved_loads(p, tree):
            uses.setdefault((m, name), []).append((p, i))
    return {
        f"{m}.{name}": f"{m}.py:{node.lineno}"
        for m, tree in trees.items() for name, node in _module_level_names(tree)
        if not any(_outside(m, node, p, i) for p, i in uses.get((m, name), ()))
    }


# attribute names of the containers the package reads most: a read of one
# of these names on any other receiver is taken to be the container's
CONTAINER_ATTRS = frozenset(dir(dict)) | frozenset(dir(list)) | frozenset(dir(np.ndarray))


def unread_methods(trees):
    """{module.Class.method: location} of each method or property never read
    as an attribute outside its own definition.  A method whose name dict,
    list or np.ndarray also defines is read only through the receivers
    `self`, `cls` or its class's name."""
    reads = _attribute_loads(trees)

    def read(m, cls, node):
        own = {"self", "cls", cls.name} if node.name in CONTAINER_ATTRS else None
        return any(n == node.name and _outside(m, node, p, i) and (own is None or r in own)
                   for p, i, n, r in reads)

    return {
        f"{m}.{cls.name}.{node.name}": f"{m}.py:{node.lineno}"
        for m, tree in trees.items() for node, cls in _functions(tree)
        if cls is not None and not (node.name.startswith("__") and node.name.endswith("__"))
        and not read(m, cls, node)
    }


def unturned_flags(trees):
    """{module.function(flag=): location} of each True/False default never
    passed by keyword with another value outside its own definition."""
    passed = [(m, i, kw.arg, kw.value.value if isinstance(kw.value, ast.Constant) else None)
              for m, i, _, call in _calls(trees) for kw in call.keywords if kw.arg]
    return {
        f"{m}.{node.name}({name}=)": f"{m}.py:{node.lineno}"
        for m, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for name, _, d in _defaulted(node)
        if isinstance(d, ast.Constant) and isinstance(d.value, bool)
        and not any(kw == name and value is not d.value and _outside(m, node, p, i)
                    for p, i, kw, value in passed)
    }


def unpassed_parameters(trees):
    """{module.function(parameter=): location} of each defaulted parameter
    that no call of its function's name passes outside its own definition.
    A constructor is called by its class name, a method by its attribute
    name; the first parameter of a method (self or cls) takes no argument.
    A call with *args or **kwargs counts as passing every parameter it could
    reach."""
    calls = _calls(trees)

    def passes(call, index, name):
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        if index is None:
            return False
        starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
        return index < len(call.args) or bool(starred and starred[0] <= index)

    unset = {}
    for m, tree in trees.items():
        for node, cls in _functions(tree):
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            skip = 1 if cls is not None and not static else 0
            called = cls.name if node.name == "__init__" else node.name
            for name, index, _ in _defaulted(node):
                index = None if index is None else index - skip
                if not any(c == called and _outside(m, node, p, i) and passes(call, index, name)
                           for p, i, c, call in calls):
                    unset[f"{m}.{called}({name}=)"] = f"{m}.py:{node.lineno}"
    return unset


RULES = (unused_module_names, unread_methods, unturned_flags, unpassed_parameters)


def _unexcused(rule):
    found = rule(_package_trees())
    return [f"{where} {key}" for key, where in found.items() if key not in EXCEPTIONS]


def _stale(exceptions, trees):
    """The exception entries that no rule reports on trees."""
    found = set().union(*(rule(trees) for rule in RULES))
    return sorted(set(exceptions) - found)


def test_every_module_level_name_is_used():
    unused = _unexcused(unused_module_names)
    assert not unused, "no use in src/perifsi: " + ", ".join(unused)


def test_every_method_is_read_in_the_package():
    unused = _unexcused(unread_methods)
    assert not unused, "no caller in src/perifsi: " + ", ".join(unused)


def test_every_bool_knob_is_turned_in_the_package():
    unturned = _unexcused(unturned_flags)
    assert not unturned, "flag never turned in src/perifsi: " + ", ".join(unturned)


def test_every_defaulted_parameter_is_passed():
    unset = _unexcused(unpassed_parameters)
    assert not unset, "option that no call in src/perifsi passes: " + ", ".join(unset)


def test_no_exception_is_stale():
    """Each exception is still defined and still has no package caller."""
    stale = _stale(EXCEPTIONS, _package_trees())
    assert not stale, "exceptions no rule reports: " + ", ".join(stale)


def test_the_guard_sees_module_constants():
    """The constants of the package are among the checked names, and one
    that only its own line names is reported."""
    names = {name for tree in _package_trees().values()
             for name, _ in _module_level_names(tree)}
    assert {"STEP_CHUNK", "LANES", "ANDERSON_DEPTH", "NZ_MODES", "FORCING_SAMPLES"} <= names
    tree = ast.parse("UNUSED = 1\nlower = 2\n_Private = 3\nX: int = 4\n")
    assert [name for name, _ in _module_level_names(tree)] == ["UNUSED", "X"]


# a synthetic package: `oracle`, its option `n` and `Model.reference` are
# used only by the test module below
SYNTHETIC = {
    "core": '''
LIMIT = 3


def run(x, scale=1.0):
    """Run, then scale; oracle() checks it."""
    return scale * x


def oracle(x, n=8):
    return x


class Model:
    def step(self, x, n=2):
        return run(x, scale=LIMIT)

    def reference(self):
        return self.step(0, 1)
''',
    "cli": '''
from .core import Model


def main():
    return Model().step(1)


if __name__ == "__main__":
    main()
''',
}
SYNTHETIC_TEST = '''
from perifsi.core import Model, oracle

def test_oracle():
    assert oracle(1, n=4) == Model().reference()
'''


def _synthetic(**sources):
    return {m: ast.parse(s) for m, s in {**SYNTHETIC, **sources}.items()}


def test_a_name_only_a_test_uses_is_reported():
    """`oracle` and `Model.reference` are reported; a scan that also read the
    test module would pass them, and a package caller keeps `oracle`."""
    trees = _synthetic()
    assert unused_module_names(trees) == {"core.oracle": "core.py:10"}
    assert unread_methods(trees) == {"core.Model.reference": "core.py:18"}
    with_test = _synthetic(test_core=SYNTHETIC_TEST)
    assert "core.oracle" not in unused_module_names(with_test)
    assert "core.Model.reference" not in unread_methods(with_test)
    called = _synthetic(cli=SYNTHETIC["cli"] + "\nfrom .core import oracle\noracle(2)\n")
    assert unused_module_names(called) == {}


def test_an_option_only_a_test_passes_is_reported():
    """`oracle(n=)` is reported; a scan that also read the test module would
    pass it.  `Model.step(n=)` is passed by position in the package, and
    `run(scale=)` by keyword."""
    assert unpassed_parameters(_synthetic()) == {"core.oracle(n=)": "core.py:10"}
    assert unpassed_parameters(_synthetic(test_core=SYNTHETIC_TEST)) == {}
    passed = _synthetic(cli=SYNTHETIC["cli"] + "\nfrom .core import oracle\noracle(2, n=3)\n")
    assert unpassed_parameters(passed) == {}


BOX = '''
class Box:
    def items(self):
        return []
'''


def test_a_container_read_keeps_no_method_of_its_name():
    """`d.items()` reads a dict's items, not Box.items, which is reported;
    a read on `self` or on the class's name keeps it."""
    unread = _synthetic(extra=BOX + '''

def walk(d):
    return list(d.items())
''')
    assert unread_methods(unread) == {"core.Model.reference": "core.py:18",
                                      "extra.Box.items": "extra.py:3"}
    for read in ("self.items()", "Box.items(self)"):
        kept = _synthetic(extra=BOX + f'''
    def pairs(self):
        return {read}


def walk(d):
    return list(d.items()) + Box().pairs()
''')
        assert unread_methods(kept) == {"core.Model.reference": "core.py:18"}, read


def test_a_docstring_or_comment_mention_is_not_a_use():
    trees = _synthetic(extra='''
def helper():
    return 1


def caller():
    """Calls helper() and reads Model.reference."""
    # helper, reference
    return "helper"
''')
    found = {**unused_module_names(trees), **unread_methods(trees)}
    assert {"extra.helper", "extra.caller", "core.Model.reference"} <= set(found)


SHADOWED = {
    "shapes": '''
X = 0
Q = 1
R = 2
S = 3
T = 4


def f(X, obj, R=R):
    Q = obj.R
    return X + Q + R + sum(S for S in obj) + obj.T


class Box:
    T = 5
    S = T
''',
    "user": '''
def g(a):
    X = a
    return X
''',
}
RESOLVED = {
    "shapes": SHADOWED["shapes"] + '''

def h():
    global R
    R = 1
    return R + S
''',
    "user": '''
from . import shapes
from .shapes import X as Y
from perifsi.shapes import T


def g():
    return Y + shapes.Q + T
''',
}


def _constants(found):
    return sorted(k for k in found if k.split(".")[1].isupper())


def test_a_shadowing_local_is_not_a_use():
    """A load of a module-level name resolves through its scopes: a
    parameter, a local, a comprehension variable, a class body's name or
    another object's attribute that shares the name is not a use of it, in
    its module or any other.  (The default R=R of f does read the
    module's R.)  A plain load, an alias of an import with or without `as`,
    a `module.name` attribute and a `global` declaration are uses."""
    shadowed = {m: ast.parse(src) for m, src in SHADOWED.items()}
    assert _constants(unused_module_names(shadowed)) == [
        "shapes.Q", "shapes.S", "shapes.T", "shapes.X"]
    resolved = {m: ast.parse(src) for m, src in RESOLVED.items()}
    assert _constants(unused_module_names(resolved)) == []


def test_a_stale_exception_fails():
    """An entry for a name that is gone, or for one that now has a caller
    in the package, is stale; an entry that a rule still reports is not."""
    trees = _synthetic()
    exceptions = {"core.oracle": "kept", "core.gone": "deleted", "core.run": "has a caller",
                  "core.oracle(n=)": "kept", "cli.main(argv=)": "no such parameter"}
    assert _stale(exceptions, trees) == ["cli.main(argv=)", "core.gone", "core.run"]


def test_every_run_config_field_is_read():
    """Every RunConfig field is read as an attribute (`cfg.name`) somewhere in
    src/perifsi outside RunConfig.validate, so no config key is accepted and
    then ignored.  The check is by attribute name only: a field whose name
    is also another object's attribute (R, L, H, T) passes trivially."""
    from dataclasses import fields

    from perifsi.cli import RunConfig

    read = set()
    for tree in _package_trees().values():
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "validate":
                        skip |= {id(n) for n in ast.walk(item)}
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in skip
        }
    unread = [f.name for f in fields(RunConfig) if f.name not in read]
    assert not unread, "RunConfig fields never read: " + ", ".join(unread)
