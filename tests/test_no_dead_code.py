"""Dead-code guard: every name of the package has a caller in the package.

Four rules, each over the sources of src/perifsi alone, so a use in a test
or in perfbench keeps nothing:

* every module-level function, class and UPPER_CASE constant is loaded, as
  a name (`name`) or an attribute (`.name`), outside the lines of its own
  definition (for a constant, the lines of its assignment);
* every method and property is read as an attribute (`.name`) outside its
  own definition;
* every parameter whose default is True or False is passed by keyword,
  with a value other than that literal, outside its own definition;
* every parameter with a default is passed, by keyword or by position, by
  some call of its function's name outside its own definition.

Uses are read from the syntax tree, so a mention in a docstring, a comment
or a string is not a use, and neither is an import: a re-export in
__init__.py keeps nothing.  The rules match by name only: a method whose
name another class's method shares, or a parameter passed to another
function of the same name, passes trivially.  Dunder methods are called by
the language and are not checked.  A name that the rules report and that
stays on purpose is an entry of EXCEPTIONS, with its reason; an entry that
no rule reports any more (the name is gone, or it has gained a caller in
the package) fails the guard.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "perifsi"

EXCEPTIONS = {
    "geometry.check_injectivity":
        "perfbench/spans.py wraps it by name as the geometry.check_injectivity "
        "span; it goes together with that span",
    "cli.main(argv=)":
        "the console script calls main() with no arguments; perfbench/child.py "
        "and the tests pass argv",
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


def _loads(trees, attributes_only=False):
    """(module, line index, name) of every name and attribute load."""
    return [(m, node.lineno - 1, node.attr if isinstance(node, ast.Attribute) else node.id)
            for m, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute if attributes_only else (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)]


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
    """{module.name: location} of each module-level name with no load
    outside its own definition."""
    loads = _loads(trees)
    return {
        f"{m}.{name}": f"{m}.py:{node.lineno}"
        for m, tree in trees.items() for name, node in _module_level_names(tree)
        if not any(n == name and _outside(m, node, p, i) for p, i, n in loads)
    }


def unread_methods(trees):
    """{module.Class.method: location} of each method or property never read
    as an attribute outside its own definition."""
    reads = _loads(trees, attributes_only=True)
    return {
        f"{m}.{cls.name}.{node.name}": f"{m}.py:{node.lineno}"
        for m, tree in trees.items() for node, cls in _functions(tree)
        if cls is not None and not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(n == node.name and _outside(m, node, p, i) for p, i, n in reads)
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
from core import Model, oracle

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
