"""Dead-code guard: every module-level function and class of the package has
a caller or a test, every method and property a caller in the package,
every True/False flag a caller in the package that turns it, and every
defaulted parameter a call in the package or the tests that passes it.

A module-level name counts as used when it occurs as a whole word somewhere
in src/perifsi or tests/ outside the lines of its own definition.  The
package __init__.py is not searched, because a re-export there is not a use.
A method or property counts as used when it is read as an attribute
(`.name`) somewhere in src/perifsi outside its own definition; a test alone
does not keep it.  The check is by attribute name only, so it cannot tell
`tables` on one class from `tables` on another: a method whose name another
class's method shares passes trivially.  Dunder methods are called by the
language and are not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "perifsi"


def _searched_files():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    return {p: p.read_text().splitlines() for p in files}


def test_every_module_level_name_is_used():
    files = _searched_files()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            used = any(
                word.search(line)
                for p, lines in files.items()
                for i, line in enumerate(lines)
                if not (p == path and i in own)
            )
            if not used:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "no caller or test: " + ", ".join(unused)


def test_every_run_config_field_is_read():
    """Every RunConfig field is read as an attribute (`cfg.name`) somewhere in
    src/perifsi outside RunConfig.validate, so no config key is accepted and
    then ignored.  The check is by attribute name only: a field whose name
    is also another object's attribute (R, L, H, T) passes trivially."""
    from dataclasses import fields

    from perifsi.cli import RunConfig

    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
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


def test_every_method_is_read_in_the_package():
    reads = []  # (path, line index, attribute name) of every `.name` read
    methods = []  # (path, class, def node)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += [(path, node.lineno - 1, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
        methods += [(path, cls.name, item)
                    for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for item in cls.body if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    unused = [
        f"{path.name}:{node.lineno} {cls}.{node.name}"
        for path, cls, node in methods
        if not any(name == node.name
                   and not (p == path and node.lineno - 1 <= i < node.end_lineno)
                   for p, i, name in reads)
    ]
    assert not unused, "no caller in src/perifsi: " + ", ".join(unused)


def test_every_bool_knob_is_turned_in_the_package():
    """Every parameter of a function or method in src/perifsi whose default
    is True or False is passed by keyword, with a value other than that
    literal, somewhere in src/perifsi outside its own definition, so no flag
    exists for tests alone.  The check is by keyword name only: a flag whose
    name another function's call passes passes trivially, and a flag passed
    only by position is reported."""
    knobs = []  # (path, def node, parameter name, default)
    passed = []  # (path, line index, keyword name, literal value or None)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional) - len(args.defaults):],
                                 args.defaults))
                pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                knobs += [(path, node, a.arg, d.value) for a, d in pairs
                          if isinstance(d, ast.Constant) and isinstance(d.value, bool)]
            elif isinstance(node, ast.Call):
                passed += [(path, node.lineno - 1, kw.arg,
                            kw.value.value if isinstance(kw.value, ast.Constant) else None)
                           for kw in node.keywords if kw.arg is not None]
    unturned = [
        f"{path.name}:{node.lineno} {node.name}({name}={default})"
        for path, node, name, default in knobs
        if not any(kw == name and value is not default
                   and not (p == path and node.lineno - 1 <= i < node.end_lineno)
                   for p, i, kw, value in passed)
    ]
    assert not unturned, "flag never turned in src/perifsi: " + ", ".join(unturned)


def test_every_defaulted_parameter_is_passed():
    """Every parameter with a default of a function, method or constructor
    in src/perifsi is passed, by keyword or by position, by some call of
    that name in src/perifsi or tests/ outside its own definition, so no
    option exists that nothing sets.  A constructor is called by its class
    name, a method by its attribute name; the first parameter of a method
    (self or cls) takes no argument.  A call with *args or **kwargs counts
    as passing every parameter it could reach.  The check is by name only:
    a parameter passed to another function of the same name passes."""
    calls = []  # (path, line index, called name, call node)
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.append((path, node.lineno - 1, name, node))

    def passes(call, index, name):
        """Whether call passes parameter name, at position index (None for
        a keyword-only parameter)."""
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        if index is None:
            return False
        starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
        return index < len(call.args) or bool(starred and starred[0] <= index)

    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [(node, None) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(item, cls) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for item in cls.body if isinstance(item, ast.FunctionDef)]
        for node, cls in defs:
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if cls is not None and not static else 0
            called = cls.name if node.name == "__init__" else node.name
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            own = range(node.lineno - 1, node.end_lineno)
            for name, index in params:
                if not any(c == called and not (p == path and i in own)
                           and passes(call, index, name)
                           for p, i, c, call in calls):
                    unset.append(f"{path.name}:{node.lineno} {called}({name}=)")
    assert not unset, "option that no call passes: " + ", ".join(unset)
