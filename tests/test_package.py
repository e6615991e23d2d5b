import ast
import re
from pathlib import Path

import pytest

import levy_groups
import levy_groups.cli

PACKAGE = Path(levy_groups.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def test_every_export_resolves_once():
    names = levy_groups.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(levy_groups, n)] == []


def private_names_of_other_modules(source: str) -> list[str]:
    """``module.name`` for each private name of another module of the package
    that ``source`` imports (``from .module import _name``) or reads
    (``module._name`` after ``from . import module``); dunders are public."""
    tree = ast.parse(source)

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}
    found = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
             for alias in node.names if private(alias.name)]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and private(node.attr)]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_no_private_name_of_another_module(module):
    # each module states its own memory charge and block size; the others read them
    assert private_names_of_other_modules((PACKAGE / f"{module}.py").read_text()) == []


def test_private_name_guard_sees_both_forms():
    source = "from . import group_core\nfrom .rng import _x, y\ngroup_core._B + group_core.B\n"
    assert private_names_of_other_modules(source) == ["rng._x", "group_core._B"]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports, either form."""
    tree = ast.parse(source)
    names = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    return names | {node.module.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module}


@pytest.mark.parametrize("module", MODULES)
def test_only_the_lapack_layer_imports_ctypes(module):
    # one loader and one table of foreign symbols: lapack.py
    imported = imported_modules((PACKAGE / f"{module}.py").read_text())
    assert ("ctypes" in imported) == (module == "lapack")


def test_import_guard_sees_both_forms():
    source = ("import ctypes.util\nfrom ctypes import byref\nfrom . import lapack\n"
              "import numpy as np\n")
    assert imported_modules(source) == {"ctypes", "numpy"}


def unread_exports(module: str, source: str, others) -> list[str]:
    """Public names that ``source``, the package's ``module``, binds at top
    level (a def, a class or an assignment) and that no source of ``others``
    reads, as ``module.name`` or imported by name (``from .module import name``)."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    read = set()
    for node in (n for other in others for n in ast.walk(ast.parse(other))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == module:
                read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            read |= {alias.name for alias in node.names}
    return sorted(name for name in defined - read if not name.startswith("_"))


def test_lapack_exports_only_what_another_module_reads():
    # an entry only the tests call would be code the package carries for them
    others = [(PACKAGE / f"{m}.py").read_text() for m in MODULES if m != "lapack"]
    assert unread_exports("lapack", (PACKAGE / "lapack.py").read_text(), others) == []


def test_export_guard_sees_both_forms():
    source = ("import os\nfrom . import rng\nA, _B = 1, 2\nC: int = 3\n"
              "def f():\n    pass\ndef g():\n    pass\ndef _h():\n    pass\nclass D:\n    pass\n")
    others = ["from . import lapack\nlapack.f()\nrng.g()\n", "from .lapack import A\n"]
    assert unread_exports("lapack", source, others) == ["C", "D", "g"]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private name that a module of ``sources`` (a
    module name to its source) binds at top level, by a def, a class or an
    assignment, and that no source reads: its own module by the bare name,
    another as ``module._name`` or ``from .module import _name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(f"{module}.{node.id}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read |= {f"{node.module}.{alias.name}" for alias in node.names}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{module}.{name}" for name in names if name.startswith("_")
                      and not name.endswith("__") and f"{module}.{name}" not in read]
    return found


def test_no_private_name_is_orphaned():
    # a private helper, table or constant that nothing reads is dead code
    sources = {m: (PACKAGE / f"{m}.py").read_text() for m in MODULES}
    assert orphaned_private_names(sources) == []


def test_orphan_guard_sees_both_forms():
    sources = {"a": "_X, _Y = 1, 2\n_Z: int = 3\ndef _f():\n    return _X\n"
                    "class _C:\n    pass\ndef _g():\n    pass\n__all__ = []\n",
               "b": "from . import a\nfrom .a import _f\na._C\n_g = 4\n"}
    assert orphaned_private_names(sources) == ["a._Y", "a._Z", "a._g", "b._g"]


def unread_symbols(source: str) -> list[str]:
    """Keys of the ``_SYMBOLS`` table that ``source`` declares and that no
    ``_library()[...]`` subscript of ``source`` reads by that string."""
    tree = ast.parse(source)
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_SYMBOLS" for t in node.targets))
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name) and node.value.func.id == "_library"
            and isinstance(node.slice, ast.Constant)}
    return sorted({key.value for key in table.keys} - read)


def test_lapack_declares_only_the_symbols_it_calls():
    # _library() loads only where every declared symbol resolves, so a dead
    # binding could turn a library the package can use into none at all
    assert unread_symbols((PACKAGE / "lapack.py").read_text()) == []


def test_symbol_guard_sees_an_unread_entry():
    source = ('_SYMBOLS = {"a": (None, ()), "b": (None, ()), "c": (None, ())}\n'
              'def f(routines):\n    _library()["a"]()\n    routines["b"]()\n    return "c"\n')
    assert unread_symbols(source) == ["b", "c"]


def backend_reads_outside_charges(source: str) -> list[str]:
    """Functions of ``source`` (``<module>`` for top-level code) that read
    ``lapack.available``, or import it by name, other than ``*_bytes``
    charges and the functions nested in them."""
    tree = ast.parse(source)

    def reads(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "lapack" and any(a.name == "available" for a in node.names)
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) == ("lapack", "available"))

    owner = owners(tree)
    charged = {node for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name.endswith("_bytes")
               for node in ast.walk(fn)}
    return sorted({owner.get(node, "<module>") for node in ast.walk(tree)
                   if reads(node) and node not in charged})


def owners(tree) -> dict:
    """Each node of ``tree`` inside a function, to the innermost function's name."""
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so the innermost owns a node
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                owner[node] = fn.name
    return owner


@pytest.mark.parametrize("module", [m for m in MODULES if m != "lapack"])
def test_only_memory_charges_know_the_lapack_backend(module):
    # each operation runs on either backend behind one lapack call; a charge
    # may still count the copies the numpy path makes
    assert backend_reads_outside_charges((PACKAGE / f"{module}.py").read_text()) == []


def test_backend_guard_sees_both_forms():
    source = ("from .lapack import available\nfrom . import lapack\n"
              "def audit_bytes(m):\n    return 2 if lapack.available() else 1\n"
              "def solve(a):\n    if lapack.available():\n        return lapack.factored_extremes(a)\n")
    assert backend_reads_outside_charges(source) == ["<module>", "solve"]


def literal_owners(source: str, literals: set) -> list[str]:
    """Functions of ``source`` (``<module>`` for top-level code), each the
    innermost around it, that hold one of the string ``literals``."""
    tree = ast.parse(source)
    owner = owners(tree)
    return sorted({owner.get(node, "<module>") for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and node.value in literals})


def test_canonical_writes_null_true_and_false_in_one_function():
    # one rule gives every scalar's text, in JSON and in CSV alike
    owners = literal_owners((PACKAGE / "canonical.py").read_text(), {"true", "false", "null"})
    assert len(owners) == 1 and owners != ["<module>"]


def test_literal_guard_sees_both_forms():
    source = ('NULL = "null"\n'
              'def cell(x):\n    return "true" if x else "false"\n'
              'def walk(x):\n    def inner():\n        return "null"\n    return "nulls"\n')
    assert literal_owners(source, {"true", "false", "null"}) == ["<module>", "cell", "inner"]


def command_facts_outside_the_table(source: str, commands) -> list[str]:
    """Functions of ``source`` (``<module>`` for top-level code) that compare a
    ``.command`` attribute with a string or hold a dict keyed by a command
    name, the ``COMMANDS`` table aside."""
    tree = ast.parse(source)
    table = next((node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "COMMANDS" for t in node.targets)),
                 None)

    def strings(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return [e for e in items if isinstance(e, ast.Constant) and isinstance(e.value, str)]

    def offends(node):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            return (any(isinstance(s, ast.Attribute) and s.attr == "command" for s in sides)
                    and any(strings(s) for s in sides))
        return (isinstance(node, ast.Dict) and node is not table
                and any(isinstance(k, ast.Constant) and k.value in commands for k in node.keys))

    found, inside = set(), set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                inside.add(node)
                if offends(node):
                    found.add(fn.name)
    if any(offends(node) and node not in inside for node in ast.walk(tree)):
        found.add("<module>")
    return sorted(found)


def test_cli_states_each_command_fact_in_its_commands_entry():
    # groups, --points and --tol defaults, least values, charge and handler: one
    # entry each
    with open(levy_groups.cli.__file__) as fh:
        source = fh.read()
    assert command_facts_outside_the_table(source, set(levy_groups.cli.COMMANDS)) == []


def buffered_output_calls(source: str) -> list[str]:
    """Each use in ``source`` of ``canonical.dumps`` or ``io.StringIO``, as an
    attribute or imported by name: text built whole before it is written."""
    banned = {("canonical", "dumps"), ("io", "StringIO")}
    tree = ast.parse(source)
    found = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and (node.value.id, node.attr) in banned]
    found += [f"{node.module.lstrip('.')}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module
              for alias in node.names if (node.module.lstrip("."), alias.name) in banned]
    return found


def test_cli_streams_its_output():
    # JSON and CSV go to the handle a chunk at a time, never as one string
    with open(levy_groups.cli.__file__) as fh:
        assert buffered_output_calls(fh.read()) == []


def test_streaming_guard_sees_both_forms():
    source = ("from . import canonical\nfrom io import StringIO\nimport io\n"
              "canonical.dumps(d)\nio.StringIO()\ncanonical.dump(d, fh)\n")
    assert buffered_output_calls(source) == ["canonical.dumps", "io.StringIO", "io.StringIO"]


def handler_outputs(source: str, handlers: set) -> list[str]:
    """``name: print`` for each handler in ``source`` that prints, and
    ``name: return`` for each that returns a value: the handlers' outcomes
    are run's to report."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name in handlers:
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "print"):
                    found.append(f"{fn.name}: print")
                if isinstance(node, ast.Return) and node.value is not None:
                    found.append(f"{fn.name}: return")
    return sorted(found)


def stream_constructions(source: str) -> int:
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "RngStream" for node in ast.walk(ast.parse(source)))


def test_cli_handlers_only_compute_and_write():
    # run builds the one stream and reports every finding and exit code
    with open(levy_groups.cli.__file__) as fh:
        source = fh.read()
    handlers = {spec.handler.__name__ for spec in levy_groups.cli.COMMANDS.values()}
    assert handler_outputs(source, handlers) == []
    assert stream_constructions(source) == 1


def test_handler_guard_sees_prints_returns_and_streams():
    source = ("def h(cfg, group, rng):\n    print('x')\n    return 1\n"
              "def g(cfg, group, rng):\n    rng = RngStream(0, 0)\n    return\n"
              "def other():\n    return RngStream(1, 0)\n")
    assert handler_outputs(source, {"h", "g"}) == ["h: print", "h: return"]
    assert stream_constructions(source) == 2


def float_text(source: str) -> list[str]:
    """Each place in ``source`` that writes a float as text the way an output
    document would, outside a raise statement's message: ``format_float``,
    imported or read, and a g or e format, as a %-template (``"%.17g"``), a
    str.format field (``"{:g}"``) or an f-string field's spec."""
    tree = ast.parse(source)
    template = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[eEgG]|\{[^{}]*:[^{}]*[eEgG]\}")
    raised = {node for r in ast.walk(tree) if isinstance(r, ast.Raise) for node in ast.walk(r)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [alias.name for alias in node.names if alias.name == "format_float"]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            if getattr(node, "id", getattr(node, "attr", None)) == "format_float":
                found.append("format_float")
        elif node in raised:
            continue
        elif isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            spec = "".join(str(v.value) for v in node.format_spec.values
                           if isinstance(v, ast.Constant))
            if spec[-1:] in ("e", "E", "g", "G"):
                found.append(f"{{:{spec}}}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += template.findall(node.value)
    return sorted(found)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "canonical"])
def test_only_canonical_turns_floats_into_output_text(module):
    # one float format for every document, canonical's; a message a raise
    # reports may still format its own numbers
    assert float_text((PACKAGE / f"{module}.py").read_text()) == []


def test_float_text_guard_sees_both_forms():
    source = ("from .canonical import format_float\nfrom . import canonical\n"
              "def f(x):\n    a = canonical.format_float(x)\n    b = '%.17g' % x\n"
              "    c = f'{x:.3e}, {x:>8}, {x}'\n    d = '{:g} {}'.format(x, x)\n"
              "    raise ValueError(f'bad {x:g}' + '%.3g' % x)\n")
    assert float_text(source) == ["%.17g", "format_float", "format_float", "{:.3e}", "{:g}"]
