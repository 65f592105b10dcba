"""The engines run plans; they do not compile them.

Every module under ``src/repro/engines/`` is scanned, function-level
imports included: none may import the normalizer, the resugarer or the
lowering rules.  Data motion (hoisting closed bags out of UDFs) is a
compiler pass, so the executor has no reason to call back into the
compiler.  ``plancache.py`` is the one exception: it compiles a program
on a cache miss.

Two rules keep the task wire format in one place: ``scheduler.py``
owns it (a payload is its pickle), so the spill layer knows nothing of
the columnar plane and the scheduler nothing of the spill layer.

A driver statement's structure (its expressions, its nested blocks,
whether it loops) is derived in one place, ``frontend/driver_ir.py``:
only that module (its table and its printer) and the interpreter in
``frontend/runtime.py`` may tell compound statements apart by class.

Generated source is compiled only where a template is built: the
scalar UDF template, the chain kernel template, the per-alias fold
reducer (cached per process) and the columnar plane's batch kernel.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "repro"
ENGINES = SRC / "engines"
COMPILER = (
    "repro.comprehension.normalize",
    "repro.comprehension.resugar",
    "repro.lowering.rules",
)
EXEMPT = {"plancache.py"}


def imports_of(path: Path, modules=COMPILER) -> list[str]:
    """``module:line`` of every import of one of ``modules`` (default:
    the compiler modules) in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            # ``from repro.comprehension import normalize``
            names += [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        hits = [
            name
            for name in names
            if any(name == m or name.startswith(m + ".") for m in modules)
        ]
        if hits:
            found.append(f"{hits[0]}:{node.lineno}")
    return found


MODULES = sorted(p.name for p in ENGINES.glob("*.py"))


def test_the_scan_sees_the_engines():
    assert {"executor.py", "base.py", "plancache.py"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(set(MODULES) - EXEMPT))
def test_engine_module_imports_no_compiler_pass(module):
    assert imports_of(ENGINES / module) == []


def test_the_scan_finds_function_level_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f():\n"
        "    from repro.comprehension.normalize import normalize\n"
        "    from repro.lowering import rules\n"
    )
    assert imports_of(probe) == [
        "repro.comprehension.normalize:2",
        "repro.lowering.rules:3",
    ]


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("spill.py", "repro.engines.columnar"),
        ("scheduler.py", "repro.engines.spill"),
    ],
)
def test_the_wire_format_has_one_owner(module, forbidden):
    assert imports_of(ENGINES / module, (forbidden,)) == []


COMPOUND = {"SWhile", "SIf", "SFor"}
STATEMENT_CLASS_READERS = {"frontend/driver_ir.py", "frontend/runtime.py"}


def _name_of(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def compound_isinstance_lines(path: Path) -> list[int]:
    """Lines of ``isinstance`` calls in ``path`` that name a compound
    driver statement class."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and COMPOUND & set(map(_name_of, ast.walk(node.args[1])))
        ):
            lines.append(node.lineno)
    return lines


def test_statement_structure_is_read_in_one_place():
    found = {
        str(path.relative_to(SRC)): compound_isinstance_lines(path)
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {name for name, lines in found.items() if lines} == (
        STATEMENT_CLASS_READERS
    )


def test_the_statement_scan_sees_tuples(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "isinstance(s, (SWhile, SFor))\n"
        "isinstance(s, SAssign)\n"
        "isinstance(s, driver_ir.SIf)\n"
    )
    assert compound_isinstance_lines(probe) == [1, 3]


#: the functions that may call builtin ``compile()``; the batch kernel
#: folds binding values into its source, so it cannot be a template
COMPILERS = {
    "comprehension/exprs.py:ScalarTemplate.__init__",
    "comprehension/exprs.py:fold_reducer",
    "engines/chainkernel.py:KernelTemplate.__init__",
    "engines/chainkernel.py:build_vector_kernel",
}


def compile_callers(path: Path) -> list[str]:
    """The qualified names of the functions in ``path`` that call the
    builtin ``compile`` (``<module>`` for a top-level call)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "compile"
            ):
                found.append(scope or "<module>")
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def test_generated_source_is_compiled_by_template_builders():
    found = {
        f"{path.relative_to(SRC)}:{name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in compile_callers(path)
    }
    assert found == COMPILERS


def test_the_compile_scan_sees_methods_and_nested_functions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class T:\n"
        "    def build(self):\n"
        "        def inner():\n"
        "            return compile('1', '<x>', 'eval')\n"
        "        return inner\n"
        "re.compile('a')\n"
        "compile('2', '<y>', 'eval')\n"
    )
    assert compile_callers(probe) == ["T.build.inner", "<module>"]
