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
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ENGINES = Path(__file__).parents[1] / "src" / "repro" / "engines"
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
