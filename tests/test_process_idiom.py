"""One process idiom in ``src/``: only user rank programs are generators.

Every actor of the system itself (thread bodies, crossings, the failure
detector, the fault injector) is a ``CallbackProcess`` that recovery kills
with ``cancel()``.  Generator processes start in one place, where
``MpiWorld.spawn_rank`` runs a rank program, and nothing interrupts them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
#: The one module that starts generator processes: rank programs.
RANK_PROGRAMS = "mpi/comm.py"
#: Defines ``Process`` and its ``Environment.process`` factory.
ENGINE = "machine/simulator.py"


def offences(source: str, module: str):
    """``(line, what)`` for each breach of the idiom in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            name = node.name
        if name == "Interrupt":
            found.append((getattr(node, "lineno", 0), "Interrupt"))
        if not isinstance(node, ast.Call) or module in (RANK_PROGRAMS, ENGINE):
            continue
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if called == "Process":
            found.append((node.lineno, "Process("))
        elif called == "process" and isinstance(func, ast.Attribute):
            found.append((node.lineno, ".process("))
    return found


def test_the_scanner_sees_each_breach():
    source = ("from x import Interrupt\n"
              "env.process(gen())\n"
              "sim.Process(env, gen())\n"
              "def f():\n    raise Interrupt()\n")
    assert sorted(offences(source, "mpi/detector.py")) == [
        (1, "Interrupt"), (2, ".process("), (3, "Process("), (5, "Interrupt")]
    assert offences("env.process(gen())\n", RANK_PROGRAMS) == []


def test_only_rank_programs_are_generator_processes():
    breaches = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        found = offences(path.read_text(), module)
        if found:
            breaches[module] = found
    assert breaches == {}
    assert offences((SRC / RANK_PROGRAMS).read_text(), "any") != []
