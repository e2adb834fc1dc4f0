"""Every ```python block of README.md and docs/*.md runs.

Each file's blocks run in order in one namespace (a later block may use an
earlier one's names, as a reader would), from a temporary working directory
(a block may write files).  A fragment that cannot run on its own belongs in
a ```text block.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def python_blocks(text):
    """``(line, source)`` of each ```python block, in order."""
    return [(text.count("\n", 0, m.start()) + 1, m.group(1))
            for m in PYTHON_BLOCK.finditer(text)]


def test_python_blocks_are_found():
    text = "a\n```python\nx = 1\n```\n```text\nnot run\n```\n```python\ny = x\n```\n"
    assert python_blocks(text) == [(2, "x = 1\n"), (8, "y = x\n")]


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_python_blocks_run(doc, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__docs__"}
    for line, source in python_blocks(doc.read_text()):
        exec(compile(source, f"{doc.name}:{line}", "exec"), namespace)
