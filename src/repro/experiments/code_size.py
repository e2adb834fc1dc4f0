"""Experiment S3-size: the §3 code-size claim.

*"It is our intention to show that an application or system engineer can
develop an application ... using SAGE quickly and that the resulting
solution is comparable both in performance and code size to hand coded
versions."*

We compare the application-specific source a developer is responsible for:

* **hand-coded**: the rank program (the MPI+ISSPL code a CSPI engineer
  writes and maintains),
* **SAGE**: the Designer model description (here, the model-builder
  function standing in for the graphical capture) — the generated glue is
  reported too but is *not* developer-maintained code.

Run: ``python -m repro code-size [-o FILE]``
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import List

from ..apps import corner_turn_model, corner_turn_rank, fft2d_model, fft2d_rank
from ..apps.models import benchmark_mapping
from ..core.codegen import generate_glue

__all__ = ["CodeSizeRow", "count_sloc", "run_code_size", "format_code_size"]


def count_sloc(obj_or_text) -> int:
    """Source lines of code: non-blank, non-comment, docstrings excluded."""
    if isinstance(obj_or_text, str):
        text = obj_or_text
    else:
        # strip the function's docstring (documentation, not code)
        import ast
        import textwrap

        text = textwrap.dedent(inspect.getsource(obj_or_text))
        tree = ast.parse(text)
        node = tree.body[0]
        if (
            hasattr(node, "body")
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(getattr(node.body[0], "value", None), ast.Constant)
            and isinstance(node.body[0].value.value, str)
        ):
            doc = node.body[0].value.value
            text = text.replace(doc, "", 1)
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if set(stripped) <= {'"'} or set(stripped) <= {"'"}:
            continue  # leftover quote marks from the removed docstring
        count += 1
    return count


@dataclass
class CodeSizeRow:
    app: str
    hand_sloc: int        # the rank program the engineer writes
    model_sloc: int       # the SAGE model description (Designer capture)
    glue_sloc: int        # auto-generated (not developer-maintained)

    @property
    def developer_ratio(self) -> float:
        """SAGE developer-written size relative to hand-coded."""
        return self.model_sloc / self.hand_sloc if self.hand_sloc else 0.0


def run_code_size(n: int = 1024, nodes: int = 8) -> List[CodeSizeRow]:
    rows = []
    for app_name, rank_program, model_builder in (
        ("2D FFT", fft2d_rank, fft2d_model),
        ("Corner Turn", corner_turn_rank, corner_turn_model),
    ):
        app = model_builder(n, nodes)
        glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)
        rows.append(
            CodeSizeRow(
                app=app_name,
                hand_sloc=count_sloc(rank_program),
                model_sloc=count_sloc(model_builder),
                glue_sloc=count_sloc(glue.source),
            )
        )
    return rows


def format_code_size(rows: List[CodeSizeRow]) -> str:
    lines = [
        "S3-size: developer-written source lines, hand-coded vs SAGE",
        f"{'application':<14s}{'hand rank pgm':>14s}{'SAGE model':>12s}"
        f"{'ratio':>7s}{'generated glue':>16s}",
    ]
    for r in rows:
        lines.append(
            f"{r.app:<14s}{r.hand_sloc:>14d}{r.model_sloc:>12d}"
            f"{r.developer_ratio:>7.2f}{r.glue_sloc:>16d}"
        )
    lines.append(
        "(the engineer writes/maintains the model description; the glue is "
        "regenerated per target, §4's portability claim)"
    )
    return "\n".join(lines)

