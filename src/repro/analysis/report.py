"""Unified finding/report types for the SAGE Verifier.

Every analysis pass — Alter lint, communication-schedule analysis, buffer
hazards, and Designer model validation — reports through one value type,
:class:`Finding`, aggregated into an :class:`AnalysisReport`.  Findings
carry a stable rule id (``ALT0xx`` / ``COMM0xx`` / ``BUF2xx`` / ``MDL0xx``),
a severity, a location, and a fix hint, so reports render identically as
text and as machine-readable JSON and individual rules can be suppressed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, List, Sequence

from ..core.model.validation import ValidationIssue

__all__ = ["Finding", "AnalysisReport", "SEVERITIES", "SCHEMA_VERSION"]

#: Recognised severities, most severe first (also the sort order).
SEVERITIES = ("error", "warning", "info")

#: Version of the JSON report schema written by :meth:`AnalysisReport.to_dict`.
#: v1 had no version field; v2 adds it (plus the RECON/PERF/JOB rule
#: families).  Findings are emitted in :attr:`Finding.sort_key` order, so a
#: report for an unchanged model diffs byte-identically across runs.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One defect found by a static-analysis pass."""

    severity: str  # "error" | "warning" | "info"
    rule: str      # stable rule id, e.g. "ALT001"
    where: str     # location: "script:line:col", port path, rank, ...
    message: str
    hint: str = ""       # how to fix or suppress it
    source: str = ""     # which pass produced it, e.g. "alter-lint"

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"bad severity {self.severity!r}")

    @property
    def sort_key(self):
        return (SEVERITIES.index(self.severity), self.rule, self.where, self.message)

    def render(self) -> str:
        text = f"{self.severity}[{self.rule}] {self.where}: {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text

    @staticmethod
    def from_validation(issue: ValidationIssue) -> "Finding":
        """Fold a Designer :class:`ValidationIssue` into the shared type."""
        return Finding(
            severity=issue.severity,
            rule=getattr(issue, "rule", "MDL000"),
            where=issue.where,
            message=issue.message,
            source="model-validation",
        )


@dataclass
class AnalysisReport:
    """The aggregated output of the SAGE Verifier passes."""

    model_name: str = ""
    findings: List[Finding] = field(default_factory=list)
    passes_run: List[str] = field(default_factory=list)

    # -- building -----------------------------------------------------------
    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding], source: str = "") -> None:
        for f in findings:
            if source and not f.source:
                f = Finding(f.severity, f.rule, f.where, f.message, f.hint, source)
            self.findings.append(f)

    def record_pass(self, name: str) -> None:
        if name not in self.passes_run:
            self.passes_run.append(name)

    def absorb_validation(self, issues: Iterable[ValidationIssue]) -> None:
        self.extend(Finding.from_validation(i) for i in issues)

    # -- queries ------------------------------------------------------------
    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.sorted() if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.sorted() if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no error-severity findings remain."""
        return not any(f.severity == "error" for f in self.findings)

    def sorted(self) -> List[Finding]:
        return sorted(self.findings, key=lambda f: f.sort_key)

    def suppress(self, rules: Sequence[str]) -> "AnalysisReport":
        """A copy of this report with the given rule ids filtered out."""
        dropped = set(rules)
        return AnalysisReport(
            model_name=self.model_name,
            findings=[f for f in self.findings if f.rule not in dropped],
            passes_run=list(self.passes_run),
        )

    def raise_if_errors(self, exc_type=ValueError) -> None:
        errors = self.errors
        if errors:
            raise exc_type(
                f"static analysis of {self.model_name or '<model>'} found "
                f"{len(errors)} error(s):\n" + "\n".join(f.render() for f in errors)
            )

    # -- rendering ----------------------------------------------------------
    def render_text(self) -> str:
        lines = [
            f"SAGE Verifier report — {self.model_name or '<unnamed model>'}",
            f"passes: {', '.join(self.passes_run) or '(none)'}",
        ]
        ordered = self.sorted()
        if not ordered:
            lines.append("no findings: model is clean")
        for f in ordered:
            lines.append("  " + f.render())
        n_err = len(self.errors)
        n_warn = len(self.warnings)
        lines.append(f"{n_err} error(s), {n_warn} warning(s), "
                     f"{len(ordered)} finding(s) total")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "model": self.model_name,
            "passes": list(self.passes_run),
            "counts": {
                sev: sum(1 for f in self.findings if f.severity == sev)
                for sev in SEVERITIES
            },
            "ok": self.ok,
            "findings": [asdict(f) for f in self.sorted()],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
