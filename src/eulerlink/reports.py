"""Deterministic rendering of obstruction reports.

Reports are pure functions of (input, config): no timestamps, no
environment data, canonical key order in the structured form.  Two runs
with the same inputs and configuration must produce identical bytes.
"""

from __future__ import annotations

from typing import NamedTuple

from . import __version__ as TOOL_VERSION
from .fileio import json_text
from .invariants import ObstructionReport
from .search import DEFAULT_BUDGET, SearchBudget


class RunConfig(NamedTuple):
    """Resolved ``check`` settings, echoed into every report."""

    inputs: tuple[str, ...] = ()
    output_format: str = "text"  # "text" | "json"
    budget: SearchBudget = DEFAULT_BUDGET
    search_forced: bool = False

    def as_dict(self) -> dict:
        return {
            "command": "check",
            "inputs": list(self.inputs),
            "format": self.output_format,
            "budget": self.budget._asdict(),
            "search_forced": self.search_forced,
        }


def exit_code_for(report: ObstructionReport) -> int:
    return 0 if report.passed else 2


def report_payload(report: ObstructionReport, config: RunConfig) -> dict:
    rows = [{"test": r.test, "simplex": r.where, "verdict": r.verdict,
             "value": r.value, **(r.data or {})} for r in report.rows]
    return {
        "tool_version": TOOL_VERSION,
        "complex": report.complex_name,
        "dimension": report.dimension,
        "config": config.as_dict(),
        "tests": rows,
        "summary": dict(sorted(report.summary.items())),
        "notes": list(report.notes),
        "exit_code": exit_code_for(report),
    }


def render_text(report: ObstructionReport, config: RunConfig) -> str:
    lines = [
        f"eulerlink {TOOL_VERSION}: check on"
        f" {report.complex_name} (dimension {report.dimension})",
        "config: " + " ".join(
            [f"format={config.output_format}",
             f"search_forced={config.search_forced}"]
            + [f"budget.{k}={v}" for k, v in config.budget._asdict().items()]),
        "",
    ]
    if report.rows:
        w_test = max(len("test"), max(len(r.test) for r in report.rows))
        w_simp = max(len("simplex"), max(len(r.where) for r in report.rows))
        w_verd = max(len("verdict"), max(len(r.verdict) for r in report.rows))
        header = (f"{'test':<{w_test}}  {'simplex':<{w_simp}}"
                  f"  {'verdict':<{w_verd}}  value")
        lines.append(header)
        lines.append("-" * len(header))
        for r in report.rows:
            lines.append(f"{r.test:<{w_test}}  {r.where:<{w_simp}}"
                         f"  {r.verdict:<{w_verd}}  {r.value}")
        lines.append("")
    summary = " ".join(f"{k}={v}" for k, v in sorted(report.summary.items()))
    code = exit_code_for(report)
    verdict = "all tests passed" if code == 0 else "obstruction found"
    lines.append(f"summary: {summary} ({verdict}, exit {code})")
    for n in report.notes:
        lines.append(f"note: {n}")
    return "\n".join(lines) + "\n"


def render(report: ObstructionReport, config: RunConfig) -> str:
    if config.output_format == "json":
        return json_text(report_payload(report, config))
    return render_text(report, config)
