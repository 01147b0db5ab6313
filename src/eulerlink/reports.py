"""Deterministic rendering of obstruction reports.

Reports are pure functions of (input, config): no timestamps, no
environment data, canonical key order in the structured form.  Two runs
with the same inputs and configuration must produce identical bytes.

A JSON report writes each distinct row body once.  A body is a row without
its ``simplex``, and the checks share one ``(verdict, value, data)`` among
the rows of one link invariant or witness.  ``render`` groups the rows by ``(test, verdict, value,
id(data))``, writes the bodies through ``fileio._members``, and gives each
row its body's text with ``"simplex": <name>,`` spliced in before the line
of the first key after ``"simplex"`` in sorted order (``"test"``, or
``"stop"`` in a search row).  Nested lines are indented deeper and encoded
strings hold no raw newline, so that line is found exactly, and the keys
stay sorted: the bytes are those of ``json_text(report_payload(...))``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

from . import __version__ as TOOL_VERSION
from .fileio import Written, _members, json_text
from .invariants import ObstructionReport, TestRow
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


def _body(r: TestRow) -> dict:
    """The JSON row of ``r`` without its ``simplex``; no key of its data is
    one of the row's own."""
    return {"test": r.test, "verdict": r.verdict, "value": r.value,
            **(r.data or {})}


def report_payload(report: ObstructionReport, config: RunConfig) -> dict:
    """The structured form of a report, which ``render`` writes as JSON."""
    return _payload(report, config, [{"simplex": r.where, **_body(r)}
                                     for r in report.rows])


def _payload(report: ObstructionReport, config: RunConfig, tests) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "complex": report.complex_name,
        "dimension": report.dimension,
        "config": config.as_dict(),
        "tests": tests,
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
    """The report as text, or as JSON (module docstring)."""
    if config.output_format != "json":
        return render_text(report, config)
    rows = report.rows
    keys = list(zip(map(itemgetter(0, 3, 4), rows),
                    map(id, map(itemgetter(5), rows))))
    shared = dict(zip(keys, rows))  # any row of a key has its body
    bodies = list(map(_body, shared.values()))
    line = "\n      "  # a key line of a row, a member of "tests"
    halves = {}
    for key, body, text in zip(shared, bodies, _members(bodies, "    ")):
        after = min(k for k in body if k > "simplex")
        at = text.index(line + encode_basestring_ascii(after) + ": ")
        halves[key] = text[:at] + line + '"simplex": ', "," + text[at:]
    tests = Written([head + where + tail for (head, tail), where in zip(
        map(halves.__getitem__, keys),
        map(encode_basestring_ascii, map(itemgetter(2), rows)))])
    return json_text(_payload(report, config, tests))
