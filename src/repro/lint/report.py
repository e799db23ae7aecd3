"""Reporters: render a :class:`~repro.lint.framework.LintReport`.

Two formats: a compact human one (``path:line:col: CODE message``, one
per line, plus a summary) and a JSON document for CI artifacts.  The
JSON schema is versioned so downstream tooling can detect changes.
"""

from __future__ import annotations

import json

from .framework import LintReport

__all__ = ["JSON_SCHEMA_VERSION", "render_json", "render_text", "to_json_dict"]

#: Bump when the JSON report layout changes incompatibly.
#: v3: drops files_linted / files_cached / baselined (the cache and
#: baseline modes are gone).
JSON_SCHEMA_VERSION = 3


def render_text(report: LintReport) -> str:
    """Human-readable findings plus a one-line summary."""
    lines = [f.render() for f in report.findings]
    if report.clean:
        lines.append(f"reprolint: {report.files_checked} files checked, clean")
    else:
        by_rule = ", ".join(
            f"{code}: {n}" for code, n in report.counts().items()
        )
        lines.append(
            f"reprolint: {len(report.findings)} finding(s) in "
            f"{report.files_checked} files ({by_rule})"
        )
    return "\n".join(lines)


def to_json_dict(report: LintReport) -> dict[str, object]:
    """JSON-safe dict of the full report."""
    return {
        "schema_version": JSON_SCHEMA_VERSION,
        "tool": "reprolint",
        "root": report.root,
        "files_checked": report.files_checked,
        "clean": report.clean,
        "counts": report.counts(),
        "findings": [f.as_dict() for f in report.findings],
    }


def render_json(report: LintReport) -> str:
    return json.dumps(to_json_dict(report), indent=2, sort_keys=True) + "\n"
