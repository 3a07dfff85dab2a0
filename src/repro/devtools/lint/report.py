"""Finding reports: human text, machine JSON, GitHub annotations.

The JSON schema is stable (``schema_version``) because CI and the test
suite both parse it; bump the version when a field changes meaning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.devtools.lint.framework import Finding

__all__ = ["LintReport", "JSON_SCHEMA_VERSION"]

JSON_SCHEMA_VERSION = 2


@dataclass
class LintReport:
    """Everything one lint run produced, ready to render."""

    findings: list[Finding]
    files_scanned: int

    @property
    def new(self) -> list[Finding]:
        """The findings that fail the run: every unsuppressed one."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def to_human(self) -> str:
        lines: list[str] = []
        for finding in self.new:
            lines.append(finding.format_human())
        summary = (
            f"{self.files_scanned} file(s) scanned: {len(self.new)} new, "
            f"{len(self.suppressed)} suppressed finding(s)"
        )
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        def encode(finding: Finding) -> dict:
            entry = {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
                "context": finding.context,
                "fingerprint": finding.fingerprint,
                "suppressed": finding.suppressed,
            }
            if finding.suppressed:
                entry["suppress_reason"] = finding.suppress_reason
            return entry

        payload = {
            "schema_version": JSON_SCHEMA_VERSION,
            "tool": "repro-lint",
            "files_scanned": self.files_scanned,
            "findings": [encode(f) for f in self.findings],
            "new": [f.fingerprint for f in self.new],
            "summary": {
                "total": len(self.findings),
                "new": len(self.new),
                "suppressed": len(self.suppressed),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_github(self) -> str:
        """One ``::error`` workflow command per new finding.

        GitHub renders these as inline annotations on the PR diff; the
        message is %-escaped per the workflow-command spec.
        """
        lines = []
        for finding in self.new:
            message = (
                finding.message.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A")
            )
            lines.append(
                f"::error file={finding.path},line={finding.line},"
                f"col={finding.col},title={finding.rule}::{message}"
            )
        lines.append(self.to_human().rsplit("\n", 1)[-1])
        return "\n".join(lines)
