"""Inline suppression comments: ``# repro-lint: allow[RPRxxx] <reason>``.

A suppression lives on the same physical line as the finding it silences
(for multi-line statements: the line the linter reports, i.e. where the
offending node starts). The reason is mandatory — a suppression without
one is reported as RPR900, and a suppression that silences nothing is
reported as RPR901, so every ``allow`` in the tree stays justified and
live.
"""

from __future__ import annotations

import io
import re
import tokenize
from collections.abc import Iterator
from dataclasses import dataclass

__all__ = ["Suppression", "parse_suppressions"]

#: Matches the marker anywhere in a comment token.
_MARKER = re.compile(r"#\s*repro-lint:\s*(?P<body>.*)$")
_ALLOW = re.compile(
    r"allow\[(?P<rules>[A-Za-z0-9*,\s]+)\]\s*(?P<reason>.*)$"
)
# RPR = determinism rules, RPS = parallel-safety rules (RPS104); both
# families share the suppression grammar.
_RULE_ID = re.compile(r"^RP[RS]\d{3}$")


@dataclass(frozen=True)
class Suppression:
    """One parsed ``allow`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str
    malformed: bool = False

    def allows(self, rule_id: str) -> bool:
        if self.malformed:
            return False
        return "*" in self.rules or rule_id in self.rules


def parse_suppressions(source: str) -> dict[int, Suppression]:
    """Extract suppressions per (1-based) line number.

    Anything carrying the ``repro-lint:`` marker that does not parse into
    a well-formed ``allow[...]`` with rule ids and a non-empty reason is
    kept as ``malformed=True`` so the framework can report it instead of
    silently ignoring a typo like ``allow[RPR01]``. Only genuine COMMENT
    tokens are considered — the marker appearing inside a string or
    docstring (as in this very module's documentation) is inert.
    """
    suppressions: dict[int, Suppression] = {}
    for number, text in _iter_comments(source):
        marker = _MARKER.search(text)
        if marker is None:
            continue
        body = marker.group("body").strip()
        allow = _ALLOW.match(body)
        if allow is None:
            suppressions[number] = Suppression(
                line=number, rules=(), reason="", malformed=True
            )
            continue
        rules = tuple(
            part.strip() for part in allow.group("rules").split(",") if part.strip()
        )
        reason = allow.group("reason").strip()
        well_formed = bool(rules) and bool(reason) and all(
            part == "*" or _RULE_ID.match(part) for part in rules
        )
        suppressions[number] = Suppression(
            line=number,
            rules=rules if well_formed else (),
            reason=reason,
            malformed=not well_formed,
        )
    return suppressions


def _iter_comments(source: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, comment_text)`` for every comment token.

    Tokenization errors (the file already parsed as AST, so these are
    edge cases like an unterminated final line) end the scan silently —
    missing a suppression only ever makes the linter *stricter*.
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except tokenize.TokenError:
        return
