"""Suppression comments for ``repro lint`` and ``repro analyze``.

Two forms are recognized:

* line-level — ``# repro-lint: disable=rule-a,rule-b`` silences the
  named rules on the line carrying the comment (trailing form) or on the
  line immediately below (standalone-comment form);
* file-level — ``# repro-lint: disable-file=rule-a`` anywhere in the
  file silences the named rules for the whole module.

Pragmas are read from comment tokens only: the same text inside a
string or docstring waives nothing.

The keyword ``all`` silences every rule at that scope.  Suppressions are
deliberately loud in review diffs: grepping for ``repro-lint:`` is the
audit trail for every waived invariant.

Two refinements on top of the plain line map:

* **Decorated definitions.**  Rules anchor their diagnostics at the
  ``def``/``class`` line, but a suppression naturally reads best above
  the whole definition — above its decorators.  When the scanner is
  given the module's AST, any pragma landing on a decorator line (or on
  the line a standalone comment above the first decorator guards) also
  covers the definition line itself.
* **Stale suppressions.**  Every pragma records whether it ever matched
  a diagnostic; :meth:`SuppressionIndex.iter_stale` reports the ones
  that never did, so waivers outlive the code they excused by at most
  one ``repro lint --stale`` run.  Rule ids unknown to the caller are
  skipped — a ``nondet-*`` waiver consumed by ``repro analyze`` is not
  stale just because plain ``repro lint`` never fires that rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Collection, Iterator

from repro.devtools.diagnostics import Diagnostic

__all__ = ["Suppression", "SuppressionIndex", "scan_suppressions"]

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*disable(?P<filewide>-file)?=(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)

#: Tokens that carry no code, so a comment after them on the same line
#: still stands alone.
_LAYOUT_TOKENS = frozenset(
    {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
)


@dataclass
class Suppression:
    """One parsed pragma: where it is, what it names, whether it fired."""

    lineno: int  # line carrying the pragma comment
    filewide: bool
    rules: tuple[str, ...]
    used: set[str] = field(default_factory=set)  # rules that matched


@dataclass
class SuppressionIndex:
    """Which rules are silenced where, for one module."""

    file_rules: set[str] = field(default_factory=set)
    line_rules: dict[int, set[str]] = field(default_factory=dict)
    suppressions: list[Suppression] = field(default_factory=list)
    #: diagnostic line -> pragmas guarding it (for usage attribution)
    _line_sources: dict[int, list[Suppression]] = field(default_factory=dict)

    def _mark(self, suppression: Suppression, rule: str) -> None:
        suppression.used.add("all" if "all" in suppression.rules else rule)

    def is_suppressed(self, diag: Diagnostic) -> bool:
        """Whether ``diag`` is silenced; matching pragmas are marked used."""
        hit = False
        for sup in self.suppressions:
            if not sup.filewide:
                continue
            if "all" in sup.rules or diag.rule in sup.rules:
                self._mark(sup, diag.rule)
                hit = True
        for sup in self._line_sources.get(diag.line, ()):
            if "all" in sup.rules or diag.rule in sup.rules:
                self._mark(sup, diag.rule)
                hit = True
        return hit

    def iter_stale(
        self, known_rules: Collection[str] | None = None
    ) -> Iterator[tuple[int, str]]:
        """``(pragma line, rule)`` pairs that never matched a diagnostic.

        ``known_rules`` limits the report to rule ids the caller actually
        ran; pragmas naming other checkers' rules are not theirs to
        judge.  ``all`` pragmas are stale only when nothing at all
        matched them.
        """
        for sup in self.suppressions:
            for rule in sup.rules:
                if rule in sup.used:
                    continue
                if rule == "all":
                    if not sup.used:
                        yield sup.lineno, rule
                    continue
                if known_rules is not None and rule not in known_rules:
                    continue
                yield sup.lineno, rule


def _decorated_spans(tree: ast.AST) -> dict[int, int]:
    """decorator/def line -> definition line, for every decorated def.

    Maps each line in ``[first decorator, def line)`` to the line the
    rules anchor diagnostics at, so pragmas placed on (or guarding) the
    decorators cover the definition itself.
    """
    spans: dict[int, int] = {}
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if not node.decorator_list:
            continue
        first = min(dec.lineno for dec in node.decorator_list)
        for line in range(first, node.lineno):
            spans[line] = node.lineno
    return spans


def _iter_comments(source: str) -> Iterator[tuple[int, str, bool]]:
    """``(line, text, standalone)`` for every comment token in
    ``source``; a standalone comment has no code before it on its line.
    ``source`` must tokenize, which any source ``ast.parse`` accepts
    does."""
    code_row = 0  # the last row a code token ended on
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string, tok.start[0] != code_row
        elif tok.type not in _LAYOUT_TOKENS:
            code_row = tok.end[0]


def scan_suppressions(
    source: str, tree: ast.AST | None = None
) -> SuppressionIndex:
    """Build the suppression index for ``source``.

    With ``tree`` (the module's parsed AST), pragmas on decorator lines
    extend to the decorated ``def``/``class`` line — without it the
    index is purely line-based, exactly as written.
    """
    index = SuppressionIndex()
    spans = _decorated_spans(tree) if tree is not None else {}
    for lineno, comment, standalone in _iter_comments(source):
        match = _PRAGMA.search(comment)
        if match is None:
            continue
        rules = tuple(
            dict.fromkeys(
                r.strip()
                for r in match.group("rules").split(",")
                if r.strip()
            )
        )
        suppression = Suppression(
            lineno=lineno, filewide=bool(match.group("filewide")), rules=rules
        )
        index.suppressions.append(suppression)
        if suppression.filewide:
            index.file_rules |= set(rules)
            continue
        # A standalone comment guards the next line; a trailing comment
        # guards its own line.
        target = lineno + 1 if standalone else lineno
        targets = {target}
        if target in spans:
            targets.add(spans[target])  # spread onto the decorated def
        for tgt in targets:
            index.line_rules.setdefault(tgt, set()).update(rules)
            index._line_sources.setdefault(tgt, []).append(suppression)
    return index
