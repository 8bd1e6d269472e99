"""The lint driver: file collection, suppression, reporting.

Rules are plain functions (see :mod:`repro.analysis.lint.rules`):

- *file rules* take one parsed :class:`SourceFile` and yield
  :class:`~repro.analysis.diagnostics.Diagnostic` records;
- *project rules* take the full file list (cross-file invariants such as
  REPRO006's ``@recorded``-method check).

Suppression syntax: a trailing comment on the offending line —

- ``# lint: allow`` silences every rule on that line;
- ``# lint: allow=REPRO003`` (comma-separated for several codes)
  silences only the named rules. Anything after the codes is free-form
  justification text.

A named suppression that silences nothing is itself reported (LINT001,
warning): stale allows outlive refactors and quietly blanket-exempt the
line from rules that never fired there. Only codes matching the linter's
``stale_prefixes`` are policed, so a ``CONC``-family run does not flag
``REPRO`` allows it never evaluates (and vice versa); a bare allow (no
``=CODE`` list) is exempt by design — it declares intent to silence
everything.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from ..diagnostics import Diagnostic

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*allow(?:=\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?"
)

#: sentinel for "every code suppressed on this line".
ALL_CODES = None


@dataclass
class SourceFile:
    """One parsed python file plus its per-line suppressions."""

    path: Path
    text: str
    tree: ast.Module
    #: line number -> set of suppressed codes, or :data:`ALL_CODES` for all.
    suppressions: dict[int, set[str] | None] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.path.name

    def location(self, lineno: int) -> str:
        return f"{self.path}:{lineno}"

    def is_suppressed(self, code: str, lineno: int) -> bool:
        if lineno not in self.suppressions:
            return False
        codes = self.suppressions[lineno]
        return codes is ALL_CODES or code in codes


def _scan_suppressions(text: str) -> dict[int, set[str] | None]:
    """Per-line suppressions, read from *comments only*.

    Tokenizing (rather than regexing raw lines) keeps docstrings that
    *mention* the syntax — this module's own, the README examples — from
    registering as live suppressions on their line.
    """
    out: dict[int, set[str] | None] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out  # unparseable files already fail hard in parse_source
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if not match:
            continue
        codes = match.group("codes")
        lineno = token.start[0]
        if codes is None:
            out[lineno] = ALL_CODES
        else:
            out[lineno] = {code.strip() for code in codes.split(",")}
    return out


def parse_source(path: Path, text: str | None = None) -> SourceFile:
    """Parse *path* (raises ``SyntaxError`` for unparseable files)."""
    if text is None:
        text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return SourceFile(path=path, text=text, tree=tree,
                      suppressions=_scan_suppressions(text))


FileRule = Callable[[SourceFile], Iterable[Diagnostic]]
ProjectRule = Callable[[list[SourceFile]], Iterable[Diagnostic]]


class Linter:
    """Runs every registered rule over a set of paths."""

    def __init__(
        self,
        file_rules: tuple[FileRule, ...] | None = None,
        project_rules: tuple[ProjectRule, ...] | None = None,
        stale_prefixes: tuple[str, ...] = ("REPRO", "LINT"),
    ):
        if file_rules is None or project_rules is None:
            from .rules import FILE_RULES, PROJECT_RULES

        self.file_rules = FILE_RULES if file_rules is None else file_rules
        self.project_rules = PROJECT_RULES if project_rules is None else project_rules
        self.stale_prefixes = stale_prefixes

    @staticmethod
    def collect(paths: Iterable[str | Path]) -> list[Path]:
        """Every ``.py`` file under *paths* (files taken as-is), sorted."""
        files: set[Path] = set()
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.update(path.rglob("*.py"))
            else:
                files.add(path)
        return sorted(files)

    def run(self, paths: Iterable[str | Path]) -> list[Diagnostic]:
        """Lint *paths*; returns the post-suppression diagnostics, sorted."""
        sources: list[SourceFile] = []
        diagnostics: list[Diagnostic] = []
        for path in self.collect(paths):
            try:
                sources.append(parse_source(path))
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                diagnostics.append(Diagnostic(
                    "REPRO000", "error",
                    f"could not parse file: {exc}",
                    path=str(path),
                ))
        by_path = {str(sf.path): sf for sf in sources}
        found: list[Diagnostic] = []
        for sf in sources:
            for rule in self.file_rules:
                found.extend(rule(sf))
        for rule in self.project_rules:
            found.extend(rule(sources))
        consumed: dict[tuple[str, int], set[str]] = {}
        for diag in found:
            sf, lineno = self._locate(diag, by_path)
            if sf is not None and lineno is not None and sf.is_suppressed(diag.code, lineno):
                consumed.setdefault((str(sf.path), lineno), set()).add(diag.code)
                continue
            diagnostics.append(diag)
        diagnostics.extend(self._stale_suppressions(sources, consumed))
        diagnostics.sort(key=lambda d: (d.path or "", d.code, d.message))
        return diagnostics

    def _stale_suppressions(
        self,
        sources: list[SourceFile],
        consumed: dict[tuple[str, int], set[str]],
    ) -> list[Diagnostic]:
        """LINT001 for every named allow that silenced no diagnostic."""
        stale: list[Diagnostic] = []
        for sf in sources:
            for lineno, codes in sorted(sf.suppressions.items()):
                if codes is ALL_CODES:
                    continue
                used = consumed.get((str(sf.path), lineno), set())
                for code in sorted(codes - used):
                    if not code.startswith(self.stale_prefixes):
                        continue
                    stale.append(Diagnostic(
                        "LINT001", "warning",
                        f"stale suppression: '# lint: allow={code}' silences "
                        "nothing on this line — remove it or fix the code it "
                        "was justifying",
                        path=sf.location(lineno),
                    ))
        return stale

    @staticmethod
    def _locate(diag: Diagnostic, by_path: dict[str, SourceFile]):
        if not diag.path or ":" not in diag.path:
            return None, None
        path, _, lineno = diag.path.rpartition(":")
        if not lineno.isdigit():
            return None, None
        return by_path.get(path), int(lineno)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: lint the given paths (default ``src``)."""
    args = list(argv) if argv is not None else []
    paths = [a for a in args if not a.startswith("-")] or ["src"]
    diagnostics = Linter().run(paths)
    for diagnostic in diagnostics:
        print(diagnostic.render())
    n_files = len(Linter.collect(paths))
    if diagnostics:
        print(f"lint: {len(diagnostics)} finding(s) in {n_files} file(s)")
        return 1
    print(f"lint: clean ({n_files} file(s))")
    return 0
