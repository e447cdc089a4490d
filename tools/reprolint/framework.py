"""The reprolint checker framework: walker, waivers, reporting.

A checker is a small class with a ``name``, a path scope, and a ``check``
method yielding :class:`Finding`s for one parsed module.  The framework owns
everything around that: discovering files, parsing them once, routing each
module to the checkers whose scope matches, applying inline waivers, and
rendering human or JSON output.

Waivers
-------
A finding is waived by a comment on the finding's line (or a standalone
comment on the line directly above it)::

    started = time.time()  # reprolint: disable=determinism -- <justification>

The justification text after ``--`` is mandatory: the waiver *is* the
documentation of why the invariant may be broken here, so an empty one is
reported as a ``waiver`` finding and fails the lint.  So does a waiver that
matches no finding (``waiver-unused``) — stale waivers would otherwise
silently disable future detections on that line.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: ``# reprolint: disable=rule-a,rule-b -- justification``
WAIVER_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>[A-Za-z0-9_,-]+)"
    r"(?:\s+--\s*(?P<why>.*\S))?\s*$"
)


@dataclass
class Finding:
    """One rule violation (or waiver problem) at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    justification: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "waived": self.waived,
            "justification": self.justification,
        }


@dataclass
class Waiver:
    """One parsed ``# reprolint: disable=...`` comment."""

    path: str
    line: int
    rules: Tuple[str, ...]
    justification: str
    #: The source line the waiver covers (its own line, or the next line
    #: when the comment stands alone).
    covers_line: int
    used: bool = False


@dataclass
class ModuleSource:
    """One parsed module, shared by every checker that scopes to it."""

    path: Path
    rel: str  # posix-style path relative to the scanned root
    text: str
    lines: List[str]
    tree: ast.Module


class Checker:
    """Base class: subclasses set ``name`` and implement :meth:`check`.

    ``include`` lists posix path fragments; a module is routed to the
    checker when any fragment is a substring of (or fnmatch pattern
    matching) its root-relative path.  An empty tuple scopes the checker to
    every module.
    """

    name: str = ""
    description: str = ""
    include: Tuple[str, ...] = ()

    def matches(self, rel: str) -> bool:
        if not self.include:
            return True
        return any(
            fragment in rel or fnmatch.fnmatch(rel, fragment)
            for fragment in self.include
        )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        raise NotImplementedError


@dataclass
class LintReport:
    """Everything one lint run produced, pre-split by waiver status."""

    findings: List[Finding] = field(default_factory=list)  # active (fail the lint)
    waived: List[Finding] = field(default_factory=list)
    waivers: List[Waiver] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [finding.as_dict() for finding in self.findings],
            "waived": [finding.as_dict() for finding in self.waived],
            "waivers": [
                {
                    "path": waiver.path,
                    "line": waiver.line,
                    "rules": list(waiver.rules),
                    "justification": waiver.justification,
                    "used": waiver.used,
                }
                for waiver in self.waivers
            ],
        }


def parse_waivers(rel: str, lines: Sequence[str]) -> List[Waiver]:
    """Extract every waiver comment of a module."""
    waivers: List[Waiver] = []
    for index, line in enumerate(lines, start=1):
        match = WAIVER_RE.search(line)
        if match is None:
            continue
        standalone = line.strip().startswith("#")
        waivers.append(
            Waiver(
                path=rel,
                line=index,
                rules=tuple(
                    rule.strip() for rule in match.group("rules").split(",") if rule.strip()
                ),
                justification=(match.group("why") or "").strip(),
                covers_line=index + 1 if standalone else index,
            )
        )
    return waivers


def discover_files(paths: Sequence[Path]) -> List[Tuple[Path, Path]]:
    """Resolve *paths* to ``(root, file)`` pairs, sorted for determinism."""
    pairs: List[Tuple[Path, Path]] = []
    for path in paths:
        if path.is_file():
            pairs.append((path.parent, path))
        elif path.is_dir():
            pairs.extend((path, file) for file in sorted(path.rglob("*.py")))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return pairs


def load_module(root: Path, path: Path) -> ModuleSource:
    text = path.read_text(encoding="utf-8")
    return ModuleSource(
        path=path,
        rel=path.relative_to(root).as_posix(),
        text=text,
        lines=text.splitlines(),
        tree=ast.parse(text, filename=str(path)),
    )


def _apply_waivers(
    findings: List[Finding], waivers: List[Waiver], report: LintReport
) -> None:
    """Split *findings* into active/waived; flag broken or stale waivers."""
    by_line: Dict[Tuple[str, int], List[Waiver]] = {}
    for waiver in waivers:
        by_line.setdefault((waiver.path, waiver.covers_line), []).append(waiver)
        report.waivers.append(waiver)

    for finding in findings:
        waiver = next(
            (
                candidate
                for candidate in by_line.get((finding.path, finding.line), ())
                if finding.rule in candidate.rules
            ),
            None,
        )
        if waiver is None:
            report.findings.append(finding)
            continue
        waiver.used = True
        if not waiver.justification:
            # The waiver applies but is unjustified: keep the original
            # finding active and add the waiver error, so the lint stays
            # red until the author writes down *why*.
            report.findings.append(finding)
        else:
            finding.waived = True
            finding.justification = waiver.justification
            report.waived.append(finding)

    for waiver in waivers:
        if not waiver.justification:
            report.findings.append(
                Finding(
                    rule="waiver",
                    path=waiver.path,
                    line=waiver.line,
                    col=0,
                    message=(
                        "waiver without justification: write "
                        "'# reprolint: disable=<rule> -- <why this is safe>'"
                    ),
                )
            )
        elif not waiver.used:
            report.findings.append(
                Finding(
                    rule="waiver-unused",
                    path=waiver.path,
                    line=waiver.line,
                    col=0,
                    message=(
                        f"waiver for {', '.join(waiver.rules)} matches no finding; "
                        "remove it (stale waivers mask future violations)"
                    ),
                )
            )


def run_lint(
    paths: Sequence[Path],
    checkers: Sequence[Checker],
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run *checkers* (optionally narrowed to *rules*) over *paths*."""
    selected = [
        checker
        for checker in checkers
        if rules is None or checker.name in rules
    ]
    report = LintReport()
    all_findings: List[Finding] = []
    all_waivers: List[Waiver] = []
    for root, path in discover_files(paths):
        module = load_module(root, path)
        report.files_checked += 1
        all_waivers.extend(parse_waivers(module.rel, module.lines))
        for checker in selected:
            if checker.matches(module.rel):
                all_findings.extend(checker.check(module))
    all_findings.sort(key=lambda finding: (finding.path, finding.line, finding.col, finding.rule))
    _apply_waivers(all_findings, all_waivers, report)
    report.findings.sort(key=lambda finding: (finding.path, finding.line, finding.col, finding.rule))
    return report


def render_human(report: LintReport, stream=None, verbose: bool = False) -> None:
    stream = stream if stream is not None else sys.stdout
    for finding in report.findings:
        print(f"{finding.location()}: [{finding.rule}] {finding.message}", file=stream)
    if verbose:
        for finding in report.waived:
            print(
                f"{finding.location()}: [{finding.rule}] waived -- {finding.justification}",
                file=stream,
            )
    status = "clean" if report.ok else f"{len(report.findings)} finding(s)"
    print(
        f"reprolint: {report.files_checked} file(s), {len(report.waived)} waived, {status}",
        file=stream,
    )


def render_json(report: LintReport, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    json.dump(report.as_dict(), stream, indent=2, sort_keys=True)
    stream.write("\n")


class Iterators:
    """Small shared AST helpers used by several checkers."""

    @staticmethod
    def walk_functions(tree: ast.AST) -> Iterator[ast.AST]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    @staticmethod
    def is_self_attr(node: ast.AST, attr: str) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    @staticmethod
    def call_name(node: ast.Call) -> str:
        """The rightmost name of a call target (``a.b.c() -> 'c'``)."""
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return ""
