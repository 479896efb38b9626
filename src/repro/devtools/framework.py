"""The reprolint rule framework: findings, rules, registry, suppressions.

reprolint is this repository's own static-analysis pass.  It exists
because the system's correctness rests on *conventions* generic linters
cannot know about: bit-identical numpy/pure-Python fallback twins,
seeded-only randomness in engine code (the determinism contract behind
``r1:``/``u1:`` content digests), non-blocking asyncio service tiers,
and typed errors at every wire/recovery boundary.  Each rule in
:mod:`repro.devtools.rules` encodes one such contract as an AST check.

This module is the machinery shared by every rule:

* :class:`Finding` — one diagnostic, stable enough to baseline.
* :class:`Rule` — base class; subclasses set ``code``/``name``/
  ``rationale``/``module_prefixes`` and implement :meth:`Rule.check`.
* :func:`register` / :data:`REGISTRY` — the per-code rule registry.
* :class:`FileContext` — parsed AST + source + module name + per-rule
  options, handed to every rule for one file.
* Suppressions — ``# reprolint: disable=RPL001`` on the offending line
  (or the line directly above) silences that code there.  A justifying
  reason after the codes is strongly encouraged and surfaced in
  ``--list-suppressions`` style tooling; see docs/DEVTOOLS.md.

Nothing here imports numpy, the service tier, or anything heavier than
``ast``/``tokenize`` — the linter must run on the numpy-free CI leg.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "Rule",
    "FileContext",
    "REGISTRY",
    "register",
    "all_rules",
    "module_name_for",
    "parse_suppressions",
    "Suppression",
]


@dataclass(frozen=True)
class Finding:
    """One diagnostic: *where* plus *what contract was broken*.

    ``line``/``col`` are 1-based/0-based as in :mod:`ast`.  ``source``
    is the stripped text of the offending line — it participates in the
    baseline key (see :mod:`repro.devtools.baseline`), so findings
    survive unrelated line-number drift.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    module: str | None = None
    source: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """A ``# reprolint: disable=...`` comment and where it applies."""

    line: int
    codes: tuple[str, ...]
    reason: str
    standalone: bool  # a comment-only line suppresses the line below


_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)"
    r"(?P<reason>.*)$"
)


def parse_suppressions(source: str) -> list[Suppression]:
    """Extract suppression comments via :mod:`tokenize`.

    Tokenizing (rather than regexing raw lines) means a ``#`` inside a
    string literal can never be misread as a comment.  Unreadable files
    degrade to no suppressions rather than crashing the lint run.
    """
    suppressions: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, ValueError):
        return suppressions
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        codes = tuple(
            part.strip() for part in match.group("codes").split(",") if part.strip()
        )
        reason = match.group("reason").strip().lstrip("-—: ").strip()
        standalone = tok.string.strip() == tok.line.strip()
        suppressions.append(
            Suppression(
                line=tok.start[0], codes=codes, reason=reason, standalone=standalone
            )
        )
    return suppressions


def suppressed_lines(suppressions: Iterable[Suppression]) -> dict[int, set[str]]:
    """Map line number -> codes silenced there.

    An inline comment covers its own line; a standalone comment line
    covers the line below it (the conventional spot when the offending
    line is already long).
    """
    covered: dict[int, set[str]] = {}
    for sup in suppressions:
        target = sup.line + 1 if sup.standalone else sup.line
        covered.setdefault(target, set()).update(sup.codes)
        # An inline suppression on a multi-line statement's first line is
        # found at the comment's own line; also honour it there.
        if not sup.standalone:
            covered.setdefault(sup.line, set()).update(sup.codes)
    return covered


def module_name_for(path: Path) -> str | None:
    """Dotted module name for ``path``, or None outside any package root.

    Resolution mirrors the repo layout: everything after a ``src``
    directory component is the package path; failing that, a ``repro``
    component anchors the package directly (this keeps fixture trees in
    tests working without a ``src/`` shim).
    """
    parts = path.parts
    anchor = None
    if "src" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("src") + 1
    elif "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    if anchor is None or anchor >= len(parts):
        return None
    dotted = list(parts[anchor:])
    if not dotted:
        return None
    dotted[-1] = dotted[-1].removesuffix(".py")
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted) if dotted else None


@dataclass
class FileContext:
    """Everything a rule needs to check one file."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    module: str | None
    options: dict[str, dict] = field(default_factory=dict)
    root: Path | None = None
    _lines: list[str] | None = None

    @property
    def lines(self) -> list[str]:
        if self._lines is None:
            self._lines = self.source.splitlines()
        return self._lines

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def rule_options(self, code: str) -> dict:
        return self.options.get(code, {})


class Rule:
    """Base class for reprolint rules.

    Subclasses define:

    * ``code`` — stable ``RPLxxx`` identifier (baseline + suppression key)
    * ``name`` — short kebab-case label for human output
    * ``rationale`` — one sentence: which repo contract this enforces
    * ``module_prefixes`` — dotted-module prefixes the rule applies to;
      empty tuple = every linted file (used by path-scoped rules).
    * :meth:`check` — yield :class:`Finding` for ``ctx``.
    """

    code: str = "RPL000"
    name: str = "unnamed"
    rationale: str = ""
    module_prefixes: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if not self.module_prefixes:
            return True
        if ctx.module is None:
            return False
        return any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in self.module_prefixes
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=ctx.display_path,
            line=line,
            col=col,
            code=self.code,
            message=message,
            module=ctx.module,
            source=ctx.line_text(line),
        )


REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding ``rule_cls`` to the registry by code."""
    if rule_cls.code in REGISTRY and REGISTRY[rule_cls.code] is not rule_cls:
        raise ValueError(f"duplicate reprolint rule code {rule_cls.code}")
    REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules(
    enabled: Iterable[str] | None = None, disabled: Iterable[str] = ()
) -> list[Rule]:
    """Instantiate the registry, honouring enable/disable config."""
    disabled_set = set(disabled)
    codes = sorted(REGISTRY) if enabled is None else [c for c in enabled if c in REGISTRY]
    return [REGISTRY[code]() for code in codes if code not in disabled_set]


class ImportTracker(ast.NodeVisitor):
    """Track module-alias bindings rules need to resolve call targets.

    After visiting a tree, ``aliases`` maps local name -> dotted module
    (``import time as t`` => ``t -> time``; ``from numpy import random as
    npr`` => ``npr -> numpy.random``) and ``from_imports`` maps local
    name -> ``(module, original_name)`` for non-module objects
    (``from random import Random`` => ``Random -> ('random', 'Random')``).
    """

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}
        self.from_imports: dict[str, tuple[str, str]] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:  # relative "from . import x" — not a stdlib target
            return
        for alias in node.names:
            local = alias.asname or alias.name
            self.aliases.setdefault(local, f"{node.module}.{alias.name}")
            self.from_imports[local] = (node.module, alias.name)


def dotted_call_target(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Resolve ``mod.attr.fn(...)`` to a dotted name using import aliases.

    Returns e.g. ``time.sleep`` for ``t.sleep()`` after ``import time as
    t``, or None when the callee root is not a tracked module alias.
    Plain-name calls resolve through ``from``-import aliases too
    (``from time import sleep`` => ``time.sleep``).
    """
    func = node.func
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        root = aliases.get(func.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))
    return None
