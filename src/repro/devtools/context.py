"""Per-module context handed to every lint rule.

The context bundles the parsed AST with the path-derived facts rules
dispatch on: whether the module is library code (under ``src/``), a
script (``benchmarks/``, ``examples/``), or a test; whether it *is* the
RNG module that the RNG-discipline rules exempt; and whether it lives in
``analysis/`` where exact float comparison is banned.  It also holds
:func:`dotted_chain`, the AST helper the rules and ``repro analyze``
share (this module imports nothing else from ``repro``, so both can use
it without an import cycle).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

__all__ = ["ModuleContext", "classify_role", "dotted_chain"]


def classify_role(path: PurePosixPath) -> str:
    """Classify ``path`` as ``"library"``, ``"script"``, or ``"test"``.

    Anything under a ``tests`` directory (or named ``test_*.py`` /
    ``conftest.py``) is a test; anything under ``src`` is library code;
    the rest (benchmarks, examples, ad-hoc scripts) are scripts.
    """
    name = path.name
    if (
        "tests" in path.parts
        or name.startswith("test_")
        or name == "conftest.py"
    ):
        return "test"
    if "src" in path.parts:
        return "library"
    return "script"


def dotted_chain(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` -> ("a", "b", "c"); None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module."""

    path: str
    tree: ast.Module
    source: str
    lines: list[str] = field(default_factory=list)
    role: str = "script"

    @classmethod
    def build(cls, path: str, source: str, tree: ast.Module) -> "ModuleContext":
        posix = PurePosixPath(path.replace("\\", "/"))
        ctx = cls(
            path=str(posix),
            tree=tree,
            source=source,
            lines=source.splitlines(),
            role=classify_role(posix),
        )
        return ctx

    # -- path-derived facts rules dispatch on --------------------------
    @property
    def posix_path(self) -> PurePosixPath:
        return PurePosixPath(self.path)

    @property
    def is_rng_module(self) -> bool:
        """True for ``repro/util/rng.py`` — the one place allowed to
        touch ``np.random`` constructors directly."""
        return self.posix_path.parts[-2:] == ("util", "rng.py")

    @property
    def in_analysis(self) -> bool:
        """True for modules in the ``analysis`` package, where the
        float-equality ban applies."""
        return "analysis" in self.posix_path.parts

    @property
    def is_dunder_main(self) -> bool:
        return self.posix_path.name == "__main__.py"
