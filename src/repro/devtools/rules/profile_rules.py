"""Profile-discipline rule.

Simulator entry points (``run_boxes``, ``run_repeated``,
``run_adaptive``, ``SymbolicSimulator.run`` / ``run_to_completion``)
accept ``SquareProfile | Iterable[int]`` for historical reasons, but the
*profile* form is the contract the analysis layer relies on: a
``SquareProfile`` is immutable, hashable (memo-shareable), and carries
the census/potential accessors the artifact tables are built from.
Feeding a raw inline box container — a list/tuple/set literal, a
comprehension, or an ``iter(...)``/``range(...)``-style builtin — at the
call site bypasses the profile validation (positive sizes, int64
canonicalization) and silently pins the run to a one-shot consumable
source.

Infinite continuations have a contract of their own: a box source
from :mod:`repro.profiles.sources` (``cycled``, ``sampled``,
``perturbed_limit``, ``order_perturbed``), which the chunked fast path
consumes natively.  An ``itertools`` ``chain(...)`` or ``cycle(...)``
passed as the box source is flagged: the engine cannot see through it,
so the run silently takes the per-box scalar loop.

The rule flags only *syntactically obvious* sources at the call site.
Generator *functions* like ``worst_case_boxes(...)`` (profiles too large
to materialize) and ``itertools.repeat(...)`` are indistinguishable from
profile constructors at the AST level and stay legal; a stream assigned to a
variable first is not tracked.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.context import ModuleContext
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import LintRule, register_rule

__all__ = ["ProfileDisciplineRule"]

# entry point name -> index of the boxes argument in the positional list
_FUNCTION_ENTRY_POINTS = {
    "run_boxes": 2,
    "run_repeated": 2,
    "run_adaptive": 2,
}
# method names checked on simulator-looking receivers (``sim.run(...)``);
# ``run_to_completion`` is distinctive enough to check on any receiver.
_METHOD_ENTRY_POINTS = {
    "run": 0,
    "run_to_completion": 0,
}

# builtins that produce one-shot/unvalidated box sources inline
_RAW_SOURCE_CALLS = frozenset(
    {"iter", "range", "map", "filter", "zip", "reversed", "sorted", "list", "tuple"}
)
# itertools combinators that hide a box source from the chunked engine
_STREAM_CALLS = frozenset({"chain", "cycle"})

_RAW_HINT = (
    "wrap finite box sequences in SquareProfile(...) so the simulator "
    "sees a validated, reusable profile"
)
_STREAM_HINT = (
    "build it with a box-source constructor from repro.profiles.sources "
    "(cycled, sampled, perturbed_limit, order_perturbed) so the chunked "
    "fast path can consume it"
)


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _looks_like_simulator(receiver: ast.AST) -> bool:
    name = _terminal_name(receiver)
    return name is not None and "sim" in name.lower()


def _stream_call(func: ast.AST) -> Optional[str]:
    """``chain``/``cycle`` when ``func`` names one, bare or as
    ``itertools.chain``/``itertools.cycle``."""
    if isinstance(func, ast.Name) and func.id in _STREAM_CALLS:
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _STREAM_CALLS
        and isinstance(func.value, ast.Name)
        and func.value.id == "itertools"
    ):
        return func.attr
    return None


def _source_problem(node: ast.AST) -> Optional[tuple[str, str]]:
    """``(label, hint)`` when ``node`` is an inline raw box source or an
    itertools stream, else None."""
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return f"a {type(node).__name__.lower()} literal", _RAW_HINT
    if isinstance(node, (ast.ListComp, ast.SetComp)):
        return "a comprehension", _RAW_HINT
    if isinstance(node, ast.GeneratorExp):
        return "a generator expression", _RAW_HINT
    if isinstance(node, ast.Call):
        stream = _stream_call(node.func)
        if stream is not None:
            return f"an itertools {stream}(...)", _STREAM_HINT
        name = _terminal_name(node.func)
        if name in _RAW_SOURCE_CALLS:
            return f"a {name}(...) call", _RAW_HINT
    return None


def _boxes_argument(node: ast.Call, index: int) -> Optional[ast.AST]:
    for kw in node.keywords:
        if kw.arg == "boxes":
            return kw.value
    if len(node.args) > index:
        arg = node.args[index]
        if isinstance(arg, ast.Starred):
            return None
        return arg
    return None


@register_rule
class ProfileDisciplineRule(LintRule):
    """Simulator entry points take a SquareProfile or a box source, not
    an inline raw box container or an itertools chain/cycle."""

    rule_id = "profile-discipline"
    summary = (
        "pass SquareProfile or a repro.profiles.sources box source to "
        "simulator entry points, not inline list/iter()/chain()/cycle() "
        "box sources"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            entry: Optional[str] = None
            index = 0
            name = _terminal_name(func)
            if name in _FUNCTION_ENTRY_POINTS and (
                isinstance(func, ast.Name)
                or (isinstance(func, ast.Attribute) and name is not None)
            ):
                entry, index = name, _FUNCTION_ENTRY_POINTS[name]
            elif isinstance(func, ast.Attribute) and func.attr in _METHOD_ENTRY_POINTS:
                if func.attr == "run_to_completion" or _looks_like_simulator(
                    func.value
                ):
                    entry, index = func.attr, _METHOD_ENTRY_POINTS[func.attr]
            if entry is None:
                continue
            boxes = _boxes_argument(node, index)
            if boxes is None:
                continue
            problem = _source_problem(boxes)
            if problem is not None:
                kind, hint = problem
                yield self.diag(
                    ctx, boxes, f"{entry}() receives {kind} as its box source; {hint}"
                )
