"""RNG-discipline rules.

Every Monte-Carlo estimate behind Theorems 1–3 must be bit-for-bit
reproducible from one integer seed.  That holds only if *all* randomness
flows through :mod:`repro.util.rng`: ``as_generator`` coerces seeds,
``spawn``/``fixed_seeds`` derive independent sub-streams.  Ad-hoc
``np.random.default_rng(...)`` calls (or stdlib ``random``) create
untracked entropy streams that silently break replay, so they are banned
everywhere except ``util/rng.py`` itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.context import ModuleContext, dotted_chain
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import LintRule, register_rule

__all__ = ["RngFactoryRule", "RngCoerceRule", "RngDisciplineRule"]

# numpy.random attributes that are types/utilities, not entropy sources;
# referencing them (annotations, isinstance) is fine anywhere.
_ALLOWED_NP_RANDOM_ATTRS = {"Generator", "BitGenerator", "SeedSequence"}

_ROUTE_HINT = "route randomness through repro.util.rng (as_generator/spawn/fixed_seeds)"


def _collect_numpy_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names bound to the ``numpy`` module and to ``numpy.random``."""
    numpy_aliases: set[str] = set()
    random_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "numpy.random" and alias.asname:
                    random_aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
    return numpy_aliases, random_aliases


@register_rule
class RngFactoryRule(LintRule):
    """Ban direct RNG construction outside ``repro/util/rng.py``."""

    rule_id = "rng-factory"
    summary = (
        "no direct np.random.* entropy sources or stdlib random outside util/rng.py"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.is_rng_module:
            return
        numpy_aliases, random_aliases = _collect_numpy_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.diag(
                            ctx,
                            node,
                            f"stdlib 'random' is banned for reproducibility; {_ROUTE_HINT}",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.diag(
                        ctx,
                        node,
                        f"stdlib 'random' is banned for reproducibility; {_ROUTE_HINT}",
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _ALLOWED_NP_RANDOM_ATTRS:
                            yield self.diag(
                                ctx,
                                node,
                                f"direct import of numpy.random.{alias.name}; {_ROUTE_HINT}",
                            )
            elif isinstance(node, ast.Call):
                chain = dotted_chain(node.func)
                if chain is None:
                    continue
                attr = None
                if (
                    len(chain) == 3
                    and chain[0] in numpy_aliases
                    and chain[1] == "random"
                ):
                    attr = chain[2]
                elif len(chain) == 2 and chain[0] in random_aliases:
                    attr = chain[1]
                if attr is not None and attr not in _ALLOWED_NP_RANDOM_ATTRS:
                    yield self.diag(
                        ctx,
                        node,
                        f"direct call to numpy.random.{attr}; {_ROUTE_HINT}",
                    )


def _annotation_is_generator(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return "Generator" in text


def _rng_like_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Loosely-typed rng/seed parameters of ``fn`` that still need coercion."""
    params = set()
    args = fn.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *( [args.vararg] if args.vararg else [] ),
        *( [args.kwarg] if args.kwarg else [] ),
    ]:
        if arg.arg in ("rng", "seed") and not _annotation_is_generator(arg.annotation):
            params.add(arg.arg)
    return params


@register_rule
class RngCoerceRule(LintRule):
    """Randomized functions must coerce their ``rng``/``seed`` parameter
    through ``as_generator`` before drawing from it."""

    rule_id = "rng-coerce"
    summary = "coerce rng/seed parameters via as_generator before drawing"

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.is_rng_module:
            return
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _rng_like_params(fn)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                # as_generator() with no seed draws fresh OS entropy:
                # irreproducible by construction.
                chain = dotted_chain(node.func)
                if (
                    chain is not None
                    and chain[-1] == "as_generator"
                    and not node.args
                    and not node.keywords
                ):
                    yield self.diag(
                        ctx,
                        node,
                        "as_generator() with no argument draws fresh OS entropy; "
                        "thread an explicit seed or rng parameter through",
                    )
                    continue
                if not params:
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in params
                ):
                    yield self.diag(
                        ctx,
                        node,
                        f"drawing from raw parameter {func.value.id!r}; coerce it "
                        f"first (gen = as_generator({func.value.id})) so int seeds, "
                        "SeedSequences, and Generators are all accepted",
                    )


# Generator methods that consume stream *position*: each call's value
# depends on every draw before it, which is exactly what addressed
# streams exist to avoid.  Inspection-only attributes are not listed.
_POSITIONAL_DRAWS = {
    "random",
    "integers",
    "uniform",
    "choice",
    "shuffle",
    "permutation",
    "normal",
    "standard_normal",
    "exponential",
    "bytes",
}

_ADDRESSED_HINT = (
    "draw by logical index instead (ReplayableStream.uniforms_at/"
    "integers_at/generator_at, or BoxDistribution.sample_at) so chunked "
    "and scalar consumers see identical values; a deliberate legacy "
    "branch can carry '# repro-lint: disable=rng-discipline'"
)


def _annotation_mentions_stream(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return "ReplayableStream" in text


def _stream_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound to a ReplayableStream inside ``fn``: parameters named
    or annotated as streams, plus locals assigned from a stream
    constructor or substream derivation."""
    names: set[str] = set()
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        ann = arg.annotation
        if arg.arg == "stream" or (
            ann is not None
            and _annotation_mentions_stream(ann)
            and "Generator" not in (ast.unparse(ann) if ann else "")
        ):
            names.add(arg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            chain = dotted_chain(node.value.func)
            if chain is None:
                continue
            if chain[-1] in ("ReplayableStream", "substream", "for_trial"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _stream_in_scope(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when ``fn`` handles a ReplayableStream at all — including
    union-annotated parameters that might be one."""
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg == "stream" or _annotation_mentions_stream(arg.annotation):
            return True
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            chain = dotted_chain(node.value.func)
            if chain is not None and chain[-1] in (
                "ReplayableStream",
                "substream",
                "for_trial",
            ):
                return True
    return False


@register_rule
class RngDisciplineRule(LintRule):
    """In the replay-critical layers, a function that has an addressed
    stream in scope must not also draw *positionally* from a Generator:
    mixing the two desynchronizes the chunked and scalar paths the
    stream was introduced to keep bit-identical."""

    rule_id = "rng-discipline"
    summary = (
        "no positional Generator draws where a ReplayableStream is in scope "
        "(repro.simulation / repro.profiles)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        parts = set(ctx.posix_path.parts)
        if "repro" not in parts or not ({"simulation", "profiles"} & parts):
            return
        seen: set[tuple[int, int]] = set()
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _stream_in_scope(fn):
                continue
            streams = _stream_names(fn)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    not isinstance(func, ast.Attribute)
                    or func.attr not in _POSITIONAL_DRAWS
                    or not isinstance(func.value, ast.Name)
                    or func.value.id in streams
                ):
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield self.diag(
                    ctx,
                    node,
                    f"positional draw {func.value.id}.{func.attr}(...) in a "
                    f"function with a ReplayableStream in scope; {_ADDRESSED_HINT}",
                )
