"""In-process tracer: wrap the layers' public functions, then enter the CLI.

Run as ``python tracer.py --out SPANS.json -- <repro CLI args>`` with the
package on ``PYTHONPATH``.  The tracer installs an import hook before
anything of ``repro`` is imported.  As each ``repro`` module finishes
executing, the hook wraps the targets that module defines and rebinds
every module-level name still holding an original, in modules loaded
before or after.  That covers ``from X import f`` bindings made at import
time, such as ``repro.simulation.montecarlo`` binding ``run_sampled`` and
``repro.serve.app`` binding ``cache_key_for``.  Methods are wrapped on
their class, which covers every call site at once.

Spans live in memory and are written when the CLI returns.  A span
records its name, start, end, parent and a tag: the experiment id below
``execute`` and the request target below ``ServeApp.handle``.  The
current span travels in a ``ContextVar``.  Executor threads start from
an empty context, so spans the daemon runs through ``run_in_executor``
have no parent; they still count in their layer's totals.  Pool workers
the program spawns are not traced.

Importing this module has no side effects: a spawned pool worker
re-imports it as ``__mp_main__``.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import importlib.abc
import importlib.machinery
import inspect
import itertools
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "TARGETS",
    "IMPORT_SPANS",
    "Recorder",
    "Target",
    "Tracer",
    "main",
]


class Span:
    __slots__ = ("id", "parent", "name", "tag", "t0", "t1", "extra")

    def __init__(self, id: int, parent: "Span | None", name: str, tag: Any) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.tag = tag if tag is not None else (parent.tag if parent else None)
        self.t0 = time.perf_counter()
        self.t1 = 0.0
        self.extra: Any = None

    def as_row(self) -> list[Any]:
        parent = self.parent.id if self.parent is not None else None
        return [self.id, parent, self.name, self.tag, self.t0, self.t1, self.extra]


_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "e2ebench_span", default=None
)


class Recorder:
    """Spans in memory; ``rows`` is what the tracer writes out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def open(self, name: str, tag: Any = None) -> tuple[Span, contextvars.Token]:
        span = Span(next(self._ids), _CURRENT.get(), name, tag)
        return span, _CURRENT.set(span)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.t1 = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    def rows(self) -> list[list[Any]]:
        return [span.as_row() for span in self.spans]


@dataclass(frozen=True)
class Target:
    """One public function or method to wrap.

    ``attr`` is ``"func"`` or ``"Class.method"`` in ``module``.
    ``tag`` derives the span tag from the call's bound arguments,
    ``extra`` a JSON value from the result.  A call made while a span of
    the same name is open joins that span (``to_json`` calling
    ``to_dict``; an estimate calling another).  ``required`` names the
    workloads on which the wrapper must fire."""

    module: str
    attr: str
    span: str
    required: frozenset[str]
    tag: Callable[[dict[str, Any]], Any] | None = None
    extra: Callable[[Any, dict[str, Any]], Any] | None = None


BOTH = frozenset({"runall", "serve"})
RUNALL = frozenset({"runall"})
SERVE = frozenset({"serve"})


def _request_target(args: dict[str, Any]) -> str:
    request = args["request"]
    query = "&".join(f"{k}={v}" for k, v in sorted(request.query.items()))
    return f"{request.path}?{query}" if query else request.path


TARGETS: tuple[Target, ...] = (
    Target("repro.cache.store", "cache_key_for", "fingerprint", BOTH),
    Target(
        "repro.cache.store",
        "Cache.get",
        "store.get",
        BOTH,
        extra=lambda result, args: result is not None,
    ),
    Target("repro.cache.store", "Cache.put", "store.put", RUNALL),
    Target("repro.cache.gc", "auto_collect", "gc", RUNALL),
    Target(
        "repro.runtime.runner",
        "execute",
        "execute",
        RUNALL,
        tag=lambda args: args["request"].experiment_id,
        extra=lambda result, args: result.served_from,
    ),
    Target("repro.runtime.artifact", "RunArtifact.render", "render.text", RUNALL),
    Target("repro.runtime.artifact", "RunArtifact.to_json", "render.json", SERVE),
    Target("repro.runtime.artifact", "RunArtifact.to_dict", "render.json", BOTH),
    Target(
        "repro.simulation.symbolic",
        "SymbolicSimulator.run",
        "sim.run",
        RUNALL,
        extra=lambda result, args: int(result.boxes_used),
    ),
    Target("repro.simulation.fastpath", "run_chunked", "sim.chunked", RUNALL),
    Target("repro.simulation.fastpath", "run_sampled", "sim.sampled", RUNALL),
    Target(
        "repro.simulation.montecarlo",
        "estimate",
        "mc",
        RUNALL,
        extra=lambda result, args: int(args["trials"]),
    ),
    Target(
        "repro.simulation.montecarlo",
        "estimate_expected_cost",
        "mc",
        RUNALL,
        extra=lambda result, args: int(args["trials"]),
    ),
    Target("repro.machine.ca_machine", "simulate_ca", "machine", RUNALL),
    Target("repro.machine.dam", "simulate_dam", "machine", RUNALL),
    Target("repro.machine.square_machine", "run_trace_on_boxes", "machine", RUNALL),
    Target("repro.machine.fastpath", "eval_lru_profile", "machine.kernel", RUNALL),
    Target("repro.machine.fastpath", "eval_lru_fixed", "machine.kernel", RUNALL),
    Target("repro.serve.app", "ServeApp.handle", "serve.handle", SERVE, tag=_request_target),
)

#: Modules whose first import is recorded as a span, by span name.
IMPORT_SPANS = {"repro": "import.repro", "repro.experiments.registry": "import.registry"}


def _binder(fn: Callable[..., Any]) -> Callable[[tuple, dict], dict[str, Any]]:
    signature = inspect.signature(fn)

    def bind(args: tuple, kwargs: dict) -> dict[str, Any]:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def make_wrapper(fn: Callable[..., Any], target: Target, recorder: Recorder) -> Callable[..., Any]:
    """A wrapper recording one span per outermost call of ``fn``; it
    passes arguments, return values and exceptions through untouched."""
    bind = _binder(fn) if (target.tag or target.extra) else None
    name = target.span

    def begin(args: tuple, kwargs: dict) -> tuple[Span, contextvars.Token, dict] | None:
        parent = _CURRENT.get()
        if parent is not None and parent.name == name:
            return None
        bound = bind(args, kwargs) if bind is not None else {}
        tag = target.tag(bound) if target.tag is not None else None
        span, token = recorder.open(name, tag)
        return span, token, bound

    def end(opened: tuple[Span, contextvars.Token, dict], result: Any, ok: bool) -> None:
        span, token, bound = opened
        if ok and target.extra is not None:
            span.extra = target.extra(result, bound)
        recorder.close(span, token)

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = begin(args, kwargs)
            if opened is None:
                return await fn(*args, **kwargs)
            ok, result = False, None
            try:
                result = await fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end(opened, result, ok)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        opened = begin(args, kwargs)
        if opened is None:
            return fn(*args, **kwargs)
        ok, result = False, None
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end(opened, result, ok)

    return wrapper


def _is_repro(module_name: str) -> bool:
    return module_name == "repro" or module_name.startswith("repro.")


class _PostImportHook(importlib.abc.MetaPathFinder):
    """Finds ``repro`` modules through the normal path finder and calls
    ``on_loaded`` right after each one executes."""

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not _is_repro(fullname):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None or not hasattr(spec.loader, "exec_module"):
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def traced_exec(module):
            span_name = IMPORT_SPANS.get(fullname)
            opened = tracer.recorder.open(span_name) if span_name else None
            try:
                exec_module(module)
            finally:
                if opened is not None:
                    tracer.recorder.close(*opened)
            tracer.on_loaded(module)

        spec.loader.exec_module = traced_exec
        return spec


class Tracer:
    """Installs wrappers for ``targets`` as their modules load; installs
    once, and ``restore`` undoes it."""

    def __init__(self, recorder: Recorder, targets: tuple[Target, ...] = TARGETS) -> None:
        self.recorder = recorder
        self.targets = targets
        self._pending: dict[str, list[Target]] = {}
        for target in targets:
            self._pending.setdefault(target.module, []).append(target)
        self._wrappers: dict[int, tuple[Any, Any]] = {}  # id(original) -> (original, wrapper)
        self._patches: list[tuple[Any, str, Any]] = []
        self._hook: _PostImportHook | None = None

    def install(self) -> None:
        """Hook future imports and wrap what is already loaded."""
        self._hook = _PostImportHook(self)
        sys.meta_path.insert(0, self._hook)
        for name in sorted(self._pending):
            module = sys.modules.get(name)
            if module is not None:
                self.on_loaded(module)
        for name, module in list(sys.modules.items()):
            if _is_repro(name):
                self._rebind(module)

    def restore(self) -> None:
        """Remove the hook and put every original back: on the defining
        module or class, and wherever a module bound a wrapper."""
        if self._hook is not None and self._hook in sys.meta_path:
            sys.meta_path.remove(self._hook)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        by_wrapper = {id(w): (w, original) for original, w in self._wrappers.values()}
        for name, module in list(sys.modules.items()):
            if _is_repro(name):
                for attr, value in list(getattr(module, "__dict__", {}).items()):
                    pair = by_wrapper.get(id(value))
                    if pair is not None and pair[0] is value:
                        setattr(module, attr, pair[1])
        self._patches.clear()
        self._wrappers.clear()

    def on_loaded(self, module: Any) -> None:
        for target in self._pending.pop(module.__name__, ()):
            self._wrap(module, target)
        self._rebind(module)

    def _wrap(self, module: Any, target: Target) -> None:
        owner = module
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if path else getattr(owner, attr)
        wrapper = make_wrapper(original, target, self.recorder)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        if not path:
            self._wrappers[id(original)] = (original, wrapper)
            for name, loaded in list(sys.modules.items()):
                if loaded is not module and _is_repro(name):
                    self._rebind(loaded)

    def _rebind(self, module: Any) -> None:
        """Point every module-level name holding an original at its wrapper."""
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            pair = self._wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, attr, pair[1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans (JSON)")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then repro CLI arguments")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    recorder = Recorder()
    tracer = Tracer(recorder)
    tracer.install()
    started = time.perf_counter()
    code = 1
    try:
        from repro.cli import main as repro_main

        code = repro_main(cli)
    finally:
        sys.stdout.flush()
        payload = {
            "started": started,
            "ended": time.perf_counter(),
            "spans": recorder.rows(),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
