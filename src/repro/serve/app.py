"""The serve daemon application: routing, admission, hot tier, drain.

One event loop owns everything.  A request for
``/v1/run/{experiment}`` walks a three-rung tier ladder:

1. **memory** — the adaptive in-process hot tier
   (:mod:`repro.serve.hotcache`) holds the rendered response bytes of
   recently served artifacts, keyed by store digest.  A memory hit
   skips the fingerprinter, the executor, and the disk entirely.
2. **store** — the content-addressed disk store: the key is
   fingerprinted against the live code and probed on an executor
   thread (blocking I/O never runs on the event loop).
3. **computed** — a miss is coalesced per :mod:`repro.serve.coalesce`
   and dispatched to the :class:`~repro.runtime.runner.RunnerPool` —
   the same ``execute`` path the CLI and ``ExperimentRunner`` use, so a
   served artifact can never drift from an offline one.

Every ``/v1/run`` response body is the *warm-read stamped* artifact
form (``wall_time_s=0.0``, ``cache_hit=true``, ``saved_wall_time_s`` =
the stored compute time): exactly the bytes a warm ``repro run --json``
writes against the same store — whichever rung answered.  Request-level
metadata that would break that byte-identity (served-from, the cache
digest) travels in ``X-Repro-*`` headers instead of the body.

Connections are keep-alive: one handler loops requests until the client
closes, asks for ``Connection: close``, exhausts
``--max-requests-per-conn``, or sits idle past ``--idle-timeout``.
Admission control: at most ``max_inflight`` *distinct* computations may
be in flight; a miss that would start one more is answered ``429`` with
a ``Retry-After`` hint.  A hit is always admitted.  On SIGTERM/SIGINT
the daemon stops accepting connections, closes **idle** keep-alive
connections immediately, finishes what is in flight (in-request
connections get their responses), shuts the pool down, and exits 0
(``docs/SERVE.md``).
"""

from __future__ import annotations

import json
import signal
import sys
from dataclasses import dataclass, replace
from typing import Any, Awaitable, Callable

import asyncio

from repro.cache.fingerprint import fingerprint_generation
from repro.cache.store import Cache, cache_key_for
from repro.errors import ExperimentError, ReproError
from repro.runtime.artifact import RunArtifact
from repro.runtime.request import WIRE_VERSION, RunRequest, RunResponse
from repro.serve.coalesce import Coalescer
from repro.serve.hotcache import DEFAULT_HOT_BYTES, HotCache
from repro.serve.http import (
    MAX_LINE_BYTES,
    READ_TIMEOUT_S,
    HttpError,
    HttpRequest,
    HttpResponse,
    read_request,
    render_response,
)
from repro.serve.stats import ServeStats

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_MAX_REQUESTS_PER_CONN",
    "DEFAULT_IDLE_TIMEOUT_S",
    "DRAIN_TIMEOUT_S",
    "ServeConfig",
    "ServeApp",
    "serve_forever",
]

DEFAULT_PORT = 8023
DEFAULT_MAX_INFLIGHT = 16

#: Requests one keep-alive connection may carry before the daemon
#: closes it (``Connection: close`` on the last response).  Bounds how
#: long one client can monopolize a handler; generous because requests
#: are served sequentially per connection anyway.
DEFAULT_MAX_REQUESTS_PER_CONN = 1000

#: How long a keep-alive connection may sit idle between requests
#: before the daemon closes it.  Distinct from the in-request
#: :data:`~repro.serve.http.READ_TIMEOUT_S` (a client that *started*
#: talking gets 408; a quiet-between-requests client is just closed).
DEFAULT_IDLE_TIMEOUT_S = 30.0

#: Upper bound on waiting for open connections to finish their writes
#: during drain.  Computations are already complete by then (drain
#: awaits the coalescer first), so this only covers response rendering
#: and socket flushes; a client too slow to take its bytes within the
#: bound is cut, not waited on forever.
DRAIN_TIMEOUT_S = 10.0

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs, as parsed from ``repro serve``'s flags.

    ``jobs=0`` executes cache misses on the event loop's default thread
    executor instead of a process pool — in-process, so monkeypatched
    registries stay visible; the mode tests (and tiny deployments) use.
    ``hot_bytes=0`` disables the in-memory hot tier.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    jobs: int = 1
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    cache_dir: str | None = None
    max_requests_per_conn: int = DEFAULT_MAX_REQUESTS_PER_CONN
    idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S
    hot_bytes: int = DEFAULT_HOT_BYTES

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ExperimentError(f"serve jobs must be >= 0, got {self.jobs}")
        if self.max_inflight < 1:
            raise ExperimentError(
                f"serve max-inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_requests_per_conn < 1:
            raise ExperimentError(
                "serve max-requests-per-conn must be >= 1, "
                f"got {self.max_requests_per_conn}"
            )
        if self.idle_timeout_s <= 0:
            raise ExperimentError(
                f"serve idle-timeout must be > 0, got {self.idle_timeout_s}"
            )
        if self.hot_bytes < 0:
            raise ExperimentError(
                f"serve hot-bytes must be >= 0 (0 disables), "
                f"got {self.hot_bytes}"
            )


def _json_body(payload: dict[str, Any]) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _error_response(status: int, detail: str) -> HttpResponse:
    return HttpResponse(
        status=status,
        body=_json_body({"error": {"status": status, "detail": detail}}),
        headers={"Retry-After": "1"} if status in (429, 503) else {},
    )


def _parse_bool(raw: str, name: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise HttpError(400, f"query parameter {name!r} must be boolean, got {raw!r}")


def _parse_run_query(request: HttpRequest) -> tuple[bool, int]:
    """The shared ``quick``/``seed`` parameters of the run endpoints."""
    quick = True
    if "quick" in request.query:
        quick = _parse_bool(request.query["quick"], "quick")
    try:
        seed = int(request.query.get("seed", "0"))
    except ValueError:
        raise HttpError(
            400,
            f"query parameter 'seed' must be an integer, "
            f"got {request.query['seed']!r}",
        ) from None
    return quick, seed


class ServeApp:
    """Routing and request lifecycle; one instance per daemon."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.stats = ServeStats()
        self.cache = Cache(config.cache_dir)
        self.coalescer = Coalescer()
        self.hot = HotCache(config.hot_bytes)
        self.draining = False
        self._pool: Any = None  # RunnerPool, created lazily on first miss
        # Open connection-handler tasks, and the subset currently idle
        # (parked between requests on a keep-alive connection).  Drain
        # cancels the idle ones immediately — nothing is in flight on
        # them — and awaits the rest (bounded) after the coalescer so
        # shutdown never truncates a response whose computation already
        # finished.
        self._connections: set[asyncio.Task[None]] = set()
        self._idle: set[asyncio.Task[None]] = set()
        # request key -> store digest, so a repeat request reaches the
        # hot tier without re-fingerprinting.  Within one process a
        # digest only changes when the fingerprint memos are cleared;
        # watching their generation keeps the hints exactly as fresh.
        self._hot_index: dict[tuple[str, bool, int], str] = {}
        self._hint_generation = fingerprint_generation()

    # -- dispatch ------------------------------------------------------
    def _dispatcher(self) -> Callable[[RunRequest], Awaitable[RunResponse]]:
        """How a cache miss gets computed: process pool (``jobs >= 1``)
        or the loop's default thread executor (``jobs == 0``)."""
        from repro.runtime.runner import RunnerPool, execute

        if self.config.jobs == 0:
            async def run_inline(request: RunRequest) -> RunResponse:
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, execute, request)

            return run_inline
        if self._pool is None:
            # spawn, not fork: forked workers would inherit the open
            # client sockets and keep closed connections from reaching
            # EOF (see RunnerPool).
            self._pool = RunnerPool(self.config.jobs, context="spawn")

        pool = self._pool

        async def run_pooled(request: RunRequest) -> RunResponse:
            return await asyncio.wrap_future(pool.submit(request))

        return run_pooled

    # -- routes --------------------------------------------------------
    async def handle(self, request: HttpRequest) -> HttpResponse:
        """Route one parsed request; never raises (500 is a response)."""
        self.stats.requests += 1
        start = self.stats.start_clock()
        try:
            if request.path == "/v1/healthz":
                response = self._handle_healthz()
            elif request.path == "/v1/stats":
                response = self._handle_stats()
            elif request.path == "/v1/metrics":
                response = self._handle_metrics()
            elif request.path == "/v1/run-all":
                response = await self._handle_run_all(request)
            elif request.path.startswith("/v1/run/"):
                response = await self._handle_run(request)
            else:
                response = _error_response(404, f"no route for {request.path}")
        except Exception as exc:  # noqa: BLE001 — classified below
            status, detail = self._classify_error(exc)
            response = _error_response(status, detail)
        self.stats.observe(start)
        return response

    def _classify_error(self, exc: Exception) -> tuple[int, str]:
        """Map an exception to its response status, updating counters.

        Shared by the top-level router and the per-experiment legs of
        ``/v1/run-all`` so a batched failure is accounted exactly like
        a single-run one."""
        if isinstance(exc, HttpError):
            return exc.status, exc.detail
        if isinstance(exc, ExperimentError):
            return 404, str(exc)
        if isinstance(exc, ReproError):
            self.stats.errors += 1
            return 500, str(exc)
        # a bug, not a client error: say so
        self.stats.errors += 1
        return 500, f"internal error: {type(exc).__name__}: {exc}"

    def _handle_healthz(self) -> HttpResponse:
        payload = {
            "status": "draining" if self.draining else "ok",
            "wire_version": WIRE_VERSION,
        }
        return HttpResponse(status=200, body=_json_body(payload))

    def _connection_gauges(self) -> dict[str, int]:
        idle = len(self._idle)
        return {
            "open": len(self._connections),
            "idle": idle,
            "active": len(self._connections) - idle,
        }

    def _handle_stats(self) -> HttpResponse:
        payload = self.stats.snapshot(
            inflight=len(self.coalescer),
            queue_depth=self.coalescer.waiting,
            draining=self.draining,
            connections=self._connection_gauges(),
            hot=self.hot.snapshot(),
        )
        payload["wire_version"] = WIRE_VERSION
        return HttpResponse(status=200, body=_json_body(payload))

    def _handle_metrics(self) -> HttpResponse:
        body = self.stats.render_prometheus(
            inflight=len(self.coalescer),
            queue_depth=self.coalescer.waiting,
            draining=self.draining,
            connections=self._connection_gauges(),
            hot=self.hot.snapshot(),
        ).encode("utf-8")
        return HttpResponse(
            status=200,
            body=body,
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _handle_run(self, request: HttpRequest) -> HttpResponse:
        if self.draining:
            return _error_response(503, "daemon is draining")
        experiment_id = request.path[len("/v1/run/"):]
        if not experiment_id or "/" in experiment_id:
            raise HttpError(400, "expected /v1/run/{experiment}")
        quick, seed = _parse_run_query(request)
        body, served_from, digest = await self._serve_one(
            experiment_id, quick, seed
        )
        return HttpResponse(
            status=200,
            body=body,
            headers={
                "X-Repro-Served-From": served_from,
                "X-Repro-Cache-Digest": digest,
                "X-Repro-Wire-Version": str(WIRE_VERSION),
            },
        )

    async def _handle_run_all(self, request: HttpRequest) -> HttpResponse:
        """``GET /v1/run-all?quick&seed&experiments=a,b,c``: one request
        fanned over the tier ladder per experiment, concurrently.

        Every leg shares the single-run path — hot tier, store probe,
        admission control, coalescing — so a batch can never jump the
        ``--max-inflight`` queue: legs that would exceed it surface as
        per-experiment 429 entries in ``errors``.  The response is one
        JSON map; ``artifacts`` values are exactly the per-run artifact
        payloads (the single-run body, parsed)."""
        if self.draining:
            return _error_response(503, "daemon is draining")
        quick, seed = _parse_run_query(request)
        raw = request.query.get("experiments", "").strip()
        if raw:
            ids = [part.strip() for part in raw.split(",") if part.strip()]
            if not ids:
                raise HttpError(
                    400, "query parameter 'experiments' names no experiments"
                )
        else:
            from repro.experiments.registry import EXPERIMENTS

            ids = sorted(EXPERIMENTS)
        ids = list(dict.fromkeys(ids))

        async def leg(
            experiment_id: str,
        ) -> tuple[str, dict[str, Any] | None, str, str, dict[str, Any] | None]:
            try:
                body, served_from, digest = await self._serve_one(
                    experiment_id, quick, seed
                )
            except Exception as exc:  # noqa: BLE001 — classified per leg
                status, detail = self._classify_error(exc)
                return experiment_id, None, "", "", {
                    "status": status,
                    "detail": detail,
                }
            return (
                experiment_id,
                json.loads(body.decode("utf-8")),
                served_from,
                digest,
                None,
            )

        results = await asyncio.gather(*(leg(eid) for eid in ids))
        artifacts: dict[str, Any] = {}
        served_from: dict[str, str] = {}
        digests: dict[str, str] = {}
        errors: dict[str, Any] = {}
        for experiment_id, artifact, source, digest, error in results:
            if error is not None:
                errors[experiment_id] = error
            else:
                artifacts[experiment_id] = artifact
                served_from[experiment_id] = source
                digests[experiment_id] = digest
        payload = {
            "wire_version": WIRE_VERSION,
            "quick": quick,
            "seed": seed,
            "artifacts": artifacts,
            "served_from": served_from,
            "digests": digests,
            "errors": errors,
        }
        return HttpResponse(status=200, body=_json_body(payload))

    # -- the tier ladder -----------------------------------------------
    def _check_hint_generation(self) -> None:
        generation = fingerprint_generation()
        if generation != self._hint_generation:
            # The fingerprint memos were cleared (tests, or a long
            # session refingerprinting after a code edit): every cached
            # request-key -> digest hint may now be stale.  Hot entries
            # themselves stay — they are content-addressed — but the
            # hints must be rebuilt through the fingerprinter.
            self._hint_generation = generation
            self._hot_index.clear()

    async def _serve_one(
        self, experiment_id: str, quick: bool, seed: int
    ) -> tuple[bytes, str, str]:
        """Serve one ``(experiment, quick, seed)`` through the tier
        ladder; returns ``(body, served_from, digest)``.

        ``served_from`` is ``memory`` (hot tier), ``store`` (disk),
        ``computed`` (this request ran it), or ``coalesced`` (rode
        another request's computation)."""
        request_key = (experiment_id, quick, seed)
        self._check_hint_generation()
        hint = self._hot_index.get(request_key)
        if hint is not None:
            body = self.hot.get(hint)
            if body is not None:
                self.stats.memory_hits += 1
                return body, "memory", hint
        loop = asyncio.get_running_loop()
        # cache_key_for validates the experiment id (404 via the
        # ExperimentError classification) and fingerprints the live
        # code through the store's fingerprint memo.  Both the
        # fingerprint and the store probe below run on the default
        # executor, not the event loop: a cold fingerprint walks and
        # hashes a module closure, and the store probe does
        # blocking file I/O (entry read + the hit's mtime stamp) —
        # done inline they would stall every connection, including
        # /v1/healthz, behind one slow disk.
        key = await loop.run_in_executor(
            None, cache_key_for, experiment_id, quick, seed, self.cache
        )
        if hint is not None and hint != key.digest:
            # The code changed under this key: the old digest can never
            # be requested again, so free its bytes immediately.
            self.hot.invalidate(hint)
        if hint != key.digest:
            body = self.hot.get(key.digest)
            if body is not None:
                self._hot_index[request_key] = key.digest
                self.stats.memory_hits += 1
                return body, "memory", key.digest
        entry = await loop.run_in_executor(None, self.cache.get, key)
        if entry is not None:
            self.stats.hits += 1
            artifact = replace(
                entry.artifact,
                wall_time_s=0.0,
                cache_hit=True,
                saved_wall_time_s=entry.stored_wall_time_s,
            )
            body = self._render_artifact(artifact)
            self._admit_hot(request_key, key.digest, body)
            return body, "store", key.digest
        # Miss: admit (bounded by distinct in-flight computations),
        # coalesce, dispatch.
        run_request = RunRequest(
            experiment_id=experiment_id,
            quick=quick,
            seed=seed,
            cache="auto",
            cache_dir=self.config.cache_dir,
        )
        if (
            run_request.coalesce_key not in self.coalescer
            and len(self.coalescer) >= self.config.max_inflight
        ):
            self.stats.rejected += 1
            raise HttpError(
                429,
                f"{len(self.coalescer)} computations already in flight "
                f"(max {self.config.max_inflight}); retry shortly",
            )
        dispatch = self._dispatcher()
        response, coalesced = await self.coalescer.run(
            run_request.coalesce_key, lambda: dispatch(run_request)
        )
        if coalesced:
            self.stats.coalesced += 1
        elif response.served_from == "store":
            # Raced a completing computation: our probe missed, but by
            # dispatch time the store had the entry (execute probes
            # again under cache=auto).  No computation ran for us, so
            # count a hit — `misses` stays the number of computations.
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        body = self._render_artifact(self._warm_form(response))
        if not coalesced:
            # The leader admits once; followers returning the same
            # bytes would only churn the LRU accounting.
            self._admit_hot(request_key, key.digest, body)
        return (
            body,
            "coalesced" if coalesced else response.served_from,
            key.digest,
        )

    def _admit_hot(self, request_key: tuple[str, bool, int], digest: str, body: bytes) -> None:
        self.hot.put(digest, body)
        self._hot_index[request_key] = digest

    @staticmethod
    def _warm_form(response: RunResponse) -> RunArtifact:
        """The warm-read stamped artifact for ``response`` — identical
        to what a subsequent warm read of the store would serve, so
        computed and cached answers are byte-identical."""
        if response.served_from == "store":
            return response.artifact  # execute() already stamped it
        artifact = response.artifact
        return replace(
            artifact.without_cache_stamp(),
            wall_time_s=0.0,
            cache_hit=True,
            saved_wall_time_s=artifact.wall_time_s,
        )

    @staticmethod
    def _render_artifact(artifact: RunArtifact) -> bytes:
        # Exactly what `repro run --json` writes for a warm run: the
        # byte-identity contract every tier must preserve.
        return (artifact.to_json() + "\n").encode("utf-8")

    # -- lifecycle -----------------------------------------------------
    async def start_server(self, host: str, port: int) -> "asyncio.Server":
        """The daemon's listening socket.  ``limit=MAX_LINE_BYTES`` is
        load-bearing: it makes the stream reader refuse to buffer past
        the documented request-line cap while hunting for CRLF, instead
        of accepting up to its 64 KiB default first."""
        return await asyncio.start_server(
            self.handle_connection, host=host, port=port, limit=MAX_LINE_BYTES
        )

    async def drain(self) -> None:
        """Finish in-flight work, then shut the pool down.

        Idle keep-alive connections are cancelled immediately — nothing
        is in flight on them, and waiting out their idle timeouts would
        stall shutdown for no one's benefit.  Then order matters:
        awaiting the coalescer futures resolves every computation, then
        awaiting the remaining (in-request) connection tasks (bounded by
        :data:`DRAIN_TIMEOUT_S`) lets their handlers finish writing the
        responses those computations produced.  The coalescer futures
        alone are not enough — they resolve *before* the leader/follower
        handlers render and flush, and on Python < 3.12
        ``server.wait_closed()`` does not wait for connection handlers
        either, so without this step ``asyncio.run`` would cancel
        handler tasks mid-write and truncate in-flight responses."""
        self.draining = True
        for task in tuple(self._idle):
            task.cancel()
        pending = tuple(self.coalescer.pending())
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        current = asyncio.current_task()
        connections = {t for t in self._connections if t is not current}
        if connections:
            await asyncio.wait(connections, timeout=DRAIN_TIMEOUT_S)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- connection plumbing -------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Keep-alive connection handler for ``asyncio.start_server``.

        Loops request → response until the client closes, asks for
        ``Connection: close``, exceeds the per-connection request
        budget, goes idle past the idle timeout, or the daemon drains.
        Pipelined requests are answered sequentially in arrival order.
        Every write path drains the transport before the connection can
        close — a slow reader gets its complete (error) body, never a
        truncated one."""
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self.stats.connections_opened += 1
        served = 0
        try:
            while not self.draining:
                # Idle phase: parked between requests (or awaiting the
                # first).  Drain cancels tasks in this phase outright.
                if task is not None:
                    self._idle.add(task)
                try:
                    timeout = (
                        READ_TIMEOUT_S
                        if served == 0
                        else self.config.idle_timeout_s
                    )
                    request = await asyncio.wait_for(
                        read_request(reader), timeout=timeout
                    )
                except asyncio.TimeoutError:
                    if served == 0:
                        # A connected-but-silent (or dribbling) client:
                        # answer 408 and close rather than parking this
                        # handler — and its socket — forever.
                        self.stats.record_parse_failure(408)
                        writer.write(
                            render_response(
                                _error_response(
                                    408,
                                    "timed out waiting for the request "
                                    f"({READ_TIMEOUT_S:g}s)",
                                ),
                                close=True,
                            )
                        )
                        await writer.drain()
                    # else: idle keep-alive expiry — close silently.
                    return
                except HttpError as exc:
                    self.stats.record_parse_failure(exc.status)
                    writer.write(
                        render_response(
                            _error_response(exc.status, exc.detail), close=True
                        )
                    )
                    await writer.drain()
                    return
                finally:
                    if task is not None:
                        self._idle.discard(task)
                if request is None:
                    return  # clean EOF: client closed between requests
                if served > 0:
                    self.stats.keepalive_reuses += 1
                response = await self.handle(request)
                served += 1
                close = (
                    not request.keep_alive
                    or served >= self.config.max_requests_per_conn
                    or self.draining
                )
                writer.write(render_response(response, close=close))
                await writer.drain()
                if close:
                    return
        except (ConnectionError, asyncio.CancelledError):
            # Client went away mid-write, or drain cancelled this
            # connection while it sat idle: nothing left to answer.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
                self._idle.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def serve_forever(config: ServeConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT; the CLI's ``repro serve``.

    Prints one ``listening on http://host:port`` line to stderr once
    accepting (readiness signal for supervisors and the smoke driver),
    then serves.  On signal: stop accepting, drain, exit 0."""
    app = ServeApp(config)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix loop
            pass
    server = await app.start_server(config.host, config.port)
    bound = server.sockets[0].getsockname() if server.sockets else (
        config.host,
        config.port,
    )
    print(
        f"repro serve: listening on http://{bound[0]}:{bound[1]} "
        f"(jobs={config.jobs}, max_inflight={config.max_inflight})",
        file=sys.stderr,
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await app.drain()
    print("repro serve: drained, exiting", file=sys.stderr, flush=True)
    return 0
