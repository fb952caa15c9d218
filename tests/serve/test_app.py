"""The serve application: routing, store fast path, coalescing, drain."""

import asyncio
import json

import pytest

from repro import api
from repro.errors import ExperimentError
from repro.runtime.request import WIRE_VERSION, RunRequest, RunResponse
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.http import HttpRequest
from repro.serve.smoke import http_get


def get(path, query=None):
    return HttpRequest(method="GET", path=path, query=query or {}, headers={})


def make_app(**overrides):
    config = dict(jobs=0, max_inflight=16)
    config.update(overrides)
    return ServeApp(ServeConfig(**config))


def handle(app, request):
    return asyncio.run(app.handle(request))


def body_of(response):
    return json.loads(response.body.decode("utf-8"))


class TestServeConfig:
    def test_defaults(self):
        config = ServeConfig()
        assert config.port == 8023
        assert config.jobs == 1
        assert config.max_inflight == 16

    def test_negative_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            ServeConfig(jobs=-1)

    def test_zero_max_inflight_rejected(self):
        with pytest.raises(ExperimentError):
            ServeConfig(max_inflight=0)


class TestRoutes:
    def test_healthz(self):
        response = handle(make_app(), get("/v1/healthz"))
        assert response.status == 200
        assert body_of(response) == {"status": "ok", "wire_version": WIRE_VERSION}

    def test_healthz_reports_draining(self):
        app = make_app()
        app.draining = True
        assert body_of(handle(app, get("/v1/healthz")))["status"] == "draining"

    def test_stats_shape(self):
        app = make_app()
        payload = body_of(handle(app, get("/v1/stats")))
        for field in (
            "requests",
            "hits",
            "memory_hits",
            "misses",
            "coalesced",
            "rejected",
            "errors",
            "malformed",
            "timeouts",
            "inflight",
            "queue_depth",
            "draining",
            "connections",
            "hot",
        ):
            assert field in payload
        assert payload["wire_version"] == WIRE_VERSION
        assert set(payload["latency"]) == {"p50_ms", "p99_ms"}
        for field in ("hits", "misses", "ghost_hits", "resizes", "bytes"):
            assert field in payload["hot"]
        # the stats request itself was counted
        assert payload["requests"] == 2 or payload["requests"] == 1

    def test_unknown_route_is_404(self):
        response = handle(make_app(), get("/v2/run/fig1"))
        assert response.status == 404

    def test_unknown_experiment_is_404(self):
        response = handle(make_app(), get("/v1/run/no-such-figure"))
        assert response.status == 404
        assert "no-such-figure" in body_of(response)["error"]["detail"]

    def test_nested_run_path_is_400(self):
        response = handle(make_app(), get("/v1/run/fig1/extra"))
        assert response.status == 400

    def test_bad_seed_is_400(self):
        response = handle(make_app(), get("/v1/run/fig1", {"seed": "many"}))
        assert response.status == 400
        assert "seed" in body_of(response)["error"]["detail"]

    def test_bad_quick_is_400(self):
        response = handle(make_app(), get("/v1/run/fig1", {"quick": "maybe"}))
        assert response.status == 400

    def test_run_rejected_while_draining(self):
        app = make_app()
        app.draining = True
        response = handle(app, get("/v1/run/fig1"))
        assert response.status == 503
        assert response.headers.get("Retry-After") == "1"


class TestRunByteIdentity:
    def test_warm_hit_serves_offline_bytes(self):
        api.run("fig1")  # compute and store
        warm = api.run("fig1")  # the offline warm-read oracle
        app = make_app()
        response = handle(app, get("/v1/run/fig1"))
        assert response.status == 200
        assert response.body == (warm.to_json() + "\n").encode("utf-8")
        assert response.headers["X-Repro-Served-From"] == "store"
        assert response.headers["X-Repro-Wire-Version"] == str(WIRE_VERSION)
        assert app.stats.hits == 1 and app.stats.misses == 0

    def test_cold_miss_computes_then_memory_hits(self):
        app = make_app()
        first = handle(app, get("/v1/run/fig1"))
        second = handle(app, get("/v1/run/fig1"))
        assert first.status == second.status == 200
        assert first.headers["X-Repro-Served-From"] == "computed"
        # the computed response was admitted to the hot tier: the
        # repeat is a memory hit, byte-identical by construction
        assert second.headers["X-Repro-Served-From"] == "memory"
        assert first.body == second.body
        assert app.stats.misses == 1 and app.stats.memory_hits == 1

    def test_hot_tier_disabled_serves_from_store(self):
        app = make_app(hot_bytes=0)
        first = handle(app, get("/v1/run/fig1"))
        second = handle(app, get("/v1/run/fig1"))
        assert first.headers["X-Repro-Served-From"] == "computed"
        assert second.headers["X-Repro-Served-From"] == "store"
        assert first.body == second.body
        assert app.stats.memory_hits == 0 and app.stats.hits == 1

    def test_served_body_matches_offline_warm_read(self):
        app = make_app()
        served = handle(app, get("/v1/run/fig1", {"seed": "5"}))
        warm = api.run("fig1", seed=5)
        assert served.body == (warm.to_json() + "\n").encode("utf-8")

    def test_digest_header_names_the_store_entry(self):
        from repro.cache.store import cache_key_for

        app = make_app()
        response = handle(app, get("/v1/run/fig1"))
        expected = cache_key_for("fig1", True, 0).digest
        assert response.headers["X-Repro-Cache-Digest"] == expected


def gated_dispatcher(app, gate, calls):
    """Replace the app's dispatcher with a gate-controlled fake that
    still returns a real RunResponse (computed once, inline)."""
    from repro.runtime.runner import execute

    base = execute(RunRequest(experiment_id="fig1", cache="off"))

    async def dispatch(request):
        calls.append(request.coalesce_key)
        await gate.wait()
        return RunResponse(
            request=request, artifact=base.artifact, served_from="computed"
        )

    app._dispatcher = lambda: dispatch
    return base


def track_arrivals(app):
    """Count requests reaching the coalescer: the store probe runs on an
    executor, so arrival is no longer synchronous with ``handle`` — a
    test must wait for stragglers before opening the dispatch gate, or a
    late duplicate would start its own computation instead of riding the
    leader's."""
    class CountingCoalescer:
        def __init__(self, inner):
            self._inner = inner
            self.arrivals = []

        def __len__(self):
            return len(self._inner)

        def __contains__(self, key):
            return key in self._inner

        def pending(self):
            return self._inner.pending()

        async def run(self, key, factory):
            self.arrivals.append(key)
            return await self._inner.run(key, factory)

    app.coalescer = CountingCoalescer(app.coalescer)
    return app.coalescer.arrivals


class TestCoalescingAndAdmission:
    def test_duplicate_misses_coalesce_to_one_computation(self):
        async def go():
            app = make_app()
            gate = asyncio.Event()
            calls = []
            gated_dispatcher(app, gate, calls)
            arrivals = track_arrivals(app)
            tasks = [
                asyncio.create_task(app.handle(get("/v1/run/fig1")))
                for _ in range(4)
            ]
            while len(arrivals) < 4:
                await asyncio.sleep(0)
            gate.set()
            responses = await asyncio.gather(*tasks)
            assert all(r.status == 200 for r in responses)
            served = sorted(r.headers["X-Repro-Served-From"] for r in responses)
            assert served == ["coalesced", "coalesced", "coalesced", "computed"]
            bodies = {r.body for r in responses}
            assert len(bodies) == 1  # followers get the leader's bytes
            assert len(calls) == 1
            assert app.stats.misses == 1 and app.stats.coalesced == 3

        asyncio.run(go())

    def test_excess_distinct_misses_are_429(self):
        async def go():
            app = make_app(max_inflight=1)
            gate = asyncio.Event()
            calls = []
            gated_dispatcher(app, gate, calls)
            arrivals = track_arrivals(app)
            leader = asyncio.create_task(
                app.handle(get("/v1/run/fig1", {"seed": "1"}))
            )
            while len(arrivals) < 1:
                await asyncio.sleep(0)
            # a second *distinct* computation would exceed max_inflight
            rejected = await app.handle(get("/v1/run/fig1", {"seed": "2"}))
            assert rejected.status == 429
            assert rejected.headers.get("Retry-After") == "1"
            assert app.stats.rejected == 1
            # but a duplicate of the in-flight key is always admitted
            follower = asyncio.create_task(
                app.handle(get("/v1/run/fig1", {"seed": "1"}))
            )
            while len(arrivals) < 2:
                await asyncio.sleep(0)
            gate.set()
            leader_response, follower_response = await asyncio.gather(
                leader, follower
            )
            assert leader_response.status == 200
            assert follower_response.status == 200
            assert follower_response.headers["X-Repro-Served-From"] == "coalesced"
            assert len(calls) == 1

        asyncio.run(go())


class TestDrain:
    def test_drain_waits_for_inflight_work(self, wait_until):
        async def go():
            app = make_app()
            gate = asyncio.Event()
            calls = []
            gated_dispatcher(app, gate, calls)
            task = asyncio.create_task(app.handle(get("/v1/run/fig1")))
            await wait_until(
                lambda: len(app.coalescer) > 0 or task.done(),
                "the request to reach the coalescer",
            )
            assert not task.done(), "request finished before the coalescer"
            drainer = asyncio.create_task(app.drain())
            await asyncio.sleep(0)
            assert app.draining and not drainer.done()
            gate.set()
            await drainer
            response = await task
            assert response.status == 200
            # post-drain run requests are refused
            refused = await app.handle(get("/v1/run/fig1", {"seed": "9"}))
            assert refused.status == 503

        asyncio.run(go())


class TestOverSocket:
    def test_connection_handler_end_to_end(self):
        async def go():
            app = make_app()
            server = await app.start_server("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                healthz = await http_get("127.0.0.1", port, "/v1/healthz")
                assert healthz.status == 200
                assert json.loads(healthz.body)["status"] == "ok"
                run = await http_get("127.0.0.1", port, "/v1/run/fig1?seed=0")
                assert run.status == 200
                assert run.headers["x-repro-served-from"] == "computed"
                assert int(run.headers["content-length"]) == len(run.body)
                missing = await http_get("127.0.0.1", port, "/nope")
                assert missing.status == 404
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())

    def test_silent_client_answered_408_not_leaked(self, monkeypatch):
        # A client that connects and sends nothing must not park its
        # handler in readuntil forever (one leaked task + socket per
        # such client); the read timeout answers 408 and closes.
        monkeypatch.setattr("repro.serve.app.READ_TIMEOUT_S", 0.05)

        async def go():
            app = make_app()
            server = await app.start_server("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                # send nothing; the daemon must time the read out
                raw = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                await writer.wait_closed()
                assert raw.startswith(b"HTTP/1.1 408 Request Timeout")
                assert app._connections == set()  # handler fully retired
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())

    def test_drain_lets_inflight_response_finish(self, wait_until):
        # The coalescer future resolves before the handler writes the
        # response; drain must also await the open connection tasks, or
        # shutdown truncates responses whose computation already ran.
        async def go():
            app = make_app()
            gate = asyncio.Event()
            calls = []
            gated_dispatcher(app, gate, calls)
            server = await app.start_server("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"GET /v1/run/fig1 HTTP/1.1\r\n\r\n")
                await writer.drain()
                await wait_until(
                    lambda: len(app.coalescer) > 0,
                    "the request to reach the coalescer",
                )
                # stop accepting, but don't wait_closed here: on 3.12+
                # it waits for handlers, which wait for the gate
                server.close()
                drainer = asyncio.create_task(app.drain())
                await asyncio.sleep(0)
                gate.set()
                await drainer
                # the drained daemon already wrote the complete response
                raw = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                await writer.wait_closed()
                head, _sep, body = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 OK")
                length = next(
                    int(line.split(b":")[1])
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length:")
                )
                assert len(body) == length  # nothing truncated
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())

    def test_malformed_request_answered_400_over_socket(self):
        async def go():
            app = make_app()
            server = await app.start_server("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"BREW /v1/healthz HTTP/1.1\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                assert raw.startswith(b"HTTP/1.1 405 ")
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())
