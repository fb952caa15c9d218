"""The batch (`/v1/run-all`) and Prometheus (`/v1/metrics`) endpoints."""

import asyncio
import json

from repro import api
from repro.runtime.request import WIRE_VERSION
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.http import HttpRequest
from repro.serve.smoke import parse_prometheus


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


class TestRunAll:
    def test_named_experiments_batch(self):
        app = make_app()
        response = handle(
            app, get("/v1/run-all", {"experiments": "fig1", "seed": "0"})
        )
        assert response.status == 200
        payload = body_of(response)
        assert payload["wire_version"] == WIRE_VERSION
        assert payload["quick"] is True and payload["seed"] == 0
        assert set(payload["artifacts"]) == {"fig1"}
        assert payload["errors"] == {}
        assert payload["served_from"]["fig1"] == "computed"
        assert payload["digests"]["fig1"]
        # each artifact is exactly the single-run body, parsed
        single = handle(app, get("/v1/run/fig1", {"seed": "0"}))
        assert payload["artifacts"]["fig1"] == json.loads(single.body)

    def test_default_is_whole_registry(self, monkeypatch):
        from repro.experiments import registry

        trimmed = {
            eid: registry.EXPERIMENTS[eid] for eid in ("fig1", "lemma1")
        }
        monkeypatch.setattr(registry, "EXPERIMENTS", trimmed)
        app = make_app()
        payload = body_of(handle(app, get("/v1/run-all")))
        assert set(payload["artifacts"]) == {"fig1", "lemma1"}
        assert payload["errors"] == {}

    def test_unknown_experiment_is_a_per_leg_error(self):
        app = make_app()
        response = handle(
            app, get("/v1/run-all", {"experiments": "fig1,no-such-figure"})
        )
        assert response.status == 200  # the batch itself succeeded
        payload = body_of(response)
        assert set(payload["artifacts"]) == {"fig1"}
        assert payload["errors"]["no-such-figure"]["status"] == 404
        assert "no-such-figure" in payload["errors"]["no-such-figure"]["detail"]

    def test_duplicate_and_blank_names_collapsed(self):
        app = make_app()
        payload = body_of(
            handle(app, get("/v1/run-all", {"experiments": "fig1, ,fig1,"}))
        )
        assert set(payload["artifacts"]) == {"fig1"}

    def test_bad_seed_is_400(self):
        response = handle(make_app(), get("/v1/run-all", {"seed": "many"}))
        assert response.status == 400

    def test_rejected_while_draining(self):
        app = make_app()
        app.draining = True
        response = handle(app, get("/v1/run-all"))
        assert response.status == 503

    def test_batch_shares_admission_control(self, tmp_path, wait_until):
        # max_inflight=1: a batch of two cold keys cannot jump the
        # queue — one leg computes, the other surfaces as a 429 entry.
        # The store must be empty or warm hits bypass admission control
        # (by design), so point the app at a fresh cache dir.
        app = make_app(
            max_inflight=1, hot_bytes=0, cache_dir=str(tmp_path / "store")
        )

        async def go():
            gate = asyncio.Event()
            from repro.runtime.request import RunRequest, RunResponse
            from repro.runtime.runner import execute

            base = execute(RunRequest(experiment_id="fig1", cache="off"))

            async def dispatch(request):
                await gate.wait()
                return RunResponse(
                    request=request,
                    artifact=base.artifact,
                    served_from="computed",
                )

            app._dispatcher = lambda: dispatch
            task = asyncio.create_task(
                app.handle(get("/v1/run-all", {"experiments": "fig1,lemma1"}))
            )
            # Each leg reaches admission only after its fingerprint and
            # store probe; hold the admitted leg in flight until the other
            # leg has been refused, whichever order they arrive in.
            await wait_until(
                lambda: app.stats.rejected == 1 or task.done(),
                "the second leg's admission refusal",
            )
            gate.set()
            return await task

        response = asyncio.run(go())
        payload = body_of(response)
        statuses = {
            eid: err["status"] for eid, err in payload["errors"].items()
        }
        assert len(payload["artifacts"]) == 1
        assert list(statuses.values()) == [429]

    def test_batch_served_from_memory_on_repeat(self):
        app = make_app()
        handle(app, get("/v1/run-all", {"experiments": "fig1"}))
        payload = body_of(
            handle(app, get("/v1/run-all", {"experiments": "fig1"}))
        )
        assert payload["served_from"]["fig1"] == "memory"

    def test_batch_matches_offline_bytes(self):
        warm = api.run("fig1")  # compute + store, then warm-read form
        warm = api.run("fig1")
        payload = body_of(
            handle(make_app(), get("/v1/run-all", {"experiments": "fig1"}))
        )
        assert payload["artifacts"]["fig1"] == json.loads(warm.to_json())


class TestMetrics:
    def test_prometheus_content_type_and_parse(self):
        app = make_app()
        handle(app, get("/v1/run/fig1"))
        handle(app, get("/v1/run/fig1"))
        response = handle(app, get("/v1/metrics"))
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        samples = parse_prometheus(response.body.decode("utf-8"))
        assert samples["repro_serve_requests_total"] == 3.0
        assert samples["repro_serve_misses_total"] == 1.0
        assert samples["repro_serve_memory_hits_total"] == 1.0
        assert samples["repro_serve_hot_hits_total"] == 1.0
        assert samples["repro_serve_inflight"] == 0.0
        assert samples["repro_serve_draining"] == 0.0
        assert samples["repro_serve_hot_bytes"] > 0.0
        assert samples["repro_serve_connections_open"] == 0.0

    def test_latency_summary_quantiles(self):
        app = make_app()
        handle(app, get("/v1/healthz"))
        response = handle(app, get("/v1/metrics"))
        samples = parse_prometheus(response.body.decode("utf-8"))
        assert 'repro_serve_latency_seconds{quantile="0.5"}' in samples
        assert 'repro_serve_latency_seconds{quantile="0.99"}' in samples
        assert samples["repro_serve_latency_seconds_count"] >= 1.0
        assert samples["repro_serve_latency_seconds_sum"] >= 0.0

    def test_help_and_type_comments_present(self):
        app = make_app()
        text = handle(app, get("/v1/metrics")).body.decode("utf-8")
        assert "# HELP repro_serve_requests_total" in text
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_inflight gauge" in text
        assert "# TYPE repro_serve_latency_seconds summary" in text

    def test_draining_gauge_flips(self):
        app = make_app()
        app.draining = True
        samples = parse_prometheus(
            handle(app, get("/v1/metrics")).body.decode("utf-8")
        )
        assert samples["repro_serve_draining"] == 1.0
