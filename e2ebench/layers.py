"""Per-layer metrics: their catalogue, and their aggregation from spans.

Each metric names the end-to-end metric and workload it should move
(``moves``); ``--trace 1`` prints that tag beside every value.  All
traced runs print every metric, so a layer a workload never reaches
reads 0 there: the serve metrics on ``runall``, and on ``serve`` the
simulator, machine, GC and store-put layers, which run in the daemon's
spawned pool worker, where nothing is traced.

Times are seconds summed over the run's traced processes.  ``*.s`` of a
layer is its self time: span time minus the time of child spans of
other layers.  The exceptions are inclusive by definition: the import
spans (median per traced process), ``exp.<id>.s`` (the experiment's
``execute`` call when it computed), ``sim.*.s``, ``mc.s`` and
``machine.s``.  ``serve.handle.self_s`` is the median self time of one
``ServeApp.handle`` call in the read daemons, which memory hits set;
the executor hops a call waits for are not its children, so a store
read's wait counts as its self time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from tracer import IMPORT_SPANS, TARGETS, Target

#: The registry's experiment ids, in registration order.
EXPERIMENT_IDS = (
    "fig1",
    "gap",
    "mmcount",
    "iid",
    "lemma3",
    "eq8",
    "sizepert",
    "shiftpert",
    "orderpert",
    "shuffle",
    "lemma1",
    "nocatchup",
    "regimes",
    "scanhide",
    "xcheck",
    "randomized",
    "abeq",
    "ablation",
    "realistic",
    "oracle",
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric @ workload


def _catalogue() -> tuple[LayerMetric, ...]:
    m = LayerMetric
    warm_r = "warm_p50_ms@runall"
    boot_s = "setup_s@serve"
    cold_r = "cold_s@runall"
    entries = [
        m("import.repro.s", "s", "lower", f"{warm_r}, {boot_s}"),
        m("import.registry.s", "s", "lower", f"{warm_r}, {boot_s}"),
        m("fingerprint.calls", "count", "lower", f"{warm_r}, {boot_s}"),
        m("fingerprint.s", "s", "lower", f"{warm_r}, {boot_s}"),
        m("store.get.calls", "count", "lower", f"{warm_r}, warm_tail_ms@serve"),
        m("store.get.hits", "count", "higher", f"{warm_r}, warm_tail_ms@serve"),
        m("store.get.s", "s", "lower", f"{warm_r}, warm_tail_ms@serve"),
        m("store.put.calls", "count", "lower", f"{cold_r}, cold_s@serve"),
        m("store.put.s", "s", "lower", f"{cold_r}, cold_s@serve"),
        m("gc.calls", "count", "lower", f"{cold_r}, {warm_r}"),
        m("gc.s", "s", "lower", f"{cold_r}, {warm_r}"),
        m("render.text.s", "s", "lower", warm_r),
        m("render.json.s", "s", "lower", f"{warm_r}, warm_p50_ms@serve"),
        m("sim.runs", "count", "lower", f"{cold_r}, cold_s@serve"),
        m("sim.runs.chunked", "count", "higher", f"{cold_r}, cold_s@serve"),
        m("sim.runs.scalar", "count", "lower", f"{cold_r}, cold_s@serve"),
        m("sim.chunked_share", "ratio", "higher", f"{cold_r}, cold_s@serve"),
        m("sim.scalar.s", "s", "lower", f"{cold_r}, cold_s@serve"),
        m("sim.chunked.s", "s", "lower", f"{cold_r}, cold_s@serve"),
        m("sim.sampled_runs", "count", "higher", f"{cold_r}, cold_s@serve"),
        m("sim.boxes", "count", "lower", f"{cold_r}, cold_s@serve"),
        m("sim.boxes_per_s", "1/s", "higher", f"{cold_r}, cold_s@serve"),
        m("mc.trials", "count", "lower", cold_r),
        m("mc.s", "s", "lower", cold_r),
        m("machine.calls", "count", "lower", cold_r),
        m("machine.kernel_calls", "count", "higher", cold_r),
        m("machine.s", "s", "lower", cold_r),
    ]
    entries += [m(f"exp.{eid}.s", "s", "lower", cold_r) for eid in EXPERIMENT_IDS]
    entries += [
        m(f"exp.{eid}.scalar_runs", "count", "lower", cold_r) for eid in EXPERIMENT_IDS
    ]
    warm_s, tail_s = "warm_p50_ms@serve", "warm_tail_ms@serve"
    entries += [
        m("serve.memory.count", "count", "higher", warm_s),
        m("serve.memory.p50_ms", "ms", "lower", warm_s),
        m("serve.memory.tail_ms", "ms", "lower", warm_s),
        m("serve.store.count", "count", "lower", tail_s),
        m("serve.store.p50_ms", "ms", "lower", tail_s),
        m("serve.store.tail_ms", "ms", "lower", tail_s),
        m("serve.computed.count", "count", "lower", "cold_s@serve"),
        m("serve.computed.p50_ms", "ms", "lower", "cold_s@serve"),
        m("serve.coalesced.count", "count", "higher", "cold_s@serve"),
        m("serve.misses", "count", "lower", "cold_s@serve"),
        m("serve.rejected", "count", "lower", "failed@serve"),
        m("serve.errors", "count", "lower", "failed@serve"),
        m("serve.first_response.s", "s", "lower", boot_s),
        m("serve.handle.self_s", "s", "lower", warm_s),
        m("serve.hot.hits", "count", "higher", warm_s),
        m("serve.hot.bytes", "bytes", "lower", "peak_rss_mb@serve"),
        m("gen.late.p50_ms", "ms", "lower", "benchmark validity@serve"),
        m("gen.late.tail_ms", "ms", "lower", "benchmark validity@serve"),
        m("trace.overhead", "ratio", "lower", "benchmark validity@both"),
    ]
    return tuple(entries)


PER_LAYER: tuple[LayerMetric, ...] = _catalogue()
PER_LAYER_NAMES: tuple[str, ...] = tuple(metric.name for metric in PER_LAYER)


@dataclass
class LayerStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


class SpanSet:
    """The spans of one run's traced processes, aggregated by layer."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.imports: dict[str, list[float]] = defaultdict(list)
        self.store_hits = 0
        self.exp_s: dict[str, float] = defaultdict(float)
        self.engine: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # id -> [chunked, scalar]
        self.sim = {"chunked": 0, "scalar": 0, "chunked_s": 0.0, "scalar_s": 0.0, "boxes": 0}
        self.mc_trials = 0
        self.executed: set[str] = set()
        self.handle_self_s: list[float] = []

    def add_process(self, rows: Sequence[Sequence[Any]]) -> None:
        """Fold in the spans one traced process wrote."""
        child_time: dict[int, float] = defaultdict(float)
        chunked_parents: set[int] = set()
        for sid, parent, name, tag, t0, t1, extra in rows:
            if parent is not None:
                child_time[parent] += t1 - t0
                if name == "sim.chunked":
                    chunked_parents.add(parent)
        for sid, parent, name, tag, t0, t1, extra in rows:
            duration = t1 - t0
            if name.startswith("import."):
                self.imports[name].append(duration)
            stats = self.layers[name]
            stats.calls += 1
            stats.inclusive_s += duration
            stats.self_s += duration - child_time.get(sid, 0.0)
            if name == "store.get" and extra:
                self.store_hits += 1
            elif name == "execute":
                self.executed.add(tag)
                if extra == "computed":
                    self.exp_s[tag] += duration
            elif name == "sim.run":
                engine = "chunked" if sid in chunked_parents else "scalar"
                self.sim[engine] += 1
                self.sim[f"{engine}_s"] += duration
                self.sim["boxes"] += int(extra or 0)
                self.engine[tag][0 if engine == "chunked" else 1] += 1
            elif name == "mc":
                self.mc_trials += int(extra or 0)
            elif name == "serve.handle":
                self.handle_self_s.append(duration - child_time.get(sid, 0.0))

    def calls(self, name: str) -> int:
        return self.layers[name].calls if name in self.layers else 0

    def metrics(self) -> dict[str, float]:
        """The span-derived per-layer metrics (serve client metrics and
        ``trace.overhead`` are added by the workload)."""

        def self_s(name: str) -> float:
            return self.layers[name].self_s if name in self.layers else 0.0

        def incl_s(name: str) -> float:
            return self.layers[name].inclusive_s if name in self.layers else 0.0

        runs = self.sim["chunked"] + self.sim["scalar"]
        sim_s = self.sim["chunked_s"] + self.sim["scalar_s"]
        out: dict[str, float] = {
            "import.repro.s": _median_or_zero(self.imports["import.repro"]),
            "import.registry.s": _median_or_zero(self.imports["import.registry"]),
            "fingerprint.calls": self.calls("fingerprint"),
            "fingerprint.s": self_s("fingerprint"),
            "store.get.calls": self.calls("store.get"),
            "store.get.hits": self.store_hits,
            "store.get.s": self_s("store.get"),
            "store.put.calls": self.calls("store.put"),
            "store.put.s": self_s("store.put"),
            "gc.calls": self.calls("gc"),
            "gc.s": self_s("gc"),
            "render.text.s": self_s("render.text"),
            "render.json.s": self_s("render.json"),
            "sim.runs": runs,
            "sim.runs.chunked": self.sim["chunked"],
            "sim.runs.scalar": self.sim["scalar"],
            "sim.chunked_share": self.sim["chunked"] / runs if runs else 0.0,
            "sim.scalar.s": self.sim["scalar_s"],
            "sim.chunked.s": self.sim["chunked_s"],
            "sim.sampled_runs": self.calls("sim.sampled"),
            "sim.boxes": self.sim["boxes"],
            "sim.boxes_per_s": self.sim["boxes"] / sim_s if sim_s else 0.0,
            "mc.trials": self.mc_trials,
            "mc.s": incl_s("mc"),
            "machine.calls": self.calls("machine"),
            "machine.kernel_calls": self.calls("machine.kernel"),
            "machine.s": incl_s("machine"),
            "serve.handle.self_s": _median_or_zero(self.handle_self_s),
        }
        for eid in EXPERIMENT_IDS:
            out[f"exp.{eid}.s"] = self.exp_s.get(eid, 0.0)
            out[f"exp.{eid}.scalar_runs"] = self.engine[eid][1] if eid in self.engine else 0
        return out

    def layer_table(self) -> list[str]:
        """One line per span name: calls, inclusive and self seconds."""
        lines = [f"{'layer':<16} {'calls':>7} {'incl_s':>10} {'self_s':>10}"]
        for name in sorted(self.layers):
            s = self.layers[name]
            lines.append(f"{name:<16} {s.calls:>7} {s.inclusive_s:>10.4f} {s.self_s:>10.4f}")
        return lines

    def engine_table(self) -> list[str]:
        """Which experiments' ``SymbolicSimulator.run`` calls reached
        ``run_chunked``."""
        lines = [f"{'experiment':<12} {'sim.run':>8} {'chunked':>8} {'scalar':>8} {'compute_s':>10}"]
        for eid in EXPERIMENT_IDS:
            chunked, scalar = self.engine[eid] if eid in self.engine else (0, 0)
            lines.append(
                f"{eid:<12} {chunked + scalar:>8} {chunked:>8} {scalar:>8} "
                f"{self.exp_s.get(eid, 0.0):>10.3f}"
            )
        total_c, total_s = self.sim["chunked"], self.sim["scalar"]
        lines.append(f"{'total':<12} {total_c + total_s:>8} {total_c:>8} {total_s:>8}")
        return lines


def _median_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def silent_wrappers(spans: SpanSet, workload: str, targets: Iterable[Target] = TARGETS) -> list[str]:
    """Span names whose wrappers must fire on ``workload`` but recorded
    no call; the import spans must fire on every workload."""
    required = {t.span for t in targets if workload in t.required}
    required |= set(IMPORT_SPANS.values())
    return sorted(name for name in required if spans.calls(name) == 0)
