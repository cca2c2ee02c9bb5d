"""The traced run: per-layer spans recorded from the benchmark's side.

:meth:`Tracer.install` replaces public functions of each layer with thin
wrappers (attribute patches on the classes; no source file changes) that
record a span per call.  Spans nest per thread, so a layer's *self* time
is its span minus its child spans.  On the producer thread spans are
timed by the clock the run times its calls by (the thread's CPU clock, or
the wall clock on ``shared-async``); on the pipeline's lane threads by
the thread's CPU clock, because lanes contend for the interpreter lock
and their wall spans would overlap.  Lane work is subtracted from the producer span that
awaited it, so nothing is counted twice.

A traced run splits its measured phase in two.  In the first half the
wrappers pass straight through (one extra call frame each); in the second
they record.  ``trace_overhead`` is the traced half's documents/s over
the untraced half's, both calibrated; every per-layer figure comes from
the traced half.  The wrappers must be installed before the service is
built, because the query-scale layer binds its change expander into the
dispatcher at construction.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.alerting import AlertDispatcher
from repro.cluster.merger import ResultMerger
from repro.core.engine import ITAEngine
from repro.core.ita import ITAQueryState
from repro.documents.window import SlidingWindow
from repro.durability.log import DurabilityLog
from repro.index.inverted_index import InvertedIndex
from repro.queryscale.manager import QueryScaleManager
from repro.service.async_service import AsyncMonitoringService
from repro.service.service import MonitoringService, QueryHandle
from repro.text.analyzer import Analyzer
from repro.text.vocabulary import Vocabulary
from repro.weighting.schemes import CosineWeighting


def _expired(result) -> Tuple[str, int]:
    return "documents.expired", len(result)


def _postings(result) -> Tuple[str, int]:
    return "index.postings", result


def _changes(result) -> Tuple[str, int]:
    return "core.changes", len(result)


def _batch_changes(result) -> Tuple[str, int]:
    return "core.changes", sum(len(event) for event in result)


#: (owner, attribute, span key, count extractor) of every wrapped call
PATCHES: List[Tuple[Any, str, str, Optional[Callable]]] = [
    (Analyzer, "term_frequencies", "text", None),
    (Vocabulary, "add", "text", None),
    (CosineWeighting, "document_weights", "weighting", None),
    (SlidingWindow, "insert", "documents", _expired),
    (SlidingWindow, "advance_time", "documents", _expired),
    (InvertedIndex, "insert_document", "index.insert", _postings),
    (InvertedIndex, "remove_document", "index.remove", None),
    (ITAEngine, "process", "core", _changes),
    (ITAEngine, "process_batch_events", "core", _batch_changes),
    (ITAEngine, "advance_time", "core", _changes),
    (ITAEngine, "register_query", "core.register", None),
    (ITAEngine, "unregister_query", "core", None),
    (ITAQueryState, "top_k", "core.topk", None),
    (AlertDispatcher, "dispatch_changes", "alerting", None),
    (MonitoringService, "ingest", "service", None),
    (MonitoringService, "advance_time", "service", None),
    (MonitoringService, "subscribe", "service.subscribe", None),
    (QueryHandle, "unsubscribe", "service", None),
    (AsyncMonitoringService, "ingest", "service", None),
    (AsyncMonitoringService, "subscribe", "service.subscribe", None),
    (DurabilityLog, "log_ingest", "durability.append", None),
    (DurabilityLog, "log_subscribe", "durability.append", None),
    (DurabilityLog, "log_unsubscribe", "durability.append", None),
    (DurabilityLog, "log_advance_time", "durability.append", None),
    (DurabilityLog, "checkpoint", "durability.checkpoint", None),
    (os, "fsync", "durability.fsync", None),
    (QueryScaleManager, "expand_changes", "queryscale", None),
    (ResultMerger, "merge_changes", "cluster", None),
]

#: table rows: layer -> span keys whose self time it sums
LAYERS: Dict[str, Tuple[str, ...]] = {
    "text": ("text",),
    "weighting": ("weighting",),
    "documents": ("documents",),
    "index": ("index.insert", "index.remove"),
    "core": ("core", "core.register", "core.topk"),
    "alerting": ("alerting",),
    "callback": ("callback",),
    "service": ("service", "service.subscribe"),
    "durability": ("durability.append", "durability.checkpoint", "durability.fsync"),
    "queryscale": ("queryscale",),
    "cluster": ("cluster",),
}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.registered = False


class Tracer:
    """Records nested spans around the public calls of every layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        #: the producer thread's span clock: the clock the run times calls by
        self.clock = clock
        self.active = False
        self._local = _ThreadState()
        self._lock = threading.Lock()
        #: per-thread (self times, call counts, counts), registered on first use
        self._threads: List[Tuple[Dict[str, float], Counter, Counter]] = []
        self._offthread = 0.0
        self._originals: List[Tuple[Any, str, Any]] = []
        #: "setup" or "measured": which totals the next slices feed
        self._phase = "setup"
        self._traced_half = False
        self.self_s: Dict[str, Dict[str, float]] = {
            "setup": defaultdict(float), "measured": defaultdict(float)
        }
        self.calls: Dict[str, Counter] = {"setup": Counter(), "measured": Counter()}
        self.counts: Counter = Counter()
        self.half_docs = [0, 0]
        self.half_seconds = [0.0, 0.0]
        self._untraced_slices = 0
        self._half_limit = 0
        self._counters_before: Dict[str, int] = {}
        self._counters_after: Dict[str, int] = {}
        self._delivered = [0, 0]
        self._stats_before: Optional[Tuple[List[float], float, float, int]] = None
        self._stats_after: Optional[Tuple[List[float], float, float, int]] = None
        self.queryscale: Dict[str, float] = {}
        self.recoveries: List[Dict[str, float]] = []

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        for owner, name, key, count in PATCHES:
            original = inspect.getattr_static(owner, name)
            function = getattr(owner, name)
            wrapped = self._wrap(function, key, count)
            if isinstance(original, staticmethod):
                wrapped = staticmethod(wrapped)
            self._originals.append((owner, name, original))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def wrap_callback(self, callback: Callable) -> Callable:
        return self._wrap(callback, "callback", None)

    def _wrap(self, function: Callable, key: str, count: Optional[Callable]) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                if not tracer.active:
                    return await function(*args, **kwargs)
                frame = tracer._enter(key)
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer._exit(frame)
            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            frame = tracer._enter(key)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if count is not None:
                name, amount = count(result)
                tracer._local.counts[name] += amount
            return result
        return traced

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _thread(self) -> _ThreadState:
        local = self._local
        if not local.registered:
            local.registered = True
            local.main = threading.current_thread() is threading.main_thread()
            local.clock = self.clock if local.main else time.thread_time
            local.stack = []
            local.self_s = defaultdict(float)
            local.calls = Counter()
            local.counts = Counter()
            with self._lock:
                self._threads.append((local.self_s, local.calls, local.counts))
        return local

    def _enter(self, key: str) -> list:
        local = self._thread()
        # [key, start, child time, off-thread total at entry, children's off-thread]
        frame = [key, local.clock(), 0.0, self._offthread, 0.0]
        local.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        local = self._local
        duration = local.clock() - frame[1]
        stack = local.stack
        stack.pop()
        if local.main:
            # lane work done while this span awaited it counts as a child
            off = self._offthread - frame[3]
            own = duration - frame[2] - (off - frame[4])
            if stack:
                stack[-1][2] += duration
                stack[-1][4] += off
        else:
            own = duration - frame[2]
            if stack:
                stack[-1][2] += duration
            else:
                with self._lock:
                    self._offthread += duration
        local.self_s[frame[0]] += own
        local.calls[frame[0]] += 1

    # ------------------------------------------------------------------ #
    # slices and phases
    # ------------------------------------------------------------------ #
    def _drain(self) -> Tuple[Dict[str, float], Counter, Counter]:
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        counts: Counter = Counter()
        with self._lock:
            for thread_self, thread_calls, thread_counts in self._threads:
                for key, value in thread_self.items():
                    self_s[key] += value
                calls.update(thread_calls)
                counts.update(thread_counts)
                thread_self.clear()
                thread_calls.clear()
                thread_counts.clear()
        return self_s, calls, counts

    def begin_setup(self) -> None:
        """A fresh setup starts: only the last setup's spans are kept."""
        self._drain()
        self._phase = "setup"
        self.self_s["setup"].clear()
        self.calls["setup"].clear()
        self.active = True

    def end_setup(self) -> None:
        self.active = False
        self._drain()

    def end_slice(self, raw: float, factor: float, documents: int = 0) -> None:
        """Credit the spans since the last slice, scaled by its factor."""
        self_s, calls, counts = self._drain()
        if self._phase == "measured":
            half = 1 if self._traced_half else 0
            self.half_docs[half] += documents
            self.half_seconds[half] += raw * factor
            if not self._traced_half:
                self._untraced_slices += 1
                if self._untraced_slices >= self._half_limit:
                    self._switch()
                return
            self.counts.update(counts)
        for key, value in self_s.items():
            self.self_s[self._phase][key] += value * factor
        self.calls[self._phase].update(calls)

    def start_measuring(self, planned_slices: int, service: Any, serving: Any = None) -> None:
        self._drain()
        self._phase = "measured"
        self._half_limit = max(1, planned_slices // 2)
        self._service = service
        self._serving = serving
        self.active = False

    def _switch(self) -> None:
        """Untraced half over: snapshot the counters and start recording."""
        service = self._service
        self._counters_before = service.counters.as_dict()
        self._delivered[0] = service.dispatcher.delivered
        if self._serving is not None:
            self._stats_before = self._pipeline_stats()
        self._traced_half = True
        self.active = True

    def _pipeline_stats(self) -> Tuple[List[float], float, float, int]:
        stats = self._serving.stats
        return list(stats.shard_busy_ms), stats.merge_wait_ms, stats.submit_wait_ms, stats.batches

    def stop_measuring(self) -> None:
        self.active = False
        self._drain()
        service = self._service
        self._counters_after = service.counters.as_dict()
        self._delivered[1] = service.dispatcher.delivered
        if self._serving is not None:
            self._stats_after = self._pipeline_stats()
        manager = service.queryscale
        if manager is not None:
            subscribers = len(manager.subscriber_ids())
            self.queryscale = {
                "canonical": float(manager.canonical_count),
                "bytes_per_subscriber": manager.bytes_resident() / subscribers,
            }
        self._phase = "after"

    def note_recovery(self, report: Any, directory: Path, factor: float) -> None:
        """Record one recovery's phase times and the crash image's WAL size."""
        wal_bytes = sum(
            path.stat().st_size for path in directory.rglob("*") if "wal" in path.name and path.is_file()
        )
        entry = {f"recover_{phase}_ms": ms * factor for phase, ms in report.phase_ms.items()}
        entry["replayed_records"] = float(report.replayed_records)
        entry["wal_bytes_per_doc"] = wal_bytes / max(1, report.replayed_documents)
        self.recoveries.append(entry)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def layer_seconds(self) -> Dict[str, float]:
        measured = self.self_s["measured"]
        return {layer: sum(measured.get(key, 0.0) for key in keys) for layer, keys in LAYERS.items()}

    def metrics(self, run: Any) -> Dict[str, Tuple[float, str]]:
        docs = max(1, self.half_docs[1])
        wall = self.half_seconds[1]
        measured = self.self_s["measured"]
        calls = self.calls["measured"]
        setup = self.self_s["setup"]
        setup_calls = self.calls["setup"]
        before, after = self._counters_before, self._counters_after

        def delta(name: str) -> float:
            return float(after.get(name, 0) - before.get(name, 0))

        def per_doc_us(*keys: str) -> float:
            return sum(measured.get(key, 0.0) for key in keys) / docs * 1e6

        def mean_ms(totals: Dict[str, float], counted: Counter, key: str) -> float:
            return totals.get(key, 0.0) / counted[key] * 1e3 if counted[key] else 0.0

        topk_calls = calls["core.topk"]
        snapshotted = topk_calls / 2.0
        recovery = {
            name: statistics.median(entry[name] for entry in self.recoveries)
            for name in (self.recoveries[0] if self.recoveries else {})
        }
        pipeline = {"busy_max": 0.0, "busy_sum": 0.0, "merge": 0.0, "submit": 0.0}
        if self._stats_before is not None and self._stats_after is not None:
            busy = [b - a for a, b in zip(self._stats_before[0], self._stats_after[0])]
            batches = max(1, self._stats_after[3] - self._stats_before[3])
            pipeline = {
                "busy_max": max(busy) / batches,
                "busy_sum": sum(busy) / batches,
                "merge": (self._stats_after[1] - self._stats_before[1]) / batches,
                "submit": (self._stats_after[2] - self._stats_before[2]) / batches,
            }
        attributed = sum(self.layer_seconds().values())
        untraced_rate = self.half_docs[0] / self.half_seconds[0] if self.half_seconds[0] else 0.0
        traced_rate = self.half_docs[1] / wall if wall else 0.0
        kdocs = docs / 1000.0
        return {
            "text.analyze_us_per_doc": (per_doc_us("text"), "us"),
            "weighting.us_per_doc": (per_doc_us("weighting"), "us"),
            "documents.window_us_per_doc": (per_doc_us("documents"), "us"),
            "documents.expired_per_doc": (self.counts["documents.expired"] / docs, "count"),
            "index.insert_us_per_doc": (per_doc_us("index.insert"), "us"),
            "index.remove_us_per_doc": (per_doc_us("index.remove"), "us"),
            "index.postings_per_doc": (self.counts["index.postings"] / docs, "count"),
            "core.process_self_us_per_doc": (per_doc_us("core"), "us"),
            "core.affected_per_doc": (delta("candidate_matches") / docs, "count"),
            "core.scores_per_doc": (delta("scores_computed") / docs, "count"),
            "core.topk_calls_per_doc": (topk_calls / docs, "count"),
            "core.topk_us_per_doc": (per_doc_us("core.topk"), "us"),
            "core.change_yield": (
                self.counts["core.changes"] / snapshotted if snapshotted else 0.0, "ratio"
            ),
            "core.register_ms": (mean_ms(setup, setup_calls, "core.register"), "ms"),
            "alerting.dispatch_us_per_doc": (per_doc_us("alerting"), "us"),
            "alerting.alerts_per_doc": ((self._delivered[1] - self._delivered[0]) / docs, "count"),
            "service.ingest_self_us_per_doc": (per_doc_us("service"), "us"),
            "service.subscribe_self_ms": (mean_ms(setup, setup_calls, "service.subscribe"), "ms"),
            "durability.append_us_per_record": (
                measured.get("durability.append", 0.0) / calls["durability.append"] * 1e6
                if calls["durability.append"] else 0.0,
                "us",
            ),
            "durability.checkpoint_ms": (
                mean_ms(measured, calls, "durability.checkpoint"), "ms"
            ),
            "durability.checkpoints": (calls["durability.checkpoint"] / kdocs, "1/kdoc"),
            "durability.fsyncs": (calls["durability.fsync"] / kdocs, "1/kdoc"),
            "durability.wal_bytes_per_doc": (recovery.get("wal_bytes_per_doc", 0.0), "B"),
            "durability.recover_manifest_ms": (recovery.get("recover_manifest_ms", 0.0), "ms"),
            "durability.recover_checkpoint_load_ms": (
                recovery.get("recover_checkpoint_load_ms", 0.0), "ms"
            ),
            "durability.recover_restore_ms": (recovery.get("recover_restore_ms", 0.0), "ms"),
            "durability.recover_replay_ms": (recovery.get("recover_replay_ms", 0.0), "ms"),
            "durability.replayed_records": (recovery.get("replayed_records", 0.0), "count"),
            "queryscale.expand_us_per_doc": (per_doc_us("queryscale"), "us"),
            "queryscale.canonical_queries": (self.queryscale.get("canonical", 0.0), "count"),
            "queryscale.bytes_per_subscriber": (
                self.queryscale.get("bytes_per_subscriber", 0.0), "B"
            ),
            "pipeline.lane_busy_ms_max": (pipeline["busy_max"], "ms/batch"),
            "pipeline.lane_busy_ms_sum": (pipeline["busy_sum"], "ms/batch"),
            "pipeline.merge_wait_ms": (pipeline["merge"], "ms/batch"),
            "pipeline.submit_wait_ms": (pipeline["submit"], "ms/batch"),
            "unattributed_share": (max(0.0, 1.0 - attributed / wall) if wall else 1.0, "ratio"),
            "trace_overhead": (traced_rate / untraced_rate if untraced_rate else 0.0, "ratio"),
        }

    def table(self) -> str:
        """The per-layer table of the traced half (calibrated)."""
        docs = max(1, self.half_docs[1])
        wall = self.half_seconds[1]
        lines = [f"{'layer':<14}{'self ms':>12}{'us/doc':>12}{'share':>8}"]
        seconds = self.layer_seconds()
        for layer, value in seconds.items():
            lines.append(
                f"{layer:<14}{value * 1e3:>12.1f}{value / docs * 1e6:>12.1f}"
                f"{value / wall if wall else 0.0:>8.3f}"
            )
        rest = wall - sum(seconds.values())
        lines.append(
            f"{'unattributed':<14}{rest * 1e3:>12.1f}{rest / docs * 1e6:>12.1f}"
            f"{rest / wall if wall else 0.0:>8.3f}"
        )
        lines.append(f"{'traced wall':<14}{wall * 1e3:>12.1f}{wall / docs * 1e6:>12.1f}{1.0:>8.3f}")
        return "\n".join(lines)
