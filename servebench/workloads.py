"""The three served-path workloads.

Each workload drives the program only through its public API, from one
producer that waits for every call to return (a closed loop).  It
generates every input from the seed (untimed), then runs ``ROUNDS``
rounds, each on a service of its own:

1. set up -- build the service, prefill its window, make the
   subscriptions (``setup_s`` is the median over the rounds);
2. run a measured phase: a fixed number of documents per second of
   ``--seconds``, split evenly over the rounds (see :meth:`Run.more`);
3. check every standing query against the reference scorer and fold each
   query's alerts onto its subscribe-time result.

After the last round it times ``RECOVERIES`` recoveries, checking each
recovered service against the original.  Alert-latency percentiles are
taken over the alerted documents of all rounds.

Every timed slice is followed by a calibration probe (see
``calibrate.py``); all time metrics are reported at the reference speed.
"""

from __future__ import annotations

import asyncio
import gc
import math
import random
import resource
import shutil
import statistics
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import Analyzer, EngineSpec, MonitoringService, WindowSpec
from repro.queryscale import QueryScaleOptions

from servebench.calibrate import Calibrator
from servebench.corpus import QUERY_K, Generator, assert_analysis_identity
from servebench.reference import (
    ReferenceWindow,
    check_equal,
    check_fold,
    check_top_k,
    query_weights,
)

ROUNDS = 3
RECOVERIES = 3
#: alerted documents a round must give, so that ten lie beyond its p99
MIN_ALERTED_DOCS = 1_000
#: texts per ingest() call while prefilling a window (before any subscription)
PREFILL_BATCH = 64
#: subscribe() calls are grouped into calibration slices of at least this long
MIN_SLICE_SECONDS = 0.05
OPERATION_KINDS = ("ingest", "subscribe", "unsubscribe", "advance_time", "recover", "check")


def entries(result) -> List[Tuple[int, float]]:
    return [(entry.doc_id, entry.score) for entry in result]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Run:
    """What one run measures and checks, shared by every workload."""

    def __init__(
        self,
        seconds: float,
        tracer: Optional[Any] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.seconds = seconds
        self.tracer = tracer
        #: the clock every program call is timed by (see ``Firehose.CLOCK``)
        self.clock = clock
        self.cal = Calibrator(steal=clock is time.perf_counter)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.problems: List[str] = []
        #: recovered results that differ from the original only in which
        #: document tied at the k-th score they hold; reported, not failed
        self.tie_differences: List[str] = []
        #: doc_id -> ``clock()`` at the first on_change callback for it
        self.first_alert: Dict[int, float] = {}
        #: every delivered change, in delivery order, flattened into
        #: (query_id, doc_id, score, +1 entered / -1 left) quadruples --
        #: an array holds no objects the program's garbage collector must
        #: traverse, so the log does not slow the program down as it grows
        self.change_log = array("d")
        self.callback: Callable[[Any], None] = self._on_change
        if tracer is not None:
            self.callback = tracer.wrap_callback(self._on_change)
        # calibrated measurements
        self.setup_s: List[float] = []
        self.setup_raw_s: List[float] = []
        self.subscribe_ms: List[float] = []
        self.subscribe_raw_ms: List[float] = []
        #: raw alert latencies, one list per round, and the number of the
        #: calibration slice each fell in (see :attr:`alert_ms`)
        self.alert_raw_ms: List[List[float]] = []
        self._alert_slices: List[List[int]] = []
        self.recover_s: List[float] = []
        self.recover_raw_s: List[float] = []
        self._measuring = False
        #: whether the tracer records the current measured phase
        self._traced = False
        self.documents = 0
        self.measured_s = 0.0
        self.measured_raw_s = 0.0

    def _on_change(self, alert) -> None:
        now = self.clock()
        document = alert.document
        if document is not None and document.doc_id not in self.first_alert:
            self.first_alert[document.doc_id] = now
        change = alert.change
        query_id = change.query_id
        log = self.change_log
        for entry in change.left:
            log.extend((query_id, entry.doc_id, entry.score, -1.0))
        for entry in change.entered:
            log.extend((query_id, entry.doc_id, entry.score, 1.0))
        log.extend((query_id, -1.0, 0.0, 0.0))

    def new_round(self) -> None:
        """Forget the last round's alerts: a new service numbers from 0."""
        self.first_alert = {}
        self.change_log = array("d")

    # -- operation accounting ------------------------------------------- #
    def attempt(self, kind: str) -> None:
        self.attempted[kind] += 1

    def fail(self, kind: str, message: str) -> None:
        self.failed[kind] += 1
        self.problems.append(message)

    def check(self, problems: List[str]) -> None:
        """One check operation; ``problems`` (empty if it passed) name themselves."""
        self.attempt("check")
        if problems:
            self.failed["check"] += 1
            self.problems.extend(problems[:5])

    # -- timing helpers -------------------------------------------------- #
    def timed_slice(self, raw: float, documents: int) -> float:
        """Calibrate one measured-phase slice; returns its factor."""
        factor = self.cal.factor()
        self.measured_raw_s += raw
        self.measured_s += raw * factor
        self.documents += documents
        if self._traced:
            self.tracer.end_slice(raw, factor, documents)
        return factor

    def start_measuring(self, planned: int, service, serving=None, traced: bool = False) -> None:
        """Begin a round's measured phase of ``planned`` slices.

        A full collection first, so every round enters the measured phase
        with the garbage collector's generations empty.  A traced run
        records spans in the phase begun with ``traced`` only.
        """
        gc.collect()
        self.alert_raw_ms.append([])
        self._alert_slices.append([])
        self._traced = traced and self.tracer is not None
        if self._traced:
            self.tracer.start_measuring(planned, service, serving)
        self.cal.restart()
        gc.disable()
        self._measuring = True

    def stop_measuring(self) -> None:
        self._measuring = False
        gc.enable()
        if self._traced:
            self.tracer.stop_measuring()
            self._traced = False

    # The collector runs only inside timed program calls during the measured
    # phase: a collection that the program's allocations make due must not
    # fall into the benchmark's bookkeeping or a calibration probe, where
    # its pause would go unmeasured.
    def begin_call(self) -> float:
        if self._measuring:
            gc.enable()
        return self.clock()

    def end_call(self, started: float) -> float:
        elapsed = self.clock() - started
        if self._measuring:
            gc.disable()
        return elapsed

    @contextmanager
    def untraced(self):
        """Program calls that are not part of any timed slice."""
        tracer = self.tracer
        active = tracer is not None and tracer.active
        if active:
            tracer.active = False
        try:
            yield
        finally:
            if active:
                tracer.active = True

    def begin_recovery(self) -> None:
        """Collect garbage, then take the probes before a recovery."""
        gc.collect()
        self.cal.begin_single()

    def recovered(self, raw: float, expected: Dict[int, Any], results: Dict[int, Any]) -> float:
        """Record one recovery's time and check its results; returns its factor."""
        factor = self.cal.end_single()
        self.recover_raw_s.append(raw)
        self.recover_s.append(raw * factor)
        problems, ties = check_equal("recovered service", expected, as_entries(results), QUERY_K)
        self.check(problems)
        self.tie_differences.extend(ties)
        return factor

    def record_alerts(self, origin: float, doc_ids: range) -> None:
        """Record the latencies of documents ingested in the last timed slice."""
        first = self.first_alert
        raw, slices = self.alert_raw_ms[-1], self._alert_slices[-1]
        slice_number = len(self.cal.slices) - 1
        for doc_id in doc_ids:
            at = first.get(doc_id)
            if at is not None:
                raw.append((at - origin) * 1000.0)
                slices.append(slice_number)

    @property
    def alert_ms(self) -> List[List[float]]:
        """Calibrated alert latencies, one list per round.

        A latency is one document's, and the 99th percentile is one or two
        slices', so each is scaled by its slice's smoothed factor
        (:meth:`Calibrator.smoothed`) rather than by the two probes around
        the slice alone.
        """
        factors: Dict[int, float] = {}
        rounds = []
        for raws, slices in zip(self.alert_raw_ms, self._alert_slices):
            calibrated = []
            for raw, slice_number in zip(raws, slices):
                if slice_number not in factors:
                    factors[slice_number] = self.cal.smoothed(slice_number)
                calibrated.append(raw * factors[slice_number])
            rounds.append(calibrated)
        return rounds

    def more(self, done: int, planned: int) -> bool:
        """Whether the measured phase goes on after ``done`` slices.

        It runs the planned slices, and longer only if fewer than
        ``MIN_ALERTED_DOCS`` documents have raised an alert in the round by
        then (a short ``--seconds``), so its 99th percentile has ten
        samples past it.
        """
        return done < planned or len(self.alert_raw_ms[-1]) < MIN_ALERTED_DOCS

    def fold_changes(self) -> Dict[int, List[Tuple[List[Tuple[int, float]], List[Tuple[int, float]]]]]:
        """The delivered changes per query, as ``(entered, left)`` pairs."""
        per_query: Dict[int, list] = defaultdict(list)
        open_changes: Dict[int, Tuple[list, list]] = {}
        log = self.change_log
        for query_id, doc_id, score, sign in zip(log[0::4], log[1::4], log[2::4], log[3::4]):
            query_id, doc_id = int(query_id), int(doc_id)
            change = open_changes.setdefault(query_id, ([], []))
            if sign > 0:
                change[0].append((doc_id, score))
            elif sign < 0:
                change[1].append((doc_id, score))
            else:
                per_query[query_id].append(open_changes.pop(query_id))
        return per_query

    # -- results --------------------------------------------------------- #
    def metrics(self) -> Dict[str, Tuple[float, float, str]]:
        """End-to-end metrics: name -> (calibrated, raw, unit)."""
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        def pooled(rounds: List[List[float]], share: float) -> float:
            return percentile([value for values in rounds for value in values], share)

        return {
            "docs_per_s": (
                self.documents / self.measured_s,
                self.documents / self.measured_raw_s,
                "1/s",
            ),
            "alert_p50_ms": (
                pooled(self.alert_ms, 0.50), pooled(self.alert_raw_ms, 0.50), "ms"
            ),
            "alert_p99_ms": (
                pooled(self.alert_ms, 0.99), pooled(self.alert_raw_ms, 0.99), "ms"
            ),
            "subscribe_p50_ms": (
                percentile(self.subscribe_ms, 0.50),
                percentile(self.subscribe_raw_ms, 0.50),
                "ms",
            ),
            "recover_s": (
                statistics.median(self.recover_s), statistics.median(self.recover_raw_s), "s"
            ),
            "setup_s": (statistics.median(self.setup_s), statistics.median(self.setup_raw_s), "s"),
            "peak_rss_mb": (peak_mb, peak_mb, "MB"),
        }


class Setup:
    """Accumulates one setup's calibrated time, slice by slice.

    Every round begins with a setup, so making one starts a new round.
    """

    def __init__(self, run: Run) -> None:
        run.new_round()
        self.run = run
        self.calibrated = 0.0
        self.raw = 0.0
        if run.tracer is not None:
            run.tracer.begin_setup()
        run.cal.restart()

    def add(self, raw: float) -> float:
        factor = self.run.cal.factor()
        self.calibrated += raw * factor
        self.raw += raw
        if self.run.tracer is not None:
            self.run.tracer.end_slice(raw, factor)
        return factor

    def finish(self) -> None:
        self.run.setup_s.append(self.calibrated)
        self.run.setup_raw_s.append(self.raw)
        if self.run.tracer is not None:
            self.run.tracer.end_setup()


def subscribe_all(run: Run, setup: Setup, subscribe: Callable[[str], Any], texts: Sequence[str]):
    """Subscribe every text, timing each call; returns the handles."""
    handles = []
    pending: List[float] = []
    started_slice = run.clock()
    for text in texts:
        run.attempt("subscribe")
        started = run.clock()
        handles.append(subscribe(text))
        pending.append(run.clock() - started)
        if run.clock() - started_slice >= MIN_SLICE_SECONDS or len(handles) == len(texts):
            factor = setup.add(run.clock() - started_slice)
            for raw in pending:
                run.subscribe_raw_ms.append(raw * 1000.0)
                run.subscribe_ms.append(raw * 1000.0 * factor)
            pending = []
            started_slice = run.clock()
    return handles


def check_results(
    run: Run,
    label: str,
    reference: ReferenceWindow,
    results: Dict[int, Any],
    terms_of: Dict[int, Tuple[str, ...]],
) -> None:
    """Compare every query's result with the reference top-k."""
    by_terms: Dict[Tuple[str, ...], Dict[int, float]] = {}
    for query_id, terms in terms_of.items():
        key = tuple(sorted(terms))
        if key not in by_terms:
            by_terms[key] = reference.scores(query_weights(terms))
        run.check(
            check_top_k(f"{label} query {query_id}", entries(results[query_id]), by_terms[key], QUERY_K)
        )


def check_folds(
    run: Run,
    label: str,
    initial: Dict[int, List[Tuple[int, float]]],
    results: Dict[int, Any],
) -> None:
    per_query = run.fold_changes()
    for query_id, start in initial.items():
        run.check(
            check_fold(
                f"{label} query {query_id}",
                start,
                per_query.get(query_id, ()),
                entries(results[query_id]),
            ),
        )


def as_entries(results: Dict[int, Any]) -> Dict[int, List[Tuple[int, float]]]:
    return {query_id: entries(result) for query_id, result in results.items()}


def count_reference(size: int, texts: Sequence[str]) -> ReferenceWindow:
    """The reference count window after ``texts``, numbered 0, 1, ... in order.

    Built after the measured phase, so the benchmark allocates nothing
    per document during it.
    """
    reference = ReferenceWindow(size=size)
    for doc_id in range(max(0, len(texts) - size), len(texts)):
        reference.insert(doc_id, float(doc_id), Counter(texts[doc_id].split()))
    return reference


# ====================================================================== #
# firehose
# ====================================================================== #
class Firehose:
    """Default ITA engine, count window, 1,000 subscriptions, 64 texts per call."""

    name = "firehose"
    #: A call and its callbacks run on the producer thread, so every program
    #: call is timed by that thread's CPU clock: time the hypervisor or the
    #: host's other work takes from the thread is no work of the program's.
    CLOCK = time.thread_time
    WINDOW = 2_000
    SUBSCRIPTIONS = 1_000
    BATCH = 64
    #: measured documents per second of ``--seconds`` (about this workload's
    #: raw rate on the host the benchmark was tuned on)
    DOCS_PER_SECOND = 230

    def __init__(self, seed: int, seconds: float) -> None:
        generator = Generator(seed)
        self.words = generator.words
        self.prefill = [generator.document() for _ in range(self.WINDOW)]
        #: measured calls per round
        self.slices = max(1, round(seconds * self.DOCS_PER_SECOND / (self.BATCH * ROUNDS)))
        # measured texts of every round, generated up front: round r starts
        # at r * slices * BATCH, and a round that runs past its planned
        # length goes on into the next one's texts (cyclically)
        self.pool = [generator.document() for _ in range(ROUNDS * self.slices * self.BATCH)]
        # every round subscribes queries of its own, so that a run covers
        # three query mixes of the seed rather than one
        self.terms = [generator.queries(self.SUBSCRIPTIONS) for _ in range(ROUNDS)]
        self.texts = [[generator.shuffled(terms) for terms in mix] for mix in self.terms]

    def spec(self, storage: Optional[str]) -> EngineSpec:
        kwargs = {"storage": storage} if storage else {}
        return EngineSpec(window=WindowSpec.count(self.WINDOW), **kwargs)

    def setup(self, run: Run, round_number: int, storage: Optional[str]):
        setup = Setup(run)
        started = run.clock()
        service = MonitoringService(self.spec(storage))
        setup.add(run.clock() - started)
        for start in range(0, len(self.prefill), PREFILL_BATCH):
            chunk = self.prefill[start:start + PREFILL_BATCH]
            run.attempt("ingest")
            started = run.clock()
            service.ingest(chunk)
            setup.add(run.clock() - started)
        handles = subscribe_all(
            run, setup, lambda text: service.subscribe(text, k=QUERY_K, on_change=run.callback),
            self.texts[round_number],
        )
        setup.finish()
        initial = {handle.query_id: entries(handle.result()) for handle in handles}
        terms_of = {
            handle.query_id: terms for handle, terms in zip(handles, self.terms[round_number])
        }
        return service, initial, terms_of

    def run(self, run: Run, storage: Optional[str] = None) -> None:
        assert_analysis_identity(Analyzer(), self.words)
        for round_number in range(ROUNDS):
            last = round_number == ROUNDS - 1
            service, initial, terms_of = self.setup(run, round_number, storage)
            ingested: List[str] = []
            position = round_number * self.slices * self.BATCH
            run.start_measuring(self.slices, service, traced=last)
            while run.more(len(ingested) // self.BATCH, self.slices):
                batch = [self.pool[(position + i) % len(self.pool)] for i in range(self.BATCH)]
                first_id = len(self.prefill) + len(ingested)
                run.attempt("ingest")
                started = run.begin_call()
                service.ingest(batch)
                run.timed_slice(run.end_call(started), self.BATCH)
                run.record_alerts(started, range(first_id, first_id + self.BATCH))
                ingested.extend(batch)
                position += self.BATCH
            run.stop_measuring()
            results = service.results()
            reference = count_reference(self.WINDOW, self.prefill + ingested)
            check_results(run, f"round {round_number} reference", reference, results, terms_of)
            check_folds(run, f"round {round_number} alert fold", initial, results)
            if last:
                self.recover(run, service, as_entries(results))
            service.close()
            del service
            gc.collect()

    def recover(self, run: Run, service: MonitoringService, expected) -> None:
        snapshot = service.snapshot()
        for _ in range(RECOVERIES):
            run.attempt("recover")
            run.begin_recovery()
            started = run.clock()
            restored = MonitoringService.restore(snapshot)
            raw = run.clock() - started
            run.recovered(raw, expected, restored.results())
            restored.close()
            del restored


# ====================================================================== #
# durable-trickle
# ====================================================================== #
class DurableTrickle:
    """Durable service, time window, 50 subscriptions, one text per call."""

    name = "durable-trickle"
    #: As for ``firehose``.  Read on the wall clock, the 99th percentile of
    #: this sub-millisecond call was set by the host: most of the slowest
    #: calls had spent milliseconds off the processor with no fsync or
    #: collection in them, and ten seeds spread 0.3 around the median.
    #: This clock does not count waits for the disk (fsync) either.
    CLOCK = time.thread_time
    SPAN = 1_000.0
    PREFILL = 1_000
    SUBSCRIPTIONS = 50
    CHURN_EVERY = 40
    HEARTBEAT_EVERY = 100
    #: documents per calibration slice
    SLICE = 64
    #: the crash point: WAL records past the last checkpoint
    CRASH_TAIL = 512
    DOCS_PER_SECOND = 600
    #: documents generated past the planned phases: the last round's way to
    #: the crash point (at most one checkpoint interval) and any extension
    SPARE_DOCS = 3_000

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        generator = Generator(seed)
        rng = random.Random(seed ^ 0x7A11)
        self.words = generator.words
        self.workdir = workdir
        self.prefill = [generator.document() for _ in range(self.PREFILL)]
        self.slices = max(1, round(seconds * self.DOCS_PER_SECOND / (self.SLICE * ROUNDS)))
        #: documents a round plans to measure; round r starts at r * round_docs
        self.round_docs = self.slices * self.SLICE
        self.pool_size = ROUNDS * self.round_docs + self.SPARE_DOCS
        self.pool = [generator.document() for _ in range(self.pool_size)]
        # queries of every round: its first subscriptions, then the fresh
        # ones its churn makes (as for firehose, each round has its own)
        per_round = self.SUBSCRIPTIONS + self.pool_size // self.CHURN_EVERY + 1
        self.terms = [generator.queries(per_round) for _ in range(ROUNDS)]
        self.texts = [[generator.shuffled(terms) for terms in mix] for mix in self.terms]
        # Arrival times: each round's prefill is stamped by its service's
        # clock (interarrival 1.0 from 0.0); measured documents follow with
        # exponential gaps of mean 1.0, and every heartbeat advances the
        # clock part-way to the next arrival.
        self.gaps = [rng.expovariate(1.0) for _ in range(self.pool_size)]
        self.heartbeat_gaps = [rng.random() for _ in range(self.pool_size)]

    def setup(self, run: Run, round_number: int, storage: Optional[str]):
        directory = self.workdir / f"service-{round_number}"
        kwargs = {"storage": storage} if storage else {}
        setup = Setup(run)
        started = run.clock()
        service = MonitoringService.open(
            directory, EngineSpec(window=WindowSpec.time(self.SPAN), **kwargs)
        )
        setup.add(run.clock() - started)
        for start in range(0, len(self.prefill), PREFILL_BATCH):
            run.attempt("ingest")
            started = run.clock()
            service.ingest(self.prefill[start:start + PREFILL_BATCH])
            setup.add(run.clock() - started)
        handles = subscribe_all(
            run, setup, lambda text: service.subscribe(text, k=QUERY_K, on_change=run.callback),
            self.texts[round_number][: self.SUBSCRIPTIONS],
        )
        setup.finish()
        return service, directory, handles

    def reference(self, stream: List[Tuple[Optional[int], float, Optional[str]]]) -> ReferenceWindow:
        """Replay the prefill and a round's ``stream`` into the reference window."""
        reference = ReferenceWindow(span=self.SPAN)
        for doc_id, text in enumerate(self.prefill):
            reference.insert(doc_id, float(doc_id + 1), Counter(text.split()))
        for doc_id, at, text in stream:
            if text is None:
                reference.advance(at)
            else:
                reference.insert(doc_id, at, Counter(text.split()))
        return reference

    def run(self, run: Run, storage: Optional[str] = None) -> None:
        assert_analysis_identity(Analyzer(), self.words)
        for round_number in range(ROUNDS):
            self.run_round(run, round_number, storage)

    def run_round(self, run: Run, round_number: int, storage: Optional[str]) -> None:
        last = round_number == ROUNDS - 1
        service, directory, handles = self.setup(run, round_number, storage)
        live = list(handles)
        texts, all_terms = self.texts[round_number], self.terms[round_number]
        initial = {handle.query_id: entries(handle.result()) for handle in handles}
        terms_of = {handle.query_id: terms for handle, terms in zip(handles, all_terms)}
        spare = self.SUBSCRIPTIONS
        #: what the reference replays: (doc_id, arrival, text) per document,
        #: (None, time, None) per heartbeat
        stream: List[Tuple[Optional[int], float, Optional[str]]] = []
        first_index = round_number * self.round_docs
        index = first_index
        next_id = len(self.prefill)
        clock = float(self.PREFILL)

        def step(timed: bool) -> Tuple[float, float]:
            """One document, plus the churn and heartbeat scheduled after it.

            Returns the call's latency origin and the time of its program calls.
            """
            nonlocal index, next_id, spare, clock
            local = index - first_index
            text = self.pool[index]
            clock += self.gaps[index]
            arrival = clock
            run.attempt("ingest")
            started = run.begin_call()
            service.ingest(text, at=arrival)
            elapsed = run.end_call(started)
            stream.append((next_id, arrival, text))
            next_id += 1
            if local % self.CHURN_EVERY == self.CHURN_EVERY - 1:
                dropped = live.pop(0)
                run.attempt("unsubscribe")
                begun = run.begin_call()
                dropped.unsubscribe()
                elapsed += run.end_call(begun)
                initial.pop(dropped.query_id)
                terms_of.pop(dropped.query_id)
                run.attempt("subscribe")
                begun = run.begin_call()
                handle = service.subscribe(texts[spare], k=QUERY_K, on_change=run.callback)
                took = run.end_call(begun)
                elapsed += took
                if timed:
                    pending_subscribes.append(took)
                live.append(handle)
                with run.untraced():
                    initial[handle.query_id] = entries(handle.result())
                terms_of[handle.query_id] = all_terms[spare]
                spare += 1
            if local % self.HEARTBEAT_EVERY == self.HEARTBEAT_EVERY - 1:
                clock += self.heartbeat_gaps[index]
                run.attempt("advance_time")
                begun = run.begin_call()
                service.advance_time(clock)
                elapsed += run.end_call(begun)
                stream.append((None, clock, None))
            index += 1
            return started, elapsed

        pending_subscribes: List[float] = []
        run.start_measuring(self.slices, service, traced=last)
        while (
            run.more((index - first_index) // self.SLICE, self.slices)
            and index + self.SLICE <= self.pool_size
        ):
            first_id = next_id
            steps = [step(True) for _ in range(self.SLICE)]
            # The slice's time is the sum of the program calls: the
            # benchmark's bookkeeping between them is its own.
            factor = run.timed_slice(sum(elapsed for _, elapsed in steps), self.SLICE)
            for offset, (origin, _) in enumerate(steps):
                run.record_alerts(origin, range(first_id + offset, first_id + offset + 1))
            for took in pending_subscribes:
                run.subscribe_raw_ms.append(took * 1000.0)
                run.subscribe_ms.append(took * 1000.0 * factor)
            pending_subscribes.clear()
        run.stop_measuring()
        label = f"round {round_number}"
        if last:
            # Continue the same schedule, untimed, to the fixed crash point.
            label += " at crash"
            while service.durability.records_since_checkpoint != self.CRASH_TAIL:
                if index >= self.pool_size:
                    run.fail("ingest", "input pool exhausted before the crash point")
                    break
                step(False)
        results = service.results()
        check_results(run, f"{label} reference", self.reference(stream), results, terms_of)
        check_folds(run, f"{label} alert fold", initial, results)
        if not last:
            service.close()
            del service
            shutil.rmtree(directory)
            gc.collect()
            return
        expected = as_entries(results)
        copies = []
        for attempt in range(RECOVERIES):
            copy = self.workdir / f"crashed-{attempt}"
            shutil.copytree(directory, copy)
            copies.append(copy)
        # The service is abandoned, not closed: the copies are crash images.
        del service, handles, live
        gc.collect()
        for copy in copies:
            run.attempt("recover")
            run.begin_recovery()
            started = run.clock()
            recovered = MonitoringService.open(copy)
            raw = run.clock() - started
            factor = run.recovered(raw, expected, recovered.results())
            if run.tracer is not None:
                run.tracer.note_recovery(recovered.last_recovery, copy, factor)
            recovered.close()
            del recovered


# ====================================================================== #
# shared-async
# ====================================================================== #
class SharedAsync:
    """Async sharded service with dedup: 4,000 subscriptions of 400 queries."""

    name = "shared-async"
    #: The work runs on the pipeline's lane threads while the producer
    #: waits, so program calls are timed by the wall clock, less the time
    #: the hypervisor took from the machine meanwhile (see ``calibrate.py``).
    CLOCK = time.perf_counter
    WINDOW = 2_000
    SHARDS = 2
    DISTINCT = 400
    SUBSCRIPTIONS = 4_000
    #: A full garbage collection delays the alerts of its batch that were
    #: not yet delivered when it struck.  The subscribers' alert buffers
    #: make two such collections happen in a round, so the 99th percentile
    #: of a run lies among the documents its six collections delay (see
    #: README.md); rounds keep the heap, and with it the pauses, from
    #: growing for the whole run.
    BATCH = 64
    #: about one and a half times its raw rate
    DOCS_PER_SECOND = 420

    def __init__(self, seed: int, seconds: float) -> None:
        generator = Generator(seed)
        self.words = generator.words
        self.prefill = [generator.document() for _ in range(self.WINDOW)]
        #: measured calls per round
        self.slices = max(1, round(seconds * self.DOCS_PER_SECOND / (self.BATCH * ROUNDS)))
        # as for firehose: round r starts at r * slices * BATCH
        self.pool = [generator.document() for _ in range(ROUNDS * self.slices * self.BATCH)]
        # Every round has distinct queries of its own (as for firehose), and
        # ten subscriptions per distinct query, each with its own word
        # order, interleaved in a random order.
        order = random.Random(seed ^ 0x5A5A)
        self.terms: List[List[Tuple[str, ...]]] = []
        for _ in range(ROUNDS):
            distinct = generator.queries(self.DISTINCT)
            mix = [distinct[i % self.DISTINCT] for i in range(self.SUBSCRIPTIONS)]
            order.shuffle(mix)
            self.terms.append(mix)
        self.texts = [[generator.shuffled(terms) for terms in mix] for mix in self.terms]

    def spec(self, storage: Optional[str]) -> EngineSpec:
        kwargs = {"storage": storage} if storage else {}
        return EngineSpec(
            kind="sharded",
            num_shards=self.SHARDS,
            window=WindowSpec.count(self.WINDOW),
            queryscale=QueryScaleOptions(),
            **kwargs,
        )

    async def setup(self, run: Run, round_number: int, storage: Optional[str]):
        setup = Setup(run)
        started = run.clock()
        serving = MonitoringService(self.spec(storage)).serve(batch_size=self.BATCH)
        await serving.start()
        setup.add(run.clock() - started)
        for start in range(0, len(self.prefill), PREFILL_BATCH):
            run.attempt("ingest")
            started = run.clock()
            await serving.ingest(self.prefill[start:start + PREFILL_BATCH])
            setup.add(run.clock() - started)
        handles = []
        pending: List[float] = []
        seen = set()
        slice_started = run.clock()
        texts, all_terms = self.texts[round_number], self.terms[round_number]
        for text, terms in zip(texts, all_terms):
            run.attempt("subscribe")
            begun = run.clock()
            handles.append(await serving.subscribe(text, k=QUERY_K, on_change=run.callback))
            took = run.clock() - begun
            # subscribe_p50_ms times the subscriptions that compute an
            # initial top-k: the first of each distinct query (the other
            # nine only join its fan-out)
            if terms not in seen:
                seen.add(terms)
                pending.append(took)
            if (
                run.clock() - slice_started >= MIN_SLICE_SECONDS
                or len(handles) == len(texts)
            ):
                factor = setup.add(run.clock() - slice_started)
                for raw in pending:
                    run.subscribe_raw_ms.append(raw * 1000.0)
                    run.subscribe_ms.append(raw * 1000.0 * factor)
                pending = []
                slice_started = run.clock()
        setup.finish()
        initial = {handle.query_id: entries(handle.result()) for handle in handles}
        terms_of = {handle.query_id: terms for handle, terms in zip(handles, all_terms)}
        return serving, initial, terms_of

    def run(self, run: Run, storage: Optional[str] = None) -> None:
        asyncio.run(self._run(run, storage))

    async def _run(self, run: Run, storage: Optional[str]) -> None:
        assert_analysis_identity(Analyzer(), self.words)
        for round_number in range(ROUNDS):
            last = round_number == ROUNDS - 1
            serving, initial, terms_of = await self.setup(run, round_number, storage)
            ingested: List[str] = []
            position = round_number * self.slices * self.BATCH
            run.start_measuring(self.slices, serving.service, serving, traced=last)
            while run.more(len(ingested) // self.BATCH, self.slices):
                batch = [self.pool[(position + i) % len(self.pool)] for i in range(self.BATCH)]
                first_id = len(self.prefill) + len(ingested)
                run.attempt("ingest")
                started = run.begin_call()
                await serving.ingest(batch)
                run.timed_slice(run.end_call(started), self.BATCH)
                run.record_alerts(started, range(first_id, first_id + self.BATCH))
                ingested.extend(batch)
                position += self.BATCH
            run.stop_measuring()
            results = await serving.results()
            label = f"round {round_number}"
            reference = count_reference(self.WINDOW, self.prefill + ingested)
            check_results(run, f"{label} reference", reference, results, terms_of)
            check_folds(run, f"{label} alert fold", initial, results)
            groups: Dict[Tuple[str, ...], List[int]] = defaultdict(list)
            for query_id, terms in terms_of.items():
                groups[tuple(sorted(terms))].append(query_id)
            for members in groups.values():
                first = entries(results[members[0]])
                run.check(
                    [
                        f"{label} dedup siblings: query {other} differs from query {members[0]}"
                        for other in members[1:]
                        if entries(results[other]) != first
                    ],
                )
            if last:
                await self.recover(run, serving, as_entries(results))
            await serving.close()
            del serving
            gc.collect()

    async def recover(self, run: Run, serving, expected) -> None:
        snapshot = await serving.snapshot()
        for _ in range(RECOVERIES):
            run.attempt("recover")
            run.begin_recovery()
            started = run.clock()
            restored = await type(serving).restore(snapshot, batch_size=self.BATCH)
            raw = run.clock() - started
            run.recovered(raw, expected, await restored.results())
            await restored.close()
            del restored


WORKLOADS = {
    Firehose.name: Firehose,
    DurableTrickle.name: DurableTrickle,
    SharedAsync.name: SharedAsync,
}
