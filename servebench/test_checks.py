"""Tests of the benchmark's own checks: a planted fault must be caught.

Run from the repository root with either of::

    python3 -m pytest servebench/test_checks.py -q
    python3 servebench/test_checks.py

Each test drives a small real service through the same subscribe/ingest
path the workloads use, confirms the checks pass on its honest outputs,
then plants one fault -- a wrong top-k entry, a dropped alert, a differing
recovered result -- and confirms the check reports it.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import Analyzer, EngineSpec, MonitoringService, WindowSpec  # noqa: E402

from servebench.corpus import Generator, assert_analysis_identity  # noqa: E402
from servebench.reference import (  # noqa: E402
    ReferenceWindow,
    check_equal,
    check_fold,
    check_top_k,
    query_weights,
)

WINDOW = 60
K = 5


def small_run(seed: int = 7):
    """A count-window service with 20 subscriptions after 150 documents."""
    generator = Generator(seed)
    service = MonitoringService(EngineSpec(window=WindowSpec.count(WINDOW)))
    reference = ReferenceWindow(size=WINDOW)
    for doc_id in range(WINDOW):
        text = generator.document()
        service.ingest(text)
        reference.insert(doc_id, float(doc_id), Counter(text.split()))
    changes = []
    subscriptions = []
    for terms in generator.queries(20):
        handle = service.subscribe(
            generator.shuffled(terms), k=K, on_change=lambda alert: changes.append(alert.change)
        )
        subscriptions.append((handle, terms, [(e.doc_id, e.score) for e in handle.result()]))
    for doc_id in range(WINDOW, WINDOW + 90):
        text = generator.document()
        service.ingest([text])
        reference.insert(doc_id, float(doc_id), Counter(text.split()))
    return service, reference, changes, subscriptions


def folded_changes(changes, query_id):
    return [
        ([(e.doc_id, e.score) for e in change.entered], [(e.doc_id, e.score) for e in change.left])
        for change in changes
        if change.query_id == query_id
    ]


def test_analysis_leaves_the_vocabulary_unchanged():
    assert_analysis_identity(Analyzer(), Generator(1).words)


def test_wrong_top_k_is_caught():
    service, reference, _, subscriptions = small_run()
    planted = 0
    for handle, terms, _ in subscriptions:
        result = [(e.doc_id, e.score) for e in handle.result()]
        scores = reference.scores(query_weights(terms))
        assert check_top_k("honest", result, scores, K) == []
        outsiders = set(scores) - {doc_id for doc_id, _ in result}
        if not result or not outsiders:
            continue
        # Swap the best document for the weakest matching one outside the
        # top-k, reporting the outsider with the score it really has.
        outsider = min(outsiders, key=scores.get)
        if scores[outsider] >= result[0][1]:
            continue
        wrong = [(outsider, scores[outsider])] + result[1:]
        assert check_top_k("planted", wrong, scores, K), "a wrong top-k passed the check"
        planted += 1
    assert planted > 0


def test_dropped_alert_is_caught():
    service, _, changes, subscriptions = small_run()
    dropped = 0
    for handle, _, initial in subscriptions:
        final = [(e.doc_id, e.score) for e in handle.result()]
        delivered = folded_changes(changes, handle.query_id)
        assert check_fold("honest", initial, delivered, final) == []
        entering = [i for i, (entered, _) in enumerate(delivered) if entered]
        if not entering:
            continue
        # Drop the last alert that brought a document in.
        lost = delivered[: entering[-1]] + delivered[entering[-1] + 1:]
        assert check_fold("planted", initial, lost, final), "a dropped alert passed the check"
        dropped += 1
    assert dropped > 0


def test_recovery_difference_is_caught():
    service, _, _, _ = small_run()
    results = {qid: [(e.doc_id, e.score) for e in r] for qid, r in service.results().items()}
    restored = MonitoringService.restore(service.snapshot())
    again = {qid: [(e.doc_id, e.score) for e in r] for qid, r in restored.results().items()}
    assert check_equal("honest", results, again, K) == ([], [])
    victim = next(qid for qid, entries in again.items() if entries)
    again[victim] = again[victim][:-1]
    problems, _ = check_equal("planted", results, again, K)
    assert problems


def test_recovery_check_reports_a_different_tied_document_apart():
    live = {1: [(10, 0.5), (11, 0.3)]}
    assert check_equal("same", live, {1: [(10, 0.5), (11, 0.3)]}, 2) == ([], [])
    # another document at the k-th score: reported, as a tie
    problems, ties = check_equal("tie", live, {1: [(10, 0.5), (12, 0.3)]}, 2)
    assert problems == [] and len(ties) == 1
    # the same difference in a result shorter than k is no tie
    problems, ties = check_equal("short", live, {1: [(10, 0.5), (12, 0.3)]}, 3)
    assert problems and ties == []
    for name, other in (("swap", [(12, 0.5), (11, 0.3)]), ("score", [(10, 0.5), (11, 0.29)])):
        problems, ties = check_equal(name, live, {1: other}, 2)
        assert problems and ties == []


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
