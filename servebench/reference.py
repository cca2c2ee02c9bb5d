"""The benchmark's own reference scorer and output checks.

Nothing here imports the program under test.  Document weights are
Formula (1) of the paper -- term frequency over the Euclidean norm of the
document's term frequencies -- computed from the generator's own token
counts; query weights are the same formula over the query's distinct
words (each counted once).  The window contents are tracked by the
benchmark itself: the last ``size`` documents of a count window, or, for
a time window of span ``s`` at time ``now``, the documents with
``now - arrival < s``.

Results are compared as plain ``(doc_id, score)`` pairs so that the checks
can be tested without the program (``test_checks.py``).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: scores of the program and of the reference may differ by summation order
SCORE_TOLERANCE = 1e-9

Entry = Tuple[int, float]


def document_weights(counts: Mapping[str, int]) -> Dict[str, float]:
    norm = math.sqrt(sum(f * f for f in counts.values()))
    return {term: f / norm for term, f in counts.items()}


def query_weights(terms: Iterable[str]) -> Dict[str, float]:
    distinct = set(terms)
    weight = 1.0 / math.sqrt(len(distinct))
    return {term: weight for term in distinct}


class ReferenceWindow:
    """The benchmark's copy of the sliding window, with brute-force top-k."""

    def __init__(self, size: Optional[int] = None, span: Optional[float] = None) -> None:
        if (size is None) == (span is None):
            raise ValueError("give exactly one of size (count window) or span (time window)")
        self.size = size
        self.span = span
        #: (doc_id, arrival time, term weights), oldest first
        self._docs: Deque[Tuple[int, float, Dict[str, float]]] = deque()
        self._now: Optional[float] = None
        #: term -> [(doc_id, weight)] over the current contents, built on demand
        self._postings: Optional[Dict[str, List[Tuple[int, float]]]] = None

    def insert(self, doc_id: int, arrival: float, counts: Mapping[str, int]) -> None:
        self._docs.append((doc_id, arrival, document_weights(counts)))
        self._expire(arrival)

    def advance(self, now: float) -> None:
        self._expire(now)

    def _expire(self, now: float) -> None:
        self._postings = None
        self._now = now if self._now is None else max(self._now, now)
        docs = self._docs
        if self.size is not None:
            while len(docs) > self.size:
                docs.popleft()
        else:
            while docs and self._now - docs[0][1] >= self.span:
                docs.popleft()

    def __len__(self) -> int:
        return len(self._docs)

    def scores(self, weights: Mapping[str, float]) -> Dict[int, float]:
        """Every window document's positive score for a query."""
        if self._postings is None:
            self._postings = {}
            for doc_id, _, doc_weights in self._docs:
                for term, value in doc_weights.items():
                    self._postings.setdefault(term, []).append((doc_id, value))
        scored: Dict[int, float] = {}
        for term, weight in weights.items():
            for doc_id, value in self._postings.get(term, ()):
                scored[doc_id] = scored.get(doc_id, 0.0) + weight * value
        return scored


def check_top_k(
    label: str, got: Sequence[Entry], scores: Mapping[int, float], k: int
) -> List[str]:
    """Problems with ``got`` as the top-``k`` of the reference ``scores``.

    Scores must agree within :data:`SCORE_TOLERANCE`, position by position,
    with the reference's sorted scores, and every reported document must be
    a window document with that score.  Document ids are therefore pinned
    wherever the k-th score is untied; among documents tied at the k-th
    score any choice passes.
    """
    problems = []
    expected = sorted(scores.values(), reverse=True)[:k]
    if len(got) != len(expected):
        return [f"{label}: {len(got)} results, reference has {len(expected)}"]
    seen = set()
    for position, ((doc_id, score), want) in enumerate(zip(got, expected)):
        if doc_id in seen:
            problems.append(f"{label}: document {doc_id} reported twice")
        seen.add(doc_id)
        own = scores.get(doc_id)
        if own is None:
            problems.append(f"{label}: document {doc_id} is not a matching window document")
        elif abs(own - score) > SCORE_TOLERANCE:
            problems.append(f"{label}: document {doc_id} scored {score!r}, reference {own!r}")
        if abs(score - want) > SCORE_TOLERANCE:
            problems.append(
                f"{label}: position {position} scored {score!r}, reference {want!r}"
            )
    return problems


def fold(
    initial: Sequence[Entry],
    changes: Iterable[Tuple[Sequence[Entry], Sequence[Entry]]],
) -> Tuple[Dict[int, float], List[str]]:
    """Apply ``(entered, left)`` alert changes, in order, to a result.

    Returns the folded result and the inconsistencies met on the way: a
    document leaving that was not in the result, or entering that already
    was.
    """
    state = dict(initial)
    problems = []
    for position, (entered, left) in enumerate(changes):
        for doc_id, _ in left:
            if state.pop(doc_id, None) is None:
                problems.append(f"alert {position}: document {doc_id} left but was not in the result")
        for doc_id, score in entered:
            if doc_id in state:
                problems.append(f"alert {position}: document {doc_id} entered but was already in the result")
            state[doc_id] = score
    return state, problems


def check_fold(
    label: str,
    initial: Sequence[Entry],
    changes: Iterable[Tuple[Sequence[Entry], Sequence[Entry]]],
    final: Sequence[Entry],
) -> List[str]:
    """Problems if folding the delivered alerts does not give ``final``."""
    folded, problems = fold(initial, changes)
    problems = [f"{label}: {problem}" for problem in problems]
    if folded != dict(final):
        missing = sorted(set(dict(final)) - set(folded))
        extra = sorted(set(folded) - set(dict(final)))
        problems.append(
            f"{label}: alerts fold to a different result (missing {missing}, extra {extra})"
        )
    return problems


def check_equal(
    label: str,
    left: Mapping[int, Sequence[Entry]],
    right: Mapping[int, Sequence[Entry]],
    k: int,
) -> Tuple[List[str], List[str]]:
    """How two ``{query_id: result}`` maps differ: ``(problems, ties)``.

    The query ids must be the same, and each query's result identical:
    the same documents with the same scores in the same order.  A query
    whose two results are both full (``k`` entries), agree in every score
    and differ only in which of the documents tied at the k-th score they
    hold is named in ``ties``; any other difference is a problem.
    """
    if set(left) != set(right):
        return [f"{label}: query ids differ ({len(left)} vs {len(right)})"], []
    problems: List[str] = []
    ties: List[str] = []
    for query_id in sorted(left):
        one, other = list(left[query_id]), list(right[query_id])
        if one == other:
            continue
        differ = [
            (position, mine, theirs)
            for position, (mine, theirs) in enumerate(zip(one, other))
            if mine != theirs
        ]
        message = (
            f"{label}: query {query_id} results differ"
            f" ({len(one)} vs {len(other)} entries; (position, one, other): {differ})"
        )
        boundary = one[-1][1] if one else None
        tied = (
            len(one) == len(other) == k
            and all(mine[1] == theirs[1] == boundary for _, mine, theirs in differ)
        )
        (ties if tied else problems).append(message)
    return problems, ties
