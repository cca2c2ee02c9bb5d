"""Synthetic raw-text inputs of the served-path benchmark.

Everything here is generated from the workload seed with the standard
library only, before any timing starts; the program under test sees
nothing but the resulting strings.

The vocabulary is fixed (it does not depend on the seed): 5,000
three-syllable words ending in ``k``.  The Porter stemmer strips no
suffix ending in ``k``, none of the words is a stop-word, and all are
lower-case letters, so analysis leaves every word unchanged; the
benchmark asserts that at setup (:func:`assert_analysis_identity`), which
lets the reference scorer weight documents from the generator's own
token counts.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Sequence, Tuple

VOCABULARY_SIZE = 5_000
TOKENS_PER_DOCUMENT = 60
ZIPF_EXPONENT = 1.0
QUERY_K = 10
#: query words are drawn uniformly from this Zipf-rank band (0-based):
#: frequent enough to match documents, rare enough to discriminate
QUERY_RANKS = (100, 2000)
QUERY_TERMS = (3, 5)

_ONSETS = "bdfglmnprstvz"
_VOWELS = "aeiou"


def vocabulary() -> List[str]:
    """The fixed 5,000-word vocabulary, most frequent (Zipf rank 1) first."""
    syllables = [onset + vowel for onset in _ONSETS for vowel in _VOWELS]
    words = [
        "".join(parts) + "k"
        for parts in itertools.product(syllables, repeat=3)
    ]
    random.Random(0x5EB).shuffle(words)
    return words[:VOCABULARY_SIZE]


def assert_analysis_identity(analyzer, words: Sequence[str]) -> None:
    """Raise if ``analyzer`` changes any generated word.

    The reference scorer counts the generator's tokens directly; that is
    only Formula (1) of the analysed text if analysis is the identity on
    the vocabulary.
    """
    changed = [w for w in words if analyzer.analyze(w) != [w]]
    if changed:
        raise RuntimeError(
            f"analysis changes {len(changed)} generated words, e.g. {changed[:3]}"
        )


class Generator:
    """Seeded generator of documents and query strings over the vocabulary."""

    def __init__(self, seed: int) -> None:
        self.words = vocabulary()
        self._rng = random.Random(seed)
        weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(self.words) + 1)]
        self._cumulative = list(itertools.accumulate(weights))

    def document(self) -> str:
        """One document: 60 Zipf-drawn words joined by spaces.

        Its token counts are ``Counter(text.split())``.
        """
        total = self._cumulative[-1]
        rng = self._rng
        cumulative = self._cumulative
        words = self.words
        last = len(words) - 1
        tokens = [
            words[min(bisect.bisect(cumulative, rng.random() * total), last)]
            for _ in range(TOKENS_PER_DOCUMENT)
        ]
        return " ".join(tokens)

    def queries(self, count: int) -> List[Tuple[str, ...]]:
        """``count`` term sets of 3-5 distinct mid-frequency words.

        The sets are drawn by stratified sampling, so that every seed
        gives nearly the same mix of query sizes and word frequencies and
        only the combinations differ: a third of the sets of each size,
        and the word ranks of all sets together spread evenly over
        ``QUERY_RANKS``.  Runs with different seeds then do nearly the same
        amount of work.
        """
        rng = self._rng
        low_size, high_size = QUERY_TERMS
        sizes = [low_size + i % (high_size - low_size + 1) for i in range(count)]
        rng.shuffle(sizes)
        low, high = QUERY_RANKS
        slots = sum(sizes)
        ranks = [low + int((j + rng.random()) * (high - low) / slots) for j in range(slots)]
        rng.shuffle(ranks)
        term_sets = []
        position = 0
        for size in sizes:
            chosen: List[int] = []
            for rank in ranks[position:position + size]:
                while rank in chosen:
                    rank = rng.randrange(low, high)
                chosen.append(rank)
            position += size
            term_sets.append(tuple(self.words[rank] for rank in chosen))
        return term_sets

    def shuffled(self, terms: Sequence[str]) -> str:
        """The query string of ``terms`` in a random word order."""
        order = list(terms)
        self._rng.shuffle(order)
        return " ".join(order)
