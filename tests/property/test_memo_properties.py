"""Property tests: one verdict memo per pattern, whoever fills it.

Each compiled runtime owns one word → verdict memo (``runtime.memo``,
:mod:`repro.matching.memo`): warm batches read and fill it by raw word,
the validators' child sequences by symbol tuple, and snapshots persist
its tuple keys.  Over a random interleaving of ``str`` and list batches,
validator probes and save → purge → load cycles, on random deterministic
patterns (``+``/counter models on the k-occurrence fallback included)
and under several memo bounds, three laws must hold after every step:

1. every memo entry equals the brute-force oracle
   (:class:`~repro.regex.language.LanguageOracle`) on the word its key
   reads as (``parse_word`` for a ``str`` key, the symbols of a tuple);
2. the memo never holds more than ``MEMO_LIMIT`` words;
3. a symbol sequence the memo holds — one a list-word batch memoized
   included — answers a validator probe from the memo, without a
   runtime replay (the memo's ``misses`` do not move).
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import repro
from repro.matching import memo as memo_module
from repro.regex.ast import Repeat
from repro.regex.generators import random_expression
from repro.regex.language import LanguageOracle
from repro.regex.parser import parse_word
from repro.regex.printer import to_text
from repro.regex.words import mutate_word, sample_member


def _native_text(rng: random.Random, leaf_count: int) -> str:
    """Named-dialect text of a random deterministic model with ``+`` and counters.

    Some are deterministic under the native semantics while their
    rewritten tree is not, so they match on the k-occurrence fallback.
    """
    for _ in range(100):
        expr = random_expression(rng, leaf_count)
        if rng.random() < 0.5:
            low = rng.randint(0, 2)
            expr = Repeat(expr, low, low + rng.randint(1, 2))
        if repro.Pattern(expr).is_deterministic:
            return to_text(expr, dialect="named")
    return "(a | b+)+"


def _words(rng: random.Random, pattern: repro.Pattern) -> list[list[str]]:
    alphabet = pattern.tree.alphabet.as_list() or ["a"]
    words: list[list[str]] = [[]]
    for _ in range(6):
        member = list(sample_member(pattern.expression, rng))
        words.append(member)
        words.append(list(mutate_word(member, alphabet, rng)))
        words.append([rng.choice(alphabet) for _ in range(rng.randint(1, 8))])
    words.append([alphabet[0], "not-in-alphabet"])
    return words


def _check_memo(memo, oracle: LanguageOracle) -> None:
    assert len(memo) <= memo_module.MEMO_LIMIT
    for generation in (memo.old, memo.young):
        for key, verdict in list(generation.items()):
            word = parse_word(key) if isinstance(key, str) else list(key)
            assert verdict == oracle.accepts(word), key


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=8),
    st.sampled_from([4, 16, memo_module.MEMO_LIMIT]),
)
@example(seed=3, leaf_count=6, limit=16)  # ((b+(ddc)cd)?){1,3}: the k-occurrence fallback
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_batches_validators_and_snapshots_share_one_right_memo(
    seed: int, leaf_count: int, limit: int
):
    rng = random.Random(seed)
    text = _native_text(rng, leaf_count)
    directory = tempfile.mkdtemp(prefix="memo-prop-")
    path = os.path.join(directory, "memo.snapshot")
    repro.purge()
    try:
        with mock.patch.object(memo_module, "MEMO_LIMIT", limit):
            pattern = repro.compile(text, dialect="named")
            oracle = LanguageOracle(pattern.tree)
            words = _words(rng, pattern)
            expected = {tuple(word): oracle.accepts(word) for word in words}
            batched: set[tuple[str, ...]] = set()  # sequences list-word batches memoized
            for _ in range(rng.randint(4, 14)):
                kind = rng.choice(["str-batch", "list-batch", "validator", "snapshot"])
                sample = [rng.choice(words) for _ in range(rng.randint(1, 20))]
                memo = pattern.acceptance_memo()
                if kind == "str-batch":
                    batch = [" ".join(word) for word in sample]
                    verdicts = pattern.match_all(batch)
                    assert verdicts == [oracle.accepts(parse_word(word)) for word in batch]
                elif kind == "list-batch":
                    before = set(memo.young) | set(memo.old)
                    verdicts = pattern.match_all([list(word) for word in sample])
                    assert verdicts == [expected[tuple(word)] for word in sample]
                    batched |= (set(memo.young) | set(memo.old)) - before
                elif kind == "validator":
                    pool = sorted(batched) if batched and rng.random() < 0.5 else words
                    word = tuple(rng.choice(pool))
                    held = word in memo.young or word in memo.old
                    misses = memo.misses
                    assert pattern.plan.accepts_children(word) == expected[word]
                    if held:
                        assert memo.misses == misses, word  # answered without a replay
                else:
                    exported = set(memo.export())
                    repro.save_snapshot(path)
                    repro.purge()
                    repro.load_snapshot(path)
                    pattern = repro.compile(text, dialect="named")
                    assert set(pattern.acceptance_memo().export()) == exported
                    batched &= {word for word, _verdict in exported}
                _check_memo(pattern.acceptance_memo(), oracle)
    finally:
        repro.purge()
        shutil.rmtree(directory, ignore_errors=True)
