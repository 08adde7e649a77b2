"""Generating words for tests, examples and benchmarks.

Three kinds of words are produced:

* members — sampled from ``L(e)`` by a randomised walk over the AST
  (:func:`sample_member`), or enumerated exhaustively up to a length bound
  by breadth-first search over the position automaton
  (:func:`enumerate_members`);
* near-misses — members perturbed by a single edit
  (:func:`mutate_word`), useful for exercising rejection paths;
* streams — long pseudo-random member words used by the matching
  benchmarks (:func:`member_stream`).

All sampling takes an explicit :class:`random.Random` instance so tests
and benchmarks are reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Sequence

from .ast import (
    Concat,
    Epsilon,
    Optional,
    Plus,
    Regex,
    Repeat,
    Star,
    Sym,
    Union,
    UNBOUNDED,
)
from .language import LanguageOracle
from .parse_tree import ParseTree, build_parse_tree

Word = list[str]


# ---------------------------------------------------------------------------
# Sampling members from the AST
# ---------------------------------------------------------------------------

def sample_member(
    expr: Regex,
    rng: random.Random,
    star_continue: float = 0.6,
    max_star_repeats: int = 8,
) -> Word:
    """Sample one word of ``L(expr)`` by a randomised recursive walk.

    *star_continue* is the probability of performing one more iteration of
    a star/plus body (capped at *max_star_repeats* iterations).
    """
    from .ast import ensure_recursion_capacity

    ensure_recursion_capacity(expr.size())
    out: Word = []
    _sample_into(expr, rng, out, star_continue, max_star_repeats)
    return out


def _sample_into(
    expr: Regex,
    rng: random.Random,
    out: Word,
    star_continue: float,
    max_star_repeats: int,
) -> None:
    if isinstance(expr, Epsilon):
        return
    if isinstance(expr, Sym):
        out.append(expr.symbol)
        return
    if isinstance(expr, Concat):
        _sample_into(expr.left, rng, out, star_continue, max_star_repeats)
        _sample_into(expr.right, rng, out, star_continue, max_star_repeats)
        return
    if isinstance(expr, Union):
        chosen = expr.left if rng.random() < 0.5 else expr.right
        _sample_into(chosen, rng, out, star_continue, max_star_repeats)
        return
    if isinstance(expr, Optional):
        if rng.random() < 0.5:
            _sample_into(expr.child, rng, out, star_continue, max_star_repeats)
        return
    if isinstance(expr, (Star, Plus)):
        repeats = 1 if isinstance(expr, Plus) else 0
        while repeats < max_star_repeats and rng.random() < star_continue:
            repeats += 1
        for _ in range(repeats):
            _sample_into(expr.child, rng, out, star_continue, max_star_repeats)
        return
    if isinstance(expr, Repeat):
        if expr.high is UNBOUNDED:
            extra = 0
            while extra < max_star_repeats and rng.random() < star_continue:
                extra += 1
            count = expr.low + extra
        else:
            count = rng.randint(expr.low, expr.high)
        for _ in range(count):
            _sample_into(expr.child, rng, out, star_continue, max_star_repeats)
        return
    raise TypeError(f"unknown AST node: {expr!r}")


def sample_members(expr: Regex, count: int, rng: random.Random, **kwargs) -> list[Word]:
    """Sample *count* (not necessarily distinct) member words."""
    return [sample_member(expr, rng, **kwargs) for _ in range(count)]


def member_stream(
    expr: Regex,
    target_length: int,
    rng: random.Random,
    verify: bool = True,
) -> Word:
    """Build one long member word of roughly *target_length* symbols.

    The word is produced by a random walk over the position automaton:
    transitions are taken uniformly at random until the target length is
    reached, after which the walk stops as soon as it visits an accepting
    state (with a generous cut-off in case acceptance is hard to reach, in
    which case the walk restarts).  For star-free expressions the language
    is finite and the longest sampled member is returned instead.

    With *verify* on the result is checked against the oracle, making
    benchmark setup self-validating.
    """
    tree = build_parse_tree(expr)
    oracle = LanguageOracle(tree)
    if expr.is_star_free():
        best: Word = []
        for _ in range(32):
            candidate = sample_member(expr, rng, star_continue=0.9)
            if len(candidate) > len(best):
                best = candidate
        word = best
    else:
        word = _random_walk_member(oracle, tree, target_length, rng)
    if verify and not oracle.accepts(word):  # pragma: no cover - sanity net
        raise AssertionError("member_stream produced a non-member word")
    return word


def _random_walk_member(
    oracle: LanguageOracle,
    tree: ParseTree,
    target_length: int,
    rng: random.Random,
) -> Word:
    """Random walk over the position automaton producing a long member."""
    limit = target_length * 2 + tree.size + 16
    for _ in range(64):  # restart budget
        state = oracle.initial_state()
        word: Word = []
        while len(word) < limit:
            accepting = oracle.is_accepting(state)
            if accepting and len(word) >= target_length:
                return word
            end_index = tree.end.position_index
            choices: list[str] = []
            for p in state:
                for q in oracle.follow(p):
                    if q != end_index:
                        choices.append(tree.positions[q].symbol)
            if not choices:
                if accepting:
                    return word
                break
            symbol = rng.choice(choices)
            state = oracle.step(state, symbol)
            word.append(symbol)
        if oracle.is_accepting(state):
            return word
    # Fall back to plain sampling if the walk keeps failing.
    return sample_member(tree.source, rng, star_continue=0.9, max_star_repeats=64)


# ---------------------------------------------------------------------------
# Exhaustive enumeration via the position automaton
# ---------------------------------------------------------------------------

def enumerate_members(
    expr: Regex | ParseTree,
    max_length: int,
    max_words: int | None = None,
) -> list[Word]:
    """Enumerate all member words of length at most *max_length*.

    Breadth-first search over the subset states of the position automaton;
    intended for small expressions in tests (the state space is exponential
    in principle, but tiny for the expression sizes used there).
    """
    tree = expr if isinstance(expr, ParseTree) else build_parse_tree(expr)
    oracle = LanguageOracle(tree)
    alphabet = tree.alphabet.as_list()
    results: list[Word] = []
    queue: deque[tuple[frozenset[int], Word]] = deque([(oracle.initial_state(), [])])
    while queue:
        state, word = queue.popleft()
        if oracle.is_accepting(state):
            results.append(word)
            if max_words is not None and len(results) >= max_words:
                return results
        if len(word) >= max_length:
            continue
        for symbol in alphabet:
            next_state = oracle.step(state, symbol)
            if next_state:
                queue.append((next_state, word + [symbol]))
    return results


# ---------------------------------------------------------------------------
# Near-miss generation
# ---------------------------------------------------------------------------

def mutate_word(word: Sequence[str], alphabet: Sequence[str], rng: random.Random) -> Word:
    """Apply one random edit (substitution, deletion, insertion, swap).

    The result is *not* guaranteed to be outside the language; callers that
    need guaranteed non-members should filter with the oracle.
    """
    word = list(word)
    if not alphabet:
        return word
    operations = ["insert"] if not word else ["substitute", "delete", "insert", "swap"]
    operation = rng.choice(operations)
    if operation == "substitute":
        index = rng.randrange(len(word))
        word[index] = rng.choice(list(alphabet))
    elif operation == "delete":
        index = rng.randrange(len(word))
        del word[index]
    elif operation == "insert":
        index = rng.randrange(len(word) + 1)
        word.insert(index, rng.choice(list(alphabet)))
    elif operation == "swap" and len(word) >= 2:
        index = rng.randrange(len(word) - 1)
        word[index], word[index + 1] = word[index + 1], word[index]
    return word


def non_members(
    expr: Regex,
    count: int,
    rng: random.Random,
    max_attempts: int = 2000,
) -> list[Word]:
    """Generate up to *count* words guaranteed to be outside ``L(expr)``."""
    tree = build_parse_tree(expr)
    oracle = LanguageOracle(tree)
    alphabet = tree.alphabet.as_list()
    found: list[Word] = []
    attempts = 0
    while len(found) < count and attempts < max_attempts:
        attempts += 1
        base = sample_member(expr, rng)
        candidate = mutate_word(base, alphabet, rng)
        if not oracle.accepts(candidate):
            found.append(candidate)
    return found
