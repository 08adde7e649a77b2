"""Common infrastructure for the Section 4 matching algorithms.

Every matcher in this package follows the paper's scheme: it provides a
*transition simulation* procedure — given the current position ``p`` and
an input symbol ``a``, return the a-labelled position that follows ``p``
(or ``None``) — and the word-level driver is shared:

* start at the ``#`` sentinel position,
* apply the transition simulation to each symbol of ``w`` in turn,
* accept iff the ``$`` sentinel follows the final position.

Because the driver consumes the input one symbol at a time and keeps only
the current position, every matcher is *streamable* exactly as the paper
points out; :class:`MatchRun` exposes that streaming interface directly
(the streaming example and the XML validator use it).

Matchers are only correct on deterministic expressions; by default the
constructor runs the linear-time determinism test and raises
:class:`~repro.errors.NotDeterministicError` on failure (pass
``verify=False`` to skip the check when the caller already knows).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

from ..core.determinism import DeterminismChecker
from ..core.follow import FollowIndex
from ..errors import NotDeterministicError
from ..regex.ast import Regex
from ..regex.parse_tree import ParseTree, TreeNode, build_parse_tree


class DeterministicMatcher(ABC):
    """Base class implementing the shared matching driver.

    Subclasses implement :meth:`next_position` (the transition simulation
    procedure of the paper) and may override :meth:`_prepare` to build
    their per-algorithm preprocessing structures.
    """

    #: short machine-readable name used by the dispatcher and the benchmarks
    name = "abstract"

    def __init__(
        self,
        expr: Regex | ParseTree | str,
        verify: bool = True,
        checker: DeterminismChecker | None = None,
    ):
        self.tree = expr if isinstance(expr, ParseTree) else build_parse_tree(expr)
        if checker is not None and checker.tree is not self.tree:
            raise ValueError("the supplied checker was built for a different parse tree")
        self._checker = checker
        #: the tree's shared follow index (built once per parse tree)
        self.follow: FollowIndex = self.tree.follow
        if verify:
            report = self.checker.report()
            if not report.deterministic:
                raise NotDeterministicError(
                    f"{type(self).__name__} requires a deterministic expression: "
                    f"{report.describe()}",
                    report=report,
                )
        self._prepare()

    # -- lazily shared preprocessing -------------------------------------------------
    @property
    def checker(self) -> DeterminismChecker:
        """The determinism checker (and its skeleton index), built on demand."""
        if self._checker is None:
            self._checker = DeterminismChecker(self.tree)
        return self._checker

    def _prepare(self) -> None:
        """Hook for per-algorithm preprocessing (default: nothing)."""

    # -- the transition simulation procedure -----------------------------------------
    @abstractmethod
    def next_position(self, position: TreeNode, symbol: str) -> TreeNode | None:
        """Return the *symbol*-labelled position following *position*, or ``None``."""

    # -- word-level driver --------------------------------------------------------------
    def start(self) -> "MatchRun":
        """Begin a streaming run (at the ``#`` sentinel)."""
        return MatchRun(self)

    def accepts(self, word: Iterable[str]) -> bool:
        """True when *word* belongs to the language of the expression.

        Written as a tight loop over the transition simulation with the
        bound method hoisted out — no per-symbol :class:`MatchRun`
        bookkeeping — because this is the inner loop every benchmark and
        every validated element pays.

        A word containing the literal ``$`` character must die at that
        symbol: the only ``$``-labelled position is the R1 end sentinel,
        which is not part of the alphabet the language is defined over
        (``#`` labels only the start position, which never follows
        anything).  The guard keeps the direct path in lock-step with the
        compiled runtime, whose encoder rejects sentinels by construction.
        """
        position = self.tree.start
        end = self.tree.end
        next_position = self.next_position
        for symbol in word:
            position = next_position(position, symbol)
            if position is None or position is end:
                return False
        return self.follow.accepts_at(position)

    def trace(self, word: Iterable[str]) -> list[TreeNode]:
        """The sequence of positions visited while reading *word*.

        The trace stops at the first mismatching symbol; it always starts
        with the ``#`` sentinel.  Mostly useful for tests and debugging.
        """
        position = self.tree.start
        visited = [position]
        for symbol in word:
            following = self.next_position(position, symbol)
            if following is None or following is self.tree.end:
                break
            position = following
            visited.append(position)
        return visited


class MatchRun:
    """A streaming match in progress: feed symbols one at a time.

    ``feed`` returns False once the word has irrevocably fallen outside the
    language (the run stays dead from then on); ``is_accepting`` may be
    consulted at any point and does not consume input, which is exactly
    what incremental validation of an XML child sequence needs.
    """

    __slots__ = ("matcher", "position", "alive", "consumed")

    def __init__(self, matcher: DeterministicMatcher):
        self.matcher = matcher
        self.position: TreeNode = matcher.tree.start
        self.alive = True
        self.consumed = 0

    def feed(self, symbol: str) -> bool:
        """Consume one symbol; return True while the run is still alive.

        Feeding the literal ``$`` kills the run: its only position is the
        R1 end sentinel, which is outside the user alphabet (see
        :meth:`DeterministicMatcher.accepts`).
        """
        if not self.alive:
            return False
        following = self.matcher.next_position(self.position, symbol)
        if following is None or following is self.matcher.tree.end:
            self.alive = False
            return False
        self.position = following
        self.consumed += 1
        return True

    def feed_all(self, word: Iterable[str]) -> bool:
        """Consume a whole word; return True while the run is still alive.

        Equivalent to ``feed`` in a loop but with the position, the counter
        and the transition simulation hoisted into locals, so long words pay
        one attribute flush instead of four attribute accesses per symbol.
        """
        if not self.alive:
            return False
        position = self.position
        consumed = self.consumed
        end = self.matcher.tree.end
        next_position = self.matcher.next_position
        for symbol in word:
            following = next_position(position, symbol)
            if following is None or following is end:
                self.position = position
                self.consumed = consumed
                self.alive = False
                return False
            position = following
            consumed += 1
        self.position = position
        self.consumed = consumed
        return True

    def is_accepting(self) -> bool:
        """True when the symbols consumed so far form a member of the language."""
        return self.alive and self.matcher.follow.accepts_at(self.position)


def as_word(word: str | Sequence[str]) -> list[str]:
    """Normalise user input into a list of symbols (see :func:`repro.regex.parser.parse_word`)."""
    from ..regex.parser import parse_word

    return parse_word(word)
