"""One word → verdict memo per compiled pattern.

A deterministic expression's language never changes, so a word's verdict
is a pure function of the word.  The Li et al. schema study's core
observation is that real traffic repeats the same few words and child
sequences, so each :class:`~repro.matching.runtime.CompiledRuntime` —
a pattern's only runtime — owns one :class:`AcceptanceMemo`
(``runtime.memo``), and every path that memoizes a verdict reads it:

* the XML validators ask it once per element occurrence
  (:meth:`AcceptanceMemo.accepts`, keyed on the tuple of child names), so
  a repeated child sequence costs one dict probe and a miss replays the
  runtime;
* a warm batch's :class:`~repro.matching.kernel.Corpus` probes it before
  it parses a word, keyed on the raw word (a ``str`` as it is, a tuple
  only where it equals its parsed form), and
  :func:`~repro.matching.kernel.match_corpus` stores each scanned verdict
  back;
* :func:`repro.save_snapshot` persists its tuple keys (the ``MEMO``
  section of a snapshot file, :meth:`AcceptanceMemo.export`) and
  :func:`repro.load_snapshot` installs them (:meth:`AcceptanceMemo.adopt`).

A tuple key is a symbol sequence on every path, so a validator and a
batch that meet the same sequence share one entry.  A ``str`` key is a
batch word before ``parse_word`` reads it (``"a b"`` is the word a·b, and
``list("a b")`` is not), so it is never persisted.

**The bound.**  A memo holds at most :data:`MEMO_LIMIT` words, in two
generations.  New words go into the young generation; when it holds half
the limit it becomes the old generation and the previous old one is
dropped.  A hit in the old generation moves the word back to the young
one, so a word re-used within every half-limit of new words is never
evicted, however many words pass through once: nothing needs to resize
a memo.

**Concurrency.**  No lock sits on the memo: a stored verdict never goes
stale, so threads racing on one memo can only lose an entry or overfill a
generation by one entry each, which costs a recomputation, never a wrong
verdict.  Adopted verdicts come from a snapshot whose fingerprint proved
it was written for the *same* pattern identity (and whose section CRC
proved the bytes intact), so a memo can never change a verdict — only
skip recomputing one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .snapshot import SnapshotError

#: Words one memo holds at most, in two generations of half as many.  A
#: stream of new words would otherwise keep them all: when the batch memo
#: held encodings, ``1 << 16`` took match-stream's peak RSS to 170 MB
#: against 41 MB at ``1 << 10`` (``docs/kernel.md``).
MEMO_LIMIT = 1 << 10


class AcceptanceMemo:
    """A bounded, lock-free word → verdict cache in two generations.

    ``None`` from :meth:`get` means "not cached"; verdicts themselves are
    plain bools.  ``hits`` and ``misses`` count validator probes
    (:meth:`accepts`) only; batch probes go through :meth:`get` and count
    nothing.
    """

    __slots__ = ("young", "old", "half", "hits", "misses", "adopted")

    def __init__(self):
        self.young: dict = {}
        self.old: dict = {}
        #: one generation's capacity, read off MEMO_LIMIT when the memo is made
        self.half = MEMO_LIMIT // 2
        self.hits = 0
        self.misses = 0
        #: entries installed from a persisted snapshot (telemetry)
        self.adopted = 0

    def __len__(self) -> int:
        return len(self.young) + len(self.old)

    def get(self, key) -> bool | None:
        """The verdict memoized for *key*, or ``None``."""
        verdict = self.young.get(key)
        if verdict is None:
            verdict = self.old.pop(key, None)
            if verdict is not None:
                self.put(key, verdict)
        return verdict

    def put(self, key, verdict: bool) -> None:
        """Memoize *verdict* for *key* in the young generation."""
        young = self.young
        if len(young) >= self.half:
            self.old = young
            self.young = young = {}
        young[key] = verdict

    def accepts(self, runtime, children) -> bool:
        """Memoized whole-sequence membership, via *runtime* on a miss.

        The validators' fast path: one dict probe answers a repeated child
        sequence; a miss replays the runtime and memoizes the verdict for
        every validator and batch sharing this memo.
        """
        key = tuple(children)
        verdict = self.get(key)
        if verdict is None:
            self.misses += 1
            verdict = runtime.accepts_encoded(runtime.encode(key))
            self.put(key, verdict)
        else:
            self.hits += 1
        return verdict

    # -- snapshot export / adoption ------------------------------------------------------
    def export(self) -> list[tuple[tuple[str, ...], bool]]:
        """The symbol-sequence entries as ``(word, verdict)`` pairs, old generation first.

        Only tuple keys are written: a ``str`` key is a raw batch word,
        whose symbols only ``parse_word`` knows.
        """
        return [
            (key, verdict)
            for generation in (self.old, self.young)
            for key, verdict in list(generation.items())
            if type(key) is tuple
        ]

    def exported(self) -> int:
        """How many entries :meth:`export` writes, without building them."""
        generations = (self.old, self.young)
        return sum(type(key) is tuple for generation in generations for key in list(generation))

    def adopt(self, entries: Iterable[Sequence]) -> int:
        """Install persisted ``(word, verdict)`` pairs; returns entries adopted.

        Validation is strict and happens *before* any mutation: every
        item must be a ``(sequence-of-strings, bool)`` pair.  A violation
        raises :class:`~repro.matching.snapshot.SnapshotError` (reason
        ``"memo-entry"``) and leaves the memo untouched — the API layer
        counts it and matching proceeds uncached.  Adoption never drops
        an entry the memo holds: a word already held keeps its entry, and
        adopted words fill the old generation, then the young one, only
        while each has room, so no generation turns over.
        """
        validated: list[tuple[tuple[str, ...], bool]] = []
        for item in entries:
            try:
                word, verdict = item
            except (TypeError, ValueError):
                raise SnapshotError("memo-entry", f"invalid memo entry {item!r}") from None
            if isinstance(word, str) or not isinstance(word, (list, tuple)):
                raise SnapshotError(
                    "memo-entry", f"memo key must be a sequence of names, got {word!r}"
                )
            try:
                # str.join scans the names at C speed and raises TypeError
                # on the first non-string — a snapshot-preloaded boot
                # validates every adopted name, so this loop is hot.
                "".join(word)
            except TypeError:
                raise SnapshotError(
                    "memo-entry", f"memo key {word!r} holds non-string names"
                ) from None
            if not isinstance(verdict, bool):
                raise SnapshotError("memo-entry", f"memo verdict {verdict!r} is not a bool")
            validated.append((tuple(word), verdict))
        adopted = 0
        half = self.half
        old, young = self.old, self.young
        for word, verdict in validated:
            if word in young or word in old:
                continue
            if len(old) < half:
                old[word] = verdict
            elif len(young) < half:
                young[word] = verdict
            else:
                break
            adopted += 1
        self.adopted += adopted
        return adopted

    def stats(self) -> dict[str, int]:
        """Size, validator traffic and adoption counters (validator ``memos``)."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "adopted": self.adopted,
            "limit": 2 * self.half,
        }
