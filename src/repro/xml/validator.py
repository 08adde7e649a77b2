"""Validating XML documents against DTDs.

This is the end-to-end application the paper motivates: for every element
of the document, the sequence of its children's names must match the
deterministic content model declared for the element's name.  Two code
paths are provided:

* :class:`DTDValidator` — whole-document validation.  One matcher is
  built per declared element name (through the module-level compile cache
  of :mod:`repro.api`, so two validators over the same DTD share patterns)
  and reused across all occurrences, so validation costs
  ``O(Σ_models |e_model| + Σ_elements |children|)`` — the combined-linear
  behaviour experiment E8 measures.  Child sequences run through the
  compiled lazy-DFA runtime by default: every occurrence of an element
  after the first replays memoized integer transitions, which is where
  the Li et al. observation (the same few content models are re-validated
  millions of times) turns into throughput.  Pass ``compiled=False`` to
  validate on the direct matcher path instead.  The walk is iterative
  and builds a path, a :class:`Violation` and a diagnosis only for an
  element that fails; a report stops at :data:`MAX_VIOLATIONS`.
* :class:`StreamingContentChecker` — incremental validation of one child
  sequence, fed name by name, exercising the streamability of the
  matchers (the paper notes all its matching algorithms are streaming).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from ..api import Pattern, compile as compile_pattern
from ..diagnostics import ValidationResult, diagnose
from ..errors import NotDeterministicError
from ..matching.base import DeterministicMatcher, MatchRun
from ..matching.plan import PLANNER, ExecutionPlan
from ..matching.runtime import CompiledRun, CompiledRuntime, aggregate_stats
from .document import Document, Element
from .dtd import DTD, ContentModel, content_model_expression, describe_expected


#: A report lists at most this many violations, the first in document
#: order; a document with more is still invalid.  A path costs up to its
#: element's depth, so the cap keeps a report linear in the document.
MAX_VIOLATIONS = 100


def _walk(root: Element, check: Callable) -> ValidationResult:
    """Run *check* on *root* and its descendants in document order, iteratively.

    ``check(element, locate)`` returns an element's violations and calls
    ``locate()`` only if there are any; ``locate`` renders the element's
    ``/catalog/product[2]`` path from ``slots``, the 1-based child
    positions from the root down.  Both validators report through here,
    up to :data:`MAX_VIOLATIONS` violations.
    """
    slots: list[int] = []

    def locate() -> str:
        element, parts = root, [f"/{root.name}"]
        for slot in slots:
            element = element.children[slot - 1]
            parts.append(f"/{element.name}[{slot}]")
        return "".join(parts)

    violations = list(check(root, locate))
    levels = [root.children]
    slots.append(0)
    while levels:
        children, slot = levels[-1], slots[-1]
        if slot == len(children):
            levels.pop()
            slots.pop()
            continue
        slots[-1] = slot + 1
        child = children[slot]
        found = check(child, locate)
        if found:
            violations += found
            if len(violations) >= MAX_VIOLATIONS:
                del violations[MAX_VIOLATIONS:]
                break
        if child.children:
            levels.append(child.children)
            slots.append(0)
    return ValidationResult(not violations, violations)


@dataclass(frozen=True, slots=True)
class Violation:
    """One validation problem, tied to the offending element.

    Beyond the bare verdict fields (``element``, ``kind``, ``message``),
    content violations carry the diagnosis the deterministic run yields
    for free: ``path`` locates the element from the validation root
    (``/catalog/product[3]``), ``child_index`` is the offset of the first
    offending child (``len(children)`` when the sequence ended too
    early), and ``expected`` lists the child tags that would have been
    legal there — read off the Section 4 follow sets at the stuck
    position (see :mod:`repro.diagnostics`).
    """

    element: Element
    kind: str  # "undeclared", "content", "unexpected-text", "unknown-type", "upa"
    message: str
    path: str = ""
    child_index: int | None = None
    expected: tuple[str, ...] = ()

    def describe(self) -> str:
        where = f" (at {self.path})" if self.path else ""
        return f"<{self.element.name}>: {self.message}{where}"

    def to_dict(self) -> dict:
        """Wire-ready rendering (the ``detail=full`` shape)."""
        payload: dict = {
            "element": self.element.name,
            "kind": self.kind,
            "message": self.message,
        }
        if self.path:
            payload["path"] = self.path
        if self.child_index is not None:
            payload["child_index"] = self.child_index
        if self.expected:
            payload["expected"] = list(self.expected)
        return payload


def _diagnosed_violation(
    element: Element, children: Sequence[str], subject: str, diagnosis, path: str
) -> Violation:
    """The located ``content`` violation of a child sequence that failed.

    *subject* names what the sequence failed (``content model …`` for a
    DTD, ``particle …`` for an XSD); *diagnosis* is its replay
    (:func:`repro.diagnostics.diagnose`), which the message, the
    offending child's index and the expected tags are read from.
    """
    index = diagnosis.error_index
    if index is not None and index < len(children):
        detail = f"unexpected child <{children[index]}> at index {index}"
    else:
        detail = f"content ended too early after {len(children)} child(ren)"
    wanted = describe_expected(diagnosis.expected, diagnosis.can_end)
    return Violation(
        element,
        "content",
        f"children {list(children)!r} do not match {subject}: {detail}; expected {wanted}",
        path=path,
        child_index=index,
        expected=diagnosis.expected,
    )


class DTDValidator:
    """Validate documents against a DTD using the paper's matchers."""

    def __init__(
        self,
        dtd: DTD,
        strategy: str = "auto",
        strict: bool = False,
        compiled: bool = True,
    ):
        """Build matchers for every declared content model.

        *strategy* selects the matching algorithm (see
        :data:`repro.matching.dispatch.STRATEGIES`); *strict* controls
        whether undeclared element names are reported as violations;
        *compiled* routes child-sequence matching through the lazy-DFA
        runtime (the default) or the direct matcher path.
        """
        self.dtd = dtd
        self.strict = strict
        self.compiled = compiled
        #: per-element compiled Pattern — the diagnosis layer replays
        #: failing child sequences through it (off the verdict hot path)
        self._patterns: dict[str, Pattern | None] = {}
        #: per-element execution plan — the single owner of which engine
        #: (compiled runtime + acceptance memo, or the direct matcher)
        #: answers child sequences.  Plans are primed eagerly so the
        #: per-occurrence cost is one dict probe plus the plan call.
        self._plans: dict[str, ExecutionPlan | None] = {}
        self._models: dict[str, ContentModel] = dict(dtd.elements)
        for name, model in dtd.elements.items():
            expression = content_model_expression(model)
            if expression is None:
                self._plans[name] = None
                self._patterns[name] = None
                continue
            # The compile cache applies the right determinism semantics (the
            # counter-aware one when the model uses the DTD '+' operator),
            # picks a matcher, and — since content-model ASTs are frozen and
            # hashable — returns the *same* warm Pattern when another
            # validator (or another document) compiles the same model.
            pattern = compile_pattern(expression, strategy=strategy)
            if not pattern.is_deterministic:
                raise NotDeterministicError(
                    f"content model of <{name}> is not deterministic: {pattern.explain()}",
                    report=pattern.report,
                )
            # ``compiled=False`` overrides the execution mode without
            # changing the pattern's cache identity: the direct route runs
            # over the same cached (compiled-capable) pattern.
            self._plans[name] = PLANNER.plan(pattern, compiled=compiled).prime()
            self._patterns[name] = pattern

    # -- document-level API -----------------------------------------------------------------
    def validate(self, document: Document | Element) -> ValidationResult:
        """Validate *document*; returns a truthy/falsy :class:`ValidationResult`.

        The result is truthy exactly when the document is valid and
        list-like over its :class:`Violation` objects (iteration, ``len``,
        indexing), so pre-PR-9 code that looped over the returned
        violation list keeps working.  Nesting depth costs memory, not
        interpreter stack, and a valid element allocates no path or result.
        The report stops at :data:`MAX_VIOLATIONS` violations.

        Thread-safe: a validator is immutable once constructed — its
        matchers and runtimes come from the (locked) module compile cache,
        and the runtimes synchronise their own row materialization — so one
        validator instance may be shared by any number of worker threads
        (the ``repro.service`` thread pool does exactly that).
        """
        root = document.root if isinstance(document, Document) else document
        return _walk(root, self._check)

    def is_valid(self, document: Document | Element) -> bool:
        """True when the document has no violations."""
        return self.validate(document).valid

    # -- element-level API --------------------------------------------------------------------
    def validate_element(self, element: Element, path: str = "") -> ValidationResult:
        """Check one element (its child sequence and text) against its declaration.

        Returns a :class:`ValidationResult` over this element's
        violations only; *path* locates the element in diagnostics.
        """
        violations = self._check(element, lambda: path)
        return ValidationResult(not violations, violations)

    def _check(self, element: Element, locate: Callable[[], str]) -> Sequence[Violation]:
        """*element*'s violations (``()`` if valid); *locate* runs only on failure."""
        model = self._models.get(element.name)
        if model is None:
            if not self.strict:
                return ()
            return (Violation(element, "undeclared", "element name is not declared", locate()),)
        text_ok = model.allows_text or not element.has_text()
        children = element.children
        plan = self._plans.get(element.name)
        if model.kind == "any":
            children_ok = True
        elif plan is None:
            # EMPTY, or mixed content with #PCDATA only: no element children.
            children_ok = not children
        else:
            children_ok = plan.accepts_children([child.name for child in children])
        if text_ok and children_ok:
            return ()
        path = locate()
        violations = []
        if not text_ok:
            message = "character data is not allowed here"
            violations.append(Violation(element, "unexpected-text", message, path=path))
        if not children_ok:
            violations.append(
                self._content_violation(element, model, element.child_sequence(), path)
            )
        return violations

    def _content_violation(
        self, element: Element, model: ContentModel, children: Sequence[str], path: str
    ) -> Violation:
        """Diagnose a failed child sequence into a located violation.

        Runs only on elements that already failed, so the replay cost is
        proportional to the number of *errors*, never to document size.
        """
        subject = f"content model {model.describe()}"
        pattern = self._patterns.get(element.name)
        if pattern is None:
            # EMPTY / (#PCDATA)-only models: any child at all is the error.
            message = f"children {children!r} do not match {subject}"
            return Violation(element, "content", message, path=path, child_index=0)
        diagnosis = diagnose(pattern, list(children))
        return _diagnosed_violation(element, children, subject, diagnosis, path)

    def stats(self) -> dict[str, dict]:
        """Lazy-DFA materialization telemetry, one entry per content model.

        Mirrors :meth:`repro.xml.xsd.XSDSchema.stats`: ``"elements"`` maps
        each declared name with a built runtime to its
        :meth:`~repro.matching.runtime.CompiledRuntime.stats`, ``"totals"``
        sums them and ``"memos"`` maps the same names to their runtime's
        verdict-memo stats.  Use together with
        ``repro.stats()["pattern_cache"]`` to size the compile cache from
        observed validation traffic.  Runtimes belong to cached patterns,
        so counters include traffic from every validator sharing the same
        content models through the compile cache.
        """
        named = []
        for name, plan in self._plans.items():
            runtime = None if plan is None else plan.built_runtime()
            if runtime is not None:
                named.append((name, runtime))
        return aggregate_stats(named)

    def checker_for(self, name: str) -> "StreamingContentChecker | None":
        """A streaming checker for the content model of *name* (or ``None``).

        The checker streams over whatever engine the element's execution
        plan owns — compiled validators hand out runs over the shared
        runtime, so even streaming validation of repeated elements reuses
        memoized rows.
        """
        plan = self._plans.get(name)
        if plan is None:
            return None
        return StreamingContentChecker(plan)


class StreamingContentChecker:
    """Incremental validation of one child sequence, name by name.

    Wraps a :class:`~repro.matching.base.MatchRun`; ``feed`` returns False
    as soon as the children seen so far can no longer be completed into a
    valid sequence **for the symbols consumed so far** (the run is dead),
    and ``complete`` asks whether stopping now yields a valid sequence.
    """

    def __init__(self, matcher: Union[DeterministicMatcher, CompiledRuntime, ExecutionPlan]):
        # Matchers, compiled runtimes and execution plans all expose
        # start() with the same run surface (feed / is_accepting /
        # consumed) — a plan starts a run on whatever engine it owns.
        self._run: MatchRun | CompiledRun = matcher.start()

    def feed(self, child_name: str) -> bool:
        """Consume the next child's name; False when the sequence is already invalid."""
        return self._run.feed(child_name)

    def complete(self) -> bool:
        """True when the names consumed so far form a complete valid sequence."""
        return self._run.is_accepting()

    @property
    def consumed(self) -> int:
        """Number of names consumed."""
        return self._run.consumed
