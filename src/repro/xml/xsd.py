"""XML-Schema-style content models with numeric occurrence indicators.

XML Schema generalises DTD content models with ``minOccurs``/``maxOccurs``
counters on particles.  Section 3.3 of the paper shows that determinism of
such expressions can still be decided in linear time; this module provides
the corresponding application layer:

* :class:`Particle` — a lightweight model of sequences, choices and
  element particles with occurrence bounds, convertible to the library's
  AST (``Repeat`` nodes);
* :class:`XSDSchema` — element name → particle, with the counter-aware
  determinism check of :mod:`repro.core.numeric` (the XML Schema "Unique
  Particle Attribution" constraint) and validation through the expanded
  expression.

Validation runs on the same engine as the DTD validator: every declared
content model is compiled **through the module-level pattern cache of**
:mod:`repro.api` (``repro.compile``), so two schemas declaring the same
particle — or the same schema validating many documents — share one warm
:class:`~repro.api.Pattern`, including its memoized lazy-DFA transition
rows.  Child sequences are interned once and replayed through the
compiled runtime; pass ``compiled=False`` to validate on the direct
(uncompiled) matcher path instead.  :meth:`XSDSchema.validate_element`
walks the tree without recursion, asks each declared element's
acceptance memo once, and builds a ``/orders/order[3]`` path only for an
element that fails.

>>> schema = XSDSchema(root="order")
>>> schema.declare("order", sequence(element_particle("item", 1, None),
...                                  element_particle("note", 0, 1)))
>>> schema.is_valid_schema()
True
>>> bool(schema.validate_children("order", ["item", "item", "note"]))
True
>>> result = schema.validate_children("order", ["note"])
>>> bool(result)
False
>>> result[0].child_index, result[0].expected
(0, ('item',))
>>> schema.stats()["totals"]["misses"] > 0
True
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from ..core.determinism import DeterminismReport
from ..core.numeric import NumericDeterminismReport
from ..diagnostics import ValidationResult, diagnose
from ..errors import InvalidExpressionError
from ..matching.plan import PLANNER
from ..matching.runtime import aggregate_stats
from ..regex.ast import Regex, Repeat, Sym, concat, union
from .document import Element
from .validator import Violation, _diagnosed_violation, _walk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports nothing from here)
    from ..api import Pattern


@dataclass(frozen=True, slots=True)
class Particle:
    """An XML Schema particle: an element, a sequence or a choice, with bounds.

    ``kind`` is ``"element"``, ``"sequence"`` or ``"choice"``; ``name`` is
    set for element particles; ``children`` for the two compositors.
    ``max_occurs=None`` means *unbounded*.
    """

    kind: str
    name: str | None = None
    children: tuple["Particle", ...] = ()
    min_occurs: int = 1
    max_occurs: int | None = 1

    def __post_init__(self) -> None:
        if self.kind not in ("element", "sequence", "choice"):
            raise InvalidExpressionError(f"unknown particle kind {self.kind!r}")
        if self.kind == "element" and not self.name:
            raise InvalidExpressionError("element particles need a name")
        if self.kind != "element" and not self.children:
            raise InvalidExpressionError(f"{self.kind} particles need children")
        if self.min_occurs < 0:
            raise InvalidExpressionError("minOccurs must be >= 0")
        if self.max_occurs is not None and self.max_occurs < self.min_occurs:
            raise InvalidExpressionError("maxOccurs must be >= minOccurs")

    # -- conversion --------------------------------------------------------------------
    def to_regex(self) -> Regex:
        """The regular expression (with ``Repeat`` nodes) this particle denotes."""
        if self.kind == "element":
            base: Regex = Sym(self.name)
        elif self.kind == "sequence":
            base = concat(*[child.to_regex() for child in self.children])
        else:
            base = union(*[child.to_regex() for child in self.children])
        if self.min_occurs == 1 and self.max_occurs == 1:
            return base
        return Repeat(base, self.min_occurs, self.max_occurs)

    def describe(self) -> str:
        """Human-readable rendering (used by the schema-linting example)."""
        if self.kind == "element":
            body = self.name or "?"
        else:
            separator = ", " if self.kind == "sequence" else " | "
            body = "(" + separator.join(child.describe() for child in self.children) + ")"
        if self.min_occurs == 1 and self.max_occurs == 1:
            return body
        upper = "unbounded" if self.max_occurs is None else str(self.max_occurs)
        return f"{body}{{{self.min_occurs},{upper}}}"

    def to_dict(self) -> dict:
        """JSON-serialisable rendering (the validation service's wire shape).

        ``max`` is ``None`` for *unbounded*, matching JSON ``null``;
        :func:`particle_from_dict` is the exact inverse.
        """
        data: dict = {"kind": self.kind, "min": self.min_occurs, "max": self.max_occurs}
        if self.kind == "element":
            data["name"] = self.name
        else:
            data["children"] = [child.to_dict() for child in self.children]
        return data


def element_particle(name: str, min_occurs: int = 1, max_occurs: int | None = 1) -> Particle:
    """An element particle ``<xs:element name=... minOccurs=... maxOccurs=...>``."""
    return Particle("element", name=name, min_occurs=min_occurs, max_occurs=max_occurs)


def sequence(*children: Particle, min_occurs: int = 1, max_occurs: int | None = 1) -> Particle:
    """A ``<xs:sequence>`` compositor."""
    return Particle(
        "sequence", children=tuple(children), min_occurs=min_occurs, max_occurs=max_occurs
    )


def choice(*children: Particle, min_occurs: int = 1, max_occurs: int | None = 1) -> Particle:
    """A ``<xs:choice>`` compositor."""
    return Particle(
        "choice", children=tuple(children), min_occurs=min_occurs, max_occurs=max_occurs
    )


def particle_from_dict(data: dict) -> Particle:
    """Rebuild a :class:`Particle` from its :meth:`~Particle.to_dict` shape.

    The shape is the one ``POST /validate`` accepts on the HTTP service::

        {"kind": "sequence", "min": 1, "max": 1, "children": [
            {"kind": "element", "name": "item", "min": 1, "max": null}]}

    Validation of the field values (kinds, bounds) is delegated to the
    :class:`Particle` constructor, so malformed payloads raise the same
    :class:`~repro.errors.InvalidExpressionError` the Python API raises.
    """
    if not isinstance(data, dict):
        raise InvalidExpressionError(f"particle must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("element", "sequence", "choice"):
        raise InvalidExpressionError(f"unknown particle kind {kind!r}")
    children = tuple(particle_from_dict(child) for child in data.get("children", ()))
    return Particle(
        kind,
        name=data.get("name"),
        children=children,
        min_occurs=data.get("min", 1),
        max_occurs=data.get("max", 1),
    )


def schema_from_dict(data: dict) -> "XSDSchema":
    """Rebuild an :class:`XSDSchema` from ``{"root": ..., "elements": {...}}``.

    Inverse of :meth:`XSDSchema.to_dict`; element values are
    :func:`particle_from_dict` shapes.
    """
    if not isinstance(data, dict):
        raise InvalidExpressionError(f"schema must be a JSON object, got {type(data).__name__}")
    elements = data.get("elements")
    if not isinstance(elements, dict):
        raise InvalidExpressionError('schema needs an "elements" object mapping names to particles')
    schema = XSDSchema(root=data.get("root"))
    for name, particle in elements.items():
        schema.declare(name, particle_from_dict(particle))
    return schema


@dataclass(slots=True)
class XSDSchema:
    """A minimal XSD-like schema: one content particle per element name.

    *compiled* (default True) routes child-sequence validation through the
    lazy-DFA runtime; the patterns themselves always come from the
    module-level compile cache of :mod:`repro.api`, so structurally equal
    content models are compiled exactly once per process.
    """

    root: str | None = None
    types: dict[str, Particle] = field(default_factory=dict)
    compiled: bool = True
    _patterns: dict[str, "Pattern | None"] = field(default_factory=dict, repr=False)
    #: name → execution plan (the single owner of the engine choice:
    #: compiled runtime + acceptance memo when ``compiled``, else the
    #: direct matcher); memoized so the per-element cost of validation is
    #: one dict probe, with no Pattern property traffic.
    _plans: dict = field(default_factory=dict, repr=False)
    #: serialises plan misses so concurrent validators resolve one plan
    #: per element; warm validation probes the plan dict lock-free.
    #: Re-entrant because the plan miss path resolves the pattern memo
    #: while already holding it.
    _memo_lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    def declare(self, name: str, particle: Particle) -> None:
        """Declare the content particle of element *name* (re-declaration allowed).

        Declarations are a build-time operation: concurrent *validation* of
        a fully declared schema is thread-safe, re-declaring an element
        while other threads validate it is not.
        """
        self.types[name] = particle
        # Invalidate the per-element memos; the underlying Pattern stays in
        # the module cache for any other schema still declaring it.
        with self._memo_lock:
            self._patterns.pop(name, None)
            self._plans.pop(name, None)

    def to_dict(self) -> dict:
        """JSON-serialisable rendering; :func:`schema_from_dict` is the inverse."""
        return {
            "root": self.root,
            "elements": {name: particle.to_dict() for name, particle in self.types.items()},
        }

    def particle(self, name: str) -> Particle | None:
        """The declared particle of *name* (or ``None``)."""
        return self.types.get(name)

    # -- Unique Particle Attribution (determinism) ----------------------------------------
    def check_unique_particle_attribution(
        self,
    ) -> dict[str, NumericDeterminismReport | DeterminismReport]:
        """Run the counter-aware determinism check on every declared type.

        Each report is the one computed (once, cached) by the compiled
        pattern: particles with occurrence bounds get the Section-3.3
        counter-aware analysis, plain particles the linear-time test —
        exactly the semantics UPA requires.
        """
        return {name: self._pattern_for(name).report for name in self.types}

    def is_valid_schema(self) -> bool:
        """True when every declared content model satisfies UPA (is deterministic)."""
        return all(
            report.deterministic
            for report in self.check_unique_particle_attribution().values()
        )

    # -- validation ----------------------------------------------------------------------------
    def validate_children(
        self,
        name: str,
        child_names: Sequence[str],
        _element: Element | None = None,
        _path: str = "",
    ) -> ValidationResult:
        """Check one child sequence against the declared particle of *name*.

        Returns a truthy/falsy :class:`~repro.diagnostics.ValidationResult`;
        on failure it carries one located :class:`~repro.xml.validator.Violation`
        with the offending child index and the expected tags (diagnosed by
        replaying the sequence — paid only on failure).  The verdict itself
        goes through the expanded expression (numeric bounds are unfolded
        to ``Repeat`` nodes the parse tree rewrites), matched on the
        compiled runtime: the child names are interned into integer codes
        once, then replayed over transition rows shared with every other
        document — and every other schema — that exercised the same
        content model.  *_element*/*_path* locate the violation when the
        caller has them.
        """
        violations = self._content_check(name, child_names, _element, lambda: _path)
        return ValidationResult(not violations, violations)

    def _plan_for(self, name: str):
        """The execution plan of *name*'s particle, memoized (``None`` if undeclared)."""
        plans = self._plans
        if name in plans:  # lock-free warm probe (the per-element steady state)
            return plans[name]
        with self._memo_lock:
            if name not in plans:
                pattern = self._pattern_for(name)
                plan = None
                if pattern is not None:
                    # ``compiled`` only overrides the execution mode; the
                    # pattern's cache identity is unchanged, so the
                    # underlying rows stay shared process-wide.
                    plan = PLANNER.plan(pattern, compiled=self.compiled).prime()
                plans[name] = plan
            return plans[name]

    def _content_check(
        self, name: str, child_names: Sequence[str], element: Element | None, locate: Callable
    ) -> tuple[Violation, ...]:
        """The violation of *child_names* under *name*'s particle (``()`` if accepted).

        Asks the plan once; the diagnosis replays the sequence, so it and
        *locate* run only on failures.
        """
        plan = self._plan_for(name)
        # Undeclared elements are unconstrained in this mini-schema.  The
        # plan memoized the engine choice: one chosen before the (mutable)
        # `compiled` flag was flipped keeps working.
        if plan is None or plan.accepts_children(child_names):
            return ()
        target = element if element is not None else Element(name)
        subject = f"particle {self.types[name].describe()}"
        diagnosis = diagnose(self._pattern_for(name), list(child_names))
        return (_diagnosed_violation(target, child_names, subject, diagnosis, locate()),)

    def validate_element(self, element: Element) -> ValidationResult:
        """Validate *element* and every descendant; collects every located violation.

        Returns a truthy/falsy :class:`~repro.diagnostics.ValidationResult`
        over :class:`~repro.xml.validator.Violation` objects with element
        paths.  Particles that violate Unique Particle Attribution are
        reported as ``"upa"`` violations (with the conflicting-position
        context from the counter-aware analysis) instead of being matched
        — the Section 4 matchers are only correct under UPA.  The walk is
        iterative, builds a path only for an element that fails, and stops
        at :data:`~repro.xml.validator.MAX_VIOLATIONS` violations.
        """
        return _walk(element, self._check)

    def _check(self, node: Element, locate: Callable[[], str]) -> tuple[Violation, ...]:
        """*node*'s violations (``()`` if valid); *locate* runs only on failure."""
        name = node.name
        pattern = self._pattern_for(name)
        if pattern is None:
            return ()  # undeclared elements are unconstrained
        if not pattern.is_deterministic:
            particle = self.types[name]
            message = (
                f"particle {particle.describe()} violates Unique Particle "
                f"Attribution: {pattern.explain()}"
            )
            return (Violation(node, "upa", message, path=locate()),)
        return self._content_check(name, [child.name for child in node.children], node, locate)

    def _pattern_for(self, name: str) -> "Pattern | None":
        """The compiled pattern of *name*'s particle, memoized per element.

        The memo makes the per-call cost a single dict probe; the pattern
        itself comes from ``repro.compile``'s LRU cache, so it is shared
        with every other schema (and the DTD validator) that compiles a
        structurally equal expression.
        """
        patterns = self._patterns
        if name in patterns:  # lock-free warm probe
            return patterns[name]
        with self._memo_lock:
            if name not in patterns:
                particle = self.types.get(name)
                if particle is None:
                    patterns[name] = None
                else:
                    from ..api import compile as compile_pattern

                    patterns[name] = compile_pattern(particle.to_regex())
            return patterns[name]

    # -- telemetry -------------------------------------------------------------------------------
    def stats(self) -> dict[str, dict]:
        """Lazy-DFA materialization telemetry for this schema's runtimes.

        Returns ``{"elements": {name: runtime stats}, "totals": summed
        stats, "memos": {name: verdict-memo stats}}`` covering every
        declared element whose runtime has been built.  Feed this to a
        monitoring endpoint to size ``repro.COMPILE_CACHE_SIZE`` from real
        traffic.  Patterns — and
        therefore runtimes and their counters — are shared process-wide
        through the compile cache: a structurally equal content model
        declared by another schema (or a DTD validator) contributes to the
        same rows, so these numbers describe the pattern's total traffic,
        not this schema instance's alone.
        """
        named = []
        for name, pattern in self._patterns.items():
            if pattern is None:
                continue
            runtime = pattern._built_runtime()
            if runtime is not None:
                named.append((name, runtime))
        return aggregate_stats(named)
