"""XML text to the library's element tree, on the stdlib's expat parser.

``xml.parsers.expat`` is the C parser that ships with CPython.  Its events
build :class:`~repro.xml.document.Element` objects on an explicit stack, so
nesting depth costs memory, never interpreter stack.  The DOCTYPE's
internal subset is returned as raw text for :func:`~repro.xml.dtd.parse_dtd`.

Expat is a conforming XML 1.0 parser: character references and the five
predefined entities are decoded, line ends and attribute whitespace are
normalised, and non-well-formed input is rejected.  Entity declarations,
references to entities it cannot expand and external DTD subsets are
rejected as well, so a document's child sequences are exactly what its
text spells out; so is nesting deeper than :data:`MAX_DEPTH`.  Every
failure is an :class:`~repro.errors.XMLSyntaxError` with a 1-based line
and column (columns count characters).

>>> parsed = parse_xml('<!DOCTYPE note [<!ELEMENT note (#PCDATA)>]><note>hi &amp; bye</note>')
>>> parsed.doctype_name, parsed.internal_subset, parsed.document.root.text
('note', '<!ELEMENT note (#PCDATA)>', 'hi & bye')
>>> try:
...     parse_xml("<list>\\n  <item>\\n</list>")
... except XMLSyntaxError as error:
...     print(error.line, error.column, error)
3 3 mismatched tag (line 3, column 3)
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.parsers import expat

from ..errors import XMLSyntaxError
from .document import Document, Element

#: Elements nest at most this deep.  A validator reports a failing element
#: with its path from the root, so the bound also caps a path's length.
MAX_DEPTH = 100_000


@dataclass(slots=True)
class ParsedXML:
    """Result of :func:`parse_xml`: the document plus the DOCTYPE internal subset."""

    document: Document
    doctype_name: str | None = None
    internal_subset: str | None = None


def parse_xml(text: str) -> ParsedXML:
    """Parse *text* into a :class:`ParsedXML` (raises on malformed input)."""
    # A lone surrogate encodes to bytes that are not UTF-8; expat rejects
    # them like any other invalid character, at the character's position.
    data = text.encode("utf-8", "surrogatepass")
    builder = _Builder(data)
    try:
        builder.parser.Parse(data, True)
    except expat.ExpatError as error:
        message = expat.ErrorString(error.code)
        raise XMLSyntaxError(message, line=error.lineno, column=error.offset + 1) from None
    finally:
        # The parser holds the builder's bound methods; dropping the back
        # reference lets reference counting free both, with no cyclic GC.
        builder.parser = None
    root = builder.stack[0].children[0]
    return ParsedXML(Document(root), builder.doctype_name, builder.internal_subset)


def parse_document(text: str) -> Document:
    """Parse *text* and return only the document."""
    return parse_xml(text).document


class _Builder:
    """Expat handlers that assemble one document's element tree.

    Open elements sit on ``stack``, above a stand-in parent of the root.
    Each element's ``text`` joins its own character-data runs (CDATA
    included) once, at its end tag: open elements share ``runs``, and
    ``marks`` records where each one's runs start.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.stack = [Element("")]
        self.marks: list[int] = []
        self.runs: list[str] = []
        self.doctype_name = self.internal_subset = None
        self.subset_start = -1
        parser = self.parser = expat.ParserCreate("utf-8")
        parser.buffer_text = True
        parser.specified_attributes = True
        # Otherwise a parameter-entity reference in the internal subset
        # silently turns off the rest of it and drops unknown entities
        # from attribute values; this way it reaches entity_skipped.
        parser.SetParamEntityParsing(expat.XML_PARAM_ENTITY_PARSING_ALWAYS)
        parser.StartElementHandler = self.start
        parser.EndElementHandler = self.end
        parser.CharacterDataHandler = self.runs.append
        parser.StartDoctypeDeclHandler = self.start_doctype
        parser.EndDoctypeDeclHandler = self.end_doctype
        parser.EntityDeclHandler = self.entity_declared
        parser.SkippedEntityHandler = self.entity_skipped

    def start(self, name: str, attributes: dict[str, str]) -> None:
        stack = self.stack
        if len(stack) > MAX_DEPTH:
            self._reject(f"elements nested deeper than {MAX_DEPTH} levels")
        element = Element(name, attributes)
        stack[-1].children.append(element)
        stack.append(element)
        self.marks.append(len(self.runs))

    def end(self, _name: str) -> None:
        element = self.stack.pop()
        mark = self.marks.pop()
        runs = self.runs
        if len(runs) > mark:
            element.text = "".join(runs[mark:])
            del runs[mark:]

    def start_doctype(self, name, system_id, public_id, has_internal_subset) -> None:
        if system_id is not None or public_id is not None:
            self._reject("external DTD subsets are not supported")
        self.doctype_name = name
        if has_internal_subset:
            # Expat reports the declaration at its '[' token.
            self.subset_start = self.parser.CurrentByteIndex + 1

    def end_doctype(self) -> None:
        if self.subset_start >= 0:
            # Reported at the closing '>'; the subset ends at the last ']'.
            close = self.data.rindex(b"]", self.subset_start, self.parser.CurrentByteIndex)
            self.internal_subset = self.data[self.subset_start : close].decode("utf-8")

    def entity_declared(self, name, is_parameter_entity, *_details) -> None:
        kind = "parameter entity" if is_parameter_entity else "entity"
        self._reject(f"{kind} declarations are not supported (<!ENTITY {name}>)")

    def entity_skipped(self, name, is_parameter_entity) -> None:
        reference = f"%{name};" if is_parameter_entity else f"&{name};"
        self._reject(f"undefined entity {reference}")

    def _reject(self, message: str):
        parser = self.parser
        raise XMLSyntaxError(
            message, line=parser.CurrentLineNumber, column=parser.CurrentColumnNumber + 1
        )
