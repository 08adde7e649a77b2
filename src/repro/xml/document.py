"""A minimal XML document model.

The paper's motivating application is validating XML documents against
DTDs / XML Schemas, where every element's sequence of children must match
the deterministic content model declared for the element's name.  The
library ships its own tiny element tree (rather than relying on
``xml.etree``) so the whole pipeline — parsing, validation, benchmarks —
is self-contained and easily instrumented.

Only the features the validator needs are modelled: element names,
attributes, character data and child elements.  Namespaces, entities and
processing instructions are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(slots=True)
class Element:
    """One XML element: a name, attributes, text chunks and child elements."""

    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list["Element"] = field(default_factory=list)
    text: str = ""

    # -- construction helpers -------------------------------------------------------
    def append(self, child: "Element") -> "Element":
        """Append *child* and return it (enables fluent building in examples)."""
        self.children.append(child)
        return child

    def extend(self, children: list["Element"]) -> "Element":
        """Append several children and return *self*."""
        self.children.extend(children)
        return self

    # -- queries ----------------------------------------------------------------------
    def child_sequence(self) -> list[str]:
        """The names of the direct children, in document order.

        This is exactly the word that must match the element's content
        model — the paper's ``w``.
        """
        return [child.name for child in self.children]

    def iter_elements(self) -> Iterator["Element"]:
        """Iterate over this element and all descendants in document order."""
        stack = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(reversed(element.children))

    def find(self, name: str) -> "Element | None":
        """First descendant (or self) with the given name, in document order."""
        for element in self.iter_elements():
            if element.name == name:
                return element
        return None

    def find_all(self, name: str) -> list["Element"]:
        """All descendants (and self) with the given name, in document order."""
        return [element for element in self.iter_elements() if element.name == name]

    def size(self) -> int:
        """Number of elements in the subtree."""
        return sum(1 for _ in self.iter_elements())

    def has_text(self) -> bool:
        """True when the element contains non-whitespace character data."""
        return bool(self.text) and not self.text.isspace()

    # -- serialisation -------------------------------------------------------------------
    def to_xml(self, indent: int = 0) -> str:
        """Serialise the subtree as indented XML text."""
        pad = "  " * indent
        attributes = "".join(
            f' {key}="{_escape(value, attribute=True)}"' for key, value in self.attributes.items()
        )
        if not self.children and not self.text:
            return f"{pad}<{self.name}{attributes}/>"
        if not self.children:
            return f"{pad}<{self.name}{attributes}>{_escape(self.text)}</{self.name}>"
        inner = "\n".join(child.to_xml(indent + 1) for child in self.children)
        return f"{pad}<{self.name}{attributes}>\n{inner}\n{pad}</{self.name}>"


@dataclass(slots=True)
class Document:
    """An XML document: a root element (a prolog is accepted but ignored)."""

    root: Element

    def iter_elements(self) -> Iterator[Element]:
        """Iterate over every element of the document in document order."""
        return self.root.iter_elements()

    def element_count(self) -> int:
        """Total number of elements."""
        return self.root.size()

    def to_xml(self) -> str:
        """Serialise the document (with an XML declaration)."""
        return '<?xml version="1.0"?>\n' + self.root.to_xml()


def element(name: str, *children: Element, text: str = "", **attributes: str) -> Element:
    """Convenience constructor used by examples and tests."""
    node = Element(name, dict(attributes), list(children), text)
    return node


def _escape(value: str, attribute: bool = False) -> str:
    # Characters a conforming parser would normalise (a carriage return
    # anywhere; a tab or line feed in an attribute value) are written as
    # character references, which come back unchanged.
    value = (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\r", "&#13;")
    )
    if attribute:
        value = value.replace("\t", "&#9;").replace("\n", "&#10;")
    return value
