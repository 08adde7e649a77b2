"""Property and fuzz tests for the XML front door (``repro.xml.parser``).

* **Round trip** — any :class:`~repro.xml.document.Element` tree with
  XML names (non-ASCII included), leaf text and attribute values drawn
  from the whole XML ``Char`` range, entity-like literals and markup
  characters included, survives ``parse_document(tree.to_xml())``.
  ``to_xml`` indents children and drops mixed-content text, so text sits
  on leaves only and a parent's reparsed text is its indentation.
* **Fuzzing** — arbitrary strings (lone surrogates, NUL, C0 controls,
  U+FFFE), bytes decoded with ``surrogateescape``, byte-level mutations of
  valid documents and deep nesting: :func:`parse_xml` returns a
  :class:`ParsedXML` or raises :class:`~repro.errors.XMLSyntaxError`
  with integer ``line``/``column`` >= 1, and nothing else.
* **No garbage cycles** — parsing frees its trees by reference counting
  alone, accepted or rejected, so a busy server never waits on the
  cyclic garbage collector.

Runs are derandomized with bounded example budgets, so tier-1 stays
fast and repeatable.
"""

from __future__ import annotations

import gc

from hypothesis import given, settings, strategies as st

from repro.errors import XMLSyntaxError
from repro.xml import Element, ParsedXML, parse_document, parse_xml

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

NAME_START = "abcxyzABCXYZ_:éßЖΩ中À"
NAME_CHARS = NAME_START + "0189-.·"

#: C0 controls other than tab, line feed and carriage return: not XML ``Char``.
CONTROLS = [chr(code) for code in range(0x20) if code not in (0x9, 0xA, 0xD)]
#: Every XML 1.0 ``Char``.
XML_CHAR = st.characters(
    exclude_categories=("Cs",), exclude_characters=CONTROLS + ["\ufffe", "\uffff"]
)
#: Literals a careless escaper or a double-decoding parser would mangle.
TRICKY = ["&", "<", ">", '"', "'", "&lt;", "&amp;", "&amp;lt;", "&#65;", "&foo;", "]]>", "\r\n"]

names = st.builds(
    lambda first, rest: first + rest,
    st.sampled_from(NAME_START),
    st.text(st.sampled_from(NAME_CHARS), max_size=5),
)
fragments = st.one_of(st.text(XML_CHAR, max_size=6), st.sampled_from(TRICKY))
values = st.lists(fragments, max_size=4).map("".join)
attributes = st.dictionaries(names, values, max_size=3)
leaves = st.builds(Element, names, attributes, st.builds(list), values)


def _parents(children):
    return st.builds(Element, names, attributes, st.lists(children, min_size=1, max_size=4))


trees = st.recursive(leaves, _parents, max_leaves=12)


def _shape(root: Element) -> list:
    """Names, attributes and leaf text in document order (parents' text must be blank)."""
    shape = []
    for element in root.iter_elements():
        if element.children:
            assert not element.text.strip(" \n"), element.text
            text = None
        else:
            text = element.text
        shape.append((element.name, list(element.attributes.items()), text, len(element.children)))
    return shape


@FUZZ
@given(trees)
def test_serialised_trees_parse_back_unchanged(tree):
    assert _shape(parse_document(tree.to_xml())) == _shape(tree)


def _assert_parses_or_raises_syntax_error(text: str) -> None:
    try:
        parsed = parse_xml(text)
    except XMLSyntaxError as error:
        assert type(error.line) is int and error.line >= 1, error.line
        assert type(error.column) is int and error.column >= 1, error.column
    else:
        assert isinstance(parsed, ParsedXML)


#: Valid documents that exercise every construct the builder handles.
SEED_DOCUMENTS = [
    "<a><b x='1'/><c>text &amp; more</c></a>",
    '<?xml version="1.0"?>\n<!-- c --><!DOCTYPE r [<!ELEMENT r (i*)>]>\n<r><i/><i>ü</i></r>',
    "<p>one<!-- split -->two<![CDATA[<raw>]]><?pi data?>three</p>",
    '<root a="&quot;" b=\'&apos;\'><x:y/>\n  <z>&#65;</z></root>',
]
MARKUP = "<a> </a> <b/> <!-- --> <![CDATA[ ]]> <? ?> & ; &amp; ]> %e; &e; = ' \"".split()
MARKUP += ["<!DOCTYPE a [", "<!ENTITY e 'x'>", "\ud800", "\x00", "\ufffe", "\r\n"]
any_fragments = st.one_of(st.characters(exclude_categories=()), st.sampled_from(MARKUP))
any_text = st.lists(any_fragments, max_size=40).map("".join)


@FUZZ
@given(any_text)
def test_arbitrary_text(text):
    _assert_parses_or_raises_syntax_error(text)


@FUZZ
@given(st.binary(max_size=200))
def test_bytes_decoded_with_surrogateescape(data):
    _assert_parses_or_raises_syntax_error(data.decode("utf-8", "surrogateescape"))


@FUZZ
@given(
    st.sampled_from(SEED_DOCUMENTS),
    st.lists(
        st.tuples(st.sampled_from("idr"), st.integers(0, 10_000), st.integers(0, 255)),
        min_size=1,
        max_size=4,
    ),
)
def test_byte_mutations_of_valid_documents(document, edits):
    data = bytearray(document.encode("utf-8"))
    for operation, offset, byte in edits:
        offset %= len(data) + 1
        if operation == "i":
            data.insert(offset, byte)
        elif data and offset < len(data):
            if operation == "d":
                del data[offset]
            else:
                data[offset] = byte
    _assert_parses_or_raises_syntax_error(bytes(data).decode("utf-8", "surrogateescape"))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 20_000), st.sampled_from(["", "</a>", "<b>", "&x;"]))
def test_deep_nesting(depth, tail):
    text = "<a>" * depth + "</a>" * depth
    _assert_parses_or_raises_syntax_error(text[: len(text) - len(tail)] + tail)


MALFORMED = [
    '<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>',  # rejected from a handler
    '<!DOCTYPE a SYSTEM "a.dtd"><a/>',  # rejected from a handler
    "<!DOCTYPE a [%pe;]><a>&foo;</a>",  # rejected from a handler
    "<a><b></a>",  # rejected by expat
    "<a>\ud800</a>",  # an invalid character
]


def test_parsing_leaves_no_garbage_cycles():
    valid = [SEED_DOCUMENTS[index % len(SEED_DOCUMENTS)] for index in range(50)]
    malformed = [MALFORMED[index % len(MALFORMED)] for index in range(50)]
    gc.collect()
    gc.disable()
    try:
        for text in valid:
            parse_xml(text)
        for text in malformed:
            try:
                parse_xml(text)
            except XMLSyntaxError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()
