"""The iterative front end against its recursive reference (tests/reference_frontend.py).

* The regex-scan parser and the recursive-descent parser return equal
  ASTs, or raise the same exception class with the same message and
  position, on text that mixes operators, names, digits, ``²``, the
  sentinels and Unicode whitespace, in both dialects.
* The one-pass normaliser and tree build agree with the recursive
  rewriting and the one-pass-per-annotation build on every ``TreeNode``
  field and pointer, the alphabet, ``source``, ``inner_root`` and
  ``extended_operators``, on random ASTs with ``Epsilon``, nested
  wrappers and ``Repeat``.
"""

from hypothesis import given, settings, strategies as st

from repro.regex.ast import Concat, Epsilon, Optional, Plus, Repeat, Star, Sym, Union
from repro.regex.normalize import normalize
from repro.regex.parse_tree import build_parse_tree
from repro.regex.parser import parse
from repro.regex.printer import to_text

from reference_frontend import reference_build_parse_tree, reference_normalize, reference_parse

_PIECES = (
    list("()*?+|{},.")
    + ["a", "b", "ab", "title", "x:y", "n-1", "_", ":", "-", "é"]
    + list("0123456789")
    + ["²", "#", "$"]
    + [" ", "\t", "\n", "\x1c", "\u00a0", "\u2003", "\u3000"]
)

_SYMBOLS = st.sampled_from(["a", "b", "c"])


def _expressions(max_leaves: int = 10):
    """Random ASTs with Epsilon leaves, every wrapper and Repeat nodes."""
    leaves = st.one_of(st.builds(Sym, _SYMBOLS), st.just(Epsilon()))

    def bounded(child, low, extra):
        return Repeat(child, low, None if extra is None else low + extra)

    def extend(children):
        return st.one_of(
            children.map(Star),
            children.map(Optional),
            children.map(Plus),
            st.builds(
                bounded,
                children,
                st.integers(min_value=0, max_value=3),
                st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
            ),
            st.builds(Concat, children, children),
            st.builds(Union, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _outcome(parser, text: str, dialect: str):
    try:
        return ("ast", parser(text, dialect))
    except Exception as error:  # noqa: BLE001 - the class is what is compared
        return (type(error), str(error.args[0]), getattr(error, "position", None))


def _spaced(text: str, data) -> str:
    """*text* with Unicode whitespace dropped between some of its characters."""
    out = []
    for char in text:
        out.append(char)
        if data.draw(st.booleans()):
            out.append(data.draw(st.sampled_from([" ", "\t", "\u00a0", "\u2003"])))
    return "".join(out)


#: Text that opens a numeric repetition and goes on with bounds, commas,
#: non-ASCII digits (``²`` is a digit ``int`` cannot read, ``٣`` one it can)
#: and stray characters.
_BOUNDS = st.builds(
    lambda head, body: head + "{" + "".join(body),
    st.sampled_from(["a", "(a b)", "x", "a*"]),
    st.lists(st.sampled_from(list("0123456789,}{x ") + ["²", "٣", "12", "}}"]), max_size=8),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join), _BOUNDS),
    st.sampled_from(["paper", "named"]),
)
def test_parser_matches_reference_on_token_soup(text, dialect):
    assert _outcome(parse, text, dialect) == _outcome(reference_parse, text, dialect)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_expressions(), st.sampled_from(["paper", "named"]), st.data())
def test_parser_matches_reference_on_printed_expressions(expr, dialect, data):
    text = to_text(expr, dialect=dialect)
    if data.draw(st.booleans()):
        text = _spaced(text, data)
    if data.draw(st.booleans()) and text:
        cut = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
        text = text[:cut] + data.draw(st.sampled_from(_PIECES)) + text[cut + 1 :]
    assert _outcome(parse, text, dialect) == _outcome(reference_parse, text, dialect)


_FIELDS = (
    "kind",
    "symbol",
    "index",
    "position_index",
    "depth",
    "pre",
    "post",
    "nullable",
    "sup_first",
    "sup_last",
)
_POINTERS = ("parent", "left", "right", "p_sup_first", "p_sup_last", "p_star")


def _index(node):
    return None if node is None else node.index


def assert_same_tree(tree, reference) -> None:
    """Node for node: every field, every pointer (by index) and the tree attributes."""
    assert len(tree.nodes) == len(reference.nodes)
    for node, expected in zip(tree.nodes, reference.nodes):
        for field in _FIELDS:
            assert getattr(node, field) == getattr(expected, field), (field, expected)
        for pointer in _POINTERS:
            got, want = getattr(node, pointer), getattr(expected, pointer)
            assert _index(got) == _index(want), (pointer, expected)
    assert [node.index for node in tree.positions] == [node.index for node in reference.positions]
    assert tree.root is tree.nodes[0]
    assert (tree.start, tree.end) == (tree.positions[0], tree.positions[-1])
    assert _index(tree.inner_root) == _index(reference.inner_root)
    assert tree.alphabet.as_list() == reference.alphabet.as_list()
    assert tree.alphabet.frozen
    assert tree.source == reference.source
    assert tree.extended_operators == reference.extended_operators


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_expressions())
def test_tree_build_matches_reference(expr):
    assert normalize(expr) == reference_normalize(expr)
    assert normalize(expr, expand_numeric=False) == reference_normalize(expr, expand_numeric=False)
    assert_same_tree(build_parse_tree(expr), reference_build_parse_tree(expr))
