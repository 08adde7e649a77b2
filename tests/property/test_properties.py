"""Property-based tests (hypothesis) for the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

import repro
from repro.automata.glushkov import GlushkovAutomaton
from repro.core.determinism import check_deterministic
from repro.core.follow import FollowIndex
from repro.regex.ast import Concat, Optional, Plus, Regex, Repeat, Star, Sym, Union
from repro.regex.language import LanguageOracle
from repro.regex.parse_tree import build_parse_tree
from repro.regex.parser import parse
from repro.regex.printer import to_text
from repro.structures.lca import LCAIndex
from repro.structures.rmq import SparseTableRMQ
from repro.structures.veb import VanEmdeBoasTree

# ---------------------------------------------------------------------------
# Expression strategies
# ---------------------------------------------------------------------------

_SYMBOLS = st.sampled_from("abcd")


def _expressions(max_leaves: int = 8, allow_plus: bool = True, allow_repeat: bool = False):
    """A hypothesis strategy producing random ASTs over a 4-letter alphabet."""
    leaves = st.builds(Sym, _SYMBOLS)

    def extend(children):
        unary = [
            children.map(Star),
            children.map(Optional),
        ]
        if allow_plus:
            unary.append(children.map(Plus))
        if allow_repeat:
            unary.append(
                st.builds(
                    Repeat,
                    children,
                    st.integers(min_value=0, max_value=2),
                    st.integers(min_value=2, max_value=3),
                )
            )
        binary = [
            st.builds(Concat, children, children),
            st.builds(Union, children, children),
        ]
        return st.one_of(*unary, *binary)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _words(max_size: int = 8):
    return st.lists(_SYMBOLS, max_size=max_size)


# ---------------------------------------------------------------------------
# Parser / printer round trips
# ---------------------------------------------------------------------------

@given(_expressions(allow_plus=False))
@settings(max_examples=150, deadline=None)
def test_paper_printer_round_trip(expr: Regex):
    assert parse(to_text(expr, dialect="paper")) == expr


@given(_expressions(allow_plus=True, allow_repeat=True))
@settings(max_examples=150, deadline=None)
def test_named_printer_round_trip(expr: Regex):
    assert parse(to_text(expr, dialect="named"), dialect="named") == expr


# ---------------------------------------------------------------------------
# Parse-tree invariants (R1-R3) and pointer consistency
# ---------------------------------------------------------------------------

@given(_expressions(allow_repeat=True))
@settings(max_examples=150, deadline=None)
def test_parse_tree_invariants(expr: Regex):
    tree = build_parse_tree(expr)
    assert tree.positions[0] is tree.start and tree.positions[-1] is tree.end
    for node in tree.nodes:
        # R2/R3 on the built tree: no nested iterations, no nullable optionals.
        if node.is_iteration and node.left is not None:
            assert not node.left.is_iteration
        if node.kind.value == "optional":
            assert not node.left.nullable
        # pointer sanity
        if node.p_sup_first is not None:
            assert node.p_sup_first.is_ancestor_of(node)
            assert node.p_sup_first.sup_first
        if node.p_sup_last is not None:
            assert node.p_sup_last.is_ancestor_of(node)
            assert node.p_sup_last.sup_last
        if node.p_star is not None:
            assert node.p_star.is_ancestor_of(node)
            assert node.p_star.is_iteration
        if node.parent is not None:
            assert node in node.parent.children()


@given(_expressions())
@settings(max_examples=100, deadline=None)
def test_follow_index_matches_oracle(expr: Regex):
    tree = build_parse_tree(expr)
    index = FollowIndex(tree)
    oracle = LanguageOracle(tree)
    for p in tree.positions:
        expected = oracle.follow(p)
        for q in tree.positions:
            assert index.follows(p, q) == (q.position_index in expected)


# ---------------------------------------------------------------------------
# Determinism: linear test == Glushkov baseline; matchers == oracle
# ---------------------------------------------------------------------------

@given(_expressions())
@settings(max_examples=200, deadline=None)
def test_linear_determinism_matches_glushkov(expr: Regex):
    tree = build_parse_tree(expr)
    assert check_deterministic(tree).deterministic == GlushkovAutomaton(tree).is_deterministic()


@given(_expressions(max_leaves=6, allow_plus=False), st.data())
@settings(max_examples=120, deadline=None)
def test_matchers_agree_with_oracle(expr: Regex, data):
    tree = build_parse_tree(expr)
    oracle = LanguageOracle(tree)
    if not oracle.is_deterministic():
        return
    from repro.matching import build_matcher

    matcher = build_matcher(tree, verify=False)
    word = data.draw(_words())
    assert matcher.accepts(word) == oracle.accepts(word)


@given(_expressions(max_leaves=6, allow_plus=True, allow_repeat=True), st.data())
@settings(max_examples=120, deadline=None)
def test_pattern_match_agrees_with_nfa(expr: Regex, data):
    from repro.automata.nfa import ThompsonNFA

    pattern = repro.compile(expr)
    if not pattern.is_deterministic:
        return
    nfa = ThompsonNFA(expr)
    word = data.draw(_words())
    assert pattern.match(word) == nfa.accepts(word)


# ---------------------------------------------------------------------------
# Data structures against simple reference models
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=60), st.data())
@settings(max_examples=150, deadline=None)
def test_rmq_matches_min(values, data):
    rmq = SparseTableRMQ(values)
    lo = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    hi = data.draw(st.integers(min_value=lo + 1, max_value=len(values)))
    assert rmq.min(lo, hi) == min(values[lo:hi])


@given(
    st.lists(st.integers(min_value=0, max_value=127), max_size=60),
    st.integers(min_value=0, max_value=127),
)
@settings(max_examples=200, deadline=None)
def test_veb_predecessor_successor(values, probe):
    tree = VanEmdeBoasTree(128)
    for value in values:
        tree.insert(value)
    stored = set(values)
    assert tree.predecessor(probe) == max((v for v in stored if v <= probe), default=None)
    assert tree.successor(probe) == min((v for v in stored if v >= probe), default=None)
    assert sorted(tree) == sorted(stored)


@given(_expressions(), st.data())
@settings(max_examples=100, deadline=None)
def test_lca_index_matches_naive(expr: Regex, data):
    tree = build_parse_tree(expr)
    index = LCAIndex(tree.root, tree.nodes)
    a = data.draw(st.sampled_from(tree.nodes))
    b = data.draw(st.sampled_from(tree.nodes))
    assert index.lca(a, b) is tree.lca_naive(a, b)
