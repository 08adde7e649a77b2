"""The recursion-free compile front end: scan, normalising pass, tree pass.

Deep nesting and long expressions cost no interpreter stack, and the
copying rewrites (``E+ → E E*`` and counter expansion) are bounded by
:data:`repro.regex.normalize.MAX_COPIED_POSITIONS`.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.errors import InvalidExpressionError
from repro.regex.ast import Concat, Plus, Star, Sym, concat
from repro.regex.normalize import MAX_COPIED_POSITIONS, normalize
from repro.regex.parse_tree import build_parse_tree
from repro.regex.parser import parse

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def test_whitespace_class_is_str_isspace_on_every_code_point():
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", text) == [char for char in text if char.isspace()]


class TestFlagsAndMessages:
    def test_extended_operators_flag(self):
        assert build_parse_tree("a+ b", dialect="named").extended_operators
        assert build_parse_tree("a{2}").extended_operators
        # a '+' peeled away under a star still counts: the source used it
        assert build_parse_tree(Star(Plus(Sym("a")))).extended_operators
        assert not build_parse_tree("(ab+b(b?)a)*").extended_operators
        assert not build_parse_tree("()").extended_operators

    def test_sentinel_message_names_every_reserved_symbol(self):
        with pytest.raises(InvalidExpressionError) as excinfo:
            build_parse_tree(Concat(Sym("$"), Concat(Sym("a"), Sym("#"))))
        assert str(excinfo.value) == "symbols ['#', '$'] are reserved for the R1 sentinels"

    def test_unchanged_subtrees_are_reused(self):
        expr = parse("title (author | editor)* year?", dialect="named")
        assert normalize(expr) is expr


class TestCopyBound:
    """Each copying rewrite is refused just past the bound and accepted at it."""

    @staticmethod
    def _refused(expr) -> float:
        started = time.perf_counter()
        with pytest.raises(InvalidExpressionError, match="would copy more than"):
            build_parse_tree(expr)
        return time.perf_counter() - started

    @staticmethod
    def _names(count: int):
        return concat(*[Sym(f"n{index}") for index in range(count)])

    def test_one_or_more(self):
        half = MAX_COPIED_POSITIONS // 2
        assert build_parse_tree(Plus(self._names(half))).num_positions == 2 * half + 2
        assert self._refused(Plus(self._names(half + 1))) < 1.0

    def test_bounded_counter(self):
        limit = MAX_COPIED_POSITIONS
        assert build_parse_tree(f"a{{{limit}}}").num_positions == limit + 2
        assert build_parse_tree(f"a{{0,{limit}}}").num_positions == limit + 2
        assert self._refused(parse(f"a{{{limit + 1}}}")) < 1.0
        assert self._refused(parse(f"a{{0,{limit + 1}}}")) < 1.0

    def test_unbounded_counter(self):
        # a{i,} is a^(i-1) a a*: i + 1 copies of a
        limit = MAX_COPIED_POSITIONS
        assert build_parse_tree(f"a{{{limit - 1},}}").num_positions == limit + 2
        assert self._refused(parse(f"a{{{limit},}}")) < 1.0
        # a nullable body needs no extra copy: (a?){i,} is (a?)^(i-1) a*
        assert build_parse_tree(f"(a?){{{limit},}}").num_positions == limit + 2

    def test_nested_copies_count_once(self):
        root = int(MAX_COPIED_POSITIONS**0.5)
        assert build_parse_tree(f"(a{{{root}}}){{{root}}}").num_positions == root * root + 2
        assert self._refused(parse(f"(a{{{root}}}){{{root + 1}}}")) < 1.0

    def test_sibling_copies_add_up(self):
        half = MAX_COPIED_POSITIONS // 2
        assert build_parse_tree(f"a{{{half}}} b{{{half}}}").num_positions == 2 * half + 2
        assert self._refused(parse(f"a{{{half}}} b{{{half + 1}}}")) < 1.0

    @pytest.mark.parametrize(
        "text",
        [
            "(a b?){1,200000}",
            "a{30000000}",
            "a{9999999999999999999999}",
            "((((((((((((((((((a+ b0)+ b1)+ b2)+ b3)+ b4)+ b5)+ b6)+ b7)+ b8)+ b9)+"
            " b10)+ b11)+ b12)+ b13)+ b14)+ b15)+ b16)+ b17)+",
        ],
    )
    def test_short_texts_that_expand_past_the_bound(self, text):
        started = time.perf_counter()
        with pytest.raises(InvalidExpressionError, match="would copy more than"):
            repro.compile(text, dialect="named")
        assert time.perf_counter() - started < 1.0

    def test_no_copying_rewrite_is_never_refused(self):
        names = [f"n{index}" for index in range(2 * MAX_COPIED_POSITIONS)]
        tree = build_parse_tree("(" + " | ".join(names) + ")*", dialect="named")
        assert tree.num_positions == len(names) + 2


_DEEP_SCRIPT = textwrap.dedent(
    """
    import json, sys, threading
    sys.setrecursionlimit = lambda limit: None  # keep the interpreter's default
    import repro

    CASES = {
        "parentheses": ("(" * 100000 + "a" + ")" * 100000, "paper",
                        [("a", True), ("aa", False), ("", False)]),
        "union": (" | ".join(f"n{i}" for i in range(5000)), "named",
                  [(["n4999"], True), (["n0"], True), (["n0", "n1"], False)]),
        "nested": ("(a" * 20000 + ")?" * 20000, "paper",
                   [("a" * 20000, True), ("", True), ("a" * 20001, False)]),
        "counter": ("(a b?){1,5000}", "named",
                    [(["a", "b", "a"], True), (["b"], False), (["a"] * 5000, True),
                     (["a"] * 5001, False)]),
    }
    results = {}

    def work():
        for name, (text, dialect, cases) in CASES.items():
            try:
                pattern = repro.compile(text, dialect=dialect)
                words = [word for word, _ in cases]
                single = [bool(pattern.match(word)) for word in words]
                batches = [list(pattern.match_all(words)) for _ in range(2)]
                results[name] = [single, *batches]
            except Exception as error:
                results[name] = f"{type(error).__name__}: {error}"

    worker = threading.Thread(target=work)
    worker.start()
    worker.join()
    print(json.dumps({"limit": sys.getrecursionlimit(), "results": results}))
    """
)


def test_deep_and_long_expressions_compile_at_the_default_recursion_limit():
    """A fresh interpreter whose recursion limit cannot be raised compiles and
    matches each of these in a worker thread; the recursive front end raised
    ``RecursionError`` on every one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _DEEP_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["limit"] == 1000
    expected = {
        "parentheses": [True, False, False],
        "union": [True, True, False],
        "nested": [True, True, False],
        "counter": [True, False, True, False],
    }
    for name, verdicts in expected.items():
        assert report["results"][name] == [verdicts] * 3, (name, report["results"][name])
