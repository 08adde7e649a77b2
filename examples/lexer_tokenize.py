"""Tokenizing log lines with the kernel-backed longest-match lexer.

``repro.lexer.Lexer`` joins named rules into one deterministic union
expression, compiles it to the flat kernel table its batches use, and
scans with maximal munch — the classical lexer discipline, running on the
paper's Glushkov machinery: every scanner state is a position of the
marked union expression, so an accepting state names its rule for free.

Run with:  python examples/lexer_tokenize.py
"""

from repro.errors import LexError
from repro.lexer import Lexer
from repro.regex.ast import plus, sym, union

# Character-class rules are unions of single-character symbols; each rule
# has a disjoint first-character set, which is exactly what makes the
# rule union deterministic.
DIGIT = union(*[sym(ch) for ch in "0123456789"])
LETTER = union(*[sym(ch) for ch in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"])
PUNCT = union(*[sym(ch) for ch in "-:=[]().,/"])

LOG_LINES = [
    "2026-08-08 12:34:51 INFO worker-7 started (pid=4182)",
    "2026-08-08 12:34:52 WARN retry 3 of 5 for job import.users",
    "2026-08-08 12:35:03 INFO batch done: 14813 rows in 350 ms",
]


def main() -> None:
    lexer = Lexer(
        [
            ("NUM", plus(DIGIT)),
            ("WORD", plus(LETTER)),
            ("PUNCT", PUNCT),
            ("SPACE", plus(sym(" "))),
        ],
        skip=("SPACE",),
    )
    stats = lexer.stats()
    print(
        f"compiled {stats['rules']} rules: {stats['states']} states over a "
        f"{stats['alphabet']}-symbol alphabet, {stats['table_entries']} table entries"
    )

    for line in LOG_LINES:
        tokens = lexer.tokenize(line)
        print(f"\n{line}")
        print("  " + " ".join(f"{token.tag}:{token.text}" for token in tokens))

    # Maximal munch: "350" is one NUM, never three; "worker" one WORD.
    sample = lexer.tokenize("350ms")
    assert [(t.tag, t.text) for t in sample] == [("NUM", "350"), ("WORD", "ms")]

    # A character no rule covers reports the exact stuck offset.
    try:
        lexer.tokenize("pid=4182µs")
    except LexError as error:
        print(f"\nstuck input: {error} (offset {error.position})")


if __name__ == "__main__":
    main()
