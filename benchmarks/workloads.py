"""Shared workload construction for the benchmark harness.

Each experiment (E1–E9, one ``bench_*.py`` module each, whose docstring
says what it measures) uses deterministic-by-construction expression
families from :mod:`repro.regex.generators` plus pre-generated member
words, built once per parameter value and cached so that the timed
sections measure only the algorithm under test.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.regex.generators import (
    bounded_occurrence,
    chare,
    deep_alternation,
    dtd_corpus,
    mixed_content,
    numeric_particles,
    star_free_chain,
)
from repro.regex.parse_tree import ParseTree, build_parse_tree
from repro.regex.words import member_stream, sample_member

#: Seed shared by every workload so benchmark runs are reproducible.
SEED = 20120521  # PODS 2012, May 21


def rng() -> random.Random:
    return random.Random(SEED)


@lru_cache(maxsize=None)
def mixed_content_tree(symbol_count: int) -> ParseTree:
    """The (a1+...+am)* family of experiment E1."""
    return build_parse_tree(mixed_content(symbol_count))


@lru_cache(maxsize=None)
def chare_tree(factor_count: int) -> ParseTree:
    return build_parse_tree(chare(factor_count))


@lru_cache(maxsize=None)
def dtd_like_trees(count: int) -> tuple[ParseTree, ...]:
    return tuple(build_parse_tree(expr) for expr in dtd_corpus(rng(), count))


@lru_cache(maxsize=None)
def kore_workload(k: int, word_length: int) -> tuple[ParseTree, tuple[str, ...]]:
    """A deterministic k-occurrence expression plus a long member word (E3)."""
    expr = bounded_occurrence(k, blocks=4)
    tree = build_parse_tree(expr)
    word = tuple(member_stream(expr, word_length, rng()))
    return tree, word


@lru_cache(maxsize=None)
def alternation_workload(depth: int, word_length: int) -> tuple[ParseTree, tuple[str, ...]]:
    """Bounded +/· alternation depth expressions plus member words (E4)."""
    expr = deep_alternation(depth)
    tree = build_parse_tree(expr)
    generator = rng()
    words: list[str] = []
    while len(words) < word_length:
        words.extend(sample_member(expr, generator))
    # deep_alternation languages are finite; concatenating samples is not a
    # member word, so E4 matches many short member words instead.
    return tree, tuple(words[:word_length])


@lru_cache(maxsize=None)
def alternation_words(depth: int, count: int) -> tuple[ParseTree, tuple[tuple[str, ...], ...]]:
    expr = deep_alternation(depth)
    tree = build_parse_tree(expr)
    generator = rng()
    return tree, tuple(tuple(sample_member(expr, generator)) for _ in range(count))


@lru_cache(maxsize=None)
def large_deterministic_tree(block_count: int) -> tuple[ParseTree, tuple[str, ...]]:
    """A large deterministic expression with many distinct symbols (E5)."""
    expr = bounded_occurrence(2, blocks=block_count)
    tree = build_parse_tree(expr)
    word = tuple(member_stream(expr, 2000, rng()))
    return tree, word


@lru_cache(maxsize=None)
def star_free_workload(factor_count: int, word_count: int):
    """Star-free expression plus a batch of member words (E6)."""
    expr = star_free_chain(factor_count)
    tree = build_parse_tree(expr)
    generator = rng()
    words = tuple(tuple(sample_member(expr, generator)) for _ in range(word_count))
    return expr, tree, words


@lru_cache(maxsize=None)
def numeric_workload(block_count: int):
    """XSD-like particles with counters (E7)."""
    return numeric_particles(block_count, low=2, high=4)


@lru_cache(maxsize=None)
def runtime_corpus(word_count: int = 200, word_length: int = 60):
    """Corpora for the compiled-runtime benchmark: (name, tree, words) triples.

    One family per structural class the dispatch rule distinguishes, each
    with a batch of member words plus mutated non-members, so compiled and
    direct paths are compared on both accepting and rejecting traffic.
    """
    from repro.regex.words import mutate_word, sample_member

    corpora = []
    for name, expr in (
        ("mixed-content", mixed_content(12)),
        ("chare", chare(6)),
        ("kore", bounded_occurrence(2, blocks=4)),
        ("deep-alternation", deep_alternation(5)),
    ):
        tree = build_parse_tree(expr)
        generator = rng()
        alphabet = tree.alphabet.as_list()
        words: list[tuple[str, ...]] = []
        while len(words) < word_count:
            member = sample_member(expr, generator)
            while len(member) < word_length and name in ("mixed-content", "kore"):
                member = member + sample_member(expr, generator)
            words.append(tuple(member))
            if len(words) < word_count:
                words.append(tuple(mutate_word(member, alphabet, generator)))
        corpora.append((name, tree, tuple(words[:word_count])))
    return tuple(corpora)


@lru_cache(maxsize=None)
def repeated_match_corpus(pool_size: int = 80, word_length: int = 100, stream_length: int = 3200):
    """Repeated-match streams for the batch kernel: (name, tree, stream) triples.

    Models the Li et al. observation the kernel exploits: real validation
    traffic re-matches the same few child sequences over and over.  Each
    family's stream of *stream_length* words draws (with replacement) from
    a pool of only *pool_size* distinct words, so a corpus-level dedup
    answers most of the stream from ``pool_size`` scans while a per-word
    driver pays for every draw.
    """
    streams = []
    for name, tree, pool in runtime_corpus(pool_size, word_length):
        generator = rng()
        stream = tuple(generator.choice(pool) for _ in range(stream_length))
        streams.append((name, tree, stream))
    return tuple(streams)


@lru_cache(maxsize=None)
def xsd_workload(order_count: int):
    """An XSD-style schema plus generated documents (the Li et al. workload).

    The schema exercises the counter features DTDs lack (``minOccurs`` /
    ``maxOccurs`` bounds, optional compositors); the returned documents are
    a mix of valid orders and orders mutated to violate a bound, so the
    compiled and direct validation paths are compared on both verdicts.
    """
    from repro.xml import element
    from repro.xml.xsd import XSDSchema, choice, element_particle, sequence

    def declare(schema: XSDSchema) -> XSDSchema:
        schema.declare(
            "orders",
            sequence(element_particle("vendor", 0, 1), element_particle("order", 1, None)),
        )
        schema.declare(
            "order",
            sequence(
                element_particle("sku"),
                element_particle("qty", 1, 3),
                choice(
                    element_particle("description"),
                    element_particle("summary"),
                    min_occurs=0,
                    max_occurs=1,
                ),
                element_particle("tag", 0, None),
            ),
        )
        return schema

    generator = rng()
    orders = []
    for index in range(order_count):
        children = [element("sku", text="s")]
        children.extend(element("qty") for _ in range(generator.randint(1, 3)))
        if generator.random() < 0.5:
            children.append(element(generator.choice(["description", "summary"])))
        children.extend(element("tag") for _ in range(generator.randint(8, 24)))
        if index % 5 == 4:  # every fifth order violates a bound or the order
            if generator.random() < 0.5:
                children.insert(1, element("qty"))
                children.insert(1, element("qty"))
                children.insert(1, element("qty"))  # qty maxOccurs=3 exceeded
            else:
                children.append(element("sku"))  # trailing sku after tags
        orders.append(element("order", *children))
    document = element("orders", element("vendor"), *orders)
    return declare, document


@lru_cache(maxsize=None)
def validation_workload(product_count: int):
    """A catalog DTD plus a generated document with *product_count* products (E8)."""
    from repro.xml import element, parse_dtd

    dtd = parse_dtd(
        """
        <!ELEMENT catalog (product+)>
        <!ELEMENT product (name, price, (description | summary)?, tag*)>
        <!ELEMENT name (#PCDATA)> <!ELEMENT price (#PCDATA)>
        <!ELEMENT description (#PCDATA)> <!ELEMENT summary (#PCDATA)> <!ELEMENT tag (#PCDATA)>
        """
    )
    generator = rng()
    products = []
    for _ in range(product_count):
        children = [element("name", text="n"), element("price", text="9")]
        if generator.random() < 0.5:
            children.append(element(generator.choice(["description", "summary"])))
        children.extend(element("tag") for _ in range(generator.randint(0, 3)))
        products.append(element("product", *children))
    return dtd, element("catalog", *products)
