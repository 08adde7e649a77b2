"""Seeded inputs for the four workloads, with their expected outcomes.

Everything here runs before or between timed operations, never inside
one.  Expression families come from :mod:`repro.regex.generators` (the
same families ``benchmarks/workloads.py`` uses) and are converted at once
into the tuple form of :mod:`perfbench.model`; from there on the program
only ever sees text: named-dialect expressions, symbol-list words and XML
documents.  Expected verdicts come from :class:`perfbench.model.Reference`
or, for determinism, from how a model was built.

Shapes are stratified rather than drawn freely, so that two seeds give
workloads of the same cost: every block of the schema-compile stream has
the same mix, the large-alphabet tail walks a fixed size grid, and every
fifth document carries exactly one violation.  The seed decides names,
decorations, word choice and order.
"""

from __future__ import annotations

import functools
import json
import math
import random

from repro.regex import generators

from .model import Reference, from_ast, mutate, sample, size, symbols, to_dtd, to_text


class Strata:
    """Draws from a distribution in shuffled blocks of evenly spaced quantiles.

    Each block of ``block`` draws takes one value from each of ``block``
    equal-probability slices of the distribution (*quantile* maps a
    uniform ``u`` in [0, 1) to a value), so the mix of sizes in a run of
    any length hardly depends on the seed.
    """

    def __init__(self, rng: random.Random, quantile, block: int = 20):
        self.rng = rng
        self.quantile = quantile
        self.block = block
        self.pending: list = []

    def draw(self):
        if not self.pending:
            block = self.block
            self.pending = [self.quantile((j + self.rng.random()) / block) for j in range(block)]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


# -- schema-compile ----------------------------------------------------------------------

#: Models per block of the compile stream, and how a block divides up.
BLOCK = 100
LARGE_PER_BLOCK = 5
XSD_PER_BLOCK = 10
NONDET_PER_BLOCK = 2
#: Alphabet sizes of the large tail; consecutive large models walk the grid.
LARGE_SIZES = tuple(range(200, 2001, 100))
#: Words in each model's first batch (at least ``repro.matching.kernel.MIN_BATCH``).
FIRST_BATCH = 16


class CompileCase:
    """One content model of the compile stream and its expected outcome."""

    __slots__ = ("text", "family", "size", "deterministic", "words", "expected")

    def __init__(self, model, family: str, deterministic: bool, rng: random.Random):
        self.text = to_text(model)
        self.family = family
        self.size = size(model)
        self.deterministic = deterministic
        self.words = _first_batch(model, family, rng)
        self.expected: list[bool] = []
        if deterministic:
            reference = Reference(model)
            self.expected = [reference.accepts(word) for word in self.words]


def _first_batch(model, family: str, rng: random.Random) -> list[list[str]]:
    alphabet = symbols(model)
    words = []
    for index in range(FIRST_BATCH):
        if family == "large-mixed":
            word = [rng.choice(alphabet) for _ in range(rng.randint(1, 60))]
        else:
            word = sample(model, rng)
        if index % 2:
            word = mutate(word, alphabet + ["undeclared"], rng)
        words.append(word)
    return words


def _renamed(model, prefix: str):
    names = {name: f"{prefix}{index}" for index, name in enumerate(symbols(model))}

    def walk(node):
        kind = node[0]
        if kind == "sym":
            return ("sym", names[node[1]])
        if kind in ("seq", "alt"):
            return (kind, tuple(walk(part) for part in node[1]))
        return (kind, walk(node[1])) + tuple(node[2:])

    return walk(model)


def _dtd_model(rng: random.Random, prefix: str, count: int):
    names = [f"{prefix}{index}" for index in range(count)]
    return from_ast(generators.dtd_like(rng, names))


def _xsd_model(rng: random.Random, prefix: str, blocks: int):
    """Counter particles ``(a b){i,j}`` with some blocks turned into ``(a b)+``."""
    low = rng.randint(0, 2)
    high = low + rng.randint(1, 3)
    particle = from_ast(generators.numeric_particles(blocks, low, high))
    parts = [
        ("plus", block[1]) if rng.random() < 0.3 else block
        for block in (particle[1] if particle[0] == "seq" else (particle,))
    ]
    return _renamed(("seq", tuple(parts)), prefix)


def _nondeterministic_model(rng: random.Random, prefix: str):
    x, y, z = (("sym", f"{prefix}{index}") for index in range(3))
    core = rng.choice(
        (
            ("alt", (("seq", (x, y)), ("seq", (x, z)))),  # x y | x z
            ("seq", (("opt", x), x)),  # x? x
            ("seq", (("star", ("alt", (x, y))), x)),  # (x | y)* x
            ("seq", (("star", ("seq", (x, ("opt", y)))), y)),  # (x y?)* y
        )
    )
    lead = tuple(("sym", f"{prefix}p{index}") for index in range(rng.randint(0, 3)))
    return ("seq", lead + (core,)) if lead else core


def _large_model(index: int, prefix: str):
    count = LARGE_SIZES[index % len(LARGE_SIZES)]
    names = tuple(("sym", f"{prefix}{position}") for position in range(count))
    if (index // len(LARGE_SIZES)) % 2 == index % 2:
        return ("seq", names), "large-seq"
    return ("star", ("alt", names)), "large-mixed"


def compile_block(seed: int, block: int) -> list[CompileCase]:
    """Block *block* of the compile stream: ``BLOCK`` distinct models, shuffled."""
    rng = random.Random(f"schema-compile:{seed}:{block}")
    kinds = (
        ["large"] * LARGE_PER_BLOCK
        + ["xsd"] * XSD_PER_BLOCK
        + ["nondet"] * NONDET_PER_BLOCK
        + ["dtd"] * (BLOCK - LARGE_PER_BLOCK - XSD_PER_BLOCK - NONDET_PER_BLOCK)
    )
    rng.shuffle(kinds)
    # element counts: 3-12 names per DTD-like model, 2-6 counter blocks per particle
    names = Strata(rng, lambda u: 3 + int(u * 10), block=10)
    blocks = Strata(rng, lambda u: 2 + int(u * 5), block=5)
    cases = []
    large = block * LARGE_PER_BLOCK
    for slot, kind in enumerate(kinds):
        prefix = f"b{block}m{slot}n"
        if kind == "large":
            model, family = _large_model(large, prefix)
            large += 1
            cases.append(CompileCase(model, family, True, rng))
        elif kind == "xsd":
            model = _xsd_model(rng, prefix, blocks.draw())
            cases.append(CompileCase(model, "xsd", True, rng))
        elif kind == "nondet":
            cases.append(CompileCase(_nondeterministic_model(rng, prefix), "nondet", False, rng))
        else:
            cases.append(CompileCase(_dtd_model(rng, prefix, names.draw()), "dtd", True, rng))
    return cases


def compile_warmup(seed: int) -> list[CompileCase]:
    """A few small models, distinct from the stream, to warm code paths."""
    rng = random.Random(f"schema-compile-warmup:{seed}")
    cases = [
        CompileCase(_dtd_model(rng, f"w{index}n", 3 + index % 10), "dtd", True, rng)
        for index in range(12)
    ]
    cases += [
        CompileCase(_xsd_model(rng, f"wx{index}n", 2 + index), "xsd", True, rng)
        for index in range(4)
    ]
    cases.append(CompileCase(_nondeterministic_model(rng, "wnd"), "nondet", False, rng))
    return cases


# -- match-stream ------------------------------------------------------------------------

#: Distinct words per family pool, and the share of batch words drawn from it.
POOL_SIZE = 80
POOL_SHARE = 0.9
#: Batch sizes are log-uniform between these bounds.
BATCH_MIN, BATCH_MAX = 4, 1000
#: The HTTP batches are capped lower than match-stream's to bound body size.
HTTP_BATCH_MAX = 256


def _families():
    """The four ``repeated_match_corpus`` families plus a long-word star-free chain."""
    return (
        ("mixed-content", generators.mixed_content(12), 100),
        ("chare", generators.chare(6), 0),
        ("kore", generators.bounded_occurrence(2, blocks=4), 100),
        ("deep-alternation", generators.deep_alternation(5), 0),
        ("star-free-chain", generators.star_free_chain(60), 0),
    )


def _log_uniform(low: int, high: int):
    return lambda u: int(round(math.exp(math.log(low) + u * (math.log(high) - math.log(low)))))


class Family:
    """One fixed pattern of the match stream, its word pool and its reference."""

    def __init__(self, name: str, model, min_length: int, rng: random.Random):
        self.name = name
        #: batch sizes, log-uniform and stratified per family
        self.sizes = Strata(rng, _log_uniform(BATCH_MIN, BATCH_MAX))
        self.http_sizes = Strata(rng, _log_uniform(BATCH_MIN, HTTP_BATCH_MAX))
        self.model = model
        self.text = to_text(model)
        self.min_length = min_length
        self.alphabet = symbols(model)
        self.reference = Reference(model)
        #: hashes of the words drawn so far: a long run draws about a hundred
        #: thousand fresh words, and keeping the words themselves would add
        #: tens of MB to the measured process's peak RSS (with PYTHONHASHSEED
        #: pinned the hashes repeat; a collision only costs one more draw)
        self.seen: set[int] = set()
        self.pool: list[list[str]] = []
        while len(self.pool) < POOL_SIZE:
            self.pool.append(self.fresh(rng, len(self.pool) % 2 == 1))
        self.pool_expected = [self.reference.accepts(word) for word in self.pool]
        self.pool_json = [json.dumps(word).encode() for word in self.pool]

    def fresh(self, rng: random.Random, mutated: bool) -> list[str]:
        """A word this family has never produced before.

        Small finite languages (deep alternation has eleven members) run
        out of unseen members, so every three failed draws add one more edit.
        """
        for attempt in range(10_000):
            word = sample(self.model, rng)
            while len(word) < self.min_length:
                word += sample(self.model, rng)
            for _ in range(int(mutated) + attempt // 3):
                word = mutate(word, self.alphabet, rng)
            key = hash(tuple(word))
            if key not in self.seen:
                self.seen.add(key)
                return word
        raise RuntimeError(f"no unseen word left for {self.name}")


def match_families(seed: int) -> list[Family]:
    rng = random.Random(f"match-stream:{seed}")
    return [Family(name, from_ast(expr), length, rng) for name, expr, length in _families()]


def _draws(family: Family, rng: random.Random, sizes: Strata):
    """One batch as ``(word, expected, pool slot or None)``: mostly pool words,
    a seeded minority never seen before."""
    draws = []
    for _ in range(sizes.draw()):
        if rng.random() < POOL_SHARE:
            slot = rng.randrange(POOL_SIZE)
            draws.append((family.pool[slot], family.pool_expected[slot], slot))
        else:
            word = family.fresh(rng, rng.random() < 0.5)
            draws.append((word, family.reference.accepts(word), None))
    return draws


def match_batch(family: Family, rng: random.Random):
    """One ``match_all`` batch: its words and their expected verdicts."""
    draws = _draws(family, rng, family.sizes)
    return [word for word, _e, _s in draws], [expected for _w, expected, _s in draws]


# -- validate-docs -----------------------------------------------------------------------


def _s(name):
    return ("sym", name)


def _seq(*parts):
    return ("seq", parts)


def _alt(*parts):
    return ("alt", parts)


def _rep(part, low, high):
    return ("rep", part, low, high)


#: Catalog DTD: element → content model; ``None`` marks ``(#PCDATA)``.
CATALOG = {
    "catalog": _seq(
        ("opt", _s("header")), ("plus", _alt(_s("product"), _s("bundle"))), ("opt", _s("footer"))
    ),
    "product": _seq(
        _s("name"),
        _s("price"),
        ("opt", _alt(_s("description"), _s("summary"))),
        ("star", _s("tag")),
    ),
    "bundle": _seq(_s("name"), ("plus", _s("item")), ("opt", _s("price"))),
    **dict.fromkeys(
        ("header", "footer", "name", "price", "description", "summary", "tag", "item")
    ),
}

#: Orders XSD: element → particle; leaves stay undeclared (unconstrained).
ORDERS = {
    "orders": _seq(_rep(_s("vendor"), 0, 1), _rep(_alt(_s("order"), _s("refund")), 1, None)),
    "order": _seq(
        _s("sku"),
        _rep(_s("qty"), 1, 3),
        _rep(_alt(_s("description"), _s("summary")), 0, 1),
        _rep(_s("tag"), 0, None),
    ),
    "refund": _seq(_s("sku"), _rep(_s("reason"), 0, 2)),
}


def catalog_dtd() -> str:
    lines = []
    for name, model in CATALOG.items():
        body = "(#PCDATA)" if model is None else to_dtd(model)
        lines.append(f"<!ELEMENT {name} {body}>")
    return "\n".join(lines)


def _particle(model) -> dict:
    kind = model[0]
    if kind == "sym":
        return {"kind": "element", "name": model[1], "min": 1, "max": 1}
    if kind == "rep":
        inner = _particle(model[1])
        return dict(inner, min=model[2], max=model[3])
    return {
        "kind": "sequence" if kind == "seq" else "choice",
        "min": 1,
        "max": 1,
        "children": [_particle(part) for part in model[1]],
    }


def orders_xsd() -> dict:
    """The orders schema in its JSON wire shape (``repro.xml.schema_from_dict``)."""
    return {"root": "orders", "elements": {name: _particle(m) for name, m in ORDERS.items()}}


class DocCase:
    """One XML document as text, with its expected verdict and violation path."""

    __slots__ = ("schema", "text", "valid", "paths")

    def __init__(self, schema: str, text: str, valid: bool, paths: list[str]):
        self.schema = schema
        self.text = text
        self.valid = valid
        self.paths = paths


#: Element children of a document root besides header/footer/vendor (stratified).
ROOT_MIN, ROOT_MAX = 32, 80


def _leaf(name: str, rng: random.Random):
    return (name, f"{name[0]}{rng.randrange(1000)}", [])


def _product(rng):
    children = [_leaf("name", rng), _leaf("price", rng)]
    if rng.random() < 0.5:
        children.append(_leaf(rng.choice(("description", "summary")), rng))
    children += [_leaf("tag", rng) for _ in range(rng.randint(0, 3))]
    return ("product", None, children)


def _bundle(rng):
    children = [_leaf("name", rng)] + [_leaf("item", rng) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        children.append(_leaf("price", rng))
    return ("bundle", None, children)


def _order(rng):
    children = [_leaf("sku", rng)] + [_leaf("qty", rng) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        children.append(_leaf(rng.choice(("description", "summary")), rng))
    children += [_leaf("tag", rng) for _ in range(rng.randint(0, 4))]
    return ("order", None, children)


def _refund(rng):
    children = [_leaf("sku", rng)] + [_leaf("reason", rng) for _ in range(rng.randint(0, 2))]
    return ("refund", None, children)


def _break(element, rng):
    """Inject one violation into *element*'s child sequence (in place)."""
    name, _text, children = element
    if name in ("product", "bundle"):
        edit = rng.randrange(3)
        if edit == 0:
            del children[0]  # missing name
        elif edit == 1:
            children.insert(1, _leaf("color", rng))  # undeclared child
        else:
            children.append(_leaf("name", rng))  # name after the tail
    elif name == "order":
        if rng.random() < 0.5:
            children[1:1] = [_leaf("qty", rng) for _ in range(4)]  # qty maxOccurs exceeded
        else:
            children.append(_leaf("sku", rng))  # trailing sku
    else:
        children[1:1] = [_leaf("reason", rng) for _ in range(3)]  # reason maxOccurs exceeded


def _document(schema: str, rng: random.Random, broken: bool, count: int):
    if schema == "dtd":
        root_name, makers = "catalog", (_product, _product, _bundle)
        head = [_leaf("header", rng)] if rng.random() < 0.5 else []
    else:
        root_name, makers = "orders", (_order, _order, _refund)
        head = [_leaf("vendor", rng)] if rng.random() < 0.5 else []
    body = [rng.choice(makers)(rng) for _ in range(count)]
    if schema == "dtd" and rng.random() < 0.5:
        body.append(_leaf("footer", rng))
    root = (root_name, None, head + body)
    if broken:
        slot = rng.randrange(len(head), len(head) + len(body))
        if root[2][slot][0] == "footer":
            slot -= 1
        _break(root[2][slot], rng)
    return root


def _to_xml(element) -> str:
    parts: list[str] = []
    stack = [element]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        name, text, children = item
        if text is not None:
            parts.append(f"<{name}>{text}</{name}>")
            continue
        parts.append(f"<{name}>")
        stack.append(f"</{name}>")
        stack.extend(reversed(children))
    return "".join(parts)


@functools.cache
def _references(schema: str) -> dict[str, Reference]:
    models = CATALOG if schema == "dtd" else ORDERS
    return {name: Reference(model) for name, model in models.items() if model is not None}


def expected_violations(schema: str, root) -> list[str]:
    """Paths of the elements whose children break their model, per the reference."""
    references = _references(schema)
    leaves = CATALOG if schema == "dtd" else {}
    paths = []
    stack = [(root, f"/{root[0]}")]
    while stack:
        (name, _text, children), path = stack.pop()
        names = [child[0] for child in children]
        reference = references.get(name)
        if reference is not None and not reference.accepts(names):
            paths.append(path)
        elif name in leaves and leaves[name] is None and children:
            paths.append(path)
        for slot in range(len(children) - 1, -1, -1):
            stack.append((children[slot], f"{path}/{children[slot][0]}[{slot + 1}]"))
    return paths


def doc_cases(seed: int, block: int, schemas=("dtd", "xsd")) -> list[DocCase]:
    """Ten documents alternating over *schemas*; one in five carries one violation."""
    rng = random.Random(f"validate-docs:{seed}:{block}")
    broken = {rng.randrange(5), 5 + rng.randrange(5)}
    counts = Strata(rng, lambda u: ROOT_MIN + int(u * (ROOT_MAX + 1 - ROOT_MIN)), block=10)
    cases = []
    for index in range(10):
        schema = schemas[index % len(schemas)]
        root = _document(schema, rng, index in broken, counts.draw())
        paths = expected_violations(schema, root)
        if len(paths) != (index in broken):
            raise AssertionError(f"generator bug: {paths} with broken={index in broken}")
        cases.append(DocCase(schema, _to_xml(root), not paths, paths))
    return cases


# -- serve-aio ---------------------------------------------------------------------------


class Request:
    """One pre-encoded HTTP request body and the response it must get."""

    __slots__ = ("path", "body", "expected")

    def __init__(self, path: str, body: bytes, expected):
        self.path = path
        self.body = body
        self.expected = expected


def match_request(family: Family, rng: random.Random) -> Request:
    """A ``POST /match`` body; pool words are spliced in pre-encoded."""
    draws = _draws(family, rng, family.http_sizes)
    fragments = [
        json.dumps(word).encode() if slot is None else family.pool_json[slot]
        for word, _expected, slot in draws
    ]
    head = json.dumps({"pattern": family.text, "dialect": "named"})[:-1].encode()
    body = head + b', "words": [' + b", ".join(fragments) + b"]}"
    return Request("/match", body, [expected for _w, expected, _s in draws])


def validate_request(dtd_text: str, cases: list[DocCase]) -> Request:
    body = json.dumps({"dtd": dtd_text, "documents": [case.text for case in cases]})
    return Request("/validate", body.encode(), [(case.valid, case.paths) for case in cases])
