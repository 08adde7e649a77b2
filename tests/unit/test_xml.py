"""Unit tests for the XML layer: documents, parser, DTDs, XSD particles, validation."""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import DTDSyntaxError, NotDeterministicError, XMLSyntaxError
from repro.regex.ast import Concat, Optional, Plus, Star, Sym, Union
from repro.xml import (
    DTD,
    DTDValidator,
    Element,
    XSDSchema,
    choice,
    content_model_expression,
    dtd_to_text,
    element,
    element_particle,
    parse_content_model,
    parse_document,
    parse_dtd,
    parse_xml,
    sequence,
)
from repro.xml.parser import MAX_DEPTH
from repro.xml.validator import MAX_VIOLATIONS


class TestDocumentModel:
    def test_child_sequence(self):
        book = element("book", element("title"), element("author"), element("author"))
        assert book.child_sequence() == ["title", "author", "author"]

    def test_iter_and_find(self):
        doc = element("a", element("b", element("c")), element("d"))
        assert [node.name for node in doc.iter_elements()] == ["a", "b", "c", "d"]
        assert doc.find("c").name == "c"
        assert doc.find("missing") is None
        assert len(doc.find_all("b")) == 1

    def test_size_and_text(self):
        node = element("p", text="hello")
        assert node.size() == 1
        assert node.has_text()

    def test_serialisation_round_trip(self):
        root = element("book", element("title", text="T & Co"), element("note"), lang="en")
        text = root.to_xml()
        parsed = parse_document('<?xml version="1.0"?>\n' + text)
        assert parsed.root.name == "book"
        assert parsed.root.attributes == {"lang": "en"}
        assert parsed.root.children[0].text == "T & Co"


class TestXMLParser:
    def test_simple_document(self):
        doc = parse_document("<a><b x='1'/><c>text</c></a>")
        assert doc.root.name == "a"
        assert doc.root.children[0].attributes == {"x": "1"}
        assert doc.root.children[1].text == "text"

    def test_prolog_comments_and_cdata(self):
        doc = parse_xml(
            "<?xml version='1.0'?><!-- c --><root><![CDATA[<raw>]]><child/></root>"
        )
        assert doc.document.root.text == "<raw>"
        assert doc.document.root.children[0].name == "child"

    def test_doctype_with_internal_subset(self):
        parsed = parse_xml(
            "<!DOCTYPE book [<!ELEMENT book (title)><!ELEMENT title (#PCDATA)>]>"
            "<book><title/></book>"
        )
        assert parsed.doctype_name == "book"
        assert "<!ELEMENT book" in parsed.internal_subset

    def test_entities_are_decoded(self):
        doc = parse_document("<a b='&lt;&amp;&gt;'>&quot;x&apos;</a>")
        assert doc.root.attributes["b"] == "<&>"
        assert doc.root.text == '"x\''

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a/><b/>",
            "<a x=1/>",
            "<!-- unterminated <a/>",
        ],
    )
    def test_malformed_documents_raise(self, text):
        with pytest.raises(XMLSyntaxError):
            parse_xml(text)

    def test_error_positions(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_xml("<a>\n  <b>\n</a>")
        assert excinfo.value.line >= 2


#: CPython's default recursion limit; the deep-nesting tests run under it.
DEFAULT_RECURSION_LIMIT = 1000

#: Marks a case of :data:`DELIBERATE_DIFFERENCES` that must be rejected.
REJECTED = object()
INVALID = "not well-formed (invalid token)"


def _text(parsed):
    return parsed.document.root.text


def _attributes(parsed):
    return parsed.document.root.attributes


def _names(parsed):
    return [node.name for node in parsed.document.iter_elements()]


def _subset(parsed):
    return parsed.internal_subset


#: One case per deliberate difference between the expat front end and the
#: hand-written scanner it replaced (the table in ``docs/service.md``):
#: ``(text, probe, expected)``.  *probe* reads the observed value off the
#: :class:`ParsedXML`; a rejected input pins expat's error wording instead.
DELIBERATE_DIFFERENCES = [
    pytest.param("<a>&#65;&#x42;</a>", _text, "AB", id="character-references"),
    pytest.param("<a>&amp;lt;</a>", _text, "&lt;", id="decoded-once"),
    pytest.param("<a>&foo;</a>", REJECTED, "undefined entity", id="undefined-entity"),
    pytest.param("<a>AT&T</a>", REJECTED, INVALID, id="bare-ampersand"),
    pytest.param("<a b='<'/>", REJECTED, INVALID, id="lt-in-attribute"),
    pytest.param("<a b='1' b='2'/>", REJECTED, "duplicate attribute", id="duplicate-attribute"),
    pytest.param("<a>]]></a>", REJECTED, INVALID, id="cdata-end-in-content"),
    pytest.param("<a>\x01</a>", REJECTED, INVALID, id="c0-control"),
    pytest.param("\xa0<a/>", REJECTED, INVALID, id="nbsp-in-prolog"),
    pytest.param(
        " <?xml version='1.0'?><a/>",
        REJECTED,
        "XML or text declaration not at start of entity",
        id="late-xml-declaration",
    ),
    pytest.param(
        '<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>',
        REJECTED,
        "entity declarations are not supported (<!ENTITY e>)",
        id="entity-declaration",
    ),
    pytest.param(
        '<!DOCTYPE a [<!ENTITY % e "x">]><a/>',
        REJECTED,
        "parameter entity declarations are not supported (<!ENTITY e>)",
        id="parameter-entity-declaration",
    ),
    pytest.param("<!DOCTYPE a [%pe;]><a/>", REJECTED, "undefined entity %pe;", id="pe-reference"),
    pytest.param("<a><!-- x -- y --></a>", REJECTED, INVALID, id="double-hyphen-in-comment"),
    pytest.param("<a><? x?></a>", REJECTED, INVALID, id="pi-without-target"),
    pytest.param("<!DOCTYPE a [<!ELEMENT a>]><a/>", REJECTED, "syntax error", id="subset-syntax"),
    pytest.param("<café><naïve/></café>", _names, ["café", "naïve"], id="non-ascii-names"),
    pytest.param("\ufeff<a/>", _names, ["a"], id="leading-bom"),
    pytest.param("<a><!-->--></a>", _text, "", id="comment-starting-with-gt"),
    pytest.param("<!DOCTYPE a [<!-- ] -->]><a/>", _subset, "<!-- ] -->", id="bracket-in-subset"),
    pytest.param("<a>x\r\ny\rz</a>", _text, "x\ny\nz", id="line-ends"),
    pytest.param("<a v='x\ty\nz\r'/>", _attributes, {"v": "x y z "}, id="attribute-whitespace"),
    pytest.param(
        "<!DOCTYPE a [<!ATTLIST a id ID #IMPLIED>]><a id=' x  y '/>",
        _attributes,
        {"id": "x y"},
        id="tokenized-attribute",
    ),
    pytest.param("<a></b>", REJECTED, "mismatched tag", id="expat-wording"),
    pytest.param(
        "<a>" * (MAX_DEPTH + 1),
        REJECTED,
        f"elements nested deeper than {MAX_DEPTH} levels",
        id="nesting-beyond-max-depth",
    ),
]


class TestExpatFrontEnd:
    @pytest.mark.parametrize("text, probe, expected", DELIBERATE_DIFFERENCES)
    def test_deliberate_difference(self, text, probe, expected):
        if probe is REJECTED:
            with pytest.raises(XMLSyntaxError) as excinfo:
                parse_xml(text)
            assert excinfo.value.args[0] == expected
            assert excinfo.value.line >= 1 and excinfo.value.column >= 1
        else:
            assert probe(parse_xml(text)) == expected

    def test_error_positions_count_characters(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_xml("<a>\n\U0001f600é<</a>")
        assert (excinfo.value.line, excinfo.value.column) == (2, 4)

    def test_lone_surrogate_is_a_syntax_error_at_its_position(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_xml("<a>\n <b>\ud800</b></a>")
        assert (excinfo.value.line, excinfo.value.column) == (2, 5)

    def test_declared_encoding_is_not_applied_to_decoded_text(self):
        parsed = parse_xml('<?xml version="1.0" encoding="ISO-8859-1"?><a>é</a>')
        assert parsed.document.root.text == "é"

    @pytest.mark.parametrize(
        "text", ['<!DOCTYPE a SYSTEM "a.dtd"><a/>', '<!DOCTYPE a PUBLIC "-//x" "a.dtd"><a/>']
    )
    def test_external_subsets_stay_rejected(self, text):
        with pytest.raises(XMLSyntaxError, match="external DTD subsets"):
            parse_xml(text)

    @pytest.mark.parametrize(
        "text",
        [
            "<!DOCTYPE a [%pe;]><a>&foo;</a>",
            '<!DOCTYPE a [%pe;]><a x="1&foo;2"/>',
            '<!DOCTYPE a [%pe; <!ENTITY e "x">]><a/>',
        ],
    )
    def test_parameter_entity_references_are_rejected(self, text):
        # Left alone, expat would skip the rest of the subset and drop
        # unknown entities from attribute values without an error.
        with pytest.raises(XMLSyntaxError, match="undefined entity %pe;") as excinfo:
            parse_xml(text)
        assert (excinfo.value.line, excinfo.value.column) == (1, 14)

    def test_attribute_defaults_are_not_injected(self):
        parsed = parse_xml('<!DOCTYPE a [<!ATTLIST a v CDATA "d">]><a/>')
        assert parsed.document.root.attributes == {}

    def test_text_joins_runs_split_by_comments_and_cdata(self):
        doc = parse_document("<a>x<!-- c -->y<![CDATA[<z>]]><?pi?>w<b/>v</a>")
        assert doc.root.text == "xy<z>wv"
        assert doc.root.children[0].text == ""

    def test_serialised_carriage_returns_and_attribute_whitespace_survive(self):
        root = element("a", text="x\r\ny", v="1\t2\n3\r")
        parsed = parse_document(root.to_xml())
        assert parsed.root.text == "x\r\ny"
        assert parsed.root.attributes == {"v": "1\t2\n3\r"}


class TestDeepDocuments:
    DEPTH = 100_000

    @staticmethod
    def _at_default_recursion_limit(job):
        """Run *job* on a pool thread under CPython's default recursion limit."""
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
        try:
            with ThreadPoolExecutor(1) as pool:
                return pool.submit(job).result()
        finally:
            sys.setrecursionlimit(previous)

    def test_deep_document_parses_and_validates(self):
        depth = self.DEPTH
        text = "<a>" * depth + "</a>" * depth
        validator = DTDValidator(parse_dtd("<!ELEMENT a (a?)>"))
        schema = XSDSchema(root="a")
        schema.declare("a", sequence(element_particle("a", 0, 1)))

        def job():
            document = parse_document(text)
            return (
                document.element_count(),
                bool(validator.validate(document)),
                bool(schema.validate_element(document.root)),
            )

        assert self._at_default_recursion_limit(job) == (depth, True, True)

    def test_deep_failure_is_located(self):
        depth = self.DEPTH
        text = "<a>" * (depth - 1) + "<b/>" + "</a>" * (depth - 1)
        validator = DTDValidator(parse_dtd("<!ELEMENT a (a?)> <!ELEMENT b EMPTY>"))

        def job():
            return [(v.kind, v.path) for v in validator.validate(parse_document(text))]

        [(kind, path)] = self._at_default_recursion_limit(job)
        assert kind == "content"
        assert path == "/a" + "/a[1]" * (depth - 2)

    def test_failures_at_every_level_stop_at_the_report_cap(self):
        """A path costs its element's depth; without the cap, d failing
        levels would render paths totalling about 2.5 d^2 characters."""
        depth = 20_000
        document = parse_document("<a><b/>" * depth + "</a>" * depth)
        validator = DTDValidator(parse_dtd("<!ELEMENT a (a?)> <!ELEMENT b EMPTY>"))
        schema = XSDSchema(root="a")
        schema.declare("a", sequence(element_particle("a", 0, 1)))
        expected = ["/a" + "/a[2]" * level for level in range(MAX_VIOLATIONS)]
        started = time.perf_counter()
        for result in (validator.validate(document), schema.validate_element(document.root)):
            assert not result
            assert [violation.path for violation in result] == expected
        assert time.perf_counter() - started < 5.0


class TestContentModels:
    def test_empty_and_any(self):
        assert parse_content_model("EMPTY").kind == "empty"
        assert parse_content_model("ANY").kind == "any"

    def test_mixed_content(self):
        model = parse_content_model("(#PCDATA | em | strong)*")
        assert model.kind == "mixed"
        assert model.mixed_names == ("em", "strong")
        assert model.allows_text
        expression = content_model_expression(model)
        assert isinstance(expression, Star)

    def test_pcdata_only(self):
        model = parse_content_model("(#PCDATA)")
        assert model.kind == "mixed"
        assert model.mixed_names == ()
        assert content_model_expression(model) is None

    def test_element_content(self):
        model = parse_content_model("(title, author+, chapter*)")
        assert model.kind == "children"
        expression = model.expression
        assert isinstance(expression, Concat)
        assert expression.positions() == ["title", "author", "chapter"]

    def test_choice_content(self):
        model = parse_content_model("(para | figure | table)?")
        assert isinstance(model.expression, Optional)

    def test_nested_groups(self):
        model = parse_content_model("((head, body) | frameset)")
        assert isinstance(model.expression, Union)

    @pytest.mark.parametrize("text", ["", "(a,,b)", "(a | b,c)", "(a", "(#PCDATA | 1bad)*", "a b"])
    def test_malformed_content_models_raise(self, text):
        with pytest.raises(DTDSyntaxError):
            parse_content_model(text)

    def test_mixing_separators_rejected(self):
        with pytest.raises(DTDSyntaxError):
            parse_content_model("(a, b | c)")


class TestDTD:
    DTD_TEXT = """
    <!-- a small book DTD -->
    <!ELEMENT book (title, author+, chapter*)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT author (#PCDATA)>
    <!ELEMENT chapter (title, (para | figure)*)>
    <!ELEMENT para (#PCDATA)>
    <!ELEMENT figure EMPTY>
    <!ATTLIST figure src CDATA #REQUIRED>
    """

    def test_parse_dtd(self):
        dtd = parse_dtd(self.DTD_TEXT)
        assert set(dtd.declared_names()) == {"book", "title", "author", "chapter", "para", "figure"}
        assert dtd.root == "book"
        assert dtd.content_model("figure").kind == "empty"

    def test_declare_accepts_text_ast_and_model(self):
        dtd = DTD()
        dtd.declare("a", "(b, c?)")
        dtd.declare("b", Concat(Sym("x"), Plus(Sym("y"))))
        dtd.declare("c", parse_content_model("ANY"))
        assert dtd.content_model("a").kind == "children"
        assert dtd.content_model("c").kind == "any"

    def test_content_expressions_iteration(self):
        dtd = parse_dtd(self.DTD_TEXT)
        names = {name for name, _ in dtd.content_expressions()}
        assert "book" in names and "chapter" in names
        assert "figure" not in names  # EMPTY has no expression

    def test_round_trip_to_text(self):
        dtd = parse_dtd(self.DTD_TEXT)
        text = dtd_to_text(dtd)
        reparsed = parse_dtd(text)
        assert set(reparsed.declared_names()) == set(dtd.declared_names())
        assert reparsed.content_model("book").expression == dtd.content_model("book").expression

    def test_element_names_follow_the_xml_name_production(self):
        dtd = parse_dtd("<!ELEMENT 目录 (产品*)><!ELEMENT 产品 (#PCDATA)>")
        assert dtd.declared_names() == ["目录", "产品"]
        validator = DTDValidator(dtd)
        assert validator.is_valid(parse_xml("<目录><产品>x</产品></目录>").document)
        assert not validator.is_valid(parse_xml("<目录><货物/></目录>").document)
        dtd = parse_dtd("<!ELEMENT katalog (würfel·a*, _x-1.b?)> <!ELEMENT a (#PCDATA | ñ)*>")
        assert dtd.content_model("katalog").expression.positions() == ["würfel·a", "_x-1.b"]
        assert dtd.content_model("a").mixed_names == ("ñ",)

    @pytest.mark.parametrize(
        "text",
        [
            "<!ELEMENT a>",
            "<!ELEMENT 1a EMPTY>",
            "<!ELEMENT ·a EMPTY>",
            "<!ELEMENT a$b EMPTY>",
            "<!ELEMENT a EMPTY> <!ELEMENT>",
        ],
    )
    def test_unreadable_element_declarations_raise(self, text):
        with pytest.raises(DTDSyntaxError, match="malformed element declaration"):
            parse_dtd(text)

    @pytest.mark.parametrize(
        ("text", "excerpt"),
        [
            ("<!ELEMNT a EMPTY>", "<!ELEMNT a EMPTY"),
            ("<!element a EMPTY>", "<!element a EMPTY"),
            ("<!ATTLISTa x CDATA #IMPLIED>", "<!ATTLISTa x CDATA #IMPLIED"),
            ("<!ELEMENT a EMPTY> junk <!ELEMENT b EMPTY>", "junk <!ELEMENT b EMPTY"),
            ("<!ELEMENT a EMPTY>\n)", ")"),
            ('<!ENTITY e "x"> <!ELEMENT a EMPTY>', '<!ENTITY e "x"'),
            ('<!NOTATION n SYSTEM "n">', '<!NOTATION n SYSTEM "n"'),
            ("%pe; <!ELEMENT a EMPTY>", "%pe; <!ELEMENT a EMPTY"),
            ("<!-- <!ELEMENT a EMPTY>", "<!-- <!ELEMENT a EMPTY"),
            ("<![INCLUDE[<!ELEMENT a EMPTY>]]>", "<![INCLUDE[<!ELEMENT a EMPTY"),
            ("<!DOCTYPE a [<!ELEMENT a EMPTY>]>", "<!DOCTYPE a [<!ELEMENT a EMPTY"),
        ],
    )
    def test_markup_the_reader_does_not_consume_raises(self, text, excerpt):
        with pytest.raises(DTDSyntaxError) as excinfo:
            parse_dtd(text)
        assert str(excinfo.value) == f"unsupported DTD markup or text: {excerpt!r}"

    def test_a_comment_inside_a_declaration_is_not_stripped(self):
        with pytest.raises(DTDSyntaxError, match="content model"):
            parse_dtd("<!ELEMENT a (b, <!-- x --> c)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>")

    def test_prolog_comments_instructions_and_attlists_are_consumed(self):
        dtd = parse_dtd(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            "<!-- the <!ELEMENT x EMPTY> in this comment declares nothing -->\n"
            "<!ELEMENT a (b)><?app hint?>\n"
            "<!ATTLIST a note CDATA \"1 > 0\" kind (x|y) 'x'>\t"
            "<!ELEMENT b EMPTY>\n"
        )
        assert dtd.declared_names() == ["a", "b"]
        assert parse_dtd("").declared_names() == parse_dtd(" \n ").declared_names() == []


class TestDTDValidator:
    def _dtd(self):
        return parse_dtd(TestDTD.DTD_TEXT)

    def _valid_doc(self):
        return element(
            "book",
            element("title", text="T"),
            element("author", text="A"),
            element("chapter", element("title"), element("para"), element("figure")),
        )

    def test_valid_document(self):
        validator = DTDValidator(self._dtd())
        assert validator.is_valid(self._valid_doc())

    def test_wrong_child_order(self):
        validator = DTDValidator(self._dtd())
        doc = element("book", element("author"), element("title"))
        violations = validator.validate(doc)
        assert not violations.valid and violations[0].kind == "content"
        assert "book" in violations[0].describe()

    def test_missing_required_child(self):
        validator = DTDValidator(self._dtd())
        doc = element("book", element("title"))
        assert not validator.is_valid(doc)

    def test_empty_element_must_be_empty(self):
        validator = DTDValidator(self._dtd())
        doc = self._valid_doc()
        doc.children[2].children[2].append(element("para"))
        assert not validator.is_valid(doc)

    def test_unexpected_text(self):
        validator = DTDValidator(self._dtd())
        doc = self._valid_doc()
        doc.children[2].text = "loose text"
        violations = validator.validate(doc)
        assert any(v.kind == "unexpected-text" for v in violations)

    def test_undeclared_elements_in_strict_mode(self):
        validator = DTDValidator(self._dtd(), strict=True)
        doc = element("book", element("title"), element("author"), element("preface"))
        kinds = {v.kind for v in validator.validate(doc)}
        assert "undeclared" in kinds

    def test_non_deterministic_content_model_rejected(self):
        dtd = DTD()
        dtd.declare("bad", "((a, b) | (a, c))")
        with pytest.raises(NotDeterministicError):
            DTDValidator(dtd)

    def test_plus_under_star_content_model_is_accepted(self):
        """A content model like ((a+ , b) | c)* is deterministic in the DTD
        sense even though the E E* rewriting of the '+' is Glushkov-ambiguous;
        the validator must accept it and still validate correctly."""
        dtd = DTD()
        dtd.declare("root", "((a+, b) | c)*")
        dtd.declare("a", "EMPTY")
        dtd.declare("b", "EMPTY")
        dtd.declare("c", "EMPTY")
        validator = DTDValidator(dtd)
        good = element("root", element("a"), element("a"), element("b"), element("c"))
        bad = element("root", element("a"), element("c"))
        assert validator.is_valid(good)
        assert not validator.is_valid(bad)

    def test_streaming_checker(self):
        validator = DTDValidator(self._dtd())
        checker = validator.checker_for("book")
        assert checker.feed("title")
        assert not checker.complete()  # author is still required
        assert checker.feed("author")
        assert checker.complete()
        assert checker.feed("chapter")
        assert checker.complete()
        assert not checker.feed("title")
        assert checker.consumed == 3

    def test_checker_for_unconstrained_model(self):
        validator = DTDValidator(self._dtd())
        assert validator.checker_for("figure") is None


class TestXSD:
    def _schema(self):
        schema = XSDSchema(root="order")
        schema.declare(
            "order",
            sequence(element_particle("item", 1, None), element_particle("note", 0, 1)),
        )
        schema.declare(
            "item",
            sequence(element_particle("sku"), element_particle("qty", 1, 3)),
        )
        return schema

    def test_particle_to_regex_and_describe(self):
        particle = sequence(
            element_particle("a", 2, 4), choice(element_particle("b"), element_particle("c"))
        )
        expression = particle.to_regex()
        assert expression.positions() == ["a", "b", "c"]
        assert "{2,4}" in particle.describe()

    def test_invalid_particles_rejected(self):
        from repro.errors import InvalidExpressionError

        with pytest.raises(InvalidExpressionError):
            element_particle("a", 3, 2)
        with pytest.raises(InvalidExpressionError):
            sequence()

    def test_unique_particle_attribution(self):
        schema = self._schema()
        assert schema.is_valid_schema()
        reports = schema.check_unique_particle_attribution()
        assert set(reports) == {"order", "item"}

    def test_upa_violation_detected(self):
        schema = XSDSchema()
        schema.declare(
            "bad",
            sequence(element_particle("a", 1, 2), element_particle("a", 1, 1)),
        )
        assert not schema.is_valid_schema()

    def test_validate_children_and_element(self):
        schema = self._schema()
        assert schema.validate_children("item", ["sku", "qty", "qty"])
        assert not schema.validate_children("item", ["qty"])
        order = element("order", element("item", element("sku"), element("qty")), element("note"))
        assert schema.validate_element(order)
        assert schema.validate_children("undeclared", ["anything"])
