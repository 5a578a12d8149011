"""Tests for the textual Signal parser and the pretty printer round-trip."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.library as library
from repro.gen.corpus import Corpus
from repro.lang.ast import ClockConstraint, Definition, Instantiation, Restriction
from repro.lang.normalize import normalize
from repro.lang.parser import ParseError, parse_process, parse_program, tokenize
from repro.lang.printer import format_normalized_source, format_process
from repro.library.basic import filter_process
from repro.properties.compilable import ProcessAnalysis
from repro.semantics.interpreter import SignalInterpreter

FILTER_SOURCE = """
process filter (y) returns (x) {
  local z;
  x := true when (y /= z);
  z := y pre true;
}
"""

BUFFER_SOURCE = """
# the one-place buffer of Section 3
process buffer (y) returns (x) {
  local s, t, r, m;
  s := t pre true;
  t := not s;
  ^y = [not t];
  m := r pre false;
  r := y default m;
  ^r = ^t;
  x := r when t;
}
"""

PRODUCER_CONSUMER_SOURCE = """
process producer (a) returns (u, x) {
  ^u = [a];
  u := 1 + (u pre 0);
  ^x = [not a];
  x := 1 + (x pre 0);
}

process consumer (b, x) returns (v) {
  ^v = ^b;
  ^x = [b];
  v := (v pre 0) + (x default 1);
}

process main (a, b) returns (u, v) {
  local x;
  (u, x) := producer(a);
  (v) := consumer(b, x);
}
"""


class TestParser:
    def test_parse_filter(self):
        definition = parse_process(FILTER_SOURCE)
        assert definition.name == "filter"
        assert definition.inputs == ("y",)
        assert definition.outputs == ("x",)
        assert "z" in definition.locals

    def test_parsed_filter_behaves_like_builder_filter(self):
        parsed = normalize(parse_process(FILTER_SOURCE))
        built = normalize(filter_process())
        parsed_interpreter = SignalInterpreter(parsed)
        built_interpreter = SignalInterpreter(built)
        stream = [True, False, False, True, True, False]
        for value in stream:
            parsed_result = parsed_interpreter.step({"y": value})
            built_result = built_interpreter.step({"y": value})
            assert parsed_result.present("x") == built_result.present("x")

    def test_parse_buffer_and_analyze(self):
        definition = parse_process(BUFFER_SOURCE)
        analysis = ProcessAnalysis(normalize(definition))
        assert analysis.is_compilable()
        assert analysis.is_hierarchic()

    def test_parse_program_with_instantiations(self):
        program = parse_program(PRODUCER_CONSUMER_SOURCE)
        assert set(program) == {"producer", "consumer", "main"}
        main = program["main"]
        instantiations = [
            statement
            for statement in main.body.body.statements
            for statement in [statement]
            if isinstance(statement, Instantiation)
        ] if isinstance(main.body, Restriction) else []
        assert len(instantiations) == 2
        normalized = normalize(main, program)
        assert set(normalized.inputs) == {"a", "b"}
        assert set(normalized.outputs) == {"u", "v"}

    def test_clock_constraint_parsing(self):
        definition = parse_process(
            "process sync (a, b) returns (c) { ^a = ^b; c := a and b; }"
        )
        constraints = [
            statement
            for statement in (
                definition.body.statements
                if hasattr(definition.body, "statements")
                else [definition.body]
            )
            if isinstance(statement, ClockConstraint)
        ]
        assert len(constraints) == 1

    def test_comments_are_ignored(self):
        definition = parse_process(
            "process p (a) returns (x) {\n  # a comment\n  x := a; % another\n}"
        )
        assert isinstance(definition.body, Definition)

    def test_operator_precedence(self):
        definition = parse_process(
            "process p (a, b, c) returns (x) { x := a when b default c; }"
        )
        normalized = normalize(definition)
        # default binds weaker than when: (a when b) default c
        from repro.lang.normalize import MergeEquation

        merges = [eq for eq in normalized.equations if isinstance(eq, MergeEquation)]
        assert len(merges) == 1
        assert merges[0].target == "x"

    def test_error_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_process("process broken (a) returns (x) {\n  x ::= a;\n}")
        assert "line 2" in str(excinfo.value)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_process("process p (a) returns (x) { x := a ? 1; }")

    def test_multiple_processes_rejected_by_parse_process(self):
        with pytest.raises(ParseError):
            parse_process(PRODUCER_CONSUMER_SOURCE)


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("source", [FILTER_SOURCE, BUFFER_SOURCE])
    def test_print_then_reparse_preserves_structure(self, source):
        original = parse_process(source)
        printed = format_process(original)
        reparsed = parse_process(printed)
        assert reparsed.name == original.name
        assert reparsed.inputs == original.inputs
        assert reparsed.outputs == original.outputs
        assert len(normalize(reparsed).equations) == len(normalize(original).equations)

    def test_print_builder_process(self):
        printed = format_process(filter_process())
        reparsed = parse_process(printed)
        assert reparsed.name == "filter"


# -- the tokenizer against the one-match-per-lexeme reference -------------------

_REFERENCE_KEYWORDS = {
    "process",
    "returns",
    "local",
    "when",
    "default",
    "pre",
    "cell",
    "init",
    "and",
    "or",
    "not",
    "xor",
    "true",
    "false",
}

_REFERENCE_TOKEN_SPEC = [
    ("COMMENT", r"(#|%)[^\n]*"),
    ("NUMBER", r"\d+(\.\d+)?"),
    ("NAME", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("CLOCKOP", r"\^\*|\^\+|\^\-|\^="),
    ("HAT", r"\^"),
    ("ASSIGN", r":="),
    ("COMPARE", r"/=|<=|>=|=|<|>"),
    ("ARITH", r"[+\-*/]"),
    ("LBRACKET", r"\["),
    ("RBRACKET", r"\]"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("COMMA", r","),
    ("SEMI", r";"),
    ("NEWLINE", r"\n"),
    ("SKIP", r"[ \t\r]+"),
    ("MISMATCH", r"."),
]


def _reference_tokenize(source):
    """The tokenizer as it was before whitespace was folded into each match
    (one ``finditer`` match per lexeme, whitespace included), producing
    ``(kind, text, line, column)`` tuples; kept as the reference."""
    specification = "|".join(f"(?P<{name}>{pattern})" for name, pattern in _REFERENCE_TOKEN_SPEC)
    tokens = []
    line = 1
    line_start = 0
    for match in re.finditer(specification, source):
        kind = match.lastgroup or "MISMATCH"
        text = match.group()
        column = match.start() - line_start + 1
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
            continue
        if kind in ("SKIP", "COMMENT"):
            continue
        if kind == "MISMATCH":
            raise ParseError(f"unexpected character {text!r}", line, column)
        if kind == "NAME" and text in _REFERENCE_KEYWORDS:
            kind = text.upper()
        tokens.append((kind, text, line, column))
    tokens.append(("EOF", "", line, 1))
    return tokens


def _stream(tokenizer, source):
    """The token stream as tuples, or the error's message and position."""
    try:
        return [tuple(token) for token in tokenizer(source)]
    except ParseError as error:
        return ("ParseError", str(error), error.line, error.column)


def _assert_tokenizes_like_the_reference(source):
    assert _stream(tokenize, source) == _stream(_reference_tokenize, source)


_CORPUS = Corpus.load(Path(__file__).resolve().parent.parent / "corpus" / "corpus.json")


def _library_sources():
    sources = [FILTER_SOURCE, BUFFER_SOURCE, PRODUCER_CONSUMER_SOURCE]
    for name in library.__all__:
        built = getattr(library, name)()
        if isinstance(built, dict):  # already normalized processes, by role
            sources.extend(format_normalized_source(process) for process in built.values())
        else:
            sources.append(format_process(built))
            sources.append(format_normalized_source(normalize(built, _library_registry())))
    return sources


def _library_registry():
    from repro.library import ltta, producer_consumer

    registry = {}
    registry.update(producer_consumer.registry())
    registry.update(ltta.registry())
    return registry


class TestTokenizer:
    @pytest.mark.parametrize("entry", _CORPUS.entries, ids=lambda entry: entry.name)
    def test_corpus_sources_tokenize_like_the_reference(self, entry):
        for component in entry.regenerate().components:
            source = format_normalized_source(component)
            _assert_tokenizes_like_the_reference(source)
            assert tokenize(source)[-1].kind == "EOF"
        # the canonical forms hold \x00-prefixed names: the same error
        for form in entry.components:
            _assert_tokenizes_like_the_reference(form)

    def test_library_sources_tokenize_like_the_reference(self):
        for source in _library_sources():
            _assert_tokenizes_like_the_reference(source)

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "   ",
            "process p (a) returns (b) { b := a; }   ",
            "process p (a) returns (b) { b := a; }\t \r",
            "process p (a)\r\nreturns (b)\r\n{\r\n  b := a;\r\n}\r\n",
            "process\tp\t(a) returns (b) {\n\tb :=\ta pre 1.5;\n}",
            "process p (a) returns (b) { b := a; } # trailing comment",
            "process p (a) returns (b) { b := a; } % trailing comment",
            "# only a comment",
            "%",
            "\n\n  \n",
            "x := 12.x",
            "^x ^= [not c] ^+ ^0",
        ],
    )
    def test_whitespace_and_comment_edges(self, source):
        _assert_tokenizes_like_the_reference(source)

    @pytest.mark.parametrize(
        "source, line, column",
        [
            ("process p (a) returns (b) { b := a @ 1; }", 1, 36),
            ("process p (a) returns (b) {\n  b := a;\n\t$\n}", 3, 2),
            ("process p (a)\r\nreturns (b) { b := a!; }", 2, 21),
            ("x := y   \x00", 1, 10),
        ],
    )
    def test_unexpected_character_reports_the_same_error(self, source, line, column):
        with pytest.raises(ParseError) as caught:
            tokenize(source)
        assert (caught.value.line, caught.value.column) == (line, column)
        _assert_tokenizes_like_the_reference(source)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                list("abxyz_019. \t\r\n#%^*+-=/<>:[](){},;!@é٣")
                + ["process", "when", "pre", "not", "true", "default"]
            ),
            max_size=40,
        ).map("".join)
    )
    def test_random_text_tokenizes_like_the_reference(self, source):
        _assert_tokenizes_like_the_reference(source)

    def test_tokens_are_named_tuples_of_four_fields(self):
        token = tokenize("x")[0]
        assert token == ("NAME", "x", 1, 1)
        assert (token.kind, token.text, token.line, token.column) == ("NAME", "x", 1, 1)
        assert repr(token) == "Token(kind='NAME', text='x', line=1, column=1)"
