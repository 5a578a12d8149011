"""A small recursive-descent parser for a Signal-like concrete syntax.

The accepted syntax covers the subset used in the paper.  A program is a
sequence of process definitions::

    process filter (y) returns (x) {
      local z;
      x := true when (y /= z);
      z := y pre true;
    }

    process buffer (y) returns (x) {
      (x) := current(y);
      () := flip(x, y);
    }

Statements are equations ``name := expression;``, clock constraints such as
``^x = [t];`` or ``^r = ^x ^+ ^y;``, instantiations ``(a, b) := p(c, d);``
and ``local`` declarations.  Expression operators follow Signal:
``default`` < ``when`` < ``or`` < ``and`` < comparisons < additive <
multiplicative < unary, plus the postfix-style ``pre`` and ``cell`` forms.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.lang.ast import (
    BinaryOp,
    Cell,
    ClockBinary,
    ClockConstraint,
    ClockEmpty,
    ClockExpressionSyntax,
    ClockFalse,
    ClockOf,
    ClockTrue,
    Const,
    Default,
    Definition,
    Expression,
    Instantiation,
    Pre,
    ProcessDefinition,
    Ref,
    Restriction,
    Statement,
    UnaryOp,
    When,
    compose,
)


class ParseError(Exception):
    """Raised when the source text does not conform to the grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


#: keyword spelling -> token kind
_KEYWORDS = {
    keyword: keyword.upper()
    for keyword in (
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
    )
}

#: token kinds in match priority; a kind's group number is its position + 1
_TOKEN_SPEC = (
    ("COMMENT", r"[#%][^\n]*"),
    ("NUMBER", r"\d+(?:\.\d+)?"),
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
    ("EOF", r"\Z"),
    ("MISMATCH", r"."),
)
_KINDS = (None,) + tuple(kind for kind, _pattern in _TOKEN_SPEC)
#: one match per token: the spaces, tabs and carriage returns before it,
#: then the token itself in the group of its kind
_TOKEN = re.compile(
    "[ \t\r]*(?:" + "|".join(f"({pattern})" for _kind, pattern in _TOKEN_SPEC) + ")"
)


def tokenize(source: str) -> List[Token]:
    """Split source text into tokens, dropping whitespace and comments."""
    match = _TOKEN.match
    tokens: List[Token] = []
    line = 1
    line_start = 0
    position = 0
    while True:
        found = match(source, position)
        group = found.lastindex
        kind = _KINDS[group]
        position = found.end()
        if kind == "NAME":
            text = found.group(group)
            tokens.append(
                Token(_KEYWORDS.get(text, "NAME"), text, line, found.start(group) - line_start + 1)
            )
        elif kind == "NEWLINE":
            line += 1
            line_start = position
        elif kind == "EOF":
            break
        elif kind == "MISMATCH":
            raise ParseError(
                f"unexpected character {found.group(group)!r}",
                line,
                found.start(group) - line_start + 1,
            )
        elif kind != "COMMENT":
            tokens.append(
                Token(kind, found.group(group), line, found.start(group) - line_start + 1)
            )
    tokens.append(Token("EOF", "", line, 1))
    return tokens


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        self.position = 0

    # -- token helpers ---------------------------------------------------------
    def peek(self) -> Token:
        # never past the end: ``advance`` stops at the trailing EOF token
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "EOF":
            self.position += 1
        return token

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.tokens[self.position]
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if self.check(kind, text):
            return self.advance()
        token = self.peek()
        expected = text or kind
        raise ParseError(f"expected {expected!r}, found {token.text!r}", token.line, token.column)

    # -- program --------------------------------------------------------------
    def program(self) -> Dict[str, ProcessDefinition]:
        processes: Dict[str, ProcessDefinition] = {}
        while not self.check("EOF"):
            definition = self.process_definition()
            processes[definition.name] = definition
        return processes

    def process_definition(self) -> ProcessDefinition:
        self.expect("PROCESS")
        name = self.expect("NAME").text
        inputs = self.name_list()
        self.expect("RETURNS")
        outputs = self.name_list()
        self.expect("LBRACE")
        locals_: List[str] = []
        statements: List[Statement] = []
        while not self.check("RBRACE"):
            if self.accept("LOCAL"):
                locals_.extend(self.comma_names())
                self.expect("SEMI")
            else:
                statements.append(self.statement())
        self.expect("RBRACE")
        if not statements:
            token = self.peek()
            raise ParseError(f"process {name!r} has no equations", token.line, token.column)
        body: Statement = compose(*statements)
        if locals_:
            body = Restriction(body, tuple(locals_))
        return ProcessDefinition(name, tuple(inputs), tuple(outputs), body, tuple(locals_))

    def name_list(self) -> List[str]:
        self.expect("LPAREN")
        names: List[str] = []
        if not self.check("RPAREN"):
            names = self.comma_names()
        self.expect("RPAREN")
        return names

    def comma_names(self) -> List[str]:
        names = [self.expect("NAME").text]
        while self.accept("COMMA"):
            names.append(self.expect("NAME").text)
        return names

    # -- statements ---------------------------------------------------------
    def statement(self) -> Statement:
        if self.check("HAT") or self.check("LBRACKET"):
            statement = self.clock_constraint()
        elif self.check("LPAREN"):
            statement = self.instantiation()
        else:
            statement = self.equation_or_constraint()
        self.expect("SEMI")
        return statement

    def instantiation(self) -> Statement:
        self.expect("LPAREN")
        outputs: List[str] = []
        if not self.check("RPAREN"):
            outputs = self.comma_names()
        self.expect("RPAREN")
        self.expect("ASSIGN")
        process = self.expect("NAME").text
        self.expect("LPAREN")
        arguments: List[Expression] = []
        if not self.check("RPAREN"):
            arguments.append(self.expression())
            while self.accept("COMMA"):
                arguments.append(self.expression())
        self.expect("RPAREN")
        return Instantiation(tuple(outputs), process, tuple(arguments))

    def equation_or_constraint(self) -> Statement:
        name_token = self.expect("NAME")
        if self.accept("ASSIGN"):
            expression = self.expression()
            return Definition(name_token.text, expression)
        if self.check("CLOCKOP", "^=") or self.check("COMPARE", "="):
            # ``x ^= y`` or, for robustness, ``x = y`` between bare names is a
            # synchronization constraint between the clocks of x and y.
            clocks: List[ClockExpressionSyntax] = [ClockOf(name_token.text)]
            while self.accept("CLOCKOP", "^=") or self.accept("COMPARE", "="):
                clocks.append(self.clock_expression())
            return ClockConstraint(tuple(clocks))
        token = self.peek()
        raise ParseError(
            f"expected ':=' or '^=' after {name_token.text!r}, found {token.text!r}",
            token.line,
            token.column,
        )

    def clock_constraint(self) -> Statement:
        clocks: List[ClockExpressionSyntax] = [self.clock_expression()]
        while self.accept("COMPARE", "=") or self.accept("CLOCKOP", "^="):
            clocks.append(self.clock_expression())
        if len(clocks) < 2:
            token = self.peek()
            raise ParseError("clock constraint needs at least two clocks", token.line, token.column)
        return ClockConstraint(tuple(clocks))

    # -- clock expressions -----------------------------------------------------
    def clock_expression(self) -> ClockExpressionSyntax:
        left = self.clock_atom()
        while self.check("CLOCKOP") and self.peek().text in ("^*", "^+", "^-"):
            operator = {"^*": "and", "^+": "or", "^-": "diff"}[self.advance().text]
            right = self.clock_atom()
            left = ClockBinary(operator, left, right)
        return left

    def clock_atom(self) -> ClockExpressionSyntax:
        if self.accept("HAT"):
            if self.check("NUMBER") and self.peek().text == "0":
                self.advance()
                return ClockEmpty()
            return ClockOf(self.expect("NAME").text)
        if self.accept("LBRACKET"):
            negated = bool(self.accept("NOT"))
            name = self.expect("NAME").text
            self.expect("RBRACKET")
            return ClockFalse(name) if negated else ClockTrue(name)
        if self.accept("LPAREN"):
            inner = self.clock_expression()
            self.expect("RPAREN")
            return inner
        if self.check("NAME"):
            return ClockOf(self.advance().text)
        token = self.peek()
        raise ParseError(f"expected a clock expression, found {token.text!r}", token.line, token.column)

    # -- signal expressions ---------------------------------------------------
    def expression(self) -> Expression:
        return self.default_expression()

    def default_expression(self) -> Expression:
        left = self.when_expression()
        while self.accept("DEFAULT"):
            right = self.when_expression()
            left = Default(left, right)
        return left

    def when_expression(self) -> Expression:
        left = self.or_expression()
        while True:
            if self.accept("WHEN"):
                condition = self.or_expression()
                left = When(left, condition)
            elif self.accept("PRE"):
                initial = self.constant_value()
                left = Pre(left, initial)
            elif self.accept("CELL"):
                condition = self.or_expression()
                self.expect("INIT")
                initial = self.constant_value()
                left = Cell(left, condition, initial)
            else:
                return left

    def or_expression(self) -> Expression:
        left = self.and_expression()
        while self.check("OR") or self.check("XOR"):
            operator = self.advance().text
            right = self.and_expression()
            left = BinaryOp(operator, left, right)
        return left

    def and_expression(self) -> Expression:
        left = self.comparison_expression()
        while self.accept("AND"):
            right = self.comparison_expression()
            left = BinaryOp("and", left, right)
        return left

    def comparison_expression(self) -> Expression:
        left = self.additive_expression()
        while self.check("COMPARE"):
            operator = self.advance().text
            right = self.additive_expression()
            left = BinaryOp(operator, left, right)
        return left

    def additive_expression(self) -> Expression:
        left = self.multiplicative_expression()
        while self.check("ARITH") and self.peek().text in ("+", "-"):
            operator = self.advance().text
            right = self.multiplicative_expression()
            left = BinaryOp(operator, left, right)
        return left

    def multiplicative_expression(self) -> Expression:
        left = self.unary_expression()
        while self.check("ARITH") and self.peek().text in ("*", "/"):
            operator = self.advance().text
            right = self.unary_expression()
            left = BinaryOp(operator, left, right)
        return left

    def unary_expression(self) -> Expression:
        if self.accept("NOT"):
            return UnaryOp("not", self.unary_expression())
        if self.check("ARITH", "-"):
            self.advance()
            return UnaryOp("-", self.unary_expression())
        return self.primary_expression()

    def primary_expression(self) -> Expression:
        if self.accept("TRUE"):
            return Const(True)
        if self.accept("FALSE"):
            return Const(False)
        if self.check("NUMBER"):
            return Const(self.number_value(self.advance().text))
        if self.check("NAME"):
            return Ref(self.advance().text)
        if self.accept("LPAREN"):
            inner = self.expression()
            self.expect("RPAREN")
            return inner
        token = self.peek()
        raise ParseError(f"expected an expression, found {token.text!r}", token.line, token.column)

    def constant_value(self) -> object:
        if self.accept("TRUE"):
            return True
        if self.accept("FALSE"):
            return False
        if self.check("ARITH", "-"):
            self.advance()
            return -self.number_value(self.expect("NUMBER").text)
        if self.check("NUMBER"):
            return self.number_value(self.advance().text)
        token = self.peek()
        raise ParseError(f"expected a constant, found {token.text!r}", token.line, token.column)

    @staticmethod
    def number_value(text: str) -> object:
        return float(text) if "." in text else int(text)


def parse_program(source: str) -> Dict[str, ProcessDefinition]:
    """Parse a program: a sequence of process definitions, keyed by name."""
    return _Parser(tokenize(source)).program()


def parse_process(source: str) -> ProcessDefinition:
    """Parse a program containing exactly one process and return it."""
    processes = parse_program(source)
    if len(processes) != 1:
        raise ParseError(f"expected exactly one process, found {len(processes)}", 1, 1)
    return next(iter(processes.values()))
