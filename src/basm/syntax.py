"""Program syntax: AST, lexer, parser, and pretty-printer.

A program is a vocabulary block followed by a single loop:

    vocab {
      enum Node { u, v }
      var a: Integer
      var succ(Node): Node
      oracle Random(Integer, Integer): Integer
      static Inc(Point, Circle): Boolean     # optional mention of a builtin
    }
    do until d = a {
      if b > 0 then par { a := b; b := a mod b } else d := a
    }

The loop is either `do until H { R }`, which evaluates the oracle-free halting
term H before every step, or `iterate { R }`, which stops at the first step
whose updates change nothing. An `iterate` body containing an oracle symbol is
rejected at load time, as is an oracle inside a `do until` halting term.

The full grammar is written out in docs/grammar.md. `parse_program(pretty(p))`
reproduces `p` for any program built with the default symbol classification.
"""
from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import BasmError, ParseError
from .geometry import Circle, Line, Point
from .literals import NAME, NUMBER
from .state import (
    ANY,
    BOOLEAN,
    CIRCLE,
    DYNAMIC,
    INTEGER,
    LINE,
    MAX_INT_DIGITS,
    ORACLE,
    POINT,
    UNDEF,
    Sort,
    Symbol,
    Vocabulary,
    render_value,
)

# --- AST ---------------------------------------------------------------------


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    symbol: Symbol


@dataclass(frozen=True)
class App(Term):
    symbol: Symbol
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Lit(Term):
    value: object


class Rule:
    __slots__ = ()


@dataclass(frozen=True)
class Skip(Rule):
    pass


@dataclass(frozen=True)
class Assign(Rule):
    target: Term  # Var or App over a dynamic symbol with oracle-free arguments
    rhs: Term


@dataclass(frozen=True)
class Cond(Rule):
    guard: Term
    then_rule: Rule
    else_rule: Optional[Rule] = None


@dataclass(frozen=True)
class Par(Rule):
    rules: tuple[Rule, ...]


DO_UNTIL = "do-until"
ITERATE = "iterate"


@dataclass(eq=True)
class Program:
    vocabulary: Vocabulary
    mode: str  # DO_UNTIL | ITERATE
    halt: Optional[Term]
    step_rule: Rule

    @functools.cached_property
    def program_id(self) -> str:
        """Content hash of the canonical program text.

        The text omits which statics are reclassified as oracles, so a line
        naming them is hashed too; with none, the hash is of the text alone.
        """
        text = pretty(self)
        statics = sorted(self.vocabulary.oracle_statics)
        if statics:
            text += "oracle-static " + " ".join(statics) + "\n"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def iter_subterms(term: Term) -> Iterator[Term]:
    """The term and every subterm, innermost last."""
    if isinstance(term, App):
        for a in term.args:
            yield from iter_subterms(a)
    yield term


def rule_terms(rule: Rule) -> Iterator[Term]:
    """Every term occurring in a rule: guards, right-hand sides, and targets."""
    if isinstance(rule, Assign):
        yield rule.target
        yield rule.rhs
    elif isinstance(rule, Cond):
        yield rule.guard
        yield from rule_terms(rule.then_rule)
        if rule.else_rule is not None:
            yield from rule_terms(rule.else_rule)
    elif isinstance(rule, Par):
        for r in rule.rules:
            yield from rule_terms(r)


def term_depth(term: Term) -> int:
    """Applications on the longest path from the term down to a leaf. It goes
    level by level without recursing, so a term of any depth can be measured."""
    depth, level = 0, [term] if isinstance(term, App) else []
    while level:
        depth += 1
        level = [a for t in level for a in t.args if isinstance(a, App)]
    return depth


def contains_oracle(term: Term) -> bool:
    return any(
        isinstance(t, (App, Var)) and t.symbol.kind == ORACLE for t in iter_subterms(term)
    )


# --- lexer -------------------------------------------------------------------

KEYWORDS = frozenset(
    """vocab enum var static oracle do until iterate if then else par skip
       and or not mod true false undef point circle line""".split()
)

# Longest first, so that `:=` is read as one token and not as `:` and `=`.
PUNCTUATION = (
    ":=", "<=", ">=", "!=", "{", "}", "(", ")", ";", ",", ":", "=", "<", ">", "+", "-", "*"
)

# One token after the blanks before it. A `#` comment runs to the end of its
# line, so it comes only before a newline or the end of text; the `eof` group
# holds it, which puts the end of text where a final comment starts. A
# character that starts no token is `bad`.
_SCANNER = re.compile(
    rf"[ \t\r]*(?:(?P<ident>{NAME})|(?P<number>{NUMBER})"
    rf"|(?P<punct>{'|'.join(map(re.escape, PUNCTUATION))})"
    r"|(?P<eof>#[^\n]*|)(?:(?P<newline>\n)|\Z)|(?P<bad>.))"
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | kw | punct | eof
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while True:
        m = _SCANNER.match(source, pos)  # never None: `bad` takes any other character
        kind = m.lastgroup
        column = m.start(kind) - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "eof":
            tokens.append(Token("eof", "", line, column))
            return tokens
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line=line, column=column)
        else:
            text = m[kind]
            tokens.append(Token("kw" if text in KEYWORDS else kind, text, line, column))
        pos = m.end()


# --- parser ------------------------------------------------------------------

# The operator table, read by the parser and by `term_text`. Each operator,
# keyed by its text and arity, has a level; a higher level binds tighter.
# Binary operators associate to the left, except the comparisons, which do not
# chain. `not` and unary `-` are prefix operators whose operand is read at
# their own level, so `not` may not follow `+` and `x + not p` is an error.
_COMPARE = 4
_OPERATORS = {
    ("or", 2): 1,
    ("and", 2): 2,
    ("not", 1): 3,
    **dict.fromkeys([(op, 2) for op in ("=", "!=", "<", "<=", ">", ">=")], _COMPARE),
    ("+", 2): 5, ("-", 2): 5,
    ("*", 2): 6, ("mod", 2): 6,
    ("-", 1): 7,
}
_TIGHTEST = max(_OPERATORS.values())

# How deep subterms and subrules may nest. The parser recurses through 4
# Python frames per parenthesis in `x + (...)` and 5 per argument in `f(...)`;
# with every operator level before the bracket, as in `p or p and x = x + x *
# (...)`, it is 8 and 10. So 48 levels take at most 480 of the interpreter's
# default 1000 and leave room for the caller's stack; every corpus program is
# at most 5 deep.
MAX_NESTING = 48


_KEYWORD_LITERALS = {
    "true": (Lit(True), BOOLEAN),
    "false": (Lit(False), BOOLEAN),
    "undef": (Lit(UNDEF), ANY),
}
_SHAPES = {"circle": (Circle, CIRCLE), "line": (Line, LINE)}


def _differ(a: Sort, b: Sort) -> bool:
    """Whether two sorts differ; `ANY`, the sort of `undef`, differs from none."""
    return a is not b and a is not ANY and b is not ANY


class _Parser:
    def __init__(self, tokens: list[Token], vocab: Vocabulary):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.vocab = vocab

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None, kind: str = "parse"):
        tok = tok or self.peek()
        raise ParseError(message, line=tok.line, column=tok.column, kind=kind)

    def nested(self, parse, *args):
        """`parse(*args)` one nesting level deeper, failing past MAX_NESTING."""
        if self.depth >= MAX_NESTING:
            self.fail(f"nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        result = parse(*args)
        self.depth -= 1
        return result

    def bounded(self, term: Term, tok: Token) -> Term:
        """`term`, a whole term (one that is not part of another term), unless
        its applications nest deeper than MAX_NESTING: a chain `1 + ... + 1`
        is parsed by a loop but builds a tree as deep as it is long."""
        if term_depth(term) > MAX_NESTING:
            self.fail(f"nested deeper than {MAX_NESTING} levels", tok)
        return term

    def parse_whole_term(self) -> tuple[Term, Sort]:
        tok = self.peek()
        term, sort = self.parse_term()
        return self.bounded(term, tok), sort

    # A keyword or punctuation token is known by its text alone: a name is
    # never a keyword, and a name or number contains no punctuation.
    def at(self, text: str) -> bool:
        return self.peek().text == text

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected {text!r}, found {self.peek().text!r}")
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected a name, found {tok.text!r}")
        return self.next()

    def comma_list(self, read) -> list:
        """One or more items, each read by `read()`, separated by commas."""
        items = [read()]
        while self.at(","):
            self.next()
            items.append(read())
        return items

    # vocabulary ---------------------------------------------------------

    def parse_program(self) -> Program:
        self.expect("vocab")
        self.expect("{")
        while not self.at("}"):
            self.parse_decl()
        self.expect("}")
        mode_tok = self.next()
        halt = None
        if mode_tok.text == "do":
            self.expect("until")
            halt, halt_sort = self.parse_whole_term()
            self._check_sort(halt_sort, BOOLEAN, mode_tok, "halting condition")
            if contains_oracle(halt):
                message = "halting condition may not query an oracle"
                self.fail(message, mode_tok, kind="interactive-halt")
        elif mode_tok.text != "iterate":
            self.fail("expected 'do until' or 'iterate' after the vocab block", mode_tok)
        self.expect("{")
        rule = self.parse_rule()
        self.expect("}")
        if halt is None and any(contains_oracle(t) for t in rule_terms(rule)):
            message = "implicit iteration cannot contain oracle queries"
            self.fail(message, mode_tok, kind="interactive-fixpoint")
        tok = self.peek()
        if tok.kind != "eof":
            self.fail("trailing input after the program body", tok)
        return Program(self.vocab, DO_UNTIL if mode_tok.text == "do" else ITERATE, halt, rule)

    def parse_decl(self):
        tok = self.next()
        kw = tok.text
        try:
            if kw == "enum":
                name = self.expect_ident().text
                self.expect("{")
                members = self.comma_list(lambda: self.expect_ident().text)
                self.expect("}")
                self.vocab.declare_enum(name, members)
            elif kw in ("var", "oracle", "static"):
                # `name(sorts): sort`, or for `var` also `a, b: sort`
                names = self.comma_list(self.expect_ident) if kw == "var" else [self.expect_ident()]
                arg_sorts = []
                if kw != "var" or (len(names) == 1 and self.at("(")):
                    self.expect("(")
                    if not self.at(")"):
                        arg_sorts = self.comma_list(self.parse_sort_name)
                    self.expect(")")
                self.expect(":")
                result = self.parse_sort_name()
                for name in names:
                    if kw == "static":
                        self.vocab.redeclare_static(name.text, arg_sorts, result)
                    else:
                        kind = DYNAMIC if kw == "var" else ORACLE
                        self.vocab.declare(name.text, arg_sorts, result, kind)
            else:
                self.fail("expected a declaration (enum, var, static, or oracle)", tok)
        except ParseError:
            raise
        except BasmError as e:  # vocabulary-level errors get the line position
            self.fail(e.message, tok, kind=e.kind)

    def parse_sort_name(self) -> Sort:
        tok = self.expect_ident()
        sort = self.vocab.sorts.get(tok.text)
        if sort is None:
            self.fail(f"unknown sort: {tok.text}", tok, kind="sort")
        return sort

    # rules --------------------------------------------------------------

    def parse_rule(self) -> Rule:
        if self.at("skip"):
            self.next()
            return Skip()
        if self.at("par"):
            self.next()
            self.expect("{")
            rules = [self.nested(self.parse_rule)]
            while self.at(";"):
                self.next()
                if self.at("}"):
                    break
                rules.append(self.nested(self.parse_rule))
            self.expect("}")
            return Par(tuple(rules))
        if self.at("if"):
            self.next()
            guard_tok = self.peek()
            guard, guard_sort = self.parse_whole_term()
            self._check_sort(guard_sort, BOOLEAN, guard_tok, "guard")
            self.expect("then")
            then_rule = self.nested(self.parse_rule)
            else_rule = None
            if self.at("else"):
                self.next()
                else_rule = self.nested(self.parse_rule)
            return Cond(guard, then_rule, else_rule)
        if self.at("{"):  # transparent grouping
            self.next()
            inner = self.nested(self.parse_rule)
            self.expect("}")
            return inner
        return self.parse_assign()

    def parse_assign(self) -> Assign:
        tok = self.expect_ident()
        sym = self.vocab.symbol(tok.text)
        if sym is None:
            self.fail(f"unknown symbol: {tok.text}", tok, kind="sort")
        if sym.kind != DYNAMIC:
            self.fail(f"cannot assign to {sym.kind} symbol {sym.name}", tok, kind="sort")
        if self.at("("):
            args = self.parse_term_args(sym, tok)
            target: Term = self.bounded(App(sym, args), tok)
            for a in args:
                if contains_oracle(a):
                    self.fail(
                        f"assignment target arguments may not query an oracle", tok, kind="sort"
                    )
        else:
            if sym.arity != 0:
                self.fail(f"{sym.name} expects {sym.arity} argument(s)", tok, kind="sort")
            target = Var(sym)
        self.expect(":=")
        rhs_tok = self.peek()
        rhs, rhs_sort = self.parse_whole_term()
        self._check_sort(rhs_sort, sym.result_sort, rhs_tok, f"assignment to {sym.name}")
        return Assign(target, rhs)

    # terms --------------------------------------------------------------

    def _check_sort(self, actual: Sort, expected: Sort, tok: Token, what: str):
        if _differ(actual, expected):
            self.fail(f"{what} has sort {actual.name}, expected {expected.name}", tok, kind="sort")

    def parse_term(self, level: int = 1) -> tuple[Term, Sort]:
        """A term whose operators bind at `level` or tighter, read by
        precedence climbing over `_OPERATORS`. After an operator at level L
        the loop takes only operators at L or looser, and after a comparison
        only strictly looser ones, so comparisons do not chain."""
        tok = self.peek()
        ceiling = _OPERATORS.get((tok.text, 1), 0)
        if ceiling >= level:  # a prefix operator
            self.next()
            operand, sort = self.nested(self.parse_term, ceiling)
            if tok.text == "not":
                self._check_sort(sort, BOOLEAN, tok, "operand of not")
                term, sort = App(self.vocab.symbols["not"], (operand,)), BOOLEAN
            else:
                self._check_sort(sort, INTEGER, tok, "operand of unary minus")
                term, sort = App(self.vocab.symbols["-"], (Lit(0), operand)), INTEGER
                if isinstance(operand, Lit) and isinstance(operand.value, int):
                    term = Lit(-operand.value)
        else:
            term, sort = self.parse_atom()
            ceiling = _TIGHTEST
        while True:
            op_tok = self.peek()
            op = _OPERATORS.get((op_tok.text, 2), 0)
            if not level <= op <= ceiling:
                return term, sort
            self.next()
            sym = self.vocab.symbols[op_tok.text]
            left = f"left operand of {op_tok.text}"
            if op != _COMPARE:  # a comparison checks its operands after reading both
                self._check_sort(sort, sym.arg_sorts[0], op_tok, left)
            rhs, rhs_sort = self.parse_term(op + 1)
            if op == _COMPARE:
                if op_tok.text in ("=", "!=") and _differ(sort, rhs_sort):
                    message = f"cannot compare {sort.name} with {rhs_sort.name}"
                    self.fail(message, op_tok, kind="sort")
                self._check_sort(sort, sym.arg_sorts[0], op_tok, left)
            self._check_sort(rhs_sort, sym.arg_sorts[1], op_tok, f"right operand of {op_tok.text}")
            term, sort = App(sym, (term, rhs)), sym.result_sort
            ceiling = op - 1 if op == _COMPARE else op

    def parse_atom(self) -> tuple[Term, Sort]:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            if "." in tok.text or "e" in tok.text or "E" in tok.text:
                self.fail("fractional literals are only allowed inside point(..)", tok)
            if len(tok.text) > MAX_INT_DIGITS:
                self.fail(f"integer literal longer than {MAX_INT_DIGITS} digits", tok)
            return Lit(int(tok.text)), INTEGER
        if tok.kind == "kw":
            if tok.text in _KEYWORD_LITERALS:
                self.next()
                return _KEYWORD_LITERALS[tok.text]
            if tok.text == "point":
                return Lit(self.parse_point()), POINT
            if tok.text in _SHAPES:
                return self.parse_shape()
            self.fail(f"unexpected keyword {tok.text!r} in a term", tok)
        if tok.text == "(":
            self.next()
            term, sort = self.nested(self.parse_term)
            self.expect(")")
            return term, sort
        if tok.kind == "ident":
            self.next()
            sym = self.vocab.symbol(tok.text)
            if sym is not None:
                if self.at("("):
                    args = self.parse_term_args(sym, tok)
                    return App(sym, args), sym.result_sort
                if sym.arity != 0:
                    self.fail(f"{sym.name} expects {sym.arity} argument(s)", tok, kind="sort")
                if sym.kind == DYNAMIC:
                    return Var(sym), sym.result_sort
                return App(sym, ()), sym.result_sort
            sort = self.vocab.member_sort(tok.text)
            if sort is not None:
                return Lit(tok.text), sort
            self.fail(f"unknown symbol: {tok.text}", tok, kind="sort")
        self.fail(f"unexpected {tok.text!r} in a term", tok)

    def parse_term_args(self, sym: Symbol, name_tok: Token) -> tuple[Term, ...]:
        self.expect("(")
        args: list[Term] = []
        if not self.at(")"):
            args.append(self._parse_arg(sym, len(args), name_tok))
            while self.at(","):
                self.next()
                args.append(self._parse_arg(sym, len(args), name_tok))
        self.expect(")")
        if len(args) != sym.arity:
            self.fail(
                f"{sym.name} expects {sym.arity} argument(s), got {len(args)}",
                name_tok,
                kind="sort",
            )
        return tuple(args)

    def _parse_arg(self, sym: Symbol, index: int, name_tok: Token) -> Term:
        arg_tok = self.peek()
        term, sort = self.nested(self.parse_term)
        if index < sym.arity:
            self._check_sort(sort, sym.arg_sorts[index], arg_tok, f"argument of {sym.name}")
        return term

    def parse_shape(self) -> tuple[Term, Sort]:
        """`circle(point(..), point(..))` or `line(point(..), point(..))`."""
        make, sort = _SHAPES[self.next().text]
        self.expect("(")
        first = self.parse_point()
        self.expect(",")
        second = self.parse_point()
        self.expect(")")
        return Lit(make(first, second)), sort

    def parse_point(self) -> Point:
        tok = self.next()
        if tok.text != "point":
            self.fail("expected point(..)", tok)
        self.expect("(")
        x = self.parse_signed_number()
        self.expect(",")
        y = self.parse_signed_number()
        self.expect(")")
        return Point(x, y)

    def parse_signed_number(self) -> float:
        negative = False
        if self.at("-"):
            self.next()
            negative = True
        tok = self.peek()
        if tok.kind != "number":
            self.fail("expected a number", tok)
        self.next()
        value = float(tok.text)
        if not math.isfinite(value):
            self.fail(f"coordinate out of the float range: {tok.text}", tok)
        return -value if negative else value


def parse_program(source: str, oracle_statics=()) -> Program:
    """Parse and sort-check a program.

    `oracle_statics` names predeclared static symbols (such as `mod`) to treat
    as deterministic oracles in this program.
    """
    return _Parser(tokenize(source), Vocabulary(oracle_statics)).parse_program()


def parse_term_in(source: str, vocabulary: Vocabulary) -> Term:
    """Parse a single term against an existing vocabulary (mainly for tests)."""
    parser = _Parser(tokenize(source), vocabulary)
    term, _sort = parser.parse_whole_term()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail("trailing input after the term", tok)
    return term


# --- pretty-printer ----------------------------------------------------------

def term_text(term: Term, level: int = 0) -> str:
    """The term's text, in parentheses if its operator binds looser than
    `level`; the levels are those of `_OPERATORS`, which the parser reads."""
    if isinstance(term, Lit):
        return render_value(term.value)
    if isinstance(term, Var):
        return term.symbol.name
    name, args = term.symbol.name, term.args
    op = _OPERATORS.get((name, len(args)))
    if op is None:
        return f"{name}({', '.join(term_text(a) for a in args)})"
    if len(args) == 1:
        text = f"{name} {term_text(args[0], op)}"
    else:
        left = op + 1 if op == _COMPARE else op
        text = f"{term_text(args[0], left)} {name} {term_text(args[1], op + 1)}"
    return f"({text})" if op < level else text


def _ends_with_open_cond(rule: Rule) -> bool:
    while isinstance(rule, Cond):
        if rule.else_rule is None:
            return True
        rule = rule.else_rule
    return False


def _rule_text(rule: Rule, indent: int) -> str:
    pad = " " * indent
    if isinstance(rule, Skip):
        return "skip"
    if isinstance(rule, Assign):
        return f"{term_text(rule.target)} := {term_text(rule.rhs)}"
    if isinstance(rule, Par):
        inner = ";\n".join(f"{pad}  {_rule_text(r, indent + 2)}" for r in rule.rules)
        return f"par {{\n{inner}\n{pad}}}"
    if isinstance(rule, Cond):
        then_text = _rule_text(rule.then_rule, indent)
        if rule.else_rule is not None and _ends_with_open_cond(rule.then_rule):
            then_text = f"{{ {then_text} }}"
        text = f"if {term_text(rule.guard)} then {then_text}"
        if rule.else_rule is not None:
            text += f" else {_rule_text(rule.else_rule, indent)}"
        return text
    raise TypeError(f"not a rule: {rule!r}")


def pretty(program: Program) -> str:
    """Canonical program text; parsing it back reproduces the program."""
    lines = ["vocab {"]
    for kw, payload in program.vocabulary.declarations:
        if kw == "enum":
            members = ", ".join(payload.members)
            lines.append(f"  enum {payload.name} {{ {members} }}")
        else:
            sym = payload
            if kw == "var" and sym.arity == 0:
                lines.append(f"  var {sym.name}: {sym.result_sort.name}")
            else:
                args = ", ".join(s.name for s in sym.arg_sorts)
                lines.append(f"  {kw} {sym.name}({args}): {sym.result_sort.name}")
    lines.append("}")
    if program.mode == DO_UNTIL:
        lines.append(f"do until {term_text(program.halt)} {{")
    else:
        lines.append("iterate {")
    lines.append(f"  {_rule_text(program.step_rule, 2)}")
    lines.append("}")
    return "\n".join(lines) + "\n"
