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

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import BasmError, ParseError
from .geometry import Circle, Line, Point
from .literals import render_value
from .state import (
    ANY,
    BOOLEAN,
    CIRCLE,
    DYNAMIC,
    INTEGER,
    LINE,
    ORACLE,
    POINT,
    UNDEF,
    Sort,
    Symbol,
    Vocabulary,
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
    _pid: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def program_id(self) -> str:
        """Content hash of the canonical program text.

        The text omits which statics are reclassified as oracles, so a line
        naming them is hashed too; with none, the hash is of the text alone.
        """
        if self._pid is None:
            text = pretty(self)
            statics = sorted(self.vocabulary.oracle_statics)
            if statics:
                text += "oracle-static " + " ".join(statics) + "\n"
            self._pid = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._pid


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

_TWO_CHAR = (":=", "<=", ">=", "!=")
_ONE_CHAR = "{}();,:=<>+-*"


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | kw | punct | eof
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i, n = 1, 1, 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(Token("number", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        pair = source[i : i + 2]
        if pair in _TWO_CHAR:
            tokens.append(Token("punct", pair, line, start_col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line=line, column=col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- parser ------------------------------------------------------------------

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

# How deep subterms and subrules may nest. The parser recurses through 13
# Python frames per parenthesis and 15 per argument, so 48 levels take at most
# 720 of the interpreter's default 1000 and leave room for the caller's stack;
# every corpus program is at most 5 deep.
MAX_NESTING = 48


class _Parser:
    def __init__(self, tokens: list[Token], oracle_statics=()):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.vocab = Vocabulary(oracle_statics)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None, kind: str = "parse"):
        tok = tok or self.peek()
        raise ParseError(message, line=tok.line, column=tok.column, kind=kind)

    def nested(self, parse):
        """`parse()` one nesting level deeper, failing past MAX_NESTING."""
        if self.depth >= MAX_NESTING:
            self.fail(f"nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        result = parse()
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

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "kw" or tok.text != word:
            self.fail(f"expected {word!r}, found {tok.text!r}")
        return self.next()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == word

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected a name, found {tok.text!r}")
        return self.next()

    # vocabulary ---------------------------------------------------------

    def parse_program(self) -> Program:
        self.expect_kw("vocab")
        self.expect_punct("{")
        while not self.at_punct("}"):
            self.parse_decl()
        self.expect_punct("}")
        mode_tok = self.peek()
        if self.at_kw("do"):
            self.next()
            self.expect_kw("until")
            halt, halt_sort = self.parse_whole_term()
            self._check_sort(halt_sort, BOOLEAN, mode_tok, "halting condition")
            if contains_oracle(halt):
                self.fail(
                    "halting condition may not query an oracle",
                    mode_tok,
                    kind="interactive-halt",
                )
            self.expect_punct("{")
            rule = self.parse_rule()
            self.expect_punct("}")
            mode = DO_UNTIL
        elif self.at_kw("iterate"):
            self.next()
            self.expect_punct("{")
            rule = self.parse_rule()
            self.expect_punct("}")
            for t in rule_terms(rule):
                if contains_oracle(t):
                    self.fail(
                        "implicit iteration cannot contain oracle queries",
                        mode_tok,
                        kind="interactive-fixpoint",
                    )
            mode, halt = ITERATE, None
        else:
            self.fail("expected 'do until' or 'iterate' after the vocab block")
        tok = self.peek()
        if tok.kind != "eof":
            self.fail("trailing input after the program body", tok)
        return Program(self.vocab, mode, halt, rule)

    def parse_decl(self):
        tok = self.peek()
        try:
            if self.at_kw("enum"):
                self.next()
                name = self.expect_ident().text
                self.expect_punct("{")
                members = [self.expect_ident().text]
                while self.at_punct(","):
                    self.next()
                    members.append(self.expect_ident().text)
                self.expect_punct("}")
                self.vocab.declare_enum(name, members)
            elif self.at_kw("var"):
                self.next()
                names = [self.expect_ident()]
                while self.at_punct(","):
                    self.next()
                    names.append(self.expect_ident())
                if len(names) == 1 and self.at_punct("("):
                    arg_sorts = self.parse_sort_list()
                    self.expect_punct(":")
                    result = self.parse_sort_name()
                    self.vocab.declare(names[0].text, arg_sorts, result, DYNAMIC)
                else:
                    self.expect_punct(":")
                    result = self.parse_sort_name()
                    for nm in names:
                        self.vocab.declare(nm.text, (), result, DYNAMIC)
            elif self.at_kw("oracle"):
                self.next()
                name = self.expect_ident().text
                arg_sorts = self.parse_sort_list()
                self.expect_punct(":")
                result = self.parse_sort_name()
                self.vocab.declare(name, arg_sorts, result, ORACLE)
            elif self.at_kw("static"):
                self.next()
                name = self.expect_ident().text
                arg_sorts = self.parse_sort_list()
                self.expect_punct(":")
                result = self.parse_sort_name()
                self.vocab.redeclare_static(name, arg_sorts, result)
            else:
                self.fail("expected a declaration (enum, var, static, or oracle)")
        except ParseError:
            raise
        except BasmError as e:  # vocabulary-level errors get the line position
            self.fail(e.message, tok, kind=e.kind)

    def parse_sort_list(self) -> tuple[Sort, ...]:
        self.expect_punct("(")
        sorts = []
        if not self.at_punct(")"):
            sorts.append(self.parse_sort_name())
            while self.at_punct(","):
                self.next()
                sorts.append(self.parse_sort_name())
        self.expect_punct(")")
        return tuple(sorts)

    def parse_sort_name(self) -> Sort:
        tok = self.expect_ident()
        sort = self.vocab.sorts.get(tok.text)
        if sort is None:
            self.fail(f"unknown sort: {tok.text}", tok, kind="sort")
        return sort

    # rules --------------------------------------------------------------

    def parse_rule(self) -> Rule:
        if self.at_kw("skip"):
            self.next()
            return Skip()
        if self.at_kw("par"):
            self.next()
            self.expect_punct("{")
            rules = [self.nested(self.parse_rule)]
            while self.at_punct(";"):
                self.next()
                if self.at_punct("}"):
                    break
                rules.append(self.nested(self.parse_rule))
            self.expect_punct("}")
            return Par(tuple(rules))
        if self.at_kw("if"):
            self.next()
            guard_tok = self.peek()
            guard, guard_sort = self.parse_whole_term()
            self._check_sort(guard_sort, BOOLEAN, guard_tok, "guard")
            self.expect_kw("then")
            then_rule = self.nested(self.parse_rule)
            else_rule = None
            if self.at_kw("else"):
                self.next()
                else_rule = self.nested(self.parse_rule)
            return Cond(guard, then_rule, else_rule)
        if self.at_punct("{"):  # transparent grouping
            self.next()
            inner = self.nested(self.parse_rule)
            self.expect_punct("}")
            return inner
        return self.parse_assign()

    def parse_assign(self) -> Assign:
        tok = self.expect_ident()
        sym = self.vocab.symbol(tok.text)
        if sym is None:
            self.fail(f"unknown symbol: {tok.text}", tok, kind="sort")
        if sym.kind != DYNAMIC:
            self.fail(f"cannot assign to {sym.kind} symbol {sym.name}", tok, kind="sort")
        if self.at_punct("("):
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
        self.expect_punct(":=")
        rhs_tok = self.peek()
        rhs, rhs_sort = self.parse_whole_term()
        self._check_sort(rhs_sort, sym.result_sort, rhs_tok, f"assignment to {sym.name}")
        return Assign(target, rhs)

    # terms --------------------------------------------------------------

    def _check_sort(self, actual: Sort, expected: Sort, tok: Token, what: str):
        if actual is ANY or expected is ANY:
            return
        if actual is not expected:
            self.fail(
                f"{what} has sort {actual.name}, expected {expected.name}", tok, kind="sort"
            )

    def parse_term(self) -> tuple[Term, Sort]:
        return self._binary_chain(self.parse_and, ("or",))

    def _binary_chain(self, sub, ops) -> tuple[Term, Sort]:
        term, sort = sub()
        while self.peek().kind in ("kw", "punct") and self.peek().text in ops:
            op_tok = self.next()
            sym = self.vocab.symbols[op_tok.text]
            self._check_sort(sort, sym.arg_sorts[0], op_tok, f"left operand of {op_tok.text}")
            rhs, rhs_sort = sub()
            self._check_sort(rhs_sort, sym.arg_sorts[1], op_tok, f"right operand of {op_tok.text}")
            term, sort = App(sym, (term, rhs)), sym.result_sort
        return term, sort

    def parse_and(self):
        return self._binary_chain(self.parse_not, ("and",))

    def parse_not(self):
        if self.at_kw("not"):
            op_tok = self.next()
            sym = self.vocab.symbols["not"]
            arg, arg_sort = self.nested(self.parse_not)
            self._check_sort(arg_sort, BOOLEAN, op_tok, "operand of not")
            return App(sym, (arg,)), BOOLEAN
        return self.parse_cmp()

    def parse_cmp(self):
        term, sort = self.parse_add()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in _CMP_OPS:
            op_tok = self.next()
            sym = self.vocab.symbols[op_tok.text]
            rhs, rhs_sort = self.parse_add()
            if op_tok.text in ("=", "!="):
                if sort is not ANY and rhs_sort is not ANY and sort is not rhs_sort:
                    self.fail(
                        f"cannot compare {sort.name} with {rhs_sort.name}", op_tok, kind="sort"
                    )
            else:
                self._check_sort(sort, INTEGER, op_tok, f"left operand of {op_tok.text}")
                self._check_sort(rhs_sort, INTEGER, op_tok, f"right operand of {op_tok.text}")
            return App(sym, (term, rhs)), BOOLEAN
        return term, sort

    def parse_add(self):
        return self._binary_chain(self.parse_mul, ("+", "-"))

    def parse_mul(self):
        return self._binary_chain(self.parse_unary, ("*", "mod"))

    def parse_unary(self):
        if self.at_punct("-"):
            op_tok = self.next()
            operand, sort = self.nested(self.parse_unary)
            self._check_sort(sort, INTEGER, op_tok, "operand of unary minus")
            if isinstance(operand, Lit) and isinstance(operand.value, int):
                return Lit(-operand.value), INTEGER
            sym = self.vocab.symbols["-"]
            return App(sym, (Lit(0), operand)), INTEGER
        return self.parse_atom()

    def parse_atom(self) -> tuple[Term, Sort]:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            if "." in tok.text or "e" in tok.text or "E" in tok.text:
                self.fail("fractional literals are only allowed inside point(..)", tok)
            return Lit(int(tok.text)), INTEGER
        if tok.kind == "kw":
            if tok.text == "true":
                self.next()
                return Lit(True), BOOLEAN
            if tok.text == "false":
                self.next()
                return Lit(False), BOOLEAN
            if tok.text == "undef":
                self.next()
                return Lit(UNDEF), ANY
            if tok.text in ("point", "circle", "line"):
                return self.parse_geometry_literal()
            self.fail(f"unexpected keyword {tok.text!r} in a term", tok)
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            term, sort = self.nested(self.parse_term)
            self.expect_punct(")")
            return term, sort
        if tok.kind == "ident":
            self.next()
            sym = self.vocab.symbol(tok.text)
            if sym is not None:
                if self.at_punct("("):
                    args = self.parse_term_args(sym, tok)
                    return App(sym, args), sym.result_sort
                if sym.arity != 0:
                    self.fail(f"{sym.name} expects {sym.arity} argument(s)", tok, kind="sort")
                if sym.kind == DYNAMIC:
                    return Var(sym), sym.result_sort
                return App(sym, ()), sym.result_sort
            member = self.vocab.member(tok.text)
            if member is not None:
                return Lit(member), self.vocab.sorts[member.sort_name]
            self.fail(f"unknown symbol: {tok.text}", tok, kind="sort")
        self.fail(f"unexpected {tok.text!r} in a term", tok)

    def parse_term_args(self, sym: Symbol, name_tok: Token) -> tuple[Term, ...]:
        self.expect_punct("(")
        args: list[Term] = []
        if not self.at_punct(")"):
            args.append(self._parse_arg(sym, len(args), name_tok))
            while self.at_punct(","):
                self.next()
                args.append(self._parse_arg(sym, len(args), name_tok))
        self.expect_punct(")")
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

    def parse_geometry_literal(self) -> tuple[Term, Sort]:
        head = self.next()
        if head.text == "point":
            self.expect_punct("(")
            x = self.parse_signed_number()
            self.expect_punct(",")
            y = self.parse_signed_number()
            self.expect_punct(")")
            return Lit(Point(x, y)), POINT
        make, sort = (Circle, CIRCLE) if head.text == "circle" else (Line, LINE)
        self.expect_punct("(")
        first, _ = self.parse_geometry_literal_point()
        self.expect_punct(",")
        second, _ = self.parse_geometry_literal_point()
        self.expect_punct(")")
        return Lit(make(first, second)), sort

    def parse_geometry_literal_point(self):
        tok = self.peek()
        if not (tok.kind == "kw" and tok.text == "point"):
            self.fail("expected point(..)", tok)
        lit, sort = self.parse_geometry_literal()
        return lit.value, sort

    def parse_signed_number(self) -> float:
        negative = False
        if self.at_punct("-"):
            self.next()
            negative = True
        tok = self.peek()
        if tok.kind != "number":
            self.fail("expected a number", tok)
        self.next()
        value = float(tok.text)
        return -value if negative else value


def parse_program(source: str, oracle_statics=()) -> Program:
    """Parse and sort-check a program.

    `oracle_statics` names predeclared static symbols (such as `mod`) to treat
    as deterministic oracles in this program.
    """
    return _Parser(tokenize(source), oracle_statics).parse_program()


def parse_term_in(source: str, vocabulary: Vocabulary) -> Term:
    """Parse a single term against an existing vocabulary (mainly for tests)."""
    parser = _Parser(tokenize(source))
    parser.vocab = vocabulary
    term, _sort = parser.parse_whole_term()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail("trailing input after the term", tok)
    return term


# --- pretty-printer ----------------------------------------------------------

_PREC = {
    "or": 1,
    "and": 2,
    "not": 3,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "mod": 6,
}


def term_text(term: Term, parent_prec: int = 0) -> str:
    if isinstance(term, Lit):
        return render_value(term.value)
    if isinstance(term, Var):
        return term.symbol.name
    name = term.symbol.name
    prec = _PREC.get(name)
    if prec is None or (name == "-" and len(term.args) != 2):
        inner = ", ".join(term_text(a, 0) for a in term.args)
        return f"{name}({inner})"
    if name == "not":
        text = f"not {term_text(term.args[0], _PREC['not'])}"
    elif prec == 4:  # comparisons do not chain
        left = term_text(term.args[0], 5)
        right = term_text(term.args[1], 5)
        text = f"{left} {name} {right}"
    else:  # left-associative binary operators
        left = term_text(term.args[0], prec)
        right = term_text(term.args[1], prec + 1)
        text = f"{left} {name} {right}"
    if prec < parent_prec:
        return f"({text})"
    return text


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
        inner = []
        for i, r in enumerate(rule.rules):
            sep = ";" if i < len(rule.rules) - 1 else ""
            inner.append(f"{pad}  {_rule_text(r, indent + 2)}{sep}")
        return "par {\n" + "\n".join(inner) + f"\n{pad}}}"
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
