"""Plain-text format for hand-written polynomial optimization problems.

One statement per line::

    var x1 x2 x3        # declare variables (first statement)
    min <polynomial>    # objective
    eq <polynomial>     # equality constraint, = 0
    ge <polynomial>     # inequality constraint, >= 0
    ball 300            # optional, once: append the inequality c - f >= 0

Polynomials are conventional infix expressions over the declared names with
+ - * / ^ and parentheses; '/' is only allowed by a numeric constant, and a
power has exponent <= 64 and degree <= 2^32.  Every number and every
coefficient must be a finite double: a literal such as 1e999, or a product
such as 1e200*1e200, is an error.  Blank lines and '#' comments are ignored.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .moment import EQ, GE
from .poly import Polynomial, _merge

__all__ = [
    "PopProblem",
    "PopFormatError",
    "parse_polynomial",
    "format_polynomial",
    "parse_pop",
    "format_pop",
]


class PopFormatError(ValueError):
    pass


@dataclass
class PopProblem:
    var_names: tuple[str, ...]
    objective: Polynomial
    constraints: list = field(default_factory=list)  # [(Polynomial, "eq"/"ge")]
    ball: float | None = None


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _shown(val: str | None) -> str:
    """A token's text for an error message; None is the end of the line."""
    return "end of line" if val is None else repr(val)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise PopFormatError(f"cannot tokenize {rest!r}")
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break
    return tokens


@lru_cache(maxsize=None)
def _atoms(n: int) -> tuple[Polynomial, tuple[Polynomial, ...]]:
    """1 and the n variables: each number scales 1, each name is a variable."""
    return Polynomial.constant(n, 1.0), tuple(Polynomial.variables(n))


class _Parser:
    """Recursive-descent parser for the infix polynomial grammar."""

    def __init__(self, tokens, var_index, n):
        self.tokens = tokens
        self.pos = 0
        self.var_index = var_index
        self.n = n
        self.one, self.variables = _atoms(n)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise PopFormatError(f"expected {op!r}, got {_shown(val)}")

    def parse(self) -> Polynomial:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            p = self.expr()
        if self.pos != len(self.tokens):
            raise PopFormatError(f"trailing input near {self.peek()[1]!r}")
        if not np.isfinite(p.coeffs).all():
            raise PopFormatError("a coefficient overflows a double")
        return p

    def expr(self) -> Polynomial:
        """A signed sum of terms: their rows are gathered as they are read
        and merged once, so a sum of T terms costs O(T log T), and a
        repeated monomial's coefficients add in the order of the text."""
        exponents, coeffs = [], []
        while True:
            kind, val = self.peek()
            sign = -1.0 if (kind, val) == ("op", "-") else 1.0
            if kind == "op" and val in "+-":
                self.take()
            elif exponents:
                return _merge(np.concatenate(exponents), np.concatenate(coeffs))
            p = self.term()
            exponents.append(p.exponents)
            coeffs.append(sign * p.coeffs)

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                q = self.factor()
                if val == "*":
                    p = p * q
                else:
                    if q.degree != 0:
                        raise PopFormatError("division only by numeric constants")
                    denom = q.coefficient((0,) * self.n)
                    if denom == 0.0:
                        raise PopFormatError("division by zero")
                    p = p * (1.0 / denom)
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.base()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "num" or not re.fullmatch(r"\d+", val):
                raise PopFormatError(f"exponent must be a nonnegative integer, got {_shown(val)}")
            exponent = int(val)
            # other nodes add degrees, so a line of T tokens has degree below
            # T * 2^32: its exponents stay far inside the int64 range
            if exponent > 64 or p.degree * exponent > 2**32:
                raise PopFormatError(f"power {exponent} of a degree-{p.degree} factor too large "
                                     "(limits: exponent 64, degree 2^32)")
            p = p**exponent
        return p

    def base(self) -> Polynomial:
        kind, val = self.take()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise PopFormatError(f"number {val!r} overflows a double")
            return self.one * value
        if kind == "name":
            if val not in self.var_index:
                raise PopFormatError(f"unknown variable {val!r}")
            return self.variables[self.var_index[val]]
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        if kind == "op" and val == "-":
            return -self.factor()
        raise PopFormatError("unexpected end of line" if val is None else f"unexpected token {val!r}")


def parse_polynomial(text: str, var_names) -> Polynomial:
    var_names = tuple(var_names)
    var_index = {name: i for i, name in enumerate(var_names)}
    return _Parser(_tokenize(text), var_index, len(var_names)).parse()


def _format_coeff(c: float) -> str:
    return repr(int(c)) if float(c).is_integer() and abs(c) < 1e15 else repr(float(c))


def format_polynomial(p: Polynomial, var_names) -> str:
    """Canonical rendering: terms in descending graded-lex order; parsing the
    output reproduces the polynomial exactly."""
    var_names = tuple(var_names)
    if len(var_names) != p.n:
        raise ValueError(f"need {p.n} variable names, got {len(var_names)}")
    if p.is_zero:
        return "0"
    parts = []
    for alpha, coeff in zip(p.exponents[::-1].tolist(), p.coeffs[::-1].tolist()):
        factors = []
        for name, a in zip(var_names, alpha):
            if a == 1:
                factors.append(name)
            elif a > 1:
                factors.append(f"{name}^{a}")
        mag = abs(coeff)
        if factors and mag == 1.0:
            body = "*".join(factors)
        elif factors:
            body = "*".join([_format_coeff(mag)] + factors)
        else:
            body = _format_coeff(mag)
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, body))
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def parse_pop(text: str) -> PopProblem:
    var_names: tuple[str, ...] | None = None
    objective: Polynomial | None = None
    constraints: list = []
    ball: float | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        head = head.lower()
        try:
            if head == "var":
                if var_names is not None:
                    raise PopFormatError("duplicate var statement")
                names = tuple(rest.split())
                if not names or len(set(names)) != len(names):
                    raise PopFormatError("var needs distinct names")
                var_names = names
            elif head in ("min", "eq", "ge"):
                if var_names is None:
                    raise PopFormatError("var statement must come first")
                p = parse_polynomial(rest, var_names)
                if head == "min":
                    if objective is not None:
                        raise PopFormatError("duplicate min statement")
                    objective = p
                else:
                    constraints.append((p, EQ if head == "eq" else GE))
            elif head == "ball":
                if ball is not None:
                    raise PopFormatError("duplicate ball statement")
                try:
                    ball = float(rest.strip())
                except ValueError:
                    raise PopFormatError(f"ball needs a number, got {rest.strip()!r}")
                if not math.isfinite(ball):
                    raise PopFormatError(f"ball needs a finite number, got {rest.strip()!r}")
            else:
                raise PopFormatError(f"unknown statement {head!r}")
        except PopFormatError as exc:
            raise PopFormatError(f"line {lineno}: {exc}") from None
    if var_names is None or objective is None:
        raise PopFormatError("a problem needs both var and min statements")
    return PopProblem(var_names=var_names, objective=objective,
                      constraints=constraints, ball=ball)


def format_pop(problem: PopProblem) -> str:
    lines = ["var " + " ".join(problem.var_names)]
    lines.append("min " + format_polynomial(problem.objective, problem.var_names))
    for g, kind in problem.constraints:
        lines.append(f"{kind} " + format_polynomial(g, problem.var_names))
    if problem.ball is not None:
        lines.append(f"ball {problem.ball!r}")
    return "\n".join(lines) + "\n"
