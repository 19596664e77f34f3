"""Rule mini-language: arithmetic expressions in one index variable n.

Grammar, lowest precedence first; same-precedence binary operators
associate to the left:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' atom)*
    atom   := NUMBER | 'n' | '(' expr ')'

Exponents must evaluate to integers.  The parsed tree is walked once, into
its post-order program.  Printing and *exact* rational-function analysis
(over Fraction coefficients: how certificates for rational rules are
derived without sampling) are two algebras of one fold over it;
evaluation at one index, and on a block of indices with the bits and
errors of the first, walk it with a value stack.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .convolution import (
    Certificate, Constant, Decay, Floor, ZeroTail, _per_index,
)


class RuleSyntaxError(ValueError):
    """Parse failure; position is the 1-based character index."""

    def __init__(self, message: str, position: int, expected: tuple):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = tuple(expected)


class RuleEvaluationError(ArithmeticError):
    """Evaluation failure at a specific probe index."""

    def __init__(self, message: str, index):
        super().__init__(f"{message} (at n = {index})")
        self.index = index


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "RuleExpr"


@dataclass(frozen=True)
class Add:
    left: "RuleExpr"
    right: "RuleExpr"


@dataclass(frozen=True)
class Sub:
    left: "RuleExpr"
    right: "RuleExpr"


@dataclass(frozen=True)
class Mul:
    left: "RuleExpr"
    right: "RuleExpr"


@dataclass(frozen=True)
class Div:
    left: "RuleExpr"
    right: "RuleExpr"


@dataclass(frozen=True)
class Pow:
    left: "RuleExpr"
    right: "RuleExpr"


RuleExpr = Union[Lit, Var, Neg, Add, Sub, Mul, Div, Pow]


def _program(expr: RuleExpr) -> list:
    """The one traversal: the tree's nodes in post-order, each after its
    operands and a left operand before the right one.  It keeps its own
    stack, so a tree as deep as a 2,000-term sum is walked too."""
    program, pending = [], [(expr, False)]
    while pending:
        node, operands_done = pending.pop()
        kind = type(node)
        if operands_done or kind is Lit or kind is Var:
            program.append(node)
        elif kind is Neg:
            pending += [(node, True), (node.operand, False)]
        else:
            pending += [(node, True), (node.right, False), (node.left, False)]
    return program


def _fold(expr: RuleExpr, algebra: dict):
    """Bottom-up over ``_program(expr)``: ``algebra[type(node)]`` combines
    what the operands folded to, left to right (_PRINT, _ANALYSE).  The
    two evaluators walk the same program with their own value stacks."""
    folded = []
    for node in _program(expr):
        kind = type(node)
        if kind is Lit:
            folded.append(algebra[Lit](node.value))
        elif kind is Var:
            folded.append(algebra[Var]())
        else:
            arity = 1 if kind is Neg else 2
            operands = folded[-arity:]
            del folded[-arity:]
            folded.append(algebra[kind](*operands))
    return folded[0]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

MAX_NESTING = 100  # open parentheses and unary minus signs at any point


class _Parser:
    """Recursive descent, two Python frames per unary minus and six per
    parenthesis, so nesting is capped at ``MAX_NESTING`` levels: deeper
    input is a syntax error, not a ``RecursionError``."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # 0-based cursor; reported positions are 1-based
        self.depth = 0

    def error(self, message, expected):
        raise RuleSyntaxError(message, self.pos + 1, expected)

    def nested(self, parse):
        """``parse()`` one level below the '(' or '-' just read."""
        if self.depth == MAX_NESTING:
            raise RuleSyntaxError(f"more than {MAX_NESTING} nested "
                                  f"parentheses and minus signs", self.pos, ())
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> RuleExpr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> RuleExpr:
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self) -> RuleExpr:
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.nested(self.unary))
        return self.power()

    def power(self) -> RuleExpr:
        node = self.atom()
        while self.peek() == "^":
            self.pos += 1
            node = Pow(node, self.atom())
        return node

    def atom(self) -> RuleExpr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.nested(self.expr)
            if self.peek() != ")":
                self.error("unbalanced parenthesis", ("')'",))
            self.pos += 1
            return node
        if ch == "n":
            self.pos += 1
            return Var()
        if ch.isdigit():
            start = self.pos
            text = self.text
            while self.pos < len(text) and text[self.pos].isdigit():
                self.pos += 1
            if self.pos < len(text) and text[self.pos] == ".":
                self.pos += 1
                if self.pos >= len(text) or not text[self.pos].isdigit():
                    self.error("digits expected after decimal point",
                               ("digit",))
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
            return Lit(float(text[start:self.pos]))
        self.error("operand expected", ("number", "'n'", "'('", "'-'"))


def parse_rule(text: str) -> RuleExpr:
    parser = _Parser(text)
    node = parser.expr()
    if parser.peek():
        parser.error(f"unexpected character {parser.peek()!r}",
                     ("operator", "end of input"))
    return node


# ---------------------------------------------------------------------------
# printing, an algebra of the fold, and evaluation at one index
# ---------------------------------------------------------------------------

def _fmt_number(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    text = repr(float(v))
    if "e" in text or "E" in text:
        text = format(v, ".20f").rstrip("0").rstrip(".")
    return text


def _wrap(operand, prec: int) -> str:
    text, inner = operand
    return f"({text})" if inner < prec else text


def _infix(op: str, prec: int):
    # left-associative: a right operand of the same precedence is wrapped
    return lambda left, right: (
        _wrap(left, prec) + op + _wrap(right, prec + 1), prec)


# each node prints as (text, precedence)
_PRINT = {
    Lit: lambda value: (_fmt_number(value), 5),
    Var: lambda: ("n", 5),
    Neg: lambda operand: ("-" + _wrap(operand, 3), 3),
    Add: _infix("+", 1), Sub: _infix("-", 1),
    Mul: _infix("*", 2), Div: _infix("/", 2),
    # '^' takes atoms on both sides, and every composite binds looser
    Pow: _infix("^", 4),
}


def format_rule(expr: RuleExpr) -> str:
    """Minimal-parenthesis rendering; parse(format_rule(e)) == e."""
    return _fold(expr, _PRINT)[0]


def _compile(expr: RuleExpr) -> Callable:
    # a walk of the program with a value stack, step for step the
    # reference interpreter's: operands left to right, then the checks
    program = [(type(node), getattr(node, "value", None))
               for node in _program(expr)]

    def rule(n):
        stack = []
        for kind, value in program:
            if kind is Lit:
                stack.append(value)
            elif kind is Var:
                # the index stays an exact int, so (-1)^n keeps its parity
                stack.append(int(n))
            elif kind is Neg:
                stack[-1] = -stack[-1]
            else:
                right = stack.pop()
                left = stack[-1]
                if kind is Add:
                    stack[-1] = left + right
                elif kind is Sub:
                    stack[-1] = left - right
                elif kind is Mul:
                    stack[-1] = left * right
                elif kind is Div:
                    if right == 0.0:
                        raise RuleEvaluationError("division by zero", n)
                    stack[-1] = left / right
                else:
                    stack[-1] = _raised(left, right, n)
        return stack[0]
    return rule


def _raised(base, exponent, n):
    if exponent != int(exponent):
        raise RuleEvaluationError(f"exponent {exponent} is not an integer",
                                  n)
    if base == 0.0 and exponent < 0:
        raise RuleEvaluationError("zero raised to a negative power", n)
    k = int(exponent)
    if base == -1:
        k %= 2  # a double exponent rounds above 2^53; keep the int's parity
    try:
        return float(base) ** k
    except OverflowError:
        raise RuleEvaluationError("power overflows a double", n) from None


def rule_callable(expr: RuleExpr) -> Callable:
    """The rule as a function of one non-negative index, evaluated in
    double precision; the program is built once.  The index stays an exact
    integer, so (-1)^n is exact up to INDEX_CAP; a power that overflows a
    double raises RuleEvaluationError.  Operands are evaluated left to
    right, so an error cites the first failing node.

    It calls no public name, because perfbench's traced runs count each
    callable it returns as one rule evaluation.  ``block_callable`` is the
    same rule on arrays of indices, and evaluates through this callable
    wherever it goes index by index."""
    return _compile(expr)


# ---------------------------------------------------------------------------
# evaluation on blocks of indices
# ---------------------------------------------------------------------------

_PER_INDEX_BELOW = 64  # indices; a smaller block costs less index by index
_SUB_BLOCK = 1 << 12  # indices evaluated as one array
_EXACT = 2 ** 53  # every integer up to here in modulus is a double


class _PerIndex(Exception):
    """A guard of the block evaluator, or Python's power, failed: evaluate
    the block index by index."""


_PY_POW = np.frompyfunc(operator.pow, 2, 1)


def _power(base, k):
    # Python's float ** int, element by element: np.power rounds some
    # powers differently (with numpy 2.4.6 on an AVX-512 x86-64, on 32 of
    # the 10^5 values of 3^(-n) and on 5,087 of those of (1/(n+1))^3).
    # Python converts an int exponent to a double and reads its parity
    # from the double, so an integral double exponent gives the bits of
    # the int, (-1)^k included, and the single-index k % 2 for a base of
    # -1 changes nothing here.  Python raises on an overflow and on a zero
    # base with a negative exponent.
    try:
        return np.asarray(_PY_POW(base, k), dtype=np.float64)
    except (ArithmeticError, ValueError):
        raise _PerIndex from None


def _integral(exponent):
    # x - trunc(x) is 0 for a finite integral x only, NaN for an infinite
    # one
    if (exponent - np.trunc(exponent) != 0.0).any():
        raise _PerIndex
    return exponent


def _integer_power(base, k):
    # integral doubles to the literal k >= 0, by squaring and multiplying
    power, square, bits = None, base, k
    while bits:
        if bits & 1:
            power = square if power is None else power * square
        bits >>= 1
        if bits:
            square = square * square
    if power is None:
        return np.ones_like(base)
    exact = np.abs(power) < _EXACT  # False for inf and NaN too
    return power if exact.all() else np.where(exact, power, _power(base, k))


def _sign_power(k):
    # (-1)^k for integral doubles k: halving them is exact
    half = k * 0.5
    return np.where(half == np.trunc(half), 1.0, -1.0)


def _two_power(j, k):
    # (2^j)^k for integral doubles k, as 2^(j*k): k * j is exact below
    # 2^53 in modulus, and beyond it far outside [-1100, 1024) all the same
    exponent = k * j
    if (exponent >= 1024).any():
        raise _PerIndex  # Python's power overflows
    # 2^-1100 rounds to 0, as every smaller power does
    return np.ldexp(1.0, np.maximum(exponent, -1100.0).astype(np.int64))


def _cut_power(literal, checked) -> Callable:
    # route (d) of _compile_block: the cut is signed like log2 |b|, and an
    # exponent k is past it where k <= -cut for |b| > 1, k >= -cut for
    # |b| < 1
    cut = 1100.0 * (1.0 + 2.0 ** -20) / math.log2(abs(literal))

    def step(left, right):
        k = checked(right)
        live = k > -cut if cut > 0 else k < -cut
        if live.all():
            return _power(left, k)
        out = 0.0 * _sign_power(k) if literal < 0 else np.zeros(np.shape(k))
        if live.any():
            out[live] = _power(left, k[live])
        return out
    return step


def _power_step(base, exponent) -> Callable:
    """A power node of the block evaluator, as a function of its operands'
    values, from what they folded to: route (a), (b), (c) or (d) of
    ``_compile_block``, or Python's power on every element.  Route (d)'s
    cut is fixed here, once per node."""
    (literal, _, integral), (k, k_integer, _) = base, exponent
    if k is not None and k.is_integer():
        k = int(k)
        if integral and k >= 0:
            return lambda left, right: _integer_power(left, k)
        return lambda left, right: _power(left, k)
    # an integer node is an exact integer already; a literal that is not
    # integral fails the check
    checked = (lambda right: right) if k_integer else _integral
    if literal is None or literal == 0.0 or not math.isfinite(literal):
        return lambda left, right: _power(left, checked(right))
    if literal == -1.0:
        return lambda left, right: _sign_power(checked(right))
    mantissa, j = math.frexp(literal)
    if mantissa == 0.5:  # a positive power of two, 2^(j-1)
        return lambda left, right: _two_power(j - 1, checked(right))
    return _cut_power(literal, checked)


def _exact(values):
    # an integer node's values, exact while their moduli stay below 2^53
    if not np.abs(values).max() < _EXACT:
        raise _PerIndex
    return values


def _compile_block(expr: RuleExpr) -> Callable:
    """The rule on a block of indices: a function of an int64 array of
    indices of at most 2^53 that walks ``_program(expr)`` on float64
    arrays, and raises ``_PerIndex`` where the block must be evaluated
    index by index instead.

    It gives the bits of ``rule_callable`` wherever it does not raise.
    There the index, and every + - * or negation whose operands are all
    such integer nodes, is an exact Python int; everything else is a
    double, with the same operations as numpy's.  Here an integer node is
    a double too, and it is exact:
    - an index of at most 2^53 converts to a double exactly;
    - + - and * of exact integers below 2^53 in modulus round once, and
      rounding is monotone, so an exact modulus of 2^53 or more rounds to
      at least 2^53;
    - so an integer node whose computed modulus is below 2^53 is exact,
      and any other raises ``_PerIndex``.  The test is strict, as an
      exact 2^53 + 1 rounds to 2^53.  It is made at every + - and * of
      integer nodes, as an inner node can pass 2^53 and then cancel.
    Negations and products of integer nodes add 0.0, as -(n-n) and
    -n*(n-n) are the int 0 but -0.0 as doubles.

    Powers go through Python's own power (``_power``), an integral literal
    exponent as the int that ``rule_callable`` raises to, except on four
    routes, chosen per node from its operands.  Routes (a)-(c) give the
    exact power.  It is a double, and Python's float ** int is the C
    library's pow, which returns such a power exactly: glibc's errs by far
    less than the distance to a rounding midpoint.  The routes are
    - (a) an integral node (an integral literal, the index, or a + - *
      or negation of such nodes, whose doubles are integers wherever
      they are finite) to a literal k >= 0, multiplied out in float64 by
      squaring.  Each partial product is exactly an integer of at most
      the power's modulus, and a rounded product of moduli of at least 1
      is at least either of them, so a partial product that reaches 2^53
      carries the power there: a power whose computed modulus is below
      2^53 is exact.  Nothing cancels, so the power alone is tested; an
      element where it fails, inf and NaN included, goes through
      ``_power``;
    - (b) the literal -1 to an integral exponent array: +1 or -1 by the
      parity of each double, as ``rule_callable``'s k % 2 reads it;
    - (c) a literal 2^j > 0 to an integral exponent array: 2^(j*k) by
      ``np.ldexp``, exact down to 2^-1074 and 0 below it, as pow is; from
      2^1024 on Python overflows and the block raises ``_PerIndex``;
    - (d) any other finite literal b != 0 to an integral exponent array:
      ``_power`` on the elements short of a cut fixed at compile time, and
      0.0 past it, where |b|^k <= 2^-1100 holds exactly.  Below 2^-1075
      the correctly rounded power is 0, and 2^-1074, the nearest other
      double, is (1 - 2^-26) ulp away, so a pow that errs by less than
      that (glibc's by 0.52 ulp) returns 0, as (c) assumes.  |b|^k is
      monotone in k, so the cut need only give |k| |log2 |b|| >= 1100 at
      itself: it is 1100 (1 + 2^-20) / log2 |b|, whose two roundings and
      the error of ``math.log2``, far below 2^-21 relatively (glibc's
      under one ulp), leave that margin.  Python's power takes |b| and
      negates the result for an odd exponent, so the zero is -0.0 for
      b < 0 and a k that is odd as (b) reads it.
    An exponent that is an integer node is integral; any other exponent
    array is checked.  A zero divisor, an exponent that is not an integer
    or not finite, a zero base raised to a negative power and an
    overflowing power raise ``_PerIndex``, where ``rule_callable`` checks
    or raises per index.
    """
    # steps[j] is (kind, arg) for the j-th node: a literal's np.float64,
    # whether a negation, sum, difference or product is of integer nodes,
    # whether a division checks its divisor, and a power's function of
    # its operands (_power_step)
    steps = []
    # (literal value or None, whether an integer node, whether integral:
    # an integral literal, the index, or a + - * or negation of such nodes)
    folded = []
    for node in _program(expr):
        kind = type(node)
        value, integer, integral, arg = None, False, False, None
        if kind is Lit:
            value, arg = node.value, np.float64(node.value)
            integral = value.is_integer()
        elif kind is Var:
            integer = integral = True
        elif kind is Neg:
            value, integer, integral = folded.pop()
            value, arg = None if value is None else -value, integer
        else:
            operands = folded[-2:]
            del folded[-2:]
            (_, left, left_integral), (literal, right, right_integral) = \
                operands
            if kind in (Add, Sub, Mul):
                integer = arg = left and right
                integral = left_integral and right_integral
            elif kind is Div:
                arg = literal is None or literal == 0.0
            else:
                arg = _power_step(*operands)
        folded.append((value, integer, integral))
        steps.append((kind, arg))

    def rule(n):
        index, stack = n.astype(np.float64), []
        for kind, arg in steps:
            if kind is Lit:
                stack.append(arg)
            elif kind is Var:
                stack.append(index)
            elif kind is Neg:
                stack[-1] = -stack[-1] + 0.0 if arg else -stack[-1]
            else:
                right = stack.pop()
                left = stack[-1]
                if kind is Add:
                    stack[-1] = _exact(left + right) if arg else left + right
                elif kind is Sub:
                    stack[-1] = _exact(left - right) if arg else left - right
                elif kind is Mul:
                    stack[-1] = _exact(left * right + 0.0) if arg \
                        else left * right
                elif kind is Div:
                    if arg and (right == 0.0).any():
                        raise _PerIndex
                    stack[-1] = left / right
                else:
                    stack[-1] = arg(left, right)
        return stack[0]
    return rule


def block_callable(expr: RuleExpr, from_phi: bool = False) -> Callable:
    """The rule on arrays of indices: a function of a one-dimensional int64
    array, with the values that ``rule_callable``'s callable gives index by
    index, bit for bit, and the error it raises first.  The array is
    float64 when every sub-block was evaluated as one array (a constant
    rule's single value broadcast over its sub-block), and complex128,
    with zero imaginary parts there, when any went index by index.  With
    ``from_phi`` the rule is a functional's value phi(t^n), and the
    function gives mu_n = n phi(t^(n-1)), as n * rule(n - 1) would per
    index.

    The array is evaluated in sub-blocks of ``_SUB_BLOCK`` indices by the
    block evaluator of ``_compile_block``, built here once.  A sub-block
    goes index by index, through the callable that ``rule_callable``
    returns, when it holds fewer than ``_PER_INDEX_BELOW`` indices, when
    the rule would read an index below 0 or above 2^53, or when a guard of
    the block evaluator fails, an integer node that leaves the exact range
    included: then the same error names the same index.  (With
    ``from_phi``, n * rule(n - 1) at n = 0 is the int 0 for an integer
    value and -0.0 for a negative double, so 0 goes per index too.)  So a
    traced run still counts each such evaluation, and every index read by
    ``DualSequence.at`` arrives there as a Python int.
    """
    scalar = rule_callable(expr)  # looked up here, so a wrapper sees it
    block = _compile_block(expr)
    shift = int(from_phi)
    per_index = _per_index(
        (lambda n: n * scalar(n - 1)) if from_phi else scalar)

    def as_array(idx):
        """The values of a sub-block as one array, or None."""
        if idx.size < _PER_INDEX_BELOW or idx.min() < shift \
                or idx.max() - shift > _EXACT:
            return None
        try:
            with np.errstate(all="ignore"):
                values = block(idx - shift)
                return idx * values if from_phi else values
        except _PerIndex:
            return None

    def rule(n):
        out = np.empty(n.shape)
        for lo in range(0, n.size, _SUB_BLOCK):
            idx = n[lo:lo + _SUB_BLOCK]
            values = as_array(idx)
            if values is None:
                out = out.astype(complex, copy=False)
                values = per_index(idx)
            out[lo:lo + _SUB_BLOCK] = values
        return out

    return rule


# ---------------------------------------------------------------------------
# exact rational-function analysis
# ---------------------------------------------------------------------------
# Polynomials are tuples of Fractions, index = power, trailing zeros trimmed.

def _ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(p, q):
    n = max(len(p), len(q))
    return _ptrim(tuple(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
        for i in range(n)))


def _pneg(p):
    return tuple(-a for a in p)


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ptrim(out)


def _ppow(p, k: int):
    """p^k by repeated squaring."""
    out = (Fraction(1),)
    while k:
        if k & 1:
            out = _pmul(out, p)
        k >>= 1
        if k:
            p = _pmul(p, p)
    return out


def _pdivmod(p, q):
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q) and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(q)
        factor = rem[-1] / q[-1]
        quo[shift] = factor
        for i, b in enumerate(q):
            rem[shift + i] -= factor * b
        rem.pop()
    return _ptrim(quo), _ptrim(rem)


def _pgcd(p, q):
    while q:
        _, r = _pdivmod(p, q)
        p, q = q, r
    if p:
        lead = p[-1]
        p = tuple(a / lead for a in p)
    return p


def _pshift(p, c: Fraction):
    """p(x + c) via Horner in (x + c)."""
    res = ()
    for a in reversed(p):
        res = _padd(_pmul(res, (c, Fraction(1))), (a,))
    return res


def _pderiv(p):
    derivative = tuple(i * a for i, a in enumerate(p))
    return _ptrim(derivative)[1:] if len(p) > 1 else ()


def _peval(p, x: Fraction) -> Fraction:
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def _root_bound(p) -> Fraction:
    """Cauchy bound: all real roots of p lie in [-B, B]."""
    if len(p) <= 1:
        return Fraction(0)
    lead = abs(p[-1])
    return 1 + max(abs(a) for a in p[:-1]) / lead


@dataclass(frozen=True)
class RationalProfile:
    """An exactly reduced rational function num/den in the index variable."""

    num: Tuple[Fraction, ...]
    den: Tuple[Fraction, ...]

    @staticmethod
    def make(num, den) -> "RationalProfile":
        num, den = _ptrim(num), _ptrim(den)
        if not den:
            raise ZeroDivisionError("rational profile with zero denominator")
        if not num:
            return RationalProfile((), (Fraction(1),))
        g = _pgcd(num, den)
        if len(g) > 1:
            num, _ = _pdivmod(num, g)
            den, _ = _pdivmod(den, g)
        lead = den[-1]
        num = tuple(a / lead for a in num)
        den = tuple(a / lead for a in den)
        return RationalProfile(num, den)

    @property
    def degree_gap(self) -> int:
        """deg(num) - deg(den); the zero numerator counts as degree -inf."""
        if not self.num:
            return -(10 ** 9)
        return (len(self.num) - 1) - (len(self.den) - 1)

    def constant_value(self) -> Optional[Fraction]:
        if len(self.den) == 1 and len(self.num) <= 1:
            return (self.num[0] / self.den[0]) if self.num else Fraction(0)
        return None

    def limit(self) -> Optional[Fraction]:
        """Limit as the index grows; None means unbounded."""
        gap = self.degree_gap
        if gap > 0:
            return None
        if gap < 0:
            return Fraction(0)
        return self.num[-1] / self.den[-1]

    def eval_exact(self, n: int) -> Fraction:
        den = _peval(self.den, Fraction(n))
        if den == 0:
            raise ZeroDivisionError(f"pole at n = {n}")
        return _peval(self.num, Fraction(n)) / den

    def compose_shift(self, c: int) -> "RationalProfile":
        """The profile of n -> f(n + c)."""
        return RationalProfile.make(_pshift(self.num, Fraction(c)),
                                    _pshift(self.den, Fraction(c)))

    def times_index(self) -> "RationalProfile":
        """The profile of n -> n * f(n)."""
        return RationalProfile.make(
            _pmul(self.num, (Fraction(0), Fraction(1))), self.den)

    def monotone_start(self) -> int:
        """Index past every pole, zero, and critical point of the function.

        Beyond it the function has constant sign and is monotone, so its
        modulus is monotone too.
        """
        dnum = _padd(_pmul(_pderiv(self.num), self.den),
                     _pneg(_pmul(self.num, _pderiv(self.den))))
        bound = max(_root_bound(self.num), _root_bound(self.den),
                    _root_bound(dnum))
        return int(bound) + 2


def _lift(value) -> Optional[RationalProfile]:
    """A literal's value as a constant profile; profiles and None pass."""
    if isinstance(value, float):
        return RationalProfile.make((Fraction(value),), (Fraction(1),))
    return value


# The analysis declines (None, as for a rule that is not rational) past
# these limits, where exact arithmetic alone could run for minutes.
_MAX_DEGREE = 64  # of an unreduced numerator or denominator
_MAX_BITS = 2 ** 16  # of a constant power's exact value


def _rational(parts: Callable) -> Callable:
    # a binary node: None unless both operands are rational and ``parts``,
    # the unreduced (num, den) of the result, has a non-zero denominator
    # and stays within _MAX_DEGREE
    def combine(left, right):
        left, right = _lift(left), _lift(right)
        if left is None or right is None:
            return None
        num, den = parts(left, right)
        if not den or max(len(num), len(den)) > _MAX_DEGREE + 1:
            return None
        return RationalProfile.make(num, den)
    return combine


def _sum(p, q):
    return (_padd(_pmul(p.num, q.den), _pmul(q.num, p.den)),
            _pmul(p.den, q.den))


def _power_profile(base, exponent) -> Optional[RationalProfile]:
    # only a literal exponent is analysed: an exponent that merely evaluates
    # to an integer, like 10^17+1-10^17 (0 in floating point, 1 exactly),
    # would certify another rule than the one evaluated
    base = _lift(base)
    if base is None or not isinstance(exponent, float) \
            or not exponent.is_integer():
        return None
    k = int(exponent)
    num, den = (base.num, base.den) if k >= 0 else (base.den, base.num)
    k, const = abs(k), base.constant_value()
    bits = 0 if const is None else k * max(const.numerator.bit_length(),
                                           const.denominator.bit_length())
    if k * (max(len(num), len(den)) - 1) > _MAX_DEGREE or bits > _MAX_BITS:
        return None
    num, den = _ppow(num, k), _ppow(den, k)
    return RationalProfile.make(num, den) if den else None  # 0^-k: none


# a literal folds to its float, and so does a negated literal; any other
# node folds to a RationalProfile, or None when it is not rational
_ANALYSE = {
    Lit: float,
    Var: lambda: RationalProfile((Fraction(0), Fraction(1)), (Fraction(1),)),
    Neg: lambda operand: -operand if isinstance(operand, float)
    else _ANALYSE[Sub](0.0, operand),
    Add: _rational(_sum),
    Sub: _rational(lambda p, q: _sum(p, RationalProfile(_pneg(q.num), q.den))),
    Mul: _rational(lambda p, q: (_pmul(p.num, q.num), _pmul(p.den, q.den))),
    Div: _rational(lambda p, q: (_pmul(p.num, q.den), _pmul(p.den, q.num))),
    Pow: _power_profile,
}


def rational_profile(expr: RuleExpr) -> Optional[RationalProfile]:
    """Exact rational form of a rule, or None when the rule is not rational
    in the index (e.g. an exponent containing the variable)."""
    return _lift(_fold(expr, _ANALYSE))


def _as_float(exact: Fraction, what: str, index: int) -> float:
    try:
        return float(exact)
    except OverflowError:
        raise RuleEvaluationError(f"the exact {what} of the rule exceeds "
                                  f"the float range", index) from None


def certificate_for(profile: RationalProfile,
                    min_start: int = 0) -> Union[Certificate, ZeroTail, None]:
    """Sound asymptotic certificate for an exactly known rational sequence.

    Returns ZeroTail for the zero function, Constant for constants, Decay
    when the function tends to zero, Floor when it has a non-zero limit or
    diverges, and None only on pathologies (a pole at some probe index is
    reported at evaluation time instead).
    """
    const = profile.constant_value()
    if const is not None:
        if const == 0:
            return ZeroTail(min_start)
        return Constant(_as_float(const, "constant", min_start), min_start)
    gap = profile.degree_gap
    start = max(profile.monotone_start(), min_start)
    if gap < 0:
        return Decay(start=start)
    if gap == 0:
        c = profile.limit()
        target = abs(c) / 2
        # deviation from the limit decays to zero and is monotone past its
        # own critical points, so a doubling scan finds the crossover
        dev = RationalProfile.make(
            _padd(profile.num, _pneg(_pmul((c,), profile.den))), profile.den)
        s = max(start, dev.monotone_start())
        while abs(dev.eval_exact(s)) > target:
            s *= 2
            if s > 1 << 40:  # unreachable for genuine rational decay
                return None
        return Floor(_as_float(target, "limit", s), start=s)
    # diverges: eventually monotone increasing in modulus.  start is past
    # the numerator's Cauchy root bound (monotone_start), so value != 0
    value = abs(profile.eval_exact(start))
    return Floor(_as_float(value, "value", start), start=start)
