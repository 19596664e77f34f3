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
(in integer polynomials: how certificates for rational rules are derived
without sampling) are two algebras of one fold over it; evaluation at one
index, and on a block of indices with the bits and errors of the first,
walk it with a value stack.
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
# Polynomials are tuples of ints, index = power, trailing zeros trimmed;
# gcds are heuristic, else primitive remainder sequences (Knuth, TAOCP 2).

def _padd(p, q):
    p, q = (p, q) if len(p) >= len(q) else (q, p)
    out = [a + (q[i] if i < len(q) else 0) for i, a in enumerate(p)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pneg(p):
    return tuple(-a for a in p)


def _pmul(p, q):
    if not p or not q:  # else the leads' product is the lead: Z is a domain
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _ppow(p, k: int):
    out = (1,)  # squared and multiplied along the bits of k from the top
    for bit in bin(k)[2:]:
        out = _pmul(out, out)
        out = _pmul(out, p) if bit == "1" else out
    return out


def _pdivide(p, q, exact: bool):
    """p / q if ``exact`` (q divides p over Z), else a non-zero multiple of
    p mod q: rem becomes lead(q)/g rem - top/g x^k q, g = gcd(top, lead q)."""
    rem, lead, m, quo = list(p), q[-1], len(q) - 1, []
    while len(rem) > m:
        top = rem.pop()
        g = lead if exact else math.gcd(top, lead)
        if g != lead:
            rem = [lead // g * a for a in rem]
        factor = top // g
        for i in range(m):
            rem[len(rem) - m + i] -= factor * q[i]
        quo.append(factor)
    return tuple(reversed(quo)) if exact else _padd(rem, ())


def _coprime(p, q, prime=(1 << 61) - 1):
    """Whether p and q are coprime mod a prime dividing neither lead, so
    over Q: a common factor keeps its degree mod it (Brown, J. ACM 1971)."""
    p, q = [a % prime for a in p], [a % prime for a in q]
    while len(q) > 1 and p[-1] and q[-1]:
        p, q = q, _padd([a % prime for a in _pdivide(p, q, False)], ())
    return len(q) == 1


def _primitive(p):
    c = math.gcd(*p) if p[-1] > 0 else -math.gcd(*p)
    return tuple(a // c for a in p)


def _pgcd(p, q):
    """The gcd of non-zero p and q, primitive with a positive lead: g, the
    primitive part of gcd(p(x), q(x)) in symmetric x-adic digits, if it
    divides both (Char, Geddes and Gonnet, J. Symb. Comput. 7, 1989: the
    roots of g's cofactor h in the gcd lie in |z| < x/2, so unless h is
    constant, |h(x)| > x/2 >= |content(g)|, a multiple of h(x))."""
    x = 2 * min(max(map(abs, p)), max(map(abs, q))) + 2
    value, digits = math.gcd(_peval(p, x), _peval(q, x)), []
    while value:
        digits.append((value + x // 2) % x - x // 2)
        value = (value - digits[-1]) // x
    g = _primitive(digits)
    divides = not (_pdivide(p, g, False) or _pdivide(q, g, False))
    return g if divides else _prs_gcd(p, q)


def _prs_gcd(p, q):
    """``_pgcd`` by a primitive remainder sequence."""
    while True:
        q = _primitive(q)
        r = _pdivide(p, q, False) if len(q) > 1 else ()
        if not r:
            return q
        p, q = q, r


def _pshift(p, c: int):
    """p(x + c): Horner's rule in x + c, in place (Taylor shift)."""
    out = list(p)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return tuple(out)


def _peval(p, x: int) -> int:
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def _monotone_start(num, den) -> int:
    """An index past the real roots of num, den and (num/den)'s numerator:
    p's roots lie in (-B-1, B+1) for Cauchy's bound B = 1 + max |a_i| //
    |lead|, a ratio that is the same for every multiple of p."""
    dn, dd = (tuple(i * a for i, a in enumerate(p))[1:] for p in (num, den))
    dnum = _padd(_pmul(dn, den), _pneg(_pmul(num, dd)))
    return 2 + max(1 + max(map(abs, p[:-1])) // abs(p[-1])
                   if len(p) > 1 else 0 for p in (num, den, dnum))


@dataclass(frozen=True)
class RationalProfile:
    """An exactly reduced rational function znum/zden in the index variable:
    coprime integer polynomials of joint content 1, zden's lead positive,
    so each function has one profile; ``num``/``den`` are monic views."""

    znum: Tuple[int, ...]
    zden: Tuple[int, ...]

    @staticmethod
    def make(num, den) -> "RationalProfile":
        """The profile of num/den, for trimmed integer polynomials."""
        if not den:
            raise ZeroDivisionError("rational profile with zero denominator")
        if not num:
            return RationalProfile((), (1,))
        if len(num) > 1 and len(den) > 1 and not _coprime(num, den):
            g = _pgcd(num, den)
            num, den = _pdivide(num, g, True), _pdivide(den, g, True)
        c = math.gcd(*num, *den) if den[-1] > 0 else -math.gcd(*num, *den)
        return RationalProfile(tuple(a // c for a in num),
                               tuple(a // c for a in den))

    num = property(lambda self: tuple(
        Fraction(a, self.zden[-1]) for a in self.znum))
    den = property(lambda self: tuple(
        Fraction(a, self.zden[-1]) for a in self.zden))

    @property
    def degree_gap(self) -> int:
        """deg(num) - deg(den); the zero numerator counts as degree -inf."""
        return len(self.znum) - len(self.zden) if self.znum else -(10 ** 9)

    def constant_value(self) -> Optional[Fraction]:
        if len(self.zden) == 1 and len(self.znum) <= 1:
            return Fraction(self.znum[0] if self.znum else 0, self.zden[0])
        return None

    def limit(self) -> Optional[Fraction]:
        """Limit as the index grows; None means unbounded."""
        gap = self.degree_gap
        return None if gap > 0 else Fraction(0) if gap < 0 else \
            Fraction(self.znum[-1], self.zden[-1])

    def eval_exact(self, n: int) -> Fraction:
        den = _peval(self.zden, n)
        if den == 0:
            raise ZeroDivisionError(f"pole at n = {n}")
        return Fraction(_peval(self.znum, n), den)

    def compose_shift(self, c: int) -> "RationalProfile":
        """The profile of n -> f(n + c).  Shifts by integers are ring
        automorphisms of Z[x] that keep leads: the pair stays reduced."""
        return RationalProfile(_pshift(self.znum, c), _pshift(self.zden, c))

    def times_index(self) -> "RationalProfile":
        """The profile of n -> n * f(n)."""
        return RationalProfile.make(_pmul(self.znum, (0, 1)), self.zden)

    def monotone_start(self) -> int:
        """Index past every pole, zero, and critical point of the function:
        beyond it the function has constant sign and a monotone modulus."""
        return _monotone_start(self.znum, self.zden)


def _lift(value) -> Optional[RationalProfile]:
    """A literal's value as a constant profile; profiles and None pass."""
    if isinstance(value, float):
        a, b = value.as_integer_ratio()  # in lowest terms, b > 0
        return RationalProfile((a,) if a else (), (b,))
    return value


# The analysis declines (None, as for a rule that is not rational) past
# these limits; the slowest rule found within them takes about 0.4 s.
_MAX_DEGREE = 64  # of an unreduced numerator or denominator
_MAX_BITS = 2 ** 16  # of a constant power's exact value


def _rational(parts: Callable) -> Callable:
    # a binary node: None unless both operands are rational and the
    # unreduced (num, den) = parts(...) has a den != 0, within _MAX_DEGREE
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
    return (_padd(_pmul(p.znum, q.zden), _pmul(q.znum, p.zden)),
            _pmul(p.zden, q.zden))


def _power_profile(base, exponent) -> Optional[RationalProfile]:
    # only a literal exponent is analysed: an exponent that merely evaluates
    # to an integer, like 10^17+1-10^17 (0 in floating point, 1 exactly),
    # would certify another rule than the one evaluated
    base = _lift(base)
    if base is None or not isinstance(exponent, float) \
            or not exponent.is_integer():
        return None
    k = int(exponent)
    num, den = (base.znum, base.zden) if k >= 0 else (base.zden, base.znum)
    k, degree = abs(k), max(len(num), len(den)) - 1
    # a constant's value has the bit length of its larger part
    bits = 0 if degree else k * max(map(abs, num + den)).bit_length()
    if k * degree > _MAX_DEGREE or bits > _MAX_BITS or not den:  # or 0^-k
        return None
    num, den = _ppow(num, k), _ppow(den, k)
    # the powers of a coprime pair of content 1 are one too
    return RationalProfile(num, den) if den[-1] > 0 else \
        RationalProfile(_pneg(num), _pneg(den))


# a literal folds to its float, and so does a negated literal; any other
# node folds to a RationalProfile, or None when it is not rational
_ANALYSE = {
    Lit: float,
    Var: lambda: RationalProfile((0, 1), (1,)),
    Neg: lambda operand: -operand if isinstance(operand, float) else
    operand and RationalProfile(_pneg(operand.znum), operand.zden),
    Add: _rational(_sum),
    Sub: lambda left, right: _ANALYSE[Add](left, _ANALYSE[Neg](right)),
    Mul: _rational(lambda p, q: (_pmul(p.znum, q.znum),
                                 _pmul(p.zden, q.zden))),
    Div: _rational(lambda p, q: (_pmul(p.znum, q.zden),
                                 _pmul(p.zden, q.znum))),
    Pow: _power_profile,
}


def rational_profile(expr: RuleExpr) -> Optional[RationalProfile]:
    """Exact rational form of a rule, or None when the rule is not rational
    in the index (e.g. an exponent containing the variable)."""
    return _lift(_fold(expr, _ANALYSE))


def _as_float(num: int, den: int, what: str, index: int, down=False) -> float:
    """num/den correctly rounded, as int / int is, or with ``down`` the
    largest double at most num/den >= 0, a floor the exact value proves."""
    try:
        value = num / den
    except OverflowError:
        raise RuleEvaluationError(f"the exact {what} of the rule exceeds "
                                  f"the float range", index) from None
    p, q = value.as_integer_ratio()
    return math.nextafter(value, 0.0) if down and p * den > num * q \
        else value


def certificate_for(profile: RationalProfile,
                    min_start: int = 0) -> Union[Certificate, ZeroTail, None]:
    """Sound asymptotic certificate for an exactly known rational sequence.

    Returns ZeroTail for the zero function, Constant for constants, Decay
    when the function tends to zero, Floor when it has a non-zero limit or
    diverges, and None only on pathologies (a pole at some probe index is
    reported at evaluation time instead).  A Floor's bound is rounded down.
    """
    num, den = profile.znum, profile.zden
    if len(den) == 1 and len(num) <= 1:
        if not num:
            return ZeroTail(min_start)
        return Constant(_as_float(num[0], den[0], "constant", min_start),
                        min_start)
    gap = profile.degree_gap
    start = max(profile.monotone_start(), min_start)
    if gap < 0:
        return Decay(start=start)
    if gap == 0:
        # the deviation (b num - a den)/(b den) from the limit a/b decays,
        # monotone past its own critical points, so a doubling scan finds
        # where 2 |b num - a den| <= |a den|, in integers (den has no root)
        a, b = num[-1], den[-1]
        dev = _padd(tuple(b * c for c in num), tuple(-a * c for c in den))
        s = max(start, _monotone_start(dev, den))
        while 2 * abs(_peval(dev, s)) > abs(a * _peval(den, s)):
            s *= 2
            if s > 1 << 40:  # unreachable for genuine rational decay
                return None
        return Floor(_as_float(abs(a), 2 * b, "limit", s, True), start=s)
    # diverges: eventually monotone increasing in modulus.  start is past
    # the numerator's Cauchy root bound (monotone_start), so value != 0
    return Floor(_as_float(abs(_peval(num, start)), abs(_peval(den, start)),
                           "value", start, True), start=start)
