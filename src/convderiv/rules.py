"""Rule mini-language: arithmetic expressions in one index variable n.

Grammar, lowest precedence first; same-precedence binary operators
associate to the left:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' atom)*
    atom   := NUMBER | 'n' | '(' expr ')'

Exponents must evaluate to integers.  Besides parsing and evaluation this
module performs *exact* rational-function analysis of a parsed rule (over
Fraction coefficients), which is how asymptotic certificates for rational
rules are derived without sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .convolution import Certificate, Constant, Decay, Floor, ZeroTail


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

_BINOPS = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^"}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # 0-based cursor; reported positions are 1-based

    def error(self, message, expected):
        raise RuleSyntaxError(message, self.pos + 1, expected)

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
            return Neg(self.unary())
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
            node = self.expr()
            if self.peek() != ")":
                self.error("unbalanced parenthesis", ("')'",))
            self.pos += 1
            return node
        if ch == "n":
            self.pos += 1
            return Var()
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] == ".":
                self.pos += 1
                if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
                    self.error("digits expected after decimal point",
                               ("digit",))
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            return Lit(float(self.text[start:self.pos]))
        self.error("operand expected", ("number", "'n'", "'('", "'-'"))


def parse_rule(text: str) -> RuleExpr:
    parser = _Parser(text)
    node = parser.expr()
    if parser.peek():
        parser.error(f"unexpected character {parser.peek()!r}",
                     ("operator", "end of input"))
    return node


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Lit: 5, Var: 5}


def _fmt_number(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    text = repr(float(v))
    if "e" in text or "E" in text:
        text = format(v, ".20f").rstrip("0").rstrip(".")
    return text


def _fmt(expr: RuleExpr, parent_prec: int, right_side: bool) -> str:
    prec = _PREC[type(expr)]
    if isinstance(expr, Lit):
        text = _fmt_number(expr.value)
    elif isinstance(expr, Var):
        text = "n"
    elif isinstance(expr, Neg):
        text = "-" + _fmt(expr.operand, prec, False)
    elif isinstance(expr, Pow):
        # the grammar takes atoms on both sides of '^': composite right
        # operands always need parentheses, composite left operands follow
        # normal precedence with '^' chains associating left
        text = _fmt(expr.left, prec, False) + "^" + _fmt(expr.right, prec + 1, False)
    else:
        op = _BINOPS[type(expr)]
        text = _fmt(expr.left, prec, False) + op + _fmt(expr.right, prec, True)
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def format_rule(expr: RuleExpr) -> str:
    """Minimal-parenthesis rendering; parse(format_rule(e)) == e."""
    return _fmt(expr, 0, False)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_rule(expr: RuleExpr, n) -> float:
    """Evaluate at a single non-negative index in double precision.

    The index stays an exact integer, so (-1)^n is exact up to INDEX_CAP; a
    power that overflows a double raises RuleEvaluationError.
    """
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return int(n)
    if isinstance(expr, Neg):
        return -eval_rule(expr.operand, n)
    left = eval_rule(expr.left, n)
    if isinstance(expr, Pow):
        exponent = eval_rule(expr.right, n)
        if exponent != int(exponent):
            raise RuleEvaluationError(
                f"exponent {exponent} is not an integer", n)
        if left == 0.0 and exponent < 0:
            raise RuleEvaluationError("zero raised to a negative power", n)
        exponent = int(exponent)
        if left == -1:
            # a double exponent rounds above 2^53; keep the int's parity
            exponent %= 2
        try:
            return float(left) ** exponent
        except OverflowError:
            raise RuleEvaluationError("power overflows a double", n)
    right = eval_rule(expr.right, n)
    if isinstance(expr, Add):
        return left + right
    if isinstance(expr, Sub):
        return left - right
    if isinstance(expr, Mul):
        return left * right
    if right == 0.0:
        raise RuleEvaluationError("division by zero", n)
    return left / right


def rule_callable(expr: RuleExpr):
    return lambda n: eval_rule(expr, n)


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
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ptrim(out)


def _pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
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
    return _ptrim(tuple(i * a for i, a in enumerate(p)))[1:] if len(p) > 1 else ()


def _peval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
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
        return RationalProfile.make(_pmul(self.num, (Fraction(0), Fraction(1))),
                                    self.den)

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


def rational_profile(expr: RuleExpr) -> Optional[RationalProfile]:
    """Exact rational form of a rule, or None when the rule is not rational
    in the index (e.g. an exponent containing the variable)."""
    one = (Fraction(1),)
    if isinstance(expr, Lit):
        return RationalProfile.make((Fraction(expr.value),), one)
    if isinstance(expr, Var):
        return RationalProfile.make((Fraction(0), Fraction(1)), one)
    if isinstance(expr, Neg):
        inner = rational_profile(expr.operand)
        return None if inner is None else RationalProfile.make(
            _pneg(inner.num), inner.den)
    if isinstance(expr, Pow):
        base = rational_profile(expr.left)
        exponent = _static_int(expr.right)
        if base is None or exponent is None:
            return None
        if exponent >= 0:
            num, den = base.num, base.den
        else:
            num, den, exponent = base.den, base.num, -exponent
            if not den:
                return None
        rnum, rden = one, one
        for _ in range(exponent):
            rnum, rden = _pmul(rnum, num), _pmul(rden, den)
        if not rden:
            return None
        return RationalProfile.make(rnum, rden)
    left = rational_profile(expr.left)
    right = rational_profile(expr.right)
    if left is None or right is None:
        return None
    if isinstance(expr, Add):
        return RationalProfile.make(
            _padd(_pmul(left.num, right.den), _pmul(right.num, left.den)),
            _pmul(left.den, right.den))
    if isinstance(expr, Sub):
        return RationalProfile.make(
            _padd(_pmul(left.num, right.den),
                  _pneg(_pmul(right.num, left.den))),
            _pmul(left.den, right.den))
    if isinstance(expr, Mul):
        return RationalProfile.make(_pmul(left.num, right.num),
                                    _pmul(left.den, right.den))
    if not right.num:
        return None
    return RationalProfile.make(_pmul(left.num, right.den),
                                _pmul(left.den, right.num))


def _static_int(expr: RuleExpr) -> Optional[int]:
    if isinstance(expr, Lit):
        return int(expr.value) if float(expr.value).is_integer() else None
    if isinstance(expr, Neg):
        inner = _static_int(expr.operand)
        return None if inner is None else -inner
    return None


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
    # diverges: eventually monotone increasing in modulus
    value = abs(profile.eval_exact(start))
    while value == 0:
        start += 1
        value = abs(profile.eval_exact(start))
    return Floor(_as_float(value, "value", start), start=start)
