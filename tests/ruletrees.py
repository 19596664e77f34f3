"""Seeded random rule-expression trees, and reference implementations of
the rule language (interpreter, printer, exact analysis and certificates),
for round-trip and equivalence checks."""

import math
from fractions import Fraction

from convderiv.convolution import Constant, Decay, Floor, ZeroTail
from convderiv.rules import (
    Add, Div, Lit, Mul, Neg, Pow, Sub, Var, RuleEvaluationError, _fmt_number,
)


def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Var()
        if rng.random() < 0.7:
            return Lit(float(rng.integers(0, 100)))
        return Lit(round(float(rng.uniform(0, 50)), 3))
    kind = rng.integers(0, 6)
    if kind == 0:
        return Neg(random_expr(rng, depth - 1))
    left = random_expr(rng, depth - 1)
    right = random_expr(rng, depth - 1)
    return [Add, Sub, Mul, Div, Pow][kind - 1](left, right)


# bases off the exact power routes, and a few on them
_POWER_BASES = (3.0, 5.0, 6.0, 7.0, 9.0, 10.0, 1.5, 2.5, 0.3, 0.75, 0.1,
                1e-5, 1e20, 2.0, 0.25, 1.0, 0.0)


def random_power_rule(rng):
    """A seeded rule that leans on powers: one to three literal bases,
    negative at times and of modulus below 1 at times, each to an exponent
    built from n, joined by + - * or /.  Returns the rule and an index
    near which its first power falls to 2^-1100 (None when that power does
    not fall), where the block evaluator's power routes change."""
    expr, cut = None, None
    for _ in range(int(rng.integers(1, 4))):
        base = float(rng.choice(_POWER_BASES))
        if rng.random() < 0.3:
            base = round(float(rng.uniform(0.05, 20.0)), 3)
        a, c = int(rng.integers(1, 4)), int(rng.integers(0, 800))
        # four powers in five fall towards zero: their exponent falls with
        # n where |base| > 1 and rises where |base| < 1
        decays = rng.random() < 0.8
        falls = decays == (abs(base) > 1.0)
        form = rng.integers(0, 4)
        if form == 0:  # c - a*n or a*n - c
            exponent = Mul(Lit(float(a)), Var())
            exponent = Sub(Lit(float(c)), exponent) if falls else \
                Sub(exponent, Lit(float(c)))
        elif form == 1:  # -n*n or n*n
            exponent = Mul(Var(), Var())
            exponent = Neg(exponent) if falls else exponent
        elif form == 2:  # -n/2 or n/2, not integral at odd n
            exponent = Div(Var(), Lit(2.0))
            exponent = Neg(exponent) if falls else exponent
        else:  # c - n, the index and a literal alike integer nodes
            exponent = Sub(Lit(float(c)), Var()) if falls else Var()
        literal = Neg(Lit(base)) if rng.random() < 0.3 else Lit(base)
        power = Pow(literal, exponent)
        if expr is None:
            expr = power
            if decays and abs(base) not in (0.0, 1.0):
                # where |exponent| reaches 1100 / |log2 |base||
                reach = 1100.0 / abs(math.log2(abs(base)))
                cut = int({0: (reach + c) / a, 1: math.sqrt(reach),
                           2: 2 * reach,
                           3: reach + c if falls else reach}[int(form)])
        else:
            expr = [Add, Sub, Mul, Div][int(rng.integers(0, 4))](expr, power)
    return expr, cut


def reference_eval(expr, n):
    """The tree-walking rule interpreter, kept as the reference semantics
    that the compiled evaluator in ``convderiv.rules`` must reproduce."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return int(n)
    if isinstance(expr, Neg):
        return -reference_eval(expr.operand, n)
    left = reference_eval(expr.left, n)
    if isinstance(expr, Pow):
        exponent = reference_eval(expr.right, n)
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
    right = reference_eval(expr.right, n)
    if isinstance(expr, Add):
        return left + right
    if isinstance(expr, Sub):
        return left - right
    if isinstance(expr, Mul):
        return left * right
    if right == 0.0:
        raise RuleEvaluationError("division by zero", n)
    return left / right


# -- the exact analysis over Fraction coefficients, kept as a reference -----
# Polynomials are tuples of Fractions, index = power, trailing zeros
# trimmed; a profile is reduced by a Euclidean gcd over Q and made monic.
# The library analyses over Z instead, and must give the same functions,
# start indices and certificates.

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


def _pshift(p, c):
    """p(x + c) via Horner in (x + c)."""
    res = ()
    for a in reversed(p):
        res = _padd(_pmul(res, (c, Fraction(1))), (a,))
    return res


def _pderiv(p):
    derivative = tuple(i * a for i, a in enumerate(p))
    return _ptrim(derivative)[1:] if len(p) > 1 else ()


def _peval(p, x):
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def _root_bound(p):
    """Cauchy bound: all real roots of p lie in [-B, B]."""
    if len(p) <= 1:
        return Fraction(0)
    return 1 + max(abs(a) for a in p[:-1]) / abs(p[-1])


class ReferenceProfile:
    """num/den over Fraction, reduced by their gcd over Q, den monic."""

    def __init__(self, num, den):
        self.num, self.den = num, den

    @staticmethod
    def make(num, den):
        num, den = _ptrim(num), _ptrim(den)
        if not den:
            raise ZeroDivisionError("rational profile with zero denominator")
        if not num:
            return ReferenceProfile((), (Fraction(1),))
        g = _pgcd(num, den)
        if len(g) > 1:
            num, _ = _pdivmod(num, g)
            den, _ = _pdivmod(den, g)
        lead = den[-1]
        return ReferenceProfile(tuple(a / lead for a in num),
                                tuple(a / lead for a in den))

    @property
    def degree_gap(self):
        if not self.num:
            return -(10 ** 9)
        return (len(self.num) - 1) - (len(self.den) - 1)

    def constant_value(self):
        if len(self.den) == 1 and len(self.num) <= 1:
            return (self.num[0] / self.den[0]) if self.num else Fraction(0)
        return None

    def limit(self):
        gap = self.degree_gap
        if gap > 0:
            return None
        if gap < 0:
            return Fraction(0)
        return self.num[-1] / self.den[-1]

    def eval_exact(self, n):
        den = _peval(self.den, Fraction(n))
        if den == 0:
            raise ZeroDivisionError(f"pole at n = {n}")
        return _peval(self.num, Fraction(n)) / den

    def compose_shift(self, c):
        return ReferenceProfile.make(_pshift(self.num, Fraction(c)),
                                     _pshift(self.den, Fraction(c)))

    def times_index(self):
        return ReferenceProfile.make(
            _pmul(self.num, (Fraction(0), Fraction(1))), self.den)

    def monotone_start(self):
        dnum = _padd(_pmul(_pderiv(self.num), self.den),
                     _pneg(_pmul(self.num, _pderiv(self.den))))
        bound = max(_root_bound(self.num), _root_bound(self.den),
                    _root_bound(dnum))
        return int(bound) + 2


def _float_below(exact, what, index):
    """The largest double at most ``exact`` > 0."""
    try:
        value = float(exact)
    except OverflowError:
        raise RuleEvaluationError(f"the exact {what} of the rule exceeds "
                                  f"the float range", index) from None
    return math.nextafter(value, 0.0) if Fraction(value) > exact else value


def reference_certificate(profile, min_start=0):
    """The certificate for a ReferenceProfile: the Fraction analysis, with
    each Floor bound rounded down to the largest double at most the exact
    floor."""
    const = profile.constant_value()
    if const is not None:
        if const == 0:
            return ZeroTail(min_start)
        try:
            value = float(const)
        except OverflowError:
            raise RuleEvaluationError(
                "the exact constant of the rule exceeds the float range",
                min_start) from None
        return Constant(value, min_start)
    gap = profile.degree_gap
    start = max(profile.monotone_start(), min_start)
    if gap < 0:
        return Decay(start=start)
    if gap == 0:
        c = profile.limit()
        target = abs(c) / 2
        dev = ReferenceProfile.make(
            _padd(profile.num, _pneg(_pmul((c,), profile.den))), profile.den)
        s = max(start, dev.monotone_start())
        while abs(dev.eval_exact(s)) > target:
            s *= 2
            if s > 1 << 40:
                return None
        return Floor(_float_below(target, "limit", s), start=s)
    value = abs(profile.eval_exact(start))
    return Floor(_float_below(value, "value", start), start=start)


# -- printing and exact analysis as tree walks, kept as references ----------
# The walks below are the rule layer's printer and exact analysis as they
# stood before both became tables of one fold over the tree; the fold must
# reproduce them (up to the analysis limits, where it declines).

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Lit: 5, Var: 5}
_BINOPS = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^"}


def _fmt(expr, parent_prec, right_side):
    prec = _PREC[type(expr)]
    if isinstance(expr, Lit):
        text = _fmt_number(expr.value)
    elif isinstance(expr, Var):
        text = "n"
    elif isinstance(expr, Neg):
        text = "-" + _fmt(expr.operand, prec, False)
    elif isinstance(expr, Pow):
        text = _fmt(expr.left, prec, False) + "^" + _fmt(expr.right, prec + 1, False)
    else:
        op = _BINOPS[type(expr)]
        text = _fmt(expr.left, prec, False) + op + _fmt(expr.right, prec, True)
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def reference_format(expr):
    return _fmt(expr, 0, False)


def reference_profile(expr):
    one = (Fraction(1),)
    if isinstance(expr, Lit):
        return ReferenceProfile.make((Fraction(expr.value),), one)
    if isinstance(expr, Var):
        return ReferenceProfile.make((Fraction(0), Fraction(1)), one)
    if isinstance(expr, Neg):
        inner = reference_profile(expr.operand)
        return None if inner is None else ReferenceProfile.make(
            _pneg(inner.num), inner.den)
    if isinstance(expr, Pow):
        base = reference_profile(expr.left)
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
        return ReferenceProfile.make(rnum, rden)
    left = reference_profile(expr.left)
    right = reference_profile(expr.right)
    if left is None or right is None:
        return None
    if isinstance(expr, Add):
        return ReferenceProfile.make(
            _padd(_pmul(left.num, right.den), _pmul(right.num, left.den)),
            _pmul(left.den, right.den))
    if isinstance(expr, Sub):
        return ReferenceProfile.make(
            _padd(_pmul(left.num, right.den),
                  _pneg(_pmul(right.num, left.den))),
            _pmul(left.den, right.den))
    if isinstance(expr, Mul):
        return ReferenceProfile.make(_pmul(left.num, right.num),
                                     _pmul(left.den, right.den))
    if not right.num:
        return None
    return ReferenceProfile.make(_pmul(left.num, right.den),
                                 _pmul(left.den, right.num))


def _static_int(expr):
    if isinstance(expr, Lit):
        return int(expr.value) if float(expr.value).is_integer() else None
    if isinstance(expr, Neg):
        inner = _static_int(expr.operand)
        return None if inner is None else -inner
    return None


MAX_DEGREE = 64          # of an unreduced numerator or denominator
MAX_CONSTANT_BITS = 2 ** 16  # of a constant power's exact value


def analysis_passes_a_limit(expr):
    """Whether the exact analysis of ``expr`` passes a limit at some node:
    an unreduced numerator or denominator above MAX_DEGREE, or a constant
    power above MAX_CONSTANT_BITS.  Each node is judged from the reference
    profiles of its operands, so no power past a limit is ever expanded."""
    if isinstance(expr, (Lit, Var)):
        return False
    if isinstance(expr, Neg):
        return analysis_passes_a_limit(expr.operand)
    if analysis_passes_a_limit(expr.left) or \
            analysis_passes_a_limit(expr.right):
        return True
    left = reference_profile(expr.left)
    if left is None:
        return False
    if isinstance(expr, Pow):
        k = _static_int(expr.right)
        if k is None:
            return False
        num, den = (left.num, left.den) if k >= 0 else (left.den, left.num)
        if not den:
            return False
        if abs(k) * (max(len(num), len(den)) - 1) > MAX_DEGREE:
            return True
        if len(num) > 1 or len(den) > 1:
            return False
        value = (num[0] if num else Fraction(0)) / den[0]
        bits = max(value.numerator.bit_length(),
                   value.denominator.bit_length())
        return abs(k) * bits > MAX_CONSTANT_BITS
    right = reference_profile(expr.right)
    if right is None or (isinstance(expr, Div) and not right.num):
        return False
    if isinstance(expr, (Add, Sub)):
        cross = _pmul(right.num, left.den)
        num = _padd(_pmul(left.num, right.den),
                    cross if isinstance(expr, Add) else _pneg(cross))
        den = _pmul(left.den, right.den)
    elif isinstance(expr, Mul):
        num, den = _pmul(left.num, right.num), _pmul(left.den, right.den)
    else:
        num, den = _pmul(left.num, right.den), _pmul(left.den, right.num)
    return max(len(num), len(den)) - 1 > MAX_DEGREE
