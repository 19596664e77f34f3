"""Seeded random rule-expression trees, and reference implementations of
the rule language (interpreter, printer, exact analysis), for round-trip
and equivalence checks."""

from fractions import Fraction

from convderiv.rules import (
    Add, Div, Lit, Mul, Neg, Pow, Sub, Var, RationalProfile,
    RuleEvaluationError, _fmt_number, _padd, _pmul, _pneg,
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
        return RationalProfile.make((Fraction(expr.value),), one)
    if isinstance(expr, Var):
        return RationalProfile.make((Fraction(0), Fraction(1)), one)
    if isinstance(expr, Neg):
        inner = reference_profile(expr.operand)
        return None if inner is None else RationalProfile.make(
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
        return RationalProfile.make(rnum, rden)
    left = reference_profile(expr.left)
    right = reference_profile(expr.right)
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
