"""Seeded random rule-expression trees, and the reference interpreter of
the rule language, for round-trip and equivalence checks."""

from convderiv.rules import (
    Add, Div, Lit, Mul, Neg, Pow, Sub, Var, RuleEvaluationError,
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
