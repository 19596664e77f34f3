"""Rule mini-language: grammar, printing, evaluation, exact analysis."""

from fractions import Fraction

import numpy as np
import pytest

import convderiv as cd
from convderiv.rules import (
    Add, Div, Lit, Mul, Neg, Pow, Sub, Var,
    RuleEvaluationError, RuleSyntaxError,
)


def test_parse_harmonic():
    assert cd.parse_rule("1/(n+1)") == Div(Lit(1), Add(Var(), Lit(1)))


def test_parse_geometric():
    assert cd.parse_rule("2^(-n)") == Pow(Lit(2), Neg(Var()))


def test_parse_error_position():
    with pytest.raises(RuleSyntaxError) as err:
        cd.parse_rule("n*")
    assert err.value.position == 3
    assert err.value.expected  # carries the expected-set
    assert "operand expected" in str(err.value)


def test_parse_trailing_junk():
    with pytest.raises(RuleSyntaxError) as err:
        cd.parse_rule("n )")
    assert err.value.position == 3


def test_format_round_trips_examples():
    for text in ("1/(n+1)", "2^(-n)", "n^2-3*n+0.5", "-(n+1)", "2^n^2"):
        tree = cd.parse_rule(text)
        assert cd.format_rule(tree) == text
        assert cd.parse_rule(cd.format_rule(tree)) == tree


def test_precedence_and_associativity():
    # '-' binds looser than '^'; same-precedence operators associate left
    assert cd.parse_rule("-n^2") == Neg(Pow(Var(), Lit(2)))
    assert cd.parse_rule("1-2-3") == Sub(Sub(Lit(1), Lit(2)), Lit(3))
    assert cd.parse_rule("2^3^2") == Pow(Pow(Lit(2), Lit(3)), Lit(2))
    assert cd.eval_rule(cd.parse_rule("2^3^2"), 0) == 64.0
    assert cd.parse_rule("1+2*n") == Add(Lit(1), Mul(Lit(2), Var()))


from ruletrees import random_expr


def test_thousand_random_round_trips():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        tree = random_expr(rng, int(rng.integers(1, 6)))
        assert cd.parse_rule(cd.format_rule(tree)) == tree


def test_eval_basic():
    tree = cd.parse_rule("1/(n+1)")
    assert cd.eval_rule(tree, 0) == 1.0
    assert cd.eval_rule(tree, 3) == 0.25
    geo = cd.parse_rule("2^(-n)")
    assert cd.eval_rule(geo, 5) == 2.0 ** -5


def test_eval_division_by_zero_is_reported():
    tree = cd.parse_rule("1/(n-3)")
    assert cd.eval_rule(tree, 2) == -1.0
    with pytest.raises(RuleEvaluationError) as err:
        cd.eval_rule(tree, 3)
    assert err.value.index == 3


def test_eval_non_integer_exponent_is_reported():
    tree = cd.parse_rule("2^(n/2)")
    assert cd.eval_rule(tree, 4) == 4.0
    with pytest.raises(RuleEvaluationError):
        cd.eval_rule(tree, 3)


def test_eval_sign_power_parity_is_exact_beyond_2_53():
    tree = cd.parse_rule("(-1)^n")
    for n in (2 ** 53 + 1, 2 ** 62 - 1):
        assert cd.eval_rule(tree, n) == -1.0
        assert cd.eval_rule(tree, n - 1) == 1.0
    seq = cd.DualSequence(cd.rules.rule_callable(tree))
    assert seq.at(2 ** 53 + 1) == -1.0


def test_eval_power_overflow_is_reported():
    with pytest.raises(RuleEvaluationError) as err:
        cd.eval_rule(cd.parse_rule("55^n"), 178)
    assert err.value.index == 178
    assert cd.eval_rule(cd.parse_rule("55^n"), 2) == 3025.0


def test_eval_zero_to_negative_power():
    tree = cd.parse_rule("n^(-1)")
    assert cd.eval_rule(tree, 2) == 0.5
    with pytest.raises(RuleEvaluationError):
        cd.eval_rule(tree, 0)


# -- exact rational analysis --------------------------------------------------

def test_profile_constants():
    prof = cd.rational_profile(cd.parse_rule("3"))
    assert prof.constant_value() == 3
    zero = cd.rational_profile(cd.parse_rule("0"))
    assert zero.constant_value() == 0


def test_profile_reduces_exactly():
    # n/(n+1) - 1 + 1/(n+1) reduces to the zero function
    prof = cd.rational_profile(cd.parse_rule("n/(n+1)-1+1/(n+1)"))
    assert prof.constant_value() == 0


def test_profile_harmonic_weighted_shift_is_constant():
    phi = cd.rational_profile(cd.parse_rule("1/(n+1)"))
    mu = phi.compose_shift(-1).times_index()
    assert mu.constant_value() == 1


def test_profile_degree_gap_and_limit():
    assert cd.rational_profile(cd.parse_rule("n")).degree_gap == 1
    decaying = cd.rational_profile(cd.parse_rule("1/(n^2+1)"))
    assert decaying.degree_gap == -2
    assert decaying.limit() == 0
    ratio = cd.rational_profile(cd.parse_rule("(2*n+1)/(n+3)"))
    assert ratio.limit() == 2


def test_profile_rejects_variable_exponent():
    assert cd.rational_profile(cd.parse_rule("2^(-n)")) is None
    assert cd.rational_profile(cd.parse_rule("n^3")) is not None


def test_certificates_from_profiles():
    decay = cd.certificate_for(
        cd.rational_profile(cd.parse_rule("1/(n+1)")), min_start=1)
    assert isinstance(decay, cd.Decay)
    const = cd.certificate_for(
        cd.rational_profile(cd.parse_rule("5")), min_start=1)
    assert isinstance(const, cd.Constant) and const.value == 5
    zero = cd.certificate_for(
        cd.rational_profile(cd.parse_rule("0")), min_start=1)
    assert isinstance(zero, cd.ZeroTail)
    floor = cd.certificate_for(
        cd.rational_profile(cd.parse_rule("n/(n+1)")), min_start=1)
    assert isinstance(floor, cd.Floor) and floor.bound == 0.5


def test_certificate_beyond_the_float_range_names_its_cause():
    with pytest.raises(cd.RuleEvaluationError,
                       match="exact constant of the rule exceeds the float"):
        cd.certificate_for(cd.rational_profile(cd.parse_rule("10^400")),
                           min_start=1)
    with pytest.raises(cd.RuleEvaluationError,
                       match="exact limit of the rule exceeds the float"):
        cd.certificate_for(cd.rational_profile(
            cd.parse_rule("(10^400*n+1)/(n+1)")), min_start=1)


def test_certificate_starts_are_sound():
    # the declared monotone start must be past every probed reversal
    for text in ("1/(n+1)", "(n+7)/(n^3+2)", "(3*n+5)/(n^2-n+40)"):
        prof = cd.rational_profile(cd.parse_rule(text))
        cert = cd.certificate_for(prof, min_start=0)
        assert isinstance(cert, cd.Decay)
        values = [abs(prof.eval_exact(n)) for n in
                  range(cert.start, cert.start + 200)]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_floor_certificate_is_sound():
    prof = cd.rational_profile(cd.parse_rule("(2*n+1)/(n+3)"))
    cert = cd.certificate_for(prof, min_start=1)
    assert isinstance(cert, cd.Floor)
    assert cert.bound == 1.0  # half the limit 2
    for n in range(cert.start, cert.start + 500):
        assert abs(prof.eval_exact(n)) >= Fraction(1)
