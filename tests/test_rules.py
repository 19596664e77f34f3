"""Rule mini-language: grammar, printing, evaluation, exact analysis."""

import math
import struct
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import convderiv as cd
from convderiv import cli
from convderiv.rules import (
    Add, Div, Lit, Mul, Neg, Pow, Sub, Var,
    MAX_NESTING, RuleEvaluationError, RuleSyntaxError,
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


def test_parse_nesting_is_capped():
    cap = MAX_NESTING
    assert cd.parse_rule("(" * cap + "n" + ")" * cap) == Var()
    tree = cd.parse_rule("-" * cap + "n")
    for _ in range(cap):
        tree = tree.operand
    assert tree == Var()
    assert cd.parse_rule("-(" * (cap // 2) + "n" + ")" * (cap // 2))
    for text in ("(" * (cap + 1) + "n" + ")" * (cap + 1), "-" * (cap + 1) + "n",
                 "-(" * (cap // 2) + "-n" + ")" * (cap // 2)):
        with pytest.raises(RuleSyntaxError, match="nested") as err:
            cd.parse_rule(text)
        assert err.value.position == cap + 1


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
    assert cd.rule_callable(cd.parse_rule("2^3^2"))(0) == 64.0
    assert cd.parse_rule("1+2*n") == Add(Lit(1), Mul(Lit(2), Var()))


from ruletrees import random_expr


def test_thousand_random_round_trips():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        tree = random_expr(rng, int(rng.integers(1, 6)))
        assert cd.parse_rule(cd.format_rule(tree)) == tree


def test_eval_basic():
    rule = cd.rule_callable(cd.parse_rule("1/(n+1)"))
    assert rule(0) == 1.0
    assert rule(3) == 0.25
    geo = cd.rule_callable(cd.parse_rule("2^(-n)"))
    assert geo(5) == 2.0 ** -5


def test_eval_division_by_zero_is_reported():
    rule = cd.rule_callable(cd.parse_rule("1/(n-3)"))
    assert rule(2) == -1.0
    with pytest.raises(RuleEvaluationError) as err:
        rule(3)
    assert err.value.index == 3


def test_eval_non_integer_exponent_is_reported():
    rule = cd.rule_callable(cd.parse_rule("2^(n/2)"))
    assert rule(4) == 4.0
    with pytest.raises(RuleEvaluationError):
        rule(3)


def test_eval_sign_power_parity_is_exact_beyond_2_53():
    rule = cd.rule_callable(cd.parse_rule("(-1)^n"))
    for n in (2 ** 53 + 1, 2 ** 62 - 1):
        assert rule(n) == -1.0
        assert rule(n - 1) == 1.0
    seq = cd.DualSequence(rule)
    assert seq.at(2 ** 53 + 1) == -1.0


def test_eval_power_overflow_is_reported():
    rule = cd.rule_callable(cd.parse_rule("55^n"))
    with pytest.raises(RuleEvaluationError) as err:
        rule(178)
    assert err.value.index == 178
    assert rule(2) == 3025.0


def test_eval_zero_to_negative_power():
    rule = cd.rule_callable(cd.parse_rule("n^(-1)"))
    assert rule(2) == 0.5
    with pytest.raises(RuleEvaluationError):
        rule(0)


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


def test_divergent_profiles_get_a_floor_at_their_start():
    # the numerator cannot vanish past monotone_start, so the floor is the
    # modulus at the start itself
    for text in ("n^2", "-n", "(n^3-7*n)/(n+2)"):
        tree = cd.parse_rule(text)
        prof = cd.rational_profile(tree)
        for min_start in (0, 5):
            cert = cd.certificate_for(prof, min_start=min_start)
            assert isinstance(cert, cd.Floor)
            assert cert.start == max(prof.monotone_start(), min_start)
            assert cert.bound == float(abs(prof.eval_exact(cert.start)))
            seq = cd.DualSequence(cd.rule_callable(tree),
                                  tail=cd.ClosedForm(cert))
            cd.validate_tail(seq, 10 ** 4)


# -- the compiled evaluator against the reference interpreter ---------------

from ruletrees import reference_eval

_PROBE_INDICES = (0, 1, 2, 10 ** 6, 2 ** 53 + 1, cd.INDEX_CAP)


def _outcome(evaluate, n):
    """What an evaluation gives: the value's type and bits, or the error."""
    try:
        value = evaluate(n)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    if isinstance(value, float):
        # NaN matches NaN; every other float is compared bit for bit
        return type(value), "nan" if math.isnan(value) else \
            struct.pack("<d", value)
    return type(value), value


def test_compiled_rules_agree_with_the_reference_interpreter():
    rng = np.random.default_rng(2024)
    kinds = Counter()
    for _ in range(1500):
        tree = random_expr(rng, int(rng.integers(1, 7)))
        compiled = cd.rules.rule_callable(tree)
        for n in _PROBE_INDICES:
            want = _outcome(lambda i: reference_eval(tree, i), n)
            assert _outcome(compiled, n) == want
            kinds[want[0]] += 1
    # the fuzz reaches ints, floats and errors alike
    assert kinds[int] and kinds[float] and kinds["raises"]


_NAN, _NEG_ZERO, _NEG_THREE = Lit(math.nan), Lit(-0.0), Lit(-3.0)
_INF_TEXT = "1" + "0" * 400  # parses to inf


_EDGE_TREES = [
    # a literal zero divisor, also behind an operand that fails first
    "n/0", "1/(n-n)", "n/(0*n)", "0/0", "(1/0)/0", Div(Var(), _NEG_ZERO),
    # exponents that are not integers, or not finite
    "n^2.5", "2.5^n", "(1/0)^2.5", f"2^{_INF_TEXT}", f"n^{_INF_TEXT}",
    f"0^{_INF_TEXT}", Pow(Var(), _NAN), Pow(Lit(2.0), Neg(_NAN)),
    # sign powers beyond 2^53, and zero bases
    "(-1)^" + "9" * 30, "(-1)^9007199254740993", "(-1)^(-" + "9" * 25 + ")",
    "(n-n-1)^12345678901234567", "0^(-2)", "0^2", "0^0", "(n-n)^(-1)",
    "n^(-2)", Pow(_NEG_ZERO, _NEG_THREE), Pow(_NEG_ZERO, Lit(3.0)),
    Pow(Var(), _NEG_THREE), Pow(Var(), _NEG_ZERO), Pow(Lit(-1.0), _NEG_THREE),
    # overflow, of the power and of an int base
    "10^400", "n^400", "2^(10^20)", "0.5^(10^20)", "(" + "n*" * 20 + "n)^2",
    # the directly built literals alone and as operands
    _NAN, _NEG_ZERO, _NEG_THREE, Neg(_NAN), Neg(_NEG_ZERO),
    Add(_NEG_ZERO, _NEG_ZERO), Mul(Var(), _NEG_ZERO), Div(_NAN, Var()),
    Pow(_NAN, Lit(0.0)), Pow(_NAN, Lit(2.0)), Sub(Var(), _NEG_THREE),
    # long rules: straight-line code thousands of statements long
    "+".join(["n"] * 2000), "+".join(["1/(n+1)^2"] * 2000),
]


def _edge_id(tree):
    return tree[:20] if isinstance(tree, str) else None


@pytest.mark.parametrize("tree", _EDGE_TREES, ids=_edge_id)
def test_compiled_rules_agree_with_the_reference_on_edge_cases(tree):
    if isinstance(tree, str):
        tree = cd.parse_rule(tree)
    compiled = cd.rules.rule_callable(tree)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 10_000)  # the reference recurses per node
    try:
        for n in _PROBE_INDICES:
            want = _outcome(lambda i: reference_eval(tree, i), n)
            assert _outcome(compiled, n) == want
            # a numpy index is read as an exact int, as the reference does
            assert _outcome(compiled, np.int64(n)) == want
    finally:
        sys.setrecursionlimit(limit)


# -- the block evaluator against the compiled rule, index by index ----------

# blocks from 0, 10^3 and 2^40, and one that crosses 2^53, where n itself
# leaves the exact range; sizes on both sides of the per-index cutoff
_BLOCK_STARTS = (0, 10 ** 3, 2 ** 40, 2 ** 53 - 100)
_BLOCK_SIZES = (cd.rules._PER_INDEX_BELOW - 1, 300)


def _per_index_outcome(scalar, idx, from_phi):
    """The values the compiled rule gives index by index as bytes, or its
    first error: type, message and cited index."""
    try:
        values = [complex(n * scalar(n - 1) if from_phi else scalar(n))
                  for n in idx.tolist()]
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return np.array(values, dtype=complex).tobytes()


def _block_outcome(rule, idx, calls=None):
    """The block's values as complex bytes, or its first error.  Given the
    Counter of a ``_counting_block`` rule, the values must be float64
    exactly when no index went per index, and complex128 otherwise."""
    before = calls["scalar"] if calls is not None else None
    try:
        values = rule(idx)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    if calls is not None:
        per_index = calls["scalar"] != before
        assert values.dtype == (complex if per_index else np.float64)
    assert values.dtype in (np.float64, complex)
    assert values.shape == idx.shape
    return values.astype(complex).tobytes()


def _counting_block(tree, from_phi=False):
    """block_callable(tree, from_phi) and a Counter of the evaluations it
    makes index by index."""
    calls = Counter()
    compiled = cd.rules.rule_callable(tree)

    def scalar(n):
        calls["scalar"] += 1
        return compiled(n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cd.rules, "rule_callable", lambda expr: scalar)
        return cd.rules.block_callable(tree, from_phi=from_phi), calls


def _blocks_agree(tree, starts=_BLOCK_STARTS, sizes=_BLOCK_SIZES):
    """Asserts that block_callable gives, bit for bit, what rule_callable
    gives per index, as mu and in its phi form; returns how many blocks
    were evaluated as arrays, counted by the compiled rule's calls."""
    compiled = cd.rules.rule_callable(tree)
    arrays = 0
    for from_phi in (False, True):
        rule, calls = _counting_block(tree, from_phi)
        for start in starts:
            for size in sizes:
                idx = np.arange(start, start + size, dtype=np.int64)
                want = _per_index_outcome(compiled, idx, from_phi)
                before = calls["scalar"]
                assert _block_outcome(rule, idx, calls) == want, (
                    cd.format_rule(tree), from_phi, start, size)
                arrays += calls["scalar"] == before
    return arrays


def test_blocks_agree_with_the_compiled_rule_bit_for_bit():
    rng = np.random.default_rng(2026)
    trees, arrays = 600, 0
    for _ in range(trees):
        arrays += _blocks_agree(random_expr(rng, int(rng.integers(1, 7))))
    # a third of the blocks of 300 are evaluated as arrays; the rest fail
    # a guard, an integer node leaving the exact range included
    assert 3 * arrays > trees * 2 * len(_BLOCK_STARTS)


@pytest.mark.parametrize("tree", _EDGE_TREES + [
    # the int 0 of a negation or a product, where doubles give -0.0
    "-n*(n-n)", "-(n-n)", "(n-n)*-n", "-(-n*(n-n))", "1/(n-n*(n-n)-n)",
    "(-1)^n*(n-n)", "(n-2*n)*(n-n)+(-0.0)",
    # zero bases under a varying negative exponent, and (-1)^k
    "0^(-n)", "(n-n)^(n-5)", "(-1)^(n*n*n)", "(-1)^(-n)", "(-n)^n",
    # integral bases to a literal k >= 0, multiplied out; n^4 passes 2^53
    # at n = 9742, so the blocks from 2^40 go through Python's power
    "(n+7)^3", "(-n)^3", "n^4", "(n-n)^0", "(n-n)^3", "1^n",
    # powers of two by exponent: from 10^3 they cross 2^-1074, and
    # 4^(n-600) overflows, inside the block
    "2^(-n)", "0.5^n", "4^(n-600)",
    # exponents that are not integral everywhere, and bases off the routes
    "2^(n/2)", "(-1)^(n*n)", "(-2)^n", "8^(n*n)",
    # a literal base to an exponent that is one number, past its cut
    "3^(0-800)+n", "(-3)^(0-801)*n", "n*(-0.5)^(1101-0)",
], ids=_edge_id)
def test_blocks_agree_with_the_compiled_rule_on_edge_cases(tree):
    if isinstance(tree, str):
        tree = cd.parse_rule(tree)
    _blocks_agree(tree)


@pytest.mark.parametrize("text", [
    # an error in the second sub-block, past a first that evaluates as
    # one array, and one in the first sub-block only
    "1/(n-5000)", "1/(n-7)",
    # n^3 leaves the exact range at 208064, inside the second sub-block
    # from 200000; in the last it does so and cancels, and float64 alone
    # would differ from 208065 on; as a power, float64 alone would differ
    # from 208069 on, and (n+7)^3 from 208062 on
    "n*n*n+0.5", "(-1)^n*n*n*n", "(n*n*n+n)-n*n*n", "n^3", "(n+7)^3",
])
def test_a_block_of_sub_blocks_agrees_with_the_compiled_rule(text):
    _blocks_agree(cd.parse_rule(text), starts=(1, 200000), sizes=(9000,))


@pytest.mark.parametrize("j", range(-3, 6))
def test_powers_of_two_are_exact_on_blocks(j):
    # (2^j)^k for every k in [-1300, 1300] short of overflow, as one
    # block: subnormal and zero powers included, bit for bit Python's
    base = 2.0 ** j
    tree = cd.parse_rule(f"{cd.rules._fmt_number(base)}^(n-1300)")
    rule, calls = _counting_block(tree)
    ks = [k for k in range(-1300, 1301) if j * k < 1024]
    idx = np.array(ks, dtype=np.int64) + 1300
    assert idx.size >= cd.rules._PER_INDEX_BELOW
    want = np.array([base ** k for k in ks], dtype=complex)
    assert _block_outcome(rule, idx, calls) == want.tobytes()
    assert calls["scalar"] == 0
    if j == 0:
        return
    # with the first overflowing exponent in it, the block goes per index
    # and names the index that the compiled rule names
    first = -(-1024 // j) if j > 0 else 1024 // j
    idx = np.sort(np.append(idx, first + 1300))
    want = _per_index_outcome(cd.rules.rule_callable(tree), idx, False)
    assert want[0] is RuleEvaluationError and want[2] == first + 1300
    assert _block_outcome(rule, idx, calls) == want
    assert calls["scalar"] > 0


def _counting_pow(monkeypatch):
    """A Counter of the calls to Python's power on blocks, and of the
    elements they take."""
    counts = Counter()
    py_pow = cd.rules._PY_POW

    def counting(base, k):
        counts["calls"] += 1
        counts["elements"] += np.broadcast(base, k).size
        return py_pow(base, k)

    monkeypatch.setattr(cd.rules, "_PY_POW", counting)
    return counts


@pytest.mark.parametrize("text, python_powers", [
    ("1/(n+1)^2", False), ("(n+3)/(2*n^2+5)", False), ("2^(-n)", False),
    ("n*2^(1-n)", False), ("3+(-1)^n", False),
    # a base that is not a power of two needs the C library's pow
    ("5^(-n)", True),
])
def test_block_powers_call_python_only_off_the_exact_routes(
        text, python_powers, monkeypatch):
    counts = _counting_pow(monkeypatch)
    rule = cd.rules.block_callable(cd.parse_rule(text))
    rule(np.arange(1, 4097, dtype=np.int64))
    assert bool(counts["calls"]) == python_powers


def test_block_powers_call_python_only_short_of_the_cut(monkeypatch):
    counts = _counting_pow(monkeypatch)
    rule = cd.rules.block_callable(cd.parse_rule("3^(-n)"))
    # a block wholly past the cut: every value is 0.0, and no pow runs
    assert not rule(np.arange(10 ** 4, 10 ** 4 + 4096, dtype=np.int64)).any()
    assert counts["elements"] == 0
    # from 1: pow runs on every non-zero value, and on no element where
    # 3^-n <= 2^-1101, past the cut's margin
    idx = np.arange(1, 4097, dtype=np.int64)
    values = rule(idx)
    assert values.dtype == np.float64 and values.tobytes() == np.array(
        [3.0 ** -n for n in idx.tolist()]).tobytes()
    nonzero = sum(3.0 ** -n != 0.0 for n in idx.tolist())
    live = sum(3 ** n < 2 ** 1101 for n in idx.tolist())
    assert 0 < nonzero <= counts["elements"] <= live < 700
    # a base that is no literal has no cut: pow runs on every element
    counts.clear()
    cd.rules.block_callable(cd.parse_rule("(1/(n+1))^3"))(idx)
    assert counts["elements"] == idx.size


_CUT_EXPONENTS = ("-n", "1-n", "n", "2*n", "-n*n", "n-700")


def _zero_edges(scalar, stop=4000):
    """The indices below ``stop`` where the compiled rule's value turns to
    or from zero; an error counts as non-zero."""
    def zero(n):
        try:
            return scalar(n) == 0.0
        except RuleEvaluationError:
            return False
    zeros = [zero(n) for n in range(stop)]
    return [n for n in range(1, stop) if zeros[n] != zeros[n - 1]]


@pytest.mark.parametrize("base, literal", [
    ("3", True), ("5", True), ("9", True), ("10", True), ("1.5", True),
    ("0.3", True), ("(-3)", True), ("(-0.5)", True), ("(-2)", True),
    # a quotient is not a literal: no cut, pow on every element
    ("(1/3)", False),
])
def test_powers_past_the_cut_agree_on_blocks(base, literal, monkeypatch):
    # blocks of 300 from 0, 10^3 and 10^4, and from 150 below each index
    # where the values turn to or from zero, so that blocks straddle the
    # cut and lie wholly past it; bit for bit the compiled rule's values,
    # -0.0 at odd exponents of a negative base included, as mu and phi
    counts, seen = _counting_pow(monkeypatch), Counter()
    for exponent in _CUT_EXPONENTS:
        tree = cd.parse_rule(f"{base}^({exponent})")
        compiled = cd.rules.rule_callable(tree)
        starts = {0, 10 ** 3, 10 ** 4}
        starts |= {max(0, n - 150) for n in _zero_edges(compiled)}
        for from_phi in (False, True):
            rule, calls = _counting_block(tree, from_phi)
            for start in sorted(starts):
                idx = np.arange(start, start + 300, dtype=np.int64)
                want = _per_index_outcome(compiled, idx, from_phi)
                before, elements = calls["scalar"], counts["elements"]
                assert _block_outcome(rule, idx, calls) == want, (
                    exponent, from_phi, start)
                if calls["scalar"] != before:
                    continue  # evaluated index by index
                elements = counts["elements"] - elements
                seen["past" if elements == 0 else "live"
                     if elements == idx.size else "straddles"] += 1
                values = np.frombuffer(want, dtype=complex).real
                seen["-0.0"] += np.signbit(values[values == 0.0]).any()
    assert bool(seen["past"]) == bool(seen["straddles"]) == literal
    assert bool(seen["-0.0"]) == base.startswith("(-")


from ruletrees import random_power_rule


def test_power_leaning_rules_agree_on_blocks_across_the_cut():
    # seeded literal-base powers, with one more block start just below
    # the index where the first of them reaches its cut
    rng = np.random.default_rng(2427)
    trees, cuts, arrays = 120, 0, 0
    for _ in range(trees):
        tree, cut = random_power_rule(rng)
        _blocks_agree(tree)
        if cut is not None:
            cuts += 1
            arrays += _blocks_agree(tree, starts=(max(0, cut - 100),))
    # most first powers fall to their cut, and a quarter of the blocks
    # there, mu and phi, are evaluated as arrays
    assert 2 * cuts > trees and 4 * arrays > 2 * cuts


def test_rule_compilation_never_reenters_the_public_name(monkeypatch):
    # perfbench counts every callable rule_callable returns as one rule
    # evaluation, so compiling must recurse through a private name
    entered = []
    public = cd.rules.rule_callable

    def counting(expr):
        entered.append(expr)
        return public(expr)

    monkeypatch.setattr(cd.rules, "rule_callable", counting)
    tree = cd.parse_rule("-((n+1)*2-3)/(n^2+(-1)^n*4)^2-" * 12 + "n")
    rule = cd.rules.rule_callable(tree)
    for n in (1, 5, 10 ** 6):
        assert rule(n) == reference_eval(tree, n)
    assert entered == [tree]


_LONG_SUM = "+".join(["1/(n+1)"] * 2000)


def test_a_long_rule_evaluates_at_the_default_recursion_limit(capsys):
    # both evaluators walk the rule's program in a loop, so a 2,000-term
    # sum needs no more Python frames than a short rule; the recursion
    # limit is left as it is
    tree = cd.parse_rule(_LONG_SUM)
    rule = cd.rules.rule_callable(tree)
    for n in (0, 1, 10 ** 6, 2 ** 53 + 1):
        term = 1.0 / (n + 1.0)
        want = term
        for _ in range(1999):
            want += term
        assert struct.pack("<d", rule(n)) == struct.pack("<d", want)
    # a block of 300 from 10^3 is evaluated as one array, bit for bit
    assert _blocks_agree(tree, starts=(10 ** 3,), sizes=(300,)) == 2
    assert cli.main(["deriv", "norm", "--mu", _LONG_SUM,
                     "--tail", "decay"]) == 0
    capsys.readouterr()


# -- the printer and the exact analysis against the reference walks ---------

from ruletrees import (
    analysis_passes_a_limit, reference_format, reference_profile,
)


def test_format_matches_the_reference_printer():
    rng = np.random.default_rng(7)
    for _ in range(3000):
        tree = random_expr(rng, int(rng.integers(1, 7)))
        assert cd.format_rule(tree) == reference_format(tree)


def _profile_outcome(analyse, tree):
    try:
        profile = analyse(tree)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return None if profile is None else (profile.num, profile.den)


def test_profiles_match_the_reference_analysis():
    rng = np.random.default_rng(11)
    kinds = Counter()
    for _ in range(800):
        tree = random_expr(rng, int(rng.integers(1, 7)))
        if analysis_passes_a_limit(tree):
            # past a limit the analysis declines, as for a rule that is
            # not rational
            assert cd.rational_profile(tree) is None
            kinds["limit"] += 1
            continue
        want = _profile_outcome(reference_profile, tree)
        assert _profile_outcome(cd.rational_profile, tree) == want
        kinds["none" if want is None else "profile"] += 1
    # the fuzz reaches profiles, non-rational rules and the limits
    assert kinds["profile"] and kinds["none"] and kinds["limit"]


@pytest.mark.parametrize("text, kept", [
    ("n^64", True), ("n^65", False), ("n^(-65)", False),
    ("((n+1)/(n+2))^64", True), ("((n+1)/(n+2))^128", False),
    ("(n+1)^33*(n+1)^31", True), ("(n+1)^33*(n+1)^32", False),
    ("10^400", True), ("2^32768", True), ("2^32769", False),
    ("1^100000000", False), ("0^100000000", False),
    ("n^2000", False),
])
def test_analysis_limits(text, kept):
    # an unreduced numerator or denominator may reach degree 64, and a
    # constant power |k| x bit length 2^16; past either there is no profile
    tree = cd.parse_rule(text)
    assert analysis_passes_a_limit(tree) is not kept
    assert (cd.rational_profile(tree) is not None) is kept
