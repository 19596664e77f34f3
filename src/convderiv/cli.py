"""Command-line front end.

Subcommands: ``conv`` (convolution arithmetic), ``deriv`` (norms,
compactness, application, truncation, non-compactness witnesses),
``cheese`` (build/verify/demo the swiss-cheese construction), and
``bimodule`` (finite-dimensional checks, the rank-one construction, and
derivation transfer).  Exit codes: 0 on success with every certificate
passing, 1 when a certificate fails or cannot be produced, 2 on usage,
parse, or input-domain errors.

Rules for --phi/--mu are expressions in n.  Tails default to "closed
form"; when the rule is rational in n an exact certificate for the derived
coefficient sequence is computed symbolically (never sampled).  Explicit
--tail flags (zero:N | decay | none) override the analysis.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import sys
from dataclasses import asdict
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import bimodules, cheese, reports, rules
from .convolution import (
    CertificateViolationError,
    ClosedForm,
    Decay,
    L1Element,
    Tail,
    UNDECLARED,
    UndeclaredTailError,
    ZeroTail,
    _gamma,
    convolve_with_radius,
    l1_norm,
    tail_to_dict,
    validate_tail,
)
from .derivations import (
    PROBE_CAP,
    Derivation,
    IndexOverflowError,
    NoAdmissibleIndexError,
    TailUnknownError,
    UnboundedDerivationError,
    WitnessVerificationError,
)


class _Outcome:
    """A handler's result.  ``table`` builds the (header, rows) that
    ``--csv`` writes; only ``main`` calls it, and only when it writes."""

    def __init__(self, inputs: dict, result: dict, certificates: list,
                 table: Optional[Callable[[], Tuple[List[str], list]]] = None):
        self.inputs = inputs
        self.result = result
        self.certificates = certificates
        self.table = table


# ---------------------------------------------------------------------------
# flag helpers
# ---------------------------------------------------------------------------

def _tail_flag(text: str) -> Tail:
    # the declaration is about mu, whose certificates start at index 1
    if text == "decay":
        return ClosedForm(Decay(start=1))
    if text == "none":
        return UNDECLARED
    if text.startswith("zero:"):
        try:
            return ZeroTail(int(text.split(":", 1)[1]))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad zero-tail index in {text!r}")
    raise argparse.ArgumentTypeError(
        f"tail must be zero:N, decay, or none (got {text!r})")


def _coeffs(text: str) -> L1Element:
    items = [item.strip() for item in text.split(",")]
    try:
        values = [complex(item) for item in items if item]
    except ValueError as exc:
        raise ValueError(f"bad coefficient list {text!r}: {exc}")
    if not all(map(cmath.isfinite, values)):
        raise ValueError(f"bad coefficient list {text!r}: "
                         "coefficients must be finite")
    return L1Element(values)


def _finite(name: str, values) -> None:
    """Refuse a result that overflowed: a report would write it as
    Infinity or NaN, which is not JSON."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} overflows a double")


def _build_derivation(args) -> Tuple[Derivation, dict]:
    # a --depth past the cap or below 0 is refused before any read;
    # witness has none
    if "depth" in args and args.depth > PROBE_CAP:
        raise ValueError(f"depth {args.depth} is beyond the probe cap "
                         f"{PROBE_CAP}")
    if "depth" in args and args.depth < 0:
        raise ValueError(f"depth {args.depth} is negative")
    if (args.phi is None) == (args.mu is None):
        raise ValueError("exactly one of --phi or --mu is required")
    text = args.phi if args.phi is not None else args.mu
    expr = rules.parse_rule(text)
    mu_rule = rules.block_callable(expr, from_phi=args.phi is not None)
    profile = rules.rational_profile(expr)
    if args.phi is not None:
        mu_profile = profile.compose_shift(-1).times_index() \
            if profile is not None else None
    else:
        mu_profile = profile
    tail = getattr(args, "tail", None)
    if tail is not None:
        tail_source = "declared"
    elif mu_profile is not None:
        if mu_profile.degree_gap > 0:
            raise UnboundedDerivationError(
                "the coefficient sequence n*phi(t^(n-1)) diverges, so no "
                "bounded derivation matches this rule")
        cert = rules.certificate_for(mu_profile, min_start=1)
        tail = cert if isinstance(cert, ZeroTail) else ClosedForm(cert)
        tail_source = "exact rational analysis"
    else:
        tail = ClosedForm()
        tail_source = "default (closed form, no certificate)"
    deriv = Derivation.from_mu(mu_rule, tail=tail, vectorized=True)
    inputs = {
        "rule": text,
        "rule_kind": "phi" if args.phi is not None else "mu",
        "tail": tail_to_dict(deriv.mu.tail),
        "tail_source": tail_source,
    }
    return deriv, inputs


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_conv(args) -> _Outcome:
    a, b = _coeffs(args.a), _coeffs(args.b)
    product, radius, route = convolve_with_radius(a, b)
    _finite("a product coefficient", product.coeffs)
    _finite("the product's radius", radius)
    inputs = {"a": a.coeffs, "b": b.coeffs}
    # a sum past the largest double is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, beta = l1_norm(a), l1_norm(b)
        bound = alpha * beta
        value = l1_norm(product)
    _finite("the product's l1 norm", value)
    _finite("the factors' l1 norm bound", bound)
    # The theorem |a*b|_1 <= |a|_1 |b|_1 survives rounding as value <=
    # (bound + slack)(1 + gamma_N) (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., §§2.1, 3.1; u = 2^-53, gamma_k = k u/(1
    # - k u), (1 + gamma_j)(1 + gamma_k) <= 1 + gamma_(j+k), e = 2^-1074).
    # A rounded product or modulus is its value times 1 + delta, |delta| <=
    # u (gamma_2 for a modulus), plus at most e/2 with gradual underflow; a
    # sum of k terms >= 0 is within gamma_(k-1), with no absolute error.
    # On the direct route a part of a product coefficient is a real sum of
    # 2m products, m = min(la, lb), within gamma_2m of sum_r |a_r||b_(n-r)|
    # as |xr yr| + |xi yi| <= |x||y|, so the coefficient is within sqrt(2)
    # gamma_2m <= gamma_3m of it, plus 3m e (``convolve_with_radius``).  On
    # the exact route the coefficients are exact, and on the FFT route each
    # is within the radius r of its value, normwise, barring underflow as r
    # does.  So the computed moduli sum to at most (1 + gamma_p)(|a||b| + lp
    # r + lp (3m + 1) e), p = lp + 1 + 3m, r counted on the FFT route only.
    # The sum alpha of the moduli of a is at least (1 - gamma_(la+1)) |a| -
    # la e/2, likewise beta, and bound >= alpha beta (1 - u) - e/2; so
    # |a||b| <= (1 + gamma_2q)(bound + (la beta + lb alpha + 2) e/2), q = la
    # + lb + 3, as 1/(1 - gamma_q) <= 1 + gamma_2q.  N = p + 2q, plus four
    # roundings of the right-hand side; on the FFT route the unused
    # gamma_3m covers a fifth, the sum of the two slack terms.  The absolute
    # term is twice the e terms above plus 2e, which covers its own
    # roundings and the e/2 that lp r and the last product may each lose.
    la, lb, lp = a.coeffs.size, b.coeffs.size, product.coeffs.size
    m = min(la, lb)
    n = lp + 3 * m + 2 * (la + lb) + 11
    tiny = (la * beta + lb * alpha + 2 * lp * (3 * m + 1) + 4) * 2.0 ** -1074
    slack = (lp * radius if route == "fft" else 0.0) + tiny
    certs = [reports.certificate(
        "submultiplicative", value <= (bound + slack) * (1.0 + _gamma(n)),
        product_norm=value, factor_bound=bound)]
    result = {"coefficients": product.coeffs,
              "l1_norm": value, "exact": route == "exact", "radius": radius}
    return _Outcome(inputs, result, certs)


def _cmd_deriv_norm(args) -> _Outcome:
    deriv, inputs = _build_derivation(args)
    inputs["depth"] = args.depth
    lower, exact = deriv.norm(args.depth)
    result = {"lower": lower, "exact": exact, "depth": args.depth}
    return _Outcome(inputs, result, [])


def _cmd_deriv_classify(args) -> _Outcome:
    deriv, inputs = _build_derivation(args)
    deriv.mu.at(1)  # a rule that cannot be evaluated has no verdict
    inputs.update(depth=args.depth, tol=args.tol)
    verdict = deriv.classify_compact(tol=args.tol, probe_depth=args.depth)
    certs = [reports.certificate(
        "verdict-evidence", verdict.recheck(deriv),
        verdict=verdict.verdict, cited=list(verdict.cited_indices),
        decay_from=verdict.decay_from)]
    return _Outcome(inputs, verdict.to_dict(), certs)


def _cmd_deriv_apply(args) -> _Outcome:
    deriv, inputs = _build_derivation(args)
    f = _coeffs(args.f)
    inputs.update(f=f.coeffs, depth=args.depth)
    # values past the largest double are refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        values = deriv.apply(f).values(args.depth)
    _finite("an image value", values)
    lower, exact = deriv.norm(max(args.depth, 64))
    result = {"values": values,
              "sup_probe": float(np.abs(values).max(initial=0.0))}
    _finite("the image's largest modulus", result["sup_probe"])
    certs = []
    if exact is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = exact * l1_norm(f) + 1e-12
        _finite("the image bound", bound)
        certs.append(reports.certificate(
            "image-bounded", result["sup_probe"] <= bound,
            sup_probe=result["sup_probe"], bound=bound))
    return _Outcome(inputs, result, certs)


def _cmd_deriv_truncate(args) -> _Outcome:
    deriv, inputs = _build_derivation(args)
    k = args.terms
    inputs.update(rank_cut=k, depth=args.depth)
    truncated, err = deriv.truncate(k)
    probe_to = max(args.depth, k + 1)
    # read on from where truncate stopped, unless the probe ends before it
    stop, read = truncated.probed
    probe_sup = validate_tail(deriv.mu, probe_to, k + 1) \
        if stop > probe_to + 1 else \
        float(np.maximum(read, validate_tail(deriv.mu, probe_to, stop)))
    certs = [reports.certificate(
        "truncation-error-dominates-probe", probe_sup <= err + 1e-12,
        err=err, probe_sup=probe_sup, probe_to=probe_to)]
    result = {"k": k, "error": err,
              "head": truncated.mu.values(k)}
    return _Outcome(inputs, result, certs)


def _cmd_deriv_witness(args) -> _Outcome:
    deriv, inputs = _build_derivation(args)
    inputs.update(eps=args.eps, terms=args.terms, growth_constant=args.const)
    report = deriv.witness(args.eps, args.terms, growth_constant=args.const)
    certs = [reports.certificate(
        "witness-inequalities", report.recheck(deriv),
        separation=report.separation, epsilon=args.eps,
        pairwise_floor=args.eps / 4, diagonal_floor=args.eps / 3)]
    return _Outcome(inputs, report.to_dict(), certs)


def _cmd_cheese_build(args) -> _Outcome:
    # CheeseSet raises unless every geometry margin is positive
    X = cheese.build_cheese(args.nmax)
    result = dict(X.to_dict(), margins=asdict(X.margins))
    return _Outcome({"nmax": args.nmax}, result, [])


# --grid is refused past this before anything is allocated: at 2^20 points
# each array over the grid takes 8 MB (16 MB complex) and the --csv table
# a million rows, where an unbounded grid would fail inside numpy's
# allocation with a traceback
GRID_CAP = 1 << 20


def _grid_inputs(args) -> dict:
    # a single grid point has no interval to sweep
    if args.grid < 2:
        raise ValueError("grid must be at least 2")
    if args.grid > GRID_CAP:
        raise ValueError(f"grid {args.grid} is beyond the grid cap "
                         f"{GRID_CAP}")
    return {"nmax": args.nmax, "grid": args.grid}


def _cmd_cheese_verify(args) -> _Outcome:
    inputs = _grid_inputs(args)
    X = cheese.build_cheese(args.nmax)
    verification = cheese.verify_cheese(X, grid=args.grid)
    certs = [
        reports.certificate("per-term-dyadic-bound",
                            verification.per_term_ok,
                            margin=verification.per_term_margin),
        reports.certificate("derivative-bound-sum", verification.bound_ok,
                            max_certified=verification.max_certified,
                            threshold=verification.bound_threshold),
    ]

    def table():
        xs = cheese.interval_grid(args.grid)
        return (["x", "sum", "certified_lt"],
                [[float(x), float(s), float(c)]
                 for x, s, c in zip(xs, *X.bound_sum_grid(xs))])
    return _Outcome(inputs, verification.to_dict(), certs, table=table)


def _cmd_cheese_demo(args) -> _Outcome:
    inputs = _grid_inputs(args)
    # one disc has no pair to separate, and its minimum separation would
    # be written as Infinity, which is not JSON
    if args.nmax < 2:
        raise ValueError("demo needs at least two discs")
    X = cheese.build_cheese(args.nmax)
    report = cheese.noncompact_report(X, grid=args.grid)
    certs = [
        reports.certificate("unit-diagonal", report.diagonal_ok,
                            diag_error=report.diag_error,
                            tol=report.diag_tol),
        reports.certificate("pairwise-separation", report.separation_ok,
                            min_separation=report.min_separation,
                            floor=report.separation_floor),
    ]
    return _Outcome(inputs, report.to_dict(), certs, table=lambda: (
        ["n", "m", "M_nm"],
        [[n + 1, m + 1, float(value)]
         for (n, m), value in np.ndenumerate(report.matrix)]))


def _load_algebra(name_or_path: str) -> bimodules.FiniteAlgebra:
    if name_or_path.startswith("@"):
        return bimodules.algebra_from_file(name_or_path[1:])
    return bimodules.algebra_catalog(name_or_path)


def _cmd_bimodule_check(args) -> _Outcome:
    # FiniteAlgebra rejects non-commutative and non-associative input, and
    # the self-module and its dual are valid and symmetric by construction
    A = _load_algebra(args.algebra)
    inputs = {"algebra": args.algebra, "dim": A.dim}
    result = {"dim": A.dim,
              "square_span_dim": int(bimodules.square_span(A).shape[0]),
              "associativity_defect": A.associativity_defect}
    return _Outcome(inputs, result, [])


def _cmd_bimodule_rank1(args) -> _Outcome:
    A = _load_algebra(args.algebra)
    inputs = {"algebra": args.algebra, "dim": A.dim}
    anchor = bimodules.find_anchor(A)
    lambda0, D = bimodules.rank_one_derivation(A, anchor)
    dual_of_A = A.self_bimodule().dual()
    defect = bimodules.derivation_defect(A, dual_of_A, D)
    scale = bimodules.derivation_scale(A, dual_of_A, D)
    anchor_value = complex(anchor @ D.matrix @ anchor)
    # D is not inner: inner derivations into the symmetric dual vanish, and
    # anchor-pairing shows D(a0)(a0) = 1
    certs = [
        reports.certificate("rank-one", D.rank == 1, rank=D.rank),
        reports.certificate("derivation-identity",
                            defect <= 1e-12 * max(1.0, scale), defect=defect),
        reports.certificate("anchor-pairing",
                            abs(anchor_value - 1) <= 1e-12,
                            value=reports.complex_to_json(anchor_value)),
    ]
    # the report writes every entry as an [re, im] pair, real data too
    result = {"anchor": anchor.astype(complex),
              "functional": lambda0.matrix[0].astype(complex),
              "matrix": D.matrix.astype(complex)}
    return _Outcome(inputs, result, certs)


def _cmd_bimodule_transfer(args) -> _Outcome:
    A = _load_algebra(args.algebra)
    if not bimodules._TRUNC_RE.match(args.algebra):
        raise ValueError("transfer demo needs a truncated polynomial "
                         "algebra (truncK) so t d/dt supplies the derivation")
    E = A.self_bimodule()
    D = bimodules.euler_derivation(A)
    a0, lam = bimodules.find_transfer_functional(A, E, D, seed=args.seed)
    composed = bimodules.transfer(D, lam, A, E)
    anchor_value = complex(a0 @ composed.matrix @ a0)
    norm_D = bimodules.opnorm_l1_to_l1(D.matrix)
    norm_R = bimodules.opnorm_l1_to_sup(composed.homomorphism.matrix)
    norm_composed = bimodules.opnorm_l1_to_sup(composed.matrix)
    rank_before, rank_after = D.rank, composed.rank  # one SVD each
    # transfer raises unless composed.defect <= composed.tolerance
    certs = [
        reports.certificate("anchor-pairing",
                            abs(anchor_value - 1) <= 1e-12,
                            value=reports.complex_to_json(anchor_value)),
        reports.certificate("rank-monotone", rank_after <= rank_before,
                            rank_before=rank_before, rank_after=rank_after),
        reports.certificate("norm-product-bound",
                            norm_composed <= norm_R * norm_D + 1e-12,
                            norm_composed=norm_composed,
                            product=norm_R * norm_D),
    ]
    result = {
        "anchor": a0.astype(complex),  # [re, im] pairs, as in rank1
        "functional": lam.astype(complex),
        "matrix": composed.matrix.astype(complex),
        "rank": rank_after,
        "defect": composed.defect,
        "tolerance": composed.tolerance,
    }
    return _Outcome({"algebra": args.algebra, "seed": args.seed},
                    result, certs)


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared for the process;
    parsing reads it and leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="convderiv",
        description="derivations on the one-sided convolution algebra: "
                    "norms, compactness certificates, witnesses, bimodule "
                    "transfer, and the swiss-cheese counterexample")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here")
    common.add_argument("--seed", type=int, default=42,
                        help="seed for any randomised search (default 42)")
    top = parser.add_subparsers(dest="group", required=True)

    conv = top.add_parser("conv", parents=[common],
                          help="convolve two coefficient lists")
    conv.add_argument("a", help="comma-separated coefficients")
    conv.add_argument("b", help="comma-separated coefficients")
    conv.set_defaults(handler=_cmd_conv)

    deriv = top.add_parser("deriv", help="derivation calculus")
    sub = deriv.add_subparsers(dest="command", required=True)

    def rule_flags(p, depth_default=None, tol=False):
        p.add_argument("--phi", help="rule for the value of D at t")
        p.add_argument("--mu", help="rule for the coefficient sequence")
        p.add_argument("--tail", type=_tail_flag, default=None,
                       help="tail declaration: zero:N | decay | none")
        if depth_default is not None:
            p.add_argument("--depth", type=int, default=depth_default)
        if tol:
            p.add_argument("--tol", type=float, default=1e-9)

    norm = sub.add_parser("norm", parents=[common])
    rule_flags(norm, depth_default=1000)
    norm.set_defaults(handler=_cmd_deriv_norm)

    classify = sub.add_parser("classify", parents=[common])
    rule_flags(classify, tol=True, depth_default=256)
    classify.set_defaults(handler=_cmd_deriv_classify)

    apply_p = sub.add_parser("apply", parents=[common])
    rule_flags(apply_p, depth_default=64)
    apply_p.add_argument("--f", required=True,
                         help="comma-separated coefficients of the argument")
    apply_p.set_defaults(handler=_cmd_deriv_apply)

    truncate = sub.add_parser("truncate", parents=[common])
    rule_flags(truncate, depth_default=256)
    truncate.add_argument("--terms", type=int, required=True,
                          help="truncation index k")
    truncate.set_defaults(handler=_cmd_deriv_truncate)

    witness = sub.add_parser("witness", parents=[common])
    rule_flags(witness)
    witness.add_argument("--eps", type=float, required=True)
    witness.add_argument("--terms", type=int, required=True)
    witness.add_argument("--const", type=float, default=1000.0,
                         help="growth constant between witness indices")
    witness.set_defaults(handler=_cmd_deriv_witness)

    cheese_p = top.add_parser("cheese", help="swiss-cheese construction")
    csub = cheese_p.add_subparsers(dest="command", required=True)
    for name, handler, needs_grid in (("build", _cmd_cheese_build, False),
                                      ("verify", _cmd_cheese_verify, True),
                                      ("demo", _cmd_cheese_demo, True)):
        p = csub.add_parser(name, parents=[common])
        p.add_argument("--nmax", type=int, default=12)
        if needs_grid:
            p.add_argument("--grid", type=int, default=2001)
            p.add_argument("--csv", help="write the grid table here")
        p.set_defaults(handler=handler)

    bim = top.add_parser("bimodule", help="finite-dimensional instances")
    bsub = bim.add_subparsers(dest="command", required=True)
    for name, handler in (("check", _cmd_bimodule_check),
                          ("rank1", _cmd_bimodule_rank1),
                          ("transfer", _cmd_bimodule_transfer)):
        p = bsub.add_parser(name, parents=[common])
        p.add_argument("--algebra", required=True,
                       help="catalog name (zero2, nil1, truncK) or @file.json")
        p.set_defaults(handler=handler)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        outcome = args.handler(args)
    except (rules.RuleSyntaxError, rules.RuleEvaluationError,
            UnboundedDerivationError, TailUnknownError,
            UndeclaredTailError, cheese.OnBoundaryError,
            bimodules.NoSuchElementError, cheese.ConstructionFailedError,
            ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CertificateViolationError, WitnessVerificationError,
            NoAdmissibleIndexError, IndexOverflowError) as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    report = reports.build_report(argv, outcome.inputs, outcome.result,
                                  outcome.certificates, seed=args.seed)
    all_passed = all(c["passed"] for c in outcome.certificates)
    for cert in outcome.certificates:
        status = "PASS" if cert["passed"] else "FAIL"
        print(f"certificate {cert['name']}: {status}")
    if args.out:
        reports.write_report(report, args.out)
        print(f"report written to {args.out}")
    else:
        print(reports.render_report(report), end="")
    if outcome.table is not None and args.csv:
        header, rows = outcome.table()
        reports.write_csv(args.csv, header, rows)
        print(f"table written to {args.csv}")
    return 0 if all_passed else 1


def revalidate_report(report: dict) -> bool:
    """Re-run a report's command from its serialized inputs and confirm the
    result payload and every certificate verdict reproduce."""
    args = _build_parser().parse_args(report["command"])
    outcome = args.handler(args)  # only main writes --out and --csv
    return reports.to_json_value(outcome.result) == report["result"] and [
        (c["name"], c["passed"]) for c in outcome.certificates] == [
        (c["name"], c["passed"]) for c in report["certificates"]]


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
