"""Classification pipeline: smoothness/isolatedness screening, F-purity
and F-liftability of R/(f_1, ..., f_m) for m >= 1, with
machine-checkable certificates.

`classify` runs one procedure for every m: the screen, Fedder's test,
the per-generator residuals r_i = s^p * delta1(f_i) + g_i^p with
g_i = -sigma(F_* delta1(f_i)), and the containment.  sigma is the
near-splitting built from the survivor-normalized multiplier and
s = sigma(F_* 1).  Both the screen and the containment rest on one
submodule N of R^m, spanned by the multiples f_j e_i and the Jacobian
columns (df_i/dx_k)_i.  The screen reads the singular locus off the
support of R^m/N.  The input is F-liftable iff the vector (r_1..r_m)
lies in N^[p] + (f_j e_i), the span of the gradient-power columns
((df_i/dx_k)^p)_i and the f_j e_i, which encodes the shared-cofactor
condition; for m = 1 that is r in (f) + J^[p].
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .fp_poly import Poly, format_poly
from .groebner import (GREVLEX, ModuleGroebnerBasis, ModuleVector,
                       MonomialOrder, is_zero_dimensional, module_buchberger,
                       module_normal_form, normal_form_with_cofactors,
                       reduce_by_generators, supported_only_at_origin)
# unused here, but bound for perfbench/tracer.py, which patches the
# engine functions by name in this module
from .groebner import buchberger, normal_form  # noqa: F401
from .frobsplit import SplittingData, apply_sigma, build_splitting, delta1

SMOOTH = "smooth"
ISOLATED = "isolated_at_origin_only"
NOT_ISOLATED = "not_isolated"
SINGULAR_ELSEWHERE = "singular_elsewhere"

class TooManyGeneratorsError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    """Evidence backing a verdict: the Fedder witness monomial, the trace
    constant sigma(F_*1)(0), the canonical g (one per generator), the
    membership remainder and, when requested, cofactors re-expanding the
    residual over the test generators.
    """

    fedder_survivor: tuple[int, ...] | None
    sigma_trace_constant: int
    g: tuple[Poly, ...] | None = None
    remainder: tuple[Poly, ...] | None = None
    cofactors: tuple[Poly, ...] | None = None


@dataclass(frozen=True)
class LiftabilityReport:
    p: int
    variables: tuple[str, ...]
    generators: tuple[str, ...]
    status: str  # smooth | not_isolated | classified
    f_pure: bool | None
    f_liftable: bool | None
    conclusive: bool
    certificate: Certificate | None
    timings_ms: dict
    order: str = "grevlex"

    def __post_init__(self):
        if self.f_liftable and not self.f_pure:
            raise ValueError("inconsistent report: F-liftable but not F-pure")


def isolated_singularity_check(gens: Sequence[Poly],
                               order: MonomialOrder = GREVLEX, *,
                               track: bool = False
                               ) -> tuple[str, ModuleGroebnerBasis]:
    """Classify the support of R^m/N: smooth (N = R^m) /
    isolated_at_origin_only / singular_elsewhere / not_isolated.

    N is spanned by the f_j e_i, by (i, j), followed by the Jacobian
    columns (df_i/dx_k)_i, by k; for m = 1 it is the ideal
    (f, df/dx_1, ..., df/dx_n).  The 0th Fitting ideal of R^m/N, made of
    the m x m minors of that presentation, contains f_j^m and lies in
    (f) + (m x m minors of the Jacobian), so the support of R^m/N is
    V(f) cut with those minors: the singular locus by the Jacobian
    criterion (Eisenbud, Commutative Algebra, Section 20).  Input of
    codimension below m comes out not_isolated: by Krull's principal
    ideal theorem every component of V(f) has codimension at most m,
    and along one of codimension c < m, which is positive-dimensional,
    the Jacobian has rank at most c, so every m x m minor vanishes.

    Returns the reduced basis of N as well, built with `track`.
    """
    if not gens:
        raise ValueError("generator list must be nonempty")
    ring = gens[0].ring
    m = len(gens)
    if m > ring.nvars:
        raise TooManyGeneratorsError(
            f"{m} generators in {ring.nvars} variables is not a "
            "complete intersection")
    zero = ring.zero()
    spanning = [ModuleVector([f if t == i else zero for t in range(m)])
                for i in range(m) for f in gens]
    spanning += [ModuleVector([f.derivative(k) for f in gens])
                 for k in range(ring.nvars)]
    basis = module_buchberger(spanning, order, track=track)
    if basis.contains_one():
        return SMOOTH, basis
    if not is_zero_dimensional(basis):
        return NOT_ISOLATED, basis
    if supported_only_at_origin(basis):
        return ISOLATED, basis
    return SINGULAR_ELSEWHERE, basis


def residual_polynomial(f: Poly, split: SplittingData | None = None) -> Poly:
    """s^p * delta1(f) + (-sigma(F_* delta1(f)))^p, unreduced.

    Requires the F-purity test to pass (the section must be a unit at the
    origin for the containment test to be meaningful).
    """
    if split is None:
        split = build_splitting([f])
    if not split.fpure_at_origin:
        raise ValueError("residual is defined only for F-pure input "
                         "(Fedder test failed)")
    return _lift_and_residual(f, split, split.s.frobenius())[1]


def _lift_and_residual(f: Poly, split: SplittingData,
                       s_p: Poly) -> tuple[Poly, Poly]:
    """(g, r) for one generator: g = -sigma(F_* delta1(f)) and
    r = s^p * delta1(f) + g^p, given s_p = s^p."""
    d1 = delta1(f)
    g = -apply_sigma(split, d1)
    return g, s_p * d1 + g.frobenius()


def _residual_membership(residuals: Sequence[Poly], gens: Sequence[Poly],
                         screen: ModuleGroebnerBasis, order: MonomialOrder,
                         want_cofactors: bool):
    """Decide (r_1..r_m) in N^[p] + (f_j e_i), with N the screen's
    submodule; returns (member, remainder coordinates, cofactors).

    The p-th powers of the coordinates of N's reduced basis form a basis
    of N^[p] (leading terms go to p-th powers), so they seed Buchberger
    as a known prefix, followed by the f_j e_i.  A zero remainder on
    division by that generating set already proves membership;
    otherwise Buchberger completes it and reduces the quick remainder,
    which has the residual's (unique) normal form.  Cofactors run over
    the f_j e_i by (i, j), then w_1..w_n, w_k = ((df_i/dx_k)^p)_i; they
    need `screen` built with track=True.
    """
    ring = gens[0].ring
    m = len(gens)
    multiples = screen.original_generators[:m * m]
    known = len(screen.generators)
    seed = [ModuleVector([c.frobenius() for c in g]) for g in screen]
    seed += multiples
    target = ModuleVector(residuals)
    if not want_cofactors:
        quick = reduce_by_generators(target, seed, order)
        if quick.is_zero():
            return True, quick.coordinates, None
        full = module_buchberger(seed, order, known_gb_prefix=known)
        rem = module_normal_form(quick, full)
        return rem.is_zero(), rem.coordinates, None

    full = module_buchberger(seed, order, track=True, known_gb_prefix=known)
    rem, quotients = normal_form_with_cofactors(target, full)
    if not rem.is_zero():
        return False, rem.coordinates, None
    seed_cof = [ring.zero()] * len(seed)
    for q, rep in zip(quotients, full.reprs):
        if q.is_zero():
            continue
        for t, r in enumerate(rep):
            if not r.is_zero():
                seed_cof[t] = seed_cof[t] + q * r
    # a seed element g^[p] with g = sum(c_t * N_t) over N's generators is
    # sum(c_t^p * N_t^[p]), where w_k is the p-th power of a Jacobian
    # column and (f_j e_i)^[p] = f_j^(p-1) * (f_j e_i)
    f_pow = [f ** (ring.p - 1) for f in gens]
    cofactors = seed_cof[known:] + [ring.zero()] * ring.nvars
    for c, rep in zip(seed_cof, screen.reprs):
        if c.is_zero():
            continue
        for t, r in enumerate(rep):
            if not r.is_zero():
                term = c * r.frobenius()
                cofactors[t] = cofactors[t] + (
                    term * f_pow[t % m] if t < m * m else term)
    columns = list(multiples) + [
        [c.frobenius() for c in g]
        for g in screen.original_generators[m * m:]]
    for pos, r in enumerate(residuals):
        check = ring.zero()
        for c, col in zip(cofactors, columns):
            check = check + c * col[pos]
        if check != r:
            raise RuntimeError("residual certificate failed re-expansion")
    return True, rem.coordinates, tuple(cofactors)


def classify(gens: Sequence[Poly], *, order: MonomialOrder = GREVLEX,
             certificates: bool = False) -> LiftabilityReport:
    """Liftability of R/(f_1,...,f_m): isolatedness screen, Fedder test,
    then the residual containment, with certificates on request.
    """
    gens = list(gens)
    for g in gens:
        if g.is_zero() or g.total_degree() < 1:
            raise ValueError("generators must be nonzero and nonconstant")
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    def report(status, f_pure, f_liftable, conclusive, certificate=None):
        # stages that did not run are reported at 0 ms
        for stage in ("fedder", "delta1", "groebner"):
            timings.setdefault(stage, 0.0)
        timings["total"] = _ms_since(t_start)
        ring = gens[0].ring
        return LiftabilityReport(
            p=ring.p, variables=ring.variables,
            generators=tuple(format_poly(g) for g in gens), status=status,
            f_pure=f_pure, f_liftable=f_liftable, conclusive=conclusive,
            certificate=certificate, timings_ms=timings, order=order.name)

    status, screen = isolated_singularity_check(gens, order,
                                                track=certificates)
    timings["isolated"] = _ms_since(t_start)
    if status == SMOOTH:
        return report(SMOOTH, True, True, True)
    if status == NOT_ISOLATED:
        return report(NOT_ISOLATED, None, None, False)

    t = time.perf_counter()
    split = build_splitting(gens)
    timings["fedder"] = _ms_since(t)
    if not split.fpure_at_origin:
        return report("classified", False, False, True,
                      Certificate(fedder_survivor=None, sigma_trace_constant=0))

    t = time.perf_counter()
    s_p = split.s.frobenius()
    lifts, residuals = zip(*(_lift_and_residual(f, split, s_p)
                             for f in gens))
    timings["delta1"] = _ms_since(t)

    t = time.perf_counter()
    member, remainder, cofactors = _residual_membership(
        residuals, gens, screen, order, certificates)
    timings["groebner"] = _ms_since(t)

    # A positive containment certifies liftability at the origin, even
    # when the screen found singular points elsewhere (status
    # SINGULAR_ELSEWHERE; the localized ring is what is classified).  A
    # negative one is conclusive only if the origin is the sole singular
    # point, and, for m >= 2, only if the section is a splitting (s = 1):
    # the converse of the shared-cofactor test needs that, while the
    # hypersurface test holds for any unit s.
    conclusive = member or (status == ISOLATED and
                            (len(gens) == 1 or split.s == split.s.ring.one()))
    return report("classified", True, member, conclusive, Certificate(
        fedder_survivor=split.survivor,
        sigma_trace_constant=split.trace_constant,
        g=lifts, remainder=remainder, cofactors=cofactors))


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0
