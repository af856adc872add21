"""Classification pipeline: smoothness/isolatedness screening, F-purity
and F-liftability of R/(f_1, ..., f_m) for m >= 1, with
machine-checkable certificates.

`classify` runs one procedure for every m: the screen, Fedder's test,
the per-generator residuals r_i = s^p * delta1(f_i) + g_i^p with
g_i = -sigma(F_* delta1(f_i)), and the containment.  sigma is the
near-splitting built from the survivor-normalized multiplier and
s = sigma(F_* 1).  The input is F-liftable iff the vector (r_1..r_m)
lies in the submodule of R^m spanned by the gradient-power columns
((df_i/dx_k)^p)_i and the multiples f_j e_i, which encodes the
shared-cofactor condition.  For m = 1 that is r in (f) + I_f^[p], and it
is decided on the ideal route seeded with the screen's basis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .fp_poly import Poly, format_poly
from .groebner import (GREVLEX, GroebnerBasis, ModuleVector, MonomialOrder,
                       buchberger, is_zero_dimensional, module_buchberger,
                       module_normal_form, normal_form,
                       normal_form_with_cofactors, reduce_by_generators,
                       supported_only_at_origin)
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
                               ) -> tuple[str, GroebnerBasis]:
    """Classify the vanishing locus of the generators plus all their
    partials: smooth / isolated_at_origin_only / singular_elsewhere /
    not_isolated.  Returns the basis of that locus ideal as well, built
    with `track` (its generators are the inputs, then the partials of
    each input in variable order).
    """
    if not gens:
        raise ValueError("generator list must be nonempty")
    ring = gens[0].ring
    if len(gens) > ring.nvars:
        raise TooManyGeneratorsError(
            f"{len(gens)} generators in {ring.nvars} variables is not a "
            "complete intersection")
    jac = list(gens)
    for g in gens:
        for v in range(ring.nvars):
            jac.append(g.derivative(v))
    gb = buchberger(jac, order, track=track)
    if gb.contains_one():
        return SMOOTH, gb
    if not is_zero_dimensional(gb):
        return NOT_ISOLATED, gb
    if supported_only_at_origin(gb):
        return ISOLATED, gb
    return SINGULAR_ELSEWHERE, gb


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


def _ideal_residual_membership(residual: Poly, f: Poly, iso_gb: GroebnerBasis,
                               order: MonomialOrder, want_cofactors: bool):
    """Decide residual in (f) + I_f^[p]; returns (member, remainder, cofactors).

    Fast path: reduce against {g^p for g in GB((f)+I_f)} + {f}, a
    generating set of the same ideal ((f) + ((f)+I_f)^[p] = (f) + I_f^[p]
    because f^p is a multiple of f, and p-th powers of a basis form a
    basis of the bracket ideal.  A zero remainder already proves
    membership; otherwise Buchberger completes the generating set,
    skipping the pairs internal to the known-basis prefix, and reduces
    the quick remainder.  Cofactors
    need `iso_gb` built with track=True: its `reprs` carry each screen
    basis element back to f and its partials.
    """
    ring = f.ring
    seed = [g.frobenius() for g in iso_gb.generators] + [f]
    if not want_cofactors:
        quick = reduce_by_generators(residual, seed, order)
        if quick.is_zero():
            return True, ring.zero(), None
        full = buchberger(seed, order, known_gb_prefix=len(iso_gb.generators))
        # the quick remainder differs from the residual by an ideal
        # element, so it has the same (unique) normal form
        rem = normal_form(quick, full)
        return rem.is_zero(), rem, None

    full = buchberger(seed, order, track=True,
                      known_gb_prefix=len(iso_gb.generators))
    rem, quotients = normal_form_with_cofactors(residual, full)
    member = rem.is_zero()
    cofactors = None
    if member:
        # seed cofactors -> cofactors over (f, f_{x_1}^p, ..., f_{x_n}^p):
        # each seed element g^p with g = sum(c_t * J_t) over the isolated
        # ideal generators J = [f, partials...] satisfies
        # g^p = c_0^p f^(p-1) * f + sum(c_t^p * partial_t^p).
        seed_cof = [ring.zero()] * len(seed)
        for q, rep in zip(quotients, full.reprs):
            if q.is_zero():
                continue
            for t in range(len(seed)):
                if not rep[t].is_zero():
                    seed_cof[t] = seed_cof[t] + q * rep[t]
        nparts = ring.nvars
        out = [ring.zero()] * (1 + nparts)
        fp_minus1 = f ** (ring.p - 1)
        for idx, c in enumerate(seed_cof):
            if c.is_zero():
                continue
            if idx == len(seed) - 1:  # the trailing f itself
                out[0] = out[0] + c
                continue
            rep = iso_gb.reprs[idx]
            out[0] = out[0] + c * rep[0].frobenius() * fp_minus1
            for t in range(nparts):
                out[1 + t] = out[1 + t] + c * rep[1 + t].frobenius()
        cofactors = tuple(out)
        check = cofactors[0] * f
        for t in range(nparts):
            check = check + cofactors[1 + t] * f.derivative(t).frobenius()
        if check != residual:
            raise RuntimeError("residual certificate failed re-expansion")
    return member, rem, cofactors


def _module_residual_membership(residuals: Sequence[Poly],
                                gens: Sequence[Poly], order: MonomialOrder,
                                want_cofactors: bool):
    """Decide (r_1..r_m) in the submodule of R^m generated by the
    gradient-power columns w_k = ((df_i/dx_k)^p)_i and the vectors f_j e_i;
    returns (member, remainder coordinates, cofactors).  Valid for any m.
    """
    ring = gens[0].ring
    m = len(gens)
    # generator order is part of the certificate contract: gradient-power
    # columns w_1..w_n (zero columns included), then f_j e_i by (i, j)
    module_gens = [ModuleVector([f.derivative(k).frobenius() for f in gens])
                   for k in range(ring.nvars)]
    zero = ring.zero()
    module_gens += [ModuleVector([f if t == i else zero for t in range(m)])
                    for i in range(m) for f in gens]
    target = ModuleVector(residuals)
    mgb = module_buchberger(module_gens, order, track=want_cofactors)
    nf = module_normal_form(target, mgb)
    member = nf.is_zero()
    cofactors = (tuple(mgb.cofactors(target)) if want_cofactors and member
                 else None)
    return member, nf.coordinates, cofactors


def classify(gens: Sequence[Poly], *, order: MonomialOrder = GREVLEX,
             certificates: bool = False) -> LiftabilityReport:
    """Liftability of R/(f_1,...,f_m): isolatedness screen, Fedder test,
    then the residual containment, with certificates on request.
    """
    gens = list(gens)
    for g in gens:
        if g.is_zero() or g.total_degree() < 1:
            raise ValueError("generators must be nonzero and nonconstant")
    m = len(gens)
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

    # only the m = 1 membership route reads the screen basis' expressions
    status, iso_gb = isolated_singularity_check(
        gens, order, track=certificates and m == 1)
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
    if m == 1:
        member, rem, cofactors = _ideal_residual_membership(
            residuals[0], gens[0], iso_gb, order, certificates)
        remainder = (rem,)
    else:
        member, remainder, cofactors = _module_residual_membership(
            residuals, gens, order, certificates)
    timings["groebner"] = _ms_since(t)

    # A positive containment certifies liftability at the origin, even
    # when the screen found singular points elsewhere (status
    # SINGULAR_ELSEWHERE; the localized ring is what is classified).  A
    # negative one is conclusive only if the origin is the sole singular
    # point, and, for m >= 2, only if the section is a splitting (s = 1):
    # the converse of the shared-cofactor test needs that, while the
    # hypersurface test holds for any unit s.
    conclusive = member or (status == ISOLATED and
                            (m == 1 or split.s == split.s.ring.one()))
    return report("classified", True, member, conclusive, Certificate(
        fedder_survivor=split.survivor,
        sigma_trace_constant=split.trace_constant,
        g=lifts, remainder=remainder, cofactors=cofactors))


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0
