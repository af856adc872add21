"""Classification pipeline: smoothness/isolatedness screening, F-purity,
and F-liftability for hypersurfaces and complete intersections, with
machine-checkable certificates.

The liftability test for a hypersurface f decides whether
s^p * delta1(f) + (-sigma(F_* delta1(f)))^p lies in (f, I_f^[p]), where
sigma is the near-splitting built from the survivor-normalized multiplier
and s = sigma(F_* 1).  For a complete intersection the per-generator
residuals are stacked into a vector and tested against the submodule
spanned by the gradient-power columns and the (f_1,...,f_m)-multiples,
which encodes the shared-cofactor condition.
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

#: (p, f_pure, f_liftable) triples for every classification produced in
#: this process; lets test runs re-check "liftable implies pure" globally.
VERDICT_LOG: list[tuple[int, bool, bool]] = []


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
        if self.f_pure is not None and self.f_liftable is not None:
            VERDICT_LOG.append((self.p, self.f_pure, self.f_liftable))


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


def _fedder_only_report(ring, gens, order, timings) -> LiftabilityReport:
    cert = Certificate(fedder_survivor=None, sigma_trace_constant=0)
    return LiftabilityReport(
        p=ring.p, variables=ring.variables,
        generators=tuple(format_poly(g) for g in gens),
        status="classified", f_pure=False, f_liftable=False, conclusive=True,
        certificate=cert, timings_ms=timings, order=order.name)


def _smooth_report(ring, gens, order, timings) -> LiftabilityReport:
    return LiftabilityReport(
        p=ring.p, variables=ring.variables,
        generators=tuple(format_poly(g) for g in gens),
        status=SMOOTH, f_pure=True, f_liftable=True, conclusive=True,
        certificate=None, timings_ms=timings, order=order.name)


def _not_isolated_report(ring, gens, order, timings) -> LiftabilityReport:
    return LiftabilityReport(
        p=ring.p, variables=ring.variables,
        generators=tuple(format_poly(g) for g in gens),
        status=NOT_ISOLATED, f_pure=None, f_liftable=None, conclusive=False,
        certificate=None, timings_ms=timings, order=order.name)


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
    d1 = delta1(f)
    g = -apply_sigma(split, d1)
    return split.s.frobenius() * d1 + g.frobenius()


def _membership_basis(f_list: Sequence[Poly], iso_gb: GroebnerBasis,
                      order: MonomialOrder) -> list[Poly]:
    """Generators of (f_1..f_m) + I^[p] seeded with a known Groebner
    subset: the p-th powers of the isolated-locus basis form a basis of
    the bracket of that ideal, so only pairs meeting the f_i are new.
    """
    return [g.frobenius() for g in iso_gb.generators] + list(f_list)


def _ideal_residual_membership(residual: Poly, f: Poly, iso_gb: GroebnerBasis,
                               order: MonomialOrder, want_cofactors: bool):
    """Decide residual in (f) + I_f^[p]; returns (member, remainder, cofactors).

    Fast path: reduce against {g^p for g in GB((f)+I_f)} + {f}, a
    generating set of the same ideal ((f) + ((f)+I_f)^[p] = (f) + I_f^[p]
    because f^p is a multiple of f, and p-th powers of a basis form a
    basis of the bracket ideal.  A zero remainder already proves
    membership; otherwise Buchberger completes the generating set,
    skipping the pairs internal to the known-basis prefix.  Cofactors
    need `iso_gb` built with track=True: its `reprs` carry each screen
    basis element back to f and its partials.
    """
    ring = f.ring
    seed = _membership_basis([f], iso_gb, order)
    if not want_cofactors:
        quick = reduce_by_generators(residual, seed, order)
        if quick.is_zero():
            return True, ring.zero(), None
        full = buchberger(seed, order, known_gb_prefix=len(iso_gb.generators))
        rem = normal_form(residual, full)
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


def classify_hypersurface(f: Poly, *, order: MonomialOrder = GREVLEX,
                          certificates: bool = False) -> LiftabilityReport:
    """Full pipeline for one equation: isolatedness screen, Fedder test,
    then the liftability containment with certificates.
    """
    if f.is_zero() or f.total_degree() < 1:
        raise ValueError("input must be nonzero and nonconstant")
    ring = f.ring
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    status, iso_gb = isolated_singularity_check([f], order,
                                                track=certificates)
    timings["isolated"] = _ms_since(t_start)
    if status == SMOOTH:
        timings.update(fedder=0.0, delta1=0.0, groebner=0.0,
                       total=_ms_since(t_start))
        return _smooth_report(ring, [f], order, timings)
    if status == NOT_ISOLATED:
        timings.update(fedder=0.0, delta1=0.0, groebner=0.0,
                       total=_ms_since(t_start))
        return _not_isolated_report(ring, [f], order, timings)
    # SINGULAR_ELSEWHERE: the singular locus is finite but not confined to
    # the origin.  A positive containment still certifies liftability of
    # the localized ring at the origin (and the whole smooth complement of
    # the extra points), so classification proceeds; only a negative
    # verdict loses its converse direction and is flagged inconclusive.
    origin_only = status == ISOLATED

    t = time.perf_counter()
    split = build_splitting([f])
    timings["fedder"] = _ms_since(t)
    if not split.fpure_at_origin:
        timings.update(delta1=0.0, groebner=0.0, total=_ms_since(t_start))
        return _fedder_only_report(ring, [f], order, timings)

    t = time.perf_counter()
    d1 = delta1(f)
    g = -apply_sigma(split, d1)
    residual = split.s.frobenius() * d1 + g.frobenius()
    timings["delta1"] = _ms_since(t)

    t = time.perf_counter()
    member, rem, cofactors = _ideal_residual_membership(
        residual, f, iso_gb, order, certificates)
    timings["groebner"] = _ms_since(t)
    timings["total"] = _ms_since(t_start)

    cert = Certificate(
        fedder_survivor=split.survivor,
        sigma_trace_constant=split.trace_constant,
        g=(g,), remainder=(rem,), cofactors=cofactors)
    return LiftabilityReport(
        p=ring.p, variables=ring.variables,
        generators=(format_poly(f),),
        status="classified", f_pure=True, f_liftable=member,
        conclusive=member or origin_only,
        certificate=cert, timings_ms=timings, order=order.name)


def classify_complete_intersection(gens: Sequence[Poly], *,
                                   order: MonomialOrder = GREVLEX,
                                   certificates: bool = False
                                   ) -> LiftabilityReport:
    """Liftability of R/(f_1,...,f_m) via the shared-cofactor criterion:
    the stacked residual vector must lie in the submodule generated by the
    gradient-power columns w_k = ((df_i/dx_k)^p)_i and the vectors f_j e_i.

    A negative verdict with a section that is a unit but not identically 1
    is reported with conclusive=False.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("generator list must be nonempty")
    ring = gens[0].ring
    m = len(gens)
    for g in gens:
        if g.is_zero() or g.total_degree() < 1:
            raise ValueError("generators must be nonzero and nonconstant")
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    status, _iso_gb = isolated_singularity_check(gens, order)
    timings["isolated"] = _ms_since(t_start)
    if status == SMOOTH:
        timings.update(fedder=0.0, delta1=0.0, groebner=0.0,
                       total=_ms_since(t_start))
        return _smooth_report(ring, gens, order, timings)
    if status == NOT_ISOLATED:
        timings.update(fedder=0.0, delta1=0.0, groebner=0.0,
                       total=_ms_since(t_start))
        return _not_isolated_report(ring, gens, order, timings)
    origin_only = status == ISOLATED

    t = time.perf_counter()
    split = build_splitting(gens)
    timings["fedder"] = _ms_since(t)
    if not split.fpure_at_origin:
        timings.update(delta1=0.0, groebner=0.0, total=_ms_since(t_start))
        return _fedder_only_report(ring, gens, order, timings)

    t = time.perf_counter()
    s_p = split.s.frobenius()
    g_list = []
    residuals = []
    for f in gens:
        d1 = delta1(f)
        g = -apply_sigma(split, d1)
        g_list.append(g)
        residuals.append(s_p * d1 + g.frobenius())
    target = ModuleVector(residuals)
    timings["delta1"] = _ms_since(t)

    t = time.perf_counter()
    # generator order is part of the certificate contract: gradient-power
    # columns w_1..w_n (zero columns included), then f_j e_i by (i, j)
    module_gens: list[ModuleVector] = []
    for k in range(ring.nvars):
        module_gens.append(ModuleVector(
            [f.derivative(k).frobenius() for f in gens]))
    zero = ring.zero()
    for i in range(m):
        for f in gens:
            module_gens.append(ModuleVector(
                [f if t2 == i else zero for t2 in range(m)]))
    mgb = module_buchberger(module_gens, order, track=certificates)
    nf = module_normal_form(target, mgb)
    member = nf.is_zero()
    cofactors = mgb.cofactors(target) if certificates and member else None
    timings["groebner"] = _ms_since(t)
    timings["total"] = _ms_since(t_start)

    conclusive = True
    if not member and (split.s != ring.one() or not origin_only):
        conclusive = False
    cert = Certificate(
        fedder_survivor=split.survivor,
        sigma_trace_constant=split.trace_constant,
        g=tuple(g_list), remainder=nf.coordinates,
        cofactors=tuple(cofactors) if cofactors else None)
    return LiftabilityReport(
        p=ring.p, variables=ring.variables,
        generators=tuple(format_poly(g) for g in gens),
        status="classified", f_pure=True, f_liftable=member,
        conclusive=conclusive, certificate=cert, timings_ms=timings,
        order=order.name)


def classify(gens: Sequence[Poly], *, order: MonomialOrder = GREVLEX,
             certificates: bool = False) -> LiftabilityReport:
    """Dispatch: one generator goes down the hypersurface pipeline, more
    down the complete-intersection pipeline.
    """
    gens = list(gens)
    if len(gens) == 1:
        return classify_hypersurface(gens[0], order=order,
                                     certificates=certificates)
    return classify_complete_intersection(gens, order=order,
                                          certificates=certificates)


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0
