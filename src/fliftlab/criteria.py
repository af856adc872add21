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
condition; for m = 1 that is r in (f) + J^[p].  The engine
(`groebner.seeded_membership`) decides it and builds its certificate,
and this module only re-checks that certificate in `fp_poly`
arithmetic; it reads no packed layout.

The screen decides only what every verdict needs: whether N = R^m
(smooth) and whether R^m/N is finite-dimensional (else not_isolated).
Whether R^m/N is supported at the origin alone is read by one verdict
only, a negative containment, whose conclusiveness needs it; so
`classify` walks the origin only for an F-pure nonmember, while
`isolated_singularity_check` still reports all four statuses.
"""

from __future__ import annotations

import time
from operator import mul
from typing import Sequence

from .fp_poly import Poly, dot, format_poly, grevlex_key
from .groebner import (GREVLEX, GroebnerBasis, MonomialOrder,
                       is_zero_dimensional, jacobian_module,
                       seeded_membership, supported_only_at_origin)
from .frobsplit import SplittingData, build_splitting, lift_and_residual
from .report import Certificate, LiftabilityReport

SMOOTH = "smooth"
ISOLATED = "isolated_at_origin_only"
NOT_ISOLATED = "not_isolated"
SINGULAR_ELSEWHERE = "singular_elsewhere"

class TooManyGeneratorsError(ValueError):
    pass


def isolated_singularity_check(gens: Sequence[Poly],
                               order: MonomialOrder = GREVLEX, *,
                               track: bool = False
                               ) -> tuple[str, GroebnerBasis]:
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
    status, basis = _screen(gens, order, track)
    if status is None:
        status = (ISOLATED if supported_only_at_origin(basis)
                  else SINGULAR_ELSEWHERE)
    return status, basis


def _screen(gens: Sequence[Poly], order: MonomialOrder, track: bool
            ) -> tuple[str | None, GroebnerBasis]:
    """The reduced basis of N and the status it settles without the origin
    walk: smooth, not_isolated, or None when R^m/N is nonzero and
    finite-dimensional, so that only `supported_only_at_origin` tells
    isolated_at_origin_only from singular_elsewhere."""
    if not gens:
        raise ValueError("generator list must be nonempty")
    ring = gens[0].ring
    m = len(gens)
    if m > ring.nvars:
        raise TooManyGeneratorsError(
            f"{m} generators in {ring.nvars} variables is not a "
            "complete intersection")
    basis = jacobian_module(gens, order, track=track)
    if basis.contains_one():
        return SMOOTH, basis
    if not is_zero_dimensional(basis):
        return NOT_ISOLATED, basis
    return None, basis


def residual_polynomial(f: Poly) -> Poly:
    """s^p * delta1(f) + (-sigma(F_* delta1(f)))^p, unreduced.

    Requires the F-purity test to pass (the section must be a unit at the
    origin for the containment test to be meaningful).
    """
    split = build_splitting([f])
    if not split.fpure_at_origin:
        raise ValueError("residual is defined only for F-pure input "
                         "(Fedder test failed)")
    return split.unpack(lift_and_residual(split, 0)[1])


def _residual_membership(residuals: Sequence[dict], screen: GroebnerBasis,
                         want_cofactors: bool, split: SplittingData):
    """Decide (r_1..r_m) in N^[p] + (f_j e_i), N the screen's submodule;
    returns (member, remainder coordinates, cofactors).

    `groebner.seeded_membership` decides and certifies: it takes the
    residuals r_i and the split's `powers`, each f_j^(p-1), packed in the
    screen's `fields`, in which `split` is built, and returns Polys, the
    cofactors (with `want_cofactors`, for a member) over the f_j e_i by
    (i, j), then w_1..w_n, w_k = ((df_i/dx_k)^p)_i.  This function only
    re-checks them, from the input generators alone and in `fp_poly`
    arithmetic, which shares nothing with the engine's packing: the
    columns are recomputed with `Poly.derivative` and `Poly.frobenius`,
    and each coordinate's sum(c_t * column_t) is one `dot`.
    """
    gens, m = split.gens, len(split.gens)
    rem, cofactors = seeded_membership(residuals, screen, split.powers,
                                       track=want_cofactors)
    if cofactors is None:
        return all(r.is_zero() for r in rem), rem, None
    columns = [[f.derivative(v).frobenius() for f in gens]
               for v in range(gens[0].ring.nvars)]
    for i, r in enumerate(residuals):
        if dot(cofactors[i * m:i * m + m] + cofactors[m * m:],
               list(gens) + [w[i] for w in columns]) != split.unpack(r):
            raise RuntimeError("residual certificate failed re-expansion")
    return True, rem, cofactors


def _decision_order(gens: Sequence[Poly]) -> MonomialOrder:
    """The order that the screen and the membership run under.

    A hypersurface f that holds a pure power x_v^(e_v) of every variable
    (the smallest, if several) is decided under the weights
    w_v = round(max(e) / e_v), which make those powers nearly
    homogeneous, if f's lead under them, read over all of its terms, is
    a pure power; a mixed lead (x*y^4 ties x^3 in E_8^1 at p = 5 and wins
    the degrevlex tie-break) would leave the weights no gain.  A complete
    intersection and a hypersurface whose weights would all be 1 or lead
    with a mixed term are decided under degrevlex."""
    if len(gens) != 1:
        return GREVLEX
    f = gens[0]
    pure: dict[int, int] = {}
    for mono in f.terms:
        support = [v for v, e in enumerate(mono) if e]
        if len(support) == 1:
            v = support[0]
            pure[v] = min(mono[v], pure.get(v, mono[v]))
    if len(pure) < f.ring.nvars:
        return GREVLEX
    top = max(pure.values())
    weights = tuple(round(top / pure[v]) for v in range(f.ring.nvars))
    if max(weights) == 1:
        return GREVLEX
    lead = max(f.terms, key=lambda m: (sum(map(mul, weights, m)),
                                       grevlex_key(m)))
    if sum(map(bool, lead)) != 1:
        return GREVLEX
    return MonomialOrder(weights)


def classify(gens: Sequence[Poly], *,
             certificates: bool = False) -> LiftabilityReport:
    """Liftability of R/(f_1,...,f_m): isolatedness screen, Fedder test,
    then the residual containment, with certificates on request.

    The screen, the containment and the certified trace run under the
    decision order of `_decision_order`: for a hypersurface with a pure
    power of every variable, degrevlex weighted by those powers if a pure
    power leads under them, else degrevlex.  The verdict does not depend
    on the order (membership, smoothness, finite dimension and
    origin-only support are order-free, and the p-th powers of a Groebner
    basis form one under any monomial order), but a remainder and
    certified cofactors do, so the report names the decision order:
    "grevlex", or "grevlex:w_1,...,w_n" under weights.  The splitting is
    built in the exponent fields of the screen's layout, the one form in
    which the membership takes the residual.

    Origin-only support is decided only when a negative verdict's
    conclusiveness needs it: members, non-F-pure inputs and the smooth
    and not_isolated exits never walk the origin, and that walk, when it
    runs, is timed with the screen (`timings_ms["isolated"]`).
    """
    gens = list(gens)
    for g in gens:
        if g.is_zero():
            raise ValueError("generators must be nonzero")
        if g.constant_term():
            raise ValueError(f"{g} does not vanish at the origin")
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
            certificate=certificate, timings_ms=timings, order=order)

    decision = _decision_order(gens)
    order = ("grevlex" if decision.weights is None
             else "grevlex:" + ",".join(map(str, decision.weights)))
    status, screen = _screen(gens, decision, certificates)
    timings["isolated"] = _ms_since(t_start)
    if status == SMOOTH:
        return report(SMOOTH, True, True, True)
    if status == NOT_ISOLATED:
        return report(NOT_ISOLATED, None, None, False)

    t = time.perf_counter()
    split = build_splitting(gens, screen.fields)
    timings["fedder"] = _ms_since(t)
    if not split.fpure_at_origin:
        return report("classified", False, False, True,
                      Certificate(fedder_survivor=None, sigma_trace_constant=0))

    # the "delta1" stage times the whole residual computation, not delta1
    # alone; delta1(f_j) is one product by f_j of fedder's f_j^(p-1) mod p^2
    t = time.perf_counter()
    lifts, residuals = zip(*(lift_and_residual(split, j)
                             for j in range(len(gens))))
    timings["delta1"] = _ms_since(t)

    t = time.perf_counter()
    member, remainder, cofactors = _residual_membership(
        residuals, screen, certificates, split)
    timings["groebner"] = _ms_since(t)

    # A positive containment certifies liftability at the origin, even
    # when there are singular points elsewhere (the localized ring is what
    # is classified).  A negative one is conclusive only if, for m >= 2,
    # the section is a splitting (s = 1): the converse of the
    # shared-cofactor test needs that, while the hypersurface test holds
    # for any unit s; and only if the origin is the sole singular point,
    # which is all that the origin walk decides.
    conclusive = member
    if not member and (len(gens) == 1 or split.s == split.s.ring.one()):
        t = time.perf_counter()
        conclusive = supported_only_at_origin(screen)
        timings["isolated"] += _ms_since(t)
    return report("classified", True, member, conclusive, Certificate(
        fedder_survivor=split.survivor,
        sigma_trace_constant=split.trace_constant,
        g=lifts, remainder=remainder, cofactors=cofactors))


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0
