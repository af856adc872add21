"""Frobenius-specific operators over F_p[x]: the p-th power digit
decomposition, the top-digit trace u, the divided Frobenius defect
delta1, Fedder's F-purity test and splitting sections.

Writing every exponent vector as p*q + alpha with digits alpha in
[0,p)^n expresses f uniquely as sum(g_alpha^p * x^alpha); u projects
onto the alpha = (p-1,...,p-1) component.  For f = sum c_i x^a_i with
each c_i lifted to [0, p), delta1(f) = ((lift f)^p - sum (lift c_i
x^a_i)^p)/p mod p, the mixed terms of the integer p-th power.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import repeat
from operator import floordiv, mod, mul
from typing import Sequence

from .fp_poly import (AmbientMismatchError, DegreeGuardError, Poly, PolyRing,
                      _packing as _mul_packing, grevlex_key)


@dataclass(frozen=True)
class FrobeniusDecomposition:
    """The unique expression f = sum(g_alpha^p * x^alpha), digits alpha in [0,p)^n."""

    p: int
    ring: PolyRing
    components: dict

    def component(self, alpha: tuple[int, ...]) -> Poly:
        return self.components.get(tuple(alpha), self.ring.zero())

    def reassemble(self) -> Poly:
        total = self.ring.zero()
        for alpha, g in self.components.items():
            total = total + g.frobenius() * self.ring.monomial(alpha)
        return total


def frobenius_decompose(f: Poly) -> FrobeniusDecomposition:
    ring = f.ring
    p = ring.p
    buckets: dict[tuple[int, ...], dict] = {}
    for mono, c in f.terms.items():
        alpha = tuple(e % p for e in mono)
        q = tuple(e // p for e in mono)
        # c = (c^(1/p))^p and c^(1/p) = c on the prime field
        bucket = buckets.setdefault(alpha, {})
        bucket[q] = c
    components = {alpha: Poly._make(ring, terms) for alpha, terms in buckets.items()}
    return FrobeniusDecomposition(p, ring, components)


def trace_u(f: Poly) -> Poly:
    """The (p-1,...,p-1) component of the digit decomposition: the group
    of zero residues in `_digit_groups`."""
    return _unpack(f.ring, dict(_digit_groups(f).get((0,) * f.ring.nvars,
                                                     ())))


def _digit_groups(f: Poly) -> dict:
    """f's terms by digits: x^a listed, as (packed a // p, coefficient),
    under the residues (p-1) - a mod p, so that a term x^b meets the terms
    listed under b mod p (see `apply_sigma`)."""
    p = f.ring.p
    units = _packing(f.ring.nvars, f.ring.max_degree)[1]
    top, ps = p - 1, repeat(p)
    groups: dict[tuple[int, ...], list] = {}
    for a, c in f.terms.items():
        groups.setdefault(tuple([top - e % p for e in a]), []).append(
            (sum(map(mul, map(floordiv, a, ps), units)), c))
    return groups


# _packing(nvars, max_degree): the exponent packing of `Poly.__mul__` at
# the width of the degree guard, which every monomial within the guard
# fits, built once per ambient shape
_packing = functools.lru_cache(maxsize=64)(_mul_packing)


def _unpack(ring: PolyRing, terms: dict) -> Poly:
    """The polynomial of packed terms, coefficients reduced mod p."""
    shifts, _, mask = _packing(ring.nvars, ring.max_degree)
    p = ring.p
    return Poly._make(ring, {tuple([(k >> s) & mask for s in shifts]): r
                             for k, c in terms.items() if (r := c % p)})


def delta1(f: Poly) -> Poly:
    """The divided Frobenius defect of f (module docstring), by p-1
    multiplications by f over Z/p^2 on packed exponents.  Zero and
    single-term inputs give 0; the degree guard, that of f^p, is checked
    before any product."""
    return _unpack(f.ring, _delta1_terms(f))


def _delta1_terms(f: Poly) -> dict:
    """delta1(f) as packed terms in f's ring (see `delta1`)."""
    ring = f.ring
    p = ring.p
    if len(f.terms) < 2:
        return {}
    degree = f.total_degree() * p
    if degree > ring.max_degree:
        raise DegreeGuardError(
            f"delta1 degree {degree} exceeds guard {ring.max_degree}")
    q = p * p
    units = _packing(ring.nvars, ring.max_degree)[1]
    base = [(sum(map(mul, m, units)), c) for m, c in f.terms.items()]
    power = dict(base)
    for _ in range(p - 1):
        out: dict[int, int] = {}
        get = out.get
        for kb, cb in base:
            for ka, ca in power.items():
                k = ka + kb
                out[k] = (get(k, 0) + ca * cb) % q
        power = out
    for k, c in base:
        power[k * p] -= pow(c, p, q)  # zero terms stay keys
    # every value is 0 mod p: the mixed terms of the integer p-th power
    return {k: r for k, c in power.items() if (r := c % q // p)}


def _product(gens: Sequence[Poly]) -> Poly:
    acc = gens[0]
    for g in gens[1:]:
        acc = acc * g
    return acc


def _check_gens(gens: Sequence[Poly]) -> PolyRing:
    if not gens:
        raise ValueError("generator list must be nonempty")
    for g in gens:
        if g.is_zero():
            raise ValueError("zero generator is not allowed")
    return gens[0].ring


def find_fedder_survivor(h: Poly) -> tuple[int, ...] | None:
    """Largest (degrevlex) monomial of h with every exponent <= p-1, if any."""
    p = h.ring.p
    best = None
    best_key = None
    for mono in h.terms:
        if max(mono) < p:
            k = grevlex_key(mono)
            if best_key is None or k > best_key:
                best, best_key = mono, k
    return best


@dataclass(frozen=True)
class SplittingData:
    """A near-splitting section sigma(F_* r) = u(F_*(h*r)) compatible with
    the generated ideal.

    `h` is `power` = (prod gens)^(p-1) times the monomial that moves the
    chosen survivor monomial into the top digit block, so that the trace
    constant s(0) is nonzero exactly when the F-purity test passes.
    `survivor` is the witness monomial inside `power` itself.  `groups`
    are h's `_digit_groups`, built once; s = u(h) is their group of zero
    residues.
    """

    h: Poly
    s: Poly
    fpure_at_origin: bool
    survivor: tuple[int, ...] | None
    power: Poly
    groups: dict = field(compare=False, repr=False)

    @property
    def trace_constant(self) -> int:
        return self.s.constant_term()


def build_splitting(gens: Sequence[Poly]) -> SplittingData:
    ring = _check_gens(gens)
    p = ring.p
    power = h = _product(gens) ** (p - 1)
    survivor = find_fedder_survivor(power)
    if survivor is not None:
        shift = tuple(p - 1 - e for e in survivor)
        if any(shift):
            h = h * ring.monomial(shift)
    groups = _digit_groups(h)
    s = _unpack(ring, dict(groups.get((0,) * ring.nvars, ())))
    fpure = survivor is not None
    if (s.constant_term() != 0) != fpure:
        raise RuntimeError("the Fedder survivor and the trace constant of "
                           "the splitting disagree")
    return SplittingData(h, s, fpure, survivor, power, groups)


def _sigma_terms(split: SplittingData, terms) -> dict:
    """sigma(F_* r) as packed terms with unreduced coefficients, for the
    (exponents, coefficient) pairs `terms` of r, forming only the
    products u keeps; see `apply_sigma`, whose checks its callers make."""
    ring = split.h.ring
    p = ring.p
    units = _packing(ring.nvars, ring.max_degree)[1]
    groups, ps = split.groups, repeat(p)
    out: dict[int, int] = {}
    get = out.get
    for b, cb in terms:
        group = groups.get(tuple(map(mod, b, ps)))
        if group is None:
            continue
        qb = sum(map(mul, map(floordiv, b, ps), units))
        for qa, ca in group:
            q = qa + qb
            out[q] = get(q, 0) + ca * cb
    return out


def _check_sigma(split: SplittingData, ring: PolyRing, degree: int) -> None:
    """The ambient and degree-guard checks of sigma on an argument of
    `degree` in `ring`."""
    h = split.h
    if not h.ring.same_ambient(ring):
        raise AmbientMismatchError("splitting and argument ambients differ")
    degree += h.total_degree()
    if degree > h.ring.max_degree:
        raise DegreeGuardError(
            f"product degree {degree} exceeds guard {h.ring.max_degree}")


def apply_sigma(split: SplittingData, r: Poly) -> Poly:
    """sigma(F_* r) = u(F_*(h * r)), forming only the products u keeps.

    A term x^(a+b) of h * r (a from h, b from r) survives u iff every
    digit of a + b is p-1, that is a = (p-1) - b mod p in each variable;
    the digits then sum to p-1 without a carry, so u sends it to
    x^(a//p + b//p).  Each term of r meets only the group of h listed
    under its residues (`SplittingData.groups`): about 1/p^n of the
    products of h * r, each one addition of packed quotients.  The
    degree guard is that of h * r.
    """
    _check_sigma(split, r.ring, r.total_degree())
    return _unpack(split.h.ring, _sigma_terms(split, r.terms.items()))


def lift_and_residual(split: SplittingData, f: Poly) -> tuple[Poly, Poly]:
    """(g, r) for one generator: g = -sigma(F_* delta1(f)) and
    r = s^p * delta1(f) + g^p, on packed terms from delta1's products on:
    s^p and g^p are packed terms times p, the product is one addition per
    pair of terms, and only g and r are unpacked.  DegreeGuardError is
    raised where `Poly.frobenius` on s, `delta1`, `apply_sigma`, the
    product s^p * delta1(f) and `Poly.frobenius` on g would, in that
    order."""
    ring = split.h.ring
    p, guard = ring.p, ring.max_degree
    ds = split.s.total_degree() * p
    if ds > guard:
        raise DegreeGuardError(f"power degree {ds} exceeds guard {guard}")
    shifts, _, mask = _packing(f.ring.nvars, f.ring.max_degree)
    d1 = [([(k >> s) & mask for s in shifts], c)
          for k, c in _delta1_terms(f).items()]
    degree = max((sum(e) for e, _ in d1), default=-1)
    _check_sigma(split, f.ring, degree)
    g = {k: r for k, c in _sigma_terms(split, d1).items() if (r := -c % p)}
    lift = _unpack(ring, g)
    if d1 and ds + degree > guard:
        raise DegreeGuardError(
            f"product degree {ds + degree} exceeds guard {guard}")
    dg = lift.total_degree() * p
    if dg > guard:
        raise DegreeGuardError(f"power degree {dg} exceeds guard {guard}")
    units = _packing(ring.nvars, guard)[1]
    d1 = [(sum(map(mul, e, units)), c) for e, c in d1]
    r: dict[int, int] = {}
    get = r.get
    for ks, cs in split.groups.get((0,) * ring.nvars, ()):
        ks *= p
        for kd, cd in d1:
            k = ks + kd
            r[k] = get(k, 0) + cs * cd
    for k, c in g.items():
        k *= p
        r[k] = get(k, 0) + c
    return lift, _unpack(ring, r)
