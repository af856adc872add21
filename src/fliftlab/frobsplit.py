"""Frobenius-specific operators over F_p[x]: the p-th power digit
decomposition, the divided Frobenius defect delta1, Fedder's F-purity
test and splitting sections.

Writing every exponent vector as p*q + alpha with digits alpha in
[0,p)^n expresses f uniquely as sum(g_alpha^p * x^alpha); the trace u,
which splitting sections apply (see `apply_sigma`), projects onto the
alpha = (p-1,...,p-1) component.  For f = sum c_i x^a_i with
each c_i lifted to [0, p), delta1(f) = ((lift f)^p - sum (lift c_i
x^a_i)^p)/p mod p, the mixed terms of the integer p-th power.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import mul
from typing import Sequence

from .fp_poly import (AmbientMismatchError, DegreeGuardError, Poly, PolyRing,
                      _add_product, _pack, _packing, _times, _unpack,
                      grevlex_key)


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


def delta1(f: Poly) -> Poly:
    """The divided Frobenius defect of f (module docstring), by p-1
    multiplications by f over Z/p^2 on packed terms.  Zero and one-term
    inputs give 0; the guard, that of f^p, is checked before a product."""
    packing = _packing(f.ring.nvars, f.ring.max_degree)
    return _unpack(f.ring, _delta1_terms(f, packing[1]), packing)


def _delta1_terms(f: Poly, units, power: dict | None = None) -> dict:
    """delta1(f) packed by `units`, from f^p mod p^2: one product by f of
    `power`, (lift f)^(p-1) mod p^2 in that packing, when given."""
    ring = f.ring
    p = ring.p
    if len(f.terms) < 2:
        return {}
    DegreeGuardError.check(f.total_degree() * p, ring.max_degree, "delta1")
    q = p * p
    base = _pack(f.terms, units)
    out = _times(power or dict(base), base, q, 1 if power else p - 1)
    get = out.get
    for k, c in base:
        k *= p
        out[k] = get(k, 0) - pow(c, p, q)
    # every value is 0 mod p: the mixed terms of the integer p-th power
    return {k: r for k, c in out.items() if (r := c % q // p)}


@dataclass(frozen=True)
class SplittingData:
    """A near-splitting section sigma(F_* r) = u(F_*(h*r)) compatible with
    the ideal of `gens`.

    h = `power` * x^((p-1) - anchor) has total degree `degree`; `power`
    is (prod gens)^(p-1), and `anchor` the survivor, the witness monomial
    inside it, or (p-1, ..., p-1) without one, so that the trace constant
    s(0) is nonzero exactly when the F-purity test passes.  In `packing`,
    `powers` are the terms of each generator's (lift f_j)^(p-1), with
    coefficients mod p^2, and `power_terms` those of their product, the
    power: `powers[0]` itself for one generator, else reduced mod p.
    `groups` holds the power's terms by a mod p, as {packed a: c mod p},
    and `at` is the packed anchor; s = u(h) is decoded if read.
    """

    ring: PolyRing
    packing: tuple = field(compare=False, repr=False)
    power_terms: dict = field(compare=False, repr=False)
    powers: tuple = field(compare=False, repr=False)
    gens: tuple
    degree: int
    survivor: tuple[int, ...] | None
    anchor: tuple[int, ...]
    groups: dict = field(compare=False, repr=False)
    at: int = field(compare=False, repr=False)

    def unpack(self, terms: dict) -> Poly:
        return _unpack(self.ring, terms, self.packing)

    @property
    def fpure_at_origin(self) -> bool:
        return self.survivor is not None

    @functools.cached_property
    def s(self) -> Poly:
        at, p = self.at, self.ring.p
        return self.unpack({(k - at) // p: c for k, c in
                            self.groups.get(self.anchor, {}).items()})

    @property
    def trace_constant(self) -> int:
        return self.s.constant_term()


def build_splitting(gens: Sequence[Poly],
                    packing: tuple | None = None) -> SplittingData:
    """The splitting data of `gens` in `packing`, fields that must hold
    every exponent up to twice the degree guard (by default `_packing`
    of the ring for 2 * guard): once the power's guard check passes,
    delta1 of a generator f, of degree at most p * deg(f) <=
    2 * (p-1) * deg(f) <= 2 * guard, fits them too.
    Each generator's (lift f_j)^(p-1) is formed once, over Z/p^2 on
    packed terms, and the power as their product; the residues of each
    of its terms are read once.  DegreeGuardError and
    AmbientMismatchError are raised where the Poly products of the
    generators, their power and its product with x^((p-1) - anchor)
    would, in that order."""
    if not gens:
        raise ValueError("generator list must be nonempty")
    if any(g.is_zero() for g in gens):
        raise ValueError("zero generator is not allowed")
    ring = gens[0].ring
    p, guard, top = ring.p, ring.max_degree, ring.p - 1
    shifts, units, mask = packing = packing or _packing(ring.nvars, 2 * guard)
    degree = gens[0].total_degree()
    for g in gens[1:]:
        gens[0]._check(g)
        degree += g.total_degree()
        DegreeGuardError.check(degree, guard, "product")
    degree *= top
    DegreeGuardError.check(degree, guard, "power")
    powers = tuple(_times(dict(base), base, p * p, top - 1) for base in
                   [_pack(g.terms, units) for g in gens])
    power = powers[0]
    for g_power in powers[1:]:
        power = _times(power, list(g_power.items()), p)
    groups: dict[tuple[int, ...], dict] = {}
    for k, c in power.items():
        if c := c % p:
            groups.setdefault(
                tuple([((k >> s) & mask) % p for s in shifts]), {})[k] = c
    # x^alpha, the term of zero quotient in its group, is a candidate
    survivor = max((alpha for alpha, terms in groups.items()
                    if sum(map(mul, alpha, units)) in terms),
                   key=grevlex_key, default=None)
    anchor = survivor or (top,) * ring.nvars
    moved = sum(map(top.__sub__, anchor))
    DegreeGuardError.check(moved, guard, "monomial")
    DegreeGuardError.check(degree + moved, guard, "product")
    return SplittingData(ring, packing, power, powers, tuple(gens),
                         degree + moved, survivor, anchor, groups,
                         sum(map(mul, anchor, units)))


def _sigma_terms(split: SplittingData, terms) -> dict:
    """sigma(F_* r) for r's packed terms, coefficients unreduced; see
    `apply_sigma`, whose checks its callers make."""
    shifts, _, mask = split.packing
    p, groups, anchor, at = split.ring.p, split.groups, split.anchor, split.at
    out: dict[int, int] = {}
    get = out.get
    for kb, cb in terms:
        if group := groups.get(tuple([(e - ((kb >> s) & mask)) % p
                                      for s, e in zip(shifts, anchor)])):
            kb -= at
            for ka, ca in group.items():
                q = (ka + kb) // p
                out[q] = get(q, 0) + ca * cb
    return out


def _check_sigma(split: SplittingData, ring: PolyRing, degree: int) -> None:
    """sigma's checks on an argument of `degree` in `ring`."""
    if not split.ring.same_ambient(ring):
        raise AmbientMismatchError("splitting and argument ambients differ")
    DegreeGuardError.check(degree + split.degree, split.ring.max_degree,
                           "product")


def apply_sigma(split: SplittingData, r: Poly) -> Poly:
    """sigma(F_* r) = u(F_*(h * r)), forming only the products u keeps.

    A term x^(a+b) of h * r (x^a from the power, x^b from r) survives u
    iff every digit of a + b + (p-1) - anchor is p-1, that is a = anchor
    - b mod p, and u sends it to x^((a + b - anchor)/p): each term of r
    meets one of the power's `groups`, about 1/p^n of the products of
    h * r.  The degree guard is that of h * r.
    """
    _check_sigma(split, r.ring, r.total_degree())
    return split.unpack(_sigma_terms(split, _pack(r.terms, split.packing[1])))


def lift_and_residual(split: SplittingData, j: int) -> tuple[Poly, dict]:
    """(g, r) for f, the split's generator j: g = -sigma(F_* delta1(f))
    and r = s^p * delta1(f) + g^p in the split's `packing`, coefficients
    in [1, p).  delta1(f) is one product by f of its lifted power
    `powers[j]`; it stays packed, which the packing's fields allow (see
    `build_splitting`), and its exact degree is read only where
    p * deg(f) + deg(h) could pass the guard.  DegreeGuardError is raised
    where `delta1` and `apply_sigma` would, in that order.

    Those two checks cover the rest of the Poly route.  The terms of
    s = u(h) are (a - (p-1, ..., p-1)) / p for terms a of h, so
    p * deg(s) <= deg(h), which `build_splitting` has checked against the
    guard.  Once sigma's check deg(h) + deg(delta1) <= guard passes, the
    product s^p * delta1(f) has degree at most that sum, and so has g^p,
    as g is u of h * delta1(f)."""
    p, (shifts, units, mask) = split.ring.p, split.packing
    f = split.gens[j]
    d1 = _delta1_terms(f, units, split.powers[j])
    degree = f.total_degree() * p  # delta1's degree is at most this
    if degree + split.degree > split.ring.max_degree:
        degree = max((sum([(k >> s) & mask for s in shifts]) for k in d1),
                     default=-1)
    _check_sigma(split, f.ring, degree)
    g = {k: r for k, c in _sigma_terms(split, d1.items()).items()
         if (r := -c % p)}
    s_p = [(ks - split.at, cs)  # from s = u(h)
           for ks, cs in split.groups.get(split.anchor, {}).items()]
    r = _add_product({}, s_p, d1.items())
    get = r.get
    for k, c in g.items():
        k *= p
        r[k] = get(k, 0) + c
    return split.unpack(g), {k: v for k, c in r.items() if (v := c % p)}
