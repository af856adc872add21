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

from dataclasses import dataclass
from operator import add, mul
from typing import Sequence

from .fp_poly import (AmbientMismatchError, DegreeGuardError, Poly, PolyRing,
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


def trace_u(f: Poly) -> Poly:
    """The (p-1,...,p-1) component of the digit decomposition."""
    ring = f.ring
    p = ring.p
    top = p - 1
    out = {}
    for mono, c in f.terms.items():
        for e in mono:
            if e % p != top:
                break
        else:
            out[tuple(e // p for e in mono)] = c
    return Poly._make(ring, out)


def delta1(f: Poly) -> Poly:
    """The divided Frobenius defect of f (module docstring), by p-1
    multiplications by f over Z/p^2 on exponents packed as in
    `Poly.__mul__`.  Zero and single-term inputs give 0; the degree
    guard, that of f^p, is checked before any product."""
    ring = f.ring
    p = ring.p
    if len(f.terms) < 2:
        return ring.zero()
    degree = f.total_degree() * p
    if degree > ring.max_degree:
        raise DegreeGuardError(
            f"delta1 degree {degree} exceeds guard {ring.max_degree}")
    q = p * p
    w = degree.bit_length()
    shifts = range(0, w * ring.nvars, w)
    units = [1 << s for s in shifts]
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
    mask = (1 << w) - 1
    return Poly._make(ring, {tuple((k >> s) & mask for s in shifts): c % q // p
                             for k, c in power.items() if c % q})


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
        if all(e < p for e in mono):
            k = grevlex_key(mono)
            if best_key is None or k > best_key:
                best, best_key = mono, k
    return best


@dataclass(frozen=True)
class SplittingData:
    """A near-splitting section sigma(F_* r) = u(F_*(h*r)) compatible with
    the generated ideal.

    `h` is (prod gens)^(p-1) times the monomial that moves the chosen
    survivor monomial into the top digit block, so that the trace constant
    s(0) is nonzero exactly when the F-purity test passes.  `survivor` is
    the witness monomial inside (prod gens)^(p-1) itself.
    """

    h: Poly
    s: Poly
    fpure_at_origin: bool
    survivor: tuple[int, ...] | None

    @property
    def trace_constant(self) -> int:
        return self.s.constant_term()


def build_splitting(gens: Sequence[Poly]) -> SplittingData:
    ring = _check_gens(gens)
    p = ring.p
    h = _product(gens) ** (p - 1)
    survivor = find_fedder_survivor(h)
    if survivor is not None:
        shift = tuple(p - 1 - e for e in survivor)
        if any(shift):
            h = h * ring.monomial(shift)
    s = trace_u(h)
    fpure = survivor is not None
    if (s.constant_term() != 0) != fpure:
        raise RuntimeError("the Fedder survivor and the trace constant of "
                           "the splitting disagree")
    return SplittingData(h, s, fpure, survivor)


def apply_sigma(split: SplittingData, r: Poly) -> Poly:
    """sigma(F_* r) = u(F_*(h * r)), forming only the products u keeps.

    A term x^(a+b) of h * r (a from h, b from r) survives u iff every
    digit of a + b is p-1, that is a = (p-1) - b mod p in each variable;
    the digits then sum to p-1 without a carry, so u sends it to
    x^(a//p + b//p).  The terms of h are grouped by their residue mod p,
    and each term of r meets only the complementary group: about 1/p^n
    of the products of h * r.  The degree guard is that of h * r.
    """
    h = split.h
    ring = h.ring
    if not ring.same_ambient(r.ring):
        raise AmbientMismatchError("splitting and argument ambients differ")
    degree = h.total_degree() + r.total_degree()
    if degree > ring.max_degree:
        raise DegreeGuardError(
            f"product degree {degree} exceeds guard {ring.max_degree}")
    p = ring.p
    top = p - 1
    groups: dict[tuple[int, ...], list] = {}
    for a, c in h.terms.items():
        groups.setdefault(tuple(e % p for e in a), []).append(
            (tuple(e // p for e in a), c))
    out: dict[tuple[int, ...], int] = {}
    for b, cb in r.terms.items():
        group = groups.get(tuple(top - e % p for e in b))
        if group is None:
            continue
        qb = tuple(e // p for e in b)
        for qa, ca in group:
            q = tuple(map(add, qa, qb))
            c = (out.get(q, 0) + ca * cb) % p
            if c:
                out[q] = c
            else:
                del out[q]
    return Poly._make(ring, out)
