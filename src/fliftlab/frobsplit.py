"""Frobenius-specific operators over F_p[x]: p-th power digit
decomposition, the top-digit trace, the divided-power defect delta1,
bracket powers, Fedder's F-purity test, and splitting sections.

Conventions.  Writing every exponent vector as p*q + alpha with digits
alpha in [0,p)^n expresses f uniquely as sum(g_alpha^p * x^alpha); the
trace u projects onto the alpha = (p-1,...,p-1) component.  delta1(f)
sums over the compositions of p into parts <= p-1 applied to the terms
of f (terms carry their coefficients), with the mod-p coefficient
-(prod alpha_i!)^(-1), which equals (1/p)*multinomial(p; alpha) by
Wilson's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
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
    """Divided Frobenius defect of f under the term decomposition.

    Zero and single-term inputs give 0 (no composition of p into one
    part <= p-1 exists).
    """
    ring = f.ring
    p = ring.p
    terms = list(f.terms.items())
    m = len(terms)
    if m < 2:
        return ring.zero()
    if f.total_degree() * p > ring.max_degree:
        raise DegreeGuardError(
            f"delta1 degree {f.total_degree() * p} exceeds guard {ring.max_degree}")
    fact = [1] * p
    for k in range(2, p):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [pow(v, p - 2, p) for v in fact]
    n = ring.nvars
    out: dict[tuple[int, ...], int] = {}

    def emit(mono: tuple[int, ...], coeff: int) -> None:
        c = (out.get(mono, 0) - coeff) % p
        if c:
            out[mono] = c
        else:
            out.pop(mono, None)

    # iterative walk over compositions of p into parts <= p-1; a spent
    # budget finalizes immediately (all later parts are forced to zero)
    stack = [(0, p, (0,) * n, 1)]
    while stack:
        idx, remaining, mono, coeff = stack.pop()
        if remaining == 0:
            emit(mono, coeff)
            continue
        if idx == m - 1:
            if remaining <= p - 1:
                bmono, bc = terms[idx]
                nm = tuple(x + remaining * y for x, y in zip(mono, bmono))
                emit(nm, coeff * pow(bc, remaining, p) * inv_fact[remaining] % p)
            continue
        bmono, bc = terms[idx]
        stack.append((idx + 1, remaining, mono, coeff))
        for alpha in range(1, min(p - 1, remaining) + 1):
            nm = tuple(x + alpha * y for x, y in zip(mono, bmono))
            nc = coeff * pow(bc, alpha, p) * inv_fact[alpha] % p
            stack.append((idx + 1, remaining - alpha, nm, nc))
    return Poly._make(ring, out)


_ORACLE_COEFF_BOUND = 1 << 127


def delta1_integer_oracle(f: Poly) -> Poly:
    """Independent check of delta1: ((lift f)^p - sum (lift M_i)^p) / p
    over the integers with canonical lifts to [0, p), reduced mod p.

    Intended for small test inputs; intermediate coefficients beyond 128
    bits raise OverflowError.
    """
    ring = f.ring
    p = ring.p

    def imul(a: dict, b: dict) -> dict:
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                mm = tuple(x + y for x, y in zip(ma, mb))
                c = out.get(mm, 0) + ca * cb
                if abs(c) >= _ORACLE_COEFF_BOUND:
                    raise OverflowError("integer oracle coefficient exceeds 128 bits")
                if c:
                    out[mm] = c
                else:
                    out.pop(mm, None)
        return out

    def ipow(a: dict, e: int) -> dict:
        result = {(0,) * ring.nvars: 1}
        base = dict(a)
        while e:
            if e & 1:
                result = imul(result, base)
            e >>= 1
            if e:
                base = imul(base, base)
        return result

    lifted = {m: c % p for m, c in f.terms.items()}
    total = ipow(lifted, p)
    for mono, c in lifted.items():
        single = ipow({mono: c}, p)
        for mm, cc in single.items():
            v = total.get(mm, 0) - cc
            if v:
                total[mm] = v
            else:
                total.pop(mm, None)
    out: dict[tuple[int, ...], int] = {}
    for mm, cc in total.items():
        if cc % p:
            raise ArithmeticError("defect not divisible by p; oracle misuse")
        v = (cc // p) % p
        if v:
            out[mm] = v
    return Poly._make(ring, out)


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
