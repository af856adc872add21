"""Cross-engine validation: membership verdicts against sympy's
independent Groebner implementation, and Fedder's test against plain
bracket-ideal membership.
"""

import random

import pytest

from fliftlab.fp_poly import PolyRing, format_poly
from fliftlab.frobsplit import apply_sigma, build_splitting, delta1
from fliftlab.groebner import buchberger, normal_form

from support import random_nonzero_poly, random_poly

sympy = pytest.importorskip("sympy")


def _to_sympy_ring(ring):
    from sympy.polys.orderings import grevlex
    domain = sympy.GF(ring.p)
    sring, *gens = sympy.ring(",".join(ring.variables), domain, grevlex)
    return sring, gens


def _to_sympy(f, sring, gens):
    out = sring.zero
    for mono, c in f.terms.items():
        term = sring.one * c
        for g, e in zip(gens, mono):
            term = term * g ** e
        out = out + term
    return out


def _sympy_membership(f, ideal_gens):
    """Membership via sympy's Buchberger, an independent implementation."""
    ring = f.ring
    sring, gens = _to_sympy_ring(ring)
    basis = sympy.polys.groebnertools.groebner(
        [_to_sympy(g, sring, gens) for g in ideal_gens if not g.is_zero()],
        sring)
    target = _to_sympy(f, sring, gens)
    rem = target.div(basis)[1]
    return rem == sring.zero


def test_membership_agrees_with_sympy_random():
    rng = random.Random(90210)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        ring = PolyRing(["x", "y", "z"][:rng.randint(2, 3)], p)
        gens = [random_nonzero_poly(rng, ring, 3, 4)
                for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            f = ring.zero()
            for g in gens:
                f = f + random_poly(rng, ring, 3, 3) * g
            if f.is_zero():
                continue
        else:
            f = random_nonzero_poly(rng, ring, 4, 5)
        ours = normal_form(f, buchberger(gens)).is_zero()
        assert ours == _sympy_membership(f, gens), \
            ([format_poly(g) for g in gens], format_poly(f))


def test_residual_membership_agrees_with_sympy():
    # the exact membership instances the classifier decides
    cases = [(2, "z^2+x^2*y+x*y^2+x*y*z"), (2, "z^2+x^3+y^5+x*y*z"),
             (3, "z^2+x^3+y^4+x^2*y^2"), (5, "z^2+x^3+y^5+x*y^4"),
             (3, "z^2+x^3+y^5+x^2*y^2"), (2, "x^3+y^4+z^5+x*y*z")]
    for p, text in cases:
        ring = PolyRing(["x", "y", "z"], p)
        f = ring.parse(text)
        split = build_splitting([f])
        assert split.fpure_at_origin
        d1 = delta1(f)
        g = -apply_sigma(split, d1)
        residual = split.s.frobenius() * d1 + g.frobenius()
        test_gens = [f] + [f.derivative(v).frobenius() for v in range(3)]
        ours = normal_form(residual, buchberger(test_gens)).is_zero()
        theirs = _sympy_membership(residual, test_gens)
        assert ours == theirs, (p, text)


def test_groebner_basis_matches_sympy():
    rng = random.Random(31415)
    for _ in range(15):
        p = rng.choice((2, 3, 5))
        ring = PolyRing(["x", "y"], p)
        gens = [random_nonzero_poly(rng, ring, 3, 4)
                for _ in range(rng.randint(1, 3))]
        ours = {format_poly(g) for g in buchberger(gens).generators}
        sring, sgens = _to_sympy_ring(ring)
        sbasis = sympy.polys.groebnertools.groebner(
            [_to_sympy(g, sring, sgens) for g in gens], sring)
        theirs = set()
        for b in sbasis:
            terms = {}
            for mono, c in b.terms():
                terms[tuple(mono)] = int(c) % p
            theirs.add(format_poly(ring.from_terms(terms)))
        assert ours == theirs


def test_fedder_agrees_with_bracket_membership():
    # the survivor scan is equivalent to h not lying in (x_1^p, ..., x_n^p)
    rng = random.Random(777999)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        ring = PolyRing(["x", "y", "z"], p)
        gens = [random_nonzero_poly(rng, ring, 3, 3)
                for _ in range(rng.randint(1, 2))]
        h = gens[0]
        for g in gens[1:]:
            h = h * g
        h = h ** (p - 1)
        bracket = [ring.variable(v) ** p for v in range(3)]
        gb = buchberger(bracket)
        in_bracket = normal_form(h, gb).is_zero()
        assert build_splitting(gens).fpure_at_origin == (not in_bracket)
