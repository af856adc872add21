"""Groebner engine: normal forms, Buchberger, membership, dimension."""

import itertools
import random

import pytest

from fliftlab.fp_poly import AmbientMismatchError, PolyRing, format_poly
from fliftlab.groebner import (GREVLEX, LEX, buchberger, ideal_membership,
                               is_zero_dimensional, normal_form,
                               order_by_name,
                               quotient_dimension, reduce_by_generators,
                               supported_only_at_origin, verify_buchberger)

from support import macaulay_membership, random_poly, random_nonzero_poly


def test_order_lookup():
    assert order_by_name("grevlex") is GREVLEX
    assert order_by_name("lex") is LEX
    with pytest.raises(ValueError):
        order_by_name("deglex")


def test_monomial_order_laws():
    # total order, multiplicativity, 1 as minimum, on random monomials
    rng = random.Random(1001)
    for order in (GREVLEX, LEX):
        key = order.key
        one = (0, 0, 0)
        for _ in range(200):
            a = tuple(rng.randrange(6) for _ in range(3))
            b = tuple(rng.randrange(6) for _ in range(3))
            c = tuple(rng.randrange(6) for _ in range(3))
            assert (key(a) < key(b)) + (key(a) == key(b)) + (key(a) > key(b)) == 1
            assert (key(a) == key(b)) == (a == b)
            if key(a) < key(b):
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert key(ac) < key(bc)
            if a != one:
                assert key(one) < key(a)


def test_normal_form_examples():
    ring = PolyRing(["x", "y"], 5)
    gb = buchberger([ring.parse("x")])
    assert normal_form(ring.parse("x^2"), gb).is_zero()

    ring3 = PolyRing(["x", "y", "z"], 2)
    f = ring3.parse("z^2+x^2*y+x*y*z")
    gb = buchberger([f])
    assert normal_form(ring3.parse("x*y*z") * f, gb).is_zero()

    ring_lex = PolyRing(["x", "y"], 7)
    gb = buchberger([ring_lex.parse("x^2+y"), ring_lex.parse("y^2")], LEX)
    assert normal_form(ring_lex.parse("y^3"), gb).is_zero()


def test_buchberger_examples():
    ring = PolyRing(["x", "y"], 5)
    gb = buchberger([ring.parse("x^2"), ring.parse("x*y")])
    assert {format_poly(g) for g in gb.generators} == {"x^2", "x*y"}

    f = ring.parse("3*x^2*y + x + 1")
    gb = buchberger([f])
    assert len(gb.generators) == 1
    assert gb.generators[0] == f * pow(3, 3, 5)  # monic scaling

    gb = buchberger([ring.parse("x^2+y"), ring.parse("y^2")], LEX)
    assert {format_poly(g) for g in gb.generators} == {"x^2 + y", "y^2"}


def test_buchberger_rejects_empty_and_zero():
    ring = PolyRing(["x"], 3)
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(ValueError):
        buchberger([ring.zero()])
    gb = buchberger([ring.zero(), ring.parse("x")])
    assert [format_poly(g) for g in gb.generators] == ["x"]


def test_ambient_mismatch():
    a = PolyRing(["x", "y"], 3)
    b = PolyRing(["x", "y"], 5)
    with pytest.raises(AmbientMismatchError):
        buchberger([a.parse("x"), b.parse("y")])
    gb = buchberger([a.parse("x")])
    with pytest.raises(AmbientMismatchError):
        normal_form(b.parse("x"), gb)


def test_membership_examples():
    ring = PolyRing(["x", "y"], 5)
    ok, cof = ideal_membership(ring.parse("x^2*y"),
                               [ring.parse("x"), ring.parse("y")],
                               certificate=True)
    assert ok
    expansion = cof[0] * ring.parse("x") + cof[1] * ring.parse("y")
    assert expansion == ring.parse("x^2*y")

    assert not ideal_membership(ring.one(), [ring.parse("x"), ring.parse("y")])
    no, cof = ideal_membership(ring.one(), [ring.parse("x"), ring.parse("y")],
                               certificate=True)
    assert (no, cof) == (False, None)


def test_membership_d41_closed_form_identity():
    # the displayed D-family identity at n=2 is a membership certificate
    ring = PolyRing(["x", "y", "z"], 2)
    f = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    fx, fy, fz = (f.derivative(v) for v in range(3))
    lhs = ring.parse("z^2") * f + \
        ring.parse("x^2+x*y+x*z+y^2+y*z") * fz * fz
    assert ideal_membership(lhs, [f, fx * fx, fy * fy, fz * fz])


def test_zero_dimensionality():
    ring = PolyRing(["x", "y"], 5)
    gb = buchberger([ring.parse("x^2"), ring.parse("y^3")])
    assert is_zero_dimensional(gb)
    assert quotient_dimension(gb) == 6
    assert supported_only_at_origin(gb)

    gb = buchberger([ring.parse("x")])
    assert not is_zero_dimensional(gb)
    with pytest.raises(ValueError):
        quotient_dimension(gb)

    gb = buchberger([ring.parse("x^2 - x"), ring.parse("y")])
    assert is_zero_dimensional(gb)
    assert not supported_only_at_origin(gb)

    gb = buchberger([ring.one()])
    assert is_zero_dimensional(gb)
    assert quotient_dimension(gb) == 0
    assert supported_only_at_origin(gb)


def test_jacobian_ideal_d41_zero_dimensional():
    ring = PolyRing(["x", "y", "z"], 2)
    f = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    gens = [f] + [f.derivative(v) for v in range(3)]
    gb = buchberger(gens)
    assert is_zero_dimensional(gb)
    assert quotient_dimension(gb) > 0
    assert supported_only_at_origin(gb)


def test_normal_form_idempotent_and_linear():
    rng = random.Random(4242)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y", "z"], p)
        gens = [random_nonzero_poly(rng, ring, 3, 3) for _ in range(2)]
        gb = buchberger(gens)
        for _ in range(20):
            f = random_poly(rng, ring, 4, 5)
            g = random_poly(rng, ring, 4, 5)
            a = rng.randrange(p)
            b = rng.randrange(p)
            nf_f = normal_form(f, gb)
            assert normal_form(nf_f, gb) == nf_f
            combo = f.scale(a) + g.scale(b)
            assert normal_form(combo, gb) == \
                normal_form(f, gb).scale(a) + normal_form(g, gb).scale(b)


def test_reduced_basis_unique_under_permutation():
    rng = random.Random(31337)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y", "z"], p)
        for _ in range(10):
            gens = [random_nonzero_poly(rng, ring, 3, 4) for _ in range(3)]
            reference = buchberger(gens).generators
            for perm in itertools.permutations(gens):
                assert buchberger(list(perm)).generators == reference


def test_buchberger_criterion_recheck_random():
    rng = random.Random(777)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y"], p)
        for _ in range(15):
            gens = [random_nonzero_poly(rng, ring, 3, 4)
                    for _ in range(rng.randint(1, 3))]
            gb = buchberger(gens)
            assert verify_buchberger(gb)
            # every element is monic
            for g, lm in zip(gb.generators, gb.leading_monomials):
                assert g.terms[lm] == 1
            # basis is reduced: no monomial divisible by another lead
            for i, g in enumerate(gb.generators):
                for j, lm in enumerate(gb.leading_monomials):
                    if i == j:
                        continue
                    assert not any(all(a >= b for a, b in zip(m, lm))
                                   for m in g.terms)
            # original generators reduce to zero
            for g in gens:
                assert normal_form(g, gb).is_zero()


def test_certificate_soundness_random():
    rng = random.Random(2718)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y"], p)
        for _ in range(10):
            gens = [random_nonzero_poly(rng, ring, 3, 3) for _ in range(2)]
            coeffs = [random_poly(rng, ring, 3, 3) for _ in range(2)]
            f = coeffs[0] * gens[0] + coeffs[1] * gens[1]
            ok, cof = ideal_membership(f, gens, certificate=True)
            assert ok
            assert cof[0] * gens[0] + cof[1] * gens[1] == f


def test_reduce_by_generators_zero_proves_membership():
    ring = PolyRing(["x", "y"], 3)
    gens = [ring.parse("x^2 + y"), ring.parse("y^2")]
    f = ring.parse("x^2*y^2 + y^3")
    rem = reduce_by_generators(f, gens)
    if rem.is_zero():
        assert ideal_membership(f, gens)


def _reference_buchberger(gens, order=GREVLEX):
    """Textbook Buchberger with no pair criteria, as an independent route
    for validating the pruned engine; returns the reduced basis tuple."""
    from fliftlab.groebner import (_lead, _mono_lcm, _mono_div, _mono_mul,
                                   _prep_reducer, _reduce_full)
    from fliftlab.fp_poly import Poly

    ring = gens[0].ring
    p = ring.p
    basis = []
    for g in gens:
        if g.is_zero():
            continue
        lm, lc = _lead(g.terms, order)
        basis.append(g.scale(pow(lc, p - 2, p)))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        lmi, _ = _lead(basis[i].terms, order)
        lmj, _ = _lead(basis[j].terms, order)
        lcm = _mono_lcm(lmi, lmj)
        sterms = {}
        for m, c in basis[i].terms.items():
            mm = _mono_mul(m, _mono_div(lcm, lmi))
            sterms[mm] = (sterms.get(mm, 0) + c) % p
        for m, c in basis[j].terms.items():
            mm = _mono_mul(m, _mono_div(lcm, lmj))
            sterms[mm] = (sterms.get(mm, 0) - c) % p
        sterms = {m: c for m, c in sterms.items() if c}
        reducers = [_prep_reducer(b.terms, order, p) for b in basis]
        rem = _reduce_full(sterms, reducers, p, order)
        if rem:
            lm, lc = _lead(rem, order)
            inv = pow(lc, p - 2, p)
            new = Poly._make(ring, {m: c * inv % p for m, c in rem.items()})
            idx = len(basis)
            basis.append(new)
            pairs.extend((k, idx) for k in range(idx))
    # minimalize + tail-reduce to the unique reduced basis
    lead = [(_lead(b.terms, order)[0]) for b in basis]
    keep = []
    for i, lm in enumerate(lead):
        if not any(j != i and all(a >= b for a, b in zip(lm, lead[j])) and
                   (lead[j] != lm or j < i) for j in range(len(basis))):
            keep.append(i)
    basis = [basis[i] for i in keep]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = [basis[j] for j in range(len(basis)) if j != i]
            if not others:
                continue
            reducers = [_prep_reducer(b.terms, order, p) for b in others]
            rem = _reduce_full(basis[i].terms, reducers, p, order)
            new = Poly._make(ring, rem)
            if new != basis[i]:
                changed = True
                lm, lc = _lead(rem, order)
                basis[i] = new.scale(pow(lc, p - 2, p))
    key = order.key
    basis.sort(key=lambda b: key(_lead(b.terms, order)[0]), reverse=True)
    return tuple(basis)


def test_pruned_engine_matches_reference_buchberger():
    rng = random.Random(424242)
    for order in (GREVLEX, LEX):
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(12):
                gens = [random_nonzero_poly(rng, ring, 3, 4)
                        for _ in range(rng.randint(2, 3))]
                assert buchberger(gens, order).generators == \
                    _reference_buchberger(gens, order)


def _assert_pruned_basis(gens, want, known_gb_prefix=0):
    """The engine's basis under both orders is the reference basis, and
    under degrevlex it is `want`."""
    for order in (GREVLEX, LEX):
        gb = buchberger(gens, order, known_gb_prefix=known_gb_prefix)
        assert gb.generators == _reference_buchberger(gens, order)
        assert verify_buchberger(gb)
        if order is GREVLEX:
            assert [format_poly(g) for g in gb.generators] == want


def test_equal_leads_keep_one_pair_per_lcm():
    # x*y + 1 and x*y + z^2 share their lead, which the lead of x + z
    # divides: all three pairs have the lcm x*y.  The update keeps one new
    # pair for it (criterion F) and the old pair (x + z, x*y + 1), whose
    # lcm equals that of (x + z, x*y + z^2) (criterion B_k's exemption).
    ring = PolyRing(["x", "y", "z"], 3)
    gens = [ring.parse("x+z"), ring.parse("x*y+1"), ring.parse("x*y+z^2")]
    _assert_pruned_basis(gens, ["z^2 + 2", "x + z", "y + 2*z"])


def test_new_lead_dividing_an_older_lead_retires_it():
    # x*y^2 divides x*y^2*z: x*y^2*z + 2 takes no further pairs, but its
    # pairs with x*z + 1 and with x*y^2 + 2*y*z still count
    ring = PolyRing(["x", "y", "z"], 3)
    gens = [ring.parse("x*z+1"), ring.parse("x*y^2*z+2"),
            ring.parse("x*y^2+2*y*z")]
    _assert_pruned_basis(gens, ["x^2 + 2*y", "x*y + 2*z", "y^2 + 1", "x*z + 1",
                                "y*z + x", "z^2 + y"])


def test_seed_lead_divided_by_a_later_element():
    # the seed is a basis with no pairs of its own; x^2 divides the seed
    # lead x^3, so the seed element retires but keeps its pair with x^2 + z
    ring = PolyRing(["x", "y", "z"], 5)
    for order in (GREVLEX, LEX):
        seed = buchberger([ring.parse("x^3+y*z"), ring.parse("y^2+z")], order)
        assert [format_poly(g) for g in seed.generators] == \
            ["x^3 + y*z", "y^2 + z"]
    gens = [ring.parse("x^3+y*z"), ring.parse("y^2+z"), ring.parse("x^2+z")]
    _assert_pruned_basis(gens, ["x^2 + z", "y^2 + z", "x*z + 4*y*z"],
                         known_gb_prefix=2)


def test_tracked_basis_elements_expand_from_their_reprs():
    # every element of a tracked basis is sum(reprs[k][t] * gens[t])
    rng = random.Random(6060)
    for order in (GREVLEX, LEX):
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(6):
                gens = [random_nonzero_poly(rng, ring, 3, 3)
                        for _ in range(rng.randint(2, 3))]
                gb = buchberger(gens, order, track=True)
                for g, rep in zip(gb.generators, gb.reprs):
                    acc = ring.zero()
                    for c, h in zip(rep, gens):
                        acc = acc + c * h
                    assert acc == g


def test_known_gb_prefix_gives_same_reduced_basis():
    rng = random.Random(515151)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y", "z"], p)
        for _ in range(10):
            inner = [random_nonzero_poly(rng, ring, 2, 3) for _ in range(2)]
            gb_inner = buchberger(inner)
            extra = random_nonzero_poly(rng, ring, 3, 4)
            seeded_input = list(gb_inner.generators) + [extra]
            seeded = buchberger(seeded_input,
                                known_gb_prefix=len(gb_inner.generators))
            plain = buchberger(seeded_input)
            assert seeded.generators == plain.generators
            # seeding a bracket-power basis, as the pipeline does
            powered = [g.frobenius() for g in gb_inner.generators] + [extra]
            seeded = buchberger(powered,
                                known_gb_prefix=len(gb_inner.generators))
            plain = buchberger(powered)
            assert seeded.generators == plain.generators


def test_macaulay_oracle_agreement():
    # quick version; the acceptance suite runs the full 100-ideal sweep
    rng = random.Random(5150)
    run_macaulay_agreement(rng, rounds=25)


def run_macaulay_agreement(rng, rounds):
    """GB membership vs the dense linear-algebra oracle.

    A solvable Macaulay system certifies membership, so the engine must
    agree; a GB non-membership must stay unsolvable when the cofactor
    degree bound rises by 4.
    """
    for _ in range(rounds):
        p = rng.choice((2, 3, 5))
        nvars = rng.randint(1, 3)
        ring = PolyRing(["x", "y", "z"][:nvars], p)
        gens = [random_nonzero_poly(rng, ring, 3, 4)
                for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            f = ring.zero()
            for g in gens:
                f = f + random_poly(rng, ring, 3, 4) * g
            if f.is_zero():
                continue
        else:
            f = random_nonzero_poly(rng, ring, 4, 5)
        bound = f.total_degree() + 4
        member = ideal_membership(f, gens)
        oracle = macaulay_membership(f, gens, bound)
        if oracle:
            assert member, "oracle found an expansion the engine rejected"
        if not member:
            assert not oracle
            assert not macaulay_membership(f, gens, bound + 4)
