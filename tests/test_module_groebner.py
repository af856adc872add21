"""Submodule membership in free modules R^s."""

import random

import pytest

from fliftlab.fp_poly import DegreeGuardError, PolyRing
from fliftlab.groebner import (GREVLEX, LEX, ModuleGroebnerBasis,
                               ModuleVector, buchberger, module_buchberger,
                               module_normal_form, verify_buchberger)

from support import check_packed_layout, random_poly, random_nonzero_poly


def _ring(p=2, names=("x", "y", "z", "w")):
    return PolyRing(names, p)


def test_generator_is_member_with_unit_cofactor():
    ring = _ring(5, ("x", "y"))
    gens = [ModuleVector([ring.parse("x^2+y"), ring.parse("y")]),
            ModuleVector([ring.parse("x"), ring.zero()])]
    cof = module_buchberger(gens, track=True).cofactors(gens[0])
    assert cof[0] == ring.one() and cof[1].is_zero()


def test_f_times_basis_vector():
    ring = _ring(3, ("x", "y"))
    f = ring.parse("x^2 + 2*y")
    gens = [ModuleVector([f, ring.zero()]),
            ModuleVector([ring.zero(), ring.parse("y")])]
    v = ModuleVector([f * ring.parse("x*y + 1"), ring.zero()])
    assert module_normal_form(v, module_buchberger(gens)).is_zero()


def test_coordinate_count_mismatch():
    ring = _ring(3, ("x", "y"))
    v2 = ModuleVector([ring.parse("x"), ring.parse("y")])
    v3 = ModuleVector([ring.parse("x"), ring.parse("y"), ring.zero()])
    with pytest.raises(ValueError):
        module_normal_form(v3, module_buchberger([v2]))
    with pytest.raises(ValueError):
        module_buchberger([v2, v3])


def test_non_member():
    ring = _ring(5, ("x", "y"))
    gens = [ModuleVector([ring.parse("x"), ring.zero()]),
            ModuleVector([ring.zero(), ring.parse("x")])]
    v = ModuleVector([ring.zero(), ring.one()])
    gb = module_buchberger(gens, track=True)
    assert not module_normal_form(v, gb).is_zero()
    assert gb.cofactors(v) is None


def test_ci_cusp_vector_shared_cofactors():
    """(a,b,c,d) = (3,2,2,2) at p = 2: the stacked residual vector lies in
    the span of the gradient-power columns and the (f,g)-multiples."""
    from fliftlab.frobsplit import apply_sigma, build_splitting, delta1

    ring = _ring(2)
    f = ring.parse("x*y + z^3 + w^2")
    g = ring.parse("z*w + x^2 + y^2")
    split = build_splitting([f, g])
    assert split.fpure_at_origin
    s_p = split.s.frobenius()
    target = []
    for h in (f, g):
        d1 = delta1(h)
        gg = -apply_sigma(split, d1)
        target.append(s_p * d1 + gg.frobenius())
    v = ModuleVector(target)
    cols = []
    for k in range(4):
        cols.append(ModuleVector([f.derivative(k).frobenius(),
                                  g.derivative(k).frobenius()]))
    zero = ring.zero()
    for i in range(2):
        for h in (f, g):
            cols.append(ModuleVector([h if j == i else zero for j in range(2)]))
    cof = module_buchberger(cols, track=True).cofactors(v)
    assert cof is not None
    # certificate re-expansion, coordinate by coordinate
    for pos in range(2):
        acc = ring.zero()
        for c, col in zip(cof, cols):
            acc = acc + c * col[pos]
        assert acc == v[pos]


def test_module_normal_form_idempotent_random():
    rng = random.Random(808)
    for p in (2, 3):
        ring = _ring(p, ("x", "y"))
        gens = [ModuleVector([random_nonzero_poly(rng, ring, 2, 3),
                              random_poly(rng, ring, 2, 3)]),
                ModuleVector([random_poly(rng, ring, 2, 3),
                              random_nonzero_poly(rng, ring, 2, 3)])]
        gb = module_buchberger(gens)
        for _ in range(10):
            v = ModuleVector([random_poly(rng, ring, 3, 4),
                              random_poly(rng, ring, 3, 4)])
            nf = module_normal_form(v, gb)
            assert module_normal_form(nf, gb) == nf
        for g in gens:
            assert module_normal_form(g, gb).is_zero()


def test_membership_random_combinations():
    rng = random.Random(909)
    for p in (2, 3, 5):
        ring = _ring(p, ("x", "y"))
        for _ in range(8):
            gens = [ModuleVector([random_nonzero_poly(rng, ring, 2, 3),
                                  random_poly(rng, ring, 2, 3)]),
                    ModuleVector([random_poly(rng, ring, 2, 3),
                                  random_nonzero_poly(rng, ring, 2, 3)])]
            coeffs = [random_poly(rng, ring, 2, 3) for _ in gens]
            v_coords = [ring.zero(), ring.zero()]
            for c, g in zip(coeffs, gens):
                for pos in range(2):
                    v_coords[pos] = v_coords[pos] + c * g[pos]
            v = ModuleVector(v_coords)
            assert module_normal_form(v, module_buchberger(gens)).is_zero()


def test_lex_is_term_over_position_golden():
    # lex compares the monomial before the position: x*y e_1 > x e_2 > y e_1
    ring = _ring(3, ("x", "y"))
    gens = [ModuleVector([ring.zero(), ring.parse("x")]),
            ModuleVector([ring.parse("y"), ring.parse("y^2")])]
    # the inputs alone are not a basis: their S-vector at e_2 leaves x*y e_1
    assert not verify_buchberger(ModuleGroebnerBasis(gens, LEX, gens))
    gb = module_buchberger(gens, LEX)
    assert gb.generators == (
        ModuleVector([ring.parse("x*y"), ring.zero()]),
        ModuleVector([ring.zero(), ring.parse("x")]),
        ModuleVector([ring.parse("y"), ring.parse("y^2")]))


def test_rank_one_module_basis_is_the_ideal_basis():
    rng = random.Random(1212)
    for order in (GREVLEX, LEX):
        for p in (2, 3, 5):
            ring = _ring(p, ("x", "y", "z"))
            for _ in range(6):
                gens = [random_nonzero_poly(rng, ring, 3, 4)
                        for _ in range(rng.randint(1, 3))]
                mgb = module_buchberger([ModuleVector([g]) for g in gens], order)
                assert tuple(v[0] for v in mgb.generators) == \
                    buchberger(gens, order).generators


def test_packed_slotted_layout_matches_tuple_terms():
    rng = random.Random(4545)
    for order in (GREVLEX, LEX):
        for slots in (2, 3):
            check_packed_layout(rng, order, slots)


def _top_key(order, v):
    """Independent term-over-position key of a vector's leading term."""
    return max((order.key(m), -pos) for pos, c in enumerate(v)
               for m in c.terms)


def test_module_bases_satisfy_buchberger_criterion_random():
    rng = random.Random(3434)
    for order in (GREVLEX, LEX):
        for p in (2, 3, 5):
            ring = _ring(p, ("x", "y"))
            for _ in range(6):
                size = rng.randint(2, 3)
                gens = [ModuleVector([random_poly(rng, ring, 2, 3)
                                      for _ in range(size)])
                        for _ in range(rng.randint(2, 4))]
                if all(g.is_zero() for g in gens):
                    continue
                gb = module_buchberger(gens, order)
                assert verify_buchberger(gb)
                keys = [_top_key(order, v) for v in gb.generators]
                assert keys == sorted(keys, reverse=True)
                for g in gens:
                    assert module_normal_form(g, gb).is_zero()


def test_coprime_leads_at_one_position_still_pair():
    # the leads x e_1 and y e_1 have coprime monomials, but their S-vector
    # (0, y) is new: the product criterion holds at rank 1 only
    ring = _ring(3, ("x", "y"))
    gens = [ModuleVector([ring.parse("x"), ring.one()]),
            ModuleVector([ring.parse("y"), ring.zero()])]
    for order in (GREVLEX, LEX):
        gb = module_buchberger(gens, order)
        assert verify_buchberger(gb)
        assert gb.generators == (gens[0], gens[1],
                                 ModuleVector([ring.zero(), ring.parse("y")]))


def test_tracked_module_basis_elements_expand_from_their_reprs():
    rng = random.Random(7070)
    for order in (GREVLEX, LEX):
        for p in (2, 3, 5):
            ring = _ring(p, ("x", "y"))
            for _ in range(5):
                gens = [ModuleVector([random_poly(rng, ring, 2, 3)
                                      for _ in range(2)])
                        for _ in range(rng.randint(2, 3))]
                if all(g.is_zero() for g in gens):
                    continue
                gb = module_buchberger(gens, order, track=True)
                for v, rep in zip(gb.generators, gb.reprs):
                    for pos in range(2):
                        acc = ring.zero()
                        for c, g in zip(rep, gens):
                            acc = acc + c * g[pos]
                        assert acc == v[pos]


def test_module_spairs_obey_degree_guard_on_monomial_degree():
    # the only S-pair has lcm x*y e_1: degree 2, the position not counted
    for bound in (2, 1):
        ring = PolyRing(("x", "y"), 3, max_degree=bound)
        gens = [ModuleVector([ring.parse("x"), ring.zero()]),
                ModuleVector([ring.parse("y"), ring.one()])]
        if bound == 2:
            assert len(module_buchberger(gens)) == 3
        else:
            with pytest.raises(DegreeGuardError):
                module_buchberger(gens)
