"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  All comparisons are exact (zero tolerance); runtime budgets are
asserted at their stated limits.
"""

import itertools
import random
import time

import pytest

from fliftlab.catalog import (cusp_ci_admissible, cusp_ci_symmetry_class,
                              cusp_hyp_admissible, cusp_hyp_symmetry_class,
                              enumerate_table_rows, make_cusp_ci,
                              make_cusp_hypersurface)
from fliftlab.criteria import (LiftabilityReport, classify,
                               residual_polynomial)
from fliftlab.fp_poly import PolyRing
from fliftlab.frobsplit import delta1, frobenius_decompose

from support import delta1_walk, random_poly
from test_groebner import run_macaulay_agreement


def _announce(name, started, detail=""):
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS in {elapsed:.1f}s{suffix}")
    return elapsed


def test_criterion_1_table_reproduction():
    """Every table row at n = 2..8 (A_n at n = 1..8 over p in {2,3,5,7})
    must reproduce the expected (F-pure, F-liftable) pair exactly."""
    started = time.perf_counter()
    mismatches = []
    total = 0
    for inst in enumerate_table_rows(8):
        total += 1
        rep = classify([inst.poly])
        got = (rep.f_pure, rep.f_liftable)
        want = (inst.expected.f_pure, inst.expected.f_liftable)
        if got != want:
            mismatches.append((inst.row.row_label, inst.p,
                               dict(inst.params), got, want))
    assert mismatches == [], mismatches
    elapsed = _announce("1 (RDP table reproduction)", started,
                        f"{total} instances, 0 mismatches")
    assert elapsed < 30.0


def test_criterion_2_e8_1_at_p5_exception():
    """The headline exception: E_8^1 at p = 5 is F-pure but not F-liftable."""
    started = time.perf_counter()
    ring = PolyRing(["x", "y", "z"], 5)
    rep = classify([ring.parse("z^2+x^3+y^5+x*y^4")])
    assert rep.status == "classified"
    assert rep.f_pure is True
    assert rep.f_liftable is False
    assert rep.conclusive
    _announce("2 (E_8^1 at p=5 exception)", started,
              "f_pure=True, f_liftable=False")


def test_criterion_3_exact_identity_suite():
    """Closed-form residual identities for both D families at n = 2..10
    and the cusp delta1 expansion, as exact polynomial equalities."""
    started = time.perf_counter()
    checked = 0
    for n in range(2, 11):
        ring = PolyRing(["x", "y", "z"], 2)
        x, y, z = ring.gens()

        f = z ** 2 + x ** 2 * y + x * y ** n + x * y * z
        fz = f.derivative(2)
        target = z ** 2 * f + (x ** 2 + x * y ** (n - 1) + x * z +
                               y ** (2 * n - 2) + y ** (n - 1) * z) * fz * fz
        assert residual_polynomial(f) == target, f"even D family, n={n}"
        checked += 1

        f = z ** 2 + x ** 2 * y + y ** n * z + x * y * z
        fx, fz = f.derivative(0), f.derivative(2)
        target = ((z ** 2 + y ** (2 * n - 1)) * f +
                  (x ** 2 + x * y ** (n - 1) + y ** (2 * n - 3)) * fx * fx +
                  (x ** 2 + z ** 2 + x * z + y ** (n - 1) * z) * fz * fz)
        assert residual_polynomial(f) == target, f"odd D family, n={n}"
        checked += 1

    for (a, b, c) in ((3, 4, 5), (2, 3, 7), (3, 3, 4)):
        ring = PolyRing(["x", "y", "z"], 2)
        x, y, z = ring.gens()
        f = make_cusp_hypersurface(2, a, b, c)
        target = (x ** a * y ** b + x ** a * z ** c + y ** b * z ** c +
                  x * y * z * (x ** a + y ** b + z ** c))
        assert delta1(f) == target, f"cusp expansion ({a},{b},{c})"
        checked += 1

    elapsed = _announce("3 (exact identity suite)", started,
                        f"{checked} identities exact")
    assert elapsed < 5.0


def _sweep_classes(p, max_exp):
    classes = []
    for a in range(2, max_exp + 1):
        for b in range(a, max_exp + 1):
            for c in range(b, max_exp + 1):
                if cusp_hyp_admissible(a, b, c):
                    classes.append((a, b, c))
    return classes


def test_criterion_4_cusp_sweeps():
    """p = 2 with a,b,c <= 10 and p in {3,5,7} with a,b,c <= 12: every
    admissible tuple classifies F-liftable.  Verdicts are computed once
    per variable-permutation class and asserted for every ordered tuple.
    """
    started = time.perf_counter()
    failures = []
    tuple_count = 0
    for p, max_exp in ((2, 10), (3, 12), (5, 12), (7, 12)):
        verdicts = {}
        for cls in _sweep_classes(p, max_exp):
            rep = classify([make_cusp_hypersurface(p, *cls)])
            verdicts[cls] = rep.f_liftable
            if rep.f_liftable is not True:
                failures.append((p, cls, rep.status, rep.f_liftable))
        for t in itertools.product(range(2, max_exp + 1), repeat=3):
            if cusp_hyp_admissible(*t):
                tuple_count += 1
                assert verdicts[cusp_hyp_symmetry_class(t)] is True, (p, t)
    assert failures == [], failures
    elapsed = _announce("4 (cusp hypersurface sweeps)", started,
                        f"{tuple_count} tuples, all F-liftable")
    assert elapsed < 600.0


def test_criterion_5_ci_cusp_sweep():
    """p = 2, all (a,b,c,d) with 2 <= a,b,c,d <= 6 and at least one >= 3:
    every tuple classifies F-liftable."""
    started = time.perf_counter()
    verdicts = {}
    failures = []
    tuple_count = 0
    all_tuples = [t for t in itertools.product(range(2, 7), repeat=4)
                  if cusp_ci_admissible(*t)]
    for cls in sorted({cusp_ci_symmetry_class(t) for t in all_tuples}):
        rep = classify(make_cusp_ci(2, *cls))
        verdicts[cls] = rep.f_liftable
        if rep.f_liftable is not True:
            failures.append((cls, rep.status, rep.f_liftable))
    for t in all_tuples:
        tuple_count += 1
        assert verdicts[cusp_ci_symmetry_class(t)] is True, t
    assert failures == [], failures
    elapsed = _announce("5 (complete-intersection cusp sweep)", started,
                        f"{tuple_count} tuples, all F-liftable")
    assert elapsed < 300.0


def test_criterion_6_property_suites():
    """Oracle-backed property checks: delta1 vs the composition-walk oracle,
    Frobenius decomposition round-trip, Groebner membership vs the
    Macaulay-matrix oracle, the liftable=>pure implication (a report
    that breaks it cannot be constructed, so every verdict is checked
    when it is made), and permutation/rescaling invariance on the
    catalog equations."""
    started = time.perf_counter()

    rng = random.Random(60001)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        ring = PolyRing(["x", "y", "z"], p)
        f = random_poly(rng, ring, 5, 6)
        assert delta1(f) == delta1_walk(f)

    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        ring = PolyRing(["x", "y", "z"], p)
        f = random_poly(rng, ring, 6, 8)
        assert frobenius_decompose(f).reassemble() == f

    run_macaulay_agreement(random.Random(60002), rounds=100)

    with pytest.raises(ValueError):
        LiftabilityReport(p=5, variables=("x", "y", "z"), generators=("x",),
                          status="classified", f_pure=False, f_liftable=True,
                          conclusive=True, certificate=None, timings_ms={})

    perm_checked = 0
    rescale_checked = 0
    for inst in enumerate_table_rows(3):
        base = classify([inst.poly])
        verdict = (base.f_pure, base.f_liftable)
        for perm in itertools.permutations(range(3)):
            rep = classify([inst.poly.permute_variables(perm)])
            assert (rep.f_pure, rep.f_liftable) == verdict, \
                (inst.row.row_label, inst.p, perm)
            perm_checked += 1
        if inst.p > 2:
            for v in range(3):
                rep = classify([inst.poly.substitute_scaled(v, 2)])
                assert (rep.f_pure, rep.f_liftable) == verdict, \
                    (inst.row.row_label, inst.p, "scale", v)
                rescale_checked += 1

    elapsed = _announce(
        "6 (property suites)", started,
        f"200 delta1 oracles, 300 round-trips, 100 Macaulay ideals, "
        f"{perm_checked} permutations, {rescale_checked} rescalings")
    assert elapsed < 120.0
