"""Classification pipeline: screening, verdicts, certificates, residuals."""

import json
from itertools import product

import pytest

from fliftlab import criteria
from fliftlab.catalog import (cusp_ci_admissible, cusp_ci_symmetry_class,
                              enumerate_table_rows, make_cusp_ci)
from fliftlab.criteria import (LiftabilityReport, TooManyGeneratorsError,
                               _lift_and_residual, _residual_membership,
                               classify, isolated_singularity_check,
                               residual_polynomial)
from fliftlab.fp_poly import PolyRing
from fliftlab.frobsplit import build_splitting
from fliftlab.groebner import (GREVLEX, ModuleVector, module_buchberger,
                               module_normal_form)
from fliftlab.report import report_from_dict, report_to_json


def _r(p, names=("x", "y", "z")):
    return PolyRing(names, p)


def test_isolated_examples():
    ring = _r(2)
    f = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    assert isolated_singularity_check([f])[0] == "isolated_at_origin_only"
    assert isolated_singularity_check([ring.parse("x")])[0] == "smooth"
    r3 = _r(3)
    assert isolated_singularity_check([r3.parse("x^2")])[0] == "not_isolated"
    with pytest.raises(TooManyGeneratorsError):
        isolated_singularity_check(
            [ring.parse("x"), ring.parse("y"), ring.parse("z"),
             ring.parse("x+y")])


@pytest.mark.parametrize("p, names, texts, verdict", [
    # a cuspidal plane curve, and a fat point: each used to pass the
    # m = 1 screen as "smooth", Y/Y, conclusive
    (5, "xyz", ("x", "x+y^2-z^3"), ("classified", False, False, True)),
    (3, "xy", ("x", "x+y^2"), ("classified", False, False, True)),
    # non-reduced along a surface: its singular locus is not isolated
    (3, "xyzw", ("x*y+z^2", "x*y+z^2+w^3"), ("not_isolated", None, None,
                                             False)),
])
def test_ci_screen_uses_the_jacobian_minors(p, names, texts, verdict):
    ring = PolyRing(list(names), p)
    rep = classify([ring.parse(t) for t in texts])
    assert (rep.status, rep.f_pure, rep.f_liftable, rep.conclusive) == verdict


def test_singular_elsewhere_detected():
    # x(x-1)-type geometry: second singular point away from the origin
    r5 = PolyRing(["x", "y"], 5)
    f = r5.parse("y^2 + x^2*(x-1)^2")
    status, _ = isolated_singularity_check([f])
    assert status == "singular_elsewhere"


def test_classify_headline_cases():
    rep = classify([_r(5).parse("z^2+x^3+y^5+x*y^4")])
    assert (rep.f_pure, rep.f_liftable) == (True, False)
    assert rep.conclusive

    rep = classify([_r(2).parse("z^2+x^2*y+x*y^2+x*y*z")])
    assert (rep.f_pure, rep.f_liftable) == (True, True)

    rep = classify([_r(2).parse("x^3+y^4+z^5+x*y*z")])
    assert rep.f_liftable

    rep = classify([_r(3).parse("z^2+x^3+y^4+x^2*y^2")])
    assert (rep.f_pure, rep.f_liftable) == (True, True)


def test_classify_rejects_bad_input():
    ring = _r(2)
    with pytest.raises(ValueError):
        classify([ring.zero()])
    with pytest.raises(ValueError):
        classify([ring.one()])


def test_not_isolated_report():
    rep = classify([_r(3).parse("x^2")])
    assert rep.status == "not_isolated"
    assert rep.f_pure is None and rep.f_liftable is None
    assert not rep.conclusive


def test_smooth_report():
    rep = classify([_r(5).parse("x")])
    assert rep.status == "smooth"
    assert rep.f_pure and rep.f_liftable and rep.conclusive


def test_non_fpure_short_circuit():
    rep = classify([_r(2).parse("z^2+x^2*y+x*y^3")])
    assert rep.status == "classified"
    assert (rep.f_pure, rep.f_liftable, rep.conclusive) == (False, False, True)
    assert rep.certificate.fedder_survivor is None


def test_report_constructor_enforces_implication():
    with pytest.raises(ValueError):
        LiftabilityReport(p=2, variables=("x",), generators=("x",),
                          status="classified", f_pure=False, f_liftable=True,
                          conclusive=True, certificate=None, timings_ms={})


def test_residual_identities_range():
    for n in range(2, 11):
        ring = _r(2)
        x, y, z = ring.gens()
        f = z ** 2 + x ** 2 * y + x * y ** n + x * y * z
        fz = f.derivative(2)
        target = z ** 2 * f + (x ** 2 + x * y ** (n - 1) + x * z +
                               y ** (2 * n - 2) + y ** (n - 1) * z) * fz * fz
        assert residual_polynomial(f) == target

        f = z ** 2 + x ** 2 * y + y ** n * z + x * y * z
        fx, fz = f.derivative(0), f.derivative(2)
        target = ((z ** 2 + y ** (2 * n - 1)) * f +
                  (x ** 2 + x * y ** (n - 1) + y ** (2 * n - 3)) * fx * fx +
                  (x ** 2 + z ** 2 + x * z + y ** (n - 1) * z) * fz * fz)
        assert residual_polynomial(f) == target


def test_residual_requires_fedder():
    with pytest.raises(ValueError):
        residual_polynomial(_r(2).parse("z^2+x^2*y+x*y^3"))


def test_residual_degenerate_zero_delta1():
    # a two-term freshman's-dream polynomial: delta1 = x^p * y^p-ish terms
    ring = PolyRing(["x", "y"], 2)
    f = ring.parse("x")          # single term, delta1 = 0
    from fliftlab.frobsplit import build_splitting
    split = build_splitting([f])
    assert residual_polynomial(f, split).is_zero()


def test_ci_examples():
    r4 = PolyRing(["x", "y", "z", "w"], 2)
    rep = classify(
        [r4.parse("x*y+z^3+w^2"), r4.parse("z*w+x^2+y^2")])
    assert (rep.f_pure, rep.f_liftable) == (True, True)

    rep = classify(
        [r4.parse("x*y+z^3+w^3"), r4.parse("z*w+x^3+y^3")])
    assert (rep.f_pure, rep.f_liftable) == (True, True)

    rep = classify([r4.parse("x"), r4.parse("y")])
    assert rep.status == "smooth"
    assert rep.f_pure and rep.f_liftable


def _membership_columns(gens):
    """The membership generators in the documented cofactor order: the
    f_j e_i by (i, j), then w_k = ((df_i/dx_k)^p)_i for k = 1..n."""
    ring, m = gens[0].ring, len(gens)
    cols = [[f if t == i else ring.zero() for t in range(m)]
            for i in range(m) for f in gens]
    return cols + [[f.derivative(k).frobenius() for f in gens]
                   for k in range(ring.nvars)]


def test_ci_certificates():
    r4 = PolyRing(["x", "y", "z", "w"], 2)
    gens = [r4.parse("x*y+z^3+w^2"), r4.parse("z*w+x^2+y^2")]
    rep = classify(gens, certificates=True)
    assert rep.f_liftable
    # the cofactors re-expand the residual vector after a JSON round trip
    back = report_from_dict(json.loads(report_to_json(rep)))
    cof = back.certificate.cofactors
    cols = _membership_columns(gens)
    assert len(cof) == len(cols) == 2 * 2 + 4
    split = build_splitting(gens)
    s_p = split.s.frobenius()
    for pos, f in enumerate(gens):
        expansion = r4.zero()
        for c, col in zip(cof, cols):
            expansion = expansion + c * col[pos]
        assert expansion == _lift_and_residual(f, split, s_p)[1]


def test_hypersurface_certificates_roundtrip():
    ring = _r(2)
    f = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    rep = classify([f], certificates=True)
    assert rep.f_liftable
    cof = rep.certificate.cofactors
    assert cof is not None
    residual = residual_polynomial(f)
    expansion = cof[0] * f
    for v in range(3):
        expansion = expansion + cof[1 + v] * f.derivative(v).frobenius()
    assert expansion == residual


def test_classify_dispatch():
    ring = _r(2)
    f = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    assert classify([f]).f_liftable
    r4 = PolyRing(["x", "y", "z", "w"], 2)
    rep = classify([r4.parse("x*y+z^3+w^2"), r4.parse("z*w+x^2+y^2")])
    assert rep.f_liftable


def _cold_membership(residuals, gens):
    """The oracle: a cold module Buchberger on (f_j e_i, w_k) and the
    normal form of the residual vector, sharing nothing with the screen."""
    basis = module_buchberger(map(ModuleVector, _membership_columns(gens)))
    nf = module_normal_form(ModuleVector(residuals), basis)
    return nf.is_zero(), nf.coordinates


def _ci_classes(max_exp):
    return sorted({cusp_ci_symmetry_class(t)
                   for t in product(range(2, max_exp + 1), repeat=4)
                   if cusp_ci_admissible(*t)})


def test_seeded_membership_matches_cold_oracle():
    # the seeded route against the cold one on every table row at n <= 8
    # and every cusp_ci class at p = 2 that reaches membership; a reduced
    # basis is unique, so the remainders agree too
    cases = [[inst.poly] for inst in enumerate_table_rows(8)]
    cases += [make_cusp_ci(2, *t) for t in _ci_classes(6)]
    compared = 0
    for gens in cases:
        status, screen = isolated_singularity_check(gens)
        split = build_splitting(gens)
        if status in ("smooth", "not_isolated") or not split.fpure_at_origin:
            continue
        s_p = split.s.frobenius()
        residuals = [_lift_and_residual(f, split, s_p)[1] for f in gens]
        seeded = _residual_membership(residuals, gens, screen, GREVLEX, False)
        assert seeded[:2] == _cold_membership(residuals, gens), \
            [str(f) for f in gens]
        compared += 1
    assert compared == 79 + 119


def test_seeded_membership_agrees_with_naive_route():
    # the pipeline seeds Buchberger with bracket powers of the isolated
    # locus basis; the naive route runs Buchberger on (f, I_f^[p]) from
    # scratch.  Both must produce the same remainder.
    from fliftlab.frobsplit import apply_sigma, build_splitting, delta1
    from fliftlab.groebner import GREVLEX, buchberger, normal_form

    cases = [(2, "z^2+x^2*y+x*y^2+x*y*z"), (2, "x^3+y^4+z^5+x*y*z"),
             (3, "z^2+x^3+y^4+x^2*y^2"), (3, "z^2+x^3+y^5+x^2*y^2"),
             (5, "z^2+x^3+y^5+x*y^4"), (5, "x^2+y^3+z^7+x*y*z"),
             (7, "z^2+x^3+y^5"), (7, "x^3+y^3+z^4+x*y*z")]
    for p, text in cases:
        f = _r(p).parse(text)
        status, screen = isolated_singularity_check([f])
        split = build_splitting([f])
        if not split.fpure_at_origin:
            continue
        d1 = delta1(f)
        g = -apply_sigma(split, d1)
        residual = split.s.frobenius() * d1 + g.frobenius()
        member, (rem,), _ = _residual_membership([residual], [f], screen,
                                                 GREVLEX, False)
        naive_gens = [f] + [f.derivative(v).frobenius() for v in range(3)]
        naive_gb = buchberger(naive_gens)
        naive_rem = normal_form(residual, naive_gb)
        assert member == naive_rem.is_zero(), (p, text)
        if not member:
            assert rem == naive_rem, (p, text)


def test_verdicts_are_order_independent():
    from fliftlab.groebner import LEX
    cases = [(2, "z^2+x^2*y+x*y^2+x*y*z"), (5, "z^2+x^3+y^5+x*y^4"),
             (3, "z^2+x^3+y^4+x^2*y^2"), (2, "z^2+x^2*y+x*y^3")]
    for p, text in cases:
        f = _r(p).parse(text)
        a = classify([f])
        b = classify([f], order=LEX)
        assert (a.f_pure, a.f_liftable) == (b.f_pure, b.f_liftable)
        assert b.order == "lex"


def test_negative_ci_verdict_needs_a_splitting_section(monkeypatch):
    # no known two-generator input is F-pure and not liftable, so the
    # module route is stubbed to answer "not a member": the negative
    # verdict is conclusive only when the section s is identically 1
    monkeypatch.setattr(criteria, "_residual_membership",
                        lambda residuals, gens, screen, order, want_cofactors:
                        (False, tuple(residuals), None))
    r4 = PolyRing(["x", "y", "z", "w"], 3)
    unit_section = [r4.parse("x*y+z^2+w^2"), r4.parse("z*w+x^2+y^2+2*x*y*w")]
    r4 = PolyRing(["x", "y", "z", "w"], 2)
    one_section = [r4.parse("x*y+z^3+w^2"), r4.parse("z*w+x^2+y^2")]
    for gens, s_is_one in ((unit_section, False), (one_section, True)):
        assert (build_splitting(gens).s == gens[0].ring.one()) == s_is_one
        rep = classify(gens)
        assert rep.status == "classified"
        assert (rep.f_pure, rep.f_liftable) == (True, False)
        assert rep.conclusive == s_is_one


def test_ci_negative_verdict_same_with_certificates():
    # the known non-liftable equation, plain and tracked: a certified
    # negative answer takes its remainder from the tracked basis, and it
    # must match the uncertified run
    f = _r(5).parse("z^2+x^3+y^5+x*y^4")
    residual = residual_polynomial(f)
    plain = _residual_membership([residual], [f],
                                 isolated_singularity_check([f])[1],
                                 GREVLEX, False)
    cert = _residual_membership([residual], [f],
                                isolated_singularity_check([f], track=True)[1],
                                GREVLEX, True)
    assert plain[0] is False and cert[0] is False
    assert cert[1] == plain[1]
    assert not any(r.is_zero() for r in cert[1])
    assert cert[2] is None and plain[2] is None


def test_singular_elsewhere_positive_verdict_is_conclusive():
    # extra singular points away from the origin: membership still certifies
    rep = classify([_r(7).parse("x^11+y^12+z^12+x*y*z")])
    assert rep.status == "classified"
    assert rep.f_liftable and rep.conclusive


def test_timings_present():
    rep = classify([_r(2).parse("z^2+x^2*y+x*y^2+x*y*z")])
    for key in ("isolated", "fedder", "delta1", "groebner", "total"):
        assert key in rep.timings_ms
        assert rep.timings_ms[key] >= 0.0
