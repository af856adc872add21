"""Equation catalog: constructors, expected records, enumeration."""

import pytest

from fliftlab.catalog import (CUSP_EXPECTED, InadmissibleParameterError,
                              TABLE_ROWS, cusp_ci_symmetry_class,
                              cusp_hyp_symmetry_class, enumerate_table_rows,
                              make_cusp_ci, make_cusp_hypersurface, make_rdp)
from fliftlab.fp_poly import PolyRing, format_poly


def test_make_rdp_examples():
    assert format_poly(make_rdp("A_n", 3, n=2)) == "z^3 + x*y"
    ring = PolyRing(["x", "y", "z"], 2)
    f = make_rdp("E_7^3", 2)
    assert f == ring.parse("z^2+x^3+x*y^3+x*y*z")
    f = make_rdp("D_2n^0", 2, n=2)
    assert f == ring.parse("z^2+x^2*y+x*y^2")
    f = make_rdp("D_2n^{n-1}", 2, n=3)
    assert f == ring.parse("z^2+x^2*y+x*y^3+x*y*z")


def test_make_rdp_inadmissible():
    with pytest.raises(InadmissibleParameterError):
        make_rdp("E_8^4", 3)
    with pytest.raises(InadmissibleParameterError):
        make_rdp("D_2n^{n-1}", 2, n=1)
    with pytest.raises(InadmissibleParameterError):
        make_rdp("D_2n^r", 2, n=4, r=3)
    with pytest.raises(InadmissibleParameterError):
        make_rdp("D_2n^r", 2, n=4)
    with pytest.raises(InadmissibleParameterError):
        make_rdp("A_n", 3)
    with pytest.raises(InadmissibleParameterError):
        make_rdp("Z_9", 3)
    with pytest.raises(InadmissibleParameterError):
        make_rdp("E_6", 3)  # row requires p > 3


def test_equation_depends_on_characteristic_row():
    # the same label denotes different equations at p=2 and p=3
    f2 = make_rdp("E_6^1", 2)
    f3 = make_rdp("E_6^1", 3)
    assert format_poly(f2) == "x^3 + x*y*z + y^2*z + z^2"
    assert format_poly(f3) == "x^2*y^2 + y^4 + x^3 + z^2"


def test_cusp_constructors():
    f = make_cusp_hypersurface(2, 3, 4, 5)
    assert f == PolyRing(["x", "y", "z"], 2).parse("x^3+y^4+z^5+x*y*z")
    with pytest.raises(InadmissibleParameterError) as err:
        make_cusp_hypersurface(2, 2, 2, 2)
    assert "1/a + 1/b + 1/c" in str(err.value)
    with pytest.raises(InadmissibleParameterError):
        make_cusp_hypersurface(2, 1, 9, 9)

    f, g = make_cusp_ci(2, 3, 2, 2, 2)
    vars4 = ["x", "y", "z", "w"]
    assert f == PolyRing(vars4, 2).parse("x*y+z^3+w^2")
    assert g == PolyRing(vars4, 2).parse("z*w+x^2+y^2")
    with pytest.raises(InadmissibleParameterError):
        make_cusp_ci(2, 2, 2, 2, 2)
    with pytest.raises(InadmissibleParameterError):
        make_cusp_ci(2, 3, 2, 2, 1)


def test_cusp_boundary_cases():
    # exactly 1/a+1/b+1/c = 1 is excluded
    for t in ((2, 3, 6), (2, 4, 4), (3, 3, 3)):
        with pytest.raises(InadmissibleParameterError):
            make_cusp_hypersurface(2, *t)
    # just inside the constraint is fine
    make_cusp_hypersurface(2, 2, 3, 7)
    make_cusp_hypersurface(2, 2, 4, 5)
    make_cusp_hypersurface(2, 3, 3, 4)


def test_expected_classification_examples():
    # each instance carries its row's record, A_n split on p | n+1
    expected = {(i.row.family, i.p, i.param_dict().get("n")): i.expected
                for i in enumerate_table_rows(2)}
    rec = expected["E_8^1", 5, None]
    assert (rec.f_pure, rec.f_liftable) == (True, False)
    rec = expected["E_7^2", 2, None]
    assert (rec.f_pure, rec.f_liftable) == (False, False)
    rec = expected["E_8^2", 3, None]
    assert (rec.f_pure, rec.f_liftable) == (True, True)
    assert expected["A_n", 2, 1].ret_ref is False  # p | n+1: second row
    assert expected["A_n", 2, 2].ret_ref is True
    assert ("E_8^4", 7, None) not in expected


def test_table_internal_law():
    for row in TABLE_ROWS:
        assert not (row.expected.f_liftable and not row.expected.f_pure)


def test_enumeration_bounds():
    # A_n rows at p=2 instantiate n in {1,2,3} split by parity of n+1
    insts = [i for i in enumerate_table_rows(3)
             if i.row.family == "A_n" and i.p == 2]
    seen = sorted(dict(i.params)["n"] for i in insts)
    assert seen == [1, 2, 3]
    for i in insts:
        n = dict(i.params)["n"]
        divides = (n + 1) % 2 == 0
        assert ("(p | n+1)" in i.row.row_label) == divides

    # D_2n^r has no valid r at n = 2
    insts = [i for i in enumerate_table_rows(2) if i.row.family == "D_2n^r"]
    assert insts == []

    # full default bounds instantiate every p=2 D row
    families = {i.row.family for i in enumerate_table_rows(8) if i.p == 2}
    for fam in ("D_2n^0", "D_2n^r", "D_2n^{n-1}",
                "D_2n+1^0", "D_2n+1^r", "D_2n+1^{n-1}"):
        assert fam in families


def test_enumeration_is_deterministic():
    a = [(i.row.row_label, i.p, i.params) for i in enumerate_table_rows(5)]
    b = [(i.row.row_label, i.p, i.params) for i in enumerate_table_rows(5)]
    assert a == b


def test_constructor_parse_agreement():
    # every family's constructed polynomial equals the parse of the table
    # equation text (written out at fixed parameters)
    vars3 = ["x", "y", "z"]
    cases = [
        ("A_n", 3, dict(n=2), "z^3+x*y"),
        ("A_n", 2, dict(n=1), "z^2+x*y"),
        ("D_n", 5, dict(n=4), "z^2+x^2*y+y^5"),
        ("E_6", 5, {}, "z^2+x^3+y^4"),
        ("E_7", 7, {}, "z^2+x^3+x*y^3"),
        ("E_8", 7, {}, "z^2+x^3+y^5"),
        ("D_2n^0", 2, dict(n=3), "z^2+x^2*y+x*y^3"),
        ("D_2n^r", 2, dict(n=4, r=1), "z^2+x^2*y+x*y^4+x*y^3*z"),
        ("D_2n^{n-1}", 2, dict(n=3), "z^2+x^2*y+x*y^3+x*y*z"),
        ("D_2n+1^0", 2, dict(n=3), "z^2+x^2*y+y^3*z"),
        ("D_2n+1^r", 2, dict(n=4, r=2), "z^2+x^2*y+y^4*z+x*y^2*z"),
        ("D_2n+1^{n-1}", 2, dict(n=3), "z^2+x^2*y+y^3*z+x*y*z"),
        ("E_6^0", 2, {}, "z^2+x^3+y^2*z"),
        ("E_6^1", 2, {}, "z^2+x^3+y^2*z+x*y*z"),
        ("E_7^0", 2, {}, "z^2+x^3+x*y^3"),
        ("E_7^1", 2, {}, "z^2+x^3+x*y^3+x^2*y*z"),
        ("E_7^2", 2, {}, "z^2+x^3+x*y^3+y^3*z"),
        ("E_7^3", 2, {}, "z^2+x^3+x*y^3+x*y*z"),
        ("E_8^0", 2, {}, "z^2+x^3+y^5"),
        ("E_8^1", 2, {}, "z^2+x^3+y^5+x*y^3*z"),
        ("E_8^2", 2, {}, "z^2+x^3+y^5+x*y^2*z"),
        ("E_8^3", 2, {}, "z^2+x^3+y^5+y^3*z"),
        ("E_8^4", 2, {}, "z^2+x^3+y^5+x*y*z"),
        ("E_6^0", 3, {}, "z^2+x^3+y^4"),
        ("E_6^1", 3, {}, "z^2+x^3+y^4+x^2*y^2"),
        ("E_7^0", 3, {}, "z^2+x^3+x*y^3"),
        ("E_7^1", 3, {}, "z^2+x^3+x*y^3+x^2*y^2"),
        ("E_8^0", 3, {}, "z^2+x^3+y^5"),
        ("E_8^1", 3, {}, "z^2+x^3+y^5+x^2*y^3"),
        ("E_8^2", 3, {}, "z^2+x^3+y^5+x^2*y^2"),
        ("E_8^0", 5, {}, "z^2+x^3+y^5"),
        ("E_8^1", 5, {}, "z^2+x^3+y^5+x*y^4"),
    ]
    for family, p, kwargs, text in cases:
        assert make_rdp(family, p, **kwargs) == \
            PolyRing(vars3, p).parse(text), \
            (family, p, kwargs)


def test_symmetry_classes():
    assert cusp_hyp_symmetry_class((5, 3, 4)) == (3, 4, 5)
    orbit = {(3, 4, 5, 6), (4, 3, 5, 6), (3, 4, 6, 5), (4, 3, 6, 5),
             (5, 6, 3, 4), (6, 5, 3, 4), (5, 6, 4, 3), (6, 5, 4, 3)}
    reps = {cusp_ci_symmetry_class(t) for t in orbit}
    assert reps == {(3, 4, 5, 6)}


def test_symmetry_transfers_verdicts():
    from fliftlab.criteria import classify
    base = classify([make_cusp_hypersurface(3, 3, 4, 7)])
    for perm in ((4, 3, 7), (7, 4, 3), (3, 7, 4)):
        other = classify([make_cusp_hypersurface(3, *perm)])
        assert (other.f_pure, other.f_liftable) == (base.f_pure, base.f_liftable)


def test_cusp_expected_record():
    assert CUSP_EXPECTED.f_pure and CUSP_EXPECTED.f_liftable
    assert CUSP_EXPECTED.f_regular_ref is None
