"""Parametric constructors for the rational-double-point equation
families and the cusp families, together with the expected
classification records used for cross-checking.

Each table row carries its equation once, as a function of the
variables x, y, z and the parameters n, r, and `make_rdp` and
`enumerate_table_rows` instantiate the row through it.

Family ids follow the usual type labels: "A_n", "D_n", "E_6".."E_8" for
the large-characteristic rows, "D_2n^0", "D_2n^r", "D_2n^{n-1}",
"D_2n+1^0", "D_2n+1^r", "D_2n+1^{n-1}" and "E_6^0".."E_8^4" for the
small-characteristic rows, plus "cusp_hyp" and "cusp_ci".

The D_2n+1^{n-1} equation uses the xyz cross term (the D_2n+1^r cross
term x*y^(n-r)*z at r = n-1).  The F-regular / RET / LET columns are
carried as literature metadata only and are never computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .fp_poly import DEFAULT_MAX_DEGREE, Poly, PolyRing, format_poly

RDP_VARIABLES = ("x", "y", "z")
CUSP_CI_VARIABLES = ("x", "y", "z", "w")


@dataclass(frozen=True)
class ExpectedRecord:
    """Expected verdicts: f_pure / f_liftable are recomputed by the
    pipeline; the last three columns are literature reference metadata.
    """

    f_pure: bool
    f_liftable: bool
    f_regular_ref: bool | None = None
    ret_ref: bool | None = None
    let_ref: bool | None = None

    def __post_init__(self):
        if self.f_liftable and not self.f_pure:
            raise ValueError("no family is F-liftable without being F-pure")


def _rec(code: str) -> ExpectedRecord:
    """Decode a row in table column order: F-pure, F-regular, F-liftable,
    RET, LET."""
    pure, regular, liftable, ret, let = (c == "Y" for c in code)
    return ExpectedRecord(f_pure=pure, f_liftable=liftable,
                          f_regular_ref=regular, ret_ref=ret, let_ref=let)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    row_label: str
    p_constraint: str            # "p>0", "p>2", "p>3", "p>5", "p=2", ...
    equation: Callable[..., Poly]  # (x, y, z, n, r) -> the row's equation
    param_names: tuple[str, ...]
    expected: ExpectedRecord
    test_primes: tuple[int, ...]

    def admits_p(self, p: int) -> bool:
        kind, bound = self.p_constraint[1], int(self.p_constraint[2:])
        if kind == ">":
            return p > bound
        return p == bound


def _p2(label, params, code, equation):
    return (label, "p=2", params, code, (2,), equation)


def _p3(label, code, equation):
    return (label, "p=3", (), code, (3,), equation)


# one entry per printed table row, in row order: (row label, p constraint,
# param names, YYNNN code, test primes, equation of (x, y, z, n, r))
_RDP_ROWS: list[tuple] = [
    ("A_n (p !| n+1)", "p>0", ("n",), "YYYYY", (2, 3, 5, 7),
     lambda x, y, z, n, r: z**(n + 1) + x*y),
    ("A_n (p | n+1)", "p>0", ("n",), "YYYNY", (2, 3, 5, 7),
     lambda x, y, z, n, r: z**(n + 1) + x*y),
    ("D_n", "p>2", ("n",), "YYYYY", (3, 5, 7),
     lambda x, y, z, n, r: z**2 + x**2*y + y**(n + 1)),
    ("E_6", "p>3", (), "YYYYY", (5, 7),
     lambda x, y, z, n, r: z**2 + x**3 + y**4),
    ("E_7", "p>3", (), "YYYYY", (5, 7),
     lambda x, y, z, n, r: z**2 + x**3 + x*y**3),
    ("E_8", "p>5", (), "YYYYY", (7,),
     lambda x, y, z, n, r: z**2 + x**3 + y**5),
    _p2("D_2n^0", ("n",), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**2*y + x*y**n),
    _p2("D_2n^r", ("n", "r"), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**2*y + x*y**n + x*y**(n - r)*z),
    _p2("D_2n^{n-1}", ("n",), "YNYNY",
        lambda x, y, z, n, r: z**2 + x**2*y + x*y**n + x*y*z),
    _p2("D_2n+1^0", ("n",), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**2*y + y**n*z),
    _p2("D_2n+1^r", ("n", "r"), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**2*y + y**n*z + x*y**(n - r)*z),
    _p2("D_2n+1^{n-1}", ("n",), "YNYNY",
        lambda x, y, z, n, r: z**2 + x**2*y + y**n*z + x*y*z),
    _p2("E_6^0", (), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + y**2*z),
    _p2("E_6^1", (), "YNYYY",
        lambda x, y, z, n, r: z**2 + x**3 + y**2*z + x*y*z),
    _p2("E_7^0", (), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + x*y**3),
    _p2("E_7^1", (), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + x*y**3 + x**2*y*z),
    _p2("E_7^2", (), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + x*y**3 + y**3*z),
    _p2("E_7^3", (), "YNYYY",
        lambda x, y, z, n, r: z**2 + x**3 + x*y**3 + x*y*z),
    _p2("E_8^0", (), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + y**5),
    _p2("E_8^1", (), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + y**5 + x*y**3*z),
    _p2("E_8^2", (), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + y**5 + x*y**2*z),
    _p2("E_8^3", (), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + y**5 + y**3*z),
    _p2("E_8^4", (), "YNYYY",
        lambda x, y, z, n, r: z**2 + x**3 + y**5 + x*y*z),
    _p3("E_6^0", "NNNNN", lambda x, y, z, n, r: z**2 + x**3 + y**4),
    _p3("E_6^1", "YNYNY",
        lambda x, y, z, n, r: z**2 + x**3 + y**4 + x**2*y**2),
    _p3("E_7^0", "NNNNN", lambda x, y, z, n, r: z**2 + x**3 + x*y**3),
    _p3("E_7^1", "YNYYY",
        lambda x, y, z, n, r: z**2 + x**3 + x*y**3 + x**2*y**2),
    _p3("E_8^0", "NNNNN", lambda x, y, z, n, r: z**2 + x**3 + y**5),
    _p3("E_8^1", "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + y**5 + x**2*y**3),
    _p3("E_8^2", "YNYYY",
        lambda x, y, z, n, r: z**2 + x**3 + y**5 + x**2*y**2),
    ("E_8^0", "p=5", (), "NNNNN", (5,),
     lambda x, y, z, n, r: z**2 + x**3 + y**5),
    ("E_8^1", "p=5", (), "YNNYY", (5,),
     lambda x, y, z, n, r: z**2 + x**3 + y**5 + x*y**4),
]


def _family_of_label(label: str) -> str:
    return label.split(" ")[0] if label.startswith("A_n") else label


TABLE_ROWS: tuple[FamilySpec, ...] = tuple(
    FamilySpec(_family_of_label(label), label, constraint, equation,
               tuple(params), _rec(code), tuple(primes))
    for (label, constraint, params, code, primes, equation) in _RDP_ROWS)


class InadmissibleParameterError(ValueError):
    pass


def _rows_for(family: str, p: int) -> list[FamilySpec]:
    rows = [row for row in TABLE_ROWS
            if row.family == family and row.admits_p(p)]
    if not rows:
        raise InadmissibleParameterError(
            f"family {family!r} has no table row at p={p}")
    return rows


def _validate_params(row: FamilySpec, n: int | None, r: int | None):
    if "n" in row.param_names:
        if n is None:
            raise InadmissibleParameterError(
                f"family {row.family!r} requires parameter n")
        low = 1 if row.family == "A_n" else 2
        if row.family in ("D_2n^r", "D_2n+1^r"):
            low = 3
        if n < low:
            raise InadmissibleParameterError(
                f"family {row.family!r} requires n >= {low}, got {n}")
    if "r" in row.param_names:
        if r is None:
            raise InadmissibleParameterError(
                f"family {row.family!r} requires parameter r")
        if not 1 <= r <= n - 2:
            raise InadmissibleParameterError(
                f"family {row.family!r} requires 1 <= r <= n-2, got r={r}")


def make_rdp(family: str, p: int, n: int | None = None,
             r: int | None = None) -> Poly:
    """The table equation of the given family at characteristic p."""
    rows = _rows_for(family, p)
    _validate_params(rows[0], n, r)
    return rows[0].equation(*PolyRing(RDP_VARIABLES, p).gens(), n, r)


def make_cusp_hypersurface(p: int, a: int, b: int, c: int,
                           max_degree: int = DEFAULT_MAX_DEGREE) -> Poly:
    """x^a + y^b + z^c + x*y*z with a,b,c >= 2 and 1/a + 1/b + 1/c < 1."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v < 2:
            raise InadmissibleParameterError(f"exponent {name}={v} violates {name} >= 2")
    if b * c + a * c + a * b >= a * b * c:
        raise InadmissibleParameterError(
            f"(a,b,c)=({a},{b},{c}) violates 1/a + 1/b + 1/c < 1")
    x, y, z = PolyRing(RDP_VARIABLES, p, max_degree).gens()
    return x ** a + y ** b + z ** c + x * y * z


def make_cusp_ci(p: int, a: int, b: int, c: int, d: int,
                 max_degree: int = DEFAULT_MAX_DEGREE) -> list[Poly]:
    """(x*y + z^a + w^b, z*w + x^c + y^d) with all exponents >= 2 and at
    least one >= 3."""
    for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        if v < 2:
            raise InadmissibleParameterError(f"exponent {name}={v} violates {name} >= 2")
    if max(a, b, c, d) < 3:
        raise InadmissibleParameterError(
            f"(a,b,c,d)=({a},{b},{c},{d}) violates max(a,b,c,d) >= 3")
    x, y, z, w = PolyRing(CUSP_CI_VARIABLES, p, max_degree).gens()
    return [x * y + z ** a + w ** b, z * w + x ** c + y ** d]


CUSP_EXPECTED = ExpectedRecord(f_pure=True, f_liftable=True)


def cusp_hyp_admissible(a: int, b: int, c: int) -> bool:
    return min(a, b, c) >= 2 and b * c + a * c + a * b < a * b * c


def cusp_ci_admissible(a: int, b: int, c: int, d: int) -> bool:
    return min(a, b, c, d) >= 2 and max(a, b, c, d) >= 3


def cusp_hyp_symmetry_class(t: tuple[int, int, int]) -> tuple[int, int, int]:
    """Canonical representative under permuting (a, b, c), which only
    relabels the variables."""
    return tuple(sorted(t))


def cusp_ci_symmetry_class(t: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Canonical representative under the relabelings a<->b (z<->w),
    c<->d (x<->y) and (a,b)<->(c,d) (swap the two equations)."""
    a, b, c, d = t
    return min((a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
               (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a))


@dataclass(frozen=True)
class TableInstance:
    """A concrete equation from one table row with its expected record."""

    row: FamilySpec
    p: int
    params: tuple[tuple[str, int], ...]
    poly: Poly
    expected: ExpectedRecord

    @property
    def equation_text(self) -> str:
        return format_poly(self.poly)

    def param_dict(self) -> dict:
        return dict(self.params)


def enumerate_table_rows(n_max: int = 8) -> Iterator[TableInstance]:
    """Deterministic enumeration of every table row instantiated over the
    requested parameter bound: A_n at n = 1..n_max over p in {2,3,5,7}
    split by the divisibility predicate, D families at n = 2..n_max, the
    fixed-characteristic rows once per row.
    """
    for row in TABLE_ROWS:
        for p in row.test_primes:
            for params in _param_instances(row, p, n_max):
                kwargs = dict(params)
                poly = make_rdp(row.family, p, **kwargs)
                yield TableInstance(row, p, tuple(params), poly, row.expected)


def _param_instances(row: FamilySpec, p: int, n_max: int):
    if not row.param_names:
        yield ()
        return
    if row.family == "A_n":
        divides_wanted = "!|" not in row.row_label
        for n in range(1, n_max + 1):
            if ((n + 1) % p == 0) == divides_wanted:
                yield (("n", n),)
        return
    if "r" in row.param_names:
        for n in range(3, n_max + 1):
            for r in range(1, n - 1):
                yield (("n", n), ("r", r))
        return
    for n in range(2, n_max + 1):
        yield (("n", n),)
