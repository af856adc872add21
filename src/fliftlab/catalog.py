"""Parametric constructors for the rational-double-point equation
families and the cusp families, together with the expected
classification records used for cross-checking.

Each table row states its equation (of x, y, z and the parameters n, r),
its prime constraint and its parameter range once, in `_RDP_ROWS` and
`FamilySpec.admits`.  `make_rdp` and `enumerate_table_rows` both read that
one rule, so `make_rdp` refuses any parameter its row does not take, and
the table lists exactly what `make_rdp` accepts.

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

from .fp_poly import DEFAULT_MAX_DEGREE, Poly, PolyRing

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

    def admits(self, p: int, n: int | None = None,
               r: int | None = None) -> bool:
        """The row's one input rule: its prime constraint, and n >= 1 for
        A_n (split on p | n+1), 1 <= r <= n-2 for the r rows, n >= 2 for
        the other rows with n; a parameter the row does not take is None."""
        kind, bound = self.p_constraint[1], int(self.p_constraint[2:])
        if not (p > bound if kind == ">" else p == bound):
            return False
        takes = ("n" in self.param_names, "r" in self.param_names)
        if (n is not None, r is not None) != takes:
            return False
        if "r" in self.param_names:
            return 1 <= r <= n - 2
        if self.family == "A_n":
            return n >= 1 and \
                ((n + 1) % p == 0) == ("!|" not in self.row_label)
        return n is None or n >= 2


def _p2(label, params, code, equation):
    return (label, "p=2", params, code, equation)


def _p3(label, code, equation):
    return (label, "p=3", (), code, equation)


# one entry per printed table row, in row order: (row label, p constraint,
# param names, YYNNN code, equation of (x, y, z, n, r))
_RDP_ROWS: list[tuple] = [
    ("A_n (p !| n+1)", "p>0", ("n",), "YYYYY",
     lambda x, y, z, n, r: z**(n + 1) + x*y),
    ("A_n (p | n+1)", "p>0", ("n",), "YYYNY",
     lambda x, y, z, n, r: z**(n + 1) + x*y),
    ("D_n", "p>2", ("n",), "YYYYY",
     lambda x, y, z, n, r: z**2 + x**2*y + y**(n + 1)),
    ("E_6", "p>3", (), "YYYYY", lambda x, y, z, n, r: z**2 + x**3 + y**4),
    ("E_7", "p>3", (), "YYYYY", lambda x, y, z, n, r: z**2 + x**3 + x*y**3),
    ("E_8", "p>5", (), "YYYYY", lambda x, y, z, n, r: z**2 + x**3 + y**5),
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
    _p2("E_6^0", (), "NNNNN", lambda x, y, z, n, r: z**2 + x**3 + y**2*z),
    _p2("E_6^1", (), "YNYYY",
        lambda x, y, z, n, r: z**2 + x**3 + y**2*z + x*y*z),
    _p2("E_7^0", (), "NNNNN", lambda x, y, z, n, r: z**2 + x**3 + x*y**3),
    _p2("E_7^1", (), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + x*y**3 + x**2*y*z),
    _p2("E_7^2", (), "NNNNN",
        lambda x, y, z, n, r: z**2 + x**3 + x*y**3 + y**3*z),
    _p2("E_7^3", (), "YNYYY",
        lambda x, y, z, n, r: z**2 + x**3 + x*y**3 + x*y*z),
    _p2("E_8^0", (), "NNNNN", lambda x, y, z, n, r: z**2 + x**3 + y**5),
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
    ("E_8^0", "p=5", (), "NNNNN", lambda x, y, z, n, r: z**2 + x**3 + y**5),
    ("E_8^1", "p=5", (), "YNNYY",
     lambda x, y, z, n, r: z**2 + x**3 + y**5 + x*y**4),
]


TABLE_ROWS: tuple[FamilySpec, ...] = tuple(
    FamilySpec(label.split(" ")[0], label, constraint, equation,
               tuple(params), _rec(code))
    for (label, constraint, params, code, equation) in _RDP_ROWS)


class InadmissibleParameterError(ValueError):
    pass


def make_rdp(family: str, p: int, n: int | None = None,
             r: int | None = None) -> Poly:
    """The equation of the table row of `family` that admits (p, n, r)."""
    for row in TABLE_ROWS:
        if row.family == family and row.admits(p, n, r):
            return row.equation(*PolyRing(RDP_VARIABLES, p).gens(), n, r)
    raise InadmissibleParameterError(
        f"no table row of family {family!r} takes p={p}, n={n}, r={r}")


def make_cusp_hypersurface(p: int, a: int, b: int, c: int,
                           max_degree: int = DEFAULT_MAX_DEGREE) -> Poly:
    """x^a + y^b + z^c + x*y*z with a,b,c >= 2 and 1/a + 1/b + 1/c < 1."""
    if not cusp_hyp_admissible(a, b, c):
        raise InadmissibleParameterError(
            f"(a,b,c)=({a},{b},{c}) violates a,b,c >= 2 and "
            f"1/a + 1/b + 1/c < 1")
    x, y, z = PolyRing(RDP_VARIABLES, p, max_degree).gens()
    return x ** a + y ** b + z ** c + x * y * z


def make_cusp_ci(p: int, a: int, b: int, c: int, d: int,
                 max_degree: int = DEFAULT_MAX_DEGREE) -> list[Poly]:
    """(x*y + z^a + w^b, z*w + x^c + y^d) with all exponents >= 2 and at
    least one >= 3."""
    if not cusp_ci_admissible(a, b, c, d):
        raise InadmissibleParameterError(
            f"(a,b,c,d)=({a},{b},{c},{d}) violates a,b,c,d >= 2 and "
            f"max(a,b,c,d) >= 3")
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

    @property
    def expected(self) -> ExpectedRecord:
        return self.row.expected


def enumerate_table_rows(n_max: int = 8) -> Iterator[TableInstance]:
    """Every table row at each prime of {2, 3, 5, 7} and each parameter
    choice with n <= n_max that its rule admits, in row order, then prime
    order, then (n, r) order."""
    ns = range(1, n_max + 1)
    # the candidates for a row with 0, 1 or 2 parameters
    candidates = ([(None, None)], [(n, None) for n in ns],
                  [(n, r) for n in ns for r in range(1, n)])
    for row in TABLE_ROWS:
        for p in (2, 3, 5, 7):
            admitted = [(n, r) for n, r in candidates[len(row.param_names)]
                        if row.admits(p, n, r)]
            if not admitted:
                continue
            gens = PolyRing(RDP_VARIABLES, p).gens()
            for n, r in admitted:
                yield TableInstance(row, p, tuple(zip(row.param_names, (n, r))),
                                    row.equation(*gens, n, r))
