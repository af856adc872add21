"""Sparse multivariate polynomial arithmetic over a prime field F_p.

A monomial is an exponent tuple (one entry per ambient variable).  A
polynomial is a finite map from monomial to nonzero coefficient in
[0, p); the zero polynomial has an empty term map.  This canonical form
makes equality syntactic.  All values are immutable after construction.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Iterable, Iterator, Mapping, Sequence


class FpPolyError(Exception):
    """Base class for errors raised by this package."""


class NotPrimeError(FpPolyError, ValueError):
    pass


class AmbientMismatchError(FpPolyError, ValueError):
    """Operands live in different ambients (variables and/or modulus)."""


class DegreeGuardError(FpPolyError, OverflowError):
    """A computation would exceed the configured total-degree guard."""

    @classmethod
    def check(cls, degree: int, guard: int, what: str) -> None:
        """Raise "<what> degree D exceeds guard G" iff degree D > guard G."""
        if degree > guard:
            raise cls(f"{what} degree {degree} exceeds guard {guard}")


class ParseError(FpPolyError, ValueError):
    """Syntax error in a polynomial expression; carries a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    pass


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.3e24: the bases
    are the primes up to 41, whose least strong pseudoprime is about
    3.317e24 (Sorenson and Webster 2017)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


# The rules of a ring's ambient, which `PolyRing` and the command line's
# flag types both apply; each raises a ValueError that says what is wrong.
def check_prime(p: int) -> int:
    """p, a prime below 2^31."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p >= 2**31:
        raise NotPrimeError(f"{p} is not a prime in [2, 2^31)")
    return p


def check_variables(variables: Iterable[str]) -> tuple[str, ...]:
    """The names as a tuple: identifiers, at least one, all distinct."""
    variables = tuple(variables)
    if not variables:
        raise ValueError("at least one variable is required")
    for v in variables:
        if not _IDENT_RE.match(v):
            raise ValueError(f"invalid variable name: {v!r}")
    if len(set(variables)) != len(variables):
        raise ValueError("variable names must be distinct")
    return variables


DEFAULT_MAX_DEGREE = 10_000


def grevlex_key(mono: tuple[int, ...]) -> tuple:
    """Sort key: larger key = larger monomial in degrevlex."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


class PolyRing:
    """Ambient for polynomials: variable names, prime modulus, degree guard.

    Two rings denote the same ambient iff they agree on variables and p;
    the degree guard is a per-ring resource limit, not part of identity.
    """

    __slots__ = ("variables", "p", "max_degree", "_index", "_zero_mono")

    def __init__(self, variables: Iterable[str], p: int, max_degree: int = DEFAULT_MAX_DEGREE):
        self.variables = check_variables(variables)
        self.p = check_prime(p)
        if max_degree < 1:
            raise ValueError("max_degree must be positive")
        self.max_degree = max_degree
        self._index = {v: i for i, v in enumerate(self.variables)}
        self._zero_mono = (0,) * len(self.variables)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def same_ambient(self, other: "PolyRing") -> bool:
        return self.variables == other.variables and self.p == other.p

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.same_ambient(other)

    def __hash__(self):
        return hash((self.variables, self.p))

    def __repr__(self):
        return f"PolyRing(vars={','.join(self.variables)}, p={self.p})"

    def zero(self) -> "Poly":
        return Poly._make(self, {})

    def one(self) -> "Poly":
        return self.from_int(1)

    def from_int(self, c: int) -> "Poly":
        c %= self.p
        return Poly._make(self, {self._zero_mono: c} if c else {})

    def variable(self, which: int | str) -> "Poly":
        i = self._index[which] if isinstance(which, str) else which
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly._make(self, {mono: 1})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.variable(i) for i in range(self.nvars))

    def monomial(self, exponents: Iterable[int], coeff: int = 1) -> "Poly":
        return self.from_terms({tuple(exponents): coeff})

    def from_terms(self, terms: Mapping[tuple[int, ...], int]) -> "Poly":
        out: dict[tuple[int, ...], int] = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != self.nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono}")
            DegreeGuardError.check(sum(mono), self.max_degree, "monomial")
            c = (out.get(mono, 0) + c) % self.p
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
        return Poly._make(self, out)

    def parse(self, source: str) -> "Poly":
        return _Parser(source, self).parse()

    def inv(self, c: int) -> int:
        c %= self.p
        if c == 0:
            raise ZeroDivisionError("no inverse of 0 in F_p")
        return pow(c, self.p - 2, self.p)


class Poly:
    """Immutable sparse polynomial over a PolyRing.

    `terms` maps exponent tuples to coefficients in [1, p).  Never mutate
    it; every operation returns a fresh value.
    """

    __slots__ = ("ring", "terms", "_deg", "_hash")

    @classmethod
    def _make(cls, ring: PolyRing, terms: dict) -> "Poly":
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        self._deg = None
        self._hash = None
        return self

    def _check(self, other: "Poly") -> None:
        if self.ring is not other.ring and not self.ring.same_ambient(other.ring):
            raise AmbientMismatchError(
                f"ambient mismatch: {self.ring!r} vs {other.ring!r}")

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if self._deg is None:
            self._deg = max((sum(m) for m in self.terms), default=-1)
        return self._deg

    def constant_term(self) -> int:
        return self.terms.get(self.ring._zero_mono, 0)

    def coefficient(self, mono: Iterable[int]) -> int:
        return self.terms.get(tuple(mono), 0)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring.same_ambient(other.ring) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def _plus(self, other, sign: int) -> "Poly":
        """self + sign * other; NotImplemented for a non-Poly other, so
        `x + 1` raises TypeError as `1 + x` does."""
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            cc = (out.get(m, 0) + sign * c) % p
            if cc:
                out[m] = cc
            else:
                out.pop(m, None)
        return Poly._make(self.ring, out)

    def __neg__(self) -> "Poly":
        p = self.ring.p
        return Poly._make(self.ring, {m: p - c for m, c in self.terms.items()})

    def scale(self, c: int) -> "Poly":
        p = self.ring.p
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Poly._make(self.ring, {m: c * v % p for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            # an int scales; any other operand is NotImplemented, so
            # `x * 1.5` raises TypeError as `x + 1.5` does
            if isinstance(other, int):
                return self.scale(other)
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) != 1:  # dot makes the ambient and degree-guard checks
            return dot([self], [other])
        self._check(other)
        ring = self.ring
        DegreeGuardError.check(self.total_degree() + other.total_degree(),
                               ring.max_degree, "product")
        # a monomial times b: distinct products, no term cancels
        (ma, ca), = a.items()
        p = ring.p
        return Poly._make(ring, {tuple(x + y for x, y in zip(ma, mb)):
                                 ca * cb % p for mb, cb in b.items()})

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        ring = self.ring
        if e == 0:
            return ring.one()
        if self.is_zero():
            return ring.zero()
        DegreeGuardError.check(self.total_degree() * e, ring.max_degree,
                               "power")
        if len(self.terms) == 1:  # (c x^m)^e = c^e x^(e m), one term
            (m, c), = self.terms.items()
            return Poly._make(ring, {tuple(a * e for a in m):
                                     pow(c, e, ring.p)})
        packing = _packing(ring.nvars, self.total_degree() * e or 1)
        base = _pack(self.terms, packing[1])
        return _unpack(ring, _times(dict(base), base, ring.p, e - 1), packing)

    def frobenius(self) -> "Poly":
        """The p-th power, computed by scaling every exponent by p.

        Valid because (a+b)^p = a^p + b^p in characteristic p and c^p = c
        for c in the prime field.
        """
        ring = self.ring
        p = ring.p
        DegreeGuardError.check(self.total_degree() * p, ring.max_degree,
                               "power")
        return Poly._make(ring, {tuple(e * p for e in m): c for m, c in self.terms.items()})

    def derivative(self, var_index: int) -> "Poly":
        """Formal partial derivative; terms with p | exponent vanish."""
        ring = self.ring
        if not 0 <= var_index < ring.nvars:
            raise IndexError(f"variable index {var_index} out of range")
        p, v = ring.p, var_index
        # m -> m - e_v is injective, so no two terms meet
        return Poly._make(ring, {m[:v] + (m[v] - 1,) + m[v + 1:]: cc
                                 for m, c in self.terms.items()
                                 if (cc := c * m[v] % p)})

    def substitute_scaled(self, var_index: int, unit: int) -> "Poly":
        """Substitute x_i -> unit * x_i for a nonzero scalar unit."""
        ring = self.ring
        if not 0 <= var_index < ring.nvars:
            raise IndexError(f"variable index {var_index} out of range")
        p = ring.p
        unit %= p
        if unit == 0:
            raise ValueError("unit must be nonzero")
        out = {m: c * pow(unit, m[var_index], p) % p for m, c in self.terms.items()}
        return Poly._make(ring, {m: c for m, c in out.items() if c})

    def permute_variables(self, perm: Iterable[int]) -> "Poly":
        """Relabel variables: new exponent j comes from old position perm[j]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.ring.nvars)):
            raise ValueError(f"{perm} is not a permutation of the variables")
        return Poly._make(self.ring, {tuple(m[i] for i in perm): c
                                      for m, c in self.terms.items()})

    def __repr__(self):
        return f"Poly({format_poly(self)!r}, p={self.ring.p})"

    def __str__(self):
        return format_poly(self)


@functools.lru_cache(maxsize=64)
def _packing(nvars: int, degree: int) -> tuple[range, list[int], int]:
    """(shifts, units, mask) of the exponent packing of `dot`, one per
    shape: variable k in bits [k*w, (k+1)*w), w the bit length of `degree`,
    so that every monomial of at most that degree fits, a product of terms
    is an addition and a p-th power a multiplication by p."""
    w = degree.bit_length()
    shifts = range(0, w * nvars, w)
    return shifts, [1 << s for s in shifts], (1 << w) - 1


def _pack(terms: dict, units) -> list:
    """Exponent-tuple terms as (packed key, coefficient) pairs."""
    return [(sum(map(operator.mul, m, units)), c) for m, c in terms.items()]


def _add_product(out: dict, a: Iterable, b: Iterable) -> dict:
    """out += a * b in place for packed (key, coefficient) pairs, b walked
    once per pair of a; coefficients unreduced.  Returns out."""
    get = out.get
    for ka, ca in a:
        for kb, cb in b:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _times(a: dict, b: list, q: int, e: int = 1) -> dict:
    """a * b^e for packed terms, a the longer, by e products by the pairs
    (key, coefficient) of b, coefficients reduced mod q."""
    for _ in range(e):
        out = _add_product({}, b, a.items())
        a = {k: r for k, c in out.items() if (r := c % q)}
    return a


def _unpack(ring: PolyRing, terms: dict, packing: tuple) -> Poly:
    """The polynomial of terms packed in `packing` (shifts, units, mask),
    coefficients reduced mod p."""
    shifts, _, mask = packing
    p = ring.p
    return Poly._make(ring, {tuple([(k >> s) & mask for s in shifts]): r
                             for k, c in terms.items() if (r := c % p)})


def dot(left: Sequence[Poly], right: Sequence[Poly]) -> Poly:
    """sum(a * b) over the pairs (a, b) of `left` and `right`, in the ring
    of left[0]: every product is accumulated into one packed term dict
    (see `_packing`), whose coefficients are reduced mod p once.  Raises
    AmbientMismatchError on operands in different ambients, and
    DegreeGuardError where one of the products a * b would, before any
    product is formed."""
    if not left or len(left) != len(right):
        raise ValueError("dot needs two nonempty sequences of one length")
    first, ring = left[0], left[0].ring
    pairs = []
    top = 1
    for a, b in zip(left, right):
        first._check(a)
        first._check(b)
        if a.terms and b.terms:
            degree = a.total_degree() + b.total_degree()
            DegreeGuardError.check(degree, a.ring.max_degree, "product")
            top = max(top, degree)
            pairs.append((a.terms, b.terms) if len(a) <= len(b)
                         else (b.terms, a.terms))
    packing = _packing(ring.nvars, top)
    units = packing[1]
    out: dict[int, int] = {}
    for a, b in pairs:
        _add_product(out, _pack(a, units), _pack(b, units))
    return _unpack(ring, out, packing)


_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()])")

# deeper parentheses are a ParseError rather than a RecursionError
_MAX_NESTING = 100


class _Parser:
    def __init__(self, source: str, ring: PolyRing):
        self.ring = ring
        self.depth = 0
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(source):
            if source[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(source, pos)
            if m is None:
                raise ParseError(f"unexpected character {source[pos]!r}", pos)
            num, name, op = m.groups()
            kind = "int" if num else "name" if name else op
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", len(source)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Poly:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> Poly:
        value = self.term()
        while True:
            kind = self.peek()[0]
            if kind == "+":
                self.advance()
                value = value + self.term()
            elif kind == "-":
                self.advance()
                value = value - self.term()
            else:
                return value

    def term(self) -> Poly:
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> Poly:
        negate = False
        while self.peek()[0] == "-":
            self.advance()
            negate = not negate
        return -self.power() if negate else self.power()

    def power(self) -> Poly:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            kind, text, pos = self.advance()
            if kind == "-":
                raise ParseError("negative exponent", pos)
            if kind != "int":
                raise ParseError(f"expected exponent, found {text!r}", pos)
            e = int(text)
            if e > self.ring.max_degree:
                raise DegreeGuardError(
                    f"exponent {e} exceeds degree guard {self.ring.max_degree}")
            return base ** e
        return base

    def atom(self) -> Poly:
        kind, text, pos = self.advance()
        if kind == "int":
            return self.ring.from_int(int(text))
        if kind == "name":
            if text not in self.ring._index:
                raise UnknownVariableError(f"unknown identifier {text!r}", pos)
            return self.ring.variable(text)
        if kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError("parentheses nested too deeply", pos)
            value = self.expr()
            self.depth -= 1
            kind, text, pos = self.advance()
            if kind != ")":
                raise ParseError(f"expected ')', found {text!r}", pos)
            return value
        raise ParseError(f"expected a term, found {text!r}" if text else "unexpected end of input", pos)


_FACTOR_TABLE_SIZE = 128


@functools.lru_cache(maxsize=64)
def _factor_table(variables: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Per variable v, the texts of v^0 .. v^127: "", "v", "v^2", ..."""
    return tuple(("", v, *[f"{v}^{e}" for e in range(2, _FACTOR_TABLE_SIZE)])
                 for v in variables)


def _monomial_body(mono, variables, table) -> str:
    """The factors of `mono` joined by "*", "" for the constant monomial;
    `table` is `_factor_table(variables)`."""
    try:
        return "*".join(filter(None, map(operator.getitem, table, mono)))
    except IndexError:  # an exponent past the table
        return "*".join([v if e == 1 else f"{v}^{e}"
                         for v, e in zip(variables, mono) if e])


def format_monomial(mono: tuple[int, ...], variables: tuple[str, ...]) -> str:
    return _monomial_body(mono, variables, _factor_table(variables)) or "1"


_REVERSED = operator.itemgetter(slice(None, None, -1))


def format_poly(f: Poly) -> str:
    """Deterministic text form; terms in descending degrevlex order.

    It reparses to an equal polynomial (round-trip law).  The order comes
    from two stable sorts on C-level keys: ascending on the reversed
    exponent tuple, then descending on the total degree, which together
    are descending `grevlex_key`.
    """
    terms = f.terms
    if not terms:
        return "0"
    variables = f.ring.variables
    table = _factor_table(variables)
    monos = sorted(terms, key=_REVERSED)
    monos.sort(key=sum, reverse=True)
    parts = []
    for mono in monos:
        body = _monomial_body(mono, variables, table)
        c = terms[mono]
        parts.append((body if c == 1 else f"{c}*{body}") if body else str(c))
    return " + ".join(parts)
