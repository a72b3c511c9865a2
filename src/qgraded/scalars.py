"""Exact arithmetic in Q and in cyclotomic fields Q(zeta_n).

A scalar is an element of Q[x]/(Phi_n(x)), where Phi_n is the n-th
cyclotomic polynomial, stored in the power basis of zeta_n as integer
numerators over one common denominator: den > 0 and gcd(den, *nums) = 1.
Order 1 means plain rational.  Phi_n is monic with integer coefficients,
so reduction modulo Phi_n stays in the integers.  A product of two
irrational values, in `*` or `add_product`, is one `_mulmod`, which folds
its high terms with a per-order table.  All arithmetic is exact; there is
no floating-point fallback.  Operands of different orders are embedded
into Q(zeta_lcm) first; results that turn out rational are brought back
to order 1 so that the rational representation is unique.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .errors import CapExceededError, InternalConsistencyError, ScalarParseError

MAX_ZETA_ORDER = 512  # of a parsed scalar; a product in Q(zeta_n) costs O(phi(n)^2)


def _mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending powers, monic, exact integers.

    Built as the Mobius product of the x^d - 1 over d | n: the factors with
    mu(n/d) = 1 are multiplied out, then those with mu(n/d) = -1 divided
    off, each division exact.
    """
    if n < 1:
        raise ValueError("cyclotomic order must be a positive integer")
    poly = [1]
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for d in divisors:
        if _mobius(n // d) == 1:
            poly = _shift_sub(-1, poly, -1, poly, d)  # poly * (x^d - 1)
    for d in divisors:
        if _mobius(n // d) == -1:
            for k in range(len(poly) - 1, d - 1, -1):
                poly[k - d] += poly[k]
            if any(poly[:d]):
                raise InternalConsistencyError(f"x^{d} - 1 does not divide")
            poly = poly[d:]
    return tuple(poly)


def _reduce_mod_phi(nums: list[int], n: int) -> list[int]:
    """Reduce a fresh coefficient list modulo Phi_n in place and pad it to
    deg Phi_n; exact on integers because Phi_n is monic."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    for i in range(len(nums) - 1, deg - 1, -1):
        c = nums.pop()
        if c:
            for j in range(deg):
                nums[i - deg + j] -= c * phi[j]
    nums.extend([0] * (deg - len(nums)))
    return nums


@functools.lru_cache(maxsize=None)
def _fold_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row i is x^(deg + i) mod Phi_n for i < deg - 1, deg = deg Phi_n."""
    deg = len(cyclotomic_polynomial(n)) - 1
    return tuple(tuple(_reduce_mod_phi([0] * (deg + i) + [1], n)) for i in range(deg - 1))


def _mulmod(u, v, n: int) -> list[int]:
    """u * v mod Phi_n, reduced, for reduced numerator lists of Q(zeta_n), n > 1:
    the schoolbook product, its term of degree deg + i folded by `_fold_table`[i]."""
    deg = len(u)
    out = [0] * (2 * deg - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v, i):
                out[j] += x * y
    for i, row in enumerate(_fold_table(n), deg):
        c = out[i]
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    del out[deg:]
    return out


class Scalar:
    """An exact element of Q(zeta_n); immutable.

    Use :meth:`from_rational`, :meth:`cyclotomic` or :func:`root_of_unity`
    to construct values.  Supports +, -, *, /, ** and exact equality,
    including across different cyclotomic orders.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple[int, ...], den: int):
        # internal: callers must pass canonical data (see _make)
        self.order = order
        self.nums = nums
        self.den = den

    # -- construction ------------------------------------------------

    @staticmethod
    def _make(order: int, nums: list[int], den: int) -> "Scalar":
        """The one normaliser: reduce a fresh list modulo Phi_order, `_canon` it."""
        if order > 1 or len(nums) != 1:
            nums = _reduce_mod_phi(nums, order)
        return Scalar._canon(order, nums, den)

    @staticmethod
    def _canon(order: int, nums: list[int], den: int) -> "Scalar":
        """`_make` on a reduced, padded list: a rational value to order 1, gcd 1, den > 0."""
        if order > 1 and not any(nums[1:]):
            order, nums = 1, nums[:1]
        g = math.gcd(den, *nums)
        if g != 1 or den < 0:
            g = -g if den < 0 else g
            nums = [c // g for c in nums]
            den //= g
        return Scalar(order, tuple(nums), den)

    @classmethod
    def from_rational(cls, value) -> "Scalar":
        """Wrap an int or Fraction as an order-1 scalar."""
        value = Fraction(value)
        return cls(1, (value.numerator,), value.denominator)

    @classmethod
    def cyclotomic(cls, order: int, coeffs) -> "Scalar":
        """Scalar from power-basis coefficients over Q(zeta_order)."""
        if order < 1:
            raise ValueError("cyclotomic order must be a positive integer")
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        return cls._make(order, [c.numerator * (den // c.denominator)
                                 for c in coeffs], den)

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as Fractions (for printing and hashing)."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.order == 1 and not self.nums[0]

    def is_one(self) -> bool:
        return self.order == 1 and self.nums[0] == self.den == 1

    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- embedding ----------------------------------------------------

    def _lift(self, order: int) -> list[int]:
        # numerators of the image in Q(zeta_order), reduced
        step = order // self.order
        out = [0] * ((len(self.nums) - 1) * step + 1)
        out[::step] = self.nums
        return _reduce_mod_phi(out, order)

    def _common(self, other: "Scalar") -> tuple[int, tuple | list, tuple | list]:
        if self.order == other.order:
            return self.order, self.nums, other.nums
        m = math.lcm(self.order, other.order)
        return m, self._lift(m), other._lift(m)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(1, (value.numerator,), value.denominator)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if self.order == other.order == 1:
            num, den = self.nums[0] * db + other.nums[0] * da, da * db
            g = math.gcd(num, den)
            return Scalar(1, (num // g,), den // g)
        m, a, b = self._common(other)
        return Scalar._canon(m, [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.order, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # a canonical operand times the rational 1 is already canonical
        if other.den == 1 and other.nums == (1,):
            return self
        if self.den == 1 and self.nums == (1,):
            return other
        den = self.den * other.den
        if self.order == other.order == 1:
            num = self.nums[0] * other.nums[0]
            g = math.gcd(num, den)
            return Scalar(1, (num // g,), den // g)
        r, s = (self, other) if self.order == 1 else (other, self)
        if r.order == 1:  # a rational factor scales every numerator
            return Scalar._canon(s.order, [r.nums[0] * y for y in s.nums], den)
        m, a, b = self._common(other)
        return Scalar._canon(m, _mulmod(a, b, m), den)

    __rmul__ = __mul__

    def add_product(self, a: "Scalar", b: "Scalar") -> "Scalar":
        """self + a*b with one normalisation, stored exactly as self + a*b.

        The sum is formed in the field where the two-step sum lands, so it
        fuses only when self is rational or lcm(a.order, b.order) divides
        self.order, and otherwise returns self + a*b: a product that folds
        to a rational (zeta_3 + zeta_4 * zeta_4^3) must not leave the sum
        in a larger field than self's.
        """
        scale = a.den * b.den
        den = self.den * scale
        if self.order == a.order == b.order == 1:
            num = self.nums[0] * scale + a.nums[0] * b.nums[0] * self.den
            g = math.gcd(num, den)
            return Scalar(1, (num // g,), den // g)
        n, m = self.order, math.lcm(a.order, b.order)
        if n == 1:
            n = m
        elif n % m:
            return self + a * b
        if a.order == 1 or b.order == 1:  # a rational factor scales the other
            r, s = (a, b) if a.order == 1 else (b, a)
            c = r.nums[0] * self.den
            out = [c * y for y in (s.nums if s.order == n else s._lift(n))]
        else:
            u = a.nums if a.order == n else a._lift(n)
            out = _mulmod([self.den * y for y in u],
                          b.nums if b.order == n else b._lift(n), n)
        for i, x in enumerate(self.nums):
            out[i] += x * scale
        return Scalar._canon(n, out, den)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.order == 1:
            return Scalar._make(1, [self.den], self.nums[0])
        # extended Euclid in Z[x] against Phi_n (irreducible, so the last
        # remainder g is a nonzero integer) by pseudo-division: each step
        # keeps s * nums = r mod Phi_n and divides (r, s) by their content
        r0, s0 = list(cyclotomic_polynomial(self.order)), [0]
        r1, s1 = list(self.nums), [1]
        while not r1[-1]:
            r1.pop()
        while r1:
            c, d = r1[-1], len(r1) - 1
            while len(r0) > d:
                lead, j = r0[-1], len(r0) - 1 - d
                r0 = _shift_sub(c, r0, lead, r1, j)
                s0 = _shift_sub(c, s0, lead, s1, j)
                while r0 and not r0[-1]:
                    r0.pop()
            g = math.gcd(*r0, *s0)
            r0, r1 = r1, [x // g for x in r0]
            s0, s1 = s1, [x // g for x in s0]
        return Scalar._make(self.order, [x * self.den for x in s0], r0[0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Scalar.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- equality and hashing ------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # the least d with d*x in Z[zeta_m] is the same in every cyclotomic
        # field holding x (power bases are integral bases), so den is an
        # invariant of the value
        if self.den != other.den:
            return False
        if self.order == other.order:
            return self.nums == other.nums
        m, a, b = self._common(other)
        return a == b

    def __hash__(self):
        # the normalized trace: Tr(zeta_n^i)/phi(n) = mobius(d)/phi(d) with d
        # the order of zeta_n^i; invariant under cyclotomic embeddings, hence
        # a sound hash key
        n = self.order
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if c:
                d = n // math.gcd(n, i)
                total += c * Fraction(_mobius(d), len(cyclotomic_polynomial(d)) - 1)
        return hash(("qgraded.Scalar", total))

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


_ZERO = Scalar(1, (0,), 1)
_ONE = Scalar(1, (1,), 1)


def product_memo():
    """A function (a, b) -> a * b that forms each product once, keyed by the
    stored forms of a and b, never by value (zeta_8 * zeta_8 equals zeta_4 but
    is stored at order 8); make one per loop and drop it with the loop.  A
    unit operand (stored as 1/1) returns the other operand itself, as `*`
    does, and builds no key."""
    memo: dict[tuple, Scalar] = {}

    def mul(a: Scalar, b: Scalar) -> Scalar:
        if b.den == 1 and b.nums == (1,):
            return a
        if a.den == 1 and a.nums == (1,):
            return b
        key = (a.order, a.nums, a.den, b.order, b.nums, b.den)
        value = memo.get(key)
        if value is None:
            value = memo[key] = a * b
        return value
    return mul


def _shift_sub(c: int, p: list[int], lead: int, q: list[int], j: int) -> list[int]:
    """c * p - lead * x^j * q on integer coefficient lists."""
    out = [c * x for x in p] + [0] * (len(q) + j - len(p))
    for i, y in enumerate(q):
        out[i + j] -= lead * y
    return out


def root_of_unity(n: int, k: int = 1) -> Scalar:
    """zeta_n^k as an exact scalar; the stored order divides n."""
    if n < 1:
        raise ValueError("root-of-unity order must be a positive integer")
    k %= n
    g = math.gcd(n, k) if k else n
    n2, k2 = n // g, k // g
    if n2 == 1:
        return Scalar.one()
    return Scalar._make(n2, [0] * k2 + [1], 1)


# -- canonical text form ------------------------------------------------
#
# scalar  := product (('+'|'-') product)*
# product := sign? term ('*' term)*
# term    := int | int '/' int | 'zeta(' int ')' ('^' sign? int)?
#
# The printer emits a single product whenever the value is a rational
# multiple of a root of unity (always true for commutation-factor values)
# and a sum of products otherwise, smallest zeta exponent first.


def _format_product(c: Fraction, n: int, k: int) -> str:
    if k == 0:
        return str(c)
    base = f"zeta({n})" if k == 1 else f"zeta({n})^{k}"
    if c == 1:
        return base
    if c == -1:
        return "-" + base
    return f"{c}*{base}"


def _as_monomial(s: Scalar) -> tuple[Fraction, int] | None:
    if s.order == 1:
        return s.coeffs[0], 0
    for k in range(1, s.order):
        t = s * root_of_unity(s.order, -k)
        if t.is_rational():
            return t.as_fraction(), k
    return None


def format_scalar(s: Scalar) -> str:
    """Canonical, parseable text form of a scalar."""
    mono = _as_monomial(s)
    if mono is not None:
        return _format_product(mono[0], s.order, mono[1])
    parts = []
    for i, c in enumerate(s.coeffs):
        if not c:
            continue
        text = _format_product(abs(c), s.order, i)
        if not parts:
            parts.append(text if c > 0 else "-" + text)
        else:
            parts.append((" + " if c > 0 else " - ") + text)
    return "".join(parts)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.order = 1  # lcm of the zeta orders read so far

    def error(self, message: str):
        raise ScalarParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            self.error(f"expected {literal!r}")

    def integer(self) -> int:
        self.skip_ws()
        m = re.match(r"\d+", self.text[self.pos:])
        if not m:
            self.error("expected an integer")
        try:
            value = int(m.group())
        except ValueError:  # more digits than Python converts
            self.error("integer has too many digits")
        self.pos += m.end()
        return value

    def signed_integer(self) -> int:
        sign = -1 if self.take("-") else 1
        return sign * self.integer()


def _parse_term(sc: _Scanner) -> Scalar:
    sc.skip_ws()
    if sc.take("zeta("):
        at = sc.pos
        n = sc.integer()
        if n < 1:
            sc.pos = at
            sc.error("zeta order must be a positive integer")
        sc.expect(")")
        sc.order = math.lcm(sc.order, n)
        if sc.order > MAX_ZETA_ORDER:
            raise CapExceededError(f"cyclotomic order exceeds the cap {MAX_ZETA_ORDER}")
        k = sc.signed_integer() if sc.take("^") else 1
        return root_of_unity(n, k)
    at = sc.pos
    p = sc.integer()
    if sc.take("/"):
        at = sc.pos
        q = sc.integer()
        if q == 0:
            sc.pos = at
            sc.error("zero denominator")
        return Scalar.from_rational(Fraction(p, q))
    return Scalar.from_rational(p)


def _parse_product(sc: _Scanner) -> Scalar:
    negative = False
    if sc.take("-"):
        negative = True
    elif sc.take("+"):
        pass
    value = _parse_term(sc)
    while sc.take("*"):
        value = value * _parse_term(sc)
    return -value if negative else value


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical scalar grammar; raises ScalarParseError."""
    sc = _Scanner(text)
    value = _parse_product(sc)
    while sc.take("+") or sc.peek() == "-":
        value = value + _parse_product(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("unexpected trailing input")
    return value
