"""Exact arithmetic in Q and in cyclotomic fields Q(zeta_n).

A scalar is an element of Q[x]/(Phi_n(x)) stored in the power basis of
zeta_n with Fraction coefficients, where Phi_n is the n-th cyclotomic
polynomial.  Order 1 means plain rational.  All arithmetic is exact; there
is no floating-point fallback anywhere.  Operands of different orders are
embedded into Q(zeta_lcm) first; results that turn out rational are
brought back to order 1 so that the rational representation is unique.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .errors import InternalConsistencyError, ScalarParseError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


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
    """Coefficients of Phi_n, ascending powers, monic, exact integers."""
    if n < 1:
        raise ValueError("cyclotomic order must be a positive integer")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly, rem = _polydivmod(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise InternalConsistencyError(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(poly)


def _degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_phi(coeffs: list[Fraction], n: int) -> list[Fraction]:
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(deg + 1):
                coeffs[i - deg + j] -= c * phi[j]
        coeffs.pop()
    coeffs.extend([_ZERO] * (deg - len(coeffs)))
    return coeffs


class Scalar:
    """An exact element of Q(zeta_n); immutable.

    Use :meth:`from_rational`, :meth:`cyclotomic` or :func:`root_of_unity`
    to construct values.  Supports +, -, *, /, ** and exact equality,
    including across different cyclotomic orders.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        # internal: callers must pass canonical data (see _make)
        self.order = order
        self.coeffs = coeffs

    # -- construction ------------------------------------------------

    @staticmethod
    def _make(order: int, coeffs: list[Fraction]) -> "Scalar":
        coeffs = _reduce_mod_phi(coeffs, order)
        if order > 1 and all(c == 0 for c in coeffs[1:]):
            return Scalar(1, (coeffs[0],))
        return Scalar(order, tuple(coeffs))

    @classmethod
    def from_rational(cls, value) -> "Scalar":
        """Wrap an int or Fraction as an order-1 scalar."""
        return cls(1, (Fraction(value),))

    @classmethod
    def cyclotomic(cls, order: int, coeffs) -> "Scalar":
        """Scalar from power-basis coefficients over Q(zeta_order)."""
        if order < 1:
            raise ValueError("cyclotomic order must be a positive integer")
        return cls._make(order, [Fraction(c) for c in coeffs])

    @classmethod
    def zero(cls) -> "Scalar":
        return cls(1, (_ZERO,))

    @classmethod
    def one(cls) -> "Scalar":
        return cls(1, (_ONE,))

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.order == 1 and self.coeffs[0] == 0

    def is_one(self) -> bool:
        return self.order == 1 and self.coeffs[0] == 1

    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- embedding ----------------------------------------------------

    def embed(self, order: int) -> "Scalar":
        """Image under Q(zeta_n) -> Q(zeta_m) with n | m (zeta_n = zeta_m^(m/n))."""
        n = self.order
        if order % n != 0:
            raise ValueError(f"no embedding of order {n} into order {order}")
        if order == n:
            return self
        return Scalar._make(order, list(self._raw_embed(order)))

    def _raw_embed(self, order: int) -> tuple[Fraction, ...]:
        if order == self.order:
            return self.coeffs
        step = order // self.order
        out = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return tuple(_reduce_mod_phi(out, order))

    def _common(self, other: "Scalar") -> tuple[int, tuple, tuple]:
        if self.order == other.order:
            return self.order, self.coeffs, other.coeffs
        m = math.lcm(self.order, other.order)
        return m, self._raw_embed(m), other._raw_embed(m)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(1, (Fraction(value),))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return Scalar(1, (self.coeffs[0] + other.coeffs[0],))
        m, a, b = self._common(other)
        return Scalar._make(m, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.order, tuple(-c for c in self.coeffs))

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
        if self.order == 1 and other.order == 1:
            return Scalar(1, (self.coeffs[0] * other.coeffs[0],))
        if self.order == 1:
            c = self.coeffs[0]
            if c == 0:
                return Scalar.zero()
            return Scalar._make(other.order, [c * y for y in other.coeffs])
        if other.order == 1:
            return other.__mul__(self)
        m, a, b = self._common(other)
        return Scalar._make(m, _polymul(a, b))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.order == 1:
            if self.coeffs[0] == 0:
                raise ZeroDivisionError("scalar division by zero")
            return Scalar(1, (1 / self.coeffs[0],))
        # extended Euclid in Q[x] against Phi_n (irreducible, so gcd is 1)
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while any(c != 0 for c in r1):
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        lead = next(c for c in reversed(r0) if c != 0)
        inv = [c / lead for c in s0]
        return Scalar._make(self.order, inv)

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
        if self.order == other.order:
            return self.coeffs == other.coeffs
        m, a, b = self._common(other)
        return a == b

    def __hash__(self):
        # the normalized trace: Tr(zeta_n^i)/phi(n) = mobius(d)/phi(d) with d
        # the order of zeta_n^i; invariant under cyclotomic embeddings, hence
        # a sound hash key
        n = self.order
        total = _ZERO
        for i, c in enumerate(self.coeffs):
            if c:
                d = n // math.gcd(n, i)
                total += c * Fraction(_mobius(d), _degree(d))
        return hash(("qgraded.Scalar", total))

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


def _polymul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _polysub(a, b):
    out = [_ZERO] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _polydivmod(num, den):
    num = list(num)
    dd = len(den) - 1
    while dd > 0 and den[dd] == 0:
        dd -= 1
    lead = den[dd]
    # by a monic divisor nothing is divided, so integer inputs stay integers
    quot = [lead * 0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] if lead == 1 else num[i] / lead
        if c:
            quot[i - dd] = c
            for k, dj in zip(range(i - dd, i + 1), den):
                num[k] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def root_of_unity(n: int, k: int = 1) -> Scalar:
    """zeta_n^k as an exact scalar; the stored order divides n."""
    if n < 1:
        raise ValueError("root-of-unity order must be a positive integer")
    k %= n
    g = math.gcd(n, k) if k else n
    n2, k2 = n // g, k // g
    if n2 == 1:
        return Scalar.one()
    return Scalar._make(n2, [_ZERO] * k2 + [_ONE])


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
    while True:
        if sc.take("+"):
            value = value + _parse_product(sc)
        elif sc.peek() == "-":
            value = value + _parse_product(sc)
        else:
            break
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("unexpected trailing input")
    return value
