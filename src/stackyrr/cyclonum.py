"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element is stored in the power basis 1, z, ..., z^(phi(N)-1) of
Q[X]/Phi_N(X), where Phi_N is the N-th cyclotomic polynomial and z stands
for a fixed primitive N-th root of unity.  Every value is kept at its
minimal conductor: rationals live at conductor 1, and conductors congruent
to 2 mod 4 are folded into their odd half (zeta_{2m} = -zeta_m^{(m+1)/2}
for odd m), so each element has exactly one representation and equality is
literal equality of (conductor, coefficients).

The minimal conductor is found by descending one prime at a time.  For each
prime p of a canonical n, the largest cyclotomic subfield without p is
Q(zeta_d), with d = n/p (d = n/4 when p = 2 and n = 4 mod 8), and
Gal(Q(zeta_n)/Q(zeta_d)) is cyclic, so one test per prime decides it.  When
p^2 divides n, Phi_n(x) = Phi_d(x^p) and the value lies in Q(zeta_d) exactly
when only the coefficients of z^(p*j) are nonzero; otherwise the value must
be fixed by one generator sigma_k of that group, applied to the integer
numerators.  The first prime that passes sets n = d and the search repeats.
The conductors whose field holds a value are closed under gcd, so this greedy
descent ends at the minimal one, and a prime that fails once fails at every
level below, so it is never tested again.

The coefficients are `fractions.Fraction` values; that type is the package's
rational scalar (arbitrary precision, reduced, positive denominator).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import limits
from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .exactlinalg import forward_eliminate

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if n < 1:
        raise ValidationError(f"euler_phi needs n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first.

    Computed by exact integer polynomial division of x^n - 1 by the
    (monic) Phi_d for the proper divisors d of n.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if n < 1:
        raise ValidationError(f"invalid conductor {n}; conductors are >= 1")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n)[:-1]:
        poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
        if rem:
            raise ConsistencyError(f"Phi_{d} does not divide x^{n} - 1 exactly")
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """x^j reduced modulo Phi_n, for j up to max(n - 1, 2*phi(n) - 2).

    Entries are integer vectors of length phi(n); they drive multiplication,
    conductor lifting and Galois substitution.
    """
    phi = euler_phi(n)
    top = max(n - 1, 2 * phi - 2, 0)
    modulus = cyclotomic_polynomial(n)
    rows: list[tuple[int, ...]] = []
    for j in range(phi):
        rows.append(tuple(1 if i == j else 0 for i in range(phi)))
    for j in range(phi, top + 1):
        prev = rows[j - 1]
        shifted = [0] + list(prev[: phi - 1])
        overflow = prev[phi - 1]
        if overflow:
            # x^phi = -(Phi_n - x^phi), Phi_n monic
            for i in range(phi):
                shifted[i] -= overflow * modulus[i]
        rows.append(tuple(shifted))
    return tuple(rows)


def _substitute(n: int, coeffs, k: int) -> list:
    """sum_i coeffs[i] * x^(i*k), reduced modulo Phi_n.

    ``coeffs`` may have any length and ``k`` need not be coprime to n, so
    this one routine reduces products (k = 1), lifts into a larger field
    (k = the conductor ratio) and applies Galois automorphisms.  Integer
    input gives integer output; Fraction input gives Fraction entries
    wherever a term landed.
    """
    table = _power_table(n)
    out = [0] * euler_phi(n)
    for i, c in enumerate(coeffs):
        if not c:
            continue
        for j, t in enumerate(table[(i * k) % n]):
            if t:
                out[j] += c * t
    return out


def _scale_to_int(coeffs) -> tuple[list[int], int]:
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class CyclotomicNumber:
    """An exact element of some Q(zeta_N), always in canonical form.

    Do not call the class directly with non-canonical data; use
    :func:`canonicalize`, :func:`root_of_unity` or ``from_rational``.
    Arithmetic operators accept ``int`` and ``Fraction`` operands.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        self.conductor = conductor
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CyclotomicNumber":
        return CyclotomicNumber(1, (Fraction(q),))

    # -- predicates and conversions -----------------------------------

    @property
    def is_rational(self) -> bool:
        return self.conductor == 1

    @property
    def is_zero(self) -> bool:
        return self.conductor == 1 and not self.coeffs[0]

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValidationError(f"{self} is not rational")
        return self.coeffs[0]

    def integer_value(self) -> int:
        q = self.rational_value()
        if q.denominator != 1:
            raise ValidationError(f"{self} is not an integer")
        return q.numerator

    # -- arithmetic ----------------------------------------------------

    def _lift_pair(self, other: "CyclotomicNumber"):
        na, nb = self.conductor, other.conductor
        n = na * nb // math.gcd(na, nb)
        cap = limits.current().conductor
        if n > cap:
            raise ResourceLimitError(f"conductor {n} exceeds Limits.conductor = {cap}")
        return n, lift_coeffs(self, n), lift_coeffs(other, n)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n, a, b = self._lift_pair(other)
        return canonicalize(n, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n, a, b = self._lift_pair(other)
        return canonicalize(n, tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1:
            q = self.coeffs[0]
            return canonicalize(
                other.conductor, tuple(q * c for c in other.coeffs)
            )
        if other.conductor == 1:
            q = other.coeffs[0]
            return canonicalize(self.conductor, tuple(q * c for c in self.coeffs))
        n, a, b = self._lift_pair(other)
        ia, da = _scale_to_int(a)
        ib, db = _scale_to_int(b)
        conv = [0] * (len(ia) + len(ib) - 1)
        for i, x in enumerate(ia):
            if x == 0:
                continue
            for j, y in enumerate(ib):
                if y:
                    conv[i + j] += x * y
        red = _substitute(n, conv, 1)
        den = da * db
        return canonicalize(n, tuple(Fraction(c, den) for c in red))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero:
            raise ZeroDivisionError("division by zero cyclotomic number")
        if self.conductor == 1:
            return CyclotomicNumber(1, (1 / self.coeffs[0],))
        n = self.conductor
        inv = _field_inverse(n, self.coeffs)
        return canonicalize(n, inv)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int) -> "CyclotomicNumber":
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.conductor == 1:
            return f"CyclotomicNumber({self.coeffs[0]!s})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.conductor}" + (f"^{i}" if i > 1 else "")
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{c}*{z}")
        return "CyclotomicNumber(" + (" + ".join(terms) or "0") + ")"

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Bit-exact JSON form: big integers as decimal strings."""
        return {
            "conductor": self.conductor,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @staticmethod
    def from_dict(data: dict) -> "CyclotomicNumber":
        if set(data) != {"conductor", "coeffs"}:
            raise ValidationError(
                f"cyclotomic value must have exactly 'conductor' and 'coeffs', got {sorted(data)}"
            )
        n = data["conductor"]
        if not isinstance(n, int) or n < 1:
            raise ValidationError(f"invalid conductor {n!r}")
        coeffs = tuple(Fraction(int(num), int(den)) for num, den in data["coeffs"])
        if len(coeffs) != euler_phi(n):
            raise ValidationError(
                f"expected {euler_phi(n)} coefficients for conductor {n}, got {len(coeffs)}"
            )
        return canonicalize(n, coeffs)


def _coerce(x):
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x)
    return NotImplemented


ZERO = CyclotomicNumber(1, (_ZERO,))
ONE = CyclotomicNumber(1, (_ONE,))


# -- canonicalization ----------------------------------------------------


def canonicalize(conductor, coeffs=None) -> CyclotomicNumber:
    """Reduce a raw (conductor, coefficient vector) to the canonical form.

    The vector may have any length (it is reduced modulo Phi first).  The
    result has the minimal conductor containing the value, which is never
    congruent to 2 mod 4.  Applied to an existing CyclotomicNumber this is
    the identity, since every value is kept canonical.
    """
    if coeffs is None:
        if isinstance(conductor, CyclotomicNumber):
            conductor, coeffs = conductor.conductor, conductor.coeffs
        else:
            raise ValidationError("canonicalize needs (conductor, coeffs) or a value")
    if conductor < 1:
        raise ValidationError(f"invalid conductor {conductor}; conductors are >= 1")
    coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    phi = euler_phi(conductor)
    if len(coeffs) > phi:
        ints, den = _scale_to_int(coeffs)
        coeffs = [Fraction(c, den) for c in _substitute(conductor, ints, 1)]
    elif len(coeffs) < phi:
        coeffs = coeffs + [_ZERO] * (phi - len(coeffs))

    n = conductor
    if n % 4 == 2:
        n, coeffs = _fold_even(n, coeffs)

    floor = 2  # every prime below it has failed at a higher level
    while True:
        if all(not c for c in coeffs[1:]):
            return CyclotomicNumber(1, (coeffs[0],))
        ints = None
        for p, d, k in _descents(n):
            if p < floor:
                continue
            if d % p == 0:
                # p^2 | n, so Phi_n(x) = Phi_d(x^p): Q(zeta_d) is the span
                # of the powers z^(p*j).
                if any(any(coeffs[r::p]) for r in range(1, p)):
                    continue
                sub = coeffs[::p]
            else:
                if ints is None:
                    ints = _scale_to_int(coeffs)[0]
                if _substitute(n, ints, k) != ints:
                    continue
                sub = _express_in_subfield(n, coeffs, d)
                if sub is None:
                    raise ConsistencyError(
                        f"value fixed by sigma_{k} on Q(zeta_{n}) is not in Q(zeta_{d})"
                    )
            floor, n, coeffs = p, d, sub
            break
        else:
            return CyclotomicNumber(n, tuple(coeffs))


@lru_cache(maxsize=None)
def _descents(n: int) -> tuple[tuple[int, int, int], ...]:
    """(p, d, k) for each prime p of a canonical n whose descent d exceeds 1.

    Q(zeta_d) is the largest cyclotomic subfield of Q(zeta_n) without p, and
    sigma_k generates the cyclic group Gal(Q(zeta_n)/Q(zeta_d)) =
    {sigma_k : k = 1 mod d}: k is the smallest such unit whose order is the
    degree phi(n)/phi(d).

    >>> _descents(12)
    ((2, 3, 7), (3, 4, 5))
    >>> _descents(8)
    ((2, 4, 5),)
    """
    out = []
    for p in _primes(n):
        d = n // 4 if p == 2 and n % 8 == 4 else n // p
        if d == 1:
            continue
        degree = euler_phi(n) // euler_phi(d)
        k = next(
            k
            for k in range(1 + d, n, d)
            if math.gcd(k, n) == 1
            and all(pow(k, degree // q, n) != 1 for q in _primes(degree))
        )
        out.append((p, d, k))
    return tuple(out)


def _primes(n: int) -> list[int]:
    return [p for p in _divisors(n)[1:] if _divisors(p) == (1, p)]


def _fold_even(n: int, coeffs: list[Fraction]):
    # zeta_n = -zeta_m^((m+1)/2) with m = n/2 odd.
    m = n // 2
    ints, den = _scale_to_int(coeffs)
    signed = [-c if i % 2 else c for i, c in enumerate(ints)]
    return m, [Fraction(c, den) for c in _substitute(m, signed, (m + 1) // 2)]


def _express_in_subfield(n: int, coeffs, d: int):
    # Solve coeffs = sum_j c_j * (x^(j*n/d) mod Phi_n) for c in Q^phi(d);
    # None when the system is inconsistent.
    phi_d = euler_phi(d)
    table = _power_table(n)
    cols = [table[(j * (n // d)) % n] for j in range(phi_d)]
    rows = [[col[i] for col in cols] + [c] for i, c in enumerate(coeffs)]
    pivots = forward_eliminate(rows, phi_d)
    if any(row[phi_d] for row in rows[len(pivots):]):
        return None
    # The power basis of a subfield is independent, so every column has a
    # pivot and back substitution through the unit diagonal finishes.
    if len(pivots) != phi_d:
        raise ConsistencyError(f"power basis of Q(zeta_{d}) is dependent in Q(zeta_{n})")
    sol = [_ZERO] * phi_d
    for r in range(phi_d - 1, -1, -1):
        row = rows[r]
        sol[r] = row[phi_d] - sum(row[j] * sol[j] for j in range(r + 1, phi_d))
    return sol


# -- named operations ------------------------------------------------------


def root_of_unity(n: int, k: int = 1) -> CyclotomicNumber:
    """zeta_n^k in canonical form.

    >>> root_of_unity(1, 0) == 1
    True
    >>> root_of_unity(2, 1) == -1
    True
    >>> root_of_unity(4, 1) ** 2 == -1
    True
    """
    if n < 1:
        raise ValidationError(f"invalid conductor {n}; conductors are >= 1")
    cap = limits.current().conductor
    if n > cap:
        raise ResourceLimitError(f"conductor {n} exceeds Limits.conductor = {cap}")
    return canonicalize(n, _power_table(n)[k % n])


def lift_coeffs(a: CyclotomicNumber, n: int) -> tuple:
    """Coefficients of a rewritten in the power basis of Q(zeta_n).

    ``n`` must be a multiple of the conductor of ``a``.  Used to put two
    operands over a common field, and by tests to build non-canonical
    representations on purpose.  Coefficients are Fractions, or the int 0
    where no term of ``a`` lands.
    """
    if n % a.conductor:
        raise ValidationError(
            f"cannot lift conductor {a.conductor} into conductor {n}"
        )
    if n == a.conductor:
        return a.coeffs
    return tuple(_substitute(n, a.coeffs, n // a.conductor))


def galois_conjugate(a: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """Apply the automorphism zeta -> zeta^k; k must be coprime to the conductor."""
    n = a.conductor
    if math.gcd(k, n) != 1:
        raise ValidationError(
            f"k={k} is not coprime to the conductor {n}; not an automorphism"
        )
    if n == 1:
        return a
    return canonicalize(n, _substitute(n, a.coeffs, k % n))


def _field_inverse(n: int, coeffs) -> tuple[Fraction, ...]:
    # Extended Euclid in Q[x] against Phi_n, keeping s*a = r mod Phi_n.
    # Each divisor is scaled monic first, so the division needs no inverse
    # and the last remainder is 1, making s the inverse itself.
    r0, s0 = list(cyclotomic_polynomial(n)), [_ZERO]
    r1, s1 = list(coeffs), [_ONE]
    while not r1[-1]:
        r1.pop()
    while True:
        inv = _ONE / r1[-1]
        r1 = [c * inv for c in r1]
        s1 = [c * inv for c in s1]
        if len(r1) == 1:
            return tuple(s1) + (_ZERO,) * (euler_phi(n) - len(s1))
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1:
            raise ConsistencyError(f"Phi_{n} is irreducible, yet shares a factor with {coeffs}")


def _poly_divmod(num, den):
    """Quotient and remainder of num by a monic den, constant terms first.

    A monic divisor needs no division, so integer polynomials stay integer.
    The remainder has its trailing zeros stripped (empty when exact).
    """
    num = list(num)
    dd = len(den) - 1
    out = [0] * max(len(num) - dd, 0)
    for i in range(len(out) - 1, -1, -1):
        q = num[i + dd]
        if q:
            out[i] = q
            for j, c in enumerate(den):
                if c:
                    num[i + j] -= q * c
    while num and not num[-1]:
        num.pop()
    return out, num


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


# -- the closed-form unit sum behind one-dimensional Riemann-Roch ---------


@lru_cache(maxsize=None)
def _unit_inverse(r: int, a: int) -> CyclotomicNumber:
    return (ONE - root_of_unity(r, a)).inverse()


def stacky_todd_sum(r: int, k: int) -> Fraction:
    """sum_{a=1}^{r-1} zeta_r^(a*k) / (1 - zeta_r^(-a)), summed exactly.

    This is the isotropy contribution of a cyclic fixed point of order r
    acting with weight k on a line: the numerator carries the character of
    the line's fiber and the denominator the inverted character of the
    conormal direction, as in holomorphic fixed-point formulas.  With the
    orientations paired this way the value is rational and equals
    (r-1)/2 - k for every 0 <= k <= r-1.  (Pairing both exponents with the
    same sign instead gives k - 1 - (r-1)/2 for k >= 1, which is what a
    naive transcription produces; the duality check of the curve-level
    Riemann-Roch tests pins the present convention.)

    The companion :func:`stacky_todd_closed_form` gives the same number by
    pure integer arithmetic, and the two paths are compared in the tests.

    >>> stacky_todd_sum(2, 1)
    Fraction(-1, 2)
    >>> stacky_todd_sum(3, 0)
    Fraction(1, 1)
    """
    if r < 2:
        raise ValidationError(f"order r must be >= 2, got {r}")
    if not 0 <= k <= r - 1:
        raise ValidationError(
            f"weight k={k} outside [0, {r - 1}]; reduce modulo r first"
        )
    total = ZERO
    for a in range(1, r):
        total = total + root_of_unity(r, a * k) * _unit_inverse(r, (r - a) % r)
    return total.rational_value()


def stacky_todd_closed_form(r: int, k: int) -> Fraction:
    """(r-1)/2 - k, the closed form of :func:`stacky_todd_sum`."""
    if r < 2:
        raise ValidationError(f"order r must be >= 2, got {r}")
    if not 0 <= k <= r - 1:
        raise ValidationError(
            f"weight k={k} outside [0, {r - 1}]; reduce modulo r first"
        )
    return Fraction(r - 1, 2) - k
