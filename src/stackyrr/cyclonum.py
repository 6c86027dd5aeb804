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

A value is held as integers: its conductor, the numerators of its
coefficients and one positive common denominator, with no factor common to
all of them, so the form stays unique.  Sums, products, the descent and the
inverse (a fraction-free extended Euclid, see `_field_inverse`) all run on
these integers, and a conductor-1 operand never leaves Q.  The read-only
``coeffs`` view gives the coefficients as `fractions.Fraction` values, the
package's rational scalar.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import limits
from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .exactlinalg import forward_eliminate

Rational = Fraction


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
def _reductions(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^j modulo Phi_n for phi(n) <= j <= max(n - 1, 2*phi(n) - 2).

    Row j - phi(n) lists the (index, value) pairs of the nonzero entries;
    lower powers are basis vectors and need no row.  These rows drive
    multiplication, conductor lifting and Galois substitution.
    """
    phi = euler_phi(n)
    modulus = cyclotomic_polynomial(n)
    row = [0] * phi
    row[-1] = 1  # x^(phi-1)
    rows = []
    for _ in range(phi, max(n - 1, 2 * phi - 2) + 1):
        overflow = row[-1]
        row = [0] + row[:-1]
        if overflow:
            # x^phi = -(Phi_n - x^phi), Phi_n monic
            for i in range(phi):
                row[i] -= overflow * modulus[i]
        rows.append(tuple((i, t) for i, t in enumerate(row) if t))
    return tuple(rows)


def _power_row(n: int, j: int) -> list[int]:
    """x^j reduced modulo Phi_n as a dense integer vector, 0 <= j < n."""
    phi = euler_phi(n)
    row = [0] * phi
    if j < phi:
        row[j] = 1
    else:
        for i, t in _reductions(n)[j - phi]:
            row[i] = t
    return row


def _substitute(n: int, coeffs, k: int) -> list:
    """sum_i coeffs[i] * x^(i*k), reduced modulo Phi_n.

    ``coeffs`` may have any length and ``k`` need not be coprime to n, so
    this one routine reduces products (k = 1), lifts into a larger field
    (k = the conductor ratio) and applies Galois automorphisms.  Integer
    input gives integer output; Fraction input gives Fraction entries
    wherever a term landed.
    """
    phi = euler_phi(n)
    high = _reductions(n)
    out = [0] * phi
    for i, c in enumerate(coeffs):
        if c:
            e = i * k % n
            if e < phi:
                out[e] += c
            else:
                for j, t in high[e - phi]:
                    out[j] += c * t
    return out


def _scale_to_int(coeffs) -> tuple[list[int], int]:
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class CyclotomicNumber:
    """An exact element of some Q(zeta_N), always in canonical form.

    The value is sum_i nums[i] * z^i / den at conductor N: ``nums`` is a
    tuple of phi(N) integers and ``den`` a positive integer, with no factor
    common to all of them.  ``coeffs`` gives the same coefficients as
    Fractions.  Do not call the class directly; use :func:`canonicalize`,
    :func:`root_of_unity` or ``from_rational``.  Arithmetic operators accept
    ``int`` (not ``bool``) and ``Fraction`` operands.
    """

    __slots__ = ("conductor", "nums", "den", "_coeffs")

    def __init__(self, conductor: int, nums: tuple[int, ...], den: int):
        self.conductor = conductor
        self.nums = nums
        self.den = den
        self._coeffs = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CyclotomicNumber":
        if type(q) is int or isinstance(q, Fraction):  # bool, str and float are not taken
            return CyclotomicNumber(1, (q.numerator,), q.denominator)
        raise ValidationError(f"{q!r} is not an int or a Fraction")

    # -- predicates and conversions -----------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as a tuple of Fractions (built once)."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(c, den) for c in self.nums)
        return self._coeffs

    @property
    def is_rational(self) -> bool:
        return self.conductor == 1

    @property
    def is_zero(self) -> bool:
        return self.conductor == 1 and not self.nums[0]

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValidationError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

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
        return n, _lift(self, n), _lift(other, n)

    def _plus_rational(self, p: int, q: int) -> "CyclotomicNumber":
        # Adding a rational never moves the minimal conductor.
        if not p:
            return self
        den = math.lcm(self.den, q)
        scale = den // self.den
        nums = [c * scale for c in self.nums]
        nums[0] += p * (den // q)
        return _reduced(self.conductor, nums, den)

    def _times_rational(self, p: int, q: int) -> "CyclotomicNumber":
        # Nor does multiplying by a nonzero one.
        if not p:
            return ZERO
        if p == q:
            return self
        return _reduced(self.conductor, [c * p for c in self.nums], self.den * q)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.conductor == 1:
            return self._plus_rational(other.nums[0], other.den)
        if self.conductor == 1:
            return other._plus_rational(self.nums[0], self.den)
        n, a, b = self._lift_pair(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return _canonical(n, [x * fa + y * fb for x, y in zip(a, b)], den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + -self

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.nums), self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1:
            return other._times_rational(self.nums[0], self.den)
        if other.conductor == 1:
            return self._times_rational(other.nums[0], other.den)
        n, a, b = self._lift_pair(other)
        conv = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return _canonical(n, _substitute(n, conv, 1), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero:
            raise ZeroDivisionError("division by zero cyclotomic number")
        n = self.conductor
        if n == 1:
            p = self.nums[0]
            return CyclotomicNumber(1, (self.den if p > 0 else -self.den,), abs(p))
        s, c = _field_inverse(n, self.nums)
        if c < 0:
            s, c = [-x for x in s], -c
        # 1/a generates the same field as a, so the conductor stays n.
        nums = [x * self.den for x in s] + [0] * (euler_phi(n) - len(s))
        return _reduced(n, nums, c)

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.conductor == other.conductor
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        if self.conductor == 1:  # equal to an int or Fraction, so hash like one
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.conductor, self.nums, self.den))

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
    if type(x) is int or isinstance(x, Fraction):  # not a bool
        return CyclotomicNumber(1, (x.numerator,), x.denominator)
    return NotImplemented


def _reduced(n: int, nums, den: int) -> CyclotomicNumber:
    """nums/den at the canonical conductor n, for den > 0, with the common factor removed."""
    g = math.gcd(den, *nums)
    if g != 1:
        return CyclotomicNumber(n, tuple(c // g for c in nums), den // g)
    return CyclotomicNumber(n, tuple(nums), den)


def _lift(a: CyclotomicNumber, n: int):
    """The numerators of ``a`` in the power basis of Q(zeta_n), n a multiple of its conductor."""
    if n == a.conductor:
        return a.nums
    return _substitute(n, a.nums, n // a.conductor)


ZERO = CyclotomicNumber(1, (0,), 1)
ONE = CyclotomicNumber(1, (1,), 1)


# -- canonicalization ----------------------------------------------------


def canonicalize(conductor, coeffs=None) -> CyclotomicNumber:
    """Reduce a raw (conductor, coefficient vector) to the canonical form.

    The vector may have any length (it is reduced modulo Phi first) and
    holds ints, Fractions or anything ``Fraction`` accepts.  The result has
    the minimal conductor containing the value, which is never congruent to
    2 mod 4.  Applied to an existing CyclotomicNumber this is the identity,
    since every value is kept canonical.
    """
    if coeffs is None:
        if isinstance(conductor, CyclotomicNumber):
            return conductor
        raise ValidationError("canonicalize needs (conductor, coeffs) or a value")
    if conductor < 1:
        raise ValidationError(f"invalid conductor {conductor}; conductors are >= 1")
    nums, den = _scale_to_int(
        [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
    )
    return _canonical(conductor, nums, den)


def _canonical(n: int, nums: list[int], den: int) -> CyclotomicNumber:
    """The canonical form of sum_i nums[i] * z_n^i / den, for den > 0."""
    phi = euler_phi(n)
    if len(nums) > phi:
        nums = _substitute(n, nums, 1)
    else:
        nums = list(nums) + [0] * (phi - len(nums))
    if n % 4 == 2:
        n, nums = _fold_even(n, nums)

    floor = 2  # every prime below it has failed at a higher level
    while True:
        if not any(nums[1:]):
            return _reduced(1, nums[:1], den)
        for p, d, k in _descents(n):
            if p < floor:
                continue
            if d % p == 0:
                # p^2 | n, so Phi_n(x) = Phi_d(x^p): Q(zeta_d) is the span
                # of the powers z^(p*j).
                if any(any(nums[r::p]) for r in range(1, p)):
                    continue
                sub = nums[::p]
            else:
                if _substitute(n, nums, k) != nums:
                    continue
                sub = _express_in_subfield(n, nums, d)
                if sub is None:
                    raise ConsistencyError(
                        f"value fixed by sigma_{k} on Q(zeta_{n}) is not in Q(zeta_{d})"
                    )
                sub, scale = _scale_to_int(sub)
                den *= scale
            floor, n, nums = p, d, sub
            break
        else:
            return _reduced(n, nums, den)


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


def _fold_even(n: int, coeffs):
    # zeta_n = -zeta_m^((m+1)/2) with m = n/2 odd.
    m = n // 2
    signed = [-c if i % 2 else c for i, c in enumerate(coeffs)]
    return m, _substitute(m, signed, (m + 1) // 2)


@lru_cache(maxsize=256)
def _subfield_solver(n: int, d: int):
    """(rows, inverse, scale) for writing elements of Q(zeta_n) over Q(zeta_d).

    B is the phi(n) x phi(d) integer matrix whose column j is z^(j*n/d);
    ``rows`` are the first phi(d) independent rows of B, and
    inverse / scale is the inverse of B restricted to them, with
    ``inverse`` an integer matrix.
    """
    phi_d = euler_phi(d)
    basis = [_power_row(n, j * (n // d) % n) for j in range(phi_d)]
    # The pivot columns of B's transpose are its first independent rows.
    rows = forward_eliminate([list(col) for col in basis], euler_phi(n))
    if len(rows) != phi_d:
        raise ConsistencyError(f"power basis of Q(zeta_{d}) is dependent in Q(zeta_{n})")
    # Gauss-Jordan on [B[rows] | I] with integer row operations only.
    m = [
        [col[r] for col in basis] + [int(i == j) for j in range(phi_d)]
        for i, r in enumerate(rows)
    ]
    for c in range(phi_d):
        p = next(i for i in range(c, phi_d) if m[i][c])
        m[c], m[p] = m[p], m[c]
        pivot_row, a = m[c], m[c][c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != c:
                g = math.gcd(a, f)
                u, v = a // g, f // g
                m[i] = [x * u - y * v for x, y in zip(row, pivot_row)]
    # Row i now reads m[i][i] * e_i | m[i][i] * (row i of the inverse).
    m = [[x // g for x in row] for row, g in zip(m, (math.gcd(*row) for row in m))]
    scale = math.lcm(*(m[i][i] for i in range(phi_d)))
    inverse = tuple(
        tuple(x * (scale // row[i]) for x in row[phi_d:]) for i, row in enumerate(m)
    )
    return tuple(rows), inverse, scale


def _express_in_subfield(n: int, coeffs, d: int):
    # coeffs = sum_j c_j * (z^(j*n/d) mod Phi_n): solve on the independent
    # rows, then substitute the answer back; None when it does not hold.
    rows, inverse, scale = _subfield_solver(n, d)
    picked = [coeffs[r] for r in rows]
    sol = [sum(a * c for a, c in zip(row, picked) if a) for row in inverse]
    if scale != 1:
        sol = [Fraction(x, scale) for x in sol]
    if _substitute(n, sol, n // d) != list(coeffs):
        return None
    return sol


# -- named operations ------------------------------------------------------


def root_of_unity(n: int, k: int = 1) -> CyclotomicNumber:
    """zeta_n^k in canonical form.

    With g = gcd(k, n), zeta_n^k is a primitive (n/g)-th root of unity; a
    primitive m-th root with m != 2 mod 4 has minimal conductor m, and
    zeta_{2m} = -zeta_m^((m+1)/2) for odd m folds the rest.

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
    g = math.gcd(k, n)
    n, k = n // g, k // g % (n // g)
    sign = 1
    if n % 4 == 2:
        n //= 2
        k, sign = k * ((n + 1) // 2) % n, -1  # k is odd
    if n == 1:
        return CyclotomicNumber(1, (sign,), 1)
    return CyclotomicNumber(n, tuple(sign * t for t in _power_row(n, k)), 1)


def lift_coeffs(a: CyclotomicNumber, n: int) -> tuple[Fraction, ...]:
    """Coefficients of a rewritten in the power basis of Q(zeta_n).

    ``n`` must be a multiple of the conductor of ``a``.  Used by tests to
    build non-canonical representations on purpose.
    """
    if n % a.conductor:
        raise ValidationError(
            f"cannot lift conductor {a.conductor} into conductor {n}"
        )
    return tuple(Fraction(c, a.den) for c in _lift(a, n))


def galois_conjugate(a: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """Apply the automorphism zeta -> zeta^k; k must be coprime to the conductor."""
    n = a.conductor
    if math.gcd(k, n) != 1:
        raise ValidationError(
            f"k={k} is not coprime to the conductor {n}; not an automorphism"
        )
    if n == 1:
        return a
    # sigma_k maps Q(zeta_d) onto itself for every d, so the conductor is
    # kept, and it permutes the lattice Z[zeta_n], so no common factor appears.
    return CyclotomicNumber(n, tuple(_substitute(n, a.nums, k % n)), a.den)


def _field_inverse(n: int, nums) -> tuple[list[int], int]:
    """(s, c) with s * nums = c modulo Phi_n, for an integer c != 0.

    The extended Euclid of Phi_n and nums as a primitive polynomial
    remainder sequence (Collins 1967; Brown-Traub 1971), all in integers.
    Each step pseudo-divides r0 by r1, cancelling the top term of r0 with
    r0 <- (b/g)*r0 - (t/g)*x^i*r1 for b the leading coefficient of r1, t
    that of r0 and g = gcd(b, t), and applies the same operations to the
    cofactor s0, so s*a = r modulo Phi_n throughout.  The content common to
    the remainder and its cofactor is then divided out.  Phi_n is
    irreducible, so the sequence ends at a nonzero constant.
    """
    r0, s0 = list(cyclotomic_polynomial(n)), [0]
    r1, s1 = list(nums), [1]
    while not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        lead = r1[-1]
        r, s = r0, s0
        while len(r) >= len(r1):
            t = r[-1]
            shift = len(r) - len(r1)
            if t:
                g = math.gcd(t, lead)
                u, v = lead // g, t // g
                # r <- u*r - v*x^shift*r1, whose top entry cancels
                r = [u * x for x in r[:shift]] + [
                    u * x - v * y for x, y in zip(r[shift:-1], r1)
                ]
                if len(s) < len(s1) + shift:
                    s = s + [0] * (len(s1) + shift - len(s))
                s = (
                    [u * x for x in s[:shift]]
                    + [u * x - v * y for x, y in zip(s[shift:], s1)]
                    + [u * x for x in s[shift + len(s1):]]
                )
            else:
                r = r[:-1]
        while r and not r[-1]:
            r.pop()
        if not r:
            raise ConsistencyError(f"Phi_{n} is irreducible, yet shares a factor with {nums}")
        g = math.gcd(*r, *s)
        if g != 1:
            r = [x // g for x in r]
            s = [x // g for x in s]
        r0, s0, r1, s1 = r1, s1, r, s
    while len(s1) > 1 and not s1[-1]:
        s1.pop()
    return s1, r1[0]


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
