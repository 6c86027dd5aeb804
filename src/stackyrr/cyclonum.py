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
numerators.  Its coordinates over Q(zeta_d) are then read off the split
Q(zeta_n) = Q(zeta_d)(zeta_q), q = n/d coprime to d: with a = q^-1 mod d and
b = d^-1 mod q, z_n = z_d^a * z_q^b, so z_n^i is z_d^(i*a) * z_q^(i*b), and
the coordinate of 1 in the basis 1, z_q, ..., z_q^(phi(q)-1) is the value in
Q(zeta_d), still in integers over the same denominator.  No linear system is
solved.  The first prime that passes sets n = d and the search repeats.
The conductors whose field holds a value are closed under gcd, so this greedy
descent ends at the minimal one, and a prime that fails once fails at every
level below, so it is never tested again.

The sigma_k test almost always fails, so it is first tried modulo a prime
l = 1 mod n, at an element w of order n there.  Phi_n(w) = 0 mod l, so
x -> x(w) is a ring map Z[zeta_n] -> F_l, and x(w^k) != x(w) proves
sigma_k(x) != x at the cost of one dot product (`_galois_residues`).  The
pre-test is one-sided: equal residues prove nothing, and the exact test and
the subfield check still decide every descent that is taken, so no
canonical form depends on it.

A value is held as integers: its conductor, the numerators of its
coefficients and one positive common denominator, with no factor common to
all of them, so the form stays unique.  Sums, products, the descent and the
inverse all run on these integers, and a conductor-1 operand never leaves
Q.  A product of two dense values is one big-integer multiplication
(Kronecker substitution, `_convolve`), and `cyclotomic_polynomial` is the
Moebius product of the binomials 1 - x^d as power series, so the module does
no linear algebra and its one reduction modulo a polynomial is `_reductions`.

The inverse walks down the same tower (`_norm_layers`).  At a canonical n
it takes the cyclic step <sigma_k> = Gal(Q(zeta_n)/Q(zeta_d)) of least
degree e among the descents (for n = 4 or prime, all of Gal(Q(zeta_n)/Q),
d = 1), and builds the product y of x's e - 1 other conjugates in layers of
prime order p, p - 1 products each: sum(p - 1) in all, not e - 1.  The norm
z = x*y lies in Q(zeta_d), and 1/x = y * (1/z) is exact and comes out of the
ordinary product.  A norm outside Q(zeta_d) means a broken conjugation and
raises `ConsistencyError` rather than recursing at the same conductor.

The read-only ``coeffs`` view gives the coefficients as `fractions.Fraction`
values, the package's rational scalar.  The public functions take orders,
conductors and exponents as ints (not bools), and coefficients as ints and
Fractions; anything else is a `ValidationError`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count

from . import limits
from .errors import ConsistencyError, ResourceLimitError, ValidationError


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient, n * prod(1 - 1/p) over the primes p dividing n."""
    if type(n) is not int or n < 1:
        raise ValidationError(f"euler_phi needs an int n >= 1, got {n!r}")
    return n // math.prod(_primes(n)) * math.prod(p - 1 for p in _primes(n))


@lru_cache(maxsize=None)
def _primes(n: int) -> tuple[int, ...]:
    """The primes dividing n, increasing, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return (*primes, n) if n > 1 else tuple(primes)


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first.

    Phi_n = prod_{e | rad n} (1 - x^(n/e))^mu(e) for n > 1 (Arnold and
    Monagan, 2011) as a power series to degree phi(n): times 1 - x^d is a
    shift and subtract, over it a running sum with stride d, and nothing is
    divided.  A result that is not monic and palindromic (Phi_n is
    self-reciprocal) raises `ConsistencyError`.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    _capped(_conductor(n))
    if n == 1:
        return (-1, 1)
    phi, primes = euler_phi(n), _primes(n)
    poly = [1] + [0] * phi
    for r in range(len(primes) + 1):
        for e in combinations(primes, r):
            d = n // math.prod(e)
            if r % 2:  # mu(e) = -1: times 1/(1 - x^d) = sum_j x^(d*j)
                for i in range(d, phi + 1):
                    poly[i] += poly[i - d]
            else:  # times 1 - x^d
                for i in range(phi, d - 1, -1):
                    poly[i] -= poly[i - d]
    if poly[phi] != 1 or poly != poly[::-1]:
        raise ConsistencyError(f"Phi_{n} is not monic of degree {phi} and palindromic")
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
    ``int`` (not ``bool``) and ``Fraction`` operands; these and conductor-1
    values go to `_plus_rational` and `_times_rational` as (num, den).
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
            return _rational(q.numerator, q.denominator)
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
        n = _capped(na * nb // math.gcd(na, nb))
        return n, _lift(self, n), _lift(other, n)

    def _plus_rational(self, p: int, q: int) -> "CyclotomicNumber":
        # Adding a rational never moves the minimal conductor.
        if self.conductor == 1:
            return _rational(self.nums[0] * q + p * self.den, self.den * q)
        if not p:
            return self
        den = math.lcm(self.den, q)
        scale = den // self.den
        nums = [c * scale for c in self.nums]
        nums[0] += p * (den // q)
        return _reduced(self.conductor, nums, den)

    def _times_rational(self, p: int, q: int) -> "CyclotomicNumber":
        # Nor does multiplying by a nonzero one.
        if self.conductor == 1:
            return _rational(self.nums[0] * p, self.den * q)
        if not p:
            return ZERO
        if p == q:
            return self
        return _reduced(self.conductor, [c * p for c in self.nums], self.den * q)

    def __add__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.conductor == 1:
                return self._plus_rational(other.nums[0], other.den)
            if self.conductor == 1:
                return other._plus_rational(self.nums[0], self.den)
        elif type(other) is int:  # not a bool
            return self._plus_rational(other, 1)
        elif isinstance(other, Fraction):
            return self._plus_rational(other.numerator, other.denominator)
        else:
            return NotImplemented
        n, a, b = self._lift_pair(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return _canonical(n, [x * fa + y * fb for x, y in zip(a, b)], den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.conductor == 1:
                return self._plus_rational(-other.nums[0], other.den)
            return self + -other
        if type(other) is int:  # not a bool
            return self._plus_rational(-other, 1)
        if isinstance(other, Fraction):
            return self._plus_rational(-other.numerator, other.denominator)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)  # NotImplemented, not a TypeError, for a foreign other

    def __neg__(self):
        if self.conductor == 1:
            return _rational(-self.nums[0], self.den)
        return CyclotomicNumber(self.conductor, tuple(map(operator.neg, self.nums)), self.den)

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.conductor == 1:
                return self._times_rational(other.nums[0], other.den)
            if self.conductor == 1:
                return other._times_rational(self.nums[0], self.den)
        elif type(other) is int:  # not a bool
            return self._times_rational(other, 1)
        elif isinstance(other, Fraction):
            return self._times_rational(other.numerator, other.denominator)
        else:
            return NotImplemented
        n, a, b = self._lift_pair(other)
        return _canonical(n, _substitute(n, _convolve(a, b), 1), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/x = y * (1/z), with y and the norm z = x*y as in the module docstring."""
        if self.is_zero:
            raise ZeroDivisionError("division by zero cyclotomic number")
        n = self.conductor
        if n == 1:
            return _rational(self.den, self.nums[0])
        d, layers = _norm_layers(n)
        y, z = ONE, self
        for p, k in layers:
            # z is fixed by the layers before, and sigma_k has order p on it
            c = t = galois_conjugate(z, k)
            for _ in range(p - 2):
                t = galois_conjugate(t, k)
                c = c * t
            y, z = y * c, z * c
        if d % z.conductor:
            raise ConsistencyError(
                f"norm from Q(zeta_{n}) has conductor {z.conductor}, which does not divide {d}")
        return y * z.inverse()

    def __truediv__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.conductor != 1:
                return self * other.inverse()
            p, q = other.nums[0], other.den
        elif type(other) is int or isinstance(other, Fraction):  # not a bool
            p, q = other.numerator, other.denominator
        else:
            return NotImplemented
        if not p:
            raise ZeroDivisionError("division by zero cyclotomic number")
        return self._times_rational(q, p) if p > 0 else self._times_rational(-q, -p)  # den > 0

    def __rtruediv__(self, other):
        if type(other) is int or isinstance(other, Fraction):  # not a bool
            return self.inverse()._times_rational(other.numerator, other.denominator)
        return NotImplemented

    def __pow__(self, k: int) -> "CyclotomicNumber":
        if type(k) is not int:  # nor a bool
            return NotImplemented
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
        if not isinstance(other, CyclotomicNumber):
            if type(other) is int or isinstance(other, Fraction):  # not a bool
                return (self.conductor == 1 and self.nums[0] == other.numerator
                        and self.den == other.denominator)
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
        return self.conductor != 1 or self.nums[0] != 0

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
        if not isinstance(data, dict) or set(data) != {"conductor", "coeffs"}:
            raise ValidationError(
                "cyclotomic value must have exactly 'conductor' and 'coeffs', "
                f"got {sorted(data) if isinstance(data, dict) else data!r}"
            )
        n, pairs = _capped(_conductor(data["conductor"])), data["coeffs"]
        if not isinstance(pairs, (list, tuple)) or len(pairs) != euler_phi(n):
            raise ValidationError(
                f"expected a list of {euler_phi(n)} coefficients for conductor {n}, got {pairs!r}"
            )
        return canonicalize(n, [_fraction_of_pair(pair) for pair in pairs])


def _fraction_of_pair(pair) -> Fraction:
    """[numerator, denominator], each an ASCII decimal string or an int (not a bool)."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2 and all(
        type(x) is int or type(x) is str and x.isascii() and x.removeprefix("-").isdigit()
        for x in pair
    ):
        try:
            return Fraction(int(pair[0]), int(pair[1]))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"coefficient {pair!r} is not a [numerator, denominator] pair of integers")


def _conductor(n) -> int:
    """n itself when it is an int (not a bool) >= 1."""
    if type(n) is not int or n < 1:
        raise ValidationError(f"invalid conductor {n!r}; conductors are >= 1")
    return n


def _capped(n: int) -> int:
    """n itself unless it exceeds `Limits.conductor`."""
    cap = limits.current().conductor
    if n > cap:
        raise ResourceLimitError(f"conductor {n} exceeds Limits.conductor = {cap}")
    return n


def _exponent(k) -> int:
    if type(k) is not int:
        raise ValidationError(f"exponent {k!r} is not an int")
    return k


def _rational(num: int, den: int) -> CyclotomicNumber:
    """num/den (den != 0) in the one canonical form of a rational: den > 0, no common factor."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    if g == 1:
        return CyclotomicNumber(1, (num,), den)
    return CyclotomicNumber(1, (num // g,), den // g)


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


ZERO = _rational(0, 1)
ONE = _rational(1, 1)


# -- canonicalization ----------------------------------------------------


def canonicalize(conductor, coeffs) -> CyclotomicNumber:
    """Reduce a raw (conductor, coefficient vector) to the canonical form.

    The vector may have any length (it is reduced modulo Phi first) and
    holds ints (not bools) and Fractions only.  The result has
    the minimal conductor containing the value, which is never congruent to
    2 mod 4.
    """
    _capped(_conductor(conductor))
    if not isinstance(coeffs, (list, tuple)) \
            or not all(type(c) is int or isinstance(c, Fraction) for c in coeffs):
        raise ValidationError(f"coefficients {coeffs!r} are not a list of ints and Fractions")
    nums, den = _scale_to_int(coeffs)
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
            return _rational(nums[0], den)
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
                ell, shifts = _galois_residues(n)
                if sum(map(operator.mul, nums, shifts[k])) % ell or _substitute(n, nums, k) != nums:
                    continue
                sub, *rest = _over_subfield(n, d, nums)
                if any(map(any, rest)):
                    raise ConsistencyError(
                        f"value fixed by sigma_{k} on Q(zeta_{n}) is not in Q(zeta_{d})"
                    )
            floor, n, nums = p, d, sub
            break
        else:
            return _reduced(n, nums, den)


@lru_cache(maxsize=None)
def _descents(n: int) -> tuple[tuple[int, int, int], ...]:
    """(p, d, k) for each prime p of a canonical n whose descent d exceeds 1.

    Q(zeta_d) is the largest cyclotomic subfield of Q(zeta_n) without p, and
    sigma_k, k = `_generator(n, d)`, generates Gal(Q(zeta_n)/Q(zeta_d)).

    >>> _descents(12)
    ((2, 3, 7), (3, 4, 5))
    >>> _descents(8)
    ((2, 4, 5),)
    """
    ds = ((p, n // 4 if p == 2 and n % 8 == 4 else n // p) for p in _primes(n))
    return tuple((p, d, _generator(n, d)) for p, d in ds if d > 1)


def _generator(n: int, d: int) -> int:
    """The least k with sigma_k generating Gal(Q(zeta_n)/Q(zeta_d)) = {sigma_k : k = 1 mod d},
    for d where that group is cyclic: k = 1 mod d of order phi(n)/phi(d) mod n."""
    e = euler_phi(n) // euler_phi(d)
    return next(k for k in range(1 + d, n, d)
                if math.gcd(k, n) == 1 and all(pow(k, e // q, n) != 1 for q in _primes(e)))


@lru_cache(maxsize=None)
def _galois_residues(n: int) -> tuple[int, dict[int, tuple[int, ...]]]:
    """A prime l = 1 mod n near 2^20 and, for each descent's k, w^(i*k) - w^i
    mod l (i < phi(n)) for w of order n mod l: x's numerators dotted with them
    give x(w^k) - x(w), the pre-test of the module docstring."""
    ell = next(l for l in count((1 << 20) // n * n + 1, n)
               if all(l % q for q in range(2, math.isqrt(l) + 1)))
    w = next(w for w in (pow(g, (ell - 1) // n, ell) for g in count(2))
             if all(pow(w, n // q, ell) != 1 for q in _primes(n)))
    return ell, {k: tuple((pow(w, i * k, ell) - pow(w, i, ell)) % ell for i in range(euler_phi(n)))
                 for _, _, k in _descents(n)}


def _fold_even(n: int, coeffs):
    # zeta_n = -zeta_m^((m+1)/2) with m = n/2 odd.
    m = n // 2
    signed = [-c if i % 2 else c for i, c in enumerate(coeffs)]
    return m, _substitute(m, signed, (m + 1) // 2)


@lru_cache(maxsize=None)
def _crt_positions(n: int, d: int) -> tuple[int, ...]:
    """j*d + e for z_n^i = z_d^e * z_q^j, i < phi(n), with q = n/d coprime to d.

    z_n = z_d^a * z_q^b for a = q^-1 mod d and b = d^-1 mod q, since
    q*a + d*b = 1 mod n (z_d = z_n^q and z_q = z_n^d).
    """
    q = n // d
    a, b = pow(q, -1, d), pow(d, -1, q)
    return tuple(i * b % q * d + i * a % d for i in range(euler_phi(n)))


def _over_subfield(n: int, d: int, nums) -> list[list[int]]:
    """The coordinates of sum_i nums[i] * z_n^i over the basis
    1, z_q, ..., z_q^(phi(q)-1) of Q(zeta_n) over Q(zeta_d), q = n/d coprime
    to d, each in the power basis of Q(zeta_d).  Integer input, integer output.
    """
    q = n // d
    flat = [0] * n
    for pos, c in zip(_crt_positions(n, d), nums):
        if c:
            flat[pos] += c
    parts = [flat[j * d:(j + 1) * d] for j in range(q)]
    phi_q = euler_phi(q)
    # z_q^j for j >= phi(q) folded modulo Phi_q, which stays irreducible over Q(zeta_d)
    for row, high in zip(_reductions(q), parts[phi_q:]):
        for i, t in row:
            parts[i] = [x + t * y for x, y in zip(parts[i], high)]
    return [_substitute(d, part, 1) for part in parts[:phi_q]]


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
    _capped(_conductor(n))
    _exponent(k)
    g = math.gcd(k, n)
    n, k = n // g, k // g % (n // g)
    sign = 1
    if n % 4 == 2:
        n //= 2
        k, sign = k * ((n + 1) // 2) % n, -1  # k is odd
    if n == 1:
        return _rational(sign, 1)
    return CyclotomicNumber(n, tuple(sign * t for t in _substitute(n, (0, 1), k)), 1)


def lift_coeffs(a: CyclotomicNumber, n: int) -> tuple[Fraction, ...]:
    """Coefficients of a rewritten in the power basis of Q(zeta_n).

    ``n`` must be a multiple of the conductor of ``a``.  Used by tests to
    build non-canonical representations on purpose.
    """
    if _capped(_conductor(n)) % a.conductor:
        raise ValidationError(
            f"cannot lift conductor {a.conductor} into conductor {n}"
        )
    return tuple(Fraction(c, a.den) for c in _lift(a, n))


def galois_conjugate(a: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """Apply the automorphism zeta -> zeta^k; k must be coprime to the conductor."""
    n = a.conductor
    if math.gcd(_exponent(k), n) != 1:
        raise ValidationError(
            f"k={k} is not coprime to the conductor {n}; not an automorphism"
        )
    if n == 1:
        return a
    # sigma_k maps Q(zeta_d) onto itself for every d, so the conductor is
    # kept, and it permutes the lattice Z[zeta_n], so no common factor appears.
    return CyclotomicNumber(n, tuple(_substitute(n, a.nums, k % n)), a.den)


@lru_cache(maxsize=None)
def _norm_layers(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(d, layers) for the step <sigma_k> = Gal(Q(zeta_n)/Q(zeta_d)) of least
    degree e below a canonical n > 1 (module docstring).

    With e = p_1 * ... * p_r, layer i is (p_i, k^(e/(p_1*...*p_i)) mod n): that
    sigma generates the group of the first i layers, and its powers below p_i
    represent the cosets of the group of the first i - 1 in it.

    >>> _norm_layers(12)
    (3, ((2, 7),))
    >>> _norm_layers(7)
    (1, ((2, 6), (3, 3)))
    """
    steps = [(euler_phi(n) // euler_phi(d), d) for _, d, _ in _descents(n)]
    e, d = min(steps or [(euler_phi(n), 1)])
    k = _generator(n, d)
    layers, rest = [], e
    for p in _primes(e):
        while rest % p == 0:
            rest //= p
            layers.append((p, pow(k, rest, n)))
    return d, tuple(layers)


def _convolve(a, b) -> list[int]:
    """The coefficients of the product of two integer polynomials, constant terms first.

    Kronecker substitution: each vector is read as its polynomial's value at
    2^w, one big-integer product gives the product's value there, and its
    base-2^w digits are the coefficients.  Each coefficient is a sum of at
    most min(nonzeros) products, so |c| <= max|a| * max|b| * min(nonzeros),
    and w is the least multiple of 8 with that bound below 2^(w-1).  Adding
    2^(w-1) to every digit makes them all nonnegative, so the bytes of the
    sum split into fixed slots.  Packing costs a Python step per entry, at
    the slot width of the larger operand, so when one has at most 8 nonzero
    entries (a root of unity times a value, 4-50x faster on the loop at
    phi = 4 to 192) the loop over them is cheaper: the two cost about the
    same at 8 to 12 nonzero entries.
    """
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    m = len(a) + len(b) - 1
    if min(na, nb) <= 8:
        if na > nb:
            a, b = b, a
        out = [0] * m
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        out[j] += x * y
        return out
    size = (max(map(abs, a)) * max(map(abs, b)) * min(na, nb)).bit_length() // 8 + 1
    w = 8 * size
    x, y = (sum(map(int.__lshift__, v, range(0, w * len(v), w))) for v in (a, b))
    half = 1 << (w - 1)
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * m, "little")  # half in every slot
    raw = (x * y + offset).to_bytes(m * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, m * size, size)]


# -- the closed-form unit sum behind one-dimensional Riemann-Roch ---------


@lru_cache(maxsize=None)
def _unit_inverse(r: int, a: int) -> CyclotomicNumber:
    """1/(1 - zeta_r^a), a != 0 mod r.  With g = gcd(a, r), zeta_r^a = zeta_d^b
    for d = r/g and b = a/g a unit mod d, so the value is sigma_b(1/(1 - zeta_d)):
    one field inverse per d, and Galois conjugates of it."""
    g = math.gcd(a, r)
    if g > 1:
        return _unit_inverse(r // g, a // g)
    if a == 1:
        return (ONE - root_of_unity(r)).inverse()
    return galois_conjugate(_unit_inverse(r, 1), a)


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
    pure integer arithmetic; the tests compare the two, and this one never
    reads it.  The sum is taken in Z[x]/(x^r - 1), where zeta_r^(a*k) = x^(a*k)
    acts by rotation: each cached 1/(1 - zeta_r^(-a)), of conductor c | r, puts
    z_c^i at x^(i*r/c), over a common denominator and rotated by a*k, into one
    integer list.  Phi_r divides x^r - 1, so reduction mod Phi_r is a ring map
    Z[x]/(x^r - 1) -> Z[zeta_r], and the one `_canonical` of the total (which
    also finds it rational) equals reducing every term.

    >>> stacky_todd_sum(2, 1)
    Fraction(-1, 2)
    >>> stacky_todd_sum(3, 0)
    Fraction(1, 1)
    """
    _todd_arguments(r, k)
    units = [_unit_inverse(r, r - a) for a in range(1, _capped(r))]
    den = math.lcm(*(u.den for u in units))
    total = [0] * r
    for a, u in enumerate(units, 1):
        scale, step = den // u.den, r // u.conductor
        for i, c in enumerate(u.nums):
            total[(i * step + a * k) % r] += c * scale
    return _canonical(r, total, den).rational_value()


def stacky_todd_closed_form(r: int, k: int) -> Fraction:
    """(r-1)/2 - k, the closed form of :func:`stacky_todd_sum`."""
    _todd_arguments(r, k)
    return Fraction(r - 1, 2) - k


def _todd_arguments(r, k) -> None:
    if type(r) is not int or r < 2:
        raise ValidationError(f"order r must be an int >= 2, got {r!r}")
    if type(k) is not int or not 0 <= k <= r - 1:
        raise ValidationError(
            f"weight k={k!r} outside [0, {r - 1}]; reduce modulo r first"
        )
