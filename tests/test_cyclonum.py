"""Cyclotomic field arithmetic: canonical forms, field axioms, closed sums."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackyrr import limits
from stackyrr.cyclonum import (
    CyclotomicNumber,
    _coerce,
    _descents,
    _divisors,
    _express_in_subfield,
    _fold_even,
    _poly_divmod,
    _scale_to_int,
    _substitute,
    canonicalize,
    cyclotomic_polynomial,
    euler_phi,
    galois_conjugate,
    lift_coeffs,
    root_of_unity,
    stacky_todd_closed_form,
    stacky_todd_sum,
)
from stackyrr.errors import ResourceLimitError, ValidationError

ZERO = CyclotomicNumber.from_rational(0)
ONE = CyclotomicNumber.from_rational(1)


def rand_cyclo(rng, conductor):
    coeffs = [
        Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        for _ in range(euler_phi(conductor))
    ]
    return canonicalize(conductor, coeffs)


def test_roots_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1
    z4 = root_of_unity(4)
    assert z4 * z4 == -1
    for n in (1, 2, 3, 4, 6, 8, 12):
        for k in range(n):
            z = root_of_unity(n, k)
            assert z**n == 1


def test_root_of_unity_order_divides_conductor():
    for n in (5, 8, 12):
        for k in range(n):
            z = root_of_unity(n, k)
            order = 1
            acc = z
            while acc != 1:
                acc = acc * z
                order += 1
            assert n % order == 0


def test_invalid_conductor():
    with pytest.raises(ValidationError):
        root_of_unity(0, 1)


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_phi_vanishes_on_primitive_root():
    for n in range(1, 61):
        z = root_of_unity(n)
        val = ZERO
        for i, c in enumerate(cyclotomic_polynomial(n)):
            if c:
                val = val + c * z**i
        assert val.is_zero, n


def test_canonicalize_examples():
    assert root_of_unity(6, 3) == -1
    assert root_of_unity(6, 3).conductor == 1
    assert root_of_unity(4, 2) == -1
    s = sum((root_of_unity(5, j) for j in (1, 2, 3, 4)), ZERO)
    assert s == -1 and s.conductor == 1


def test_conductor_never_2_mod_4():
    rng = random.Random(7)
    for n in (2, 6, 10, 18, 30):
        for _ in range(5):
            x = rand_cyclo(rng, n)
            assert x.conductor % 4 != 2


def test_canonicalize_idempotent_and_lift_round_trip():
    rng = random.Random(11)
    for n in (3, 4, 5, 8, 9, 12, 15, 16, 24, 36, 60):
        for _ in range(4):
            x = rand_cyclo(rng, n)
            again = canonicalize(x.conductor, x.coeffs)
            assert again == x
            for mult in (2, 3, 4):
                big = x.conductor * mult
                if big % 4 == 2:
                    continue
                lifted = lift_coeffs(x, big)
                assert canonicalize(big, lifted) == x


def test_canonicalize_keeps_non_cyclotomic_subfield_elements():
    # sqrt(2) = z8 + z8^-1 generates a quadratic field that is not Q(zeta_d)
    # for any proper divisor d of 8, so the conductor must stay 8
    z8 = root_of_unity(8)
    sqrt2 = z8 + z8**-1
    assert sqrt2.conductor == 8
    assert sqrt2 * sqrt2 == 2

    # sqrt(-3) = z3 - z3^2 lives at conductor 3
    z3 = root_of_unity(3)
    root = z3 - root_of_unity(3, 2)
    assert root.conductor == 3 and root * root == -3

    # golden-ratio-type element of Q(zeta_5): quadratic but conductor 5
    z5 = root_of_unity(5)
    tau = z5 + z5**-1
    assert tau.conductor == 5
    assert tau * tau + tau == 1  # minimal polynomial x^2 + x - 1


def test_canonicalize_descends_to_proper_cyclotomic_subfield():
    # i sits inside Q(zeta_12); built there, it must come back at conductor 4
    z12 = root_of_unity(12)
    i = z12**3
    assert i.conductor == 4 and i * i == -1
    # zeta_3 from inside Q(zeta_12)
    w = z12**4
    assert w.conductor == 3 and w == root_of_unity(3)


def test_arith_examples():
    z3 = root_of_unity(3)
    inv = 1 / (1 - z3)
    # (1 - z3)(2 + z3) = 2 + z3 - 2 z3 - z3^2 = 2 - z3 - (-1 - z3) = 3
    assert (1 - z3) * (2 + z3) == 3
    assert inv == (2 + z3) / 3


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        1 / ZERO
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_self_division_is_one():
    rng = random.Random(3)
    for n in (1, 3, 8, 12, 20):
        for _ in range(4):
            a = rand_cyclo(rng, n)
            if a.is_zero:
                continue
            assert a / a == 1


def test_field_axioms_randomized():
    rng = random.Random(20260808)
    conductors = [1, 3, 4, 5, 8, 12, 15, 20, 24, 30, 36, 40, 45, 60]
    for _ in range(60):
        na, nb, nc = (rng.choice(conductors) for _ in range(3))
        a, b, c = rand_cyclo(rng, na), rand_cyclo(rng, nb), rand_cyclo(rng, nc)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not b.is_zero:
            assert (a / b) * b == a
        assert a - a == 0
        assert a + 0 == a and a * 1 == a


def test_conductor_cap():
    with limits.using(conductor=40):
        with pytest.raises(ResourceLimitError, match=r"Limits\.conductor = 40"):
            root_of_unity(41)
        with pytest.raises(ResourceLimitError, match=r"Limits\.conductor = 40"):
            root_of_unity(8) + root_of_unity(27)  # lcm 216 > 40


def test_galois_conjugate():
    z3 = root_of_unity(3)
    assert galois_conjugate(z3, 2) == root_of_unity(3, 2)
    q = CyclotomicNumber.from_rational(Fraction(7, 3))
    assert galois_conjugate(q, 5) == q
    avg = sum((galois_conjugate(root_of_unity(5), k) for k in (1, 2, 3, 4)), ZERO) / 4
    assert avg == Fraction(-1, 4)
    with pytest.raises(ValidationError):
        galois_conjugate(root_of_unity(6), 3)


def test_galois_orbit_sum_is_rational():
    # Averaging over the full Galois group lands in Q at conductor 1.
    rng = random.Random(5)
    import math

    for n in (5, 8, 12):
        x = rand_cyclo(rng, n)
        ks = [k for k in range(1, n) if math.gcd(k, n) == 1]
        avg = sum((galois_conjugate(x, k) for k in ks), ZERO) / len(ks)
        assert avg.conductor == 1


def test_galois_invariant_value_has_conductor_one():
    # A value fixed by every automorphism canonicalizes to a rational.
    import math

    rng = random.Random(9)
    for n in (5, 7, 9, 16):
        x = rand_cyclo(rng, n)
        sym = sum(
            (galois_conjugate(x, k) for k in range(1, n) if math.gcd(k, n) == 1),
            ZERO,
        )
        for k in range(1, n):
            if math.gcd(k, n) == 1:
                assert galois_conjugate(sym, k) == sym
        assert sym.conductor == 1


def test_todd_sum_examples():
    assert stacky_todd_sum(2, 1) == Fraction(-1, 2)
    assert stacky_todd_sum(3, 0) == 1
    for r in range(2, 13):
        assert stacky_todd_sum(r, 0) == Fraction(r - 1, 2)


def test_todd_sum_range_errors():
    with pytest.raises(ValidationError):
        stacky_todd_sum(1, 0)
    with pytest.raises(ValidationError):
        stacky_todd_sum(5, 5)
    with pytest.raises(ValidationError):
        stacky_todd_sum(5, -1)


def test_todd_sum_matches_closed_form_small():
    # The exhaustive r <= 30 sweep lives in the acceptance suite.
    for r in range(2, 15):
        for k in range(r):
            assert stacky_todd_sum(r, k) == stacky_todd_closed_form(r, k)


def test_serialization_round_trip():
    rng = random.Random(13)
    for n in (1, 4, 9, 12, 40):
        for _ in range(4):
            x = rand_cyclo(rng, n)
            data = x.to_dict()
            assert CyclotomicNumber.from_dict(data) == x
    with pytest.raises(ValidationError):
        CyclotomicNumber.from_dict({"conductor": 3, "coeffs": [], "extra": 1})


def test_rationals_hash_like_the_numbers_they_equal():
    for q in (0, 3, -7, Fraction(5, 12), Fraction(-1, 3)):
        x = CyclotomicNumber.from_rational(q)
        assert x == q and hash(x) == hash(q)
        assert {q: "found"}[x] == "found"


@pytest.mark.parametrize("q", [True, False, "1/2", 0.5, 1.0, None, root_of_unity(1)],
                         ids=["true", "false", "str", "float", "integral-float", "none",
                              "cyclotomic"])
def test_from_rational_takes_only_ints_and_fractions(q):
    with pytest.raises(ValidationError, match="is not an int or a Fraction"):
        CyclotomicNumber.from_rational(q)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_arithmetic_does_not_take_a_bool(op):
    assert _coerce(True) is NotImplemented and _coerce(False) is NotImplemented
    z3 = root_of_unity(3)
    for left, right in ((z3, True), (True, z3), (ONE, True), (False, ONE)):
        with pytest.raises(TypeError):
            op(left, right)
    assert ONE != True  # noqa: E712


def test_big_integer_serialization():
    big = Fraction(10**40 + 1, 10**39 + 7)
    x = CyclotomicNumber.from_rational(big)
    assert CyclotomicNumber.from_dict(x.to_dict()) == x


def test_pow_and_inverse():
    z5 = root_of_unity(5)
    assert z5**-1 == root_of_unity(5, 4)
    assert z5**0 == 1
    assert (1 + z5) ** 3 == (1 + z5) * (1 + z5) * (1 + z5)


def reference_canonical_form(n, coeffs):
    """The ascending-divisor route: (conductor, coeffs) of the minimal field.

    Every proper divisor d of n (d = 1 and d = 2 mod 4 skipped) is tried in
    increasing order, and the value descends to the first Q(zeta_d) whose
    whole Galois kernel {sigma_k : k = 1 mod d} fixes it.
    """
    coeffs = [Fraction(c) for c in coeffs]
    if n % 4 == 2:
        n, coeffs = _fold_even(n, coeffs)
    if all(not c for c in coeffs[1:]):
        return 1, (coeffs[0],)
    ints = _scale_to_int(coeffs)[0]
    for d in _divisors(n)[:-1]:
        if d % 4 == 2 or d == 1:
            continue
        if all(
            _substitute(n, ints, k) == ints
            for k in range(1 + d, n, d)
            if math.gcd(k, n) == 1
        ):
            sub = _express_in_subfield(n, coeffs, d)
            assert sub is not None
            return reference_canonical_form(d, sub)
    return n, tuple(coeffs)


def _random_vector(rng, length):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(length)]


def _sample_values(rng, n):
    """Raw coefficient vectors at conductor n, many of them in subfields."""
    phi = euler_phi(n)
    yield _random_vector(rng, phi)
    m = rng.choice(_divisors(n))
    yield _substitute(n, _random_vector(rng, euler_phi(m)), n // m)
    powers = [0] * n
    for _ in range(rng.randint(1, 6)):
        powers[rng.randrange(n)] += rng.choice((-2, -1, 1, 3))
    yield _substitute(n, powers, 1)
    # The average over <sigma_k> lies in the fixed field of that subgroup,
    # which need not be cyclotomic (sqrt(2) in Q(zeta_8) for k = 7).
    k = rng.choice([k for k in range(1, n + 1) if math.gcd(k, n) == 1])
    x = _random_vector(rng, phi)
    total, kj = [0] * phi, 1
    while True:
        total = [a + b for a, b in zip(total, _substitute(n, x, kj))]
        kj = kj * k % n
        if kj == 1 % n:
            break
    yield total


def test_canonicalize_matches_the_ascending_divisor_route():
    rng = random.Random(20261018)
    conductors = sorted(set(_divisors(840)) | set(range(1, 121)))
    seen = set()
    for n in conductors:
        for coeffs in _sample_values(rng, n):
            x = canonicalize(n, coeffs)
            assert all(type(c) is Fraction for c in x.coeffs)
            assert (x.conductor, x.coeffs) == reference_canonical_form(n, coeffs), n
            seen.add(x.conductor)
    # The sample reaches proper subfields, not just the rationals and the top.
    assert {1, 3, 4, 8, 12, 105, 420} <= seen


def test_descents_are_generators_of_the_galois_kernels():
    for n in range(1, 1001):
        if n % 4 == 2:
            continue
        primes = [p for p in _divisors(n)[1:] if _divisors(p) == (1, p)]
        expected = []
        for p in primes:
            d = n // 4 if p == 2 and n % 8 == 4 else n // p
            if d > 1:
                expected.append((p, d))
        assert [(p, d) for p, d, _ in _descents(n)] == expected, n
        for p, d, k in _descents(n):
            kernel = {j for j in range(1, n, d) if math.gcd(j, n) == 1}
            powers, kj = set(), 1
            while kj not in powers:
                powers.add(kj)
                kj = kj * k % n
            assert powers == kernel, (n, p, d, k)


def reference_inverse(n, coeffs):
    """The extended Euclid of Q[x] against Phi_n on Fraction coefficients.

    Each divisor is scaled monic first, so the division needs no inverse
    and the last remainder is 1, making the cofactor s the inverse itself.
    """

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out

    def sub(a, b):
        out = list(a) + [Fraction(0)] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] -= y
        while len(out) > 1 and not out[-1]:
            out.pop()
        return out

    r0, s0 = list(cyclotomic_polynomial(n)), [Fraction(0)]
    r1, s1 = [Fraction(c) for c in coeffs], [Fraction(1)]
    while not r1[-1]:
        r1.pop()
    while True:
        inv = Fraction(1) / r1[-1]
        r1 = [c * inv for c in r1]
        s1 = [c * inv for c in s1]
        if len(r1) == 1:
            return s1
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(q, s1))


def test_inverse_matches_the_fraction_euclid():
    rng = random.Random(20261019)
    conductors = [n for n in _divisors(840) if euler_phi(n) <= 96]
    conductors += [n for n in range(1, 121) if n % 4 != 2 and n not in conductors]
    for n in conductors:
        if euler_phi(n) <= 40:
            x = rand_cyclo(rng, n)
        else:  # a few terms keep the Fraction route's growth affordable
            powers = [0] * n
            for _ in range(3):
                powers[rng.randrange(n)] += rng.choice((-2, -1, 1, 3))
            x = canonicalize(n, powers)
        if x.is_zero:
            continue
        inv = x.inverse()
        ref = canonicalize(x.conductor, reference_inverse(x.conductor, x.coeffs))
        assert (inv.conductor, inv.coeffs) == (ref.conductor, ref.coeffs), n
        assert inv.conductor == x.conductor
        assert x * inv == 1


def raw_power(n, k):
    """x^k as an unreduced vector at conductor n: canonicalize reduces it."""
    return [0] * (k % n) + [1]


def test_root_of_unity_matches_canonicalized_power():
    for n in range(1, 121):
        for k in range(-1, 2 * n + 1):
            assert root_of_unity(n, k) == canonicalize(n, raw_power(n, k)), (n, k)
    rng = random.Random(840)
    for n in _divisors(840):
        for k in rng.sample(range(-n, 3 * n), min(12, 4 * n)):
            z = root_of_unity(n, k)
            assert z == canonicalize(n, raw_power(n, k)), (n, k)
            order = n // math.gcd(k, n)
            assert z.conductor == (order // 2 if order % 4 == 2 else order)


def test_root_of_unity_checks_the_cap_before_reducing():
    with limits.using(conductor=40):
        with pytest.raises(ResourceLimitError):
            root_of_unity(42, 21)  # -1, but conductor 42 was asked for


SMALL_840 = [n for n in _divisors(840) if euler_phi(n) <= 48]


@st.composite
def cyclotomic_values(draw):
    n = draw(st.sampled_from(SMALL_840))
    coeffs = draw(st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=7),
        min_size=euler_phi(n), max_size=euler_phi(n)))
    return canonicalize(n, coeffs)


@settings(max_examples=40, deadline=None)
@given(cyclotomic_values(), cyclotomic_values(), cyclotomic_values())
def test_field_axioms_on_conductors_dividing_840(a, b, c):
    for x in (a, b, c, a + b, a * b, -c):
        assert type(x.coeffs) is tuple
        assert all(type(q) is Fraction for q in x.coeffs)
        assert len(x.coeffs) == euler_phi(x.conductor)
        assert x.to_dict() == {
            "conductor": x.conductor,
            "coeffs": [[str(q.numerator), str(q.denominator)] for q in x.coeffs],
        }
        assert CyclotomicNumber.from_dict(x.to_dict()) == x
        assert canonicalize(x.conductor, x.coeffs) == x
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - b == -(b - a)
    if not a.is_zero:
        assert a * a.inverse() == 1
        assert (b / a) * a == b
