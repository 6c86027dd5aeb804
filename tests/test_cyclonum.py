"""Cyclotomic field arithmetic: canonical forms, field axioms, closed sums."""

import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stackyrr import cyclonum, limits
from stackyrr.cyclonum import (
    CyclotomicNumber,
    _convolve,
    _descents,
    _fold_even,
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
from stackyrr.errors import ConsistencyError, ResourceLimitError, ValidationError

ZERO = CyclotomicNumber.from_rational(0)
ONE = CyclotomicNumber.from_rational(1)


def _divisors(n):
    return tuple(d for d in range(1, n + 1) if n % d == 0)


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


def _phi_product_is_x_n_minus_1(n, phi):
    # prod_{d | n} Phi_d = x^n - 1 determines every Phi_n from Phi_1 = x - 1
    product = [1]
    for d in _divisors(n):
        product = _convolve(product, phi[d])
    return product == [-1] + [0] * (n - 1) + [1]


def test_phi_times_the_lower_phis_is_x_n_minus_1():
    phi = {n: cyclotomic_polynomial(n) for n in range(1, 1000)}
    assert [n for n in phi if not _phi_product_is_x_n_minus_1(n, phi)] == []
    with limits.using(conductor=10000):
        for n in (2520, 9240):
            phi = {d: cyclotomic_polynomial(d) for d in _divisors(n)}
            assert _phi_product_is_x_n_minus_1(n, phi), n


def test_phi_refuses_a_product_that_is_not_monic_and_palindromic(monkeypatch):
    assert euler_phi(15) == 8  # cached now, since euler_phi reads _primes too
    monkeypatch.setattr(cyclonum, "_primes", lambda n: (2,))  # the wrong e | rad 15
    with pytest.raises(ConsistencyError, match="Phi_15 is not monic of degree 8"):
        cyclotomic_polynomial(15)


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
        for call, args in [
            (canonicalize, (41, [0, 1])),
            (CyclotomicNumber.from_dict, ({"conductor": 41, "coeffs": [[0, 1]] * 40},)),
            (lift_coeffs, (root_of_unity(3), 42)),
            (cyclotomic_polynomial, (41,)),
        ]:
            with pytest.raises(ResourceLimitError,
                               match=r"conductor 4[12] exceeds Limits\.conductor = 40"):
                call(*args)
        assert canonicalize(40, [0, 1]).conductor == 40
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"Limits\.conductor"):
        canonicalize(10**12, [0, 1])
    assert time.perf_counter() - start < 1


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


def _todd_sum_term_by_term(r, k, inverses):
    """The unit sum added up one CyclotomicNumber term at a time, from public
    operations only; ``inverses[a]`` is 1/(1 - zeta_r^(-a))."""
    total = ZERO
    for a in range(1, r):
        total = total + root_of_unity(r, a * k) * inverses[a]
    return total.rational_value()


def test_todd_sum_matches_the_term_by_term_sum_and_the_closed_form():
    rng = random.Random(24)
    for r in range(2, 61):
        inverses = {a: (ONE - root_of_unity(r, -a)).inverse() for a in range(1, r)}
        weights = {0, 1, r // 2, r - 1, *rng.sample(range(r), min(r, 3))}
        for k in sorted(weights):
            value = stacky_todd_sum(r, k)
            assert value == _todd_sum_term_by_term(r, k, inverses), (r, k)
            assert value == stacky_todd_closed_form(r, k), (r, k)


def test_unit_inverses_by_galois_conjugation_match_direct_inverses():
    for r in range(2, 61):
        for a in range(1, r):
            assert cyclonum._unit_inverse(r, a) == (ONE - root_of_unity(r, a)).inverse(), (r, a)


def test_a_warm_todd_sum_reduces_once_and_multiplies_no_cyclotomic_numbers(monkeypatch):
    for k in (0, 7, 59):
        stacky_todd_sum(60, k)
    canonical, conductors = cyclonum._canonical, []

    def counted(n, nums, den):
        conductors.append(n)
        return canonical(n, nums, den)

    def refused(self, other):
        raise AssertionError("the unit sum multiplied two CyclotomicNumbers")

    monkeypatch.setattr(cyclonum, "_canonical", counted)
    monkeypatch.setattr(CyclotomicNumber, "__mul__", refused)
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", refused)
    for k in (0, 7, 59):
        conductors.clear()
        assert stacky_todd_sum(60, k) == stacky_todd_closed_form(60, k)
        assert conductors == [60]


def test_todd_sum_refuses_an_order_over_the_conductor_cap_at_once():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"Limits\.conductor"):
        stacky_todd_sum(10**12, 0)
    assert time.perf_counter() - start < 1
    stacky_todd_sum(60, 7)  # its unit inverses are now cached
    with limits.using(conductor=50):
        with pytest.raises(ResourceLimitError, match=r"conductor 60 exceeds Limits\.conductor = 50"):
            stacky_todd_sum(60, 7)


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
    z3 = root_of_unity(3)
    for value in (z3, ONE):
        assert value.__truediv__(True) is NotImplemented
        assert value.__rtruediv__(False) is NotImplemented
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


Z3, Z5 = root_of_unity(3), root_of_unity(5)


def _raises(error, call, *args):
    return pytest.param(error, call, args, id=f"{call.__name__}{args!r}")


@pytest.mark.parametrize("error, call, args", [
    _raises(ValidationError, CyclotomicNumber.from_dict, {"conductor": 1, "coeffs": [[1.5, 2]]}),
    _raises(ValidationError, CyclotomicNumber.from_dict, {"conductor": True, "coeffs": [[1, 1]]}),
    _raises(ValidationError, CyclotomicNumber.from_dict, {"conductor": 1, "coeffs": 5}),
    _raises(ValidationError, CyclotomicNumber.from_dict, {"conductor": 1, "coeffs": [["1"]]}),
    _raises(ValidationError, CyclotomicNumber.from_dict, {"conductor": 1, "coeffs": [["1", "0"]]}),
    _raises(ValidationError, CyclotomicNumber.from_dict, {"conductor": 1, "coeffs": [["1_0", "3"]]}),
    _raises(ValidationError, CyclotomicNumber.from_dict, {"conductor": 1, "coeffs": [[" 7", "2"]]}),
    _raises(ValidationError, CyclotomicNumber.from_dict, [["conductor", 1]]),
    _raises(ValidationError, canonicalize, 3, [0.5, 0]),
    _raises(ValidationError, canonicalize, 3, ["1/3", 0]),
    _raises(ValidationError, canonicalize, 3, [True, 0]),
    _raises(ValidationError, canonicalize, True, [1]),
    _raises(ValidationError, canonicalize, 3.0, [1, 0]),
    _raises(ValidationError, canonicalize, 3, 5),
    _raises(ValidationError, root_of_unity, True),
    _raises(ValidationError, root_of_unity, 4.0),
    _raises(ValidationError, root_of_unity, 4, 1.0),
    _raises(ValidationError, galois_conjugate, Z5, True),
    _raises(ValidationError, stacky_todd_sum, 3, True),
    _raises(ValidationError, stacky_todd_sum, 3.0, 1),
    _raises(ValidationError, stacky_todd_closed_form, 3, True),
    # 4 and 1 are cached already, and an equal float or bool must not hit that cache
    _raises(ValidationError, euler_phi, 4.0),
    _raises(ValidationError, euler_phi, True),
    _raises(ValidationError, cyclotomic_polynomial, True),
    _raises(ValidationError, lift_coeffs, Z3, 6.0),
    _raises(TypeError, operator.pow, Z3, True),
    _raises(TypeError, operator.pow, Z3, 1.5),
])
def test_malformed_input_is_rejected(error, call, args):
    assert euler_phi(4) == 2 and cyclotomic_polynomial(1) == (-1, 1)
    with pytest.raises(error):
        call(*args)
    if error is TypeError:  # the operator declines, so Python raises
        assert Z3.__pow__(*args[1:]) is NotImplemented


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
            sub = _solve_in_subfield(n, coeffs, d)
            assert sub is not None
            return reference_canonical_form(d, sub)
    return n, tuple(coeffs)


def _solve_in_subfield(n, coeffs, d):
    """The c with sum_j c[j] * z_n^(j*n/d) = coeffs, by Gauss-Jordan on Fractions.

    The phi(d) columns z_n^(j*n/d) are independent, so column j pivots in
    row j; the system is solvable exactly when the rows below are zero on
    the right-hand side as well (None otherwise).
    """
    phi_d = euler_phi(d)
    columns = [_substitute(n, [0] * j + [1], n // d) for j in range(phi_d)]
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(c)] for i, c in enumerate(coeffs)]
    for j in range(phi_d):
        p = next(i for i in range(j, len(rows)) if rows[i][j])
        rows[j], rows[p] = rows[p], rows[j]
        pivot = rows[j] = [x / rows[j][j] for x in rows[j]]
        for i, row in enumerate(rows):
            f = row[j]
            if f and i != j:
                rows[i] = [x - f * y if y else x for x, y in zip(row, pivot)]
    if any(row[-1] for row in rows[phi_d:]):
        return None
    return [row[-1] for row in rows[:phi_d]]


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

    def divmod_monic(a, b):
        a, top = list(a), len(b) - 1
        q = [Fraction(0)] * max(len(a) - top, 0)
        for i in reversed(range(len(q))):
            q[i] = t = a[i + top]
            for j, y in enumerate(b):
                a[i + j] -= t * y
        rem = a[:top]
        while rem and not rem[-1]:
            rem.pop()
        return q, rem

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
        q, rem = divmod_monic(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(q, s1))


def test_inverse_matches_the_fraction_euclid():
    rng = random.Random(20261019)
    conductors = [n for n in _divisors(840) if euler_phi(n) <= 96]
    conductors += [n for n in range(1, 121) if n % 4 != 2 and n not in conductors]
    conductors += [97, 193, 243, 256, 289, 840]  # primes, prime powers, the largest
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


def _dense(rng, n):
    while (x := rand_cyclo(rng, n)).conductor != n:
        pass
    return x


def test_dense_inverses_at_conductors_280_420_840_are_fast():
    # on a 2-CPU host the timed part takes about 0.45 s by norms and took
    # about 5 s by the integer Euclid, nearly all of it at conductor 840
    rng = random.Random(25)
    values = {n: [_dense(rng, n) for _ in range(8)] for n in (280, 420, 840)}
    for xs in values.values():
        xs[0] * xs[1]  # fill the per-conductor caches first
    start = time.perf_counter()
    for xs in values.values():
        for x in xs[:4]:
            assert x * x.inverse() == 1
        for a, b in zip(xs[4:6], xs[6:]):
            assert (a / b) * b == a
    assert time.perf_counter() - start < 2.5


def test_inverse_refuses_a_norm_that_does_not_descend(monkeypatch):
    # with every conjugate equal to x, the "norm" x^e stays at conductor n
    calls = []
    monkeypatch.setattr(cyclonum, "galois_conjugate", lambda a, k: calls.append(k) or a)
    rng = random.Random(26)
    for n, conjugates in ((12, 1), (7, 3), (840, 1)):
        calls.clear()
        x = _dense(rng, n)
        with pytest.raises(ConsistencyError, match=rf"^norm from Q\(zeta_{n}\) has conductor {n},"):
            x.inverse()
        assert len(calls) == conjugates  # one step's layers, no recursion below it


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


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**70, 2**70))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_convolve_matches_the_schoolbook_product(data):
    dense = data.draw(st.lists(ENTRIES, min_size=1, max_size=48))
    length = data.draw(st.integers(1, 48))
    sparse = [0] * length
    for i in data.draw(st.lists(st.integers(0, length - 1), unique=True, max_size=12)):
        sparse[i] = data.draw(ENTRIES.filter(bool))
    for a, b in ((dense, dense), (dense, sparse), (sparse, dense), (sparse, sparse)):
        assert _convolve(a, b) == _schoolbook(a, b)


def test_convolve_on_both_sides_of_the_loop_threshold():
    rng = random.Random(2310)
    dense = [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 80))) for _ in range(40)]
    assert _convolve([2**64 + 1], [-(2**65)]) == [-(2**129) - 2**65]
    assert _convolve([0] * 5, dense) == [0] * 44
    for nonzeros in range(6, 12):  # the loop takes at most 8
        sparse = [0] * 30
        for i in rng.sample(range(30), nonzeros):
            sparse[i] = rng.choice((-1, 1)) * rng.getrandbits(70)
        assert _convolve(sparse, dense) == _convolve(dense, sparse) == _schoolbook(sparse, dense)


LIFTS = [(d, n) for n in range(1, 841) if euler_phi(n) <= 192
         for d in _divisors(n) if d > 1 and d % 4 != 2]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LIFTS), st.data())
def test_a_lifted_value_descends_back_to_its_conductor(lift, data):
    d, n = lift
    value = canonicalize(d, data.draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=euler_phi(d), max_size=euler_phi(d))))
    assume(value.conductor == d)
    assert canonicalize(n, list(lift_coeffs(value, n))) == value


def test_unfixed_values_are_ruled_out_before_the_exact_galois_test(monkeypatch):
    rng = random.Random(840)
    value = rand_cyclo(rng, 840)
    assert value.conductor == 840
    exact = []
    real = _substitute

    def substitute(n, coeffs, k):
        if k != 1:
            exact.append((n, k))
        return real(n, coeffs, k)

    monkeypatch.setattr(cyclonum, "_substitute", substitute)
    assert canonicalize(840, list(value.coeffs)) == value
    assert value * value * value != 0
    assert exact == []


BIG = 2**64
INTS = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-2**80, 2**80),
                 st.sampled_from([BIG, -BIG, BIG + 1, -BIG - 1]))
FRACTIONS = st.builds(Fraction, INTS, INTS.filter(bool))


def _canonical_rational(x, q):
    """x is q in the one canonical form: conductor 1, den > 0, no common factor."""
    return (type(x) is CyclotomicNumber and (x.conductor, x.nums, x.den)
            == (1, (q.numerator,), q.denominator) and x == CyclotomicNumber.from_rational(q)
            and math.gcd(x.nums[0], x.den) == 1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(INTS, FRACTIONS), st.one_of(INTS, FRACTIONS), st.data())
def test_rational_operands_take_the_integer_path_to_the_canonical_form(p, q, data):
    fp, fq = Fraction(p), Fraction(q)
    # each operand as itself (int or Fraction) or as a conductor-1 value
    a = CyclotomicNumber.from_rational(p)
    b = data.draw(st.sampled_from([q, CyclotomicNumber.from_rational(q)]))
    for left, right in ((a, b), (b, a)):
        fl, fr = (fp, fq) if left is a else (fq, fp)
        assert _canonical_rational(left + right, fl + fr)
        assert _canonical_rational(left - right, fl - fr)
        assert _canonical_rational(left * right, fl * fr)
        assert (left == right) is (right == left) is (fl == fr)
    assert _canonical_rational(-a, -fp) and bool(a) is bool(fp)
    if fp:
        assert _canonical_rational(a.inverse(), 1 / fp)
    for call in (lambda: True + a, lambda: a * False, lambda: False - a, lambda: a - True):
        with pytest.raises(TypeError):
            call()
    assert a != True and a != False  # noqa: E712


def _reference_plus_rational(x, p, q):
    """(conductor, nums, den) of x + p/q by the list route of `_plus_rational`, for x irrational."""
    if not p:
        return x.conductor, x.nums, x.den
    den = math.lcm(x.den, q)
    nums = [c * (den // x.den) for c in x.nums]
    nums[0] += p * (den // q)
    g = math.gcd(den, *nums)
    return x.conductor, tuple(c // g for c in nums), den // g


def _reference_times_rational(x, p, q):
    """(conductor, nums, den) of x * p/q by the list route of `_times_rational`."""
    if not p:
        return 1, (0,), 1
    nums, den = [c * p for c in x.nums], x.den * q
    g = math.gcd(den, *nums)
    return x.conductor, tuple(c // g for c in nums), den // g


@settings(max_examples=200, deadline=None)
@given(cyclotomic_values(), st.one_of(INTS, FRACTIONS), st.data())
def test_rational_with_irrational_operands_match_the_list_route(x, q, data):
    assume(x.conductor != 1)
    f = Fraction(q)
    p, d = f.numerator, f.denominator
    r = data.draw(st.sampled_from([q, CyclotomicNumber.from_rational(q)]))
    minus_x = CyclotomicNumber(x.conductor, tuple(-c for c in x.nums), x.den)

    def form(v):
        return v.conductor, v.nums, v.den

    assert form(x + r) == form(r + x) == _reference_plus_rational(x, p, d)
    assert form(x - r) == _reference_plus_rational(x, -p, d)
    assert form(r - x) == _reference_plus_rational(minus_x, p, d)
    assert form(x * r) == form(r * x) == _reference_times_rational(x, p, d)
    assert x != r and r != x
    assert bool(x) and form(-x) == form(minus_x)


@pytest.mark.parametrize("value", [CyclotomicNumber.from_rational(Fraction(3, 2)), root_of_unity(3)])
def test_foreign_operands_are_refused_under_the_operator_written(value):
    for call, message in ((lambda: 1.5 - value, "-: 'float' and 'CyclotomicNumber'"),
                          (lambda: value - 1.5, "-: 'CyclotomicNumber' and 'float'"),
                          (lambda: 1.5 + value, r"\+: 'float' and 'CyclotomicNumber'"),
                          (lambda: value * 1j, r"\*: 'CyclotomicNumber' and 'complex'")):
        with pytest.raises(TypeError, match=f"unsupported operand type\\(s\\) for {message}"):
            call()
    assert value.__rsub__(1.5) is NotImplemented and value.__radd__(1.5) is NotImplemented
    assert value != 1.5 and not value == 1.5  # noqa: SIM201


RATIONALS = st.one_of(INTS, FRACTIONS)


@settings(max_examples=300, deadline=None)
@given(st.one_of(cyclotomic_values(), RATIONALS.map(CyclotomicNumber.from_rational)),
       RATIONALS, st.data())
def test_division_by_a_rational_takes_the_integer_path_in_both_orders(x, q, data):
    f = Fraction(q)
    # the rational operand as itself (int or Fraction) or as a conductor-1 value
    r = data.draw(st.sampled_from([q, CyclotomicNumber.from_rational(q)]))
    y = CyclotomicNumber.from_rational(q)
    if f:
        assert x / r == x * y.inverse()
        if x.is_rational:
            assert _canonical_rational(x / r, x.rational_value() / f)
    else:
        with pytest.raises(ZeroDivisionError, match="division by zero cyclotomic number"):
            x / r
    if x:
        assert r / x == y * x.inverse()
        if x.is_rational:
            assert _canonical_rational(r / x, f / x.rational_value())
    else:
        with pytest.raises(ZeroDivisionError, match="division by zero cyclotomic number"):
            r / x
    for foreign in (True, False, 1.5, 2j):
        for call in (lambda: x / foreign, lambda: foreign / x):
            with pytest.raises(TypeError):
                call()
