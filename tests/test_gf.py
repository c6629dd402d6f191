import time

import numpy as np
import pytest

from mosls import gf
from mosls.construct import composite_count


def test_canonical_moduli():
    assert gf.make_field(2, 1).modulus == (0, 1)  # t
    assert gf.make_field(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1
    assert gf.make_field(3, 2).modulus == (1, 0, 1)  # t^2 + 1
    assert gf.make_field(5, 1).modulus == (0, 1)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(gf.FieldError):
        gf.make_field(4, 2)
    with pytest.raises(gf.FieldError):
        gf.make_field(2, 0)


def test_field_size_is_bounded():
    assert gf.make_field(1021, 1).size <= gf.MAX_FIELD_SIZE
    for d in (11, 1000):
        with pytest.raises(gf.FieldError):
            gf.make_field(2, d)
    with pytest.raises(gf.FieldError):
        gf.is_irreducible(2, [1, 0, 1] + [0] * 17 + [1])  # degree 20


def test_is_prime_agrees_with_a_sieve():
    limit = 10**5
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    assert [gf.is_prime(k) for k in range(limit)] == sieve.tolist()
    assert not any(gf.is_prime(k) for k in (-7, -2, -1))


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # the smallest strong pseudoprimes to the bases 2; 2, 3, 5, 7; and
    # every prime up to 23
    for composite in (2047, 3215031751, 3825123056546413051):
        assert not gf.is_prime(composite)
    assert gf.is_prime(2**61 - 1) and gf.is_prime(2**64 - 59)  # the largest below 2**64
    assert not gf.is_prime(4294967291 * 4294967279)  # the two largest primes below 2**32
    for big in (2**64, 2**89 - 1):
        with pytest.raises(gf.FieldError, match="2\\*\\*64"):
            gf.is_prime(big)
    # trial division would take about 1.5e9 steps on this Mersenne prime
    start = time.perf_counter()
    assert composite_count([(2**61 - 1, 0, 1)]) == 2**61 - 2
    assert time.perf_counter() - start < 1


def test_is_irreducible_known_cases():
    assert gf.is_irreducible(2, [1, 1, 1])  # t^2+t+1
    assert not gf.is_irreducible(2, [1, 0, 1])  # t^2+1 = (t+1)^2
    # t^3+2t+1 over Z_3 has no roots (f(0)=f(1)=f(2)=1), hence no factors
    assert gf.is_irreducible(3, [1, 2, 0, 1])


def test_is_irreducible_requires_monic():
    with pytest.raises(gf.FieldError):
        gf.is_irreducible(3, [1, 2])  # 2t + 1
    with pytest.raises(gf.FieldError):
        gf.is_irreducible(2, [1])  # constant


def test_enumeration_order():
    # index v is the element whose coefficients of 1, t, ... are the base-p
    # digits of v: 0, 1 are the constants of GF(2) and GF(4), 2 is t
    assert gf.make_field(2, 1).size == 2
    ctx4 = gf.make_field(2, 2)
    assert ctx4.size == 4
    assert ctx4.add[1, 2] == 3  # 1 + t
    assert ctx4.mul[2, 2] == 3  # t^2 = t + 1
    ctx9 = gf.make_field(3, 2)
    assert ctx9.size == 9
    # the first p indices are the constants 0, 1, 2 with Z_3 arithmetic
    assert ctx9.add[:3, :3].tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert ctx9.mul[:3, :3].tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    assert ctx9.mul[1, 3] == 3 and ctx9.add[1, 3] == 4  # t is 3, 1 + t is 4


@pytest.mark.parametrize("p,d", [(2, 1), (2, 3), (3, 2), (5, 2), (3, 4)])
def test_mul_table_is_polynomial_product_mod_modulus(p, d):
    ctx = gf.make_field(p, d)
    rng = np.random.default_rng(7)

    def coeffs(v):
        return [(v // p**i) % p for i in range(d)]

    for a, b in rng.integers(0, ctx.size, (50, 2)):
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(coeffs(a)):
            for j, y in enumerate(coeffs(b)):
                prod[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            lead = prod[k] % p
            for j in range(d + 1):
                prod[k - d + j] -= lead * ctx.modulus[j]
        assert ctx.mul[a, b] == sum((c % p) * p**i for i, c in enumerate(prod[:d]))


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_is_irreducible_matches_root_test(p, deg):
    # a monic polynomial of degree 2 or 3 is irreducible iff it has no root
    for low in range(p**deg):
        poly = [(low // p**i) % p for i in range(deg)] + [1]
        has_root = any(sum(c * x**i for i, c in enumerate(poly)) % p == 0 for x in range(p))
        assert gf.is_irreducible(p, poly) == (not has_root), poly


def test_known_products_and_sums():
    ctx = gf.make_field(2, 2)
    t, t1, one = 2, 3, 1
    assert ctx.add[t, t1] == one  # characteristic 2
    assert ctx.mul[t, t] == t1  # t^2 = t + 1

    ctx9 = gf.make_field(3, 2)
    t9 = 3
    assert ctx9.mul[t9, t9] == 2  # t^2 = -1 = 2


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3)])
def test_field_axioms_exhaustive(p, d):
    ctx = gf.make_field(p, d)
    x = np.arange(ctx.size)
    assert (ctx.add[x, 0] == x).all()
    assert (ctx.mul[x, 1] == x).all()
    assert (ctx.add[x, ctx.neg[x]] == 0).all()
    assert (ctx.add == ctx.add.T).all()
    assert (ctx.mul == ctx.mul.T).all()
    # a - b, taken as a + neg(b), undoes adding b
    sub = ctx.add[x[:, None], ctx.neg[x]]
    assert (ctx.add[sub, x] == x[:, None]).all()


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3), (3, 4), (2, 6)])
def test_field_axioms_randomized(p, d):
    # associativity and distributivity on random triples, fields up to 81
    ctx = gf.make_field(p, d)
    add, mul = ctx.add, ctx.mul
    rng = np.random.default_rng(20240817)
    size = ctx.size
    for _ in range(200):
        a, b, c = (int(v) for v in rng.integers(0, size, 3))
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]
        assert add[add[a, b], c] == add[a, add[b, c]]
        assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3), (3, 4)])
def test_multiplicative_order_divides_group_order(p, d):
    ctx = gf.make_field(p, d)
    group = ctx.size - 1
    for a in range(1, ctx.size):
        acc = a
        order = 1
        while acc != 1:
            acc = ctx.mul[acc, a]
            order += 1
            assert order <= group
        assert group % order == 0


def test_no_zero_divisors():
    ctx = gf.make_field(3, 2)
    assert (ctx.mul[1:, 1:] != 0).all()


def test_determinism():
    assert gf.make_field(3, 3) == gf.make_field(3, 3)
    first, second = gf.make_field(3, 3), gf.make_field(3, 3)
    for name in ("add", "neg", "mul"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_tables_are_read_only():
    ctx = gf.make_field(2, 2)
    with pytest.raises(ValueError):
        ctx.mul[1, 1] = 0
