import pytest

from rbgroups.gf import FieldError, make_field, is_prime, prime_factors, prime_power


def test_prime_utilities():
    assert is_prime(2) and is_prime(23) and not is_prime(1) and not is_prime(49)
    assert prime_factors(360) == [2, 3, 5]
    assert prime_power(49) == (7, 2)
    assert prime_power(12) is None


def test_prime_field_arithmetic():
    F = make_field(7, 1)
    assert F.size == 7
    a, b = 3, 5
    assert F.add(a, b) == 1
    assert F.mul(a, b) == 1
    assert F.mul(a, F.inv(a)) == F.one


def test_extension_field_gf9():
    F = make_field(3, 2)
    assert F.size == 9
    # every nonzero element has multiplicative order dividing 8
    orders = {F.element_order(x) for x in range(1, 9)}
    assert max(orders) == 8  # a generator exists
    for x in range(1, 9):
        assert F.mul(x, F.inv(x)) == F.one
    # additive characteristic 3
    for x in range(9):
        assert F.add(F.add(x, x), x) == F.zero


def test_frobenius_is_additive_and_multiplicative():
    F = make_field(3, 2)

    def frobenius(x):
        return F.pow(x, F.p)

    for x in range(9):
        for y in range(9):
            assert frobenius(F.add(x, y)) == F.add(frobenius(x), frobenius(y))
            assert frobenius(F.mul(x, y)) == F.mul(frobenius(x), frobenius(y))
    # x^p fixes exactly the prime subfield
    fixed = [x for x in range(9) if frobenius(x) == x]
    assert len(fixed) == 3


def test_pow_matches_repeated_mul():
    F = make_field(7, 2)
    x = 10 % F.size
    acc = F.one
    for k in range(10):
        assert F.pow(x, k) == acc
        acc = F.mul(acc, x)


def test_deterministic_construction():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(3, 2).modulus == make_field(3, 2).modulus
    assert make_field(3, 2).element_order(make_field(3, 2).w) == 8


def test_rejects_bad_parameters():
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(3, 0)
