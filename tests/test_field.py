import random

import pytest

from gfft.field import PRIMITIVE_POLYS, FieldSpec, OpCount, build_field, default_field


def test_m3_exp_table():
    ctx = build_field(FieldSpec(3, 0b1011))
    assert ctx.exp == [1, 2, 4, 3, 6, 7, 5]
    assert ctx.n == 7


def test_m2_smallest_field():
    ctx = build_field(FieldSpec(2, 0b111))
    assert ctx.n == 3
    assert ctx.exp == [1, 2, 3]


def test_reducible_poly_rejected():
    # x^3 + x^2 + x + 1 = (x + 1)(x^2 + 1)
    with pytest.raises(ValueError, match="not primitive"):
        build_field(FieldSpec(3, 0b1111))


def test_irreducible_but_not_primitive_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5 < 15
    with pytest.raises(ValueError, match="not primitive"):
        build_field(FieldSpec(4, 0b11111))


def test_m_range_rejected():
    for m in (0, 1, 17, 30):
        with pytest.raises(ValueError):
            build_field(FieldSpec(m, 0b111))


def test_malformed_poly_rejected():
    with pytest.raises(ValueError, match="degree"):
        build_field(FieldSpec(3, 0b10011))  # degree 4 modulus for m=3
    with pytest.raises(ValueError, match="constant"):
        build_field(FieldSpec(3, 0b1010))


@pytest.mark.parametrize("m, poly", [(3, -0xB), (8, -0x11D)])
def test_negative_poly_rejected(m, poly):
    with pytest.raises(ValueError, match="negative"):
        build_field(FieldSpec(m, poly))


def test_default_table_all_primitive():
    for m in PRIMITIVE_POLYS:
        ctx = default_field(m)
        assert ctx.n == (1 << m) - 1
        assert ctx.exp[0] == 1


def test_add_examples():
    ctx = default_field(3)
    assert ctx.add(3, 5) == 6
    for x in range(8):
        assert ctx.add(x, x) == 0
        assert ctx.add(0, x) == x


def test_mul_examples():
    ctx = default_field(3)
    assert ctx.mul(2, 4) == 3
    assert ctx.mul(7, 7) == 3
    for x in range(8):
        assert ctx.mul(x, 0) == 0
        assert ctx.mul(1, x) == x


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_log_is_homomorphism_exhaustive(m):
    ctx = default_field(m)
    n = ctx.n
    for a in range(1, 1 << m):
        la = ctx.log[a]
        for b in range(1, 1 << m):
            assert ctx.log[ctx.mul(a, b)] == (la + ctx.log[b]) % n


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_frobenius_additivity_exhaustive(m):
    ctx = default_field(m)
    for a in range(1 << m):
        for b in range(1 << m):
            lhs = ctx.mul(a ^ b, a ^ b)
            rhs = ctx.mul(a, a) ^ ctx.mul(b, b)
            assert lhs == rhs


@pytest.mark.parametrize("m", [2, 5, 8, 11, 16])
def test_distributivity_random(m):
    ctx = default_field(m)
    rng = random.Random(m * 1009)
    size = 1 << m
    for _ in range(1000):
        a, b, c = (rng.randrange(size) for _ in range(3))
        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
def test_tables_mutually_inverse(m):
    ctx = default_field(m)
    for i in range(ctx.n):
        assert ctx.log[ctx.exp[i]] == i
    assert sorted(ctx.exp) == list(range(1, 1 << m))


def test_opcount_skip_units_policy():
    ctx = default_field(3)
    oc = OpCount()
    ctx.mul(2, 4, oc)
    ctx.mul(1, 4, oc)  # unit operand: free
    ctx.mul(0, 4, oc)  # zero operand: free
    assert oc.mults == 1

    ctx.add(3, 5, oc)
    ctx.add(0, 0, oc)
    assert oc.adds == 2


def test_field_context_equality_by_value():
    # the same m and polynomial make the same field, however often built;
    # an explicit default polynomial equals the implicit one
    a, b = default_field(5), build_field(FieldSpec(5, PRIMITIVE_POLYS[5]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != build_field(FieldSpec(5, 0b101001))  # x^5 + x^3 + 1
    assert a != default_field(6)
    assert a != (5, PRIMITIVE_POLYS[5])
