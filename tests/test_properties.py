"""Property tests: the transform's algebra through uncounted apply and
counted apply against the counted reference walk, on every primitive
polynomial of degree 2..6, and apply_batch against the reference walk."""

from functools import lru_cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfft import algorithms as alg
from gfft.field import FieldSpec, build_field
from gfft.reference import counted_apply


@lru_cache(maxsize=None)
def _plans(m: int, poly: int | None = None) -> tuple:
    ctx = build_field(FieldSpec(m, poly))
    return ctx, {tag: alg.build(tag, ctx) for tag in alg.ALL_TAGS}


def _primitive_polys(m: int) -> list[int]:
    """Every primitive polynomial of degree m (bit i = coefficient of x^i):
    each candidate with a constant term that build_field accepts."""
    found = []
    for poly in range(1 << m | 1, 1 << (m + 1), 2):
        try:
            build_field(FieldSpec(m, poly))
        except ValueError:
            continue
        found.append(poly)
    return found


FIELDS = [(m, poly) for m in range(2, 7) for poly in _primitive_polys(m)]


@pytest.mark.parametrize("m", range(2, 7))
def test_enumeration_finds_every_primitive_polynomial(m):
    # there are phi(2^m - 1) / m primitive polynomials of degree m
    n = (1 << m) - 1
    phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
    assert len([p for mm, p in FIELDS if mm == m]) == phi // m


@pytest.mark.parametrize("m, poly", FIELDS, ids=[f"m{m}-{p:#x}" for m, p in FIELDS])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_transform_algebra(m, poly, data):
    ctx, plans = _plans(m, poly)
    n = ctx.n
    vector = st.lists(st.integers(0, n), min_size=n, max_size=n)
    a, b = data.draw(vector), data.draw(vector)
    c = data.draw(st.integers(0, n))
    delta0 = [1] + [0] * (n - 1)
    for tag, plan in plans.items():
        fa, fb = alg.apply(plan, a), alg.apply(plan, b)
        # additivity: F(a + b) = F(a) + F(b)
        total = alg.apply(plan, [x ^ y for x, y in zip(a, b)])
        assert total == [x ^ y for x, y in zip(fa, fb)], tag
        # scaling: F(c a) = c F(a)
        assert alg.apply(plan, [ctx.mul(c, x) for x in a]) == [ctx.mul(c, y) for y in fa], tag
        # Frobenius: with a squared coefficient-wise, F(a^2)_(2i) = F(a)_i^2
        sq = alg.apply(plan, [ctx.mul(x, x) for x in a])
        assert [sq[2 * i % n] for i in range(n)] == [ctx.mul(y, y) for y in fa], tag
        assert alg.apply(plan, delta0) == [1] * n, tag


@pytest.mark.parametrize("m, poly", FIELDS, ids=[f"m{m}-{p:#x}" for m, p in FIELDS])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_counted_apply_matches_reference(m, poly, data):
    # the kernels' counts against the Python-int walk's: output and all four
    # counters, both stage-2 kernels
    ctx, plans = _plans(m, poly)
    f = data.draw(st.lists(st.integers(0, ctx.n), min_size=ctx.n, max_size=ctx.n))
    for (tag, plan), fr in product(plans.items(), (False, True)):
        got, want = alg.TransformTally.fresh(), alg.TransformTally.fresh()
        assert alg.apply(plan, f, got, fr) == counted_apply(plan, f, want, fr), (tag, fr)
        assert got == want, (tag, fr)


@st.composite
def batches(draw):
    m = draw(st.integers(2, 7))
    n = (1 << m) - 1
    vector = st.lists(st.integers(0, n), min_size=n, max_size=n)
    return m, draw(st.lists(vector, min_size=0, max_size=16))


@settings(max_examples=15, deadline=None)
@given(batches())
def test_apply_batch_equals_apply(case):
    # the counted walk in Python ints is the reference
    m, vectors = case
    for tag, plan in _plans(m)[1].items():
        expected = [counted_apply(plan, f, alg.TransformTally.fresh()) for f in vectors]
        assert alg.apply_batch(plan, vectors) == expected, tag
