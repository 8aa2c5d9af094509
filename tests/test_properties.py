"""Property tests: the transform's algebra through uncounted apply and
counted apply against the counted reference walk, on every primitive
polynomial of degree 2..6, apply_batch against the reference walk, and the
input boundary against a per-element reference."""

import operator
from functools import lru_cache
from itertools import product
from math import gcd

import numpy as np
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


def _first_outside(n: int, f) -> int:
    """The index of the first element of f that is not an int in [0, n];
    an int is what operator.index takes."""
    for j, x in enumerate(f):
        try:
            if 0 <= operator.index(x) <= n:
                continue
        except TypeError:
            pass
        return j
    raise AssertionError("every element is in the field")


def _boundary_reference(n: int, vectors: list) -> np.ndarray | str:
    """validate_vectors coded per element: the (batch, n) uint16 array, or
    the start of the error, which names the first vector at fault and, when
    it has n elements, its first one outside the field."""
    rows = []
    for b, f in enumerate(vectors):
        if not hasattr(f, "__len__") or len(f) != n:
            return f"vector {b}: "
        try:
            row = [operator.index(x) for x in f]
        except TypeError:
            return f"vector {b}, index {_first_outside(n, f)}: "
        if not all(0 <= v <= n for v in row):
            return f"vector {b}, index {_first_outside(n, f)}: "
        rows.append(row)
    return np.array(rows, dtype=np.uint16).reshape(len(rows), n)


@st.composite
def boundary_cases(draw):
    # mostly field elements as Python ints, bools and numpy integer scalars,
    # with a few replaced by numpy bools, floats, None, strings or ints out
    # of range, and now and then a vector of another length or not a
    # sequence; each vector a list, a tuple or an int64 ndarray
    m = draw(st.integers(2, 5))
    n = (1 << m) - 1
    good = st.one_of(
        st.integers(0, n),
        st.booleans(),
        st.integers(0, n).map(np.uint16),
        st.integers(0, n).map(np.int64),
    )
    bad = st.one_of(
        st.booleans().map(np.bool_),
        st.floats(allow_nan=False),
        st.none(),
        st.text(max_size=2),
        st.integers(max_value=-1),
        st.integers(n + 1, 2**16 - 1),
        st.integers(min_value=2**16),
    )
    vectors = []
    for _ in range(draw(st.integers(0, 4))):
        f = draw(st.lists(good, min_size=n, max_size=n))
        if draw(st.integers(0, 3)) == 0:
            for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
                f[j] = draw(bad)
        shape = draw(st.sampled_from(["list", "list", "tuple", "ndarray", "ndarray", "ndarray", "length", "scalar"]))
        if shape == "tuple":
            f = tuple(f)
        elif shape == "ndarray" and all(isinstance(x, (int, np.integer)) and -(2**63) <= x < 2**63 for x in f):
            f = np.array([int(x) for x in f], dtype=np.int64)
        elif shape == "length":
            f = f[: draw(st.integers(0, n - 1))] if draw(st.booleans()) else f + [0]
        elif shape == "scalar":
            f = f[0]
        vectors.append(f)
    return n, vectors


@settings(max_examples=200, deadline=None)
@given(boundary_cases())
def test_validate_vectors_matches_a_per_element_reference(case):
    # accepts exactly what the reference accepts, with the same array, and
    # otherwise raises ValueError naming the vector, and the element, that
    # the reference names
    n, vectors = case
    ctx = _plans(n.bit_length())[0]
    expected = _boundary_reference(n, vectors)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{expected}"):
            alg.validate_vectors(ctx, vectors)
    else:
        got = alg.validate_vectors(ctx, vectors)
        assert got.dtype == np.uint16 and np.array_equal(got, expected) and got.shape == expected.shape
