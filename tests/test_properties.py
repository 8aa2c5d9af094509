"""Property tests: apply_batch equals per-vector apply on drawn batches."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from gfft import algorithms as alg
from gfft.field import default_field


@lru_cache(maxsize=None)
def _plans(m: int) -> dict:
    ctx = default_field(m)
    return {tag: alg.build(tag, ctx) for tag in alg.ALL_TAGS}


@st.composite
def batches(draw):
    m = draw(st.integers(2, 7))
    n = (1 << m) - 1
    vector = st.lists(st.integers(0, n), min_size=n, max_size=n)
    return m, draw(st.lists(vector, min_size=0, max_size=16))


@settings(max_examples=15, deadline=None)
@given(batches())
def test_apply_batch_equals_apply(case):
    m, vectors = case
    for tag, plan in _plans(m).items():
        assert alg.apply_batch(plan, vectors) == [alg.apply(plan, f) for f in vectors], tag
