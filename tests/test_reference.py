import random
import tracemalloc

import pytest

from gfft import reference
from gfft.field import OpCount, default_field
from gfft.reference import (
    dense_matvec,
    naive_dft,
    naive_dft_batch,
    poly_eval,
    transform_matrix,
    unit_response,
)


def test_dft_delta0_all_ones():
    ctx = default_field(3)
    f = [1, 0, 0, 0, 0, 0, 0]
    assert naive_dft(f, ctx) == [1] * 7


def test_dft_delta1_is_exp_table():
    ctx = default_field(3)
    f = [0, 1, 0, 0, 0, 0, 0]
    assert naive_dft(f, ctx) == [1, 2, 4, 3, 6, 7, 5]


def test_dft_zero():
    ctx = default_field(3)
    assert naive_dft([0] * 7, ctx) == [0] * 7


def test_dft_length_check():
    ctx = default_field(3)
    with pytest.raises(ValueError):
        naive_dft([0] * 6, ctx)


def test_poly_eval_examples():
    ctx = default_field(3)
    ones = [1] * 7
    for i in range(1, 7):
        assert poly_eval(ones, ctx.exp[i], ctx) == 0  # geometric sum over the group
    assert poly_eval(ones, 1, ctx) == 1  # seven ones in characteristic 2
    f = [0, 0, 1, 0, 0, 0, 0]
    assert poly_eval(f, ctx.exp[3], ctx) == ctx.exp[6] == 5


def test_dense_matvec_examples():
    ctx = default_field(3)
    ident = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    v = [5, 3, 0, 1, 7, 2, 6]
    assert dense_matvec(ident, v, ctx) == v
    w = transform_matrix(ctx).tolist()
    delta1 = [0, 1, 0, 0, 0, 0, 0]
    assert dense_matvec(w, delta1, ctx) == [1, 2, 4, 3, 6, 7, 5]
    zero = [[0] * 7 for _ in range(7)]
    assert dense_matvec(zero, v, ctx) == [0] * 7
    with pytest.raises(ValueError):
        dense_matvec(w, v[:-1], ctx)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
def test_dft_agrees_with_matrix_form(m):
    ctx = default_field(m)
    w = transform_matrix(ctx).tolist()
    rng = random.Random(m * 31)
    for _ in range(10):
        f = [rng.randrange(1 << m) for _ in range(ctx.n)]
        assert naive_dft(f, ctx) == dense_matvec(w, f, ctx)


@pytest.mark.parametrize("m", [3, 5, 8])
def test_dft_linearity(m):
    ctx = default_field(m)
    rng = random.Random(m * 77)
    n = ctx.n
    for _ in range(10):
        f = [rng.randrange(1 << m) for _ in range(n)]
        g = [rng.randrange(1 << m) for _ in range(n)]
        a = rng.randrange(1, 1 << m)
        af_plus_g = [ctx.add(ctx.mul(a, x), y) for x, y in zip(f, g)]
        lhs = naive_dft(af_plus_g, ctx)
        ff, gg = naive_dft(f, ctx), naive_dft(g, ctx)
        rhs = [ctx.add(ctx.mul(a, x), y) for x, y in zip(ff, gg)]
        assert lhs == rhs


def test_unit_response_matches_dft():
    ctx = default_field(4)
    for j in range(ctx.n):
        f = [0] * ctx.n
        f[j] = 1
        assert unit_response(j, ctx) == naive_dft(f, ctx)


def test_horner_counts():
    # Horner at each of n points: n-1 additions per point, and at most n-1
    # multiplications, since those by 0 or 1 are free.
    ctx = default_field(4)
    n = ctx.n
    rng = random.Random(11)
    f = [rng.randrange(16) for _ in range(n)]
    oc = OpCount()
    naive_dft(f, ctx, oc)
    assert oc.mults <= n * (n - 1)
    assert oc.adds == n * (n - 1)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 10])
def test_batch_oracle_matches_horner(m):
    ctx = default_field(m)
    rng = random.Random(m)
    vecs = [[rng.randrange(1 << m) for _ in range(ctx.n)] for _ in range(8)]
    vecs.append([0] * ctx.n)
    delta = [0] * ctx.n
    delta[min(3, ctx.n - 1)] = 1
    vecs.append(delta)
    assert naive_dft_batch(vecs, ctx) == [naive_dft(f, ctx) for f in vecs]


def test_batch_oracle_length_check():
    ctx = default_field(3)
    with pytest.raises(ValueError):
        naive_dft_batch([[0] * 6], ctx)


# non-field inputs over GF(8): a negative int, a float and an int outside [0, 8)
BAD_INPUTS = [[-1] + [0] * 6, [1.5] + [0] * 6, [9] + [0] * 6]


@pytest.mark.parametrize("f", BAD_INPUTS)
def test_oracles_reject_non_field_input(f):
    ctx = default_field(3)
    with pytest.raises(ValueError):
        naive_dft(f, ctx)
    with pytest.raises(ValueError):
        naive_dft_batch([f], ctx)
    with pytest.raises(ValueError):
        naive_dft_batch([[1] * 7, f], ctx)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
def test_chunk_edges(monkeypatch, chunk_rows):
    # n = 2^m - 1 is odd, so 2-row chunks always end on a ragged last chunk,
    # and 3-row chunks do for m = 3, 5, 7
    for m in range(2, 8):
        ctx = default_field(m)
        monkeypatch.setattr(reference, "_CHUNK_ELEMENTS", chunk_rows * ctx.n)
        rng = random.Random(m * 13 + chunk_rows)
        for count in range(4):
            vecs = [[rng.randrange(1 << m) for _ in range(ctx.n)] for _ in range(count)]
            assert naive_dft_batch(vecs, ctx) == [naive_dft(f, ctx) for f in vecs]
        # W is symmetric, so row j is also column j, the response to delta_j
        assert transform_matrix(ctx).tolist() == [unit_response(j, ctx) for j in range(ctx.n)]


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_oracle_traced_peak():
    # 32 vectors at m = 11.  The output lists alone trace about 2.3 MiB; the
    # numpy temporaries are the input's log table (0.5 MiB) and three
    # 2^16-entry chunk buffers.  Chunks of 2^21 entries (1024 rows of
    # int64 products and sums) would trace about 40 MiB.
    ctx = default_field(11)
    rng = random.Random(11)
    vecs = [[rng.randrange(1 << 11) for _ in range(ctx.n)] for _ in range(32)]
    naive_dft_batch(vecs[:1], ctx)  # build the field's cached tables first
    out, peak = _traced_peak(naive_dft_batch, vecs, ctx)
    assert len(out) == 32
    assert peak < 8 << 20, f"traced peak {peak / 2**20:.1f} MiB"


def test_transform_matrix_traced_peak():
    # W itself (32 MiB at m = 12) plus 2 MiB for the chunk of intp exponent
    # products; gathering from the whole (i*j) mod n matrix traces 128 MiB.
    ctx = default_field(12)
    w, peak = _traced_peak(transform_matrix, ctx)
    assert peak < w.nbytes + (2 << 20), f"traced peak {peak / 2**20:.1f} MiB"
