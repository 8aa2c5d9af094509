"""Ground-truth transforms: Horner evaluation at every point of the group,
and the counted stage walk that the operation counts are checked against.

naive_dft is the oracle every fast path is checked against.  It is coded as
Horner evaluation, deliberately not as a stored-matrix product, so that
dense_matvec against the Vandermonde matrix is an independent second coding.
naive_dft_batch is a numpy-vectorized third coding of the same definition,
used where the pure-Python oracle would dominate the test budget.  Both
oracles take their input through algorithms.validate_vectors, so an element
outside GF(2^m) raises the same ValueError as apply.
counted_apply walks a plan's stages in Python ints, counting every field
operation as it issues it; algorithms.apply must report the same counts.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import binmat
from .algorithms import Plan, TransformTally, validate_vectors
from .field import FieldContext, OpCount
from .structure import BinaryMatrix


def poly_eval(f: list[int], x: int, ctx: FieldContext, oc: OpCount | None = None) -> int:
    """Horner evaluation of a coefficient vector at one field element."""
    if not f:
        return 0
    acc = f[-1]
    for c in reversed(f[:-1]):
        acc = ctx.add(ctx.mul(acc, x, oc), c, oc)
    return acc


def naive_dft(f: list[int], ctx: FieldContext, oc: OpCount | None = None) -> list[int]:
    """F_i = f(a^i) for i in [0, n), by Horner at each point."""
    validate_vectors(ctx, [f])
    return [poly_eval(f, ctx.exp[i], ctx, oc) for i in range(ctx.n)]


def unit_response(j: int, ctx: FieldContext) -> list[int]:
    """Transform of the unit vector delta_j: column j of the Vandermonde matrix."""
    return [ctx.exp[(i * j) % ctx.n] for i in range(ctx.n)]


def transform_matrix(ctx: FieldContext) -> np.ndarray:
    """The n x n Vandermonde matrix W with W[i, j] = a^(ij), as uint16,
    written one row chunk at a time."""
    w = np.empty((ctx.n, ctx.n), dtype=np.uint16)
    exp = np.asarray(ctx.exp, dtype=np.uint16)
    for lo, hi, block in _exponent_blocks(ctx.n):
        np.take(exp, block, out=w[lo:hi], mode="clip")  # block < n: clip never fires
    return w


def dense_matvec(
    mat: list[list[int]], v: list[int], ctx: FieldContext, oc: OpCount | None = None
) -> list[int]:
    """Exact matrix-vector product over GF(2^m) with op counting."""
    if mat and len(mat[0]) != len(v):
        raise ValueError(f"shape mismatch: {len(mat[0])} columns vs {len(v)} entries")
    out = []
    for row in mat:
        acc = ctx.mul(row[0], v[0], oc)
        for a, b in zip(row[1:], v[1:]):
            acc = ctx.add(acc, ctx.mul(a, b, oc), oc)
        out.append(acc)
    return out


_CHUNK_ELEMENTS = 1 << 16  # entries in each (rows x n) temporary of the numpy oracles


def _chunk_rows(n: int) -> int:
    return max(1, _CHUNK_ELEMENTS // n)


def _exponent_blocks(n: int):
    """Row chunks of the exponent products: yields (lo, hi, block) with
    block[i - lo, j] = (i*j) mod n for lo <= i < hi, an intp view of at most
    _chunk_rows(n) rows that the next chunk overwrites in place."""
    rows = _chunk_rows(n)
    idx = np.arange(n, dtype=np.intp)  # i * j < n^2 < 2^32
    buf = np.empty(rows * n, dtype=np.intp)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = buf[: (hi - lo) * n].reshape(hi - lo, n)
        np.multiply.outer(idx[lo:hi], idx, out=block)
        np.remainder(block, n, out=block)
        yield lo, hi, block


@cache
def _batch_tables(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray]:
    """Per-field numpy tables of the vectorized oracle: exp repeated twice
    then a zero pad, as uint16, and log as intp with the 0-element sentinel
    2n, which maps every sum it takes part in into that pad."""
    n = ctx.n
    exp3 = np.concatenate([np.array(ctx.exp, dtype=np.uint16)] * 2 + [np.zeros(n, dtype=np.uint16)])
    logpad = np.array(ctx.log, dtype=np.intp)
    logpad[0] = 2 * n
    return exp3, logpad


def naive_dft_batch(vectors: list[list[int]], ctx: FieldContext) -> list[list[int]]:
    """Vandermonde-sum oracle for a batch of vectors, vectorized with numpy.

    Computes F_i = XOR_j exp[(i*j + log f_j) mod n] directly from the
    definition; exact, but does no operation counting.  Each row chunk of
    the exponent products is computed once and shared by the whole batch;
    per vector it takes one add, one gather and one XOR reduce into
    buffers of the chunk's size, so no temporary outgrows _CHUNK_ELEMENTS
    entries whatever n and the batch size.
    """
    n = ctx.n
    arr = validate_vectors(ctx, vectors)
    if not len(arr):
        return []
    exp3, logpad = _batch_tables(ctx)
    lfs = logpad[arr]
    res = np.empty(arr.shape, dtype=np.uint16)
    sums = np.empty(_chunk_rows(n) * n, dtype=np.intp)
    terms = np.empty(_chunk_rows(n) * n, dtype=np.uint16)
    for lo, hi, block in _exponent_blocks(n):
        s, t = sums[: block.size].reshape(block.shape), terms[: block.size].reshape(block.shape)
        for b, lf in enumerate(lfs):
            np.add(block, lf, out=s)
            np.take(exp3, s, out=t, mode="clip")  # s < 3n: clip never fires
            np.bitwise_xor.reduce(t, axis=1, out=res[b, lo:hi])
    return res.tolist()


def counted_apply(
    plan: Plan, f: list[int], tally: TransformTally, four_russians: bool = False
) -> list[int]:
    """One vector through a plan, stage by stage in Python ints: block
    stages tally into tally.stage1 through the field arithmetic, binary
    stages into tally.stage2 through binmat's naive fold or, with
    four_russians, its Four-Russians kernel.  Same output and counts as
    algorithms.apply with a tally."""
    ctx = plan.ctx
    validate_vectors(ctx, [f])
    x = [f[j] for j in plan.in_perm]
    for stage in plan.stages:
        if isinstance(stage, BinaryMatrix):
            if four_russians:
                x = binmat.binmatvec_four_russians(stage, x, tally.stage2)
            else:
                x = binmat.binmatvec_naive(stage, x, tally.stage2)
            continue
        y, pos = [], 0
        for k, d in enumerate(stage.sizes):
            y += dense_matvec(stage.rows(k), x[pos : pos + d], ctx, tally.stage1)
            pos += d
        x = y
    out = [0] * ctx.n
    for r, i in enumerate(plan.out_perm):
        out[i] = x[r]
    return out
