"""Ground-truth transforms: Horner evaluation at every point of the group,
and the counted stage walk that the operation counts are checked against.

naive_dft is the oracle every fast path is checked against.  It is coded as
Horner evaluation, deliberately not as a stored-matrix product, so that
dense_matvec against the Vandermonde matrix is an independent second coding.
naive_dft_batch is a numpy-vectorized third coding of the same definition,
used where the pure-Python oracle would dominate the test budget.
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
    if len(f) != ctx.n:
        raise ValueError(f"expected length {ctx.n}, got {len(f)}")
    return [poly_eval(f, ctx.exp[i], ctx, oc) for i in range(ctx.n)]


def unit_response(j: int, ctx: FieldContext) -> list[int]:
    """Transform of the unit vector delta_j: column j of the Vandermonde matrix."""
    return [ctx.exp[(i * j) % ctx.n] for i in range(ctx.n)]


def transform_matrix(ctx: FieldContext) -> np.ndarray:
    """The n x n Vandermonde matrix W with W[i, j] = a^(ij), as uint16."""
    idx = np.arange(ctx.n, dtype=np.uint32)  # i * j < n^2 < 2^32
    return np.asarray(ctx.exp, dtype=np.uint16)[np.multiply.outer(idx, idx) % ctx.n]


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


@cache
def _batch_tables(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-field numpy tables of the vectorized oracle: the indices 0..n-1,
    exp repeated twice then a zero pad, and log with the 0-element sentinel
    2n, which maps every sum it takes part in into that pad."""
    n = ctx.n
    exp3 = np.concatenate([np.array(ctx.exp, dtype=np.int32)] * 2 + [np.zeros(n, dtype=np.int32)])
    logpad = np.array(ctx.log, dtype=np.int32)
    logpad[0] = 2 * n
    return np.arange(n, dtype=np.int64), exp3, logpad


def naive_dft_batch(vectors: list[list[int]], ctx: FieldContext) -> list[list[int]]:
    """Vandermonde-sum oracle for a batch of vectors, vectorized with numpy.

    Computes F_i = XOR_j exp[(i*j + log f_j) mod n] directly from the
    definition; exact, but does no operation counting.  Row chunks of the
    exponent-product matrix are reused across the whole batch.
    """
    n = ctx.n
    idx, exp3, logpad = _batch_tables(ctx)
    for vec in vectors:
        if len(vec) != n:
            raise ValueError(f"expected length {n}, got {len(vec)}")
    if not vectors:
        return []
    lfs = logpad[np.asarray(vectors, dtype=np.int64)]
    count = len(vectors)
    res = np.empty((count, n), dtype=np.int32)
    chunk = max(1, (1 << 21) // max(n, 1))  # keep the (rows x n) block in cache
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # exponent products for this row block, shared by the whole batch
        block = ((idx[lo:hi, None] * idx[None, :]) % n).astype(np.int32)
        for b in range(count):
            res[b, lo:hi] = np.bitwise_xor.reduce(exp3[block + lfs[b]], axis=1)
    return [[int(v) for v in row] for row in res]


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
                x = binmat.binmatvec_four_russians(stage, x, oc=tally.stage2)
            else:
                x = binmat.binmatvec_naive(stage, x, tally.stage2)
            continue
        y, pos = [], 0
        for k, d in enumerate(stage.sizes):
            rows, v = stage.rows(k), x[pos : pos + d]  # a pass-through block issues no operation
            y += v if rows == ((1,),) else dense_matvec(rows, v, ctx, tally.stage1)
            pos += d
        x = y
    out = [0] * ctx.n
    for r, i in enumerate(plan.out_perm):
        out[i] = x[r]
    return out
