"""The semifast transform family as one stage pipeline.

Every algorithm here builds a Plan from the field alone: gather the input
in in_perm order, run two stages, and scatter the result to out_perm.  A
block stage multiplies consecutive slices by small square blocks, held
zero-padded in one array (the only field multiplications); a binary stage
multiplies by a 0/1 matrix (additions only).

One builder makes all six plans.  The input goes in coset order through
the diagonal blocks D, then through the binary matrix A.  Per coset the
algorithm picks a basis; D's block is basis[t]^(2^j) at (t, j), and A holds
the coordinates of a^(i*rep) in that basis; the block is circulant, as
BlockStage.circulant reads off its entries, exactly when the basis is a
conjugate sequence.  The six differ only in the bases, the output order
and whether the plan is transposed:

  blahut2008  power basis (1, b, ..., b^(d-1)) of b = a^s on every coset
              (V blocks, then the combine matrix)
  ft2002      the same, but the standard basis on the cosets of size m
  tf2003      normal bases: D's blocks are circulant
  fed2006a/b  normal (b: shifted) bases, output in coset order too
  goertzel    blahut2008 transposed, which computes the same transform
              since W is symmetric: binary R (f mod each minimal
              polynomial), then evaluation blocks; output in coset order

Construction rests on two facts.  The coset-s slice of f is a linearized
polynomial composed with x^s, so its values are GF(2)-linear in the point;
and in a normal basis squaring is a coordinate rotation, which is what makes
the per-coset sub-blocks of the binary stage circulant when both input and
output are enumerated in doubling order.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from math import gcd
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import binmat
from .field import FieldContext, OpCount
from .structure import (
    BinaryMatrix,
    CosetPartition,
    LinearSolver,
    NormalBasis,
    cyclotomic_cosets,
    doubling_orbit,
    find_normal_basis,
)

GOERTZEL = "goertzel"
BLAHUT2008 = "blahut2008"
FT2002 = "ft2002"
TF2003 = "tf2003"
FED2006A = "fed2006a"
FED2006B = "fed2006b"

FACTORED_TAGS = (FT2002, TF2003, FED2006A, FED2006B)
ALL_TAGS = (GOERTZEL, BLAHUT2008) + FACTORED_TAGS


@dataclass
class TransformTally:
    """Per-stage counters: stage1 holds the multiplication stage, stage2 the
    binary (additions-only) stage."""

    stage1: OpCount
    stage2: OpCount

    @classmethod
    def fresh(cls) -> "TransformTally":
        return cls(OpCount(), OpCount())


# ---------------------------------------------------------------------------
# The plan: a permutation, two stages, a permutation.
# ---------------------------------------------------------------------------


def _within(sizes, w: int) -> np.ndarray:
    """(l, w) bool: entry [k, t] is t < sizes[k]."""
    return np.arange(w) < np.asarray(sizes)[:, None]


class BlockStage:
    """Block-diagonal stage: block k multiplies the sizes[k] positions that
    follow the blocks before it.  Carries every field multiplication.

    The blocks sit zero-padded in one uint16 array, the only place that
    knows the layout: entry (t, j) of block k is entries[k, t, j], shape
    (l, w, w) with w the largest size, and every entry past a block's size
    is 0.  A pass-through block has size 1 and entry 1."""

    __slots__ = ("entries", "sizes")

    def __init__(self, entries: np.ndarray, sizes: Sequence[int]):
        """ValueError unless entries is a (len(sizes), w, w) uint16 array, w
        the largest size, that is 0 past each block's size."""
        sizes = tuple(map(int, sizes))
        w = max(sizes, default=0)
        if getattr(entries, "dtype", None) != np.uint16 or np.shape(entries) != (len(sizes), w, w):
            raise ValueError(f"block entries must be a ({len(sizes)}, {w}, {w}) uint16 numpy array")
        real = _within(sizes, w)
        if entries[~(real[:, :, None] & real[:, None, :])].any():
            raise ValueError("entries set past a block's size")
        self.entries = entries
        self.sizes = sizes

    def rows(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Block k as Python ints, row-major."""
        d = self.sizes[k]
        return tuple(map(tuple, self.entries[k, :d, :d].tolist()))

    def circulant(self, k: int) -> bool:
        """Whether row t of block k is row 0 rotated left by t."""
        d = self.sizes[k]
        block = self.entries[k, :d, :d]
        return bool((block == block[0, (np.arange(d)[:, None] + np.arange(d)) % d]).all())

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """pos (l, w), the vector position of row t of block k (0 past its
        size, where the entries are 0), and keep, the flat indices of the
        real rows, which come out in position order."""
        sizes, w = np.array(self.sizes), self.entries.shape[1]
        real = _within(sizes, w)
        return np.where(real, (np.cumsum(sizes) - sizes)[:, None] + np.arange(w), 0), np.flatnonzero(real)

    def __eq__(self, other) -> bool:
        same_sizes = isinstance(other, BlockStage) and self.sizes == other.sizes
        return same_sizes and np.array_equal(self.entries, other.entries)

    def __repr__(self) -> str:
        return f"BlockStage(sizes={self.sizes})"


Stage = BlockStage | BinaryMatrix  # a binary stage is its 0/1 matrix: additions only


@dataclass(frozen=True)
class Plan:
    """output[out_perm[r]] = y[r], where y is the stages applied in order to
    x[c] = input[in_perm[c]].  Blocks follow partition's coset order."""

    tag: str
    ctx: FieldContext
    partition: CosetPartition
    in_perm: tuple[int, ...]
    stages: tuple[Stage, ...]
    out_perm: tuple[int, ...]

    def stage(self, kind: type[Stage]) -> Stage:
        """The plan's one stage of the given kind."""
        (found,) = (s for s in self.stages if isinstance(s, kind))
        return found

    @cached_property
    def _kernels(self) -> tuple[np.ndarray, tuple[_Kernel, ...], np.ndarray]:
        """The input gather index, the exact numpy kernels of the stages and
        the output gather index of apply and apply_batch, built on first use
        and kept with the plan.  Not a field, so equality and repr do not
        see it."""
        return _batch_stages(self)

    @cached_property
    def _counts(self) -> _Counts:
        """The operation counts of one counted apply that do not depend on
        the data, built on first use and kept like _kernels."""
        return _plan_counts(self)

    def __getstate__(self) -> dict:
        """Pickle and copy the fields only; a copy builds its own caches."""
        cached = {k for k, v in vars(type(self)).items() if isinstance(v, cached_property)}
        return {k: v for k, v in vars(self).items() if k not in cached}


# ---------------------------------------------------------------------------
# Coset layouts: representative, doubling order and column basis per coset.
# A layout's basis fixes both of its stages: the D block and the binary
# matrix's column group of the coset.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetLayout:
    rep: int
    elements: tuple[int, ...]  # doubling order from rep
    basis: tuple[int, ...]  # column basis for the binary-stage expansion


def _normal_bases(ctx: FieldContext, partition: CosetPartition, shifted: bool) -> dict[int, NormalBasis]:
    """One normal basis per occurring coset size; shifted squares the generator."""
    bases: dict[int, NormalBasis] = {}
    for size in sorted(set(partition.sizes())):
        nb = find_normal_basis(ctx, size)
        if shifted and size > 1:
            gen = ctx.mul(nb.generator, nb.generator)
            conj = tuple(nb.basis[(j + 1) % size] for j in range(size))
            nb = NormalBasis(gen, size, conj)
        if any(ctx.mul(b, b) != nb.basis[(j + 1) % size] for j, b in enumerate(nb.basis)):
            raise ArithmeticError(f"normal basis of size {size} is not a conjugate sequence")
        bases[size] = nb
    return bases


def _layouts_for_tag(ctx: FieldContext, partition: CosetPartition, tag: str) -> list[CosetLayout]:
    """The basis of the coset with leader s and size d, per tag:

      goertzel, blahut2008  the power basis (1, b, ..., b^(d-1)), b = a^s
      ft2002                the same, but the standard basis when d = m
      tf2003, fed2006a      the normal basis of GF(2^d)
      fed2006b              the shifted normal basis; the coset holding its
                            generator's exponent starts at that exponent
    """
    if tag not in ALL_TAGS:
        raise ValueError(f"unknown algorithm tag {tag!r}")
    n, m = ctx.n, ctx.m
    normal: dict[int, NormalBasis] = {}
    rep_override: dict[int, int] = {}
    if tag in (TF2003, FED2006A, FED2006B):
        normal = _normal_bases(ctx, partition, shifted=tag == FED2006B)
    if tag == FED2006B:
        # keeps the identity sub-block aligned with the shifted basis
        logs = (ctx.log[nb.generator] for nb in normal.values() if nb.degree > 1)
        rep_override = {min(doubling_orbit(lg, n)): lg for lg in logs}
    out = []
    for coset in partition.cosets:
        d, rep = coset.size, rep_override.get(coset.leader, coset.leader)
        if normal:
            basis = normal[d].basis
        elif tag == FT2002 and d == m:
            basis = tuple(1 << t for t in range(m))
        else:
            basis = tuple(ctx.exp[(rep * t) % n] for t in range(d))
        elements = coset.elements if rep == coset.leader else doubling_orbit(rep, n)
        out.append(CosetLayout(rep, elements, basis))
    return out


def _d_blocks(ctx: FieldContext, bases: Sequence[tuple[int, ...]]) -> BlockStage:
    """Block k has entry (t, j) = bases[k][t]^(2^j), i.e. exp[(log
    bases[k][t] * 2^j) mod n]: row t lists the conjugates of bases[k][t].
    Circulant exactly when the basis is a conjugate sequence (its first row
    is the basis; it spans GF(2^d), so basis[0]^(2^d) wraps round to
    basis[0]), which holds for the normal bases and for (1,)."""
    sizes = [len(b) for b in bases]
    real = _within(sizes, max(sizes))
    logs = np.zeros(real.shape, dtype=np.int64)
    logs[real] = np.asarray(ctx.log)[[x for b in bases for x in b]]
    entries = np.asarray(ctx.exp, dtype=np.uint16)[(logs[:, :, None] << np.arange(real.shape[1])) % ctx.n]
    entries[~(real[:, :, None] & real[:, None, :])] = 0
    return BlockStage(entries, sizes)


# ---------------------------------------------------------------------------
# Coordinate columns.  Every binary matrix here (A, R and the combine matrix)
# holds, per coset, the coordinates of a^(i*rep) in a small basis: a
# GF(2)-linear map of the element's bits (LinearSolver.linear_map, with a
# residual that is 0 exactly on the span).  Each distinct basis maps the exp
# table once, and each coset on it gathers its column from that map.
# ---------------------------------------------------------------------------


def _columns(ctx: FieldContext, points, layouts: Sequence[CosetLayout]) -> Iterator[tuple[int, np.ndarray]]:
    """(k, column) per layout, grouped by basis: entry r of column k is the
    coordinate vector of a^(points[r] * rep_k) in basis_k, as uint32.
    ArithmeticError if an argument lies outside its basis's span."""
    n = ctx.n
    exp = np.asarray(ctx.exp, dtype=np.int64)
    points = np.asarray(points, dtype=np.uint32)  # points * rep < n^2 < 2^32
    by_basis: dict[tuple[int, ...], list[int]] = {}
    for k, lay in enumerate(layouts):
        by_basis.setdefault(lay.basis, []).append(k)
    for basis, ks in by_basis.items():
        mapped = LinearSolver(basis).linear_map(exp)
        for k in ks:
            e = points * layouts[k].rep % n
            column = mapped[e]
            if column.max(initial=0) >> 16:  # a residual is set
                raise ArithmeticError(f"a^{e[np.argmax(column >> 16)]} is outside the span of {basis}")
            yield k, column


# ---------------------------------------------------------------------------
# Builders: one for all six plans.
# ---------------------------------------------------------------------------


def _build(ctx: FieldContext, tag: str) -> Plan:
    """Input in coset order through the blocks D, then the binary matrix A;
    row r of A holds the coordinates of a^(out_perm[r] * rep) in each coset's
    basis.  fed2006a/b keep the output in coset order too.  goertzel is
    blahut2008 transposed: W is symmetric, so it equals D^T A^T as well,
    with the two permutations swapped; A^T is the remainder matrix R."""
    n = ctx.n
    partition = cyclotomic_cosets(n)
    layouts = _layouts_for_tag(ctx, partition, tag)
    coset_order = tuple(i for lay in layouts for i in lay.elements)
    out_perm = coset_order if tag in (FED2006A, FED2006B) else tuple(range(n))
    columns = _columns(ctx, out_perm, layouts)
    d = _d_blocks(ctx, [lay.basis for lay in layouts])
    if tag == GOERTZEL:
        r_matrix = BinaryMatrix.from_coords(columns, partition.sizes(), n, transpose=True)
        stages = (r_matrix, BlockStage(d.entries.swapaxes(1, 2), d.sizes))
        return Plan(tag, ctx, partition, out_perm, stages, coset_order)
    a_matrix = BinaryMatrix.from_coords(columns, partition.sizes(), n)
    return Plan(tag, ctx, partition, coset_order, (d, a_matrix), out_perm)


def build_goertzel(ctx: FieldContext) -> Plan:
    """Binary R (f mod each minimal polynomial), then evaluation blocks."""
    return _build(ctx, GOERTZEL)


def build_blahut2008(ctx: FieldContext) -> Plan:
    """Power-basis V blocks, then the binary combine matrix."""
    return _build(ctx, BLAHUT2008)


def build_ft2002(ctx: FieldContext) -> Plan:
    """Standard-basis factorization: dense linearized-evaluation blocks."""
    return _build(ctx, FT2002)


def build_tf2003(ctx: FieldContext) -> Plan:
    """Normal-basis factorization: circulant blocks, natural output order."""
    return _build(ctx, TF2003)


def build_fed2006(ctx: FieldContext, variant: str = "a") -> Plan:
    """Coset-ordered output on both sides; variant 'b' shifts the normal basis
    (generator squared) and starts the generator's coset at its exponent."""
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    return _build(ctx, FED2006B if variant == "b" else FED2006A)


def build(tag: str, ctx: FieldContext) -> Plan:
    if tag == GOERTZEL:
        return build_goertzel(ctx)
    if tag == BLAHUT2008:
        return build_blahut2008(ctx)
    if tag == FT2002:
        return build_ft2002(ctx)
    if tag == TF2003:
        return build_tf2003(ctx)
    if tag == FED2006A:
        return build_fed2006(ctx, "a")
    if tag == FED2006B:
        return build_fed2006(ctx, "b")
    raise ValueError(f"unknown algorithm tag {tag!r}")


# ---------------------------------------------------------------------------
# Single-vector application.
# ---------------------------------------------------------------------------


def apply(
    plan: Plan, f: list[int], tally: TransformTally | None = None, four_russians: bool = False
) -> list[int]:
    """One vector through a plan.

    f runs as one column through the plan's exact numpy kernels, the ones
    apply_batch uses, counted or not.  A tally receives the operation counts
    of the stage-by-stage Python-int walk (reference.counted_apply) without
    running it: the block stage tallies into tally.stage1 and the binary
    stage into tally.stage2.  Every count but one is structural and cached
    on the plan: d(d - 1) stage-1 additions per block and, for the binary
    stage, the naive fold's popcount - 1 additions per row, or with
    four_russians the closed form of binmat's Four-Russians kernel.  Stage-1 multiplications
    by 0 or 1 are free by default, so they depend on the data and are
    counted on the block stage's input x as w . [x > 1], w_j being the
    entries > 1 in column j of the block covering position j; under
    OpCount(count_units=True) every block but a pass-through costs d^2.
    Without a tally four_russians changes nothing, since both kernels give
    the same output.
    """
    rows = validate_vectors(plan.ctx, [f])
    if tally is None:
        return _run_kernels(plan, rows)[:, 0].tolist()
    counts, s1 = plan._counts, tally.stage1
    if s1.count_units:  # every multiplication issued counts, whatever the data
        x = _run_kernels(plan, rows)
        s1.mults += counts.unit_mults
    else:
        x = _run_kernels(plan, rows, s1)
    s1.adds += counts.stage1_adds
    tally.stage2.adds += counts.four_russians_adds if four_russians else counts.naive_adds
    return x[:, 0].tolist()


def _as_row(ctx: FieldContext, f, b: int) -> array:
    """Vector b as an array("H"), or ValueError for a wrong length or a
    non-int element."""
    n = ctx.n
    if len(f) != n:
        raise ValueError(f"vector {b}: expected length {n}, got {len(f)}")
    try:
        return array("H", f)  # rejects non-ints and ints outside [0, 2^16)
    except (TypeError, OverflowError):
        raise ValueError(f"vector {b}: elements must be ints in [0, 2^{ctx.m})") from None


def _outside_field(ctx: FieldContext, b: int, row: array) -> ValueError:
    j = next(j for j, x in enumerate(row) if x >> ctx.m)
    return ValueError(f"vector {b}, index {j}: {row[j]} is not in GF(2^{ctx.m})")


def validate_vectors(ctx: FieldContext, vectors) -> np.ndarray:
    """The input boundary of apply and apply_batch: ValueError for a wrong
    length, a non-int element or one outside [0, 2^m); else a (batch, n)
    uint16 array, range tested in one numpy pass over the whole batch."""
    rows = [_as_row(ctx, f, b) for b, f in enumerate(vectors)]
    arr = np.frombuffer(b"".join(rows), dtype=np.uint16).reshape(len(rows), ctx.n)
    if rows and arr.max() >> ctx.m:
        b = int(np.argmax(arr.max(axis=1) >> ctx.m))
        raise _outside_field(ctx, b, rows[b])
    return arr


# ---------------------------------------------------------------------------
# Reading the stages: the dense matrix and the coset-pair structure.
# ---------------------------------------------------------------------------


def materialize(plan: Plan) -> np.ndarray:
    """Un-permuted dense n x n matrix of the plan as a uint16 array, composed
    from the stage entries without applying the plan; equals the
    Vandermonde matrix when the construction is sound.

    Column c0 + j of binary . blocks is the XOR over t < d of block k's
    entry (t, j) times column c0 + t of the matrix (d the block's size, c0
    its offset); row c0 + j of blocks . binary is the XOR of entry (j, t)
    times row c0 + t.  XOR of stored entries only: neither the kernels nor
    the field tables take part.
    """
    stage, bits = plan.stage(BlockStage), plan.stage(BinaryMatrix).bits()
    blocks_first = isinstance(plan.stages[0], BlockStage)
    x = np.ascontiguousarray(bits.T) if blocks_first else bits
    coef = stage.entries if blocks_first else stage.entries.swapaxes(1, 2)
    y = np.zeros(x.shape, dtype=np.uint16)  # the columns (blocks first) or rows of the product
    for k, (c0, d) in enumerate(zip(accumulate(stage.sizes, initial=0), stage.sizes)):
        for t in range(d):  # one basis row at a time: no (d, d, n) temporary
            y[c0 : c0 + d] ^= x[c0 + t] * coef[k, t, :d, None]
    out = np.empty_like(y)
    out[np.ix_(plan.out_perm, plan.in_perm)] = y.T if blocks_first else y
    return out


def coset_block_report(plan: Plan) -> tuple[np.ndarray, np.ndarray]:
    """Read-only structure report for the coset-pair sub-blocks of the
    binary stage: two (l, l) bool arrays indexed [output coset, input coset]
    in partition order.  chain flags the pairs whose consecutive rows are
    right rotations, circulant those that are also square and wrap around
    (last row rotated right gives the first).  No algorithm consumes this;
    it documents structure.
    """
    if plan.out_perm != plan.in_perm:
        raise ValueError("block report requires coset-ordered output rows")
    bits = plan.stage(BinaryMatrix).bits()
    sizes = np.array(plan.partition.sizes())
    starts = np.cumsum(sizes) - sizes
    # prev[c]: the position before c in its coset group, cyclically, so that
    # row prev[r] rotated right is what row r holds in a rotation chain
    group_start = np.repeat(starts, sizes)
    prev = group_start + (np.arange(len(bits)) - group_start - 1) % np.repeat(sizes, sizes)
    same = bits == bits[np.ix_(prev, prev)]
    wrap = np.logical_and.reduceat(same[starts], starts, axis=1)  # first row against the last
    same[starts] = True
    chain = np.logical_and.reduceat(np.logical_and.reduceat(same, starts, axis=0), starts, axis=1)
    return chain, chain & wrap & (sizes[:, None] == sizes)


# ---------------------------------------------------------------------------
# The numpy kernels (exact) of apply and apply_batch.
#
# They run a plan's stages over one (width, batch) uint16 array, a column
# per vector, between one gather for each permutation: a block stage for
# the multiplications (log/exp lookups; zero has a sentinel log that exp
# maps back to 0) and a binary stage for the additions (Four Russians on the
# bytes of each row).  Each reads its stage's one array as stored: the
# padded block entries, the packed matrix bytes.  Table lookups and XOR
# only, so both are exact.  The kernels count nothing themselves: a counted
# apply takes its counts from the plan's cached structural counts
# (Plan._counts) plus one dot product on the block stage's input for the
# data-dependent multiplications.  Each plan builds its kernels once, on
# first use (Plan._kernels), copying no stage.  A kernel writes only arrays
# it allocates per call, so a plan stays safe to share across threads.
#
# One chunk rule serves both kernels.  A small call is bound by the number
# of numpy calls it makes, a large one by memory traffic, so each kernel
# runs one loop whose chunk holds as many byte groups (binary stage) or
# block columns (block stage) as give _GATHER looked-up elements, and at
# least one.  One chunk is one take and one XOR across its groups or
# columns.  So a single vector at m = 8 runs each stage as one take and
# the binary stage at m = 10 as 4.  Once the elements one group or column
# looks up pass _GATHER / 2 (rows x batch, or l x w x batch for the padded
# blocks), a chunk is one group or column, the narrowest width: a
# 32-vector batch at m >= 10 runs there.  The binary stage builds its
# subset-XOR tables once per call, _GATHER // (32 batch) groups at a time,
# so 8 _GATHER table entries.
#
# Per kernel, in µs: the mean over the six tags of the min of 5 timings, on
# a 2-CPU x86-64 host with numpy 2.4.
#
#              binary stage          block stage
#   m     batch 1   batch 32     batch 1   batch 32
#   8        34       198           13        119
#  10       204      1689           31        492
#  11       728      3890           55       1241
#
# The batch-32 cells at m = 10 and 11 run at the narrowest width; they move
# by up to 7% from run to run.  Budgets of 2^13, 2^14, 2^15, 2^16 and 2^17
# elements gave about 1940, 2230, 2360, 2350 and 2180 vectors/s on
# perfbench's counted_m10 (single vectors at m = 10), so the budget is
# 2^15; rs255_stream (m = 8) read about 9750 at all five.
# ---------------------------------------------------------------------------

_GATHER = 1 << 15
_Kernel = Callable[[np.ndarray], np.ndarray]


def _xor_fold(acc: np.ndarray, terms: np.ndarray) -> None:
    """acc ^= the XOR of terms over its first axis.  A single term goes in
    directly: a reduce over one would first copy it."""
    acc ^= terms[0] if len(terms) == 1 else np.bitwise_xor.reduce(terms, axis=0)


def _block_kernel(ctx: FieldContext, stage: BlockStage) -> _Kernel:
    """Block k multiplies the d_k positions of a coset-ordered vector that
    follow the blocks before it.  The stage's padded (l, w, w) entries run
    over the padded (l, w, batch) grid in rounds of c columns j, c =
    _GATHER // (l w batch) held to 1..w.  A round is one add of column j's
    logs to input j's logs for its c columns, into a (c, l, w, batch)
    buffer, one take from exp and one XOR across the c products.  A pad
    entry's sentinel log sends its products to exp's zero tail, and keep
    drops the pad rows."""
    n = ctx.n
    log = np.array(ctx.log, dtype=np.int32)
    log[0] = 2 * n  # any sum with the sentinel lands in exp's zero tail
    exp = np.zeros(4 * n + 1, dtype=np.uint16)
    exp[: 2 * n] = ctx.exp * 2
    pos, keep = stage.grid()
    l, w = pos.shape
    col_logs = np.moveaxis(log[stage.entries], 2, 0)[..., None]  # column j of every block: (w, l, w, 1)
    pos_by_col = np.ascontiguousarray(pos.T)

    def run(x: np.ndarray) -> np.ndarray:
        batch = x.shape[1]
        xs = log[x][pos_by_col][:, :, None]  # input j of every block: (w, l, 1, batch)
        c = max(1, min(w, _GATHER // max(l * w * batch, 1)))
        acc = np.zeros((l, w, batch), dtype=np.uint16)
        total = np.empty((c, l, w, batch), dtype=np.int32)
        term = np.empty(total.shape, dtype=np.uint16)
        for j0 in range(0, w, c):
            n_cols = min(c, w - j0)
            np.add(col_logs[j0 : j0 + c], xs[j0 : j0 + c], out=total[:n_cols])
            _xor_fold(acc, np.take(exp, total[:n_cols], out=term[:n_cols], mode="clip"))
        return acc.reshape(pos.size, batch)[keep]

    return run


def _binary_kernel(matrix: BinaryMatrix) -> _Kernel:
    """Four Russians on bytes: byte g of a row selects among columns
    8g..8g+7, so out ^= table_g[byte g] over all groups g.  The selectors
    are matrix.packed itself, whose packed[g] holds byte g of every row.
    The groups go k at a time, k = _GATHER // (rows batch) held to
    1..width: one take from their k tables laid end to end, at byte g +
    256 i for the i-th of them, and one XOR across the k lookups."""
    sel = matrix.packed
    width, rows = sel.shape

    def run(x: np.ndarray) -> np.ndarray:
        batch = x.shape[1]
        cols = np.zeros((width * 8, batch), dtype=np.uint16)
        cols[: matrix.cols] = x
        cols = cols.reshape(width, 8, batch)
        out = np.zeros((rows, batch), dtype=np.uint16)
        step = max(1, _GATHER // (32 * max(batch, 1)))
        k = max(1, min(width, _GATHER // max(rows * batch, 1)))
        offsets = 256 * np.arange(k, dtype=np.intp)[:, None]
        idx = np.empty((k, rows), dtype=np.intp)
        looked_up = np.empty((k, rows, batch), dtype=np.uint16)
        for g0 in range(0, width, step):
            part = cols[g0 : g0 + step]
            table = np.zeros((len(part), 256, batch), dtype=np.uint16)
            for bit in range(8):
                lo = 1 << bit
                np.bitwise_xor(table[:, :lo], part[:, bit, None], out=table[:, lo : 2 * lo])
            for h in range(0, len(part), k):
                tabs = table[h : h + k]
                n_tabs = len(tabs)
                at = sel[g0 + h : g0 + h + n_tabs]
                if n_tabs > 1:  # a lone table needs no offsets
                    at = np.add(at, offsets[:n_tabs], out=idx[:n_tabs])
                flat = tabs.reshape(n_tabs * 256, batch)
                _xor_fold(out, np.take(flat, at, axis=0, out=looked_up[:n_tabs], mode="clip"))
        return out

    return run


def _batch_stages(plan: Plan) -> tuple[np.ndarray, tuple[_Kernel, ...], np.ndarray]:
    kernels = tuple(
        _binary_kernel(s) if isinstance(s, BinaryMatrix) else _block_kernel(plan.ctx, s)
        for s in plan.stages
    )
    return np.asarray(plan.in_perm, dtype=np.intp), kernels, np.argsort(plan.out_perm)


def _run_kernels(plan: Plan, rows: np.ndarray, stage1: OpCount | None = None) -> np.ndarray:
    """Validated (batch, n) input rows gathered into stage order, through
    the plan's stage kernels and scattered to output order; the outputs
    come back as the columns of an (n, batch) array.  With stage1, the
    block stage adds w . [x > 1] over its input x to stage1.mults."""
    in_idx, kernels, out_idx = plan._kernels
    x = rows.T[in_idx]
    weights = plan._counts.mult_weights if stage1 is not None else repeat(None)
    for kernel, w in zip(kernels, weights):
        if w is not None:
            stage1.mults += int((w @ (x > 1)).sum())
        x = kernel(x)
    return x[out_idx]


def apply_batch(plan: Plan, vectors: list[list[int]]) -> list[list[int]]:
    """Apply one plan to many vectors with the numpy kernels; equals apply."""
    x = _run_kernels(plan, validate_vectors(plan.ctx, vectors))
    return x.T.tolist()


# ---------------------------------------------------------------------------
# Structural operation counts (no transform execution required).
# ---------------------------------------------------------------------------


def structural_stage1_counts(plan: Plan) -> tuple[int, int]:
    """Worst-case (mults, adds) for the block stage.

    Multiplications follow the skip-units policy: entries equal to 0 or 1 are
    free, so a d x d circulant of non-unit conjugates costs d^2 and a dense
    block costs its count of non-unit entries.
    """
    return _stage1_counts(plan.stage(BlockStage))


def _stage1_counts(stage: BlockStage) -> tuple[int, int]:
    """The entries > 1, and d(d - 1) per block."""
    return int((stage.entries > 1).sum()), sum(d * (d - 1) for d in stage.sizes)


def stage2_naive_adds(plan: Plan) -> int:
    """Exact additions of the naive binary stage: sum of (popcount - 1)."""
    pc = plan.stage(BinaryMatrix).row_popcounts()
    return int(pc.sum() - np.count_nonzero(pc))


class _Counts(NamedTuple):
    """Per plan, what a counted apply adds to its tally beyond the
    data-dependent stage-1 multiplications: those come from mult_weights,
    one entry per stage of the plan (None at the binary stage)."""

    mult_weights: tuple[np.ndarray | None, ...]
    unit_mults: int  # stage-1 multiplications under count_units=True
    stage1_adds: int
    naive_adds: int
    four_russians_adds: int


def _plan_counts(plan: Plan) -> _Counts:
    """Counted from the stages as the reference walk issues the operations,
    not through structural_stage1_counts or stage2_naive_adds, so that a
    check of a tally against those compares two separate codings."""
    stage = plan.stage(BlockStage)
    sizes = np.array(stage.sizes)
    issued = (sizes > 1) | (stage.entries[:, 0, 0] != 1)  # all blocks but the pass-throughs
    a = plan.stage(BinaryMatrix)
    return _Counts(
        tuple(_mult_weights(s) if s is stage else None for s in plan.stages),
        int((sizes[issued] ** 2).sum()),
        int((sizes * (sizes - 1)).sum()),
        int(np.maximum(a.row_popcounts() - 1, 0).sum()),
        binmat.make_plan(a.cols).predicted_adds(a.n_rows),
    )


def _mult_weights(stage: BlockStage) -> np.ndarray:
    """w_j: the entries > 1 in column j of the block covering position j;
    0 under a pass-through block, which has no entry > 1."""
    _, keep = stage.grid()
    return (stage.entries > 1).sum(axis=1).ravel()[keep]


def stage1_bound(ctx: FieldContext) -> int:
    """n * log2(n + 1) = n * m, the multiplication budget."""
    return ctx.n * ctx.m


# The bench path counts without building the binary matrix, for speed: at
# m = 14, tf2003's counts take 0.03 s against 0.36 s to build and count, and
# goertzel's 0.6 s against 1.2 s (2-CPU host).  The naive-stage addition
# count is aggregated per coset: as i runs over Z_n, a^(i*rep) sweeps the
# subgroup generated by a^g, g = gcd(rep, n), hitting each value g times, as
# a^(i*g) does.  So layouts that agree in basis and g have columns with the
# same ones, and one column serves them.


def structural_counts_for_tag(ctx: FieldContext, tag: str) -> tuple[int, int, int]:
    """(stage1 mults, stage1 adds, stage2 naive adds) of a plan without
    building it.  Transposing goertzel's blocks and matrix keeps both counts,
    and every row of a binary matrix here holds a one, hence the - n."""
    n = ctx.n
    layouts = _layouts_for_tag(ctx, cyclotomic_cosets(n), tag)
    shared = Counter(CosetLayout(gcd(lay.rep, n), (), lay.basis) for lay in layouts)
    keys = list(shared)
    total_ones = 0
    for k, column in _columns(ctx, range(n), keys):
        total_ones += shared[keys[k]] * int(np.count_nonzero(np.unpackbits(column.view(np.uint8))))
    return (*_stage1_counts(_d_blocks(ctx, [lay.basis for lay in layouts])), total_ones - n)
