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
  fed2006a/b  normal bases (b: turned by one), output in coset order too
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

import operator
import struct
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import gcd
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import binmat, scratch
from .field import FieldContext, OpCount
from .structure import (
    BinaryMatrix,
    CosetPartition,
    bit_planes,
    coordinate_matrix,
    coordinate_tables,
    cyclotomic_cosets,
    find_normal_basis,
    kernel_layout,
    stacked_input,
    stored_columns,
    table_kernel,
    transpose_matrix,
    xor_fold,
)

GOERTZEL = "goertzel"
BLAHUT2008 = "blahut2008"
FT2002 = "ft2002"
TF2003 = "tf2003"
FED2006A = "fed2006a"
FED2006B = "fed2006b"

FACTORED_TAGS = (FT2002, TF2003, FED2006A, FED2006B)
ALL_TAGS = (GOERTZEL, BLAHUT2008) + FACTORED_TAGS
_NORMAL = (TF2003, FED2006A, FED2006B)  # normal bases: one stored binary matrix


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
        the largest size, that is 0 past each block's size.  Marks entries
        read-only, as plans share them."""
        sizes = tuple(map(int, sizes))
        w = max(sizes, default=0)
        if getattr(entries, "dtype", None) != np.uint16 or np.shape(entries) != (len(sizes), w, w):
            raise ValueError(f"block entries must be a ({len(sizes)}, {w}, {w}) uint16 numpy array")
        real = _within(sizes, w)
        if entries[~(real[:, :, None] & real[:, None, :])].any():
            raise ValueError("entries set past a block's size")
        entries.flags.writeable = False
        self.entries = entries
        self.sizes = sizes

    def __reduce__(self):
        """Copies and pickles go through __init__: checked and read-only."""
        return BlockStage, (self.entries, self.sizes)

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
    def _kernels(self) -> tuple[_Kernel, ...]:
        """The exact numpy kernels of the stages of apply and apply_batch,
        which take the permutations into their gathers, built on first use
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
# Coset bases: one basis per coset fixes both of its stages, the D block and
# the binary matrix's column group of the coset.
# ---------------------------------------------------------------------------


def _normal_bases(ctx: FieldContext, partition: CosetPartition) -> dict[int, tuple[int, ...]]:
    """One normal basis per occurring coset size, a conjugate sequence that
    starts at its generator."""
    bases: dict[int, tuple[int, ...]] = {}
    for size in sorted(set(partition.sizes())):
        nb = find_normal_basis(ctx, size)
        if any(ctx.mul(b, b) != nb[(j + 1) % size] for j, b in enumerate(nb)):
            raise ArithmeticError(f"normal basis of size {size} is not a conjugate sequence")
        bases[size] = nb
    return bases


def _bases_for_tag(ctx: FieldContext, partition: CosetPartition, tag: str) -> list[tuple[int, ...]]:
    """The basis of each coset of the partition, leader s and size d, in the
    tag's family; the coset's representative is its leader:

      goertzel, blahut2008  the power basis (1, b, ..., b^(d-1)), b = a^s
      ft2002                the same, but the standard basis when d = m
      tf2003, fed2006a/b    the normal basis of GF(2^d) (fed2006b shows
                            it turned by one; see _assemble)
    """
    if tag not in ALL_TAGS:
        raise ValueError(f"unknown algorithm tag {tag!r}")
    n, m = ctx.n, ctx.m
    by_size = _normal_bases(ctx, partition) if tag in _NORMAL else {}
    if tag == FT2002:
        by_size = {m: tuple(1 << t for t in range(m))}
    return [by_size.get(c.size) or tuple(ctx.exp[(c.leader * t) % n] for t in range(c.size)) for c in partition.cosets]


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
# Builders: one for all six plans.  Every binary matrix here (A, R and the
# combine matrix) holds, per coset, the coordinates of a^(i*rep) in a small
# basis.  structure.coordinate_matrix, beside the BinaryMatrix whose parts
# it writes, packs it a chunk of cosets at a time, as many as give _GATHER
# elements of points x cosets (the kernels' budget, below) and at least
# one, so one coset at a time from m = 15 on, each periodic part on its own
# points (_periodic_parts); R, the transpose, is packed as the combine
# matrix is and transposed a slab at a time.
#
# A plan is its basis family's core, D, coset order and binary matrix, shown
# in the tag's order.  Two relations of the paper make the families.
# goertzel is blahut2008 transposed: the same core, its stages transposed
# and reversed and its permutations swapped.  fed2006a and fed2006b are
# tf2003 up to free permutations, so the three keep one set of part
# packings per ctx: tf2003's A, rows in natural order (so its parts are
# periodic for all three), which each shows in its own row and
# column orders (BinaryMatrix.order).  fed2006a/b show its rows in out_perm,
# the coset order.  Squaring rotates normal-basis coordinates by one, and
# fed2006b's basis is tf2003's rotated by one, on rep = leader 2^r; so its
# column c0 + t of a coset of size d, coordinate t + 1 of a^(i rep) in
# tf2003's basis, is tf2003's column c0 + (t + 1 - r) mod d, and its D's
# row t is the core's row t + 1 mod d.  A build takes the core by reference
# from a live plan of its family that holds it as it is (blahut2008 or
# goertzel; tf2003 or fed2006a), transposing it with a copy of D when the
# orientation differs, so that twins share no array: each part's packing
# transposed into a new one a slab at a time, about 0.6 ms at m = 11
# against 3.3-6 ms to assemble.  Otherwise it assembles the core from the
# family's bases, a normal-basis core with the parts of a live fed2006b if
# any.  At m = 8 on a 2-CPU host a warm fed2006a builds in
# 0.04-0.05 ms and a warm fed2006b in 0.19 ms, where computing their own
# bases and D took 0.26-0.28 and 0.30-0.32 ms.  The first plan built on a
# field lends its coset partition to the rest.  _live finds them: it holds
# plans weakly, so it keeps none alive, and the first live plan of a tag
# stays the one found; a live plan holds its ctx, so the id in a live key
# names that ctx alone.  It is keyed by the object, not the field, so a
# fresh build_field builds cold.  The shared parts and D are read-only,
# and no plan writes its stages.
# ---------------------------------------------------------------------------


def _periodic_parts(n: int, partition: CosetPartition) -> list[tuple[int, Sequence[int]]]:
    """The parts of a binary stage, each its row period and its cosets'
    indices: first every coset whose class keeps the full period n, then
    each class that splits, by increasing g.  The class of g = gcd(rep, n)
    has period n / g (see the kernel comment), and its columns are its
    cosets' sizes summed, one per i in Z_n with gcd(i, n) = g.  It splits
    when g > 1 and the bits it saves, its columns times n - n / g, exceed
    _SPLIT_BITS; g = n is the class of the coset {0}."""
    g = np.gcd([coset.leader for coset in partition.cosets], n)
    cols = np.bincount(g, partition.sizes())  # the columns of each class
    splits = [c for c in np.flatnonzero(cols).tolist() if c > 1 and cols[c] * (n - n // c) > _SPLIT_BITS]
    full = np.flatnonzero(np.isin(g, splits, invert=True))
    return ([(n, full)] if len(full) else []) + [(n // c, np.flatnonzero(g == c)) for c in splits]


# per tag, the tags of its family whose plans hold the core as it is
_LENDERS = (
    dict.fromkeys((GOERTZEL, BLAHUT2008), (GOERTZEL, BLAHUT2008))
    | dict.fromkeys(_NORMAL, (TF2003, FED2006A))
    | {FT2002: (FT2002,)}
)
_live: weakref.WeakValueDictionary[tuple[int, str], Plan] = weakref.WeakValueDictionary()


def _build(ctx: FieldContext, tag: str) -> Plan:
    """A new plan, assembled on the partition of, and with the live plans
    of, ctx; registered unless a plan of its tag is already live there."""
    live = {t: p for t in ALL_TAGS if (p := _live.get((id(ctx), t))) is not None}
    plan = _assemble(ctx, next(iter(live.values())).partition if live else cyclotomic_cosets(ctx.n), tag, live)
    _live.setdefault((id(ctx), tag), plan)
    return plan


def _assemble(ctx: FieldContext, partition: CosetPartition, tag: str, live: dict[str, Plan]) -> Plan:
    """Input in coset order through the blocks D, then the binary matrix A;
    row r of A holds the coordinates of a^(out_perm[r] * rep) in each coset's
    basis.  fed2006a/b keep the output in coset order too.  goertzel is
    blahut2008 transposed: W is symmetric, so it equals D^T A^T as well,
    with the two permutations swapped; A^T is the remainder matrix R.  The
    core, D (D^T for goertzel), coset order and A (R), comes from a live
    plan of the tag's family, else from the family's bases."""
    n, normal, transposed = ctx.n, tag in _NORMAL, tag == GOERTZEL
    # the tag itself first, which lends without a transpose
    lender = next((live[t] for t in sorted(_LENDERS.get(tag, ()), key=tag.__ne__) if t in live), None)
    if lender is not None:
        d, matrix = lender.stage(BlockStage), lender.stage(BinaryMatrix)
        coset_order = lender.out_perm if lender.tag == GOERTZEL else lender.in_perm
        if (lender.tag == GOERTZEL) != transposed:
            d, matrix = BlockStage(d.entries.swapaxes(1, 2).copy(), d.sizes), transpose_matrix(matrix, _GATHER)
        stored_cols = matrix.order[1]  # tf2003's or fed2006a's: A's columns in coset order
    else:
        bases = _bases_for_tag(ctx, partition, tag)
        coset_order = tuple(i for coset in partition.cosets for i in coset.elements)
        d = _d_blocks(ctx, bases)
        if transposed:
            d = BlockStage(d.entries.swapaxes(1, 2), d.sizes)
        reps = [coset.leader for coset in partition.cosets]
        parts = _periodic_parts(n, partition)
        if normal and FED2006B in live:
            matrix = live[FED2006B].stage(BinaryMatrix)
            stored_cols = stored_columns(d.sizes, [ks for _, ks in parts])
        else:
            matrix = coordinate_matrix(ctx, range(n), reps, bases, _GATHER, transposed, parts)
            stored_cols = matrix.order[1]
    if transposed:
        return Plan(tag, ctx, partition, tuple(range(n)), (matrix, d), coset_order)
    cols = None
    if tag == FED2006B:
        # tf2003's bases turned by one: row t of a block of D is tf2003's
        # row t + 1 mod d, and the coset of each basis's new first element
        # starts there, at leader 2^r, so its position c0 + t holds
        # tf2003's c0 + (t + r) mod d and its column shows c0 + (t + 1 - r)
        size, t = np.array(d.sizes)[:, None], np.arange(d.entries.shape[1])
        d = BlockStage(d.entries[np.arange(len(size))[:, None], np.where(t < size, (t + 1) % size, t)], d.sizes)
        pos, keep = d.grid()  # pos[k, t] = c0 + t
        c0, r = pos[:, :1], np.zeros_like(size)
        for first in set(d.entries[:, 0, 0].tolist()):  # np.unique's first call costs 1.7 MiB (numpy 2.4)
            p = coset_order.index(ctx.log[first])
            k = np.count_nonzero(c0 <= p) - 1
            r[k] = p - c0[k]
        at, cols = ((pos - c0 + np.array([r, 1 - r])) % size + c0).reshape(2, -1)[:, keep]
        coset_order = tuple(np.take(coset_order, at).tolist())
    out_perm = coset_order if tag in (FED2006A, FED2006B) else tuple(range(n))
    if normal:
        if stored_cols is not None:  # through tf2003's columns to where they are stored
            cols = stored_cols if cols is None else stored_cols[cols]
        matrix = BinaryMatrix(matrix.parts, (None if tag == TF2003 else out_perm, cols))
    return Plan(tag, ctx, partition, coset_order, (d, matrix), out_perm)


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
    """Coset-ordered output on both sides; variant 'b' turns the normal basis
    by one (generator squared) and starts the generator's coset at its
    exponent."""
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
    four_russians the closed form of binmat's Four-Russians kernel.  Stage-1
    multiplications by 0 or 1 are free, so they depend on the data and are
    counted on the block stage's input x as w . [x > 1], w_j being the
    entries > 1 in column j of the block covering position j.  Without a
    tally four_russians changes nothing, since both kernels give the same
    output.
    """
    rows = validate_vectors(plan.ctx, [f])
    if tally is None:
        return _run_kernels(plan, rows)[:, 0].tolist()
    counts = plan._counts
    x = _run_kernels(plan, rows, tally.stage1)
    tally.stage1.adds += counts.stage1_adds
    tally.stage2.adds += counts.four_russians_adds if four_russians else counts.naive_adds
    return x[:, 0].tolist()


def validate_vectors(ctx: FieldContext, vectors) -> np.ndarray:
    """The input boundary of apply, apply_batch and the oracles: ValueError
    naming the vector for anything but a sequence of n ints in [0, 2^m),
    and the first element outside the field when one is at fault; else a
    (batch, n) uint16 array.  Each vector is packed as n native uint16 by
    one struct call, which takes what operator.index takes (ints, Python
    bools, numpy integer scalars, so a bytes vector's ints too) in
    [0, 2^16); the field is then tested in one pass over the array."""
    n, m = ctx.n, ctx.m
    pack = struct.Struct(f"={n}H").pack
    rows, error = [], None
    try:
        for f in vectors:
            if len(f) != n:
                raise ValueError(f"vector {len(rows)}: expected length {n}, got {len(f)}")
            try:
                rows.append(pack(*f))
            except struct.error:
                raise _element_error(f, len(rows), n, m) from None
    except TypeError:  # vectors is not iterable, or vector len(rows) has no length or does not iterate
        error = ValueError(f"vector {len(rows)}: expected a sequence of {n} ints")
    except ValueError as fault:
        error = fault
    arr = np.frombuffer(b"".join(rows), dtype=np.uint16).reshape(len(rows), n)
    if rows and arr.max() > n:  # the vectors packed before a fault come first
        b = int(np.argmax(arr > n)) // n  # the first vector holding an element outside the field
        raise _element_error(arr[b].tolist(), b, n, m)
    if error is not None:
        raise error
    return arr


def _element_error(f, b: int, n: int, m: int) -> ValueError:
    """The error for vector b: it names the first element that is not an
    int in [0, 2^m), or the vector alone when there is none (f yields
    other than len(f) elements)."""
    for j, x in enumerate(f):
        try:
            if 0 <= operator.index(x) <= n:
                continue
        except TypeError:
            pass
        return ValueError(f"vector {b}, index {j}: {x!r} is not in GF(2^{m})")
    return ValueError(f"vector {b}: expected a sequence of {n} ints")


# ---------------------------------------------------------------------------
# Reading the stages: the dense matrix and the coset-pair structure.
# ---------------------------------------------------------------------------


def materialize(plan: Plan) -> np.ndarray:
    """Un-permuted dense n x n matrix of the plan as a uint16 array, composed
    from the stage entries without applying the plan; equals the
    Vandermonde matrix when the construction is sound.  For a blocks-first
    plan the result is a transposed view of a fresh array, not C-ordered.

    Column c0 + j of binary . blocks is the XOR over t < d of block k's
    entry (t, j) times column c0 + t of the matrix (d the block's size, c0
    its offset); row c0 + j of blocks . binary is the XOR of entry (j, t)
    times row c0 + t.  XOR of stored entries only: neither the kernels nor
    the field tables take part.  Both permutations are undone by one np.ix_
    gather.
    """
    stage, blocks_first = plan.stage(BlockStage), isinstance(plan.stages[0], BlockStage)
    x = plan.stage(BinaryMatrix).bits(transpose=blocks_first)
    coef = stage.entries if blocks_first else stage.entries.swapaxes(1, 2)
    y = np.zeros(x.shape, dtype=np.uint16)  # the columns (blocks first) or rows of the product
    for k, (c0, d) in enumerate(zip(accumulate(stage.sizes, initial=0), stage.sizes)):
        for t in range(d):  # one basis row at a time: no (d, d, n) temporary
            y[c0 : c0 + d] ^= x[c0 + t] * coef[k, t, :d, None]
    inv_in, inv_out = np.argsort(plan.in_perm), np.argsort(plan.out_perm)
    if blocks_first:  # y[c] is column c of the stage-order product
        return y[np.ix_(inv_in, inv_out)].T
    return y[np.ix_(inv_out, inv_in)]


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
# They run a plan's two stages over one (width, batch) uint16 array, a
# column per vector: a block stage for the multiplications (log/exp
# lookups; zero has a sentinel log that exp maps back to 0) and a binary
# stage for the additions.  Each reads its stage's arrays as stored: the
# padded block entries, the parts' packed bytes.  Table lookups, AND and
# XOR only, so all are exact.  The permutations, and the order in which a
# binary matrix shows its stored rows and columns, cost no gather of their
# own: each stage kernel takes the one next to it into a gather it already
# does, composed when the kernels are built.  The block stage reads its
# padded grid from the input rows in_perm[pos] when it runs first, and
# drops its pad rows by reading keep: at keep[shown] when the binary stage
# follows, shown[j] being the column that stored column j shows (the class
# order of the parts, and fed2006b's column order; a pad column between
# parts reads any row, as its packed bits are 0), at keep[argsort(out_perm)]
# for goertzel's output order when it runs last.  The binary kernels read
# every row of their input, so an output order would be one gather after
# that stage, inside its kernel; fed2006a/b show tf2003's stored rows in
# their output order, so the two compose to the identity.  An identity
# costs no pass: goertzel's input and every other plan's binary-stage
# output.  A call is two kernel calls.  The
# kernels count nothing themselves: a counted apply takes its counts from
# the plan's cached structural counts (Plan._counts) plus one dot product
# on the block kernel's input for the data-dependent multiplications, with
# mult_weights indexed in that input's order.  Each plan builds its kernels
# once, on first use (Plan._kernels), copying no stage and reading no
# count.
#
# The block kernel, Four Russians and the column tables' lookups lay their
# temporaries out in one scratch buffer per thread (gfft.scratch), shared
# by every plan and both
# stages, each from offset 0: a stage's scratch is dead by the time the
# next stage runs.  Each kernel returns a result it allocates itself, so no
# output aliases the scratch and a plan stays safe to share across threads.
# The buffer grows to the largest call the thread has made and stays: 1.1
# MiB after 32 vectors at m = 11, 2.3 MiB after 2 at m = 16 and 36 MiB
# after 32 at m = 16.  A call finds its arrays in the buffer with one
# lookup, by kernel and batch, not a view per temporary, so a single
# vector pays nothing for it.  With temporaries allocated per call, those
# of 128 KiB or more were mapped afresh on each call whenever glibc had not
# yet raised its mmap threshold: 32 vectors at m = 11 took 0-320 minor
# faults a call in a fresh process (1700-2500 with the threshold pinned at
# its 128 KiB default), and a 4 s perfbench batch_m11 run 155 K in its
# rounds, against 2 K now, nearly all of them first calls.  The plane
# kernel's temporaries stay per call.  From m = 11 on, where it alone runs
# a few vectors, one vector at m = 11 takes 1408 faults a call with the
# threshold pinned (none with it free); at m = 10 its AND results were
# about 327 KB and took 160, where the column tables take none.
#
# A binary stage is a tuple of row-periodic parts (structure.BinaryMatrix).
# Every binary matrix here holds, per coset, the coordinates of a^(i rep),
# and as i runs over Z_n that element sweeps the subgroup generated by
# a^g, g = gcd(rep, n) (see _naive_adds), so the column group of every
# coset of class g repeats with period n / g down the rows, in any basis.
# _periodic_parts stores each class that the size rule splits as a part of
# n / g rows, built on those points only, and the rest as one part of n
# rows, first; the class order is composed into keep (goertzel's into its
# input gather), so a call gains no gather.  Both kernels read the input
# once: the plane kernel packs the planes of all stored columns in one
# pass, and each part runs its own chunk loop on its p rows; one reshape-
# XOR folds a short accumulator into the full one, tiled n / p times,
# before the parity step (the parity of an XOR is the XOR of the
# parities).  Four Russians builds each part's tables from its own groups,
# looks them up on its p rows and XORs its output tiled.  goertzel's R is
# the transpose: a class's rows repeat in the input index, so R_k x =
# R_k,short fold_p(x), fold_p XOR-summing x over the residues mod p.  Its
# parts sit one under the other along R's rows, and the kernels run them
# on the folds of the input stacked from byte boundaries (the full part on
# x itself), each writing its rows in place.  One part is the dense matrix
# and runs the loop it ran before the split.  The counts stay structural.
#
# The size rule, a property of n: a class of g > 1 splits when the bits it
# saves, its columns times n - n / g, exceed _SPLIT_BITS = 3 x 2^16, its
# columns being its cosets' sizes summed, read off the partition with the
# class of each coset by one gcd and one bincount.  So m <= 9, m = 11 and
# m = 13 (whose classes save at most 172 K bits) keep one part; m = 10
# splits the multiples of 3 (period 341, 205 K bits) but not the 11- and
# 31-classes (56 K and 20 K); m = 12 splits 9 of its 23 classes below the
# full period, m = 14 and m = 15 5 of 7, m = 16 13 of 15 (each pinned by a
# test).  Binary stage alone, µs, median of 9 alternating runs (2-CPU
# host, numpy 2.4), dense against the rule's parts and other splits:
#
#    m  vectors  tag        dense  the rule      other splits
#    8     1     tf2003        26  (one part)    all 8 parts 61
#    8    32     tf2003       147  (one part)    all 302
#   10     1     tf2003       166  146 (2 parts) 3 parts 143, 4 149, all 8 187
#   10    32     tf2003      1658  1450          3 parts 1369, all 1454
#   10     1     goertzel     169  158           all 197
#   10    32     goertzel    1581  1511          all 1696
#   11     1     tf2003       610  (one part)    period 89 split 595
#   11    32     tf2003      4288  (one part)    4270
#   11     1     goertzel     610  (one part)    629
#   12     1     tf2003      2217  1431 (10)     all 24 parts 1622
#   12    32     tf2003     13748  9502          9100
#   12     1     goertzel    2233  1685          1657
#   12    32     goertzel   16914  12971         14155
#
# Each part costs a chunk loop, a tiled XOR and, for goertzel, a fold of
# the input, about 5-10 µs of numpy calls at m = 10: a class pays when the
# bytes it saves outweigh them.  At m = 10 the 11-class ties on one vector
# (it gains on 32, where no workload runs), and at m = 11 the period-89
# class costs goertzel 3% on one vector and its fold on every build, so
# both stay whole.  A split also assembles each class on its n / g points
# only: at m = 16 tf2003 builds in 0.9-1.2 s, 1.6-2.1 s dense.
#
# The binary stage has three kernels.  Each call picks bit planes or Four
# Russians from its input's shape alone, and a call on planes runs on the
# matrix's column tables where it has them (below).  The stage is
# GF(2)-linear, so a call of batch
# vectors of m-bit elements is m batch products over GF(2), one per bit
# plane.  The plane kernel pays one AND and one XOR per packed byte and
# plane; Four Russians (a subset-XOR table per byte group, looked up at
# each row's byte) pays about one lookup per packed byte and vector, plus
# building the tables.  So planes win for a few vectors and Four Russians
# for many: a call runs on planes when it has at most _PLANES = 32 planes
# and their accumulator (planes x rows bytes) holds at most _PLANE_BYTES =
# 2^18, that is up to 3 vectors at m = 10, 2 up to m = 13 and one at m =
# 14.  Up to m = 13 the crossover lay above the bound: at 33-44 planes
# for m = 11, 36-48 for m = 12 and past 50 for m <= 10.  From m = 14 on
# each table serves 2^14 rows or more and Four Russians costs about the
# same for one vector or two.  With the kernels below (tf2003, medians of
# 15, 11 and 5 alternating calls, host speed 1.12 by the probe below),
# planes against Four Russians took: one vector at m = 14, 51 against 43
# ms; two vectors at m = 14 (448 KiB of planes), 103 against 49 ms; one
# vector at m = 15 (480 KiB), 160 against 163 ms; one vector at m = 16,
# 923 against 798 ms.  No accumulator bound keeps the 448 KiB call off the
# planes and puts the 480 KiB one on them, and the two kernels are within
# 10% there (goertzel: 139 against 152 ms), so one vector runs Four
# Russians from m = 15 on.  One vector at m = 14 stays on planes, though
# Four Russians was as fast or faster there (70 against 69 ms at host
# speed 0.60; 49 against 42 for goertzel at 1.13).
#
# The column tables (structure.table_kernel) are Four Russians with the
# tables on the matrix's side: per part, the XOR of every subset of each t
# consecutive columns, packed over the part's rows.  They depend on the
# plan alone, so they are built with its kernels, once per packing, and
# shared by the plans on it (tf2003, fed2006a and fed2006b hold one set);
# a call looks up (8 / t) rows of ceil(p / 8) bytes per byte group and
# plane, where the plane kernel ANDs p bytes.  t is the widest of 4 and 2
# whose tables of the whole matrix take at most _TABLE_BYTES = 2^18: t = 4
# at m <= 9 (32 KiB at m = 8, 128 KiB at m = 9), t = 2 at m = 10 (208
# KiB), and none from m = 11 on (2-column tables would take 1 MiB
# there), where a call on planes ANDs bytes.  The budget bounds what the
# tables hold, once per matrix, four matrices for the six plans: 4-column
# tables at m = 10 would take about 420 KiB each.  A take looks up at most
# _TABLE_BYTES of rows at a time.  Binary stage alone, µs, median of 15
# alternating rounds (2-CPU host, numpy 2.4), the AND of bytes against the
# column tables; at m = 11 the 2-column tables were built above the
# budget, for comparison:
#
#    m  tag       t  tables KiB   1 vector      2 vectors     3 or 4
#    8  tf2003    4     32        30 /  26      53 /  42      80 /  58 (4)
#    8  goertzel  4     32        28 /  25      53 /  40      81 /  57 (4)
#   10  tf2003    2    208       162 / 106     339 / 230     524 / 324 (3)
#   10  goertzel  2    208       174 / 125     377 / 260     557 / 376 (3)
#   11  tf2003    2   1024       702 / 341    1350 / 767
#   11  goertzel  2   1024       703 / 388    1539 / 776
#
# So the rule is one of memory, not speed: tables would halve a call at
# m = 11 too, for 1 MiB per matrix.  A cold build takes about 0.06 ms per
# matrix at m = 8 and 0.2-0.3 ms at m = 10.
#
# One budget sizes every kernel's chunks.  A small call is bound by the
# number of numpy calls it makes, a large one by memory traffic, so each
# kernel runs one loop whose chunk holds as many byte groups or block
# columns as give _GATHER elements, and at least one: looked-up elements
# for Four Russians and the block stage, packed matrix bytes for the plane
# kernel (so at most 32 _GATHER AND results).  One chunk is one take (one
# AND) and one XOR across its groups or columns.  So a single vector at
# m = 8 runs each stage as one chunk and the binary stage at m = 10 as 4.
# Once one group or column looks up more than _GATHER / 2 elements (rows
# x batch, or l x w x batch for the padded blocks), a chunk is one group or
# column, the narrowest width: a 32-vector batch at m >= 10 runs there.
# The plane kernel allocates each chunk's temporaries as it goes, the
# first chunk's XOR being the accumulator, so a call of one chunk makes no
# pass beyond its chunk; the block kernel's first round XORs straight into
# its accumulator.  Both keep every temporary in C order: numpy lays out a
# broadcast result after its operands' strides, so the plane kernel's AND
# with the transposed planes would put the byte groups innermost and make
# the XOR across them 1.3-1.5 times slower.  The block kernel stores its
# column logs contiguous, which made its add 1.2-1.3 times faster, and runs
# on a t-major (j, t, l, batch) grid, whose inner loops run over the l
# cosets rather than a block's w rows.  numpy's take first copies an index
# that is not intp to intp, a hidden temporary of 8 bytes an element, so
# the block kernel widens its gathered input into its intp scratch before
# the log lookup and adds each round's logs, kept int32 in the plan, into
# an intp index, and Four Russians widens each group's uint8 selectors, as
# many groups at a time as hold _GATHER rows (the chunk's s with shared
# takes).  The take method, not np.take, skips a Python wrapper of about
# 0.8 µs a call.  Together, against the kernels before them in one process
# (alternating, min of repeated calls, mean over the six tags, 2-CPU host,
# five to eight runs): the block stage took 6-11% less for one vector at
# m = 8 (about 9.5 µs) and 12-21% less at m = 10 (about 21 µs); for 32
# vectors at m = 11 (about 1.1 ms) 1-2% less where the earlier kernels'
# temporaries came from a warm heap and 17-21% less where they were mapped
# afresh; Four Russians took 3-6% less at m = 11 x 32, and the two stages
# together 6-10% less.
#
# Four Russians builds its subset-XOR tables once per call, _GATHER // (32
# batch) groups at a time, so 8 _GATHER table entries, in its scratch with
# the widened selectors, the bit columns of the input, the looked-up rows
# and the output; the input's columns take the selectors' space, as they
# are dead once the bit columns hold them (2 _GATHER was
# slower on most shapes of m = 8..15, and 32 _GATHER from m = 12 on).  They
# are laid out entry-major, (256, groups, batch), so a doubling step is one
# XOR over groups x batch contiguous elements, not one numpy inner loop of
# batch elements per group and entry.  A take shares groups, at byte g x
# groups + h in the chunk's flat table, only up to _GATHER / 32 = 1024
# rows: its index costs a multiply and an add per looked-up row, which
# beyond that outweighs the takes it saves (at m = 11, 8 vectors took 3.6
# ms with two groups per take against 2.6 ms with one; one vector, which
# the plane rule never sends here below m = 15, takes 2.3 ms, against 1.6
# ms with (groups, 256, batch) tables and 16 groups per take).  Above 1024
# rows each group takes from its own table column.  A take is fastest when
# a table entry is 2, 4, 8, 16 or 32 bytes (numpy copies those widths
# directly and others by memmove), so a batch of up to 16 vectors runs
# with its tables padded to the next power of two: at m = 11, 3 vectors
# took 2.7 ms padded to 4 against 4.4 ms unpadded, and 11 vectors 4.4
# against 6.0 ms at m = 11 and 43 against 63 ms at m = 13.
#
# Per kernel, in µs: the mean over the six tags of the min of 5 timings,
# the median of 5 such runs on a 2-CPU x86-64 host with numpy 2.4 running
# at 0.63-1.03 (median 0.81) of perfbench's reference speed (hostclock
# probe, median of 80 per run).  * marks the binary kernel a call of that
# shape runs; the other is measured for comparison.  The bit planes here
# are the AND of bytes, which at m = 8 and 10 the column tables have since
# replaced (their figures are above).
#
#          binary stage, Four Russians    binary stage, bit planes     block
#   m   batch 1     2     4     32      1     2     4      32       1    32
#   8        66    70    78   207*     35*   62*   98*    738      17   197
#  10       484   545   654* 2340*    246*  506*  1016   8731      42   911
#  11      1743  2160  2151* 5627*    736*  1485* 3094  30346      59  1655
#
# The plane kernel's parity lookup beats three shift-XOR folds on a small
# accumulator (6 against 11.5 µs for one vector at m = 8; 5.5 against 8.7
# on the uint8 accumulator), ties at 10 K bytes (one vector at m = 10:
# 14.5 against 13.8 µs) and loses at 45 K (two vectors at m = 11: 48
# against 33 µs, 3% of that call).  A lookup of each byte's parity alone
# in a 256-entry table, the m bit planes then packed into each output by
# packbits, took 10.8 against 5.5 µs at m = 8 and 49 against 14.5 µs at
# m = 10, so the (m, 256) table of shifted parities stays.
#
# Budgets of 2^13, 2^14, 2^15, 2^16 and 2^17 elements gave about 1940,
# 2230, 2360, 2350 and 2180 vectors/s on perfbench's counted_m10 (single
# vectors at m = 10) with Four Russians, so the budget is 2^15; the plane
# kernel's binary stage at m = 10 took 334, 285, 270, 259 and 279 µs with
# them.
# ---------------------------------------------------------------------------

_GATHER = 1 << 15
_SPLIT_BITS = 3 << 16
_PLANES = 32
_PLANE_BYTES = 1 << 18
_TABLE_BYTES = 1 << 18
_Kernel = Callable[[np.ndarray], np.ndarray]


def _block_kernel(ctx: FieldContext, stage: BlockStage, before: np.ndarray | None, after: np.ndarray | None) -> _Kernel:
    """Block k multiplies the d_k positions of a coset-ordered vector that
    follow the blocks before it.  The stage's padded (l, w, w) entries run
    over the t-major padded (w, l, batch) grid, row t of block k at [t, k],
    in rounds of c columns j, c = _GATHER // (w l batch) held to 1..w.  A
    round is one add of column j's logs to input j's logs for its c
    columns, (c, w, l, batch) into an intp index, one take from exp and one
    XOR across the c products.  A pad entry's sentinel log sends its
    products to exp's zero tail, and keep drops the pad rows.  The gathers
    before and after the stage (None for none) are composed into the grid
    (input row before[pos]) and into keep."""
    n = ctx.n
    log = np.array(ctx.log, dtype=np.int32)
    log[0] = 2 * n  # any sum with the sentinel lands in exp's zero tail
    exp = np.zeros(4 * n + 1, dtype=np.uint16)
    exp[: 2 * n] = ctx.exp * 2
    pos, keep = stage.grid()
    l, w = pos.shape
    # entry (t, j) of block k at [j, t, k]: column j of every block, (w, w, l, 1), stored contiguous
    col_logs = np.ascontiguousarray(log[stage.entries].transpose(2, 1, 0))[..., None]
    src = np.ascontiguousarray(pos.T if before is None else before[pos.T])
    keep = keep % w * l + keep // w  # flat k w + t to t l + k
    keep = keep if after is None else keep[after]

    key = next(scratch.keys)

    def specs(batch: int) -> list[scratch.Spec]:
        grid = (w, l, batch)
        c = max(1, min(w, _GATHER // max(w * l * batch, 1)))
        return [((c, *grid), np.intp), (grid, np.int32), ((c, *grid), np.uint16), (grid, np.uint16), (grid, np.uint16)]

    def run(x: np.ndarray) -> np.ndarray:
        batch = x.shape[1]
        # the layout's key holds what sizes it: the kernel, the batch and _GATHER
        index, xs, products, acc, rest = scratch.arrays((key, batch, _GATHER), specs, batch)
        c = len(index)
        # input j of every block, widened to intp before its log lookup, as
        # take would otherwise copy its index so
        wide = index[0]
        np.copyto(wide, x.take(src, 0, rest, "clip"))
        log.take(wide, None, xs, "clip")
        xs = xs[:, None]  # (w, 1, l, batch)
        for j0 in range(0, w, c):
            cc = min(c, w - j0)
            idx = np.add(col_logs[j0 : j0 + cc], xs[j0 : j0 + cc], out=index[:cc])
            terms = exp.take(idx, None, products[:cc], "clip")
            if j0 == 0:
                np.bitwise_xor.reduce(terms, axis=0, out=acc)
            else:
                acc ^= terms[0] if cc == 1 else np.bitwise_xor.reduce(terms, axis=0, out=rest)
        return acc.reshape(w * l, batch).take(keep, axis=0)

    return run


def _russians_sizes(width: int, rows: int, batch: int) -> tuple[int, int]:
    """(s, k) for a Four-Russians call: tables for s byte groups at a time,
    _GATHER // (32 batch) held to 1..width (8 _GATHER table entries), and
    takes of k groups, _GATHER // (rows batch) held to 1..s.  Above
    _GATHER / 32 rows a shared take's index costs more than the takes it
    saves, so there k = 1."""
    s = max(1, min(width, _GATHER // (32 * max(batch, 1))))
    if 32 * rows > _GATHER:
        return s, 1
    return s, max(1, min(s, _GATHER // max(rows * batch, 1)))


def _binary_kernel(matrix: BinaryMatrix, after: np.ndarray | None = None) -> _Kernel:
    """Four Russians on bytes: byte g of a row selects among columns
    8g..8g+7, so out ^= table_g[byte g] over all groups g.  The selectors
    are each part's packing itself, whose packed[g] holds byte g of every
    row of the part.  The tables of s groups are built entry-major, (256,
    s, lanes), so each doubling step is one XOR of s lanes contiguous
    elements per entry; lanes is the batch, padded to a power of two when at
    most 16.  A take of one group reads its table column at byte g; a take
    of k groups reads the chunk's flat (256 s, lanes) table at byte g s + h
    for the h-th group of the chunk, and one XOR folds the k lookups.  A
    part of period p < rows looks up its groups on its p rows, and its
    result is XORed into the output tiled rows / p times.  Every temporary
    lives in the thread's scratch; the output gather after the stage (None
    for none) copies the result out of it."""
    layout = kernel_layout(matrix)
    rows, width = layout.rows, layout.width
    tiled = [sel.shape[1] for sel, at in zip(layout.packed, layout.out) if at is None and sel.shape[1] < rows]

    key = next(scratch.keys)

    def chunks(lanes: int) -> list[tuple[int, int, int]]:
        """Per part, (s, k) and the groups whose selectors are widened to
        intp at a time: the chunk's s when takes share groups, else as many
        as hold _GATHER rows, at least one."""
        found = []
        for sel in layout.packed:
            s, k = _russians_sizes(len(sel), sel.shape[1], lanes)
            found.append((s, k, s if k > 1 else min(s, max(1, _GATHER // sel.shape[1]))))
        return found

    def specs(batch: int) -> list[scratch.Spec]:
        lanes = batch if batch > 16 else 1 << max(batch - 1, 0).bit_length()
        s, k, wide = zip(*chunks(lanes))
        p = [sel.shape[1] for sel in layout.packed]
        return [
            ((max(2 * width * lanes, *map(operator.mul, wide, p)),), np.intp),  # selectors, or the input
            ((8, width, lanes), np.uint16),  # bits[b, g] is column 8g + b
            ((rows, lanes), np.uint16),
            ((256 * max(s) * lanes,), np.uint16),  # the tables, viewed per chunk
            ((max(map(operator.mul, k, p)) * lanes,), np.uint16),  # the looked-up rows, viewed per part
            ((max(tiled, default=0) * lanes,), np.uint16),  # a tiled part's rows
        ]

    def run(x: np.ndarray) -> np.ndarray:
        batch = x.shape[1]
        index, bits, out, tables, looked, short = scratch.arrays((key, batch, _GATHER), specs, batch)
        lanes = out.shape[1]
        cols = index.view(np.uint16)[: 8 * width * lanes].reshape(8 * width, lanes)  # dead once bits holds it
        np.copyto(bits, stacked_input(x, layout, cols).reshape(width, 8, lanes).transpose(1, 0, 2))
        out[...] = 0
        for first, sel, place, (s, k, wide) in zip(layout.first, layout.packed, layout.out, chunks(lanes)):
            groups, p = sel.shape
            if place is not None:
                acc = out[place : place + p]
            elif p == rows:
                acc = out
            else:
                acc = short[: p * lanes].reshape(p, lanes)
                acc[...] = 0
            tables[: s * lanes] = 0  # entry 0, the empty subset, of every chunk
            idx = index[: wide * p].reshape(wide, p)
            looked_up = looked[: k * p * lanes].reshape(k, p, lanes)
            for g0 in range(0, groups, s):
                n = min(s, groups - g0)
                table = tables[: 256 * n * lanes].reshape(256, n, lanes)
                for bit in range(8):
                    lo = 1 << bit
                    np.bitwise_xor(table[:lo], bits[bit, first + g0 : first + g0 + n], out=table[lo : 2 * lo])
                if k == 1:
                    for h in range(n):
                        if h % wide == 0:  # as take would copy each group's uint8 selectors to intp
                            np.copyto(idx[: min(wide, n - h)], sel[g0 + h : g0 + min(h + wide, n)])
                        acc ^= table[:, h].take(idx[h % wide], 0, looked_up[0], "clip")
                else:
                    at = np.multiply(sel[g0 : g0 + n], n, out=idx[:n], dtype=np.intp)
                    at += np.arange(n, dtype=np.intp)[:, None]
                    flat = table.reshape(256 * n, lanes)
                    for h in range(0, n, k):
                        n_tabs = min(k, n - h)
                        xor_fold(acc, flat.take(at[h : h + n_tabs], 0, looked_up[:n_tabs], "clip"))
            if place is None and p < rows:
                tiled = out.reshape(rows // p, p, lanes)
                tiled ^= acc
        result = out[:, :batch]
        return result.copy() if after is None else result.take(after, axis=0)

    return run


def _plane_kernel(matrix: BinaryMatrix, m: int) -> _Kernel:
    """Bit planes: the stage is GF(2)-linear, so bit b of row r's output is
    the parity of row r AND plane b, the columns' bit b packed as the
    matrix is (byte g holds columns 8g..8g+7), in one pass over the whole
    input.  Per part, per block of k = _GATHER // p byte groups of its p
    rows, held to 1..groups, one broadcast AND of the block's packed bytes
    with every plane's byte (one per vector and bit) and one XOR across the
    block; a part of period p < rows is folded into the full accumulator by
    one XOR of its (planes, p) bytes tiled rows / p times.  A folded byte's
    parity is bit b of its row's output: one lookup in the (m, 256) table of
    parity(byte) << b puts it in place, and one OR across the planes gives
    the outputs."""
    layout = kernel_layout(matrix)
    rows, width = layout.rows, layout.width
    parts = [
        (first, sel[:, None], max(1, min(len(sel), _GATHER // max(sel.shape[1], 1))), at)
        for first, sel, at in zip(layout.first, layout.packed, layout.out)
    ]  # (first group, (groups, 1, p) selectors, groups per block, output row or None)
    shifts = np.arange(m, dtype=np.uint16)[:, None]
    odd = np.unpackbits(np.arange(256, dtype=np.uint8)).reshape(256, 8).sum(axis=1, dtype=np.uint16) & 1
    parity = (odd << shifts).ravel()  # row b at b << 8
    rows_of = shifts << 8

    def run(x: np.ndarray) -> np.ndarray:
        x = stacked_input(x, layout)
        batch = x.shape[1]
        planes = bit_planes(x, shifts, width)[:, :, None]
        acc = np.zeros((batch * m, rows), dtype=np.uint8) if layout.folds else None
        short = []
        for first, sel, k, place in parts:
            part_acc = None if place is None else acc[:, place : place + sel.shape[2]]
            for g0 in range(0, len(sel), k):
                block = sel[g0 : g0 + k]
                part_acc = xor_fold(
                    part_acc, np.bitwise_and(block, planes[first + g0 : first + g0 + len(block)], order="C")
                )
            if place is not None:
                continue
            if acc is None and part_acc.shape[1] == rows:  # the stored rows are the largest period: one part has it
                acc = part_acc
            else:
                short.append(part_acc)
        for part_acc in short:
            tiled = acc.reshape(batch * m, rows // part_acc.shape[1], part_acc.shape[1])
            tiled ^= part_acc[:, None]
        return np.bitwise_or.reduce(parity.take(rows_of | acc.reshape(batch, m, rows)), axis=1).T

    return run


def _binary_stage_kernel(matrix: BinaryMatrix, m: int, before: np.ndarray | None, after: np.ndarray | None) -> _Kernel:
    """Per call, bit planes when the call has at most _PLANES planes (m per
    vector) and their accumulator at most _PLANE_BYTES, else Four Russians;
    bit planes run on the matrix's column tables when those fit in
    _TABLE_BYTES, else on the plane kernel.  The gather before the stage
    (None for none) runs first, and the one after it last, inside Four
    Russians, which copies its result out of its scratch so."""
    planes = table_kernel(matrix, m, _TABLE_BYTES, _GATHER) or _plane_kernel(matrix, m)
    russians, rows = _binary_kernel(matrix, after), matrix.stored[0]

    def run(x: np.ndarray) -> np.ndarray:
        x = x if before is None else x.take(before, axis=0)
        n_planes = m * x.shape[1]
        if n_planes > _PLANES or n_planes * rows > _PLANE_BYTES:
            return russians(x)
        y = planes(x)
        return y if after is None else y.take(after, axis=0)

    return run


def _gather(perm: Sequence[int]) -> np.ndarray | None:
    """perm as an index, or None for the identity, which costs no pass."""
    idx = np.asarray(perm, dtype=np.intp)
    return None if np.array_equal(idx, np.arange(len(idx))) else idx


def _batch_stages(plan: Plan) -> tuple[_Kernel, ...]:
    """The kernels of the plan's two stages, the first taking the input
    gather (in_perm) into its own and the second the output gather (the
    inverse of out_perm), each composed with the binary matrix's order."""
    ctx, blocks, matrix = plan.ctx, plan.stage(BlockStage), plan.stage(BinaryMatrix)
    rows, cols = (np.arange(size) if o is None else o for o, size in zip(matrix.order, (matrix.n_rows, matrix.cols)))
    shown = np.zeros(matrix.stored[1], dtype=np.intp)  # the column each stored column shows; 0 for a pad
    shown[cols] = np.arange(matrix.cols)
    in_perm, inv_out = np.asarray(plan.in_perm, dtype=np.intp), np.argsort(plan.out_perm)
    if plan.stages[0] is blocks:
        block = _block_kernel(ctx, blocks, _gather(in_perm), _gather(shown))
        return block, _binary_stage_kernel(matrix, ctx.m, None, _gather(rows[inv_out]))
    binary = _binary_stage_kernel(matrix, ctx.m, _gather(in_perm[shown]), None)
    return binary, _block_kernel(ctx, blocks, _gather(rows), _gather(inv_out))


def _run_kernels(plan: Plan, rows: np.ndarray, stage1: OpCount | None = None) -> np.ndarray:
    """Validated (batch, n) input rows through the plan's stage kernels,
    which gather them from input order and into output order; the outputs
    come back as the columns of an (n, batch) array.  With stage1, the
    block stage adds w . [x > 1] over its input x to stage1.mults, w the
    plan's mult_weights."""
    x = rows.T
    for kernel, stage in zip(plan._kernels, plan.stages):
        if stage1 is not None and isinstance(stage, BlockStage):
            stage1.mults += int((plan._counts.mult_weights @ (x > 1)).sum())
        x = kernel(x)
    return x


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
    return plan._counts.naive_adds


class _Counts(NamedTuple):
    """Per plan, what a counted apply adds to its tally beyond the
    data-dependent stage-1 multiplications: those come from mult_weights,
    one weight per input position of the block stage."""

    mult_weights: np.ndarray
    stage1_adds: int
    naive_adds: int
    four_russians_adds: int


def _plan_counts(plan: Plan) -> _Counts:
    """Stage 1 counted from the block stage as the reference walk issues the
    operations, not through structural_stage1_counts, so that a check of a
    tally against that compares two separate codings; stage 2 through
    _naive_adds itself, not the module's stage2_naive_adds, on each coset's
    basis, column 0 of its block of D (entry (t, 0) is basis[t])."""
    stage = plan.stage(BlockStage)
    sizes = np.array(stage.sizes)
    a = plan.stage(BinaryMatrix)
    col0 = (stage.entries if isinstance(plan.stages[0], BlockStage) else stage.entries.swapaxes(1, 2))[:, :, 0]
    bases = [tuple(b[:d]) for b, d in zip(col0.tolist(), stage.sizes)]
    leaders = [coset.leader for coset in plan.partition.cosets]
    return _Counts(
        _mult_weights(plan),
        int((sizes * (sizes - 1)).sum()),
        _naive_adds(plan.ctx, zip(leaders, bases)),
        binmat.make_plan(a.cols).predicted_adds(a.n_rows),
    )


def _mult_weights(plan: Plan) -> np.ndarray:
    """w_j: the entries > 1 in column j of the block covering position j;
    0 under a pass-through block, which has no entry > 1.  Indexed as the
    block kernel reads its input: by input position when the block stage
    runs first, so that position in_perm[j] weighs w_j, else by the binary
    stage's stored row, so that stored row order[0][j] weighs w_j and a pad
    weighs 0."""
    stage = plan.stage(BlockStage)
    _, keep = stage.grid()
    weights = (stage.entries > 1).sum(axis=1).ravel()[keep]
    if isinstance(plan.stages[0], BlockStage):
        weights[np.fromiter(plan.in_perm, np.intp, len(plan.in_perm))] = weights.copy()
        return weights
    matrix = plan.stage(BinaryMatrix)
    if matrix.order[0] is None:
        return weights
    stored = np.zeros(matrix.stored[0], dtype=weights.dtype)
    stored[matrix.order[0]] = weights
    return stored


def stage1_bound(ctx: FieldContext) -> int:
    """n * log2(n + 1) = n * m, the multiplication budget."""
    return ctx.n * ctx.m


# The naive stage-2 count, per coset from the field rather than from the
# matrix, for plans and the bench alike.  As i runs over Z_n, a^(i*rep)
# sweeps the subgroup generated by a^g, g = gcd(rep, n), hitting each
# element g times, so a coset's column group holds g times the coordinate
# ones of that subgroup in its basis.  n is odd, so g is the same for every
# element of the coset and any one serves as rep.  When the subgroup is all
# of GF(2^d)* (g (2^d - 1) = n), each of the d coordinates is a nonzero
# linear functional, 1 on 2^(d-1) of its elements: g d 2^(d-1) ones,
# whatever the basis.  A proper subgroup is enumerated once, exp[::g], per distinct
# (g, basis), through one coordinate_tables call for all of them.  Every row
# holds a one (the {0} coset), so the count is the ones less n; transposing
# goertzel's matrix keeps it.  At m = 16 goertzel and blahut2008 enumerate
# 2047 of their 4115 cosets (30.8 M elements, about 0.8 s on a 2-CPU host),
# the factored four 11 to 22 distinct (g, basis) (46 K elements); a count
# from the matrix would read all 512 MiB of it.


def _naive_adds(ctx: FieldContext, cosets: Iterable[tuple[int, tuple[int, ...]]]) -> int:
    """Additions of the naive binary stage, sum of (popcount - 1) over the
    rows, of the plan with these (rep, basis) per coset."""
    n = ctx.n
    shared = Counter((gcd(rep, n), basis) for rep, basis in cosets)
    proper = [(g, b) for g, b in shared if g * ((1 << len(b)) - 1) != n]  # a^g generates less than GF(2^d)*
    ones = sum(shared[g, b] * g * len(b) << (len(b) - 1) for g, b in shared.keys() - proper)
    exp = np.asarray(ctx.exp, dtype=np.intp)
    for (g, basis), table in zip(proper, coordinate_tables([b for _, b in proper])):
        coords = (table[0, exp[::g] & 255] ^ table[1, exp[::g] >> 8]).astype(np.uint16)  # in the span: no residual
        ones += shared[g, basis] * g * int(np.unpackbits(coords.view(np.uint8)).sum())
    return ones - n


def structural_counts_for_tag(ctx: FieldContext, tag: str) -> tuple[int, int, int]:
    """(stage1 mults, stage1 adds, stage2 naive adds) of a plan without
    building it, from its family's bases: transposing goertzel's blocks, and
    permuting the rows of D and the rows and columns of A (fed2006b), keep
    every count."""
    partition = cyclotomic_cosets(ctx.n)
    bases = _bases_for_tag(ctx, partition, tag)
    return (*_stage1_counts(_d_blocks(ctx, bases)), _naive_adds(ctx, zip((c.leader for c in partition.cosets), bases)))
