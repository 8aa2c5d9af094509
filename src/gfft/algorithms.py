"""The semifast transform family: remainder, split, and factored forms.

Every algorithm here is a (build, apply) pair: build precomputes a plan from
the field alone, apply transforms one coefficient vector and tallies exact
operation counts.  The factored algorithms share one shape: permute the
input into coset order, multiply by a block-diagonal stage of small dense or
circulant blocks (the only stage with field multiplications), then multiply
by a single binary matrix (additions only), and un-permute.

Construction rests on two facts.  The coset-s slice of f is a linearized
polynomial composed with x^s, so its values are GF(2)-linear in the point;
and in a normal basis squaring is a coordinate rotation, which is what makes
the per-coset sub-blocks of the binary stage circulant when both input and
output are enumerated in doubling order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import gcd
from typing import Callable, Sequence

import numpy as np

from . import binmat
from .field import FieldContext, OpCount
from .structure import (
    BinaryMatrix,
    Coset,
    CosetPartition,
    LinearSolver,
    NormalBasis,
    cyclotomic_cosets,
    doubling_orbit,
    find_normal_basis,
    minimal_polynomial,
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
    def fresh(cls, count_units: bool = False) -> "TransformTally":
        return cls(
            OpCount(stage="stage1", count_units=count_units),
            OpCount(stage="stage2", count_units=count_units),
        )


@dataclass(frozen=True)
class CirculantBlock:
    """Square block whose row r is the first row rotated left by r."""

    first_row: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.first_row)

    def row(self, r: int) -> tuple[int, ...]:
        d = self.size
        return tuple(self.first_row[(j + r) % d] for j in range(d))

    def entry(self, r: int, j: int) -> int:
        return self.first_row[(j + r) % self.size]


@dataclass(frozen=True)
class DenseBlock:
    """General square block of field elements (row-major)."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def row(self, r: int) -> tuple[int, ...]:
        return self.rows[r]

    def entry(self, r: int, j: int) -> int:
        return self.rows[r][j]


Block = CirculantBlock | DenseBlock

UNIT_BLOCK = CirculantBlock((1,))


def circulant_matvec(
    first_row: list[int] | tuple[int, ...],
    v: list[int] | tuple[int, ...],
    ctx: FieldContext,
    oc: OpCount | None = None,
) -> list[int]:
    """y_r = sum_j first_row[(j + r) mod d] * v_j  (row r = left rotation by r)."""
    d = len(first_row)
    if len(v) != d:
        raise ValueError(f"length mismatch: {d} vs {len(v)}")
    out = []
    for r in range(d):
        acc = ctx.mul(first_row[r % d], v[0], oc)
        for j in range(1, d):
            acc = ctx.add(acc, ctx.mul(first_row[(j + r) % d], v[j], oc), oc)
        out.append(acc)
    return out


def _block_matvec(block: Block, v: list[int], ctx: FieldContext, oc: OpCount | None) -> list[int]:
    if isinstance(block, CirculantBlock):
        if block.size == 1 and block.first_row[0] == 1:
            return list(v)  # pass-through; no operations issued
        return circulant_matvec(block.first_row, v, ctx, oc)
    out = []
    for r in range(block.size):
        row = block.rows[r]
        acc = ctx.mul(row[0], v[0], oc)
        for j in range(1, len(row)):
            acc = ctx.add(acc, ctx.mul(row[j], v[j], oc), oc)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Coset layouts: representative, column basis, and diagonal block per coset.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetLayout:
    coset: Coset
    rep: int
    elements: tuple[int, ...]  # doubling order from rep
    basis: tuple[int, ...]  # column basis for the binary-stage expansion
    std_coords: bool  # True when coords(x) are just the bits of x
    block: Block


# ---------------------------------------------------------------------------
# Bulk coordinate solves.  Every binary matrix here (A, R, the B_k and the
# combine matrix) holds, per coset, the coordinates of a^(i*rep) in a small
# basis.  A basis of d elements spans GF(2^d), whose nonzero elements are the
# powers a^e with e a multiple of step = n / (2^d - 1), so one solve over
# those 2^d - 1 elements serves every layout that shares the basis.
# ---------------------------------------------------------------------------

_Column = tuple[int, tuple[int, ...]]  # (rep, basis)


class _SubfieldCoords:
    """Per basis: step and the coordinates of a^e, indexed by e // step."""

    def __init__(self, ctx: FieldContext):
        self.exp = np.array(ctx.exp, dtype=np.int64)
        self.tables: dict[tuple[int, ...], tuple[int, np.ndarray]] = {}

    def table(self, basis: tuple[int, ...]) -> tuple[int, np.ndarray]:
        found = self.tables.get(basis)
        if found is None:
            step, rest = divmod(len(self.exp), (1 << len(basis)) - 1)
            if rest:
                raise ArithmeticError(f"no subfield GF(2^{len(basis)}) for basis {basis}")
            found = step, LinearSolver(basis).coords_array(self.exp[::step])
            self.tables[basis] = found
        return found


def _coords_matrix(ctx: FieldContext, points, columns: Sequence[_Column]) -> np.ndarray:
    """(len(points), l) uint16: entry (r, k) is the coordinate vector of
    a^(points[r] * rep_k) in basis_k."""
    n = ctx.n
    solves = _SubfieldCoords(ctx)
    points = np.asarray(points, dtype=np.int64)
    out = np.empty((len(points), len(columns)), dtype="<u2")
    for k, (rep, basis) in enumerate(columns):
        step, table = solves.table(basis)
        e, off = np.divmod(points * rep % n, step)
        if off.any():
            x = rep * int(points[off.argmax()]) % n
            raise ArithmeticError(f"a^{x} is outside the span of {basis}")
        out[:, k] = table[e]
    return out


def _bit_rows(coords: np.ndarray, widths: Sequence[int], transpose: bool = False) -> list[int]:
    """Binary matrix rows as ints: row r is the low widths[k] bits of each
    coords[r, k] side by side, column 0 lowest; with transpose, the rows of
    that matrix's transpose.  Built in chunks of about _SCRATCH bits."""
    rows_in, l = coords.shape
    starts = np.array(list(accumulate(widths, initial=0)))
    # bit t of coords[r, k] is bit 16 k + t of the unpacked uint16s of row r
    select = np.arange(starts[-1]) + np.repeat(16 * np.arange(l) - starts[:-1], widths)

    def bits(k0: int, k1: int, r0: int = 0, r1: int = rows_in) -> np.ndarray:
        block = np.ascontiguousarray(coords[r0:r1, k0:k1])
        unpacked = np.unpackbits(block.view(np.uint8), axis=1, bitorder="little")
        return unpacked[:, select[starts[k0] : starts[k1]] - 16 * k0]

    out: list[int] = []
    if transpose:
        step = max(1, _SCRATCH // (16 * rows_in))
        for k0 in range(0, l, step):
            out += _int_rows(np.ascontiguousarray(bits(k0, min(l, k0 + step)).T))
    else:
        step = max(1, _SCRATCH // (16 * l))
        for r0 in range(0, rows_in, step):
            out += _int_rows(bits(0, l, r0, r0 + step))
    return out


def _int_rows(bits: np.ndarray) -> list[int]:
    """Rows of a 0/1 array as ints, bit j = column j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    raw, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]


def _power_basis_columns(ctx: FieldContext, partition: CosetPartition) -> list[_Column]:
    """Per coset with leader s: basis (1, b, ..., b^(d-1)), b = a^s.  The
    coordinates of b^i there are the coefficients of x^i mod M_s."""
    n = ctx.n
    return [
        (c.leader, tuple(ctx.exp[(c.leader * t) % n] for t in range(c.size)))
        for c in partition.cosets
    ]


def _normal_bases(ctx: FieldContext, partition: CosetPartition, shifted: bool) -> dict[int, NormalBasis]:
    """One normal basis per occurring coset size; shifted squares the generator."""
    bases: dict[int, NormalBasis] = {}
    for size in sorted(set(partition.sizes())):
        nb = find_normal_basis(ctx, size)
        if shifted and size > 1:
            gen = ctx.mul(nb.generator, nb.generator)
            conj = tuple(nb.basis[(j + 1) % size] for j in range(size))
            nb = NormalBasis(gen, size, conj)
        bases[size] = nb
    return bases


def _layouts_ft2002(ctx: FieldContext, partition: CosetPartition) -> list[CosetLayout]:
    n, m = ctx.n, ctx.m
    out = []
    for coset in partition.cosets:
        d = coset.size
        s = coset.leader
        if d == 1:
            out.append(CosetLayout(coset, s, coset.elements, (1,), False, UNIT_BLOCK))
            continue
        if d == m:
            basis = tuple(1 << t for t in range(m))
            std = True
        else:
            basis = tuple(ctx.exp[(s * t) % n] for t in range(d))
            std = False
        rows = tuple(
            tuple(ctx.pow(basis[t], 1 << j) for j in range(d)) for t in range(d)
        )
        out.append(CosetLayout(coset, s, coset.elements, basis, std, DenseBlock(rows)))
    return out


def _layouts_normal(
    ctx: FieldContext, partition: CosetPartition, shifted: bool
) -> list[CosetLayout]:
    n = ctx.n
    bases = _normal_bases(ctx, partition, shifted)
    rep_override: dict[int, int] = {}
    if shifted:
        # The coset holding the generator's exponent starts at that exponent,
        # which keeps the identity sub-block aligned with the shifted basis.
        for size, nb in bases.items():
            if size > 1:
                lg = ctx.log[nb.generator]
                rep_override[min(doubling_orbit(lg, n))] = lg
    out = []
    for coset in partition.cosets:
        d = coset.size
        if d == 1:
            out.append(CosetLayout(coset, coset.leader, coset.elements, (1,), False, UNIT_BLOCK))
            continue
        rep = rep_override.get(coset.leader, coset.leader)
        elements = doubling_orbit(rep, n)
        nb = bases[d]
        if any(ctx.mul(b, b) != nb.basis[(j + 1) % d] for j, b in enumerate(nb.basis)):
            raise ArithmeticError(f"normal basis of size {d} is not a conjugate sequence")
        out.append(
            CosetLayout(coset, rep, elements, nb.basis, False, CirculantBlock(nb.basis))
        )
    return out


# ---------------------------------------------------------------------------
# Factored transforms (binary matrix times block diagonal).
# ---------------------------------------------------------------------------


@dataclass
class FactoredTransform:
    """Transform in the shape  output = unpermute(A . D . permute(input)).

    in_perm / out_perm list natural indices in factored order; A is binary;
    the diagonal blocks carry all field multiplications.
    """

    tag: str
    ctx: FieldContext
    partition: CosetPartition
    layouts: tuple[CosetLayout, ...]
    in_perm: tuple[int, ...]
    out_perm: tuple[int, ...]
    a_matrix: BinaryMatrix

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def d_blocks(self) -> tuple[Block, ...]:
        return tuple(lay.block for lay in self.layouts)

    def block_offsets(self) -> list[int]:
        offs, acc = [], 0
        for lay in self.layouts:
            offs.append(acc)
            acc += lay.coset.size
        return offs


def _assemble_factored(ctx: FieldContext, tag: str, layouts: list[CosetLayout],
                       natural_out: bool) -> FactoredTransform:
    n = ctx.n
    partition = cyclotomic_cosets(n)
    in_perm = tuple(i for lay in layouts for i in lay.elements)
    out_perm = tuple(range(n)) if natural_out else in_perm

    coords = _coords_matrix(ctx, out_perm, [(lay.rep, lay.basis) for lay in layouts])
    rows = _bit_rows(coords, [lay.coset.size for lay in layouts])
    return FactoredTransform(
        tag, ctx, partition, tuple(layouts), in_perm, out_perm, BinaryMatrix(rows, n)
    )


def build_ft2002(ctx: FieldContext) -> FactoredTransform:
    """Standard-basis factorization: dense linearized-evaluation blocks."""
    layouts = _layouts_ft2002(ctx, cyclotomic_cosets(ctx.n))
    return _assemble_factored(ctx, FT2002, layouts, natural_out=True)


def build_tf2003(ctx: FieldContext) -> FactoredTransform:
    """Normal-basis factorization: circulant blocks, natural output order."""
    layouts = _layouts_normal(ctx, cyclotomic_cosets(ctx.n), shifted=False)
    return _assemble_factored(ctx, TF2003, layouts, natural_out=True)


def build_fed2006(ctx: FieldContext, variant: str = "a") -> FactoredTransform:
    """Coset-ordered output on both sides; variant 'b' shifts the normal basis
    (generator squared) and starts the generator's coset at its exponent."""
    variant = variant.lower()
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    shifted = variant == "b"
    layouts = _layouts_normal(ctx, cyclotomic_cosets(ctx.n), shifted=shifted)
    tag = FED2006B if shifted else FED2006A
    return _assemble_factored(ctx, tag, layouts, natural_out=False)


def apply_factored(
    plan: FactoredTransform,
    f: list[int],
    four_russians: bool = False,
    tally: TransformTally | None = None,
    fr_plan: binmat.FourRussiansPlan | None = None,
) -> list[int]:
    """Permute, multiply by the diagonal blocks, then by the binary matrix."""
    n = plan.n
    ctx = plan.ctx
    validate_vector(ctx, f)
    oc1 = tally.stage1 if tally else None
    oc2 = tally.stage2 if tally else None

    fe = [f[j] for j in plan.in_perm]
    g: list[int] = []
    pos = 0
    for lay in plan.layouts:
        d = lay.coset.size
        g.extend(_block_matvec(lay.block, fe[pos : pos + d], ctx, oc1))
        pos += d
    if four_russians:
        y = binmat.binmatvec_four_russians(plan.a_matrix, g, fr_plan, oc2)
    else:
        y = binmat.binmatvec_naive(plan.a_matrix, g, oc2)

    out = [0] * n
    for r, i in enumerate(plan.out_perm):
        out[i] = y[r]
    return out


def materialize(plan: FactoredTransform) -> list[list[int]]:
    """Un-permuted dense n x n matrix of the factorization; equals the
    Vandermonde matrix when the construction is sound."""
    n = plan.n
    dense = [[0] * n for _ in range(n)]
    offsets = plan.block_offsets()
    for r in range(n):
        arow = plan.a_matrix.rows[r]
        i = plan.out_perm[r]
        for lay, c0 in zip(plan.layouts, offsets):
            d = lay.coset.size
            sel = (arow >> c0) & ((1 << d) - 1)
            if not sel:
                continue
            for j in range(d):
                acc = 0
                s = sel
                while s:
                    t = (s & -s).bit_length() - 1
                    acc ^= lay.block.entry(t, j)
                    s &= s - 1
                dense[i][plan.in_perm[c0 + j]] = acc
    return dense


def coset_block_report(plan: FactoredTransform) -> list[dict]:
    """Read-only structure report for the coset-pair sub-blocks of A.

    Flags, per (output coset, input coset) pair, whether consecutive rows are
    right rotations and whether the block is a full circulant (square with
    wrap-around).  No algorithm consumes this; it documents structure.
    """
    from .structure import rotate_right_bits

    if plan.out_perm != plan.in_perm:
        raise ValueError("block report requires coset-ordered output rows")
    offsets = plan.block_offsets()
    report = []
    row_base = 0
    for out_lay in plan.layouts:
        d_out = out_lay.coset.size
        for in_lay, c0 in zip(plan.layouts, offsets):
            d_in = in_lay.coset.size
            sub = plan.a_matrix.submatrix(row_base, row_base + d_out, c0, c0 + d_in)
            chain = all(
                sub.rows[r + 1] == rotate_right_bits(sub.rows[r], d_in)
                for r in range(d_out - 1)
            )
            circulant = (
                chain
                and d_out == d_in
                and sub.rows[0] == rotate_right_bits(sub.rows[-1], d_in)
            )
            report.append(
                {
                    "out_coset": out_lay.coset.leader,
                    "in_coset": in_lay.coset.leader,
                    "shape": (d_out, d_in),
                    "rotation_chain": chain,
                    "circulant": circulant,
                }
            )
        row_base += d_out
    return report


# ---------------------------------------------------------------------------
# Remainder-evaluation transform (long division by minimal polynomials).
# ---------------------------------------------------------------------------


@dataclass
class GoertzelPlan:
    """Remainder map R (binary) plus per-coset evaluation blocks.

    Row block k of R carries the coefficients of f mod M_k, M_k the coset's
    minimal polynomial; evaluation block k holds the Vandermonde rows at the
    coset's points, so the second stage is d small dot products per coset.
    """

    ctx: FieldContext
    partition: CosetPartition
    remainder_matrix: BinaryMatrix
    eval_blocks: tuple[tuple[tuple[int, ...], ...], ...]
    min_polys: tuple[int, ...]
    out_perm: tuple[int, ...]


def build_goertzel(ctx: FieldContext) -> GoertzelPlan:
    """Row t of block k in R holds bit t of x^j mod M_k over the columns j,
    the coordinates of b^j in blahut2008's power basis: R is the transpose
    of blahut2008's combine matrix."""
    n = ctx.n
    partition = cyclotomic_cosets(n)
    coords = _coords_matrix(ctx, range(n), _power_basis_columns(ctx, partition))
    rows = _bit_rows(coords, partition.sizes(), transpose=True)
    eval_blocks = []
    min_polys = []
    out_perm = []
    for coset in partition.cosets:
        d = coset.size
        min_polys.append(minimal_polynomial(coset, ctx))
        eval_blocks.append(
            tuple(tuple(ctx.exp[(e * t) % n] for t in range(d)) for e in coset.elements)
        )
        out_perm.extend(coset.elements)
    return GoertzelPlan(
        ctx,
        partition,
        BinaryMatrix(rows, n),
        tuple(eval_blocks),
        tuple(min_polys),
        tuple(out_perm),
    )


def remainders(plan: GoertzelPlan, f: list[int], oc: OpCount | None = None) -> list[list[int]]:
    """Per-coset remainder coefficient vectors r_k = f mod M_k."""
    stacked = binmat.binmatvec_naive(plan.remainder_matrix, f, oc)
    out, pos = [], 0
    for coset in plan.partition.cosets:
        out.append(stacked[pos : pos + coset.size])
        pos += coset.size
    return out


def apply_goertzel(
    plan: GoertzelPlan, f: list[int], tally: TransformTally | None = None
) -> list[int]:
    n = plan.ctx.n
    ctx = plan.ctx
    validate_vector(ctx, f)
    oc1 = tally.stage1 if tally else None
    oc2 = tally.stage2 if tally else None
    rems = remainders(plan, f, oc2)
    out = [0] * n
    for k, (coset, block) in enumerate(zip(plan.partition.cosets, plan.eval_blocks)):
        rk = rems[k]
        for r, e in enumerate(coset.elements):
            row = block[r]
            acc = ctx.mul(row[0], rk[0], oc1)
            for t in range(1, coset.size):
                acc = ctx.add(acc, ctx.mul(row[t], rk[t], oc1), oc1)
            out[e] = acc
    return out


# ---------------------------------------------------------------------------
# Coset-split transform (per-coset evaluation then binary recombination).
# ---------------------------------------------------------------------------


@dataclass
class BlahutPlan:
    """Per coset: V_k evaluates the coset slice at the first d points; B_k
    (binary, n x d) spreads those values to all n outputs.  The {0} coset
    contributes an all-ones column times f_0."""

    ctx: FieldContext
    partition: CosetPartition
    v_blocks: tuple[tuple[tuple[int, ...], ...], ...]
    b_blocks: tuple[BinaryMatrix, ...]
    combine_matrix: BinaryMatrix  # [ones | B_1 | ... | B_l] stacked column-wise
    in_perm: tuple[int, ...]


def build_blahut2008(ctx: FieldContext) -> BlahutPlan:
    n = ctx.n
    partition = cyclotomic_cosets(n)
    coords = _coords_matrix(ctx, range(n), _power_basis_columns(ctx, partition))
    v_blocks = []
    b_blocks = []
    in_perm: list[int] = []
    for k, coset in enumerate(partition.cosets):
        d = coset.size
        in_perm.extend(coset.elements)
        v_blocks.append(
            tuple(tuple(ctx.exp[(t * e) % n] for e in coset.elements) for t in range(d))
        )
        b_blocks.append(BinaryMatrix(coords[:, k].tolist(), d))
    return BlahutPlan(
        ctx,
        partition,
        tuple(v_blocks),
        tuple(b_blocks),
        BinaryMatrix(_bit_rows(coords, partition.sizes()), n),
        tuple(in_perm),
    )


def apply_blahut2008(
    plan: BlahutPlan, f: list[int], tally: TransformTally | None = None
) -> list[int]:
    ctx = plan.ctx
    validate_vector(ctx, f)
    oc1 = tally.stage1 if tally else None
    oc2 = tally.stage2 if tally else None
    mid: list[int] = []
    for coset, vblock in zip(plan.partition.cosets, plan.v_blocks):
        if coset.size == 1 and coset.leader == 0:
            mid.append(f[0])
            continue
        slice_vals = [f[e] for e in coset.elements]
        for row in vblock:
            acc = ctx.mul(row[0], slice_vals[0], oc1)
            for t in range(1, len(row)):
                acc = ctx.add(acc, ctx.mul(row[t], slice_vals[t], oc1), oc1)
            mid.append(acc)
    return binmat.binmatvec_naive(plan.combine_matrix, mid, oc2)


# ---------------------------------------------------------------------------
# Shared entry points.
# ---------------------------------------------------------------------------


def build(tag: str, ctx: FieldContext):
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


def apply(plan, f: list[int], tally: TransformTally | None = None, **kw) -> list[int]:
    """One vector through any plan; kw (four_russians, fr_plan) picks the
    binary-stage kernel of a factored plan.  goertzel and blahut2008 have
    only the naive kernel, so they reject four_russians=True."""
    if isinstance(plan, (GoertzelPlan, BlahutPlan)) and kw.get("four_russians"):
        raise ValueError("four_russians=True applies to the factored plans only")
    if isinstance(plan, GoertzelPlan):
        return apply_goertzel(plan, f, tally)
    if isinstance(plan, BlahutPlan):
        return apply_blahut2008(plan, f, tally)
    return apply_factored(plan, f, tally=tally, **kw)


# ---------------------------------------------------------------------------
# Batched application (numpy kernels; exact, uncounted).
#
# apply_batch runs every plan as a pipeline of stages over one (width, batch)
# uint16 array, a column per vector: gathers for the permutations, a block
# stage for the multiplications (log/exp lookups; zero has a sentinel log
# that exp maps back to 0) and a binary stage for the additions (Four
# Russians on the bytes of each row).  Table lookups and XOR only, so both
# are exact; they count nothing, and batch operation counts come from the
# structural counters below.  Their tables are built per call, apart from
# the oracle's, and the subset-XOR tables are chunked to _SCRATCH elements.
# ---------------------------------------------------------------------------

_SCRATCH = 1 << 18
_Stage = Callable[[np.ndarray], np.ndarray]


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


def validate_vector(ctx: FieldContext, f) -> None:
    """The input boundary of apply: ValueError for a wrong length, a non-int
    element or one outside [0, 2^m).  Pure Python, so a single apply
    touches no numpy."""
    row = _as_row(ctx, f, 0)
    if max(row) >> ctx.m:
        raise _outside_field(ctx, 0, row)


def validate_vectors(ctx: FieldContext, vectors) -> np.ndarray:
    """The same boundary for apply_batch: a (batch, n) uint16 array, range
    tested in one numpy pass over the whole batch."""
    rows = [_as_row(ctx, f, b) for b, f in enumerate(vectors)]
    arr = np.frombuffer(b"".join(rows), dtype=np.uint16).reshape(len(rows), ctx.n)
    if rows and arr.max() >> ctx.m:
        b = int(np.argmax(arr.max(axis=1) >> ctx.m))
        raise _outside_field(ctx, b, rows[b])
    return arr


def _gather(perm) -> _Stage:
    idx = np.asarray(perm, dtype=np.intp)
    return lambda x: x[idx]


def _block_entries(blocks: tuple[Block, ...]) -> np.ndarray:
    """(k, d, d) entries of k blocks of one size d."""
    if all(isinstance(b, CirculantBlock) for b in blocks):
        first = np.array([b.first_row for b in blocks])
        d = first.shape[1]
        return first[:, (np.arange(d)[:, None] + np.arange(d)) % d]
    k, d = len(blocks), blocks[0].size
    flat = chain.from_iterable(b.row(r) for b in blocks for r in range(d))
    return np.fromiter(flat, dtype=np.int64, count=k * d * d).reshape(k, d, d)


def _block_stage(ctx: FieldContext, blocks: Sequence[Block]) -> _Stage:
    """Block k multiplies the d_k positions of a coset-ordered vector that
    follow the blocks before it; same-size blocks run as one gather."""
    n = ctx.n
    log = np.array(ctx.log, dtype=np.int32)
    log[0] = 2 * n  # any sum with the sentinel lands in exp's zero tail
    exp = np.zeros(4 * n + 1, dtype=np.uint16)
    exp[: 2 * n] = ctx.exp * 2
    by_size: dict[int, list] = {}
    for start, blk in zip(accumulate((b.size for b in blocks), initial=0), blocks):
        by_size.setdefault(blk.size, []).append((start, blk))
    groups = []  # (positions (k, d), logs of column j of each block (d, k, d, 1))
    for d, members in by_size.items():
        starts, group = zip(*members)
        logs = log[_block_entries(group)]
        groups.append((np.array(starts)[:, None] + np.arange(d), np.moveaxis(logs, 2, 0)[..., None]))

    def run(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        lx = log[x]
        for idx, lb in groups:
            xs = lx[idx]  # (k, d, batch)
            acc = np.zeros(xs.shape, dtype=np.uint16)
            total, term = np.empty_like(xs), np.empty_like(acc)
            for j, col in enumerate(lb):
                np.add(col, xs[:, None, j], out=total)
                acc ^= np.take(exp, total, out=term, mode="clip")
            out[idx] = acc
        return out

    return run


def _binary_stage(matrix: BinaryMatrix) -> _Stage:
    """Four Russians on bytes: byte g of a little-endian row selects among
    columns 8g..8g+7, so out ^= table_g[byte g] over all groups g."""
    width = -(-matrix.cols // 8)
    raw = b"".join(map(int.to_bytes, matrix.rows, repeat(width), repeat("little")))
    sel = np.frombuffer(raw, dtype=np.uint8).reshape(len(matrix.rows), width).T.copy()

    def run(x: np.ndarray) -> np.ndarray:
        batch = x.shape[1]
        cols = np.zeros((width * 8, batch), dtype=np.uint16)
        cols[: matrix.cols] = x
        cols = cols.reshape(width, 8, batch)
        out = np.zeros((sel.shape[1], batch), dtype=np.uint16)
        b_step = max(1, min(batch, _SCRATCH // 256))
        g_step = max(1, _SCRATCH // (256 * b_step))
        for b0 in range(0, batch, b_step):
            acc = out[:, b0 : b0 + b_step]
            looked_up = np.empty_like(acc)
            for g0 in range(0, width, g_step):
                part = cols[g0 : g0 + g_step, :, b0 : b0 + b_step]
                table = np.zeros((len(part), 256, part.shape[2]), dtype=np.uint16)
                for bit in range(8):
                    lo = 1 << bit
                    np.bitwise_xor(table[:, :lo], part[:, bit, None], out=table[:, lo : 2 * lo])
                for g, tab in enumerate(table, g0):
                    acc ^= np.take(tab, sel[g], axis=0, out=looked_up, mode="clip")
        return out

    return run


def _batch_stages(plan) -> list[_Stage]:
    if isinstance(plan, FactoredTransform):
        return [_gather(plan.in_perm), _block_stage(plan.ctx, plan.d_blocks),
                _binary_stage(plan.a_matrix), _gather(np.argsort(plan.out_perm))]
    if isinstance(plan, GoertzelPlan):
        return [_binary_stage(plan.remainder_matrix),
                _block_stage(plan.ctx, [DenseBlock(b) for b in plan.eval_blocks]),
                _gather(np.argsort(plan.out_perm))]
    if isinstance(plan, BlahutPlan):
        return [_gather(plan.in_perm), _block_stage(plan.ctx, [DenseBlock(b) for b in plan.v_blocks]),
                _binary_stage(plan.combine_matrix)]
    raise TypeError(f"unsupported plan type {type(plan)!r}")


def apply_batch(plan, vectors: list[list[int]]) -> list[list[int]]:
    """Apply one plan to many vectors with the numpy kernels; equals apply."""
    stages = _batch_stages(plan)
    x = np.ascontiguousarray(validate_vectors(plan.ctx, vectors).T)
    for stage in stages:
        x = stage(x)
    return np.ascontiguousarray(x.T).tolist()


# ---------------------------------------------------------------------------
# Structural operation counts (no transform execution required).
# ---------------------------------------------------------------------------


def structural_stage1_counts(plan: FactoredTransform) -> tuple[int, int]:
    """Worst-case (mults, adds) for the block-diagonal stage.

    Multiplications follow the skip-units policy: entries equal to 0 or 1 are
    free, so a d x d circulant of non-unit conjugates costs d^2 and a dense
    linearized block costs its count of non-unit entries.
    """
    return _stage1_counts(plan.layouts)


def _stage1_counts(layouts: Sequence[CosetLayout]) -> tuple[int, int]:
    mults = adds = 0
    for lay in layouts:
        d = lay.coset.size
        if d == 1:
            continue
        adds += d * (d - 1)
        if isinstance(lay.block, CirculantBlock):
            mults += sum(1 for e in lay.block.first_row if e > 1) * d
        else:
            mults += sum(1 for row in lay.block.rows for e in row if e > 1)
    return mults, adds


def stage2_naive_adds(plan: FactoredTransform) -> int:
    """Exact additions of the naive binary stage: sum of (popcount - 1)."""
    return sum(r.bit_count() - 1 for r in plan.a_matrix.rows if r)


def stage1_bound(ctx: FieldContext) -> int:
    """n * log2(n + 1) = n * m, the multiplication budget."""
    return ctx.n * ctx.m


# The bench path must cover fields whose full binary matrix would not fit in
# memory, so the naive-stage addition count is aggregated per coset: the
# arguments a^(i*s) sweep the cyclic subgroup generated by a^gcd(s, n), each
# value hit gcd(s, n) times, and popcounts are summed over that subgroup once
# per distinct (basis, subgroup) pair.


def _layouts_for_tag(ctx: FieldContext, tag: str) -> list[CosetLayout]:
    partition = cyclotomic_cosets(ctx.n)
    if tag == FT2002:
        return _layouts_ft2002(ctx, partition)
    if tag == TF2003:
        return _layouts_normal(ctx, partition, shifted=False)
    if tag == FED2006A:
        return _layouts_normal(ctx, partition, shifted=False)
    if tag == FED2006B:
        return _layouts_normal(ctx, partition, shifted=True)
    raise ValueError(f"not a factored algorithm tag: {tag!r}")


def structural_counts_for_tag(ctx: FieldContext, tag: str) -> tuple[int, int, int]:
    """(stage1 mults, stage1 adds, stage2 naive adds) without building A."""
    n = ctx.n
    layouts = _layouts_for_tag(ctx, tag)
    solves = _SubfieldCoords(ctx)
    subgroup_pc: dict[tuple, int] = {}
    total_ones = 0
    for lay in layouts:
        g = gcd(lay.rep, n)
        key = (lay.basis, g)
        s = subgroup_pc.get(key)
        if s is None:
            step, table = solves.table(lay.basis)
            s = int(np.unpackbits(table[:: g // step].astype("<u2").view(np.uint8)).sum())
            subgroup_pc[key] = s
        total_ones += g * s
    return (*_stage1_counts(layouts), total_ones - n)
