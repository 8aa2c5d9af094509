"""Cyclotomic-coset combinatorics and GF(2)-linear scaffolding.

Cosets index the conjugacy classes of GF(2^m); minimal polynomials collapse a
class to one binary polynomial; normal bases make squaring a coordinate
rotation.  Everything downstream (remainder matrices, binary expansion
matrices, circulant blocks) is assembled from these pieces.  BinaryMatrix
defines how every binary matrix is packed and is the one place that
unpacks it; coordinate_matrix assembles a plan's binary matrix in that
packing, and transpose_matrix transposes one.  kernel_layout says how the
binary kernels read its parts, and plane_kernel runs a few vectors on their
bit planes, on column tables built from the parts where they fit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import scratch
from .field import FieldContext


def doubling_orbit(start: int, n: int) -> tuple[int, ...]:
    """Orbit of start under i -> 2i mod n, listed from start."""
    out = [start % n]
    i = (2 * start) % n
    while i != out[0]:
        out.append(i)
        i = (2 * i) % n
    return tuple(out)


@dataclass(frozen=True)
class Coset:
    """One cyclotomic coset: elements in doubling order from the leader."""

    leader: int
    elements: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class CosetPartition:
    n: int
    cosets: tuple[Coset, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.cosets)


def cyclotomic_cosets(n: int) -> CosetPartition:
    """Partition Z_n into doubling orbits, leaders increasing, {0} first."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    seen = bytearray(n)
    cosets = []
    for s in range(n):
        if seen[s]:
            continue
        orbit = doubling_orbit(s, n)
        for i in orbit:
            seen[i] = 1
        cosets.append(Coset(s, orbit))
    return CosetPartition(n, tuple(cosets))


def minimal_polynomial(coset: Coset, ctx: FieldContext) -> int:
    """Product of (x - a^i) over the coset, as a GF(2) coefficient bitmask.

    The product is expanded in GF(2^m); conjugacy forces every coefficient
    down to {0,1}, and anything else signals a broken coset or field.
    """
    coeffs = [1]  # ascending powers of x, coefficients in GF(2^m)
    for i in coset.elements:
        root = ctx.exp[i % ctx.n]
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] ^= c
            nxt[j] ^= ctx.mul(root, c)
        coeffs = nxt
    mask = 0
    for j, c in enumerate(coeffs):
        if c not in (0, 1):
            raise ArithmeticError(
                f"non-binary coefficient {c} in minimal polynomial of coset {coset.leader}"
            )
        mask |= c << j
    return mask


_NIBBLE_BITS = (np.arange(16)[:, None] >> np.arange(4) & 1).astype(np.uint32)  # bit j of nibble v at [v, j]
_COEFF_BITS = np.uint32(1) << np.arange(16, dtype=np.uint32)  # e_j
_RESIDUAL_BITS = _COEFF_BITS << 16  # e_q << 16


def coordinate_tables(bases: Sequence[Sequence[int]]) -> np.ndarray:
    """The GF(2)-linear map x -> coords | residual << 16 on [0, 2^16) of
    every basis, as byte tables of shape (len(bases), 2, 256), uint32: the
    map of x in basis l is tables[l, 0, x & 255] ^ tables[l, 1, x >> 8].
    Bit j of coords is the coefficient of basis[j]; the residual is 0
    exactly on the span.  ValueError for a dependent basis or an element
    outside [0, 2^16).

    One Gauss-Jordan elimination reduces all the bases at once.  Row j of
    basis l is basis[j] << 16 | 1 << j, its element beside its combination,
    and bases of different sizes are padded with zero rows; column 0 is a
    zero row too, picked where a basis has no pivot.  Bits are eliminated
    from the top down.  A row not yet a pivot has no bit set above the
    current bit p, so it is a candidate for p exactly when its element
    shifted down by p is 1: pivot rows, which keep their higher pivot bit,
    never qualify.  The result is in reduced row-echelon form, so bit q
    maps to (pivot row of q) ^ e_q << 16 when q is a pivot, else to
    e_q << 16."""
    sizes = [len(b) for b in bases]
    flat = [x for b in bases for x in b]
    if flat and (min(flat) < 0 or max(flat) >> 16):
        raise ValueError(f"a basis has an element outside [0, 2^16): {min(flat)} or {max(flat)}")
    count, width = len(sizes), max(sizes, default=0)
    if width > 16:
        raise ValueError(f"a basis of {width} elements of [0, 2^16) is dependent")
    real = np.arange(width) < np.array(sizes, dtype=np.intp).reshape(count, 1)
    elements = np.zeros((count, width), dtype=np.uint32)
    elements[real] = flat
    elements <<= 16
    rows = np.zeros((count, width + 1), dtype=np.uint32)
    np.multiply(real, _COEFF_BITS[:width], out=rows[:, 1:])
    rows[:, 1:] |= elements
    flat_rows = rows.ravel()
    first = np.arange(0, rows.size, width + 1)  # column 0 of each basis
    top = max(flat, default=0).bit_length()
    pivots = np.empty((top, count), dtype=np.intp)  # flat index of each bit's pivot row
    for p in reversed(range(top)):
        high = rows >> (p + 16)
        pick = (high == 1).argmax(axis=1)
        pick += first
        pivot = flat_rows[pick]
        high &= 1
        high *= pivot[:, None]
        rows ^= high
        flat_rows[pick] = pivot  # it cleared itself
        pivots[p] = pick
    dependent = ((rows >> 16) == 0) & (rows != 0)  # a combination summing to 0
    if dependent.any():
        raise ValueError(f"basis {tuple(bases[int(np.argmax(dependent.any(axis=1)))])} is dependent")
    images = np.empty((count, 16), dtype=np.uint32)
    images[:] = _RESIDUAL_BITS
    images[:, :top] ^= flat_rows[pivots].T
    # per nibble of each byte, then the XOR of the two nibbles' entries
    nibbles = np.bitwise_xor.reduce(images.reshape(count, 2, 2, 1, 4) * _NIBBLE_BITS, axis=4)
    return (nibbles[:, :, 0, None, :] ^ nibbles[:, :, 1, :, None]).reshape(count, 2, 256)


class LinearSolver:
    """Coordinate solver for a fixed GF(2)-independent basis of field elements.

    Precomputes a Gauss-Jordan reduction once; each solve is O(d) word ops.
    Coordinates are returned as a d-bit int, bit j = coefficient of basis[j].
    The reduction is kept in reduced row-echelon form: each reduced vector
    holds its own pivot bit and no other pivot, so the pivots an element has
    set name exactly the reduced vectors it is the XOR of.  It is the
    element-by-element reference for coordinate_tables, which reduces many
    bases at once for plan builds, and the independence test of
    find_normal_basis.
    """

    __slots__ = ("basis", "_reduced")

    def __init__(self, basis: tuple[int, ...] | list[int]):
        self.basis = tuple(basis)
        if any(not 0 <= b < 1 << 16 for b in self.basis):
            raise ValueError(f"basis {self.basis} has an element outside [0, 2^16)")
        reduced: list[tuple[int, int, int]] = []  # (pivot bit, vector, combo)
        for j, b in enumerate(self.basis):
            v, combo = b, 1 << j
            for p, rv, rc in reduced:
                if (v >> p) & 1:
                    v ^= rv
                    combo ^= rc
            if v == 0:
                raise ValueError(f"basis element {b} depends on the previous ones")
            p = v.bit_length() - 1
            for idx, (p2, rv2, rc2) in enumerate(reduced):
                if (rv2 >> p) & 1:
                    reduced[idx] = (p2, rv2 ^ v, rc2 ^ combo)
            reduced.append((p, v, combo))
        self._reduced = reduced

    def coords(self, x: int) -> int:
        r, combo = x, 0
        for p, rv, rc in self._reduced:
            if (r >> p) & 1:
                r ^= rv
                combo ^= rc
        if r != 0:
            raise ValueError(f"element {x} not in span of basis {self.basis}")
        return combo


def find_normal_basis(ctx: FieldContext, d: int) -> tuple[int, ...]:
    """Normal basis (b, b^2, b^4, ..., b^(2^(d-1))) of the subfield GF(2^d)
    of GF(2^m), as a tuple: b is the first subfield element, in increasing
    discrete-log order, whose conjugates are GF(2)-independent.  The
    subfield's logs are 0, n / (2^d - 1), ..., so for d = 1 it is (1,)."""
    if d < 1 or ctx.m % d != 0:
        raise ValueError(f"d={d} does not divide m={ctx.m}")
    for lg in range(0, ctx.n, ctx.n // ((1 << d) - 1)):
        basis = tuple(ctx.exp[(lg << t) % ctx.n] for t in range(d))
        try:
            LinearSolver(basis)
        except ValueError:
            continue
        return basis
    raise RuntimeError(f"no normal basis found for d={d} (field tables are broken)")


class Part(NamedTuple):
    """One packed 0/1 block of a BinaryMatrix: entry (r, j) is bit j % 8 of
    packed[j // 8, r], so packed[g] holds byte g of every row, as both
    binary kernels read it; every bit past column cols is clear."""

    packed: np.ndarray
    cols: int

    @property
    def rows(self) -> int:
        return self.packed.shape[1]


class BinaryMatrix:
    """0/1 matrix held as a tuple of parts, each a read-only packing (Part),
    the only place that knows the layout.  The parts sit side by side along
    the stored columns, part i from column offsets[i], 8 times the byte
    groups of the parts before it (so each starts at a byte boundary and
    the columns between one part's last and the next one's first are pads,
    stored nowhere), and each repeats down the stored rows with its row
    period p, its row count, which divides the largest, the stored row
    count: stored entry (r, offsets[i] + j) is part i's entry (r mod p, j).
    With transposed, rows and columns swap roles: the parts sit one under
    the other along the stored rows and repeat across the columns with the
    period of their column count, stored entry (offsets[i] + r, c) being
    part i's (r, c mod p).  One part is a dense matrix either way.
    Entry (r, c) is stored entry (order[0][r], order[1][c]), an order being
    an index or None, so stages one permutation apart share the parts; an
    index along the parts' axis names every stored position but the pads."""

    __slots__ = ("parts", "order", "transposed", "offsets", "stored", "n_rows", "cols")

    def __init__(self, parts: Sequence[Part], order: tuple = (None, None), transposed: bool = False):
        """ValueError unless each part is a (ceil(cols / 8), rows) uint8 array
        with every bit past its column cols clear, each period divides the
        largest, and each index of order is a permutation of the stored
        positions of its axis, a None along the parts' axis needing no pads.
        Marks every packing read-only."""
        parts = tuple(part if isinstance(part, Part) else Part(*part) for part in parts)
        for packed, cols in parts:
            if not isinstance(packed, np.ndarray) or packed.dtype != np.uint8:
                raise ValueError("packed rows must be a uint8 numpy array")
            if cols < 0 or packed.ndim != 2 or len(packed) != -(-cols // 8):
                raise ValueError(f"packed shape {packed.shape} does not hold {cols} columns")
            if cols % 8 and (packed[-1] >> (cols % 8)).any():
                raise ValueError(f"bits set past column {cols}")
        if not parts:
            raise ValueError("a binary matrix needs a part")
        transposed = bool(transposed) and len(parts) > 1  # one part reads the same either way
        extents = [part.rows if transposed else part.cols for part in parts]
        periods = [part.cols if transposed else part.rows for part in parts]
        period = max(periods)
        if any(period % p for p in periods):
            raise ValueError(f"periods {periods} do not all divide {period}")
        self.offsets = tuple(8 * g for g in accumulate((-(-e // 8) for e in extents[:-1]), initial=0))
        placed = self.offsets[-1] + extents[-1]
        self.stored = (placed, period) if transposed else (period, placed)
        self.order = tuple(None if idx is None else np.asarray(idx) for idx in order)
        for axis, (idx, name) in enumerate(zip(self.order, ("row", "column"), strict=True)):
            along = axis == (0 if transposed else 1)
            if idx is None:
                if along and sum(extents) != placed:
                    raise ValueError(f"the {name} order must skip the pads between parts")
                continue
            if along:  # every stored position but the pads
                want = np.concatenate([np.arange(off, off + e) for off, e in zip(self.offsets, extents)])
            else:
                want = np.arange(period)
            if idx.dtype.kind not in "iu" or not np.array_equal(np.sort(idx), want):
                raise ValueError(f"the {name} order is not a permutation of {len(want)} stored {name}s")
        self.n_rows, self.cols = (self.stored[axis] if idx is None else len(idx) for axis, idx in enumerate(self.order))
        for part in parts:
            part.packed.flags.writeable = False
        self.parts = parts
        self.transposed = transposed

    def __reduce__(self):
        """Copies and pickles go through __init__: checked and read-only."""
        return BinaryMatrix, (self.parts, self.order, self.transposed)

    @classmethod
    def from_rows(cls, rows: Sequence[int], cols: int) -> "BinaryMatrix":
        """Row i from an int with bit j = entry (i, j): one part."""
        width = -(-cols // 8)
        try:
            raw = b"".join(r.to_bytes(width, "little") for r in rows)
        except OverflowError:
            raise ValueError(f"a row does not fit in {cols} columns") from None
        return cls((Part(np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), width).T.copy(), cols),))

    @property
    def rows(self) -> list[int]:
        """Row i as an int with bit j = entry (i, j), derived on each access."""
        raw, w = np.packbits(self.bits(), axis=1, bitorder="little").tobytes(), -(-self.cols // 8)
        return [int.from_bytes(raw[i * w : (i + 1) * w], "little") for i in range(self.n_rows)]

    def bits(self, transpose: bool = False) -> np.ndarray:
        """The (rows, cols) uint8 0/1 array of the entries, or with transpose
        its (cols, rows) transpose, unpacked anew on each call and taken in
        order: the one place that unpacks the matrix.  Each part is unpacked
        once and tiled along its period into the stored matrix, whose pads
        are 0; one part is the stored matrix itself."""
        blocks = [_unpacked(part, transpose) for part in self.parts]
        if len(blocks) == 1:
            out = blocks[0]
        else:
            out = np.zeros(self.stored[::-1] if transpose else self.stored, dtype=np.uint8)
            for off, block in zip(self.offsets, blocks):
                if transpose != self.transposed:  # the parts stack along the rows
                    extent, p = block.shape
                    out[off : off + extent].reshape(extent, out.shape[1] // p, p)[:] = block[:, None]
                else:
                    p, extent = block.shape
                    out[:, off : off + extent].reshape(len(out) // p, p, extent)[:] = block
        first, second = self.order[::-1] if transpose else self.order
        out = out if first is None else out.take(first, axis=0)
        return out if second is None else out.take(second, axis=1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix) or (self.n_rows, self.cols) != (other.n_rows, other.cols):
            return False
        layouts = [(m.transposed, [(part.packed.shape, part.cols) for part in m.parts]) for m in (self, other)]
        if layouts[0] == layouts[1] and all(a is b or np.array_equal(a, b) for a, b in zip(self.order, other.order)):
            # one layout and one order map both the same way
            return all(np.array_equal(p.packed, q.packed) for p, q in zip(self.parts, other.parts))
        return np.array_equal(self.bits(), other.bits())

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.n_rows}x{self.cols})"


def _unpacked(part: Part, transpose: bool) -> np.ndarray:
    """The part's (rows, cols) uint8 0/1 array, or with transpose its (cols,
    rows) transpose.  The transpose unpacks along axis 0, where packed[g]
    holds byte g of every row, so neither form transposes a byte array: bit
    b of packed[g] is column 8g + b, one shift and one AND per bit
    (np.unpackbits along axis 0 took 25 times as long at m = 12)."""
    if not transpose:
        return np.unpackbits(np.ascontiguousarray(part.packed.T), axis=1, count=part.cols, bitorder="little")
    columns = np.empty((len(part.packed), 8, part.rows), dtype=np.uint8)
    for b in range(8):
        np.right_shift(part.packed, b, out=columns[:, b])
        columns[:, b] &= 1
    return columns.reshape(-1, part.rows)[: part.cols]


# Assembling a plan's binary matrix.  Every binary matrix of a plan (A, R
# and the combine matrix) holds, per coset, the coordinates of a^(i*rep) in
# a small basis: a GF(2)-linear map of the element's bits, with a residual
# that is 0 exactly on the span.  One coordinate_tables call reduces every
# distinct basis of a build, and a basis maps the exp table into its
# coordinates: once per build when cosets share it (the factored tags' 2-6
# bases), in the chunk of its coset when the basis is the coset's own (the
# power bases of goertzel and blahut2008, ft2002's below size m).
#
# The matrix is filled a chunk of cosets at a time, as many as give the
# budget (algorithms passes the kernels' _GATHER, 2^15) in elements of
# points x cosets, and at least one: m = 8 is one chunk, m = 10 four and
# m = 11 twelve, where a coset at a time made about ten numpy calls per
# coset.  A chunk is one grid of exponents points * rep, reduced mod n by
# two folds (e & n) + (e >> m), as 2^m = 1 mod n, in half the time of
# numpy's remainder, which divides one element at a time; one gather from
# the maps of its bases; one residual check; one shift of each coset's
# coordinates to its bit offset; and the ORs of their bytes into the
# packed rows, byte j of coset k into byte group starts[k] // 8 + j.  The
# first byte of each group goes in by one OR into the chunk's consecutive
# groups; narrow cosets, and a coset's last byte beside the next one's
# first, give some groups a second or third byte, one fancy OR per round
# (at most three rounds for every m).  A bitwise_or.reduceat over the
# cosets of each group took 0.2 ms per call at m = 10, as long as the
# per-coset steps: it loops over a group's cosets for each point.
#
# Once a coset's points exceed half the budget (m >= 15; two cosets at
# m = 14) a chunk is one coset, with the steps of a coset at a time and the
# same work per element.  The temporaries, allocated once per build, are
# the chunk's exponents, which become its coordinates, and its gather
# index, whose memory holds the folds' high parts first: 12 bytes per
# element (0.4 MiB), plus the maps of the shared bases and of one chunk's
# own.
#
# A matrix of parts is filled in one pass over its cosets in stored order,
# part by part, each part's from a byte boundary, and a chunk never spans
# two parts: the cosets of a part of p rows are mapped at points[:p] only,
# so a part whose arguments a^(i rep) repeat with period p (subgroup
# periodicity, see algorithms) costs p / len(points) of a full one to
# build and to hold.  The byte-group bookkeeping, the coordinate tables,
# the maps of the shared bases and the temporaries serve every part.
#
# goertzel's R is the transpose of the combine matrix.  The chunks pack
# their cosets' bytes into a slab of the combine matrix's packing, as many
# groups as one transpose step takes (budget blocks) and at least a
# chunk's.  When the next chunk would not fit, the groups before its first
# are transposed into R's packing and its first group, which the chunk
# before may have begun, moves to the slab's start, so each group is
# transposed once.  The transpose works on whole 8x8 bit blocks: block
# (g, a) of a slab, one little-endian uint64, holds byte g of rows
# 8a..8a+7, and the delta swaps below turn it into byte a of rows
# 8g..8g+7 of the transpose, so the slab's blocks, transposed as a uint64
# array, are the transpose's bytes.  So a build
# holds R, one chunk's temporaries and one slab of blocks, never the
# combine matrix.  transpose_matrix transposes a built matrix part by part
# the same way, budget blocks of a part's packing at a time into a new
# packing, so the two share no memory.

# delta swaps that transpose an 8x8 bit block held as a little-endian uint64,
# byte i = row i: they swap the off-diagonal bits of each 2x2 block, then the
# off-diagonal 2x2 blocks of each 4x4 block, then the off-diagonal 4x4 blocks
_DELTA_SWAPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _transpose_into(packed: np.ndarray, rows: int, out: np.ndarray, budget: int, in_place: bool = False) -> None:
    """Write into out, a (ceil(rows / 8), 8 groups) byte array whose rows
    are C-contiguous, the transpose of packed, a (groups, rows) packing,
    budget // ceil(rows / 8) byte groups (budget blocks) at a time: each
    slab's rows zero-padded to whole blocks in a copy, or, in_place, packed
    is (groups, 8 ceil(rows / 8)) scratch already padded, swapped where it
    is.  The delta swaps turn each block in place, and one copy puts the
    slab's blocks, transposed as a uint64 array, into out's."""
    groups, p8 = len(packed), len(out)
    slab = max(1, budget // max(p8, 1))
    swap = np.empty((min(slab, groups), p8), dtype=np.uint64)
    buf = None if in_place else np.zeros((len(swap), 8 * p8), dtype=np.uint8)
    out = out.view("<u8")  # (p8, groups): block (a, g) is byte a of rows 8g..8g+7
    for g0 in range(0, groups, slab):
        s = min(slab, groups - g0)
        if in_place:
            blocks = packed[g0 : g0 + s].view("<u8")
        else:
            buf[:s, :rows] = packed[g0 : g0 + s]
            buf[:s, rows:] = 0  # the last swaps moved bits there
            blocks = buf[:s].view("<u8")
        tmp = swap[:s]
        for shift, mask in _DELTA_SWAPS:
            np.right_shift(blocks, shift, out=tmp)
            tmp ^= blocks
            tmp &= mask
            blocks ^= tmp
            tmp <<= shift
            blocks ^= tmp
        out[:, g0 : g0 + s] = blocks.T


def _transposed_packing(cols: int, rows: int) -> np.ndarray:
    """The (ceil(rows / 8), 8 ceil(cols / 8)) array whose first cols columns
    pack a transpose of cols rows, its rows whole uint64 blocks, for
    _transpose_into to fill."""
    return np.empty((-(-rows // 8), 8 * -(-cols // 8)), dtype=np.uint8)


def transpose_matrix(matrix: BinaryMatrix, budget: int) -> BinaryMatrix:
    """matrix's transpose: each part's packing transposed into a new one,
    its orders swapped."""
    parts = []
    for part in matrix.parts:
        out = _transposed_packing(part.cols, part.rows)
        _transpose_into(part.packed, part.rows, out, budget)
        parts.append(Part(out[:, : part.cols], part.rows))
    return BinaryMatrix(parts, matrix.order[::-1], not matrix.transposed)


# How the binary kernels (algorithms) read a matrix's parts, and the
# bit-plane kernel, which runs a call of a few vectors.  The stage is
# GF(2)-linear, so a call of batch vectors of m-bit elements is m batch
# products over GF(2), one per bit plane, each plane packed as the matrix
# is (bit_planes).  The kernel folds each part on the planes in one of two
# ways, picked per matrix by its size.  The column tables hold, per part,
# the XOR of every subset of each 4 consecutive columns, packed over the
# part's rows: the method of Four Russians with the tables on the matrix's
# side, so that they depend on the plan alone and are built once.  A
# plane's byte g then splits into 2 table indices, and bit b of every row's
# output is the XOR of the rows those indices pick, one take and one XOR
# across them for all planes at once.  A matrix
# whose tables would not fit is folded by the AND of bytes instead: each
# byte group's packed bytes ANDed with that group's byte of every plane, one
# AND and one XOR per matrix byte and plane, and the parity of each byte of
# the XOR is the bit.  The columns come from _transpose_into, one pass over
# the packing (unpacking the bytes and packing them along the rows took 1.9
# ms for tf2003's full part at m = 10, against 0.12 ms); each of the 4
# doublings of the subsets is one XOR.  The tables of a packing are kept
# while it lives, keyed by its identity, so the plans that share a packing
# (tf2003, fed2006a and fed2006b) share one set, and they go with it.
# Either fold's XOR is placed at the part's rows or tiled over the output
# (the parity of an XOR is the XOR of the parities), and one shift and one
# OR per plane give the outputs.


class KernelLayout(NamedTuple):
    """How the binary kernels read a matrix's parts.  Part i reads byte
    groups first[i].. of the kernel's input and writes its rows at out[i]
    of the output, or, with out[i] None, XORs them into the output tiled.
    folds lists, for a transposed matrix, the input's folds to stack: the
    input folded to period p, from row offset (a byte boundary) on; it is
    empty for a matrix whose parts all read the input as it is."""

    first: list[int]
    packed: list[np.ndarray]
    out: list[int | None]
    folds: list[tuple[int, int]]
    rows: int  # the output's rows, pads included
    width: int  # the input's byte groups


def kernel_layout(matrix: BinaryMatrix) -> KernelLayout:
    """A matrix's parts as the binary kernels read them.  The parts of a
    transposed matrix (goertzel's R) each read the input folded to their
    period p, row i of the fold being the XOR of the input's rows i, i + p,
    ...; the folds are stacked, each from a byte boundary, and each part
    writes its rows at its offset.  Otherwise each part reads its own byte
    groups of the input."""
    packed = [part.packed for part in matrix.parts]
    if not matrix.transposed:
        first = [off // 8 for off in matrix.offsets]
        out = [None] * len(packed)
        return KernelLayout(first, packed, out, [], matrix.stored[0], -(-matrix.stored[1] // 8))
    groups = [-(-part.cols // 8) for part in matrix.parts]
    first = list(accumulate(groups[:-1], initial=0))
    folds = [(8 * g, part.cols) for g, part in zip(first, matrix.parts)]
    return KernelLayout(first, packed, list(matrix.offsets), folds, matrix.stored[0], sum(groups))


def stacked_input(x: np.ndarray, layout: KernelLayout, out: np.ndarray | None = None) -> np.ndarray:
    """The kernel input for layout: x itself, or its folds stacked.  Given
    out, an (8 width, lanes >= batch) array, x or its folds go into
    out[:, :batch] and every other entry of out is set to 0."""
    if out is None and not layout.folds:
        return x
    batch = x.shape[1]
    out = np.empty((8 * layout.width, batch), dtype=x.dtype) if out is None else out
    out[...] = 0
    for at, p in layout.folds or [(0, len(x))]:
        if p == len(x):
            out[at : at + p, :batch] = x
        else:
            np.bitwise_xor.reduce(x.reshape(len(x) // p, p, batch), axis=0, out=out[at : at + p, :batch])
    return out


def xor_fold(acc: np.ndarray | None, terms: np.ndarray) -> np.ndarray:
    """The XOR of terms over their first axis, XORed into acc in place and
    returned; with acc None, that XOR alone.  A single term goes in
    directly: a reduce over one would first copy it."""
    part = terms[0] if len(terms) == 1 else np.bitwise_xor.reduce(terms, axis=0)
    return part if acc is None else np.bitwise_xor(acc, part, out=acc)


def bit_planes(x: np.ndarray, shifts: np.ndarray, width: int) -> np.ndarray:
    """The (width, batch m) bit planes of a kernel input of batch vectors,
    m = len(shifts), shifts the column 0..m-1: column v m + b packs bit b
    of vector v's elements, byte g holding bit j of element 8g + j."""
    bits = (x.T[:, None, :] >> shifts).astype(np.uint8) & 1
    return np.packbits(bits, axis=2, bitorder="little").reshape(x.shape[1] * len(shifts), width).T


def column_tables(packed: np.ndarray, t: int, budget: int) -> np.ndarray:
    """The column tables of a (groups, rows) packing, t columns a table (t
    divides 8): a read-only ((8 / t) groups 2^t, ceil(rows / 8)) uint8
    array whose row (h groups + g) 2^t + s is the XOR of the columns
    8g + ht + i over the bits i set in s, its bit r (bit r % 8 of byte
    r // 8) that of row r.  The columns are transposed out of the packing
    budget blocks at a time."""
    groups, rows = packed.shape
    columns = _transposed_packing(8 * groups, rows)
    _transpose_into(packed, rows, columns, budget)
    row_bytes = len(columns)
    # [h, g, i]: column 8g + ht + i, its bits over the rows
    columns = np.ascontiguousarray(columns.T).reshape(groups, 8 // t, t, row_bytes).transpose(1, 0, 2, 3)
    table = np.zeros((8 // t, groups, 1 << t, row_bytes), dtype=np.uint8)
    for i in range(t):
        np.bitwise_xor(table[:, :, : 1 << i], columns[:, :, i, None], out=table[:, :, 1 << i : 2 << i])
    table = table.reshape(-1, row_bytes)
    table.flags.writeable = False
    return table


# (id of a packing, t) -> its column tables, dropped when the packing goes
_TABLES: dict[tuple[int, int], np.ndarray] = {}


def _tables_of(packed: np.ndarray, t: int, budget: int) -> np.ndarray:
    """The packing's column tables of width t, built on first use."""
    key = (id(packed), t)
    table = _TABLES.get(key)
    if table is None:  # two threads may both build; one table is kept
        table = _TABLES.setdefault(key, column_tables(packed, t, budget))
        weakref.finalize(packed, _TABLES.pop, key, None)
    return table


def plane_kernel(matrix: BinaryMatrix, m: int, table_bytes: int, budget: int) -> Callable:
    """The bit-plane kernel of the binary stage (see above).  It reads the
    (8 width, batch) kernel input's m bit planes and folds each part's p
    rows on them in one of two ways, its temporaries in the thread's
    scratch.  With column tables, 4 columns a table, when those of every
    part take at most table_bytes together, it takes the table rows that
    each plane's bytes index, 2 per byte group, as many as give table_bytes
    at a time, and XORs them: bit r of the XOR for plane b is bit b of row
    r's output.  Without, it ANDs the part's packed bytes, budget // p
    groups at a time, with each plane's byte of every group and XORs them:
    the parity of byte r of the XOR is that bit, taken once the parts are
    in place.  The tables are the ones shared by every kernel on the same
    packings (_tables_of), transposed budget blocks at a time."""
    layout = kernel_layout(matrix)
    rows, width = layout.rows, layout.width
    t = 4
    per = 8 // t
    tabled = sum((per * len(sel) << t) * -(-sel.shape[1] // 8) for sel in layout.packed) <= table_bytes
    # per part: first group, rows, output row or None, its lookups, the bytes
    # each gives a plane, what they read, and the tables' index of each byte
    # and of each group
    parts = []
    for first, sel, place in zip(layout.first, layout.packed, layout.out):
        groups, p = sel.shape
        if not tabled:
            parts.append((first, p, place, groups, p, sel[:, None], None, None))
            continue
        index_of = (np.arange(256, dtype=np.intp) >> t * np.arange(per)[:, None]) & (1 << t) - 1
        index_of += (np.arange(per) * groups << t)[:, None]
        base = np.arange(groups, dtype=np.intp)[:, None] << t
        parts.append((first, p, place, per * groups, -(-p // 8), _tables_of(sel, t, budget), index_of, base))
    shifts = np.arange(m, dtype=np.uint16)[:, None]
    key = next(scratch.keys)

    def chunk(n_planes: int, row_bytes: int) -> int:
        """The lookups a chunk folds: as many as give budget bytes a plane
        (the AND) or table_bytes in all (the tables), and at least one."""
        return max(1, table_bytes // max(n_planes * row_bytes, 1) if tabled else budget // row_bytes)

    def specs(n_planes: int) -> list[scratch.Spec]:
        looked = max(min(n, chunk(n_planes, b)) * b for _, _, _, n, b, *_ in parts)
        if tabled:  # the table rows' index, and the rows looked up
            return [((max(n for _, _, _, n, *_ in parts) * n_planes,), np.intp), ((looked * n_planes,), np.uint8)]
        return [((0,), np.intp), ((max(looked, rows) * n_planes,), np.uint8)]  # the ANDs, or the output halved

    def run(x: np.ndarray) -> np.ndarray:
        x = stacked_input(x, layout)
        batch = x.shape[1]
        n_planes = m * batch
        index, looked = scratch.arrays((key, batch), specs, n_planes)
        planes = bit_planes(x, shifts, width)
        out = np.zeros((n_planes, rows), dtype=np.uint8) if layout.folds else None
        short = []
        for first, p, place, lookups, row_bytes, source, index_of, base in parts:
            if tabled:  # the table row of each h, group and plane
                at = index[: lookups * n_planes].reshape(len(index_of), len(base), n_planes)
                index_of.take(planes[first : first + len(base)], 1, at, "clip")
                at += base
                at = at.reshape(lookups, n_planes)
            else:
                at = planes[first : first + lookups, :, None]
            k, acc = chunk(n_planes, row_bytes), None
            for g0 in range(0, lookups, k):
                n = min(k, lookups - g0)
                into = looked[: n * n_planes * row_bytes].reshape(n, n_planes, row_bytes)
                if tabled:
                    terms = source.take(at[g0 : g0 + k], 0, into, "clip")
                else:
                    terms = np.bitwise_and(source[g0 : g0 + k], at[g0 : g0 + k], out=into, order="C")
                acc = np.bitwise_xor.reduce(terms, axis=0) if acc is None else xor_fold(acc, terms)
            bits = np.unpackbits(acc, axis=1, count=p, bitorder="little") if tabled else acc
            if place is not None:
                out[:, place : place + p] = bits
            elif out is None and p == rows:
                out = bits
            else:
                short.append(bits)
        for bits in short:
            tiled = out.reshape(n_planes, rows // bits.shape[1], bits.shape[1])
            tiled ^= bits[:, None]
        if not tabled:  # each byte's parity: its halves XORed, down to bit 0
            half = looked[: out.size].reshape(out.shape)
            for shift in (4, 2, 1):
                np.right_shift(out, shift, out=half)
                out ^= half
            out &= 1
        return np.bitwise_or.reduce(np.left_shift(out.reshape(batch, m, rows), shifts, dtype=np.uint16), axis=1).T

    return run


def coordinate_matrix(
    ctx: FieldContext,
    points,
    reps: Sequence[int],
    bases: Sequence[tuple[int, ...]],
    budget: int,
    transpose: bool = False,
    parts: Sequence[tuple[int, Sequence[int]]] | None = None,
) -> BinaryMatrix:
    """The matrix of len(points) rows whose row r holds the coordinates of
    a^(points[r] * reps[k]) in bases[k], coset k beside coset k - 1 from the
    lowest bits; with transpose, its transpose.  parts lists, per part, its
    row count p and the indices of its cosets, increasing, each coset in
    one part; the default is one part of every coset.  A part stores its
    cosets at points[:p] alone, and for p < len(points) the caller vouches
    that row r + p of each of them repeats row r.  The parts' columns (rows,
    with transpose) are stored in the order the list gives, each part from
    a byte boundary, and shown in coset order.  A chunk holds as many
    cosets of a part as give budget elements of points x cosets, and at
    least one.  ArithmeticError, naming the exponent and the basis, if an
    argument lies outside its basis's span."""
    n, l = ctx.n, len(bases)
    parts = [(len(points), range(l))] if parts is None else parts
    ids: dict[tuple[int, ...], int] = {}
    basis_of = np.array([ids.setdefault(b, len(ids)) for b in bases])
    tables = coordinate_tables(list(ids))
    exp = np.asarray(ctx.exp + ctx.exp[:1], dtype=np.intp)  # a^n = a^0 closes the folds below
    low, high = exp & 255, exp >> 8
    points = np.asarray(points, dtype=np.uint32)  # points * rep < n^2 < 2^(2m) <= 2^32

    def map_exp(which: np.ndarray, out: np.ndarray) -> None:
        """Row i of out: the map of basis which[i] at each a^e, e <= n."""
        np.take(tables[which, 0], low, axis=1, out=out)
        out ^= np.take(tables[which, 1], high, axis=1)

    # the cosets in stored order, part by part: coset i of that order is
    # coset stored[i], its columns from starts[i] on, each part's from a
    # byte boundary; the column order shows them in coset order
    lens = np.array([len(ks) for _, ks in parts])
    part_end = np.cumsum(lens)  # each part's cosets end there in stored order
    widths = np.array([len(b) for b in bases])
    reps = np.array(reps, dtype=np.uint32)[:, None]
    order = stored_columns(widths, [ks for _, ks in parts])
    starts = np.cumsum(widths) - widths
    if order is not None:  # the cosets and their columns in stored order
        stored = np.concatenate([np.asarray(ks, dtype=np.intp) for _, ks in parts])
        starts, widths, reps, basis_of = order[starts[stored]], widths[stored], reps[stored], basis_of[stored]
        bases = [bases[k] for k in stored.tolist()]
    ends = starts + widths
    first_group, last_group = starts // 8, (ends - 1) // 8
    # byte j of coset k's shifted coordinates goes to byte group
    # first_group[k] + j; listed by k then j, these (k, j) pairs never go
    # back a group, and the pairs of one rank within their group write
    # distinct groups
    reach = last_group - first_group + 1
    first_pair = np.concatenate(([0], np.cumsum(reach)))
    pair_coset = np.repeat(np.arange(l), reach)
    pair_byte = np.arange(first_pair[-1]) - first_pair[pair_coset]
    pair_group = first_group[pair_coset] + pair_byte
    in_group = np.bincount(pair_group)
    pair_rank = np.arange(len(pair_group)) - (np.cumsum(in_group) - in_group)[pair_group]
    shifts = (starts % 8).astype(np.uint32)[:, None]

    is_shared = np.bincount(basis_of) > 1
    shared, own = np.flatnonzero(is_shared), ~is_shared[basis_of]
    shared_row = (np.cumsum(is_shared) - 1)[basis_of]
    per_chunk = [max(1, min(int(c), budget // max(p, 1))) for (p, _), c in zip(parts, lens)]
    size = max(k * p for k, (p, _) in zip(per_chunk, parts))
    part_cols = [int(ends[k1 - 1] - starts[k0]) for k0, k1 in zip(part_end - lens, part_end)]
    outs = [  # the packings, before the temporaries
        _transposed_packing(cols, rows) if transpose else np.zeros((-(-cols // 8), rows), dtype=np.uint8)
        for (rows, _), cols in zip(parts, part_cols)
    ]
    maps = np.empty((len(shared) + max(per_chunk), n + 1), dtype=np.uint32)  # the shared bases, then a chunk's own
    map_exp(shared, maps[: len(shared)])
    coords = np.empty(size, dtype=np.uint32)  # exponents, then coordinates
    at = np.empty(size, dtype=np.intp)  # the gather index
    high_part = at.view(np.uint32)  # the folds', in at's memory
    built = []
    for (rows, _), k0_part, k1_part, chunk, out, cols in zip(
        parts, part_end - lens, part_end, per_chunk, outs, part_cols
    ):
        g_part = int(first_group[k0_part])  # the part's first byte group
        groups, base = -(-cols // 8), g_part  # packed[i] holds byte group base + i
        packed = out
        if transpose:  # a slab of groups, what one _transpose_into step takes and at least a chunk's, padded
            chunks = range(k0_part, k1_part, chunk)
            span = max(last_group[min(k0 + chunk, k1_part) - 1] - first_group[k0] + 1 for k0 in chunks)
            slab = np.zeros((min(groups, max(span, budget // -(-rows // 8))), 8 * -(-rows // 8)), dtype=np.uint8)
            packed = slab[:, :rows]

        def flush(end: int) -> None:
            """The slab's groups base..end - 1 into R, the swaps leaving them to clear."""
            into = out[:, 8 * (base - g_part) : 8 * (end - g_part)]
            _transpose_into(slab[: end - base], rows, into, budget, in_place=True)

        pts = points[:rows]
        e_all, high_all, index_all = (buf[: chunk * rows].reshape(chunk, rows) for buf in (coords, high_part, at))
        for k0 in range(k0_part, k1_part, chunk):
            k1 = min(k0 + chunk, k1_part)
            if transpose and last_group[k1 - 1] + 1 - base > len(packed):
                done = int(first_group[k0]) - base  # the groups before this chunk's first are complete
                flush(base + done)
                slab[0] = slab[done] if done < len(slab) else 0  # this chunk's first group: the last may have begun it
                slab[1 : done + 1] = 0
                base += done
            e, e_high, index, mine = e_all[: k1 - k0], high_all[: k1 - k0], index_all[: k1 - k0], own[k0:k1]
            np.multiply(reps[k0:k1], pts, out=e)
            for _ in range(2):  # e = (e & n) + (e >> m): below 2n, then at most n
                np.right_shift(e, ctx.m, out=e_high)
                e &= n
                e += e_high
            map_row, count = shared_row[k0:k1].copy(), np.count_nonzero(mine)
            if count:
                map_row[mine] = len(shared) + np.arange(count)
                map_exp(basis_of[k0:k1][mine], maps[len(shared) : len(shared) + count])
            np.add(e, (map_row * (n + 1))[:, None], out=index)
            c = np.take(maps.reshape(-1), index, out=e)
            if c.max() >> 16:  # a residual is set
                k, r = divmod(int(np.flatnonzero(c >> 16)[0]), rows)
                exponent = int(pts[r]) * int(reps[k0 + k, 0]) % n
                raise ArithmeticError(f"a^{exponent} is outside the span of {bases[k0 + k]}")
            c <<= shifts[k0:k1]
            by_byte = c.astype("<u4", copy=False).view(np.uint8).reshape(k1 - k0, rows, 4)
            pairs = slice(first_pair[k0], first_pair[k1])
            k, j, g = pair_coset[pairs] - k0, pair_byte[pairs], pair_group[pairs] - base
            rank = np.minimum(pair_rank[pairs], np.arange(len(g)))  # within the chunk
            first = rank == 0  # one pair per group, and the chunk's groups are consecutive
            packed[g[0] : g[-1] + 1] |= by_byte[k[first], :, j[first]]
            for t in range(1, int(rank.max()) + 1):
                of_rank = rank == t
                packed[g[of_rank]] |= by_byte[k[of_rank], :, j[of_rank]]
        if transpose:
            flush(g_part + groups)
            built.append(Part(out[:, :cols], rows))
        else:
            built.append(Part(out, cols))
    return BinaryMatrix(built, (order, None) if transpose else (None, order), transpose)


def stored_columns(widths: Sequence[int], groups: Sequence[Sequence[int]]) -> np.ndarray | None:
    """Where each column of cosets of these widths, side by side in coset
    order, is stored when the groups of coset indices, each increasing, are
    stored in order, each from a byte boundary: an index, or None for the
    identity."""
    if len(groups) == 1:
        return None
    widths = np.asarray(widths, dtype=np.intp)
    starts, offset = np.empty(len(widths), dtype=np.intp), 0  # where each coset's first column is stored
    for ks in groups:
        w = widths[ks]
        starts[ks] = offset + np.cumsum(w) - w
        offset += 8 * -(-int(w.sum()) // 8)
    return np.repeat(starts - (np.cumsum(widths) - widths), widths) + np.arange(int(widths.sum()))
