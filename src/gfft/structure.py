"""Cyclotomic-coset combinatorics and GF(2)-linear scaffolding.

Cosets index the conjugacy classes of GF(2^m); minimal polynomials collapse a
class to one binary polynomial; normal bases make squaring a coordinate
rotation.  Everything downstream (remainder matrices, binary expansion
matrices, circulant blocks) is assembled from these pieces, and every
binary matrix is packed and unpacked by BinaryMatrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

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


# bytes of the untransposed packing that BinaryMatrix.from_coords holds at a
# time while it packs a transpose
_TRANSPOSE_BYTES = 1 << 20
# delta swaps that transpose an 8x8 bit block held as a little-endian uint64,
# byte i = row i: they swap the off-diagonal bits of each 2x2 block, then the
# off-diagonal 2x2 blocks of each 4x4 block, then the off-diagonal 4x4 blocks
_DELTA_SWAPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _transpose_into(out: np.ndarray, window: np.ndarray, g0: int) -> None:
    """OR the transpose of byte groups g0.. of a packing (window, one group
    per row, 8 * len(out) rows wide) into out's columns 8 * g0.., and clear
    the window.  Rows 8i..8i+7 of group g, one uint64, are an 8x8 bit block
    whose transpose holds byte i of rows 8g..8g+7 of the transpose."""
    blocks = window.view("<u8")  # (span, len(out))
    swap = np.empty_like(blocks)
    for shift, mask in _DELTA_SWAPS:
        np.right_shift(blocks, shift, out=swap)
        swap ^= blocks
        swap &= mask
        blocks ^= swap
        swap <<= shift
        blocks ^= swap
    c0 = 8 * g0
    width = min(8 * len(window), out.shape[1] - c0)
    transposed = window.reshape(len(window), len(out), 8).transpose(1, 0, 2).reshape(len(out), -1)
    out[:, c0 : c0 + width] |= transposed[:, :width]
    window[:] = 0


class BinaryMatrix:
    """0/1 matrix packed into one uint8 array, the only place that knows the
    layout: entry (r, j) is bit j % 8 of packed[j // 8, r].  So column r of
    packed is row r in little-endian bytes, and packed[g] holds byte g of
    every row, which is how both binary kernels read it, in place."""

    __slots__ = ("packed", "cols")

    def __init__(self, packed: np.ndarray, cols: int):
        """ValueError unless packed is a (ceil(cols / 8), rows) uint8 array
        with every bit past column cols clear."""
        if not isinstance(packed, np.ndarray) or packed.dtype != np.uint8:
            raise ValueError("packed rows must be a uint8 numpy array")
        if cols < 0 or packed.ndim != 2 or len(packed) != -(-cols // 8):
            raise ValueError(f"packed shape {packed.shape} does not hold {cols} columns")
        if cols % 8 and (packed[-1] >> (cols % 8)).any():
            raise ValueError(f"bits set past column {cols}")
        self.packed = packed
        self.cols = cols

    @classmethod
    def from_coords(cls, columns, widths: Sequence[int], points: int, transpose: bool = False) -> "BinaryMatrix":
        """points rows, row r holding the low widths[k] bits of entry r of
        column k side by side, column group 0 lowest; with transpose, the
        transpose of that matrix.  columns yields (k, column) pairs, each a
        length-points int array, in any order, and each is ORed into its
        place as it comes, so only one column is held at a time.

        The transpose never holds the untransposed packing whole: each
        column goes into a window of its byte groups, and a window is ORed
        into the result by 8x8 bit-block transposes when a column falls
        outside it and at the end.  In increasing k each window is visited
        once."""
        starts = list(accumulate(widths, initial=0))
        groups = -(-starts[-1] // 8)
        if transpose:
            out = np.zeros((-(-points // 8), starts[-1]), dtype=np.uint8)
            span = max(1, min(groups, _TRANSPOSE_BYTES // (8 * len(out) or 1)))
            window = np.zeros((span, 8 * len(out)), dtype=np.uint8)
        else:
            out = window = np.zeros((groups, points), dtype=np.uint8)
            span = groups
        g0 = 0
        for k, column in columns:
            c0, w = starts[k], widths[k]
            shifted = (np.asarray(column, dtype=np.uint32) & ((1 << w) - 1)) << (c0 % 8)
            for g in range(c0 // 8, (c0 + w + 7) // 8):
                if not g0 <= g < g0 + span:
                    _transpose_into(out, window, g0)
                    g0 = g - g % span
                window[g - g0, :points] |= (shifted >> (8 * (g - c0 // 8))).astype(np.uint8)  # low byte
        if transpose:
            _transpose_into(out, window, g0)
            return cls(out, points)
        return cls(out, starts[-1])

    @classmethod
    def from_rows(cls, rows: Sequence[int], cols: int) -> "BinaryMatrix":
        """Row i from an int with bit j = entry (i, j)."""
        width = -(-cols // 8)
        try:
            raw = b"".join(r.to_bytes(width, "little") for r in rows)
        except OverflowError:
            raise ValueError(f"a row does not fit in {cols} columns") from None
        return cls(np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), width).T.copy(), cols)

    @property
    def n_rows(self) -> int:
        return self.packed.shape[1]

    @property
    def rows(self) -> list[int]:
        """Row i as an int with bit j = entry (i, j), derived on each access."""
        raw, w = np.ascontiguousarray(self.packed.T).tobytes(), len(self.packed)
        return [int.from_bytes(raw[i * w : (i + 1) * w], "little") for i in range(self.n_rows)]

    def bits(self) -> np.ndarray:
        """The (rows, cols) uint8 0/1 array of the entries, unpacked anew on
        each call: the one place that unpacks the matrix."""
        return np.unpackbits(np.ascontiguousarray(self.packed.T), axis=1, count=self.cols, bitorder="little")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.cols == other.cols
            and np.array_equal(self.packed, other.packed)
        )

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.n_rows}x{self.cols})"
