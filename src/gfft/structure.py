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


_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(np.uint32)  # bit j of byte b at [b, j]


class LinearSolver:
    """Coordinate solver for a fixed GF(2)-independent basis of field elements.

    Precomputes a Gauss-Jordan reduction once; each solve is O(d) word ops.
    Coordinates are returned as a d-bit int, bit j = coefficient of basis[j].
    The reduction is kept in reduced row-echelon form: each reduced vector
    holds its own pivot bit and no other pivot, so the pivots an element has
    set name exactly the reduced vectors it is the XOR of.

    It also gives the GF(2)-linear map x -> coords | residual << 16 on [0,
    2^16) as two byte tables: bit q maps to (combo, e_q ^ vector) when q is
    a pivot, else to (0, e_q).  The residual is 0 exactly on the span.
    """

    __slots__ = ("basis", "_reduced", "_bytes")

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
        images = np.array([1 << q << 16 for q in range(16)], dtype=np.uint32)
        for p, rv, rc in reduced:
            images[p] = rc | ((rv ^ (1 << p)) << 16)
        # row 0 maps the low byte, row 1 the high byte
        self._bytes = np.bitwise_xor.reduce(images.reshape(2, 1, 8) * _BYTE_BITS, axis=2)

    def coords(self, x: int) -> int:
        r, combo = x, 0
        for p, rv, rc in self._reduced:
            if (r >> p) & 1:
                r ^= rv
                combo ^= rc
        if r != 0:
            raise ValueError(f"element {x} not in span of basis {self.basis}")
        return combo

    def linear_map(self, xs: np.ndarray) -> np.ndarray:
        """coords | residual << 16 of each element of an int array, as uint32:
        two byte-table lookups XORed.  ValueError outside [0, 2^16)."""
        xs = np.asarray(xs, dtype=np.int64)
        wide = (xs >> 16) != 0
        if wide.any():
            raise ValueError(f"element {xs[wide][0]} is outside [0, 2^16)")
        return self._bytes[0, xs & 255] ^ self._bytes[1, xs >> 8]


def rotate_right_bits(coords: int, d: int) -> int:
    """One right rotation of a d-bit coordinate vector (bit j -> bit j+1)."""
    mask = (1 << d) - 1
    return ((coords << 1) | (coords >> (d - 1))) & mask if d > 1 else coords


@dataclass(frozen=True)
class NormalBasis:
    """Basis (b, b^2, b^4, ...) of GF(2^d) inside GF(2^m)."""

    generator: int
    degree: int
    basis: tuple[int, ...]


def conjugates(beta: int, d: int, ctx: FieldContext) -> tuple[int, ...]:
    """beta, beta^2, beta^4, ..., beta^(2^(d-1)) for a nonzero beta."""
    out = [beta]
    lg = ctx.log[beta]
    for _ in range(d - 1):
        lg = (2 * lg) % ctx.n
        out.append(ctx.exp[lg])
    return tuple(out)


def find_normal_basis(ctx: FieldContext, d: int) -> NormalBasis:
    """Normal basis of the subfield GF(2^d) of GF(2^m): the first subfield
    element, in increasing discrete-log order, whose conjugates are
    GF(2)-independent."""
    if d < 1 or ctx.m % d != 0:
        raise ValueError(f"d={d} does not divide m={ctx.m}")
    if d == 1:
        return NormalBasis(1, 1, (1,))

    subfield_order = (1 << d) - 1
    step = ctx.n // subfield_order
    for j in range(1, subfield_order):
        beta = ctx.exp[j * step]
        conj = conjugates(beta, d, ctx)
        try:
            LinearSolver(conj)
        except ValueError:
            continue
        return NormalBasis(beta, d, conj)
    raise RuntimeError(f"no normal basis found for d={d} (field tables are broken)")


_POPCOUNT = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)


class BinaryMatrix:
    """0/1 matrix packed into one uint8 array, the only place that knows the
    layout: entry (r, j) is bit j % 8 of packed[j // 8, r].  So column r of
    packed is row r in little-endian bytes, and packed[g] holds byte g of
    every row, which is how the binary kernel reads it, in place."""

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
        place as it comes, so only one column is held at a time."""
        starts = list(accumulate(widths, initial=0))
        if transpose:
            packed = np.zeros((-(-points // 8), starts[-1]), dtype=np.uint8)
            for k, column in columns:
                c0, w = starts[k], widths[k]
                as_bytes = np.asarray(column, dtype="<u4").view(np.uint8).reshape(points, 4)
                bits = np.unpackbits(as_bytes, axis=1, count=w, bitorder="little").T  # (w, points)
                packed[:, c0 : c0 + w] = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little").T
            return cls(packed, points)
        packed = np.zeros((-(-starts[-1] // 8), points), dtype=np.uint8)
        for k, column in columns:
            c0, w = starts[k], widths[k]
            shifted = (np.asarray(column, dtype=np.uint32) & ((1 << w) - 1)) << (c0 % 8)
            for g in range(c0 // 8, (c0 + w + 7) // 8):
                packed[g] |= (shifted >> (8 * (g - c0 // 8))).astype(np.uint8)  # low byte
        return cls(packed, starts[-1])

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

    def row_popcounts(self) -> np.ndarray:
        """The ones in each row, as an int64 array."""
        out = np.zeros(self.n_rows, dtype=np.int64)
        for group in self.packed:
            out += _POPCOUNT[group]
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.cols == other.cols
            and np.array_equal(self.packed, other.packed)
        )

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.n_rows}x{self.cols})"
