"""Cyclotomic-coset combinatorics and GF(2)-linear scaffolding.

Cosets index the conjugacy classes of GF(2^m); minimal polynomials collapse a
class to one binary polynomial; normal bases make squaring a coordinate
rotation.  Everything downstream (remainder matrices, binary expansion
matrices, circulant blocks) is assembled from these pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def l(self) -> int:
        return len(self.cosets)

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


class LinearSolver:
    """Coordinate solver for a fixed GF(2)-independent basis of field elements.

    Precomputes a Gauss-Jordan reduction once; each solve is O(d) word ops.
    Coordinates are returned as a d-bit int, bit j = coefficient of basis[j].
    The reduction is kept in reduced row-echelon form: each reduced vector
    holds its own pivot bit and no other pivot, so the pivots an element has
    set name exactly the reduced vectors it is the XOR of.
    """

    __slots__ = ("basis", "_reduced")

    def __init__(self, basis: tuple[int, ...] | list[int]):
        self.basis = tuple(basis)
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

    def coords_array(self, xs: np.ndarray) -> np.ndarray:
        """coords of every element of an int array at once, as an int64 array:
        the XOR of the combos over the pivots set in x.  Raises ValueError
        unless the matching reduced vectors XOR back to x for every x."""
        xs = np.asarray(xs, dtype=np.int64)
        combo = np.zeros_like(xs)
        back = np.zeros_like(xs)
        for p, rv, rc in self._reduced:
            hit = -((xs >> p) & 1)  # all ones where pivot p is set
            combo ^= hit & rc
            back ^= hit & rv
        bad = np.flatnonzero(back != xs)
        if len(bad):
            raise ValueError(f"element {xs[bad[0]]} not in span of basis {self.basis}")
        return combo


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


def _conjugates(beta: int, d: int, ctx: FieldContext) -> tuple[int, ...]:
    out = [beta]
    lg = ctx.log[beta]
    for _ in range(d - 1):
        lg = (2 * lg) % ctx.n
        out.append(ctx.exp[lg])
    return tuple(out)


def find_normal_basis(ctx: FieldContext, d: int, preferred: int | None = None) -> NormalBasis:
    """Normal basis of the subfield GF(2^d) of GF(2^m).

    With no preference, scans subfield elements in increasing discrete-log
    order and returns the first whose conjugates are GF(2)-independent.
    A preferred generator is validated and used as-is.
    """
    if d < 1 or ctx.m % d != 0:
        raise ValueError(f"d={d} does not divide m={ctx.m}")
    if d == 1:
        if preferred is not None and preferred != 1:
            raise ValueError(f"element {preferred} does not generate a normal basis of GF(2)")
        return NormalBasis(1, 1, (1,))

    subfield_order = (1 << d) - 1
    step = ctx.n // subfield_order

    if preferred is not None:
        if preferred in (0, 1):
            raise ValueError(f"element {preferred} does not generate a normal basis")
        if ctx.log[preferred] % step != 0:
            raise ValueError(f"element {preferred} lies outside GF(2^{d})")
        conj = _conjugates(preferred, d, ctx)
        try:
            LinearSolver(conj)
        except ValueError:
            raise ValueError(f"element {preferred} does not generate a normal basis") from None
        return NormalBasis(preferred, d, conj)

    for j in range(1, subfield_order):
        beta = ctx.exp[j * step]
        conj = _conjugates(beta, d, ctx)
        try:
            LinearSolver(conj)
        except ValueError:
            continue
        return NormalBasis(beta, d, conj)
    raise RuntimeError(f"no normal basis found for d={d} (field tables are broken)")


class BinaryMatrix:
    """Bit-packed 0/1 matrix; row i is an int with bit j = entry (i, j)."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: list[int], cols: int):
        self.rows = rows
        self.cols = cols

    @classmethod
    def from_bits(cls, bits: list[list[int]] | tuple) -> "BinaryMatrix":
        cols = len(bits[0]) if bits else 0
        rows = []
        for r in bits:
            if len(r) != cols:
                raise ValueError("ragged rows")
            acc = 0
            for j, v in enumerate(r):
                if v:
                    acc |= 1 << j
            rows.append(acc)
        return cls(rows, cols)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row_bits(self, i: int) -> tuple[int, ...]:
        return tuple((self.rows[i] >> j) & 1 for j in range(self.cols))

    def to_bits(self) -> list[list[int]]:
        return [list(self.row_bits(i)) for i in range(self.n_rows)]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "BinaryMatrix":
        width = c1 - c0
        mask = (1 << width) - 1
        return BinaryMatrix([(r >> c0) & mask for r in self.rows[r0:r1]], width)

    def total_ones(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.cols == other.cols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.n_rows}x{self.cols})"
