import pickle
import random

import numpy as np
import pytest

from gfft.algorithms import _normal_bases
from gfft.field import default_field
from gfft.reference import poly_eval
from gfft.structure import (
    BinaryMatrix,
    LinearSolver,
    Part,
    cyclotomic_cosets,
    doubling_orbit,
    find_normal_basis,
    minimal_polynomial,
    transpose_matrix,
)

from m3_worked_example import COSETS, MIN_POLYS


def coordinates_in_basis(x, basis):
    """Bits b with x = XOR of b_j * basis[j]; raises if x is outside the span."""
    return LinearSolver(basis).coords(x)


def coords_to_bits(coords, d):
    return tuple((coords >> j) & 1 for j in range(d))


def frobenius_coords_pair(x, nb, ctx):
    """Coordinates of x and of x^2 in a normal basis."""
    solver = LinearSolver(nb)
    return solver.coords(x), solver.coords(ctx.mul(x, x))


def test_cosets_n7():
    part = cyclotomic_cosets(7)
    assert [c.elements for c in part.cosets] == [(0,), (1, 2, 4), (3, 6, 5)]


def test_cosets_n15():
    part = cyclotomic_cosets(15)
    assert [c.elements for c in part.cosets] == [
        (0,),
        (1, 2, 4, 8),
        (3, 6, 12, 9),
        (5, 10),
        (7, 14, 13, 11),
    ]


def test_cosets_n1():
    part = cyclotomic_cosets(1)
    assert [c.elements for c in part.cosets] == [(0,)]


def test_cosets_reject_even():
    for n in (0, 2, 6, 64):
        with pytest.raises(ValueError):
            cyclotomic_cosets(n)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 11, 16])
def test_coset_partition_invariants(m):
    n = (1 << m) - 1
    part = cyclotomic_cosets(n)
    seen = set()
    for coset in part.cosets:
        assert coset.leader == min(coset.elements)
        assert len(set(coset.elements)) == len(coset.elements)
        for i, e in enumerate(coset.elements):
            assert coset.elements[(i + 1) % len(coset.elements)] == (2 * e) % n
        seen.update(coset.elements)
    assert seen == set(range(n))
    assert part.cosets[0].elements == (0,)
    assert sum(part.sizes()) == n


def test_minimal_polynomials_m3():
    ctx = default_field(3)
    part = cyclotomic_cosets(7)
    assert [minimal_polynomial(c, ctx) for c in part.cosets] == MIN_POLYS
    assert COSETS == [c.elements for c in part.cosets]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
def test_minimal_polynomial_roots(m):
    ctx = default_field(m)
    for coset in cyclotomic_cosets(ctx.n).cosets:
        mask = minimal_polynomial(coset, ctx)
        assert mask.bit_length() - 1 == coset.size  # monic of degree = coset size
        coeffs = [(mask >> j) & 1 for j in range(mask.bit_length())]
        for e in coset.elements:
            assert poly_eval(coeffs, ctx.exp[e], ctx) == 0


def test_normal_basis_scan_m3():
    ctx = default_field(3)
    nb = find_normal_basis(ctx, 3)
    assert ctx.log[nb[0]] == 3
    assert nb == (3, 5, 7)  # a^3, a^6, a^5


def test_normal_basis_bad_degree():
    ctx = default_field(4)
    with pytest.raises(ValueError):
        find_normal_basis(ctx, 3)


@pytest.mark.parametrize("m", range(2, 17))
def test_normal_basis_full_rank_all_divisors(m):
    ctx = default_field(m)
    normal = _normal_bases(ctx, cyclotomic_cosets(ctx.n))
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    assert sorted(normal) == divisors  # every subfield degree is a coset size
    for d in divisors:
        nb = find_normal_basis(ctx, d)
        assert len(nb) == d and normal[d] == nb
        LinearSolver(nb)  # raises if dependent
        # a conjugate sequence that wraps: squaring the last returns the first
        assert [ctx.mul(b, b) for b in nb] == [nb[(j + 1) % d] for j in range(d)]
        # fed2006b's basis, turned by one, starts at the generator squared
        # and is a conjugate sequence too
        turned = nb[1:] + nb[:1]
        assert turned[0] == ctx.mul(nb[0], nb[0])
        assert [ctx.mul(b, b) for b in turned] == [turned[(j + 1) % d] for j in range(d)]


def test_coordinates_examples_m3():
    ctx = default_field(3)
    assert coords_to_bits(coordinates_in_basis(3, (1, 2, 4)), 3) == (1, 1, 0)
    assert coords_to_bits(coordinates_in_basis(4, (1, 3, 5)), 3) == (1, 0, 1)
    basis = (1, 2, 4)
    assert coordinates_in_basis(basis[0], basis) == 1


def test_coordinates_not_in_span():
    with pytest.raises(ValueError, match="not in span"):
        coordinates_in_basis(0b100, (0b001, 0b010))


def test_coordinates_dependent_basis():
    with pytest.raises(ValueError, match="depends"):
        LinearSolver((3, 5, 6))  # 3 ^ 5 = 6
    with pytest.raises(ValueError, match="outside \\[0, 2\\^16\\)"):
        LinearSolver((1, 1 << 16))


@pytest.mark.parametrize("m", [3, 4, 6, 8])
def test_coordinates_round_trip(m):
    ctx = default_field(m)
    basis = tuple(1 << t for t in range(m))
    solver = LinearSolver(basis)
    for x in range(1 << m):
        coords = solver.coords(x)
        acc = 0
        for j in range(m):
            if (coords >> j) & 1:
                acc ^= basis[j]
        assert acc == x


def test_frobenius_pair_examples():
    ctx = default_field(3)
    nb = find_normal_basis(ctx, 3)
    beta = nb[0]
    c, csq = frobenius_coords_pair(beta, nb, ctx)
    assert coords_to_bits(c, 3) == (1, 0, 0)
    assert coords_to_bits(csq, 3) == (0, 1, 0)
    c1, c1sq = frobenius_coords_pair(1, nb, ctx)
    assert coords_to_bits(c1, 3) == (1, 1, 1)
    assert c1sq == c1


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_frobenius_shift_exhaustive(m):
    ctx = default_field(m)
    solver = LinearSolver(find_normal_basis(ctx, m))
    for x in range(1, 1 << m):
        c = solver.coords(x)  # squaring rotates it right by one: bit j -> bit j + 1
        assert solver.coords(ctx.mul(x, x)) == ((c << 1) | (c >> (m - 1))) & ((1 << m) - 1)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_frobenius_shift_subfields(m):
    ctx = default_field(m)
    for d in range(2, m):
        if m % d:
            continue
        solver = LinearSolver(find_normal_basis(ctx, d))
        step = ctx.n // ((1 << d) - 1)
        for j in range((1 << d) - 1):
            x = ctx.exp[j * step]
            c = solver.coords(x)
            assert solver.coords(ctx.mul(x, x)) == ((c << 1) | (c >> (d - 1))) & ((1 << d) - 1)


def test_doubling_orbit():
    assert doubling_orbit(3, 7) == (3, 6, 5)
    assert doubling_orbit(6, 7) == (6, 5, 3)
    assert doubling_orbit(0, 7) == (0,)


def test_binary_matrix_roundtrip():
    bits = [[1, 0, 1], [0, 1, 1]]
    mat = BinaryMatrix.from_rows([0b101, 0b110], 3)
    assert mat.rows == [0b101, 0b110]
    assert mat.bits().dtype == np.uint8 and mat.bits().tolist() == bits
    assert mat.bits().sum(axis=1).tolist() == [2, 2]
    assert mat.bits()[0:2, 1:3].tolist() == [[0, 1], [1, 1]]
    assert mat == BinaryMatrix.from_rows([0b101, 0b110], 3)


@pytest.mark.parametrize("cols", [1, 7, 8, 9, 20])
def test_packed_matrix_equals_int_rows(cols):
    rng = random.Random(f"packed:{cols}")
    rows = [rng.getrandbits(cols) for _ in range(6)]
    width = -(-cols // 8)
    packed = np.array([[(r >> 8 * g) & 0xFF for r in rows] for g in range(width)], dtype=np.uint8)
    mat = BinaryMatrix([Part(packed, cols)])
    assert mat == BinaryMatrix.from_rows(rows, cols)
    # a matrix of another shape is unequal before any bit is read
    assert mat != BinaryMatrix.from_rows(rows[1:], cols) and mat != BinaryMatrix.from_rows(rows, cols + 1)
    assert mat.rows == rows
    assert mat.bits().tolist() == [[(r >> j) & 1 for j in range(cols)] for r in rows]
    assert mat.bits().sum(axis=1).tolist() == [r.bit_count() for r in rows]
    transposed = mat.bits(transpose=True)
    assert transposed.dtype == np.uint8 and transposed.flags.c_contiguous
    assert transposed.tolist() == [[(r >> j) & 1 for r in rows] for j in range(cols)]


@pytest.mark.parametrize(
    "packed, cols, match",
    [
        (np.zeros((2, 3), dtype=np.uint16), 9, "uint8"),
        ([[0, 0, 0]], 3, "uint8"),
        (np.zeros((1, 3), dtype=np.uint8), 9, "shape"),
        (np.zeros((3, 3), dtype=np.uint8), 9, "shape"),
        (np.zeros(3, dtype=np.uint8), 3, "shape"),
        (np.zeros((0, 3), dtype=np.uint8), -1, "shape"),
        (np.array([[0, 0], [0, 0b10]], dtype=np.uint8), 9, "past column 9"),
        (np.array([[0x80]], dtype=np.uint8), 7, "past column 7"),
    ],
)
def test_packed_matrix_rejects_malformed(packed, cols, match):
    with pytest.raises(ValueError, match=match):
        BinaryMatrix([(packed, cols)])
    with pytest.raises(ValueError, match=match):  # as any part of several
        BinaryMatrix([(np.zeros((1, 3), dtype=np.uint8), 8), (packed, cols)], (None, np.arange(8 + max(cols, 0))))


def test_binary_matrix_shows_its_stored_entries_in_order():
    # entry (r, c) is stored entry (order[0][r], order[1][c]) for every
    # reader: bits in both forms, rows, equality and the transpose
    stored = BinaryMatrix.from_rows([0b0011, 0b0101, 0b1001], 4)
    rows, cols = [2, 0, 1], [3, 0, 1, 2]
    shown = BinaryMatrix(stored.parts, (rows, cols))
    want = stored.bits()[np.ix_(rows, cols)]
    assert shown.bits().tolist() == want.tolist() == [[1, 1, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1]]
    assert shown.bits(transpose=True).tolist() == want.T.tolist()
    assert shown.rows == [0b0011, 0b0110, 0b1010]
    assert shown == BinaryMatrix.from_rows(shown.rows, 4) and shown != stored
    # under one order, equality is that of the packings
    flipped = BinaryMatrix.from_rows([0b0011, 0b0101, 0b1000], 4)
    assert shown == BinaryMatrix([Part(stored.parts[0].packed.copy(), 4)], (np.array(rows), cols))
    assert shown != BinaryMatrix(flipped.parts, (rows, cols))
    assert transpose_matrix(shown, 64).bits().tolist() == want.T.tolist()
    assert np.shares_memory(shown.parts[0].packed, stored.parts[0].packed)
    with pytest.raises(ValueError, match="read-only"):
        shown.parts[0].packed[0, 0] = 1


@pytest.mark.parametrize(
    "order, match",
    [
        (([0, 0, 1], None), "row order"),
        (([0, 1], None), "row order"),
        ((None, [0, 1, 2, 4]), "column order"),
        ((None, [[0, 1], [2, 3]]), "column order"),
        (([0.0, 1.0, 2.0], None), "row order"),
        (([0, 1, 2],), "zip"),
    ],
)
def test_binary_matrix_rejects_an_order_that_is_not_a_permutation(order, match):
    with pytest.raises(ValueError, match=match):
        BinaryMatrix([(np.zeros((1, 3), dtype=np.uint8), 4)], order)


def test_int_rows_must_fit_the_columns():
    with pytest.raises(ValueError, match="past column 3"):
        BinaryMatrix.from_rows([1, 1 << 3], 3)
    with pytest.raises(ValueError, match="does not fit"):
        BinaryMatrix.from_rows([1 << 8], 3)
    with pytest.raises(ValueError, match="does not fit"):
        BinaryMatrix.from_rows([-1], 3)


def _periodic(rng, periods, widths, rows):
    """Random parts of these periods and widths, and the stored bits they
    make on rows rows: part i tiled down the rows at column offset
    8 * (byte groups before it)."""
    parts, blocks = [], []
    for p, w in zip(periods, widths):
        block = rng.integers(0, 2, size=(p, w), dtype=np.uint8)
        parts.append(Part(np.ascontiguousarray(np.packbits(block, axis=1, bitorder="little").T), w))
        blocks.append(np.tile(block, (rows // p, 1)))
    return parts, blocks


def test_periodic_parts_tile_into_the_stored_matrix():
    # three parts of periods 15, 5 and 3 on 15 rows, widths 10, 3 and 9:
    # stored at columns 0, 16 and 24, the pads 10..15 and 19..23 stored
    # nowhere; every reader sees the tiled parts through the orders, and
    # the transpose holds the transposed parts, repeating along its columns
    rng = np.random.default_rng(36)
    parts, blocks = _periodic(rng, (15, 5, 3), (10, 3, 9), 15)
    real = np.r_[0:10, 16:19, 24:33]
    cols = rng.permutation(real)
    rows = rng.permutation(15)
    mat = BinaryMatrix(parts, (rows, cols))
    assert mat.offsets == (0, 16, 24) and mat.stored == (15, 33) and (mat.n_rows, mat.cols) == (15, 22)
    stored = np.zeros((15, 33), dtype=np.uint8)
    for off, block in zip(mat.offsets, blocks):
        stored[:, off : off + block.shape[1]] = block
    want = stored[np.ix_(rows, cols)]
    assert np.array_equal(mat.bits(), want) and np.array_equal(mat.bits(transpose=True), want.T)
    assert mat == BinaryMatrix.from_rows(mat.rows, 22) and mat.rows == BinaryMatrix.from_rows(mat.rows, 22).rows
    r = transpose_matrix(mat, 8)
    assert r.transposed and r.stored == (33, 15) and np.array_equal(r.bits(), want.T)
    assert np.array_equal(r.bits(transpose=True), want)
    assert [(p.rows, p.cols) for p in r.parts] == [(10, 15), (3, 5), (9, 3)]
    assert np.array_equal(transpose_matrix(r, 8).bits(), want) and not transpose_matrix(r, 8).transposed
    assert not any(np.shares_memory(p.packed, q.packed) for p in r.parts for q in mat.parts)
    for part in mat.parts + r.parts:
        with pytest.raises(ValueError, match="read-only"):
            part.packed[0, 0] ^= 1
    # a copy goes through __init__ and equals its source
    assert pickle.loads(pickle.dumps(r)) == r and pickle.loads(pickle.dumps(r)).transposed


@pytest.mark.parametrize(
    "periods, widths, order, match",
    [
        ((6, 4), (8, 8), (None, None), "do not all divide"),
        ((6, 3), (5, 8), (None, None), "skip the pads"),
        ((6, 3), (5, 8), (None, np.r_[0:13]), "column order"),
        ((6, 3), (8, 8), (None, np.r_[0:15]), "column order"),
        ((6, 3), (8, 8), (np.r_[0:3], None), "row order"),
        ((), (), (None, None), "needs a part"),
    ],
)
def test_periodic_parts_reject_a_bad_layout(periods, widths, order, match):
    parts, _ = _periodic(np.random.default_rng(0), periods, widths, 6)
    with pytest.raises(ValueError, match=match):
        BinaryMatrix(parts, order)
