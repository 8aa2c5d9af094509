import random

import numpy as np
import pytest

from gfft.field import default_field
from gfft.reference import poly_eval
from gfft.structure import (
    BinaryMatrix,
    LinearSolver,
    cyclotomic_cosets,
    doubling_orbit,
    find_normal_basis,
    minimal_polynomial,
    rotate_right_bits,
)

from m3_worked_example import COSETS, MIN_POLYS


def coordinates_in_basis(x, basis):
    """Bits b with x = XOR of b_j * basis[j]; raises if x is outside the span."""
    return LinearSolver(basis).coords(x)


def coords_to_bits(coords, d):
    return tuple((coords >> j) & 1 for j in range(d))


def frobenius_coords_pair(x, nb, ctx):
    """Coordinates of x and of x^2 in a normal basis."""
    solver = LinearSolver(nb.basis)
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
    assert ctx.log[nb.generator] == 3
    assert nb.basis == (3, 5, 7)  # a^3, a^6, a^5


def test_normal_basis_bad_degree():
    ctx = default_field(4)
    with pytest.raises(ValueError):
        find_normal_basis(ctx, 3)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12])
def test_normal_basis_full_rank_all_divisors(m):
    ctx = default_field(m)
    for d in range(1, m + 1):
        if m % d:
            continue
        nb = find_normal_basis(ctx, d)
        assert len(nb.basis) == d
        LinearSolver(nb.basis)  # raises if dependent
        # conjugate closure: squaring the last conjugate returns the generator
        last = nb.basis[-1]
        assert ctx.mul(last, last) == nb.generator


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


def test_linear_map_matches_coords():
    for basis in [(1, 2, 4), (3, 5, 7), (6, 3, 1)]:
        solver = LinearSolver(basis)
        got = solver.linear_map(range(8))
        assert got.tolist() == [solver.coords(x) for x in range(8)], basis


def test_linear_map_flags_outside_span():
    solver = LinearSolver((0b001, 0b010))
    assert solver.linear_map([0, 1, 2, 3]).tolist() == [0, 1, 2, 3]
    # 4 and 6 = 4 ^ 2 leave the span: a nonzero residual from bit 16 up
    residual = solver.linear_map([3, 4, 1, 6]) >> 16
    assert (residual != 0).tolist() == [False, True, False, True]


def test_linear_map_rejects_elements_outside_16_bits():
    solver = LinearSolver((0b001, 0b010))
    for xs in ([1, 1 << 16], [-1, 2]):
        with pytest.raises(ValueError, match="outside \\[0, 2\\^16\\)"):
            solver.linear_map(xs)
    with pytest.raises(ValueError, match="outside \\[0, 2\\^16\\)"):
        LinearSolver((1, 1 << 16))


def test_frobenius_pair_examples():
    ctx = default_field(3)
    nb = find_normal_basis(ctx, 3)
    beta = nb.generator
    c, csq = frobenius_coords_pair(beta, nb, ctx)
    assert coords_to_bits(c, 3) == (1, 0, 0)
    assert coords_to_bits(csq, 3) == (0, 1, 0)
    c1, c1sq = frobenius_coords_pair(1, nb, ctx)
    assert coords_to_bits(c1, 3) == (1, 1, 1)
    assert c1sq == c1


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_frobenius_shift_exhaustive(m):
    ctx = default_field(m)
    nb = find_normal_basis(ctx, m)
    solver = LinearSolver(nb.basis)
    for x in range(1, 1 << m):
        assert solver.coords(ctx.mul(x, x)) == rotate_right_bits(solver.coords(x), m)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_frobenius_shift_subfields(m):
    ctx = default_field(m)
    for d in range(2, m):
        if m % d:
            continue
        nb = find_normal_basis(ctx, d)
        solver = LinearSolver(nb.basis)
        step = ctx.n // ((1 << d) - 1)
        for j in range((1 << d) - 1):
            x = ctx.exp[j * step]
            assert solver.coords(ctx.mul(x, x)) == rotate_right_bits(solver.coords(x), d)


def test_doubling_orbit():
    assert doubling_orbit(3, 7) == (3, 6, 5)
    assert doubling_orbit(6, 7) == (6, 5, 3)
    assert doubling_orbit(0, 7) == (0,)


def test_binary_matrix_roundtrip():
    bits = [[1, 0, 1], [0, 1, 1]]
    mat = BinaryMatrix.from_rows([0b101, 0b110], 3)
    assert mat.rows == [0b101, 0b110]
    assert mat.bits().dtype == np.uint8 and mat.bits().tolist() == bits
    assert mat.row_popcounts().tolist() == [2, 2]
    assert mat.bits()[0:2, 1:3].tolist() == [[0, 1], [1, 1]]
    assert mat == BinaryMatrix.from_rows([0b101, 0b110], 3)


@pytest.mark.parametrize("cols", [1, 7, 8, 9, 20])
def test_packed_matrix_equals_int_rows(cols):
    rng = random.Random(f"packed:{cols}")
    rows = [rng.getrandbits(cols) for _ in range(6)]
    width = -(-cols // 8)
    packed = np.array([[(r >> 8 * g) & 0xFF for r in rows] for g in range(width)], dtype=np.uint8)
    mat = BinaryMatrix(packed, cols)
    assert mat == BinaryMatrix.from_rows(rows, cols)
    assert mat.rows == rows
    assert mat.bits().tolist() == [[(r >> j) & 1 for j in range(cols)] for r in rows]
    assert mat.row_popcounts().tolist() == [r.bit_count() for r in rows]


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
        BinaryMatrix(packed, cols)


def test_int_rows_must_fit_the_columns():
    with pytest.raises(ValueError, match="past column 3"):
        BinaryMatrix.from_rows([1, 1 << 3], 3)
    with pytest.raises(ValueError, match="does not fit"):
        BinaryMatrix.from_rows([1 << 8], 3)
    with pytest.raises(ValueError, match="does not fit"):
        BinaryMatrix.from_rows([-1], 3)
