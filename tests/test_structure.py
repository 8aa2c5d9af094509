import pytest

from gfft.field import default_field
from gfft.reference import poly_eval
from gfft.structure import (
    BinaryMatrix,
    LinearSolver,
    coordinates_in_basis,
    coords_to_bits,
    cyclotomic_cosets,
    doubling_orbit,
    find_normal_basis,
    frobenius_coords_pair,
    minimal_polynomial,
    rotate_right_bits,
)

from m3_worked_example import COSETS, MIN_POLYS


def test_cosets_n7():
    part = cyclotomic_cosets(7)
    assert [c.elements for c in part.cosets] == [(0,), (1, 2, 4), (3, 6, 5)]
    assert part.l == 3


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


def test_normal_basis_preferred_m3():
    ctx = default_field(3)
    gamma = ctx.exp[6]
    nb = find_normal_basis(ctx, 3, preferred=gamma)
    assert nb.generator == gamma
    assert nb.basis == (5, 7, 3)  # a^6, a^5, a^3


def test_normal_basis_rejects_one():
    ctx = default_field(3)
    with pytest.raises(ValueError):
        find_normal_basis(ctx, 3, preferred=1)


def test_normal_basis_rejects_non_normal():
    ctx = default_field(3)
    # conjugates of a are {a, a^2, a^4} with a^4 = a^2 + a: dependent
    with pytest.raises(ValueError):
        find_normal_basis(ctx, 3, preferred=2)


def test_normal_basis_rejects_outsider():
    ctx = default_field(4)
    # a lies outside GF(4) inside GF(16)
    with pytest.raises(ValueError, match="outside"):
        find_normal_basis(ctx, 2, preferred=2)


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


def test_coords_array_matches_coords():
    for basis in [(1, 2, 4), (3, 5, 7), (6, 3, 1)]:
        solver = LinearSolver(basis)
        got = solver.coords_array(range(8))
        assert got.tolist() == [solver.coords(x) for x in range(8)], basis


def test_coords_array_rejects_outside_span():
    solver = LinearSolver((0b001, 0b010))
    assert solver.coords_array([0, 1, 2, 3]).tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="element 4 not in span"):
        solver.coords_array([3, 4, 1, 6])


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
    mat = BinaryMatrix.from_bits(bits)
    assert mat.to_bits() == bits
    assert mat.get(0, 2) == 1
    assert mat.total_ones() == 4
    assert mat.submatrix(0, 2, 1, 3).to_bits() == [[0, 1], [1, 1]]
    assert mat == BinaryMatrix.from_bits(bits)
    with pytest.raises(ValueError):
        BinaryMatrix.from_bits([[1, 0], [1]])
