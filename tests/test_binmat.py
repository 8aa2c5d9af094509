import math
import random

import pytest

from gfft.binmat import (
    binmatvec_four_russians,
    binmatvec_naive,
    default_block_size,
    make_plan,
)
from gfft.field import OpCount
from gfft.structure import BinaryMatrix


def test_naive_identity():
    ident = BinaryMatrix.from_rows([1 << i for i in range(5)], 5)
    v = [9, 3, 0, 7, 1]
    oc = OpCount()
    assert binmatvec_naive(ident, v, oc) == v
    assert oc.adds == 0


def test_naive_all_ones_row():
    mat = BinaryMatrix.from_rows([0b1111111], 7)
    v = [1, 2, 4, 3, 6, 7, 5]
    oc = OpCount()
    assert binmatvec_naive(mat, v, oc) == [0]  # the whole field XORs to zero
    assert oc.adds == 6


def test_naive_zero_row():
    mat = BinaryMatrix.from_rows([0], 4)
    oc = OpCount()
    assert binmatvec_naive(mat, [5, 6, 7, 8], oc) == [0]
    assert oc.adds == 0


def test_shape_mismatch():
    mat = BinaryMatrix.from_rows([0b11], 2)
    with pytest.raises(ValueError):
        binmatvec_naive(mat, [1, 2, 3])
    with pytest.raises(ValueError):
        binmatvec_four_russians(mat, [1, 2, 3])


def test_default_block_size():
    assert default_block_size(7) == 2
    assert default_block_size(255) == 7
    assert default_block_size(1) == 1
    assert default_block_size(1023) == 9
    assert default_block_size(4095) == 11
    with pytest.raises(ValueError):
        default_block_size(0)


def test_plan_validation():
    with pytest.raises(ValueError):
        make_plan(0)
    plan = make_plan(7)
    assert plan.t == 2
    assert plan.groups == 4
    assert plan.predicted_adds(7) == 4 * (4 - 2 - 1) + 7 * 3


# n = 1 is one group; n = 2 and 3 are groups of width 1
@pytest.mark.parametrize("n", [1, 2, 3, 7, 63, 255])
def test_four_russians_equals_naive(n):
    rng = random.Random(n)
    lane = 16
    for trial in range(50):
        rows = rng.randrange(1, 2 * n)
        mat = BinaryMatrix.from_rows([rng.getrandbits(n) for _ in range(rows)], n)
        v = [rng.randrange(1 << lane) for _ in range(n)]
        oc = OpCount()
        got = binmatvec_four_russians(mat, v, oc)
        assert got == binmatvec_naive(mat, v)
        assert oc.adds == make_plan(n).predicted_adds(rows)


def test_n255_default_cost():
    plan = make_plan(255)
    assert plan.t == 7
    # 37 groups of width 7 (last padded): 37*120 table adds + 255*36 row adds
    assert plan.predicted_adds(255) == 13620
    assert plan.predicted_adds(255) < 2 * 255 * 255 / math.log2(255)


@pytest.mark.parametrize("n", [7, 255, 1023, 4095])
def test_four_russians_beats_quadratic_budget(n):
    plan = make_plan(n)
    assert plan.predicted_adds(n) < 2 * n * n / math.log2(n)


def test_naive_cost_envelope_random_density():
    # naive adds on a dense random matrix sit near n^2/2; keep a loose sanity
    # envelope rather than a tight assertion
    rng = random.Random(42)
    for m in (4, 6, 8):
        n = (1 << m) - 1
        mat = BinaryMatrix.from_rows([rng.getrandbits(n) for _ in range(n)], n)
        oc = OpCount()
        binmatvec_naive(mat, [1] * n, oc)
        assert 0.25 * n * n <= oc.adds <= n * n
