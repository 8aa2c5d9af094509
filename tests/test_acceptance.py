"""Acceptance gate: every criterion at its stated tolerance.

All checks are exact (zero tolerance) except the addition budget, which is a
strict inequality against 2n^2/log2(n).  Each test prints one PASS line when
it completes; run with `pytest tests/test_acceptance.py -v -s` to see them.

The heavy fields (m up to 12 for transforms, 16 for structural counts) are
shared through session-scoped caches.  The gate takes about 35 s on 2 CPUs;
most of it is the m = 12 oracle of criterion 1 and the m = 12 Python-int
binary kernels of criterion 6, not plan builds or the batched appliers.
"""

import math
import random
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from gfft import algorithms as alg
from gfft import binmat, cli
from gfft.algorithms import (
    ALL_TAGS,
    FACTORED_TAGS,
    BlockStage,
)
from gfft.field import OpCount, default_field
from gfft.reference import naive_dft_batch, transform_matrix, unit_response
from gfft.structure import (
    BinaryMatrix,
    LinearSolver,
    find_normal_basis,
    minimal_polynomial,
    rotate_right_bits,
)

import m3_worked_example as wk

SEED = 20080731
GOLDEN_DIR = Path(__file__).parent / "golden"

_FIELDS = {}
_PLANS = {}


def field(m):
    if m not in _FIELDS:
        _FIELDS[m] = default_field(m)
    return _FIELDS[m]


def plan(m, tag):
    key = (m, tag)
    if key not in _PLANS:
        _PLANS[key] = alg.build(tag, field(m))
    return _PLANS[key]


def report(line):
    print(f"\nACCEPTANCE {line}")


def matrix_of(p):
    return p.stage(BinaryMatrix)


def blocks_of(p):
    """Each block's rows as Python ints, and whether it is circulant."""
    stage = p.stage(BlockStage)
    return [(stage.rows(k), stage.circulant(k)) for k in range(len(stage.sizes))]


def coset_slices(p):
    sizes = p.partition.sizes()
    return list(zip(accumulate(sizes, initial=0), sizes))


# ---------------------------------------------------------------------------
# 1. oracle equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 13))
def test_criterion_1_oracle_equivalence(m):
    ctx = field(m)
    n = ctx.n
    rng = random.Random(f"{SEED}:{m}")
    vectors = [[rng.randrange(1 << m) for _ in range(n)] for _ in range(100)]
    oracle = naive_dft_batch(vectors, ctx)

    unit_idx = list(range(n)) if m <= 8 else [0, 1, n - 1]
    units = []
    for j in unit_idx:
        v = [0] * n
        v[j] = 1
        units.append(v)
    unit_oracle = [unit_response(j, ctx) for j in unit_idx]

    for tag in ALL_TAGS:
        p = plan(m, tag)
        assert alg.apply_batch(p, vectors) == oracle, (m, tag)
        assert alg.apply_batch(p, units) == unit_oracle, (m, tag)
    report(f"1 oracle equivalence m={m} (100 random + {len(unit_idx)} units x 6 algorithms): PASS")


# ---------------------------------------------------------------------------
# 2. worked-example reproduction (m=3, poly x^3+x+1)
# ---------------------------------------------------------------------------


def test_criterion_2a_goertzel_rows():
    p = plan(3, "goertzel")
    assert matrix_of(p).to_bits() == wk.GOERTZEL_R
    ctx = field(3)
    expected = tuple(tuple(tuple(ctx.exp[v] for v in row) for row in b) for b in wk.GOERTZEL_EVAL_LOGS)
    assert tuple(rows for rows, _ in blocks_of(p)) == expected
    report("2a remainder matrix and evaluation blocks: PASS")


def test_criterion_2b_blahut_matrices():
    p = plan(3, "blahut2008")
    b_blocks = [matrix_of(p).submatrix(0, 7, c0, c0 + d) for c0, d in coset_slices(p)]
    assert b_blocks[1].to_bits() == wk.BLAHUT_B[1]
    assert b_blocks[2].to_bits() == wk.BLAHUT_B[3]
    report("2b coset-split binary matrices: PASS")


def test_criterion_2c_ft2002_matrix():
    p = plan(3, "ft2002")
    assert matrix_of(p).to_bits() == wk.FT2002_A
    report("2c standard-basis binary matrix: PASS")


def test_criterion_2d_tf2003_matrix_and_circulants():
    ctx = field(3)
    p = plan(3, "tf2003")
    assert matrix_of(p).to_bits() == wk.TF2003_A
    first = tuple(ctx.exp[v] for v in wk.TF2003_FIRST_ROW_LOGS)
    for rows, circulant in blocks_of(p)[1:]:
        assert circulant
        assert rows[0] == first
        assert rows[1] == (first[1], first[2], first[0])
        assert rows[2] == (first[2], first[0], first[1])
    report("2d normal-basis matrix and circulant rotations: PASS")


def test_criterion_2e_fed2006_matrices_and_orders():
    ctx = field(3)
    pa = plan(3, "fed2006a")
    assert matrix_of(pa).to_bits() == wk.FED2006A_A
    assert pa.in_perm == pa.out_perm == wk.FED2006A_ORDER
    pb = plan(3, "fed2006b")
    assert matrix_of(pb).to_bits() == wk.FED2006B_A
    assert pb.in_perm == pb.out_perm == wk.FED2006B_ORDER
    first = tuple(ctx.exp[v] for v in wk.FED2006B_FIRST_ROW_LOGS)
    for rows, circulant in blocks_of(pb)[1:]:
        assert circulant
        assert rows[0] == first
    report("2e coset-ordered variants, orderings and shifted basis: PASS")


def test_criterion_2_golden_files():
    import io

    for algo in ALL_TAGS:
        buf = io.StringIO()
        code = cli.main(["factor", "--m", "3", "--algo", algo], out=buf)
        assert code == 0
        golden = (GOLDEN_DIR / f"factor_m3_{algo}.txt").read_text()
        assert buf.getvalue() == golden, algo
    report("2 golden factor output, all six algorithms: PASS")


# ---------------------------------------------------------------------------
# 3. factorization identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 11))
def test_criterion_3_materialize_identity(m):
    w = np.array(transform_matrix(field(m)), dtype=np.uint16)
    for tag in ALL_TAGS:
        assert np.array_equal(alg.materialize(plan(m, tag)), w), (m, tag)
    report(f"3 factorization identity m={m} (6 algorithms): PASS")


# ---------------------------------------------------------------------------
# 4. circulant structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 11))
def test_criterion_4_circulant_blocks(m):
    for tag in ("fed2006a", "fed2006b"):
        for entry in alg.coset_block_report(plan(m, tag)):
            assert entry["rotation_chain"], (m, tag, entry)
            if entry["shape"][0] == entry["shape"][1]:
                assert entry["circulant"], (m, tag, entry)
    # the underlying Frobenius coordinate shift, exhaustively
    ctx = field(m)
    nb = find_normal_basis(ctx, m)
    solver = LinearSolver(nb.basis)
    for x in range(1, 1 << m):
        assert solver.coords(ctx.mul(x, x)) == rotate_right_bits(solver.coords(x), m)
    report(f"4 circulant sub-blocks + Frobenius shift m={m}: PASS")


# ---------------------------------------------------------------------------
# 5. multiplication budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(2, 17))
def test_criterion_5_multiplication_budget(m):
    ctx = field(m)
    budget = ctx.n * m  # n * log2(n + 1)
    sizes = [c.size for c in alg.cyclotomic_cosets(ctx.n).cosets if c.size > 1]
    sum_d_sq = sum(d * d for d in sizes)
    for tag in FACTORED_TAGS:
        mults, _, _ = alg.structural_counts_for_tag(ctx, tag)
        if tag != "ft2002":
            assert mults == sum_d_sq, (m, tag)  # circulants of non-unit conjugates
        assert mults <= sum_d_sq <= budget, (m, tag)
    report(f"5 multiplication budget m={m}: sum d^2 = {sum_d_sq} <= {budget}: PASS")


# ---------------------------------------------------------------------------
# 6. addition budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [8, 10, 12])
def test_criterion_6_addition_budget(m):
    ctx = field(m)
    n = ctx.n
    t = binmat.default_block_size(n)
    assert t == math.floor(math.log2(n))
    p = plan(m, "tf2003")
    rng = random.Random(f"{SEED}:adds:{m}")
    v = [rng.randrange(1 << m) for _ in range(n)]
    fr = binmat.make_plan(n, t)

    oc = OpCount()
    got = binmat.binmatvec_four_russians(matrix_of(p), v, fr, oc)
    naive_oc = OpCount()
    assert got == binmat.binmatvec_naive(matrix_of(p), v, naive_oc)

    budget = 2 * n * n / math.log2(n)
    assert oc.adds == fr.predicted_adds(n)
    assert oc.adds < budget, (m, oc.adds, budget)
    if n == 255:
        assert oc.adds == 13620
    report(
        f"6 addition budget n={n}: four-russians {oc.adds} < {budget:.0f} "
        f"(naive baseline {naive_oc.adds}): PASS"
    )


# ---------------------------------------------------------------------------
# 7. four-russians exactness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [7, 63, 255])
def test_criterion_7_four_russians_exactness(n):
    rng = random.Random(f"{SEED}:4r:{n}")
    fr = binmat.make_plan(n)
    lane = 16
    for _ in range(200):
        mat = BinaryMatrix.from_rows([rng.getrandbits(n) for _ in range(n)], n)
        v = [rng.randrange(1 << lane) for _ in range(n)]
        oc = OpCount()
        assert binmatvec_equal(mat, v, fr, oc)
        assert oc.adds == fr.predicted_adds(n)
    report(f"7 four-russians exactness n={n} (200 pairs, counter == closed form): PASS")


def binmatvec_equal(mat, v, fr, oc):
    return binmat.binmatvec_four_russians(mat, v, fr, oc) == binmat.binmatvec_naive(mat, v)


# ---------------------------------------------------------------------------
# 8. remainder property
# ---------------------------------------------------------------------------


def _poly_mod_binary(f, mask, ctx):
    """Independent long division of f by a GF(2)-coefficient modulus."""
    rem = list(f)
    d = mask.bit_length() - 1
    for j in range(len(rem) - 1, d - 1, -1):
        c = rem[j]
        if c == 0:
            continue
        rem[j] = 0
        for t in range(d + 1):
            if (mask >> t) & 1:
                rem[j - d + t] ^= c  # coefficients of the modulus are 0/1
    return rem[:d]


@pytest.mark.parametrize("m", range(2, 9))
def test_criterion_8_remainder_property(m):
    ctx = field(m)
    p = plan(m, "goertzel")
    rng = random.Random(f"{SEED}:rem:{m}")
    from gfft.reference import poly_eval

    for _ in range(10):
        f = [rng.randrange(1 << m) for _ in range(ctx.n)]
        stacked = binmat.binmatvec_naive(matrix_of(p), f)  # goertzel's binary stage
        rems = [stacked[r0 : r0 + d] for r0, d in coset_slices(p)]
        for coset, rk in zip(p.partition.cosets, rems):
            mpoly = minimal_polynomial(coset, ctx)
            assert len(rk) == coset.size
            assert rk == _poly_mod_binary(f, mpoly, ctx)  # true long division
            for e in coset.elements:
                x = ctx.exp[e]
                assert poly_eval(rk, x, ctx) == poly_eval(f, x, ctx)
    report(f"8 remainder degree/value property m={m}: PASS")
