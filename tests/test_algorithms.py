import random

import pytest

from gfft import algorithms as alg
from gfft.algorithms import (
    ALL_TAGS,
    FACTORED_TAGS,
    CirculantBlock,
    DenseBlock,
    TransformTally,
    apply_batch,
    apply_blahut2008,
    apply_factored,
    apply_goertzel,
    build,
    build_blahut2008,
    build_fed2006,
    build_ft2002,
    build_goertzel,
    build_tf2003,
    circulant_matvec,
    coset_block_report,
    materialize,
    remainders,
    stage2_naive_adds,
    structural_counts_for_tag,
    structural_stage1_counts,
)
from gfft.field import FieldSpec, OpCount, build_field, default_field
from gfft.reference import naive_dft, poly_eval, transform_matrix
from gfft.structure import LinearSolver, NormalBasis, find_normal_basis, rotate_right_bits

import m3_worked_example as wk


@pytest.fixture(scope="module")
def ctx3():
    return default_field(3)


def logs_to_elems(ctx, rows):
    return tuple(tuple(ctx.exp[v] for v in row) for row in rows)


# ---------------------------------------------------------------------------
# worked-example reproduction
# ---------------------------------------------------------------------------


def test_goertzel_matrices_m3(ctx3):
    plan = build_goertzel(ctx3)
    assert plan.remainder_matrix.to_bits() == wk.GOERTZEL_R
    assert plan.min_polys == tuple(wk.MIN_POLYS)
    expected_blocks = tuple(logs_to_elems(ctx3, b) for b in wk.GOERTZEL_EVAL_LOGS)
    assert plan.eval_blocks == expected_blocks
    assert plan.out_perm == (0, 1, 2, 4, 3, 6, 5)


def test_blahut_matrices_m3(ctx3):
    plan = build_blahut2008(ctx3)
    assert plan.b_blocks[1].to_bits() == wk.BLAHUT_B[1]
    assert plan.b_blocks[2].to_bits() == wk.BLAHUT_B[3]
    assert plan.v_blocks[1] == logs_to_elems(ctx3, wk.BLAHUT_V_LOGS[1])
    assert plan.v_blocks[2] == logs_to_elems(ctx3, wk.BLAHUT_V_LOGS[3])
    # first d rows of each spread matrix are the identity
    for k, coset in enumerate(plan.partition.cosets):
        if coset.leader == 0:
            continue
        for i in range(coset.size):
            assert plan.b_blocks[k].rows[i] == 1 << i


def test_ft2002_matrices_m3(ctx3):
    plan = build_ft2002(ctx3)
    assert plan.a_matrix.to_bits() == wk.FT2002_A
    assert plan.in_perm == wk.FT2002_IN_ORDER
    assert plan.out_perm == tuple(range(7))
    expected = logs_to_elems(ctx3, wk.FT2002_D_BLOCK_LOGS)
    for lay in plan.layouts[1:]:
        assert isinstance(lay.block, DenseBlock)
        assert lay.block.rows == expected


def test_tf2003_matrices_m3(ctx3):
    plan = build_tf2003(ctx3)
    assert plan.a_matrix.to_bits() == wk.TF2003_A
    first = tuple(ctx3.exp[v] for v in wk.TF2003_FIRST_ROW_LOGS)
    for lay in plan.layouts[1:]:
        assert isinstance(lay.block, CirculantBlock)
        assert lay.block.first_row == first


def test_fed2006a_matrices_m3(ctx3):
    plan = build_fed2006(ctx3, "a")
    assert plan.a_matrix.to_bits() == wk.FED2006A_A
    assert plan.in_perm == wk.FED2006A_ORDER
    assert plan.out_perm == wk.FED2006A_ORDER


def test_fed2006b_matrices_m3(ctx3):
    plan = build_fed2006(ctx3, "b")
    assert plan.a_matrix.to_bits() == wk.FED2006B_A
    assert plan.in_perm == wk.FED2006B_ORDER
    assert plan.out_perm == wk.FED2006B_ORDER
    first = tuple(ctx3.exp[v] for v in wk.FED2006B_FIRST_ROW_LOGS)
    for lay in plan.layouts[1:]:
        assert lay.block.first_row == first


def test_fed2006_variant_validation(ctx3):
    with pytest.raises(ValueError):
        build_fed2006(ctx3, "c")


# ---------------------------------------------------------------------------
# bulk coordinate solves against one solve per element
# ---------------------------------------------------------------------------


def _bases_in_use(ctx):
    """Every column basis of every plan over ctx."""
    part = alg.cyclotomic_cosets(ctx.n)
    bases = {basis for _, basis in alg._power_basis_columns(ctx, part)}
    for tag in FACTORED_TAGS:
        bases |= {lay.basis for lay in alg._layouts_for_tag(ctx, tag)}
    return sorted(bases)


@pytest.mark.parametrize("m", range(2, 9))
def test_bulk_coords_match_per_element_solves(m):
    ctx = default_field(m)
    solves = alg._SubfieldCoords(ctx)
    for basis in _bases_in_use(ctx):
        step, table = solves.table(basis)
        solver = LinearSolver(basis)
        # every argument a^(i * rep) of a layout on this basis lies in the
        # subfield it spans: the powers a^e with step | e
        assert step == ctx.n // ((1 << len(basis)) - 1)
        expected = [solver.coords(ctx.exp[e]) for e in range(0, ctx.n, step)]
        assert table.tolist() == expected, (m, basis)


def test_bulk_coords_reject_element_outside_span():
    ctx = default_field(4)
    # (1, a) has the length of a basis of GF(4) but does not span it: a^5 = a^2 + a
    with pytest.raises(ValueError, match="not in span"):
        alg._SubfieldCoords(ctx).table((1, ctx.exp[1]))


def test_bulk_coords_reject_basis_without_subfield(ctx3):
    # GF(8) has no subfield GF(4), so no 2-element basis has a bulk table
    with pytest.raises(ArithmeticError, match="no subfield"):
        alg._SubfieldCoords(ctx3).table((1, ctx3.exp[1]))


def test_bulk_coords_reject_column_outside_subfield():
    ctx = default_field(4)
    gf4 = (1, ctx.exp[5])
    assert alg._coords_matrix(ctx, range(ctx.n), [(5, gf4)]).shape == (ctx.n, 1)
    # a^(i*1) leaves GF(4) for i not a multiple of 5
    with pytest.raises(ArithmeticError, match="outside the span"):
        alg._coords_matrix(ctx, range(ctx.n), [(1, gf4)])


def _reference_rows(ctx, plan):
    """The binary matrices of a plan, one coordinate solve per element (and
    R by long division), as the builders made them before the bulk solves."""
    n = ctx.n
    if isinstance(plan, alg.GoertzelPlan):
        rows = []
        for coset, mpoly in zip(plan.partition.cosets, plan.min_polys):
            d = coset.size
            block, rem = [0] * d, 1  # x^j mod M_k, iterated over j
            for j in range(n):
                for t in range(d):
                    if (rem >> t) & 1:
                        block[t] |= 1 << j
                rem <<= 1
                if (rem >> d) & 1:
                    rem ^= mpoly
            rows += block
        return {"R": rows}
    if isinstance(plan, alg.BlahutPlan):
        b_blocks, combined, offset = [], [0] * n, 0
        for coset in plan.partition.cosets:
            s, d = coset.leader, coset.size
            solver = LinearSolver(tuple(ctx.exp[(s * t) % n] for t in range(d)))
            rows = [solver.coords(ctx.exp[(i * s) % n]) for i in range(n)]
            b_blocks.append(rows)
            combined = [c | r << offset for c, r in zip(combined, rows)]
            offset += d
        return {"B": b_blocks, "combine": combined}
    solvers = [LinearSolver(lay.basis) for lay in plan.layouts]
    rows = []
    for i in plan.out_perm:
        row, offset = 0, 0
        for lay, solver in zip(plan.layouts, solvers):
            row |= solver.coords(ctx.exp[(i * lay.rep) % n]) << offset
            offset += lay.coset.size
        rows.append(row)
    return {"A": rows}


def _built_rows(plan):
    if isinstance(plan, alg.GoertzelPlan):
        return {"R": plan.remainder_matrix.rows}
    if isinstance(plan, alg.BlahutPlan):
        return {"B": [b.rows for b in plan.b_blocks], "combine": plan.combine_matrix.rows}
    return {"A": plan.a_matrix.rows}


@pytest.mark.parametrize(
    "m, poly",
    [(m, None) for m in range(2, 10)] + [(6, 0b1100111), (8, 0b101100011)],
)
def test_bulk_assembly_matches_per_element_assembly(m, poly):
    ctx = build_field(FieldSpec(m, poly))
    plans = {tag: build(tag, ctx) for tag in ALL_TAGS}
    for tag, plan in plans.items():
        assert _built_rows(plan) == _reference_rows(ctx, plan), (m, poly, tag)
    # R is the transpose of the combine matrix: both hold x^i mod M_k
    r_bits = plans["goertzel"].remainder_matrix.to_bits()
    assert r_bits == [list(col) for col in zip(*plans["blahut2008"].combine_matrix.to_bits())]


def test_tf2003_change_of_basis_identity(ctx3):
    # the standard-points block equals a binary matrix times the basis circulant
    binary = [[1, 1, 1], [0, 1, 1], [1, 0, 1]]
    circ = CirculantBlock(tuple(ctx3.exp[v] for v in (3, 6, 5)))
    product = []
    for r in range(3):
        row = []
        for j in range(3):
            acc = 0
            for t in range(3):
                if binary[r][t]:
                    acc ^= circ.entry(t, j)
            row.append(acc)
        product.append(row)
    expected = [[ctx3.exp[(t * (1 << j)) % 7] for j in range(3)] for t in range(3)]
    assert product == expected


# ---------------------------------------------------------------------------
# oracle equivalence and application
# ---------------------------------------------------------------------------


def test_delta0_gives_all_ones(ctx3):
    delta0 = [1, 0, 0, 0, 0, 0, 0]
    for tag in ALL_TAGS:
        plan = build(tag, ctx3)
        assert alg.apply(plan, delta0) == [1] * 7, tag
    tally = TransformTally.fresh()
    apply_factored(build_tf2003(ctx3), delta0, tally=tally)
    assert tally.stage1.mults == 0  # unit block and zero inputs only


def test_delta1_matches_exp_table(ctx3):
    delta1 = [0, 1, 0, 0, 0, 0, 0]
    for tag in ALL_TAGS:
        plan = build(tag, ctx3)
        assert alg.apply(plan, delta1) == [1, 2, 4, 3, 6, 7, 5], tag


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_oracle_equivalence_small(m, tag):
    ctx = default_field(m)
    plan = build(tag, ctx)
    rng = random.Random(f"{m}:{tag}")
    for _ in range(25):
        f = [rng.randrange(1 << m) for _ in range(ctx.n)]
        assert alg.apply(plan, f) == naive_dft(f, ctx)


@pytest.mark.parametrize("tag", FACTORED_TAGS)
def test_four_russians_path_matches(ctx3, tag):
    plan = build(tag, ctx3)
    rng = random.Random(tag)
    for _ in range(10):
        f = [rng.randrange(8) for _ in range(7)]
        assert apply_factored(plan, f, four_russians=True) == apply_factored(plan, f)


def test_apply_length_checks(ctx3):
    for tag in ALL_TAGS:
        plan = build(tag, ctx3)
        with pytest.raises(ValueError):
            alg.apply(plan, [0] * 6)


@pytest.mark.parametrize("tag", ALL_TAGS)
@pytest.mark.parametrize(
    "bad",
    [
        [9, 0, 0, 0, 0, 0, 0],  # beyond GF(8): was returned as [9] * 7 or an IndexError
        [-1, 0, 0, 0, 0, 0, 0],
        [1.0, 0, 0, 0, 0, 0, 0],
        [None, 0, 0, 0, 0, 0, 0],
    ],
)
def test_apply_rejects_elements_outside_field(ctx3, tag, bad):
    with pytest.raises(ValueError):
        alg.apply(build(tag, ctx3), bad)


@pytest.mark.parametrize("tag", ["goertzel", "blahut2008"])
def test_four_russians_flag_rejected_on_unfactored_plans(ctx3, tag):
    # their binary stage has only the naive kernel; the flag must not be ignored
    plan = build(tag, ctx3)
    f = list(range(1, 8))
    with pytest.raises(ValueError, match="factored plans only"):
        alg.apply(plan, f, four_russians=True)
    assert alg.apply(plan, f, four_russians=False) == naive_dft(f, ctx3)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9])
def test_batch_matches_single(m):
    # m = 8 and 9 mix coset sizes {1,2,4,8} and {1,3,9} in one block stage
    ctx = default_field(m)
    n = ctx.n
    rng = random.Random(m * 131)
    vecs = [[rng.randrange(1 << m) for _ in range(n)] for _ in range(9 if m <= 6 else 3)]
    vecs += [[0] * n, [(1 << m) - 1] * n]
    for j in sorted({0, 1, n // 2, n - 1}):
        vecs.append([int(i == j) for i in range(n)])
    for tag in ALL_TAGS:
        plan = build(tag, ctx)
        for fr in (False, True) if tag in FACTORED_TAGS else (False,):
            expected = [alg.apply(plan, f, four_russians=fr) for f in vecs]
            assert apply_batch(plan, vecs) == expected, (tag, fr)
            assert apply_batch(plan, vecs[:1]) == expected[:1], (tag, fr)


def test_batch_empty(ctx3):
    for tag in ALL_TAGS:
        assert apply_batch(build(tag, ctx3), []) == []


def test_batch_wider_than_one_table_chunk(ctx3):
    # more vectors than the binary stage's subset-XOR tables hold at once
    rng = random.Random(5)
    vecs = [[rng.randrange(8) for _ in range(7)] for _ in range(3000)]
    expected = [naive_dft(f, ctx3) for f in vecs]
    for tag in ALL_TAGS:
        assert apply_batch(build(tag, ctx3), vecs) == expected, tag


@pytest.mark.parametrize(
    "bad",
    [
        [9, 0, 0, 0, 0, 0, 0],  # beyond GF(8): must not reach the next vector's output
        [-1, 0, 0, 0, 0, 0, 0],  # would wrap silently under numpy indexing
        [1.0, 0, 0, 0, 0, 0, 0],
        ["1", 0, 0, 0, 0, 0, 0],
        [None, 0, 0, 0, 0, 0, 0],
        [2**70, 0, 0, 0, 0, 0, 0],
        [0] * 6,
        [0] * 8,
    ],
)
def test_batch_rejects_bad_input(ctx3, bad):
    for tag in ALL_TAGS:
        with pytest.raises(ValueError):
            apply_batch(build(tag, ctx3), [bad, [0] * 7])


def test_normal_basis_must_be_conjugate_sequence(ctx3, monkeypatch):
    nb = find_normal_basis(ctx3, 3)
    b0, b1, b2 = nb.basis
    monkeypatch.setattr(alg, "find_normal_basis", lambda ctx, d: NormalBasis(b0, d, (b0, b2, b1)))
    for tag in ("tf2003", "fed2006a"):
        with pytest.raises(ArithmeticError, match="conjugate"):
            build(tag, ctx3)


# ---------------------------------------------------------------------------
# factorization identity and block structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("tag", FACTORED_TAGS)
def test_materialize_equals_vandermonde(m, tag):
    ctx = default_field(m)
    assert materialize(build(tag, ctx)) == transform_matrix(ctx)


def test_materialize_m2_direct():
    ctx = default_field(2)
    w = [[ctx.exp[(i * j) % 3] for j in range(3)] for i in range(3)]
    assert materialize(build_tf2003(ctx)) == w


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("variant", ["a", "b"])
def test_fed2006_blocks_are_circulants(m, variant):
    plan = build_fed2006(default_field(m), variant)
    for entry in coset_block_report(plan):
        assert entry["rotation_chain"], entry
        if entry["shape"][0] == entry["shape"][1]:
            assert entry["circulant"], entry


def test_block_report_requires_grouped_rows(ctx3):
    with pytest.raises(ValueError):
        coset_block_report(build_tf2003(ctx3))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("tag", ["tf2003", "fed2006a", "fed2006b"])
def test_circulant_first_rows_are_conjugate_sequences(m, tag):
    ctx = default_field(m)
    plan = build(tag, ctx)
    for lay in plan.layouts:
        if lay.coset.size == 1:
            continue
        row = lay.block.first_row
        for j in range(len(row)):
            assert ctx.mul(row[j], row[j]) == row[(j + 1) % len(row)]


# ---------------------------------------------------------------------------
# remainder properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_goertzel_remainder_property(m):
    ctx = default_field(m)
    plan = build_goertzel(ctx)
    rng = random.Random(m * 17)
    for _ in range(5):
        f = [rng.randrange(1 << m) for _ in range(ctx.n)]
        rems = remainders(plan, f)
        for coset, rk in zip(plan.partition.cosets, rems):
            assert len(rk) == coset.size  # degree below the coset size
            for e in coset.elements:
                x = ctx.exp[e]
                assert poly_eval(rk, x, ctx) == poly_eval(f, x, ctx)


# ---------------------------------------------------------------------------
# circulant kernel
# ---------------------------------------------------------------------------


def test_circulant_unit_vector(ctx3):
    first = (3, 5, 7)
    got = circulant_matvec(first, [1, 0, 0], ctx3)
    # v = delta_0 picks the first column: rows rotated left means column 0
    # reads the first row downward
    assert got == [3, 5, 7]


def test_circulant_all_ones_trace(ctx3):
    first = (3, 5, 7)  # a^3, a^6, a^5
    assert 3 ^ 5 ^ 7 == 1
    assert circulant_matvec(first, [1, 1, 1], ctx3) == [1, 1, 1]


def test_circulant_scalar(ctx3):
    assert circulant_matvec((6,), [7], ctx3) == [ctx3.mul(6, 7)]


def test_circulant_length_check(ctx3):
    with pytest.raises(ValueError):
        circulant_matvec((1, 2), [1], ctx3)


def test_circulant_rotation_convention(ctx3):
    # row r is the first row rotated left by r
    block = CirculantBlock((3, 5, 7))
    assert block.row(0) == (3, 5, 7)
    assert block.row(1) == (5, 7, 3)
    assert block.row(2) == (7, 3, 5)


# ---------------------------------------------------------------------------
# operation counts
# ---------------------------------------------------------------------------


def test_stage1_counts_m3(ctx3):
    plan = build_tf2003(ctx3)
    mults, adds = structural_stage1_counts(plan)
    assert mults == 18  # two 3x3 circulants of non-unit entries
    assert adds == 12
    assert stage2_naive_adds(plan) == 24


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 10])
@pytest.mark.parametrize("tag", FACTORED_TAGS)
def test_structural_counts_match_built_plans(m, tag):
    ctx = default_field(m)
    plan = build(tag, ctx)
    s1m, s1a, s2n = structural_counts_for_tag(ctx, tag)
    assert (s1m, s1a) == structural_stage1_counts(plan)
    assert s2n == stage2_naive_adds(plan)


@pytest.mark.parametrize("m", [3, 5, 8])
@pytest.mark.parametrize("tag", FACTORED_TAGS)
def test_measured_counts_hit_structural_worst_case(m, tag):
    # a vector with no 0/1 entries exercises every counted multiplication
    ctx = default_field(m)
    plan = build(tag, ctx)
    rng = random.Random(f"counts:{m}:{tag}")
    f = [rng.randrange(2, 1 << m) for _ in range(ctx.n)]
    tally = TransformTally.fresh()
    apply_factored(plan, f, tally=tally)
    s1m, s1a, s2n = structural_counts_for_tag(ctx, tag)
    assert tally.stage1.mults == s1m
    assert tally.stage1.adds == s1a
    assert tally.stage2.adds == s2n


def test_measured_mults_never_exceed_structural(ctx3):
    plan = build_tf2003(ctx3)
    rng = random.Random(4)
    for _ in range(20):
        f = [rng.randrange(8) for _ in range(7)]
        tally = TransformTally.fresh()
        apply_factored(plan, f, tally=tally)
        assert tally.stage1.mults <= 18


def test_goertzel_tally(ctx3):
    plan = build_goertzel(ctx3)
    f = [2, 3, 4, 5, 6, 7, 2]
    tally = TransformTally.fresh()
    apply_goertzel(plan, f, tally)
    # remainder fold: sum of (popcount - 1) over the seven rows = 31 - 7
    assert tally.stage2.adds == 24
    assert tally.stage2.mults == 0
    assert tally.stage1.adds == 12
    assert tally.stage1.mults <= 12  # unit columns are free


def test_blahut_tally(ctx3):
    plan = build_blahut2008(ctx3)
    f = [2, 3, 4, 5, 6, 7, 2]
    tally = TransformTally.fresh()
    apply_blahut2008(plan, f, tally)
    assert tally.stage1.adds == 12
    assert tally.stage2.mults == 0
    assert tally.stage2.adds == plan.combine_matrix.total_ones() - 7


def test_unknown_tag(ctx3):
    with pytest.raises(ValueError):
        build("fancy", ctx3)


def test_fed2006a_permuted_matrix_display(ctx3):
    # before un-permutation, the factored product is the coset-ordered
    # transform: row r, column c holds a^(out_perm[r] * in_perm[c])
    plan = build_fed2006(ctx3, "a")
    w = transform_matrix(ctx3)
    dense = materialize(plan)
    assert dense == w
    we = [[w[i][j] for j in plan.in_perm] for i in plan.out_perm]
    # spot-check the second row of the coset-ordered display:
    # exponents (0 | 1 2 4 | 3 6 5)
    assert we[1] == [ctx3.exp[e] for e in (0, 1, 2, 4, 3, 6, 5)]
    assert we[0] == [1] * 7


@pytest.mark.parametrize("m", [3, 4, 6, 10])
def test_linearized_decomposition_identity(m):
    # f(a^i) = f_0 + sum over cosets of L_k(a^(i*s_k)), where L_k collects the
    # coset-s_k coefficients as a linearized polynomial
    ctx = default_field(m)
    n = ctx.n
    part = alg.cyclotomic_cosets(n)
    rng = random.Random(m * 271)
    f = [rng.randrange(1 << m) for _ in range(n)]
    expected = naive_dft(f, ctx)
    for i in range(n):
        acc = f[0]
        for coset in part.cosets:
            if coset.leader == 0:
                continue
            arg = ctx.exp[(i * coset.leader) % n]
            for j, e in enumerate(coset.elements):
                acc ^= ctx.mul(f[e], ctx.pow(arg, 1 << j))
        assert acc == expected[i]
