import copy
import dataclasses
import pickle
import random
import sys
import threading
from itertools import accumulate, product

import numpy as np
import pytest

from gfft import algorithms as alg
from gfft import binmat
from gfft.algorithms import (
    ALL_TAGS,
    FACTORED_TAGS,
    BlockStage,
    TransformTally,
    apply,
    apply_batch,
    build,
    build_blahut2008,
    build_fed2006,
    build_ft2002,
    build_goertzel,
    build_tf2003,
    coset_block_report,
    materialize,
    stage2_naive_adds,
    structural_counts_for_tag,
    structural_stage1_counts,
)
from gfft.field import FieldSpec, OpCount, build_field, default_field
from gfft.reference import (
    counted_apply,
    naive_dft,
    naive_dft_batch,
    poly_eval,
    transform_matrix,
    unit_response,
)
from gfft.structure import (
    BinaryMatrix,
    LinearSolver,
    NormalBasis,
    find_normal_basis,
    minimal_polynomial,
)

import m3_worked_example as wk


@pytest.fixture(scope="module")
def ctx3():
    return default_field(3)


def logs_to_elems(ctx, rows):
    return tuple(tuple(ctx.exp[v] for v in row) for row in rows)


def matrix_of(plan):
    return plan.stage(BinaryMatrix)


def blocks_of(plan):
    """Each block's rows as Python ints."""
    stage = plan.stage(BlockStage)
    return [stage.rows(k) for k in range(len(stage.sizes))]


def circulants_of(plan):
    """Whether each block is circulant."""
    stage = plan.stage(BlockStage)
    return [stage.circulant(k) for k in range(len(stage.sizes))]


def column_blocks(plan):
    """The binary matrix cut into one column slice per coset (blahut2008's B_k)."""
    bits, sizes = matrix_of(plan).bits(), plan.partition.sizes()
    return [bits[:, c0 : c0 + d].tolist() for c0, d in zip(accumulate(sizes, initial=0), sizes)]


def remainders(plan, f):
    """goertzel's binary stage on f, cut into the per-coset remainders f mod M_k."""
    stacked = binmat.binmatvec_naive(matrix_of(plan), f)
    sizes = plan.partition.sizes()
    return [stacked[p : p + d] for p, d in zip(accumulate(sizes, initial=0), sizes)]


# ---------------------------------------------------------------------------
# worked-example reproduction
# ---------------------------------------------------------------------------


def test_goertzel_matrices_m3(ctx3):
    plan = build_goertzel(ctx3)
    assert isinstance(plan.stages[0], BinaryMatrix)
    assert matrix_of(plan).bits().tolist() == wk.GOERTZEL_R
    assert [minimal_polynomial(c, ctx3) for c in plan.partition.cosets] == wk.MIN_POLYS
    expected_blocks = tuple(logs_to_elems(ctx3, b) for b in wk.GOERTZEL_EVAL_LOGS)
    assert tuple(blocks_of(plan)) == expected_blocks
    assert plan.in_perm == tuple(range(7))
    assert plan.out_perm == (0, 1, 2, 4, 3, 6, 5)


def test_blahut_matrices_m3(ctx3):
    plan = build_blahut2008(ctx3)
    b_blocks, v_blocks = column_blocks(plan), blocks_of(plan)
    assert isinstance(plan.stages[0], BlockStage)
    assert b_blocks[1] == wk.BLAHUT_B[1]
    assert b_blocks[2] == wk.BLAHUT_B[3]
    assert v_blocks[0] == ((1,),) and circulants_of(plan)[0]  # the pass-through
    assert v_blocks[1] == logs_to_elems(ctx3, wk.BLAHUT_V_LOGS[1])
    assert v_blocks[2] == logs_to_elems(ctx3, wk.BLAHUT_V_LOGS[3])
    assert plan.in_perm == (0, 1, 2, 4, 3, 6, 5)
    assert plan.out_perm == tuple(range(7))
    # first d rows of each spread matrix are the identity
    for k, coset in enumerate(plan.partition.cosets):
        if coset.leader == 0:
            continue
        for i in range(coset.size):
            assert b_blocks[k][i] == [int(j == i) for j in range(coset.size)]


def test_ft2002_matrices_m3(ctx3):
    plan = build_ft2002(ctx3)
    assert matrix_of(plan).bits().tolist() == wk.FT2002_A
    assert plan.in_perm == wk.FT2002_IN_ORDER
    assert plan.out_perm == tuple(range(7))
    expected = logs_to_elems(ctx3, wk.FT2002_D_BLOCK_LOGS)
    for rows, circulant in zip(blocks_of(plan)[1:], circulants_of(plan)[1:]):
        assert not circulant
        assert rows == expected


def test_tf2003_matrices_m3(ctx3):
    plan = build_tf2003(ctx3)
    assert matrix_of(plan).bits().tolist() == wk.TF2003_A
    first = tuple(ctx3.exp[v] for v in wk.TF2003_FIRST_ROW_LOGS)
    for rows, circulant in zip(blocks_of(plan)[1:], circulants_of(plan)[1:]):
        assert circulant
        assert rows[0] == first


def test_fed2006a_matrices_m3(ctx3):
    plan = build_fed2006(ctx3, "a")
    assert matrix_of(plan).bits().tolist() == wk.FED2006A_A
    assert plan.in_perm == wk.FED2006A_ORDER
    assert plan.out_perm == wk.FED2006A_ORDER


def test_fed2006b_matrices_m3(ctx3):
    plan = build_fed2006(ctx3, "b")
    assert matrix_of(plan).bits().tolist() == wk.FED2006B_A
    assert plan.in_perm == wk.FED2006B_ORDER
    assert plan.out_perm == wk.FED2006B_ORDER
    first = tuple(ctx3.exp[v] for v in wk.FED2006B_FIRST_ROW_LOGS)
    for rows, circulant in zip(blocks_of(plan)[1:], circulants_of(plan)[1:]):
        assert circulant
        assert rows[0] == first


def test_fed2006_variant_validation(ctx3):
    # only "a" and "b" name a variant: no case folding, and a non-string
    # raises the same ValueError
    for variant in ("c", "A", 5):
        with pytest.raises(ValueError):
            build_fed2006(ctx3, variant)


# ---------------------------------------------------------------------------
# coordinate columns from the byte-table map against one solve per element
# ---------------------------------------------------------------------------


def _layouts_in_use(ctx):
    """Every distinct (rep, basis) layout of every plan over ctx."""
    part = alg.cyclotomic_cosets(ctx.n)
    found = {(lay.rep, lay.basis): lay for tag in ALL_TAGS for lay in alg._layouts_for_tag(ctx, part, tag)}
    return [found[key] for key in sorted(found)]


def _columns_by_layout(ctx, points, layouts):
    return {k: column.tolist() for k, column in alg._columns(ctx, points, layouts)}


@pytest.mark.parametrize("m", range(2, 9))
def test_bulk_coords_match_per_element_solves(m):
    ctx = default_field(m)
    layouts = _layouts_in_use(ctx)
    columns = _columns_by_layout(ctx, range(ctx.n), layouts)
    assert sorted(columns) == list(range(len(layouts)))
    for k, lay in enumerate(layouts):
        solver = LinearSolver(lay.basis)
        # every argument a^(i * rep) of a layout lies in its basis's span
        expected = [solver.coords(ctx.exp[i * lay.rep % ctx.n]) for i in range(ctx.n)]
        assert columns[k] == expected, (m, lay.rep, lay.basis)


@pytest.mark.parametrize("m", range(9, 17))
def test_bulk_coords_match_sampled_solves_above_one_byte(m):
    # m > 8: coordinates depend on the high-byte table too
    ctx = default_field(m)
    rng = random.Random(f"coords:{m}")
    part = alg.cyclotomic_cosets(ctx.n)
    layouts = [lay for tag in ALL_TAGS for lay in rng.sample(alg._layouts_for_tag(ctx, part, tag), 3)]
    points = [rng.randrange(ctx.n) for _ in range(64)]
    columns = _columns_by_layout(ctx, points, layouts)
    for k, lay in enumerate(layouts):
        solver = LinearSolver(lay.basis)
        assert columns[k] == [solver.coords(ctx.exp[i * lay.rep % ctx.n]) for i in points], (m, lay)
    solver = LinearSolver(find_normal_basis(ctx, m).basis)
    xs = [rng.randrange(1 << m) for _ in range(256)]
    assert solver.linear_map(xs).tolist() == [solver.coords(x) for x in xs]


def test_bulk_coords_reject_element_outside_span():
    ctx = default_field(4)
    # (1, a) has the length of a basis of GF(4) but does not span it: a^5 = a^2 + a
    not_gf4 = (1, ctx.exp[1])
    residual = LinearSolver(not_gf4).linear_map(ctx.exp[: ctx.n : 5]) >> 16
    assert (residual != 0).tolist() == [False, True, True]
    with pytest.raises(ArithmeticError, match="a\\^5 is outside the span"):
        _columns_by_layout(ctx, range(ctx.n), [alg.CosetLayout(5, (), not_gf4)])


def test_bulk_coords_reject_basis_without_subfield(ctx3):
    # GF(8) has no subfield GF(4), so the span of no 2-element basis holds
    # the powers of a coset's representative
    with pytest.raises(ArithmeticError, match="outside the span"):
        _columns_by_layout(ctx3, range(ctx3.n), [alg.CosetLayout(1, (), (1, ctx3.exp[1]))])


def test_bulk_coords_reject_column_outside_subfield():
    ctx = default_field(4)
    gf4 = (1, ctx.exp[5])
    assert len(_columns_by_layout(ctx, range(ctx.n), [alg.CosetLayout(5, (), gf4)])[0]) == ctx.n
    # a^(i*1) leaves GF(4) for i not a multiple of 5
    with pytest.raises(ArithmeticError, match="outside the span"):
        _columns_by_layout(ctx, range(ctx.n), [alg.CosetLayout(1, (), gf4)])


def _reference_rows(ctx, plan):
    """The binary matrices of a plan, one coordinate solve per element (and
    R by long division), as the builders made them before the bulk solves."""
    n = ctx.n
    if plan.tag == "goertzel":
        rows = []
        for coset in plan.partition.cosets:
            d, mpoly = coset.size, minimal_polynomial(coset, ctx)
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
    if plan.tag == "blahut2008":
        b_blocks, combined, offset = [], [0] * n, 0
        for coset in plan.partition.cosets:
            s, d = coset.leader, coset.size
            solver = LinearSolver(tuple(ctx.exp[(s * t) % n] for t in range(d)))
            rows = [solver.coords(ctx.exp[(i * s) % n]) for i in range(n)]
            b_blocks.append(rows)
            combined = [c | r << offset for c, r in zip(combined, rows)]
            offset += d
        return {"B": b_blocks, "combine": combined}
    layouts = alg._layouts_for_tag(ctx, plan.partition, plan.tag)
    solvers = [LinearSolver(lay.basis) for lay in layouts]
    rows = []
    for i in plan.out_perm:
        row, offset = 0, 0
        for lay, solver in zip(layouts, solvers):
            row |= solver.coords(ctx.exp[(i * lay.rep) % n]) << offset
            offset += len(lay.basis)
        rows.append(row)
    return {"A": rows}


def _built_rows(plan):
    if plan.tag == "goertzel":
        return {"R": matrix_of(plan).rows}
    if plan.tag == "blahut2008":
        packed = (np.packbits(b, axis=1, bitorder="little") for b in column_blocks(plan))
        b_rows = [[int.from_bytes(row.tobytes(), "little") for row in p] for p in packed]
        return {"B": b_rows, "combine": matrix_of(plan).rows}
    return {"A": matrix_of(plan).rows}


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
    r_bits = matrix_of(plans["goertzel"]).bits().tolist()
    assert r_bits == [list(col) for col in zip(*matrix_of(plans["blahut2008"]).bits().tolist())]


def test_tf2003_change_of_basis_identity(ctx3):
    # the standard-points block equals a binary matrix times the basis circulant
    binary = [[1, 1, 1], [0, 1, 1], [1, 0, 1]]
    first = tuple(ctx3.exp[v] for v in (3, 6, 5))
    circ = [first[t:] + first[:t] for t in range(3)]  # row t: the first rotated left by t
    product = []
    for r in range(3):
        row = []
        for j in range(3):
            acc = 0
            for t in range(3):
                if binary[r][t]:
                    acc ^= circ[t][j]
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
    apply(build_tf2003(ctx3), delta0, tally=tally)
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
        fr = apply(plan, f, TransformTally.fresh(), four_russians=True)
        assert fr == apply(plan, f, TransformTally.fresh()) == naive_dft(f, ctx3)


def test_apply_length_checks(ctx3):
    for tag in ALL_TAGS:
        plan = build(tag, ctx3)
        for tally in (None, TransformTally.fresh()):
            with pytest.raises(ValueError, match="expected length 7, got 6"):
                alg.apply(plan, [0] * 6, tally)


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
    plan = build(tag, ctx3)
    for tally in (None, TransformTally.fresh()):  # uncounted and counted
        with pytest.raises(ValueError, match="vector 0"):
            alg.apply(plan, bad, tally)


@pytest.mark.parametrize("m", [3, 5, 8])
@pytest.mark.parametrize("tag", ["goertzel", "blahut2008"])
def test_four_russians_kernel_on_unfactored_plans(m, tag):
    # R and the combine matrix run through either binary-stage kernel
    ctx = default_field(m)
    n = ctx.n
    plan = build(tag, ctx)
    f = [random.Random(f"4r:{m}:{tag}").randrange(1 << m) for _ in range(n)]
    tally = TransformTally.fresh()
    got = apply(plan, f, tally, four_russians=True)
    assert got == apply(plan, f, TransformTally.fresh(), four_russians=False) == naive_dft(f, ctx)
    assert tally.stage2.adds == binmat.make_plan(n).predicted_adds(n)


def test_all_six_at_m13():
    # above the O(n^2) oracle's range: unit vectors against their columns of
    # W, the six plans against each other on random vectors, and the rows
    # i = 0, 512, ... against Horner
    ctx = default_field(13)
    n = ctx.n
    units = [0, 1, n - 1]
    rng = random.Random(13)
    vecs = [[int(i == j) for i in range(n)] for j in units]
    vecs += [[rng.randrange(1 << 13) for _ in range(n)] for _ in range(4)]
    outs = {tag: apply_batch(build(tag, ctx), vecs) for tag in ALL_TAGS}
    randoms = outs[ALL_TAGS[0]][len(units) :]
    for tag, out in outs.items():
        assert out[: len(units)] == [unit_response(j, ctx) for j in units], tag
        assert out[len(units) :] == randoms, tag
    for f, F in zip(vecs[len(units) :], randoms):
        assert [F[i] for i in range(0, n, 512)] == [poly_eval(f, ctx.exp[i], ctx) for i in range(0, n, 512)]


def _path_vectors(m, randoms):
    """Random vectors, zero, all-(2^m - 1) and the unit vectors at 0, 1,
    n // 2 and n - 1."""
    n = (1 << m) - 1
    rng = random.Random(m * 131)
    vecs = [[rng.randrange(1 << m) for _ in range(n)] for _ in range(randoms)]
    vecs += [[0] * n, [(1 << m) - 1] * n]
    for j in sorted({0, 1, n // 2, n - 1}):
        vecs.append([int(i == j) for i in range(n)])
    return vecs


@pytest.mark.parametrize("m", range(2, 10))
def test_batch_matches_single(m):
    # every execution path against naive_dft on every tag: uncounted apply,
    # counted apply with either stage-2 count and apply_batch; m = 8 and 9
    # mix coset sizes {1,2,4,8} and {1,3,9} in one block stage
    ctx = default_field(m)
    vecs = _path_vectors(m, 9 if m <= 6 else 3)
    oracle = [naive_dft(f, ctx) for f in vecs]
    for tag in ALL_TAGS:
        plan = build(tag, ctx)
        for fr in (False, True):
            counted = [apply(plan, f, TransformTally.fresh(), four_russians=fr) for f in vecs]
            assert counted == oracle, (tag, fr)
        assert [apply(plan, f) for f in vecs] == oracle, tag
        assert apply_batch(plan, vecs) == oracle, tag
        assert apply_batch(plan, vecs[:1]) == oracle[:1], tag


def _tally(count_units):
    return TransformTally(OpCount(count_units=count_units), OpCount(count_units=count_units))


def _counters(stage1, stage2):
    return stage1.mults, stage1.adds, stage2.mults, stage2.adds


@pytest.mark.parametrize("m", range(2, 10))
def test_counted_apply_matches_reference(m):
    # counted apply runs the numpy kernels and adds cached structural counts
    # plus w . [x > 1] per block stage; the reference walk issues and counts
    # every operation.  Outputs and all four counters must agree for both
    # stage-2 kernels under both counting policies.  Stage 1 counts only
    # under the policy and stage 2 only under the kernel, so two reference
    # walks per vector give the expected tally of all four combinations.
    ctx = default_field(m)
    vecs = _path_vectors(m, 9 if m <= 6 else 3)
    for tag in ALL_TAGS:
        plan = build(tag, ctx)
        for f in vecs:
            ref = {False: _tally(False), True: _tally(True)}  # four_russians and count_units alike
            outs = [counted_apply(plan, f, tally, four_russians=k) for k, tally in ref.items()]
            for fr, units in product((False, True), repeat=2):
                got = _tally(units)
                assert apply(plan, f, got, fr) == outs[0] == outs[1], (tag, fr, units)
                want = _counters(ref[units].stage1, ref[fr].stage2)
                assert _counters(got.stage1, got.stage2) == want, (tag, fr, units)


# The kernels' element budget at its edges: 1 runs one byte group or block
# column per chunk, and one subset-XOR table at a time; 900 leaves a ragged
# last chunk in both kernels at m = 8 for one vector (3 of 32 groups, 3 of
# 8 columns, 28 of 32 tables); and 2^30 runs each stage as one gather.
_BUDGETS = (1, 900, 1 << 30)


@pytest.mark.parametrize("m", [3, 8, 10])
def test_chunk_rule_edges(m, monkeypatch):
    # every budget gives the reference walk's outputs, on batches 0, 1, 3
    # and 32 and on single vectors, and its tallies for both stage-2 kernels
    # under both counting policies; the naive walk is slow at m = 10, so
    # there the tallies are checked on one vector
    ctx = default_field(m)
    vecs = _path_vectors(m, 26)
    assert len(vecs) == 32
    tallied = 1 if m == 10 else 3
    for tag in ALL_TAGS:
        plan = build(tag, ctx)
        if m == 8:
            width, rows = plan.stage(BinaryMatrix).packed.shape
            l, w = plan.stage(BlockStage).entries.shape[:2]
            assert width % (900 // rows) and w % (900 // (l * w)), tag
        walks = [counted_apply(plan, f, TransformTally.fresh(), four_russians=True) for f in vecs]
        refs = [(_tally(False), _tally(True)) for _ in range(tallied)]  # as in the test above
        for f, want_out, (naive, fast) in zip(vecs, walks, refs):
            assert counted_apply(plan, f, naive) == counted_apply(plan, f, fast, True) == want_out, tag
        for budget in _BUDGETS:
            monkeypatch.setattr(alg, "_GATHER", budget)
            for size in (0, 1, 3, 32):
                assert apply_batch(plan, vecs[:size]) == walks[:size], (tag, budget, size)
            assert [apply(plan, f) for f in vecs] == walks, (tag, budget)
            for f, want_out, ref in zip(vecs, walks, refs):
                for fr, units in product((False, True), repeat=2):
                    got = _tally(units)
                    assert apply(plan, f, got, fr) == want_out, (tag, budget, fr, units)
                    want = _counters(ref[units].stage1, ref[fr].stage2)
                    assert _counters(got.stage1, got.stage2) == want, (tag, budget, fr, units)


def test_kernels_built_once_per_plan(monkeypatch):
    # counted and uncounted calls share one kernel build per plan; the count
    # data is built once too, and only for a counted call
    ctx = default_field(5)
    vecs = _path_vectors(5, 2)
    builds = {"_batch_stages": [], "_plan_counts": []}
    for name, calls in builds.items():
        real = getattr(alg, name)
        monkeypatch.setattr(alg, name, lambda plan, calls=calls, real=real: calls.append(plan.tag) or real(plan))
    for tag in ALL_TAGS:
        plan = build(tag, ctx)
        apply(plan, vecs[0])
        assert "_counts" not in vars(plan), tag  # uncounted apply builds no count data
        for f in vecs:
            apply(plan, f, TransformTally.fresh())
            apply(plan, f, _tally(True), four_russians=True)
            apply(plan, f)
        apply_batch(plan, vecs)
        apply_batch(plan, vecs[:2])
    assert builds == {"_batch_stages": list(ALL_TAGS), "_plan_counts": list(ALL_TAGS)}


def test_cached_kernels_leave_plan_fields_and_equality(ctx3):
    fields = tuple(f.name for f in dataclasses.fields(alg.Plan))
    assert fields == ("tag", "ctx", "partition", "in_perm", "stages", "out_perm")
    cached = {"_kernels", "_counts"}
    for tag in ALL_TAGS:
        used = build(tag, ctx3)
        apply(used, [1] * 7)
        apply(used, [2] * 7, TransformTally.fresh())
        assert cached <= vars(used).keys(), tag
        assert used == build(tag, ctx3), tag
        # the kernels are closures: a copy leaves the caches out and builds its own
        copied = pickle.loads(pickle.dumps(used))
        assert not cached & vars(copied).keys(), tag
        assert copied.ctx is not ctx3 and copied == used, tag
        assert apply(copied, [1] * 7) == apply(used, [1] * 7), tag


def test_fresh_plan_shared_across_threads():
    # several threads switching often, all on plans whose kernels are not
    # built yet: each must get the oracle's output
    ctx = default_field(8)
    vecs = _path_vectors(8, 3)
    oracle = [naive_dft(f, ctx) for f in vecs]
    plans = [build(tag, ctx) for tag in ALL_TAGS]
    workers = 4
    barrier = threading.Barrier(workers)
    results = {}

    def work(k):
        barrier.wait(timeout=30)
        results[k] = [[apply(plan, f) for f in vecs] for plan in plans]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {k: [oracle] * len(plans) for k in range(workers)}


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


@pytest.mark.parametrize("m", [4, 6])
def test_batch_above_1024_with_padded_blocks(m):
    # blocks of sizes 1, 2, 4 (m = 4) or 1, 2, 3, 6 (m = 6) padded to one
    # width, and past 1024 vectors one group per subset-XOR table
    ctx = default_field(m)
    rng = random.Random(m)
    vecs = [[rng.randrange(ctx.n + 1) for _ in range(ctx.n)] for _ in range(1100)]
    expected = naive_dft_batch(vecs, ctx)
    for tag in ALL_TAGS:
        assert apply_batch(build(tag, ctx), vecs) == expected, tag


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
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_materialize_equals_vandermonde(m, tag):
    ctx = default_field(m)
    dense = materialize(build(tag, ctx))
    assert dense.dtype == np.uint16 and np.array_equal(dense, transform_matrix(ctx))


@pytest.mark.parametrize("m", [3, 4, 6, 8])
def test_blahut2008_is_ft2002_with_power_bases_and_goertzel_its_transpose(m):
    ctx = default_field(m)
    goertzel, blahut, ft = (build(tag, ctx) for tag in ("goertzel", "blahut2008", "ft2002"))
    # the two differ only on the cosets of size m, where ft2002 takes the standard basis
    below_m = [d < m for d in blahut.partition.sizes()]
    for parts in (blocks_of, circulants_of, column_blocks):
        pairs = zip(parts(blahut), parts(ft), below_m)
        assert [(b, f) for b, f, below in pairs if below and b != f] == [], parts.__name__
    assert (blahut.in_perm, blahut.out_perm) == (ft.in_perm, ft.out_perm)
    # W is symmetric: goertzel transposes every stage and swaps the permutations
    assert (goertzel.in_perm, goertzel.out_perm) == (blahut.out_perm, blahut.in_perm)
    assert blocks_of(goertzel) == [tuple(zip(*b)) for b in blocks_of(blahut)]
    assert circulants_of(goertzel) == circulants_of(blahut)
    assert matrix_of(goertzel).bits().tolist() == [list(col) for col in zip(*matrix_of(blahut).bits().tolist())]


def test_materialize_m2_direct():
    ctx = default_field(2)
    w = [[ctx.exp[(i * j) % 3] for j in range(3)] for i in range(3)]
    assert np.array_equal(materialize(build_tf2003(ctx)), w)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("variant", ["a", "b"])
def test_fed2006_blocks_are_circulants(m, variant):
    plan = build_fed2006(default_field(m), variant)
    chain, circulant = coset_block_report(plan)
    sizes = np.array(plan.partition.sizes())
    assert chain.all()
    assert np.array_equal(circulant, sizes[:, None] == sizes)


def test_block_report_flags_one_flipped_bit():
    # one bit of A flipped inside a 4 x 4 circulant: its pair alone loses
    # both flags, every other pair reads as before
    plan = build_fed2006(default_field(4), "a")
    a = matrix_of(plan)
    r, c = 6, 2  # second row of coset {3, 6, 12, 9}, a column of coset {1, 2, 4, 8}
    packed = a.packed.copy()
    packed[c // 8, r] ^= 1 << (c % 8)
    broken = dataclasses.replace(plan, stages=(plan.stages[0], BinaryMatrix(packed, a.cols)))
    before, after = coset_block_report(plan), coset_block_report(broken)
    leaders = [c.leader for c in plan.partition.cosets]
    for x, y in zip(before, after):
        assert x.shape == y.shape == (5, 5) and x.dtype == y.dtype == bool
        assert [(leaders[o], leaders[i]) for o, i in np.argwhere(x != y)] == [(3, 1)]
        o, i = leaders.index(3), leaders.index(1)
        assert x[o, i] and not y[o, i]


def test_block_report_requires_grouped_rows(ctx3):
    with pytest.raises(ValueError):
        coset_block_report(build_tf2003(ctx3))


class _NoTable:
    """A field table that raises on any read."""

    def read(self, *args, **kwargs):
        raise AssertionError("a field table was read")

    __getitem__ = __iter__ = __len__ = __array__ = read


def _no_kernel(*args):
    raise AssertionError("a kernel was built")


@pytest.mark.parametrize("m", [3, 6])
def test_inspection_reads_neither_kernels_nor_field_tables(m, monkeypatch):
    # materialize and coset_block_report compose the stored stage entries
    # only, so they stay a check on the code under test: with both kernels
    # and every field table raising, they still give the W and the reports
    # computed beforehand
    ctx = default_field(m)
    w = transform_matrix(ctx)
    plans = {tag: build(tag, ctx) for tag in ALL_TAGS}
    reports = {tag: coset_block_report(plans[tag]) for tag in ("fed2006a", "fed2006b")}
    no_tables = copy.copy(ctx)
    no_tables.exp = no_tables.log = no_tables._exp2 = _NoTable()
    with pytest.raises(AssertionError, match="field table"):
        no_tables.mul(2, 3)
    monkeypatch.setattr(alg, "_block_kernel", _no_kernel)
    monkeypatch.setattr(alg, "_binary_kernel", _no_kernel)
    for tag, plan in plans.items():
        cut_off = dataclasses.replace(plan, ctx=no_tables)
        with pytest.raises(AssertionError, match="kernel"):
            apply(cut_off, [1] * ctx.n)
        assert np.array_equal(materialize(cut_off), w), tag
        if tag in reports:
            for got, want in zip(coset_block_report(cut_off), reports[tag]):
                assert np.array_equal(got, want), tag


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("tag", ["tf2003", "fed2006a", "fed2006b"])
def test_circulant_first_rows_are_conjugate_sequences(m, tag):
    ctx = default_field(m)
    plan = build(tag, ctx)
    for rows, circulant in zip(blocks_of(plan), circulants_of(plan)):
        assert circulant
        if len(rows) == 1:
            continue
        row = rows[0]
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
# circulant blocks
# ---------------------------------------------------------------------------


def test_block_stage_rows_and_circulant():
    # a 3x3 circulant (row r is the first row rotated left by r), the same
    # block with one entry changed, and a pass-through
    entries = np.zeros((3, 3, 3), dtype=np.uint16)
    entries[0] = [(3, 5, 7), (5, 7, 3), (7, 3, 5)]
    entries[1] = [(3, 5, 7), (5, 7, 3), (7, 3, 6)]
    entries[2, 0, 0] = 1
    stage = BlockStage(entries, [3, 3, 1])
    assert stage.rows(0) == ((3, 5, 7), (5, 7, 3), (7, 3, 5))
    assert stage.rows(1) == ((3, 5, 7), (5, 7, 3), (7, 3, 6))
    assert stage.rows(2) == ((1,),)
    assert [stage.circulant(k) for k in range(3)] == [True, False, True]
    assert all(type(x) is int for row in stage.rows(0) for x in row)
    assert stage == BlockStage(entries.copy(), (3, 3, 1))
    assert stage != BlockStage(entries[:2], [3, 3])


def test_block_stage_rejects_bad_layouts():
    entries = np.zeros((2, 3, 3), dtype=np.uint16)
    with pytest.raises(ValueError):
        BlockStage(entries.astype(np.int64), [3, 1])
    with pytest.raises(ValueError):
        BlockStage(entries, [2, 1])  # w is not the largest size
    entries[1, 0, 1] = 1  # past the size-1 block
    with pytest.raises(ValueError):
        BlockStage(entries, [3, 1])


@pytest.mark.parametrize("m", range(2, 13))
def test_block_kinds_follow_the_bases(m):
    # conjugate-sequence (normal) bases give circulant blocks; power and
    # standard bases start with 1, so only the pass-through is circulant
    ctx = default_field(m)
    for tag in ALL_TAGS:
        plan = build(tag, ctx)
        normal = tag in ("tf2003", "fed2006a", "fed2006b")
        assert circulants_of(plan) == [normal or len(rows) == 1 for rows in blocks_of(plan)], tag
        if not normal:
            assert [rows for rows in blocks_of(plan) if len(rows) == 1] == [((1,),)], tag


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
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_structural_counts_match_built_plans(m, tag):
    ctx = default_field(m)
    plan = build(tag, ctx)
    s1m, s1a, s2n = structural_counts_for_tag(ctx, tag)
    assert (s1m, s1a) == structural_stage1_counts(plan)
    assert s2n == stage2_naive_adds(plan)
    counts = (s1m, s1a, s2n, *structural_stage1_counts(plan), stage2_naive_adds(plan))
    assert all(type(x) is int for x in counts)


@pytest.mark.parametrize("m", [3, 5, 8])
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_measured_counts_hit_structural_worst_case(m, tag):
    # a vector with no 0/1 entries exercises every counted multiplication;
    # goertzel's block stage sees remainders instead, which can be 0 or 1
    ctx = default_field(m)
    plan = build(tag, ctx)
    rng = random.Random(f"counts:{m}:{tag}")
    f = [rng.randrange(2, 1 << m) for _ in range(ctx.n)]
    tally = TransformTally.fresh()
    apply(plan, f, tally=tally)
    s1m, s1a = structural_stage1_counts(plan)
    s2n = stage2_naive_adds(plan)
    assert (s1m, s1a, s2n) == structural_counts_for_tag(ctx, tag)
    if tag == "goertzel":
        assert tally.stage1.mults <= s1m
    else:
        assert tally.stage1.mults == s1m
    assert tally.stage1.adds == s1a
    assert tally.stage2.adds == s2n


def test_measured_mults_never_exceed_structural(ctx3):
    plan = build_tf2003(ctx3)
    rng = random.Random(4)
    for _ in range(20):
        f = [rng.randrange(8) for _ in range(7)]
        tally = TransformTally.fresh()
        apply(plan, f, tally=tally)
        assert tally.stage1.mults <= 18


def test_goertzel_tally(ctx3):
    plan = build_goertzel(ctx3)
    f = [2, 3, 4, 5, 6, 7, 2]
    tally = TransformTally.fresh()
    apply(plan, f, tally)
    # remainder fold: sum of (popcount - 1) over the seven rows = 31 - 7
    assert tally.stage2.adds == 24
    assert tally.stage2.mults == 0
    assert tally.stage1.adds == 12
    assert tally.stage1.mults <= 12  # unit columns are free


def test_blahut_tally(ctx3):
    plan = build_blahut2008(ctx3)
    f = [2, 3, 4, 5, 6, 7, 2]
    tally = TransformTally.fresh()
    apply(plan, f, tally)
    assert tally.stage1.adds == 12
    assert tally.stage2.mults == 0
    assert tally.stage2.adds == matrix_of(plan).row_popcounts().sum() - 7


def test_unknown_tag(ctx3):
    with pytest.raises(ValueError):
        build("fancy", ctx3)


def test_structural_counts_reject_unknown_tag(ctx3):
    with pytest.raises(ValueError, match="unknown algorithm tag 'nope'"):
        structural_counts_for_tag(ctx3, "nope")


def test_fed2006a_permuted_matrix_display(ctx3):
    # before un-permutation, the factored product is the coset-ordered
    # transform: row r, column c holds a^(out_perm[r] * in_perm[c])
    plan = build_fed2006(ctx3, "a")
    w = transform_matrix(ctx3)
    dense = materialize(plan)
    assert np.array_equal(dense, w)
    we = w[np.ix_(plan.out_perm, plan.in_perm)].tolist()
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
                acc ^= ctx.mul(f[e], ctx.exp[(ctx.log[arg] << j) % n])
        assert acc == expected[i]
