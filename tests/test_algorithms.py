import copy
import dataclasses
import gc
import json
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from itertools import accumulate, permutations
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from gfft import algorithms as alg
from gfft import binmat, structure
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
from gfft.field import FieldSpec, build_field, default_field
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
    coordinate_tables,
    doubling_orbit,
    find_normal_basis,
    minimal_polynomial,
)

import m3_worked_example as wk
from test_golden import FIELDS as GOLDEN_FIELDS

_NORMAL = ("tf2003", "fed2006a", "fed2006b")  # the normal-basis tags


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


def _layouts(ctx, part, tag):
    """(rep, basis) per coset of the tag's plan as its binary matrix shows
    it: the leader and the family's basis, but for fed2006b, coded from its
    definition, the normal basis turned by one, and the coset holding its
    generator's exponent starts at that exponent."""
    bases, reps = alg._bases_for_tag(ctx, part, tag), [coset.leader for coset in part.cosets]
    if tag == "fed2006b":
        bases = [b[1:] + b[:1] for b in bases]
        starts = {min(doubling_orbit(ctx.log[b[0]], ctx.n)): ctx.log[b[0]] for b in bases if len(b) > 1}
        reps = [starts.get(rep, rep) for rep in reps]
    return list(zip(reps, bases))


def _layouts_in_use(ctx):
    """Every distinct (rep, basis) layout of every plan over ctx."""
    part = alg.cyclotomic_cosets(ctx.n)
    return sorted({lay for tag in ALL_TAGS for lay in _layouts(ctx, part, tag)})


@pytest.mark.parametrize("m, poly", GOLDEN_FIELDS)
def test_coordinate_tables_match_solves_on_every_span_element(m, poly):
    # one call on every distinct basis of all six plans, sizes mixed; each
    # table gives LinearSolver.coords on every element of its basis's span
    # and a nonzero residual on every other element of the field
    ctx = build_field(FieldSpec(m, poly))
    bases = sorted({basis for _, basis in _layouts_in_use(ctx)})
    assert len({len(b) for b in bases}) > 1
    tables = coordinate_tables(bases)
    assert tables.shape == (len(bases), 2, 256) and tables.dtype == np.uint32
    field = np.arange(1 << m)
    for basis, table in zip(bases, tables):
        span = [0]  # span[c] is the XOR of basis[j] over the bits of c
        for b in basis:
            span += [x ^ b for x in span]
        solver = LinearSolver(basis)
        got = table[0, np.array(span) & 255] ^ table[1, np.array(span) >> 8]
        assert got.tolist() == [solver.coords(x) for x in span] == list(range(len(span))), basis
        outside = np.ones(1 << m, dtype=bool)
        outside[span] = False
        residual = (table[0, field & 255] ^ table[1, field >> 8]) >> 16
        assert np.array_equal(residual != 0, outside), basis


def test_coordinate_tables_reject_bad_bases_and_flag_outside_span():
    ctx = default_field(4)
    gf4, not_gf4 = (1, ctx.exp[5]), (1, ctx.exp[1])
    for bad in [(3, 5, 6), (1, 1), (0,), (4, 2, 6), tuple(1 << j for j in range(16)) + (3,)]:
        with pytest.raises(ValueError, match="dependent"):
            coordinate_tables([gf4, bad, not_gf4])
    for bad in [(1, 1 << 16), (-1, 2)]:
        with pytest.raises(ValueError, match="outside \\[0, 2\\^16\\)"):
            coordinate_tables([gf4, bad])
    # (1, a) spans no subfield: a^5 and a^10 lie in GF(4) but outside its span
    tables = coordinate_tables([not_gf4, gf4])
    xs = np.array(ctx.exp[: ctx.n : 5])  # 1, a^5, a^10
    residual = (tables[:, 0, xs & 255] ^ tables[:, 1, xs >> 8]) >> 16
    assert (residual != 0).tolist() == [[False, True, True], [False, False, False]]


def _mapped(basis, xs):
    """coords | residual << 16 of each element of xs, from basis's tables."""
    table, xs = coordinate_tables([basis])[0], np.asarray(xs)
    return table[0, xs & 255] ^ table[1, xs >> 8]


def _assemble(ctx, points, layouts, transpose=False):
    reps, bases = zip(*layouts)
    return structure.coordinate_matrix(ctx, points, reps, bases, alg._GATHER, transpose)


def _coords_by_layout(ctx, points, layouts):
    """Coset k's coordinates at each point, read back from the matrix that
    coordinate_matrix packs, after checking that its transpose is what it
    packs with transpose=True."""
    bits = _assemble(ctx, points, layouts).bits()
    widths = [len(basis) for _, basis in layouts]
    assert bits.shape == (len(points), sum(widths))
    assert np.array_equal(_assemble(ctx, points, layouts, transpose=True).bits(), bits.T)
    return {
        k: (bits[:, c0 : c0 + w] @ (1 << np.arange(w))).tolist()
        for k, (c0, w) in enumerate(zip(accumulate(widths, initial=0), widths))
    }


def _check_every_layout_in_use(ctx):
    layouts = _layouts_in_use(ctx)
    columns = _coords_by_layout(ctx, range(ctx.n), layouts)
    assert sorted(columns) == list(range(len(layouts)))
    for k, (rep, basis) in enumerate(layouts):
        solver = LinearSolver(basis)
        # every argument a^(i * rep) of a layout lies in its basis's span
        expected = [solver.coords(ctx.exp[i * rep % ctx.n]) for i in range(ctx.n)]
        assert columns[k] == expected, (ctx, rep, basis)


@pytest.mark.parametrize("m", range(2, 9))
def test_bulk_coords_match_per_element_solves(m):
    _check_every_layout_in_use(default_field(m))


@pytest.mark.parametrize("m, poly", [(m, poly) for m, poly in GOLDEN_FIELDS if poly is not None])
def test_bulk_coords_match_per_element_solves_other_polynomials(m, poly):
    _check_every_layout_in_use(build_field(FieldSpec(m, poly)))


@pytest.mark.parametrize("m", range(9, 17))
def test_bulk_coords_match_sampled_solves_above_one_byte(m):
    # m > 8: coordinates depend on the high-byte table too
    ctx = default_field(m)
    rng = random.Random(f"coords:{m}")
    part = alg.cyclotomic_cosets(ctx.n)
    layouts = [lay for tag in ALL_TAGS for lay in rng.sample(_layouts(ctx, part, tag), 3)]
    points = [rng.randrange(ctx.n) for _ in range(64)]
    columns = _coords_by_layout(ctx, points, layouts)
    for k, (rep, basis) in enumerate(layouts):
        solver = LinearSolver(basis)
        assert columns[k] == [solver.coords(ctx.exp[i * rep % ctx.n]) for i in points], (m, rep, basis)
    basis = find_normal_basis(ctx, m)
    solver = LinearSolver(basis)
    xs = [rng.randrange(1 << m) for _ in range(256)]
    assert _mapped(basis, xs).tolist() == [solver.coords(x) for x in xs]


def test_bulk_coords_reject_element_outside_span():
    ctx = default_field(4)
    # (1, a) has the length of a basis of GF(4) but does not span it: a^5 = a^2 + a
    not_gf4 = (1, ctx.exp[1])
    residual = _mapped(not_gf4, ctx.exp[: ctx.n : 5]) >> 16
    assert (residual != 0).tolist() == [False, True, True]
    with pytest.raises(ArithmeticError, match=re.escape(f"a^5 is outside the span of {not_gf4}")):
        _coords_by_layout(ctx, range(ctx.n), [(5, not_gf4)])


def test_bulk_coords_reject_basis_without_subfield(ctx3):
    # GF(8) has no subfield GF(4), so the span of no 2-element basis holds
    # the powers of a coset's representative
    # (the first argument outside the span of (1, a) is a^2)
    with pytest.raises(ArithmeticError, match=re.escape(f"a^2 is outside the span of {(1, ctx3.exp[1])}")):
        _coords_by_layout(ctx3, range(ctx3.n), [(1, (1, ctx3.exp[1]))])


def test_bulk_coords_reject_column_outside_subfield():
    ctx = default_field(4)
    gf4 = (1, ctx.exp[5])
    assert len(_coords_by_layout(ctx, range(ctx.n), [(5, gf4)])[0]) == ctx.n
    # a^(i*1) leaves GF(4) for i not a multiple of 5
    with pytest.raises(ArithmeticError, match=re.escape(f"a^1 is outside the span of {gf4}")):
        _coords_by_layout(ctx, range(ctx.n), [(1, gf4)])


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
    layouts = _layouts(ctx, plan.partition, plan.tag)
    solvers = [LinearSolver(basis) for _, basis in layouts]
    rows = []
    for i in plan.out_perm:
        row, offset = 0, 0
        for (rep, basis), solver in zip(layouts, solvers):
            row |= solver.coords(ctx.exp[(i * rep) % n]) << offset
            offset += len(basis)
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


def _chunk_budgets(ctx):
    """_GATHER values under which a build's chunks hold one coset each; two
    or more cosets, the first chunk ending inside a byte group that its last
    coset shares with the next chunk's first; and every coset."""
    sizes = alg.cyclotomic_cosets(ctx.n).sizes()
    starts = list(accumulate(sizes))[:-1]  # the first bit of coset k, k = 1, 2, ...
    split = max(k for k, start in enumerate(starts, 1) if start % 8)
    assert split > 1 or len(sizes) == 2, ctx
    return ctx.n, split * ctx.n, len(sizes) * ctx.n


@pytest.mark.parametrize("m", [3, 4, 7, 10])
def test_chunk_edges_keep_every_matrix(m, monkeypatch):
    # each tag's matrix is the same whichever way the budget cuts its cosets
    # into chunks, and it matches one solve per element.  Each chunked plan
    # is built on a fresh field object, so no live plan lends it a matrix
    # and every tag assembles its own under the budget
    ctx = default_field(m)
    plans = {tag: build(tag, ctx) for tag in ALL_TAGS}
    for budget in _chunk_budgets(ctx):
        monkeypatch.setattr(alg, "_GATHER", budget)
        for tag, plan in plans.items():
            chunked = build(tag, default_field(m))
            assert matrix_of(chunked) == matrix_of(plan), (m, budget, tag)
            if m <= 7:
                assert _built_rows(chunked) == _reference_rows(ctx, plan), (m, budget, tag)


@pytest.mark.parametrize("m", range(2, 11))
def test_transposed_packing_tile_edges(m, monkeypatch):
    # R is packed a slab of byte groups at a time: the chunks of cosets fill
    # a slab of the combine matrix's packing, which is transposed into R's
    # in steps of budget // q groups (q = ceil(n / 8) blocks of rows) and
    # flushed when the next chunk would not fit.  The budgets 8, 72, 8 q^2
    # and 8 (q + 1)^2 give steps of one group (a flush per chunk), of
    # 72 // q groups and of the whole matrix at once, and the cuts of
    # _chunk_budgets; every packing is the combine matrix transposed.  From
    # m = 6 on some budget leaves a partial last step
    ctx = default_field(m)
    want = matrix_of(build_blahut2008(ctx)).bits().T
    q = -(-ctx.n // 8)
    budgets = [8 * side * side for side in (1, 3, q, q + 1)] + list(_chunk_budgets(ctx))
    for budget in budgets:
        monkeypatch.setattr(alg, "_GATHER", budget)
        assert np.array_equal(matrix_of(build_goertzel(ctx)).bits(), want), (m, budget)
    slabs = [max(1, budget // q) for budget in budgets]
    assert any(slab < q and q % slab for slab in slabs) == (m > 5), slabs


@pytest.mark.parametrize("tag", ["goertzel", "blahut2008"])
def test_build_memory_stays_near_the_packed_matrix(tag):
    # tracemalloc sees numpy's buffers.  At m = 13 the packed matrix is 8
    # MiB.  Beside it a build may hold 4 MiB: one chunk's temporaries (0.4
    # MiB at 12 bytes per element, and its maps), the coordinate tables of
    # 631 bases (1.3 MiB), the layouts and D; goertzel's in-place transpose
    # adds one slab of delta swaps and one tile (0.3 MiB).  The rest came
    # to 3.4 MiB for goertzel and 3.3 MiB for blahut2008.  goertzel's rest
    # stays within 1 MiB of blahut2008's: a build that held a second copy of
    # the packing, another 8 MiB, breaks both bounds
    ctx = default_field(13)

    def peak_beside_matrix(tag):
        tracemalloc.start()
        try:
            plan = build(tag, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(part.packed.nbytes for part in matrix_of(plan).parts)

    peak = peak_beside_matrix(tag)
    assert peak < 4 << 20
    if tag == "goertzel":
        assert peak < peak_beside_matrix("blahut2008") + (1 << 20)


@pytest.mark.parametrize("m", [13, 14])
def test_remainder_matrix_is_combine_transposed_above_goldens(m):
    # the goldens pin R up to m = 12.  Here R, built in slabs with a partial
    # last block (n = 7 mod 8), is checked against the combine matrix part
    # by part (m = 14 splits its periodic classes; 13, with n prime, is one
    # part), a slab of byte groups at a time, without an n x n array: bit b
    # of a part's A.packed[g] is its column 8g + b, and the bytes of rows
    # 8g..8g+7 of R's part are its R.packed[:, 8g:8g+8]
    ctx = default_field(m)
    r = matrix_of(build_goertzel(ctx))
    # on its own field object blahut2008 is assembled cold, never derived
    # from R, whether or not the goertzel plan is still alive
    a = matrix_of(build_blahut2008(default_field(m)))
    assert (r.n_rows, r.cols) == (a.cols, a.n_rows) == (ctx.n, ctx.n)
    assert len(r.parts) == len(a.parts) == (1 if m == 13 else 6)
    assert r.transposed == (m == 14) and not a.transposed and r.offsets == a.offsets
    assert r.order[1] is a.order[0] is None
    assert r.order[0] is a.order[1] is None or np.array_equal(r.order[0], a.order[1])
    bit = np.arange(8, dtype=np.uint8)[:, None]
    for pa, pr in zip(a.parts, r.parts):
        assert (pr.rows, pr.cols) == (pa.cols, pa.rows) and ctx.n % pa.rows == 0
        for g0 in range(0, len(pa.packed), 64):
            groups = pa.packed[g0 : g0 + 64]
            a_cols = ((groups[:, None, :] >> bit) & 1).reshape(-1, pa.rows)[: pa.cols - 8 * g0]
            r_bytes = np.ascontiguousarray(pr.packed[:, 8 * g0 : 8 * g0 + 8 * len(groups)].T)  # row j's bytes
            r_rows = np.unpackbits(r_bytes, axis=1, count=pr.cols, bitorder="little")
            assert np.array_equal(a_cols, r_rows), (m, pa.rows, g0)


def _stage_arrays(plan):
    return _packings(plan) + [plan.stage(BlockStage).entries]


def _packings(plan):
    """The packings of the parts of the plan's binary stage."""
    return [part.packed for part in matrix_of(plan).parts]


def _holds_packings_of(plan, lender):
    """Whether plan holds lender's part packings themselves, part by part."""
    mine, theirs = _packings(plan), _packings(lender)
    return len(mine) == len(theirs) and all(x is y for x, y in zip(mine, theirs))


def _counting_calls(monkeypatch, name):
    """The argument lists of every call of alg's function name from now on."""
    calls = []
    real = getattr(alg, name)
    monkeypatch.setattr(alg, name, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


def _same_plan(plan, alone):
    """plan equals alone, the same tag built on its own field object: every
    field, so the permutations, D and the bits its binary matrix shows
    (BinaryMatrix equality compares bits())."""
    assert plan == alone and plan.tag == alone.tag
    assert (plan.in_perm, plan.out_perm) == (alone.in_perm, alone.out_perm)
    assert plan.stage(BlockStage) == alone.stage(BlockStage)
    assert all(packed.strides[1] == 1 for p in (plan, alone) for packed in _packings(p))
    assert [(part.rows, part.cols) for part in matrix_of(plan).parts] == [
        (part.rows, part.cols) for part in matrix_of(alone).parts
    ]


@pytest.mark.parametrize("m, poly", GOLDEN_FIELDS)
def test_twin_built_from_its_live_partner_equals_a_cold_build(m, poly, monkeypatch):
    # goertzel is blahut2008 transposed: a plan of the pair built while the
    # other lives on the same field object is derived from it part by part,
    # equals the plan built alone, part for part, assembles no matrix and
    # shares no array with it.  tf2003, fed2006a and fed2006b are one
    # matrix up to free permutations: built in any order on one field
    # object, each equals its plan built alone, and all three hold one set
    # of read-only part packings, assembled once.  A build while tf2003 or
    # fed2006a lives takes their D, coset order and packings, which the two
    # hold as one object each, and calls none of _bases_for_tag,
    # find_normal_basis and _d_blocks
    assembled = _counting_calls(monkeypatch, "coordinate_matrix")
    for partner, tag in (("goertzel", "blahut2008"), ("blahut2008", "goertzel")):
        alone = build(tag, build_field(FieldSpec(m, poly)))
        ctx = build_field(FieldSpec(m, poly))
        twin = build(partner, ctx)
        assembled.clear()
        derived = build(tag, ctx)
        assert assembled == [], (partner, tag)
        _same_plan(derived, alone)
        assert derived.partition == alone.partition and derived.partition is twin.partition, (partner, tag)
        assert not any(np.shares_memory(x, y) for x in _stage_arrays(derived) for y in _stage_arrays(twin))
        assert apply(derived, [int(j == 1) for j in range(ctx.n)]) == unit_response(1, ctx), (partner, tag)
        # a live twin on another object of the same field leaves a build cold
        build(tag, build_field(FieldSpec(m, poly)))
        assert len(assembled) == 1, (partner, tag)
    alone = {tag: build(tag, build_field(FieldSpec(m, poly))) for tag in _NORMAL}
    looked_up = [_counting_calls(monkeypatch, name) for name in ("_bases_for_tag", "find_normal_basis", "_d_blocks")]
    for order in permutations(_NORMAL):
        ctx = build_field(FieldSpec(m, poly))
        assembled.clear()
        plans = []
        for tag in order:
            warm = {"tf2003", "fed2006a"} & {p.tag for p in plans}
            for calls in looked_up:
                calls.clear()
            before = len(assembled)
            plans.append(build(tag, ctx))
            if warm:
                assert looked_up == [[], [], []] and len(assembled) == before, (order, tag)
            else:  # the patches see a cold build's lookups
                assert all(looked_up), (order, tag)
        assert len(assembled) == 1, order
        for plan in plans:
            _same_plan(plan, alone[plan.tag])
            assert _holds_packings_of(plan, plans[0]) and plan.partition is plans[0].partition, order
            assert apply(plan, [int(j == 1) for j in range(ctx.n)]) == unit_response(1, ctx), order
        tf, fed_a = (next(p for p in plans if p.tag == tag) for tag in ("tf2003", "fed2006a"))
        assert tf.stage(BlockStage) is fed_a.stage(BlockStage) and tf.in_perm is fed_a.in_perm, order
        for packed in _packings(tf):
            with pytest.raises(ValueError, match="read-only"):
                packed[0, 0] ^= 1
        with pytest.raises(ValueError, match="read-only"):
            tf.stage(BlockStage).entries[0, 0, 0] ^= 1


def test_registry_keeps_the_first_live_plan(monkeypatch):
    # a second tf2003, built and dropped while the first is held, leaves
    # the first as the plan later builds find: fed2006a takes its core,
    # looks up no basis and holds its packing, not a second assembly
    ctx = default_field(8)
    tf = build("tf2003", ctx)
    second = build("tf2003", ctx)
    assert second is not tf and second == tf  # build returns a new plan
    del second
    looked_up = [_counting_calls(monkeypatch, name) for name in ("find_normal_basis", "_bases_for_tag")]
    assembled = _counting_calls(monkeypatch, "coordinate_matrix")
    fed_a = build("fed2006a", ctx)
    assert looked_up == [[], []] and assembled == []
    assert _holds_packings_of(fed_a, tf)
    assert fed_a.stage(BlockStage) is tf.stage(BlockStage)


@pytest.mark.parametrize("m, poly", GOLDEN_FIELDS)
def test_ft2002_built_while_one_lives_takes_its_core(m, poly, monkeypatch):
    # a second ft2002 on a field object where one is alive assembles and
    # looks up nothing: it holds the first plan's packing and D and equals
    # the plan built alone
    alone = build("ft2002", build_field(FieldSpec(m, poly)))
    ctx = build_field(FieldSpec(m, poly))
    first = build("ft2002", ctx)
    assembled = _counting_calls(monkeypatch, "coordinate_matrix")
    looked_up = _counting_calls(monkeypatch, "_bases_for_tag")
    second = build("ft2002", ctx)
    assert assembled == [] and looked_up == []
    assert second is not first
    _same_plan(second, alone)
    assert _holds_packings_of(second, first)
    assert second.stage(BlockStage) is first.stage(BlockStage)
    assert apply(second, [int(j == 1) for j in range(ctx.n)]) == unit_response(1, ctx)


@pytest.mark.parametrize("m, poly", GOLDEN_FIELDS)
def test_fed2006_is_tf2003_up_to_free_permutations(m, poly):
    # each fed2006 plan, built alone, shows a cold tf2003's binary matrix
    # with its rows in out_perm and its columns in some order sigma, found
    # here by matching the columns (no column repeats), not from layouts:
    # sigma is the identity for fed2006a and, within each coset, a rotation
    # by one or by none for fed2006b
    tf = matrix_of(build_tf2003(build_field(FieldSpec(m, poly)))).bits()
    for variant in "ab":
        plan = build_fed2006(build_field(FieldSpec(m, poly)), variant)
        rows = tf[list(plan.out_perm)]
        column = {c.tobytes(): j for j, c in enumerate(np.packbits(rows, axis=0).T)}
        assert len(column) == plan.ctx.n
        sigma = np.array([column[c.tobytes()] for c in np.packbits(matrix_of(plan).bits(), axis=0).T])
        assert np.array_equal(matrix_of(plan).bits(), rows[:, sigma])
        if variant == "a":
            assert np.array_equal(sigma, np.arange(plan.ctx.n))
            continue
        for c0, d in zip(accumulate(plan.partition.sizes(), initial=0), plan.partition.sizes()):
            turn = (sigma[c0] - c0) % d
            assert turn in (0, 1) and np.array_equal(sigma[c0 : c0 + d], c0 + (np.arange(d) + turn) % d), (c0, d)


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
        5,  # not a sequence
        None,
        np.zeros(7, dtype=bool),  # struct takes Python bools, not numpy's
    ],
)
def test_apply_rejects_elements_outside_field(ctx3, tag, bad):
    plan = build(tag, ctx3)
    for tally in (None, TransformTally.fresh()):  # uncounted and counted
        with pytest.raises(ValueError, match="vector 0"):
            alg.apply(plan, bad, tally)
    with pytest.raises(ValueError, match="vector 0"):
        counted_apply(plan, bad, TransformTally.fresh())


def test_vectors_take_python_bools_as_0_and_1(ctx3):
    f = [True, False, True, False, False, False, True]
    expected = naive_dft([1, 0, 1, 0, 0, 0, 1], ctx3)
    assert naive_dft_batch([f], ctx3) == [expected]
    for tag in ALL_TAGS:
        plan = build(tag, ctx3)
        assert alg.apply(plan, f) == apply(plan, f, TransformTally.fresh()) == expected, tag
        assert apply_batch(plan, [f]) == [expected], tag


@pytest.mark.parametrize("m", [3, 8])
def test_bytes_vectors_are_sequences_of_ints(m):
    # a bytes or bytearray vector is n ints in [0, 256): below m = 8 its
    # bytes must lie in the field, at m = 8 any bytes of length 255 do
    ctx = default_field(m)
    rng = random.Random(f"bytes:{m}")
    vectors = [[rng.randrange(ctx.n + 1) for _ in range(ctx.n)] for _ in range(3)]
    expected = naive_dft_batch(vectors, ctx)
    for kind in (bytes, bytearray):
        given = [kind(v) for v in vectors]
        assert naive_dft_batch(given, ctx) == expected, kind
        assert [naive_dft(f, ctx) for f in given] == expected, kind
        for tag in ALL_TAGS:
            plan = build(tag, ctx)
            assert apply_batch(plan, given) == expected, (kind, tag)
            assert [alg.apply(plan, f) for f in given] == expected, (kind, tag)
            assert apply(plan, given[0], TransformTally.fresh()) == expected[0], (kind, tag)


@pytest.mark.parametrize(
    "bad",
    [9, 8, -1, 2**16, 2**70, 1.0, None, "1", np.True_, np.float64(1.0), np.int64(-1)],
    ids=repr,
)
def test_rejection_names_the_first_element_outside_the_field(ctx3, bad):
    # the error names vector 1 and index 3, the first element that is not
    # an int in [0, 2^3), whichever check it fails; a later bad element of
    # the same vector, and a good vector after it, do not change that
    vector = [1, 2, 3, bad, 4, None, 7]
    message = rf"^vector 1, index 3: {re.escape(repr(bad))} is not in GF\(2\^3\)$"
    batch = [[0] * 7, vector, [0] * 7]
    with pytest.raises(ValueError, match=message):
        naive_dft_batch(batch, ctx3)
    for tag in ALL_TAGS:
        with pytest.raises(ValueError, match=message):
            apply_batch(build(tag, ctx3), batch)
    with pytest.raises(ValueError, match=message.replace("vector 1", "vector 0")):
        alg.apply(build("tf2003", ctx3), vector)


@pytest.mark.parametrize("later", [[None] * 7, [0] * 6, 5], ids=["not ints", "short", "not a sequence"])
def test_rejection_names_the_first_vector_at_fault(ctx3, later):
    # vector 0 packs, but holds 9 > n; vector 1 does not pack at all: the
    # error names vector 0, whose fault comes first
    batch = [[9, 0, 0, 0, 0, 0, 0], later]
    message = r"^vector 0, index 0: 9 is not in GF\(2\^3\)$"
    with pytest.raises(ValueError, match=message):
        alg.validate_vectors(ctx3, batch)
    with pytest.raises(ValueError, match=message):
        naive_dft_batch(batch, ctx3)
    for tag in ALL_TAGS:
        with pytest.raises(ValueError, match=message):
            apply_batch(build(tag, ctx3), batch)
    with pytest.raises(ValueError, match=r"^vector 1"):  # a good vector 0 leaves vector 1 named
        alg.validate_vectors(ctx3, [[0] * 7, later])


def test_rejection_without_a_bad_element_names_the_vector(ctx3):
    # a sequence whose len disagrees with what it yields has no element at
    # fault, so the error names the vector alone

    class Short(list):
        def __len__(self):
            return 7

    for vector in (Short([0] * 6), Short([0] * 8)):
        with pytest.raises(ValueError, match=r"^vector 1: expected a sequence of 7 ints$"):
            apply_batch(build("ft2002", ctx3), [[0] * 7, vector])


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


def _path_fields(ms):
    """(m, poly) cases: the default fields at ms, by m, and the non-default
    polynomials of the golden fields (m = 5, 6, 8), by m and poly."""
    return [pytest.param(m, None, id=f"{m}") for m in ms] + [
        pytest.param(m, poly, id=f"{m}-{poly:#x}") for m, poly in GOLDEN_FIELDS if poly
    ]


@pytest.mark.parametrize("m, poly", _path_fields(range(2, 12)))
def test_batch_matches_single(m, poly):
    # every execution path against the oracle on every tag: uncounted apply,
    # counted apply with either stage-2 count, and apply_batch on 1, 2, 3,
    # 17 and 33 vectors.  Across these fields that runs both binary kernels,
    # the block and plane kernels in one chunk and in several, and every
    # permutation the stage kernels fold into their gathers.  m = 8 and 9
    # mix coset sizes {1,2,4,8} and {1,3,9} in one block stage
    ctx = build_field(FieldSpec(m, poly))
    singles = _path_vectors(m, 9 if m <= 6 else 3)
    vecs = (singles * 33)[:33]
    oracle = naive_dft_batch(vecs, ctx)
    k = len(singles)
    for tag in ALL_TAGS:
        plan = build(tag, ctx)
        for fr in (False, True):
            counted = [apply(plan, f, TransformTally.fresh(), four_russians=fr) for f in singles]
            assert counted == oracle[:k], (tag, fr)
        assert [apply(plan, f) for f in singles] == oracle[:k], tag
        for size in (1, 2, 3, 17, 33):
            assert apply_batch(plan, vecs[:size]) == oracle[:size], (tag, size)


@pytest.mark.parametrize("m, poly", _path_fields(range(2, 10)))
def test_counted_apply_matches_reference(m, poly):
    # counted apply runs the numpy kernels and adds cached structural counts
    # plus w . [x > 1] per block stage; the reference walk issues and counts
    # every operation.  Outputs and all four counters must agree for both
    # stage-2 kernels.
    ctx = build_field(FieldSpec(m, poly))
    vecs = _path_vectors(m, 9 if m <= 6 else 3)
    for tag in ALL_TAGS:
        plan = build(tag, ctx)
        for f in vecs:
            for fr in (False, True):
                got, want = TransformTally.fresh(), TransformTally.fresh()
                assert apply(plan, f, got, fr) == counted_apply(plan, f, want, fr), (tag, fr)
                assert got == want, (tag, fr)


@pytest.mark.parametrize("m", [3, 8])
def test_binary_first_plan_gathers_its_input(m):
    # goertzel, the one plan whose binary stage runs first, has the identity
    # in_perm, but a Plan may carry any: x[c] = input[in_perm[c]] must reach
    # the binary stage on every path, with counts as the reference walk's
    ctx = default_field(m)
    plan = build("goertzel", ctx)
    assert plan.in_perm == tuple(range(ctx.n)) and isinstance(plan.stages[0], BinaryMatrix)
    perm = list(range(ctx.n))
    random.Random(m).shuffle(perm)
    shuffled = dataclasses.replace(plan, in_perm=tuple(perm))
    vecs = _path_vectors(m, 27)[:33]
    oracle = naive_dft_batch([[f[j] for j in perm] for f in vecs], ctx)
    for f, want in zip(vecs[:3], oracle):
        assert apply(shuffled, f) == want
        for fr in (False, True):
            got, ref = TransformTally.fresh(), TransformTally.fresh()
            assert apply(shuffled, f, got, fr) == counted_apply(shuffled, f, ref, fr) == want, fr
            assert got == ref, fr
    for size in (1, 2, 33):  # planes, and Four Russians for 33
        assert apply_batch(shuffled, vecs[:size]) == oracle[:size], size


# The kernels' element budget at its edges: 1 runs one byte group or block
# column per chunk, and one subset-XOR table at a time; 900 leaves a ragged
# last chunk in all three kernels at m = 8 (3 of 32 groups in the plane
# kernel for one vector, 3 of 8 columns, Four-Russians tables 3 of 32 groups
# at a time for 5 vectors, padded to 8) and in Four Russians at m = 10 (7
# groups at a time for 4 vectors: 3 of the 38 of tf2003's period-341
# part); 6000 leaves a ragged last block of byte groups in the plane kernel
# at m = 8 and 10 (23 of 32; 1 of tf2003's 91 full-period groups, in
# blocks of 5 for 1023 rows); and 2^30 runs each
# stage as one gather, so Four Russians shares one take among all groups,
# where the smaller budgets give each group its own take.
_BUDGETS = (1, 900, 6000, 1 << 30)


@pytest.mark.parametrize("m", [3, 8, 10])
def test_chunk_rule_edges(m, monkeypatch):
    # every budget gives the oracle's outputs on batches 0, 1, 3 and 32, on
    # both sides of the plane rule (32 // m and 32 // m + 1 vectors) and on
    # single vectors, and the reference walk's tallies for both stage-2
    # kernels; the naive walk is slow at m = 10, so there the tallies are
    # checked on one vector
    ctx = default_field(m)
    vecs = _path_vectors(m, 26)
    assert len(vecs) == 32
    oracle = naive_dft_batch(vecs, ctx)
    sizes = sorted({0, 1, 3, 32, 32 // m, 32 // m + 1})
    tallied = 1 if m == 10 else 3
    forms = set()  # (ragged last table chunk, groups per take > 1) of each Four-Russians call
    sizes_of = alg._russians_sizes

    def noted_sizes(width, rows, batch):
        s, k = sizes_of(width, rows, batch)
        forms.add((width % s > 0, k > 1))
        return s, k

    monkeypatch.setattr(alg, "_russians_sizes", noted_sizes)
    for tag in ALL_TAGS:
        plan = build(tag, ctx)
        shapes = [packed.shape for packed in _packings(plan)]  # (byte groups, rows) per part
        if m == 8:
            ((width, rows),) = shapes
            l, w = plan.stage(BlockStage).entries.shape[:2]
            assert width % (900 // rows) and w % (900 // (l * w)), tag
        if m in (8, 10):
            assert any(width % (6000 // rows) for width, rows in shapes), tag
        refs = [(TransformTally.fresh(), TransformTally.fresh()) for _ in range(tallied)]  # naive, Four Russians
        for f, want_out, (naive, fast) in zip(vecs, oracle, refs):
            assert counted_apply(plan, f, naive) == counted_apply(plan, f, fast, True) == want_out, tag
        for budget in _BUDGETS:
            monkeypatch.setattr(alg, "_GATHER", budget)
            for size in sizes:
                assert apply_batch(plan, vecs[:size]) == oracle[:size], (tag, budget, size)
            assert [apply(plan, f) for f in vecs] == oracle, (tag, budget)
            for f, want_out, ref in zip(vecs, oracle, refs):
                for fr in (False, True):
                    got = TransformTally.fresh()
                    assert apply(plan, f, got, fr) == want_out, (tag, budget, fr)
                    assert got == ref[fr], (tag, budget, fr)
    if m in (8, 10):  # m = 3 has one byte group, so one table and one take
        assert any(ragged for ragged, _ in forms), forms
        assert {shared for _, shared in forms} == {False, True}, forms


@pytest.mark.parametrize("m", range(2, 13))
def test_plane_kernel_matches_four_russians(m):
    # the plane kernel's AND of bytes (forced with no table budget) and Four
    # Russians agree on every tag's binary matrix for batches 1 to
    # 32 // m + 1, across the plane rule, and for 8 and 32, where Four
    # Russians shares takes among groups or gives each its own; on every
    # stored column and row, pads included
    rng = np.random.default_rng(m)
    ctx = default_field(m)
    for tag in ALL_TAGS:
        matrix = build(tag, ctx).stage(BinaryMatrix)
        planes, russians = alg.plane_kernel(matrix, m, 0, alg._GATHER), alg._binary_kernel(matrix)
        for batch in sorted({*range(1, 32 // m + 2), 8, 32}):
            x = rng.integers(0, 1 << m, size=(matrix.stored[1], batch), dtype=np.uint16)
            assert np.array_equal(planes(x), russians(x)), (tag, batch)


def _tables_held(matrix):
    """The widths t of the column tables kept for the matrix's packings."""
    ids = {id(part.packed) for part in matrix.parts}
    return {t for packing, t in structure._TABLES if packing in ids}


@pytest.mark.parametrize("m", range(2, 11))
def test_table_kernel_matches_planes_and_four_russians(m):
    # on every tag's binary matrix, goertzel's folded R and m = 10's two
    # parts included, the plane kernel on 4-column tables (every m <= 10
    # under the default _TABLE_BYTES) gives its AND of bytes' (no table
    # budget) and Four Russians' outputs exactly for 1 to 3 vectors, and so
    # does a kernel whose budget is one byte short of what the tables take
    # (per byte group, 2 tables of 16 rows of ceil(rows / 8) bytes), which
    # builds none
    rng = np.random.default_rng(m)
    ctx = default_field(m)
    for tag in ALL_TAGS:
        matrix = matrix_of(build(tag, ctx))
        planes, russians = alg.plane_kernel(matrix, m, 0, alg._GATHER), alg._binary_kernel(matrix)
        assert _tables_held(matrix) == set(), tag
        four_columns = sum(32 * len(part.packed) * -(-part.rows // 8) for part in matrix.parts)
        assert four_columns <= alg._TABLE_BYTES, tag
        for held, table_bytes in ((set(), four_columns - 1), ({4}, alg._TABLE_BYTES)):
            tables = alg.plane_kernel(matrix, m, table_bytes, alg._GATHER)
            assert _tables_held(matrix) == held, tag
            for batch in (1, 2, 3):
                x = rng.integers(0, 1 << m, size=(matrix.stored[1], batch), dtype=np.uint16)
                y = tables(x)
                assert y.dtype == np.uint16 and y.shape == (matrix.stored[0], batch), (tag, held, batch)
                assert np.array_equal(y, planes(x)) and np.array_equal(y, russians(x)), (tag, held, batch)


@pytest.mark.parametrize("m", [3, 8, 10])
def test_column_tables_hold_the_xor_of_their_columns(m):
    # row (h groups + g) 2^t + s of a packing's tables, unpacked over the
    # part's rows, is the XOR of its columns 8g + ht + i over the bits i of
    # s, each column read from BinaryMatrix.bits(transpose=True) of the
    # part; the bits past the last row are clear.  Transposed a byte group
    # at a time (budget 1) or all at once, for R's parts and A's
    ctx = default_field(m)
    for tag in ("goertzel", "tf2003"):
        for part in matrix_of(build(tag, ctx)).parts:
            groups, rows = part.packed.shape
            columns = np.zeros((8 * groups, rows), dtype=np.int64)
            columns[: part.cols] = BinaryMatrix((part,)).bits(transpose=True)
            for t, budget in ((4, alg._GATHER), (2, alg._GATHER), (4, 1)):
                table = structure.column_tables(part.packed, t, budget)
                subsets = np.arange(1 << t)[:, None] >> np.arange(t) & 1  # bit i of s at [s, i]
                want = np.einsum("si,ghir->hgsr", subsets, columns.reshape(groups, 8 // t, t, rows)) % 2
                bits = np.unpackbits(table, axis=1, bitorder="little")
                assert np.array_equal(bits[:, :rows], want.reshape(-1, rows)), (tag, t, budget)
                assert not bits[:, rows:].any() and not table.flags.writeable, (tag, t, budget)


def test_normal_plans_share_one_set_of_column_tables(monkeypatch):
    # tf2003, fed2006a and fed2006b hold one packing per part, so their
    # kernels take one set of column tables, the same objects, built once
    # per packing; each gives the oracle's outputs
    ctx = default_field(10)
    built, taken, held = [], [], {}
    real_build, real_of = structure.column_tables, structure._tables_of
    monkeypatch.setattr(structure, "column_tables", lambda packed, *a: built.append(id(packed)) or real_build(packed, *a))
    monkeypatch.setattr(structure, "_tables_of", lambda *a: taken.append(real_of(*a)) or taken[-1])
    plans = {tag: build(tag, ctx) for tag in _NORMAL}
    vecs = _path_vectors(10, 1)
    oracle = naive_dft_batch(vecs, ctx)
    for tag, plan in plans.items():
        start = len(taken)
        assert [apply(plan, f) for f in vecs] == oracle, tag
        held[tag] = taken[start:]  # the tables its kernels took
    packings = _packings(plans["tf2003"])
    assert len(packings) == 2 and sorted(built) == sorted(map(id, packings))
    for tag in _NORMAL:
        assert _packings(plans[tag]) == packings and len(held[tag]) == 2, tag
        assert all(mine is first for mine, first in zip(held[tag], held["tf2003"])), tag


def test_column_tables_go_with_the_last_plan_on_their_packing():
    # the six plans at m = 10 hold four binary matrices of two parts each
    # (R, blahut2008's, ft2002's and the normal tags' one), eight packings;
    # each packing's tables stay while a plan holds it, and once the plans
    # are dropped the cache holds none of them and the tables are freed
    ctx = default_field(10)
    plans = {tag: build(tag, ctx) for tag in ALL_TAGS}
    for tag in ALL_TAGS:  # no loop variable left holding a plan
        apply(plans[tag], [1] * ctx.n)
    keys = {(id(packed), 4) for tag in ALL_TAGS for packed in _packings(plans[tag])}
    assert len(keys) == 8 and keys <= structure._TABLES.keys()
    freed = [weakref.ref(structure._TABLES[key]) for key in keys]
    normal = {(id(packed), 4) for packed in _packings(plans["tf2003"])}
    del plans["tf2003"], plans["fed2006a"]
    gc.collect()
    assert normal <= structure._TABLES.keys()  # fed2006b still holds the packing
    plans.clear()
    gc.collect()
    assert not keys & structure._TABLES.keys()
    assert all(ref() is None for ref in freed)


@pytest.mark.parametrize("m", [11, 12])
def test_no_column_tables_above_the_budget(m, monkeypatch):
    # every matrix at m = 11 and 12 would need 4-column tables above
    # _TABLE_BYTES (2 MiB at m = 11), so no kernel builds any: single
    # vectors and pairs run the plane kernel's AND of bytes, and a plane
    # kernel built at the default budget gives Four Russians' outputs
    # without tables
    built = []
    monkeypatch.setattr(structure, "column_tables", lambda *args: built.append(args))
    ctx = default_field(m)
    vecs = _path_vectors(m, 1)[:2]
    oracle = naive_dft_batch(vecs, ctx)
    rng = np.random.default_rng(m)
    for tag in ALL_TAGS:
        plan = build(tag, ctx)
        assert apply(plan, vecs[0]) == oracle[0] and apply_batch(plan, vecs) == oracle, tag
        matrix = matrix_of(plan)
        x = rng.integers(0, 1 << m, size=(matrix.stored[1], 2), dtype=np.uint16)
        planes = alg.plane_kernel(matrix, m, alg._TABLE_BYTES, alg._GATHER)
        assert np.array_equal(planes(x), alg._binary_kernel(matrix)(x)), tag
    assert built == []


@pytest.mark.parametrize("m", range(2, 13))
def test_plane_fold_follows_the_table_budget(m):
    # the fold rule as it stands, so that a change of _TABLE_BYTES shows
    # here: after one apply per tag, the binary stage holds 4-column tables
    # at m <= 10 and none at m = 11 and 12, where it ANDs bytes; at m = 10
    # each plan's tables take 425,024 bytes, and the six plans hold four
    # sets, tf2003, fed2006a and fed2006b sharing one; batches of 1 to 3
    # give the oracle's outputs
    ctx = default_field(m)
    vecs = _path_vectors(m, 1)[:3]
    oracle = naive_dft_batch(vecs, ctx)
    plans, keys = {}, set()
    for tag in ALL_TAGS:
        plans[tag] = plan = build(tag, ctx)
        assert apply(plan, vecs[0]) == oracle[0], tag
        assert _tables_held(matrix_of(plan)) == ({4} if m <= 10 else set()), tag
        mine = {(id(packed), 4) for packed in _packings(plan)} & structure._TABLES.keys()
        if m == 10:
            assert sum(structure._TABLES[key].nbytes for key in mine) == 425_024, tag
        keys |= mine
        for size in (1, 2, 3):
            assert apply_batch(plan, vecs[:size]) == oracle[:size], (tag, size)
    if m == 10:
        assert sum(structure._TABLES[key].nbytes for key in keys) == 4 * 425_024


def test_no_column_tables_for_one_vector_at_m16(monkeypatch):
    # the parts of an m = 16 binary stage as the size rule stores them, on
    # zero packings that take no memory: the stage's kernels, the plane
    # kernel built as it is, build no tables, and one vector (16 planes of
    # 65535 rows) runs Four Russians
    n = (1 << 16) - 1
    partition = alg.cyclotomic_cosets(n)
    sizes = np.array(partition.sizes())
    parts, classes = [], alg._periodic_parts(n, partition)
    for rows, cosets in classes:
        cols = int(sizes[cosets].sum())
        parts.append(structure.Part(np.broadcast_to(np.uint8(0), (-(-cols // 8), rows)), cols))
    matrix = BinaryMatrix(parts, (None, structure.stored_columns(sizes, [cosets for _, cosets in classes])))
    ran = []
    monkeypatch.setattr(structure, "column_tables", lambda *args: ran.append("tables"))
    monkeypatch.setattr(alg, "plane_kernel", _recording(alg.plane_kernel, "planes", ran))
    monkeypatch.setattr(alg, "_binary_kernel", lambda *args: lambda x: ran.append("four_russians"))
    alg._binary_stage_kernel(matrix, 16, None, None)(np.zeros((matrix.stored[1], 1), dtype=np.uint16))
    assert ran == ["four_russians"]


def test_fresh_m10_plans_shared_across_threads():
    # four threads switching often run single vectors through the six plans
    # of a fresh m = 10 field, whose kernels and column tables are not
    # built yet: every output is the oracle's
    ctx = default_field(10)
    vecs = _path_vectors(10, 2)
    oracle = naive_dft_batch(vecs, ctx)
    plans = [build(tag, ctx) for tag in ALL_TAGS]
    workers = 4
    barrier = threading.Barrier(workers)
    results = {}

    def work(k):
        barrier.wait(timeout=30)
        order = plans if k % 2 else plans[::-1]
        results[k] = {plan.tag: [apply(plan, f) for f in vecs] for plan in order}

    threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {k: dict.fromkeys(ALL_TAGS, oracle) for k in range(workers)}


# m = 2..12 on the default polynomials, and the three others of the goldens
_SPLIT_FIELDS = [(m, None) for m in range(2, 13)] + [(m, poly) for m, poly in GOLDEN_FIELDS if poly is not None]


@pytest.mark.parametrize("m, poly", _SPLIT_FIELDS)
def test_periodic_parts_match_the_dense_stage(m, poly, monkeypatch):
    # the size rule forced both ways, each on a fresh field object so that
    # every tag builds from its own family: no class split (one dense part)
    # and every class whose period is below n split.  Both give the
    # oracle's outputs on batches 1, 2 and 3 (planes, padded lanes) and 17
    # and 33 (Four Russians, unpadded), the same tallies on both counted
    # kernels, and the same bits and materialize, byte for byte
    rng = random.Random(f"parts:{m}:{poly}")
    plans = {}
    for split_bits in (1 << 62, -1):
        monkeypatch.setattr(alg, "_SPLIT_BITS", split_bits)
        ctx = build_field(FieldSpec(m, poly))
        plans[split_bits] = {tag: build(tag, ctx) for tag in ALL_TAGS}
    dense, split = plans[1 << 62], plans[-1]
    vecs = [[rng.randrange(ctx.n + 1) for _ in range(ctx.n)] for _ in range(33)]
    oracle = naive_dft_batch(vecs, ctx)
    periods = {ctx.n // gcd(c.leader, ctx.n) for c in alg.cyclotomic_cosets(ctx.n).cosets}
    for tag in ALL_TAGS:
        assert len(matrix_of(dense[tag]).parts) == 1, tag
        matrix = matrix_of(split[tag])
        assert sorted(p.cols if matrix.transposed else p.rows for p in matrix.parts) == sorted(periods), tag
        for plan in (dense[tag], split[tag]):
            for size in (1, 2, 3, 17, 33):
                assert apply_batch(plan, vecs[:size]) == oracle[:size], (tag, size)
        for f, want in zip(vecs[:2], oracle):
            for fr in (False, True):
                got, ref = TransformTally.fresh(), TransformTally.fresh()
                assert apply(split[tag], f, got, fr) == apply(dense[tag], f, ref, fr) == want, (tag, fr)
                assert got == ref, (tag, fr)
        a, b = matrix_of(split[tag]), matrix_of(dense[tag])
        for transpose in (False, True):
            x, y = a.bits(transpose), b.bits(transpose)
            assert x.dtype == y.dtype and np.array_equal(x, y), (tag, transpose)
        x, y = materialize(split[tag]), materialize(dense[tag])
        assert x.dtype == y.dtype and np.array_equal(x, y), tag


# the classes below the full period that the default rule splits, per m
_SPLIT_CLASSES = {10: 1, 12: 9, 14: 5, 15: 5, 16: 13}


@pytest.mark.parametrize("m", range(2, 17))
def test_periodic_parts_follow_the_size_rule_from_the_definition(m):
    # at the default _SPLIT_BITS, against a coding from the definition: the
    # class of i in Z_n is gcd(i, n), and its columns are the number of such
    # i; a class of g > 1 splits when its columns times n - n / g exceed
    # _SPLIT_BITS.  The cosets of the classes kept whole come first, at
    # period n, then each split class at period n / g, by increasing g
    n = (1 << m) - 1
    partition = alg.cyclotomic_cosets(n)
    columns = Counter(gcd(i, n) for i in range(n))
    splits = sorted(g for g, c in columns.items() if g > 1 and c * (n - n // g) > alg._SPLIT_BITS)
    classes = [gcd(coset.leader, n) for coset in partition.cosets]
    want = [(n, [k for k, g in enumerate(classes) if g not in splits])]
    want += [(n // g, [k for k, c in enumerate(classes) if c == g]) for g in splits]
    assert [(p, list(ks)) for p, ks in alg._periodic_parts(n, partition)] == want
    assert len(splits) == _SPLIT_CLASSES.get(m, 0)
    assert m != 10 or splits == [3]  # the multiples of 3, period 341


def test_periodic_parts_hold_at_most_six_tenths_of_the_dense_bytes():
    # m = 12: the size rule splits the large classes, so each of the six
    # plans stores at most 0.6 of the dense packing's ceil(n / 8) n bytes
    ctx = default_field(12)
    dense = -(-ctx.n // 8) * ctx.n
    for tag in ALL_TAGS:
        stored = sum(packed.nbytes for packed in _packings(build(tag, ctx)))
        assert stored <= 0.6 * dense, (tag, stored / dense)


def _recording(builder, name, ran):
    """builder, with each kernel it builds noting (name, batch) in ran when
    run."""

    def build_recorded(*args):
        kernel = builder(*args)
        return lambda x: ran.append((name, x.shape[1])) or kernel(x)

    return build_recorded


@pytest.mark.parametrize("m, most", [(8, 4), (10, 3), (11, 2), (12, 2), (13, 2), (14, 1)])
def test_binary_stage_kernel_follows_the_plane_rule(m, most, monkeypatch):
    # a call of up to `most` vectors runs bit planes, one more runs Four
    # Russians: at m <= 13 the 32-plane bound decides (at m = 8, rs255's
    # field, 32 planes against 40), at m = 14 the accumulator bound.  The
    # plane kernel folds on the matrix's 4-column tables where they fit in
    # _TABLE_BYTES (m <= 10), and ANDs bytes where they would not (m = 11
    # and above), so the tables kept for the plan's packings say which fold
    # ran; all give the same outputs
    ran = []
    monkeypatch.setattr(alg, "plane_kernel", _recording(alg.plane_kernel, "planes", ran))
    monkeypatch.setattr(alg, "_binary_kernel", _recording(alg._binary_kernel, "four_russians", ran))
    ctx = default_field(m)
    plan = build("tf2003", ctx)
    vecs = _path_vectors(m, most + 1)[: most + 1]
    expected = [("planes", 1)]
    apply(plan, vecs[0])
    outs = {}
    for size in (most, most + 1) + ((32,) if m == 10 else ()):
        outs[size] = apply_batch(plan, (vecs * 32)[:size])
        expected.append(("planes" if size <= most else "four_russians", size))
    assert ran == expected
    assert _tables_held(matrix_of(plan)) == ({4} if m <= 10 else set())
    assert outs[most + 1][:most] == outs[most]
    if m == 10:
        assert outs[32] == naive_dft_batch((vecs * 32)[:32], ctx)


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
            apply(plan, f, TransformTally.fresh(), four_russians=True)
            apply(plan, f)
        apply_batch(plan, vecs)
        apply_batch(plan, vecs[:2])
    assert builds == {"_batch_stages": list(ALL_TAGS), "_plan_counts": list(ALL_TAGS)}


def test_counts_reuse_the_built_plan(monkeypatch):
    # a plan's counts read each coset's basis off its block stage: once the
    # six plans are built, counting them looks up no normal basis again
    ctx = default_field(6)
    plans = [build(tag, ctx) for tag in ALL_TAGS]
    calls = []
    real = alg.find_normal_basis
    monkeypatch.setattr(alg, "find_normal_basis", lambda *args: calls.append(args) or real(*args))
    for plan in plans:
        apply(plan, [1] * ctx.n, TransformTally.fresh())
        alg.stage2_naive_adds(plan)
        alg.structural_stage1_counts(plan)
    assert calls == []
    build("fed2006b", ctx)  # warm: tf2003's bases come with the live tf2003
    assert calls == []
    build("fed2006b", default_field(6))  # cold, on a fresh field object
    assert calls  # the patch sees a build's lookups


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
        # stages are read-only, and a copy's stages are built through __init__ again
        for plan in (used, copied, copy.deepcopy(used)):
            assert not any(packed.flags.writeable for packed in _packings(plan)), tag
            assert not plan.stage(BlockStage).entries.flags.writeable, tag
        with pytest.raises(ValueError, match="read-only"):
            used.stage(BlockStage).entries[0, 0, 0] = 2


def _batch_sizes(k):
    """Thread k's apply_batch sizes: 40 and 136 planes and more at m = 8,
    so Four Russians and the block stage's batch grid, each thread's own,
    growing in odd threads and shrinking in even ones."""
    sizes = (5 + k, 17 + k)
    return sizes if k % 2 else sizes[::-1]


def test_fresh_plan_shared_across_threads():
    # several threads switching often, all on plans whose kernels are not
    # built yet: each must get the oracle's output, from single vectors
    # and from batches of its own sizes, so that the threads' scratch
    # buffers grow while the others run
    ctx = default_field(8)
    vecs = _path_vectors(8, 3)
    oracle = [naive_dft(f, ctx) for f in vecs]
    batch = _path_vectors(8, 20)[:20]
    batch_oracle = naive_dft_batch(batch, ctx)
    plans = [build(tag, ctx) for tag in ALL_TAGS]
    workers = 4
    barrier = threading.Barrier(workers)
    results = {}

    def work(k):
        barrier.wait(timeout=30)
        results[k] = [
            ([apply(plan, f) for f in vecs], [apply_batch(plan, batch[:size]) for size in _batch_sizes(k)])
            for plan in plans
        ]

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
    for k in range(workers):
        want = (oracle, [batch_oracle[:size] for size in _batch_sizes(k)])
        assert results[k] == [want] * len(plans), k


def test_kernel_results_do_not_alias_the_scratch():
    # the kernels share their thread's scratch, but each returns an array
    # of its own: a result stays as it was through later calls of every
    # kernel on other inputs, for the block kernel, the plane kernel's two
    # folds (the AND of bytes forced with no table budget, and the column
    # tables) and Four Russians, goertzel's transposed R included, and a
    # plan's outputs for the first input are still the oracle's after a
    # second call
    ctx = default_field(8)
    rng = np.random.default_rng(37)
    vecs = _path_vectors(8, 17)
    oracle = naive_dft_batch(vecs, ctx)
    for tag in ("goertzel", "blahut2008"):
        plan = build(tag, ctx)
        matrix = matrix_of(plan)
        kernels = [
            alg._block_kernel(ctx, plan.stage(BlockStage), None, None),
            alg.plane_kernel(matrix, ctx.m, 0, alg._GATHER),
            alg._binary_kernel(matrix),
            alg.plane_kernel(matrix, ctx.m, alg._TABLE_BYTES, alg._GATHER),
        ]
        for size in (1, 5, 17):
            a, a_binary = (
                rng.integers(0, ctx.n + 1, size=(rows, size), dtype=np.uint16) for rows in (ctx.n, matrix.stored[1])
            )
            firsts = [(kernel, x, kernel(x)) for kernel, x in zip(kernels, (a, a_binary, a_binary, a_binary))]
            wants = [y.copy() for _, _, y in firsts]
            for kernel, a, _ in firsts:
                kernel(rng.integers(0, ctx.n + 1, size=a.shape, dtype=np.uint16))
            for (kernel, a, y), want in zip(firsts, wants):
                assert np.array_equal(y, want) and np.array_equal(kernel(a), want), (tag, size)
            for want in wants[2:]:  # the AND, Four Russians and the tables agree
                assert np.array_equal(wants[1], want), (tag, size)
            first = alg._run_kernels(plan, alg.validate_vectors(ctx, vecs[:size]))
            alg._run_kernels(plan, alg.validate_vectors(ctx, vecs[-size:][::-1]))
            assert first.T.tolist() == oracle[:size], (tag, size)


_STEADY_FAULTS = """
import json, resource
from gfft import algorithms as alg
from gfft.field import default_field
ctx = default_field({m})
rows = alg.validate_vectors(ctx, [[(7 * i + j) % (ctx.n + 1) for i in range(ctx.n)] for j in range({batch})])
faults = {{}}
for tag in alg.ALL_TAGS:
    plan = alg.build(tag, ctx)
    alg._run_kernels(plan, rows)
    per_call = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        alg._run_kernels(plan, rows)
        per_call.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    faults[tag] = sorted(per_call)[2]
print(json.dumps(faults))
"""


def _steady_faults(m, batch, mmap_threshold):
    """Per tag, the median minor faults of five _run_kernels calls of batch
    vectors at m, after a first call, in a fresh process.  Its path holds
    each directory once: the fault counts move with the heap's layout, and
    a second copy of src on the path hid 160 faults a call of the earlier
    plane kernel at m = 10 under the pinned threshold."""
    path = [Path(alg.__file__).parents[1], *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(dict.fromkeys(str(Path(p).resolve()) for p in path if p))}
    if mmap_threshold:
        env["MALLOC_MMAP_THRESHOLD_"] = mmap_threshold
    script = _STEADY_FAULTS.format(m=m, batch=batch)
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300, check=True)
    faults = json.loads(child.stdout)
    assert sorted(faults) == sorted(ALL_TAGS)
    return faults


@pytest.mark.parametrize("mmap_threshold", [None, "131072"])
def test_steady_batch_calls_take_no_fresh_pages(mmap_threshold):
    # 32 vectors at m = 11 through each plan, in a fresh process: after one
    # call has grown the thread's scratch, the median of five calls takes at
    # most a handful of minor faults.  glibc maps an allocation above its
    # mmap threshold afresh on each call, and raises the threshold on its
    # own after some frees; pinned at its 128 KiB default, kernels that
    # allocated their temporaries per call took 1700-2500 faults a call,
    # and 0-320 with the threshold free
    pytest.importorskip("resource")
    faults = _steady_faults(11, 32, mmap_threshold)
    assert max(faults.values()) <= 5, faults


@pytest.mark.parametrize("mmap_threshold", [None, "131072"])
def test_steady_single_calls_take_no_fresh_pages(mmap_threshold):
    # one vector at m = 10 and at m = 11 likewise: the plane kernel's
    # temporaries live in the thread's scratch, at m = 10 the column tables'
    # looked-up rows (about 470 KB a call for tf2003, taken 256 KiB at a
    # time), at m = 11 the AND of bytes' chunks (about 360 KB each) and its
    # parity lookup's widened index.  Allocated per call, the AND's took 160
    # faults a call at m = 10 and 1408 at m = 11 with the threshold pinned
    pytest.importorskip("resource")
    for m in (10, 11):
        faults = _steady_faults(m, 1, mmap_threshold)
        assert max(faults.values()) <= 5, (m, faults)


def test_twin_builds_across_threads():
    # several threads switching often, each building the six plans on one
    # shared field object, half in reverse order, so that builds derive from
    # twins other threads built: every plan equals the plan built alone
    ctx = default_field(6)
    alone = {tag: build(tag, default_field(6)) for tag in ALL_TAGS}
    workers = 4
    barrier = threading.Barrier(workers)
    results = {}

    def work(k):
        barrier.wait(timeout=30)
        results[k] = [build(tag, ctx) for _ in range(5) for tag in (ALL_TAGS if k % 2 else ALL_TAGS[::-1])]

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
    assert sorted(results) == list(range(workers))
    assert all(plan == alone[plan.tag] for plans in results.values() for plan in plans)


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
        5,  # not a sequence
        None,
        np.zeros(7, dtype=bool),  # struct takes Python bools, not numpy's
        np.array([9, 0, 0, 0, 0, 0, 0]),
    ],
)
def test_batch_rejects_bad_input(ctx3, bad):
    # bad as vector 0 of a batch, and bad passed as the batch itself: a flat
    # list of ints or a 1-D ndarray, whose vector 0 is one element, or an
    # int or None, which is no batch at all
    for batch in ([bad, [0] * 7], bad):
        for tag in ALL_TAGS:
            with pytest.raises(ValueError, match="vector 0"):
                apply_batch(build(tag, ctx3), batch)
        with pytest.raises(ValueError, match="vector 0"):
            naive_dft_batch(batch, ctx3)


def test_normal_basis_must_be_conjugate_sequence(ctx3, monkeypatch):
    b0, b1, b2 = find_normal_basis(ctx3, 3)
    monkeypatch.setattr(alg, "find_normal_basis", lambda ctx, d: (b0, b2, b1))
    for tag in _NORMAL:
        # a fresh field object, so no live tf2003 or fed2006a lends its bases
        with pytest.raises(ArithmeticError, match="conjugate"):
            build(tag, default_field(3))


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
    # both flags, every other pair reads as before.  The broken stage is
    # built from the rows A shows, which are not the stored ones
    plan = build_fed2006(default_field(4), "a")
    a = matrix_of(plan)
    r, c = 6, 2  # second row of coset {3, 6, 12, 9}, a column of coset {1, 2, 4, 8}
    rows = a.rows
    rows[r] ^= 1 << c
    broken = dataclasses.replace(plan, stages=(plan.stages[0], BinaryMatrix.from_rows(rows, a.cols)))
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
    # only, so they stay a check on the code under test: with every kernel
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
    monkeypatch.setattr(alg, "plane_kernel", _no_kernel)
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


@pytest.mark.parametrize(
    "m, poly", GOLDEN_FIELDS, ids=[f"{m}" if p is None else f"{m}-{p:#x}" for m, p in GOLDEN_FIELDS]
)
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_structural_counts_match_built_plans(m, poly, tag):
    # the naive stage-2 count, coded per coset from the field, against the
    # built matrix's rows: popcount - 1 additions for each row with a one
    ctx = build_field(FieldSpec(m, poly))
    plan = build(tag, ctx)
    dense = int(np.maximum(matrix_of(plan).bits().sum(axis=1, dtype=np.int64) - 1, 0).sum())
    tally = TransformTally.fresh()
    apply(plan, [int(j == 1) for j in range(ctx.n)], tally)
    s1m, s1a, s2n = structural_counts_for_tag(ctx, tag)
    assert (s1m, s1a) == structural_stage1_counts(plan)
    assert s2n == stage2_naive_adds(plan) == tally.stage2.adds == dense
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
    assert tally.stage2.adds == matrix_of(plan).bits().sum(axis=1).sum() - 7


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
