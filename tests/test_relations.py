"""The paper's relations, executable: one GF(2) basis change per coset links
every tag's two stages to tf2003's.

Coset k of leader s and size d takes positions c0..c0 + d - 1 of every
plan's coset order.  A plan's binary stage A, its rows read in natural
output order (goertzel's R transposed back, its rows in natural input
order), holds in those columns the coordinates of a^(i rep) in the coset's
basis B, rep = s 2^r, and its block D_k has entry (t, j) = B_t^(2^j).
Against tf2003's normal basis N at rep s, let M_k be the d x d GF(2) matrix
whose row t holds the coordinates of N_t^(2^r) in B.  Then

    A_tag[:, k] = A_tf2003[:, k] M_k       (a^(i rep) = (a^(i s))^(2^r))
    M_k D_tag,k = D_tf2003,k               (B_u^(2^j) summed is N_t^(2^(r + j)))

with D_tf2003,k's columns taken in the tag's input order for the coset,
which starts at rep.  M_k is derived from the bases alone, never from the
matrices: each family's basis is algorithms._bases_for_tag, and fed2006b's
turn and coset start are coded from the definition by the tests' _layouts.
M_k is the identity for fed2006a and a rotation for fed2006b.  Each tag is
built on a fresh field object, so that no plan lends another its core.
"""

import numpy as np
import pytest

from gfft.algorithms import ALL_TAGS, BlockStage, build
from gfft.field import FieldSpec, build_field
from gfft.structure import BinaryMatrix, coordinate_tables

from test_algorithms import _NORMAL, _layouts
from test_golden import FIELDS

REFERENCE = "tf2003"


def _coset_view(plan):
    """(A^T, D, at) of a plan in the relation's terms: A^T the binary stage
    transposed, rows in coset order, its bits packed 8 to a byte along the
    natural output order; D the (l, w, w) block entries, block k's entry
    (t, j) multiplying position c0 + j into the binary stage's column
    c0 + t; at[c] the exponent of the input (goertzel: output) at coset
    position c."""
    matrix, d = plan.stage(BinaryMatrix), plan.stage(BlockStage)
    if isinstance(plan.stages[0], BinaryMatrix):  # goertzel: R, then D^T
        at, outputs, a_t, entries = plan.out_perm, plan.in_perm, matrix.bits(), d.entries.swapaxes(1, 2)
    else:
        at, outputs, a_t, entries = plan.in_perm, plan.out_perm, matrix.bits(transpose=True), d.entries
    if outputs != tuple(range(len(outputs))):  # the slowest step here, so only when needed
        a_t = a_t[:, np.argsort(outputs)]
    return np.packbits(a_t, axis=1), entries, at


def _basis_changes(ctx, partition, tag):
    """(l, w, w) uint8: M_k zero-padded to the widest coset, row t the
    coordinates of N_t^(2^r) in the tag's basis of coset k, r the doubling
    from the leader to the tag's representative."""
    layouts, normal = _layouts(ctx, partition, tag), _layouts(ctx, partition, REFERENCE)
    bases = sorted({basis for _, basis in layouts})
    tables = coordinate_tables(bases)
    w = max(partition.sizes())
    changes = np.zeros((len(layouts), w, w), dtype=np.uint8)
    for k, (coset, (rep, basis), (_, nb)) in enumerate(zip(partition.cosets, layouts, normal)):
        r = coset.elements.index(rep)
        x = np.array([ctx.exp[(ctx.log[b] << r) % ctx.n] for b in nb])  # N_t^(2^r)
        table = tables[bases.index(basis)]
        coords = table[0, x & 255] ^ table[1, x >> 8]
        assert not (coords >> 16).any(), (tag, k)  # in the span of the tag's basis
        changes[k, : coset.size, : coset.size] = (coords[:, None] >> np.arange(coset.size)) & 1
    return changes


def _relations_hold(m, poly, tag, reference):
    """Both relations for every coset of tag's plan on a fresh field, against
    the reference view of tf2003's plan (on a field of its own)."""
    ctx = build_field(FieldSpec(m, poly))
    plan = build(tag, ctx)
    partition, (a, d, at) = plan.partition, _coset_view(plan)
    a_ref, d_ref, at_ref = reference
    changes = _basis_changes(ctx, partition, tag)
    sizes = np.array(partition.sizes())
    starts = np.cumsum(sizes) - sizes
    if tag in _NORMAL:  # M_k is the identity, or for fed2006b a rotation
        for k, size in enumerate(sizes.tolist()):
            turn = int(np.argmax(changes[k, 0]))
            assert np.array_equal(changes[k, :size, :size], np.roll(np.eye(size, dtype=np.uint8), turn, axis=1))
            assert turn == 0 or tag == "fed2006b", (tag, k)
    for size in set(sizes.tolist()):
        ks = np.flatnonzero(sizes == size)
        cols = starts[ks, None] + np.arange(size)  # (cosets, d)
        x, change = a_ref[cols], changes[ks, :size, :size]
        want = np.zeros_like(x)
        for t in range(size):  # over GF(2): column u XORs the reference's column t where M_k[t, u] = 1
            want ^= x[:, t, None] * change[:, t, :, None]
        assert np.array_equal(a[cols], want), (m, poly, tag, size)
    # M_k D_tag,k over GF(2^m), each row an XOR of D's rows; D_tf2003,k's
    # column j taken where the tag's coset position c0 + j sits in tf2003
    w = d.shape[1]
    product = np.zeros_like(d)
    for u in range(w):
        product ^= changes[:, :, u, None] * d[:, None, u]
    position = np.argsort(at_ref)[np.array(at)]  # tf2003's position of each of the tag's
    pos, _ = plan.stage(BlockStage).grid()  # c0 + j, 0 past the block's size
    cols = np.where(np.arange(w) < sizes[:, None], position[pos] - starts[:, None], np.arange(w))
    assert np.array_equal(product, np.take_along_axis(d_ref, cols[:, None, :], axis=2)), (m, poly, tag)


@pytest.mark.parametrize("m, poly", FIELDS)
def test_every_tag_is_tf2003_up_to_one_basis_change_per_coset(m, poly):
    reference = _coset_view(build(REFERENCE, build_field(FieldSpec(m, poly))))
    for tag in ALL_TAGS:
        _relations_hold(m, poly, tag, reference)
