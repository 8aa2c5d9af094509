"""Binary matrix times GF(2^m)-element vector, with exact addition counts.

Two kernels: the naive row fold (popcount-1 additions per row) and the Method
of Four Russians, which precomputes subset sums over column groups of width t
and cuts the per-row cost to one XOR per group.  Both return identical
vectors; only the addition tally differs.  They are the reference binary
kernels: reference.counted_apply runs them, while algorithms.apply runs
one of two numpy kernels on the packed matrix (bit-plane parities for a
call of a few vectors, Four Russians on its bytes above that) and takes the
same counts without the matrix: the naive one per coset from the field
(algorithms._naive_adds), the Four-Russians one from predicted_adds.  The
reference kernels walk the matrix's int rows, which BinaryMatrix derives
from its packed bytes once per call.

Four Russians groups t = floor(log2 cols) columns (default_block_size), the
one width gfft counts at.  Its tally is deliberately data-independent: every
group is costed at the width t (the last group is padded with zero columns),
and every row folds all ceil(cols/t) table lookups.  That makes the measured
count equal the closed form G*(2^t - t - 1) + rows*(G - 1) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import OpCount
from .structure import BinaryMatrix


def default_block_size(cols: int) -> int:
    """Column-group width floor(log2 cols), clamped to at least 1."""
    if cols < 1:
        raise ValueError(f"cols must be positive, got {cols}")
    return max(1, cols.bit_length() - 1)


@dataclass(frozen=True)
class FourRussiansPlan:
    """Column grouping for the subset-sum kernel: G groups of width
    t = default_block_size(cols)."""

    cols: int

    def __post_init__(self):
        if self.cols < 1:
            raise ValueError(f"cols must be positive, got {self.cols}")

    @property
    def t(self) -> int:
        return default_block_size(self.cols)

    @property
    def groups(self) -> int:
        return -(-self.cols // self.t)

    @property
    def table_size(self) -> int:
        return 1 << self.t

    def predicted_adds(self, rows: int) -> int:
        """Closed-form addition count for a rows x cols multiply."""
        g = self.groups
        return g * (self.table_size - self.t - 1) + rows * (g - 1)


def make_plan(cols: int) -> FourRussiansPlan:
    return FourRussiansPlan(cols)


def binmatvec_naive(A: BinaryMatrix, v: list[int], oc: OpCount | None = None) -> list[int]:
    """y_i = XOR of v_j over the set bits of row i; popcount-1 adds per row."""
    if A.cols != len(v):
        raise ValueError(f"shape mismatch: {A.cols} columns vs {len(v)} entries")
    out = []
    for row in A.rows:
        acc = 0
        terms = 0
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            acc ^= v[j]
            terms += 1
            r &= r - 1
        if oc is not None and terms > 1:
            oc.adds += terms - 1
        out.append(acc)
    return out


def binmatvec_four_russians(A: BinaryMatrix, v: list[int], oc: OpCount | None = None) -> list[int]:
    """Four-Russians multiply; exact match with binmatvec_naive."""
    if A.cols != len(v):
        raise ValueError(f"shape mismatch: {A.cols} columns vs {len(v)} entries")
    plan = make_plan(A.cols)
    t = plan.t
    size = plan.table_size
    g = plan.groups

    # Subset-sum tables: table[mask] = XOR of v over the mask's columns.
    # Each new mask extends a smaller one by a single column, so a full-width
    # group costs 2^t - t - 1 additions (single-bit masks are copies).
    tables = []
    adds = 0
    for gi in range(g):
        base = gi * t
        elems = [v[base + k] if base + k < A.cols else 0 for k in range(t)]
        table = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            rest = mask ^ low
            table[mask] = table[rest] ^ elems[low.bit_length() - 1]
            if rest:
                adds += 1
        tables.append(table)

    group_mask = size - 1
    out = []
    for row in A.rows:
        acc = tables[0][row & group_mask]
        r = row >> t
        for gi in range(1, g):
            acc ^= tables[gi][r & group_mask]
            r >>= t
        adds += g - 1
        out.append(acc)

    if oc is not None:
        oc.adds += adds
    return out
