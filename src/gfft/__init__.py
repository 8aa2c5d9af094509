"""Semifast Fourier transforms over GF(2^m) with exact operation counting."""

from .field import FieldContext, FieldSpec, OpCount, PRIMITIVE_POLYS, build_field, default_field
from .structure import (
    BinaryMatrix,
    Coset,
    CosetPartition,
    LinearSolver,
    cyclotomic_cosets,
    find_normal_basis,
    minimal_polynomial,
)
from .reference import (
    counted_apply,
    dense_matvec,
    naive_dft,
    naive_dft_batch,
    poly_eval,
    transform_matrix,
    unit_response,
)
from .binmat import (
    binmatvec_four_russians,
    binmatvec_naive,
    default_block_size,
    make_plan,
)
from .algorithms import (
    ALL_TAGS,
    FACTORED_TAGS,
    BlockStage,
    Plan,
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
    stage1_bound,
    stage2_naive_adds,
    structural_counts_for_tag,
    structural_stage1_counts,
)

__version__ = "0.1.0"
