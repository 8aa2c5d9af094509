"""Plan contents and bench output, pinned byte for byte.

plan_digests.json holds one sha256 per (field, algorithm) over everything a
plan is made of; bench_m2_16.csv holds `gfft bench --m 2..16 --format csv`
over the four factored algorithms.  Both were written by the code before
binary matrices were stored packed, so they pin a change of storage to the
plans and counts it replaced.  bench_m2_14_unfactored.csv holds the goertzel
and blahut2008 rows, which bench gained later; bench_m15_16_unfactored.csv
holds them at m = 15..16, written by the code that mapped all n points
through each distinct basis, before the naive count was coded per coset;
and bench_m2_8.txt the text table of `gfft bench --m 2..8`.  A change that
sets out to move a plan or a count rewrites them with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
from pathlib import Path

from gfft import cli
from gfft.algorithms import ALL_TAGS, build
from gfft.field import FieldSpec, build_field
from gfft.structure import BinaryMatrix

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGESTS = GOLDEN_DIR / "plan_digests.json"
BENCH_CSV = GOLDEN_DIR / "bench_m2_16.csv"
BENCH_ARGV = ["bench", "--m", "2..16", "--algo", "ft2002,tf2003,fed2006a,fed2006b", "--format", "csv"]
UNFACTORED_CSV = GOLDEN_DIR / "bench_m2_14_unfactored.csv"
UNFACTORED_ARGV = ["bench", "--m", "2..14", "--algo", "goertzel,blahut2008", "--format", "csv"]
UNFACTORED_LARGE_CSV = GOLDEN_DIR / "bench_m15_16_unfactored.csv"
UNFACTORED_LARGE_ARGV = ["bench", "--m", "15..16", "--algo", "goertzel,blahut2008", "--format", "csv"]
BENCH_TEXT = GOLDEN_DIR / "bench_m2_8.txt"
BENCH_TEXT_ARGV = ["bench", "--m", "2..8"]

# m = 2..12 over the default polynomials, plus one non-default polynomial
# each at m = 5, 6 and 8.
FIELDS = [(m, None) for m in range(2, 13)] + [(5, 0b111101), (6, 0b1100111), (8, 0b101100011)]


def plan_digest(plan) -> str:
    """sha256 over the tag, both permutations, the partition, every block's
    kind and entries, and every binary matrix's cols and rows."""
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode() + b"\n")

    put(plan.tag, plan.in_perm, plan.out_perm)
    put([(c.leader, c.elements) for c in plan.partition.cosets])
    for stage in plan.stages:
        if isinstance(stage, BinaryMatrix):
            put("binary", stage.cols, [format(r, "x") for r in stage.rows])
            continue
        # each block as its kind and first row, or as all of its rows, named
        # after the two block classes the digests were written with
        for k in range(len(stage.sizes)):
            rows = stage.rows(k)
            if stage.circulant(k):
                put("CirculantBlock", rows[0])
            else:
                put("DenseBlock", rows)
    return h.hexdigest()


def plan_digests() -> dict[str, str]:
    out = {}
    for m, poly in FIELDS:
        ctx = build_field(FieldSpec(m, poly))
        for tag in ALL_TAGS:
            out[f"m={m} poly={poly if poly is None else hex(poly)} {tag}"] = plan_digest(build(tag, ctx))
    return out


def bench_output(argv=BENCH_ARGV) -> str:
    buf = io.StringIO()
    if cli.main(argv, out=buf) != 0:
        raise RuntimeError(f"gfft {' '.join(argv)} failed")
    return buf.getvalue()


def test_plans_and_bench_match_goldens():
    golden = json.loads(DIGESTS.read_text())
    digests = plan_digests()
    assert len(digests) == len(golden) == 84
    assert [k for k in golden if digests.get(k) != golden[k]] == []
    assert bench_output() == BENCH_CSV.read_text()


def test_unfactored_bench_matches_golden():
    assert bench_output(UNFACTORED_ARGV) == UNFACTORED_CSV.read_text()


def test_unfactored_bench_at_m15_16_matches_golden():
    assert bench_output(UNFACTORED_LARGE_ARGV) == UNFACTORED_LARGE_CSV.read_text()


def test_bench_text_matches_golden():
    assert bench_output(BENCH_TEXT_ARGV) == BENCH_TEXT.read_text()


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(plan_digests(), indent=1) + "\n")
    BENCH_CSV.write_text(bench_output())
    UNFACTORED_CSV.write_text(bench_output(UNFACTORED_ARGV))
    UNFACTORED_LARGE_CSV.write_text(bench_output(UNFACTORED_LARGE_ARGV))
    BENCH_TEXT.write_text(bench_output(BENCH_TEXT_ARGV))
