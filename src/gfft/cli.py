"""Command-line front door: verify, bench, and factor subcommands.

verify  -- oracle-equivalence and factorization-identity suites, PASS/FAIL table
           (or one JSON object); each failing suite names its first mismatch
           on stderr
bench   -- exact operation counts per algorithm against the n*log2(n+1)
           multiplication budget and the 2n^2/log2(n) addition budget
factor  -- print one field's factorization (permutations, binary matrix,
           diagonal blocks) in text or LaTeX

Exit codes: 0 all pass, 1 verification failure, 2 usage error (bad flags, an
m out of range, a bad or non-primitive --poly), 3 internal error (a fault in
gfft itself; the traceback goes to stderr), 141 (128 + SIGPIPE) when the
reader closes standard output early, as `gfft bench | head` does; the
command then stops quietly, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import traceback
from itertools import accumulate, zip_longest

import numpy as np

from . import algorithms as alg
from . import binmat
from .field import PRIMITIVE_POLYS, FieldSpec, build_field
from .reference import naive_dft_batch, transform_matrix, unit_response
from .structure import BinaryMatrix

M_RANGES = {"verify": (2, 12), "bench": (2, 16), "factor": (2, 6)}

# bench's columns as (record key, text header, text format spec); the CSV
# header is the keys
BENCH_COLUMNS = (
    ("algo", "algo", "<10"), ("m", "m", ">2"), ("n", "n", ">6"),
    ("stage1_mults", "s1_mults", ">9"), ("stage1_adds", "s1_adds", ">9"),
    ("stage2_adds_naive", "s2_naive", ">10"), ("stage2_adds_4r", "s2_4r", ">10"),
    ("bound_nlogn", "nlogn", ">8"), ("bound_2n2logn", "2n2/logn", ">10"),
    ("ok_mults", "mults", ">5"), ("ok_adds", "adds", ">5"),
)


class UsageError(Exception):
    pass


def parse_m_range(text: str, command: str) -> list[int]:
    """Either a single degree '3' or an inclusive range '2..8', inside the
    command's M_RANGES entry."""
    ends = text.split("..")
    try:
        lo, hi = int(ends[0]), int(ends[-1])  # a single degree is both ends
        if len(ends) > 2 or lo > hi:
            raise ValueError
    except ValueError:
        raise UsageError(f"bad m range {text!r} (use e.g. '3' or '2..8')") from None
    low, high = M_RANGES[command]
    if lo < low or hi > high:
        raise UsageError(f"m out of {command} range [{low},{high}]")
    return list(range(lo, hi + 1))


def parse_algos(text: str) -> list[str]:
    if text == "all":
        return list(alg.ALL_TAGS)
    tags = [t.strip() for t in text.split(",") if t.strip()]
    for t in tags:
        if t not in alg.ALL_TAGS:
            raise UsageError(f"unknown algorithm {t!r} (choose from {', '.join(alg.ALL_TAGS)})")
    if not tags:
        raise UsageError("empty algorithm list")
    return tags


def resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("GFFT_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise UsageError(f"GFFT_SEED={env!r} is not an integer") from None
    return 1


def parse_inputs(args) -> tuple[list, list[str]]:
    """The fields GF(2^m) for --m, over --poly (a hex bitmask, single m only)
    when it is given, and the --algo tags: the one argument path of all three
    commands, so every usage error in them comes before any output."""
    ms = parse_m_range(args.m, args.command)
    tags = parse_algos(args.algo)
    if args.poly is not None and len(ms) != 1:
        raise UsageError("--poly requires a single m")
    try:
        poly = None if args.poly is None else int(args.poly, 16)
    except ValueError:
        raise UsageError(f"--poly expects a hex bitmask, got {args.poly!r}") from None
    try:
        return [build_field(FieldSpec(m, poly)) for m in ms], tags
    except ValueError as e:  # a bad or non-primitive --poly
        raise UsageError(str(e)) from None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _first_mismatch(m: int, tag: str, suite: str, seed: int, actual, expected) -> dict | None:
    """Where a suite's outputs first differ from the expected ones (a missing
    value reads None), or None when they are equal."""
    for k, (got, want) in enumerate(zip_longest(actual, expected, fillvalue=())):
        if got != want:
            i, a, e = next((i, a, e) for i, (a, e) in enumerate(zip_longest(got, want)) if a != e)
            return {"m": m, "tag": tag, "suite": suite, "vector": k, "seed": seed,
                    "output": i, "expected": e, "actual": a}
    return None


def _matrix_mismatch(m: int, plan, w: np.ndarray) -> dict | None:
    """The first entry where materialize(plan) differs from W or, for
    fed2006a/b, the first coset pair that is not a rotation chain or not
    circulant when square; None when there is none."""
    head = {"m": m, "tag": plan.tag, "suite": "matrix"}
    dense = alg.materialize(plan)
    if not np.array_equal(dense, w):
        i, j = np.argwhere(dense != w)[0].tolist()
        return head | {"row": i, "column": j, "expected": int(w[i, j]), "actual": int(dense[i, j])}
    if plan.tag in (alg.FED2006A, alg.FED2006B):
        chain, circulant = alg.coset_block_report(plan)
        sizes = np.array(plan.partition.sizes())
        broken = np.argwhere(~chain | ((sizes[:, None] == sizes) & ~circulant))
        if len(broken):
            o, i = broken[0].tolist()
            cosets = plan.partition.cosets
            return head | {"out_coset": cosets[o].leader, "in_coset": cosets[i].leader,
                           "rotation_chain": bool(chain[o, i]), "circulant": bool(circulant[o, i])}
    return None


def _verify_one_field(ctx, tags: list[str], trials: int, seed: int, mismatches: list) -> list[dict]:
    """One record per tag; each failing suite's first mismatch goes to
    stderr as one line and onto mismatches.  The matrix suite compares
    materialize with W from transform_matrix."""
    n, m = ctx.n, ctx.m
    rng = random.Random(f"{seed}:{m}")
    vecs = [[rng.randrange(1 << m) for _ in range(n)] for _ in range(trials)]
    oracle = naive_dft_batch(vecs, ctx)

    unit_idx = list(range(n)) if m <= 8 else [0, 1, n - 1]
    unit_vecs = []
    for j in unit_idx:
        v = [0] * n
        v[j] = 1
        unit_vecs.append(v)
    unit_expect = [unit_response(j, ctx) for j in unit_idx]
    w = transform_matrix(ctx)

    records = []
    for tag in tags:
        plan = alg.build(tag, ctx)
        record = {"m": m, "algo": tag}
        found_in = {
            suite: _first_mismatch(m, tag, suite, seed, alg.apply_batch(plan, vectors), expected)
            for suite, vectors, expected in (("random", vecs, oracle), ("unit", unit_vecs, unit_expect))
        }
        found_in["matrix"] = _matrix_mismatch(m, plan, w)
        for suite, found in found_in.items():
            if found:
                print("first mismatch: " + " ".join(f"{k}={v}" for k, v in found.items()), file=sys.stderr)
                mismatches.append(found)
            record[suite] = "FAIL" if found else "PASS"
        record["ok"] = not any(found_in.values())
        records.append(record)
    return records


def cmd_verify(args, out=sys.stdout) -> int:
    ctxs, tags = parse_inputs(args)
    if args.trials < 0:
        raise UsageError("--trials must be non-negative")
    seed = resolve_seed(args.seed)

    text = args.format == "text"
    if text:
        print(f"gfft verify: seed={seed} trials={args.trials} m={args.m} algo={','.join(tags)}", file=out)
        print(f"{'m':>2}  {'algo':<10}  {'random':<6}  {'units':<6}  {'matrix':<6}", file=out)
    records, mismatches = [], []
    for ctx in ctxs:
        for r in _verify_one_field(ctx, tags, args.trials, seed, mismatches):
            records.append(r)
            if text:
                cells = f"{r['random']:<6}  {r['unit']:<6}  {r['matrix']:<6}"
                print(f"{r['m']:>2}  {r['algo']:<10}  {cells}", file=out)
    all_ok = all(r["ok"] for r in records)
    overall = "PASS" if all_ok else "FAIL"
    if text:
        print(f"overall {overall}", file=out)
    else:
        first = mismatches[0] if mismatches else None
        report = {"seed": seed, "trials": args.trials, "records": records,
                  "first_mismatch": first, "overall": overall}
        print(json.dumps(report), file=out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def bench_records(ctxs: list, tags: list[str]):
    records = []
    for ctx in ctxs:
        m, n = ctx.m, ctx.n
        adds_4r = binmat.make_plan(n).predicted_adds(n)
        bound_mults = alg.stage1_bound(ctx)
        bound_adds = 2 * n * n / math.log2(n)
        for tag in tags:
            s1_mults, s1_adds, s2_naive = alg.structural_counts_for_tag(ctx, tag)
            records.append(
                {
                    "algo": tag,
                    "m": m,
                    "n": n,
                    "stage1_mults": s1_mults,
                    "stage1_adds": s1_adds,
                    "stage2_adds_naive": s2_naive,
                    "stage2_adds_4r": adds_4r,
                    "bound_nlogn": bound_mults,
                    "bound_2n2logn": int(bound_adds),
                    "ok_mults": s1_mults <= bound_mults,
                    "ok_adds": adds_4r < bound_adds,
                }
            )
    return records


def emit_bench(records, csv: bool, out):
    """A header line, then one line per record: comma-separated with
    true/false, or the aligned text table with ok/FAIL."""
    if csv:
        columns, sep, yes, no = [(key, key, "") for key, _, _ in BENCH_COLUMNS], ",", "true", "false"
    else:
        columns, sep, yes, no = BENCH_COLUMNS, " ", "ok", "FAIL"

    def cell(value):
        return (yes if value else no) if isinstance(value, bool) else value

    print(sep.join(f"{head:{spec}}" for _, head, spec in columns), file=out)
    for r in records:
        print(sep.join(f"{cell(r[key]):{spec}}" for key, _, spec in columns), file=out)


def cmd_bench(args, out=sys.stdout) -> int:
    ctxs, tags = parse_inputs(args)
    emit_bench(bench_records(ctxs, tags), args.format == "csv", out)
    return 0


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------


def _elem(ctx, x: int) -> str:
    return "." if x == 0 else f"a{ctx.log[x]}"


def _elem_row(ctx, row) -> str:
    return " ".join(_elem(ctx, e) for e in row)


def _coset_text(coset) -> str:
    return "{" + ",".join(str(e) for e in coset.elements) + "}"


def _order_line(perm, sizes, prefix: str) -> str:
    starts = accumulate(sizes, initial=0)
    return " | ".join(" ".join(f"{prefix}{i}" for i in perm[s : s + d]) for s, d in zip(starts, sizes))


def _grid_lines(bits: np.ndarray, row_widths, col_widths) -> list[str]:
    """Rows of a (rows, cols) 0/1 array, ' | ' between the column groups
    and, unless row_widths is None, a rule between the row groups."""
    col_starts = list(accumulate(col_widths, initial=0))
    lines = []
    for row in bits.tolist():
        parts = (" ".join(str(b) for b in row[c : c + d]) for c, d in zip(col_starts, col_widths))
        lines.append(" | ".join(parts))
    if row_widths is None or not lines:
        return lines
    sep = "-" * len(lines[0])
    out = []
    for gi, (r, d) in enumerate(zip(accumulate(row_widths, initial=0), row_widths)):
        if gi:
            out.append(sep)
        out.extend(lines[r : r + d])
    return out


def _factor_text_factored(plan, out):
    ctx, sizes = plan.ctx, plan.partition.sizes()
    grouped = plan.out_perm != tuple(range(ctx.n))
    print(f"input order : {_order_line(plan.in_perm, sizes, 'f')}", file=out)
    print(f"output order: {_order_line(plan.out_perm, sizes if grouped else [ctx.n], 'F')}", file=out)
    print("A_e (binary):", file=out)
    for line in _grid_lines(plan.stage(BinaryMatrix).bits(), sizes if grouped else None, sizes):
        print(f"  {line}", file=out)
    print("D_e blocks:", file=out)
    blocks = plan.stage(alg.BlockStage)
    for k, coset in enumerate(plan.partition.cosets):
        rows = blocks.rows(k)
        if len(rows) == 1:
            print(f"  block {k} (coset {_coset_text(coset)}): [{_elem_row(ctx, rows[0])}]", file=out)
            continue
        kind = "circulant" if blocks.circulant(k) else "dense"
        print(f"  block {k} (coset {_coset_text(coset)}): {kind}", file=out)
        for row in rows:
            print(f"    {_elem_row(ctx, row)}", file=out)


def _factor_text_goertzel(plan, out):
    ctx, sizes = plan.ctx, plan.partition.sizes()
    print(f"output order: {_order_line(plan.out_perm, sizes, 'F')}", file=out)
    print("R (binary, remainder coefficients by coset):", file=out)
    for line in _grid_lines(plan.stage(BinaryMatrix).bits(), sizes, [ctx.n]):
        print(f"  {line}", file=out)
    print("evaluation blocks (rows = output points):", file=out)
    blocks = plan.stage(alg.BlockStage)
    for k, coset in enumerate(plan.partition.cosets):
        print(f"  coset {_coset_text(coset)}:", file=out)
        for e, row in zip(coset.elements, blocks.rows(k)):
            print(f"    F{e}: {_elem_row(ctx, row)}", file=out)


def _factor_text_blahut(plan, out):
    ctx, sizes = plan.ctx, plan.partition.sizes()
    combine = plan.stage(BinaryMatrix).bits()
    blocks = plan.stage(alg.BlockStage)
    for k, (coset, c0) in enumerate(zip(plan.partition.cosets, accumulate(sizes, initial=0))):
        if coset.leader == 0:
            print(f"coset {_coset_text(coset)}: all-ones column times f0", file=out)
            continue
        print(f"coset {_coset_text(coset)}:", file=out)
        print("  V (element rows):", file=out)
        for row in blocks.rows(k):
            print(f"    {_elem_row(ctx, row)}", file=out)
        print(f"  B (binary rows, outputs F0..F{ctx.n - 1}):", file=out)
        for line in _grid_lines(combine[:, c0 : c0 + coset.size], None, [coset.size]):
            print(f"    {line}", file=out)


_FACTOR_TEXT = {alg.GOERTZEL: _factor_text_goertzel, alg.BLAHUT2008: _factor_text_blahut}

# LaTeX comment above the binary stage and above the block stage.
_LATEX_LABELS = {
    alg.GOERTZEL: ("remainder matrix R", "evaluation blocks"),
    alg.BLAHUT2008: ("combine matrix", "V blocks"),
}


def _latex_elem(ctx, x: int) -> str:
    return "0" if x == 0 else f"\\alpha^{{{ctx.log[x]}}}"


def _bmatrix(rows, fmt, out):
    print("\\begin{bmatrix}", file=out)
    for row in rows:
        print(" & ".join(fmt(e) for e in row) + r" \\", file=out)
    print("\\end{bmatrix}", file=out)


def _factor_latex(plan, out):
    """Every stage's matrices in product order, the last stage first."""
    ctx = plan.ctx
    binary_label, block_label = _LATEX_LABELS.get(plan.tag, ("A_e", "D_e (block diagonal)"))
    for stage in reversed(plan.stages):
        if isinstance(stage, BinaryMatrix):
            print(f"% {binary_label}", file=out)
            _bmatrix(stage.bits().tolist(), str, out)
            continue
        print(f"% {block_label}", file=out)
        for k in range(len(stage.sizes)):
            print(f"% block {k}", file=out)
            _bmatrix(stage.rows(k), lambda e: _latex_elem(ctx, e), out)


def cmd_factor(args, out=sys.stdout) -> int:
    ctxs, tags = parse_inputs(args)
    if len(ctxs) != 1:
        raise UsageError("factor takes a single m, not a range")
    if len(tags) != 1:
        raise UsageError("factor takes a single algorithm")
    ctx = ctxs[0]
    plan = alg.build(tags[0], ctx)
    print(f"algo={tags[0]} m={ctx.m} n={ctx.n} poly={ctx.spec.resolved_poly():#x}", file=out)
    if args.format == "latex":
        _factor_latex(plan, out)
    else:
        _FACTOR_TEXT.get(plan.tag, _factor_text_factored)(plan, out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfft",
        description="Semifast Fourier transforms over GF(2^m): verify, bench, factor.",
        epilog=(
            "Default primitive polynomials (hex, bit i = coeff of x^i): "
            + ", ".join(f"m={m}:{p:#x}" for m, p in sorted(PRIMITIVE_POLYS.items()))
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check algorithms against the naive transform")
    p_verify.add_argument("--m", default="2..8", help="degree or range, e.g. 3 or 2..8 (max 12)")
    p_verify.add_argument("--algo", default="all", help=f"comma list or 'all' ({', '.join(alg.ALL_TAGS)})")
    p_verify.add_argument("--trials", type=int, default=100, help="random vectors per (m, algo)")
    p_verify.add_argument("--seed", type=int, default=None, help="PRNG seed (default: $GFFT_SEED or 1)")
    p_verify.add_argument("--poly", default=None, help="primitive polynomial override (hex)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="exact operation counts vs complexity budgets")
    p_bench.add_argument("--m", default="2..12", help="degree or range, e.g. 8 or 2..16")
    p_bench.add_argument("--algo", default="all", help=f"comma list or 'all' ({', '.join(alg.ALL_TAGS)})")
    p_bench.add_argument("--format", choices=("text", "csv"), default="text")
    p_bench.add_argument("--poly", default=None, help="primitive polynomial override (hex)")
    p_bench.set_defaults(func=cmd_bench)

    p_factor = sub.add_parser("factor", help="print one factorization")
    p_factor.add_argument("--m", required=True, help="single degree in [2,6]")
    p_factor.add_argument("--algo", required=True, help=f"one of {', '.join(alg.ALL_TAGS)}")
    p_factor.add_argument("--format", choices=("text", "latex"), default="text")
    p_factor.add_argument("--poly", default=None, help="primitive polynomial override (hex)")
    p_factor.set_defaults(func=cmd_factor)
    return parser


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = args.func(args, out)
        out.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: what is left goes to devnull, so that the
        # interpreter's last flush of stdout does not raise again
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault in gfft, not in the arguments
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
