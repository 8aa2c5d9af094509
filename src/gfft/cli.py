"""Command-line front door: verify, bench, and factor subcommands.

verify  -- oracle-equivalence and factorization-identity suites, PASS/FAIL table
bench   -- exact operation counts per algorithm against the n*log2(n+1)
           multiplication budget and the 2n^2/log2(n) addition budget
factor  -- print one field's factorization (permutations, binary matrix,
           diagonal blocks) in text or LaTeX

Exit codes: 0 all pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys

from . import algorithms as alg
from . import binmat
from .field import PRIMITIVE_POLYS, FieldSpec, build_field
from .reference import naive_dft_batch, transform_matrix, unit_response

VERIFY_M_RANGE = (2, 12)
BENCH_M_RANGE = (2, 16)
FACTOR_M_RANGE = (2, 6)

CSV_HEADER = (
    "algo,m,n,stage1_mults,stage1_adds,stage2_adds_naive,stage2_adds_4r,"
    "bound_nlogn,bound_2n2logn,ok_mults,ok_adds"
)


class UsageError(Exception):
    pass


def parse_m_range(text: str) -> list[int]:
    """Either a single degree '3' or an inclusive range '2..8'."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"bad m range {text!r} (use e.g. '3' or '2..8')") from None


def parse_algos(text: str, allowed: tuple[str, ...]) -> list[str]:
    if text == "all":
        return list(allowed)
    tags = [t.strip() for t in text.split(",") if t.strip()]
    for t in tags:
        if t not in allowed:
            raise UsageError(f"unknown algorithm {t!r} (choose from {', '.join(allowed)})")
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


def field_for(m: int, poly: int | None):
    return build_field(FieldSpec(m, poly))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_one_field(ctx, tags: list[str], trials: int, seed: int, out):
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
    w = transform_matrix(ctx) if m <= 8 else None

    rows = []
    for tag in tags:
        plan = alg.build(tag, ctx)
        rand_ok = alg.apply_batch(plan, vecs) == oracle
        unit_ok = alg.apply_batch(plan, unit_vecs) == unit_expect

        matrix_res = "-"
        if tag in alg.FACTORED_TAGS and w is not None:
            matrix_ok = alg.materialize(plan) == w
            if matrix_ok and tag in (alg.FED2006A, alg.FED2006B):
                report = alg.coset_block_report(plan)
                matrix_ok = all(r["rotation_chain"] for r in report) and all(
                    r["circulant"] for r in report if r["shape"][0] == r["shape"][1]
                )
            matrix_res = "PASS" if matrix_ok else "FAIL"
        ok = rand_ok and unit_ok and matrix_res != "FAIL"
        rows.append(
            (
                m,
                tag,
                "PASS" if rand_ok else "FAIL",
                "PASS" if unit_ok else "FAIL",
                matrix_res,
                ok,
            )
        )
    return rows


def cmd_verify(args, out=sys.stdout) -> int:
    ms = parse_m_range(args.m)
    if ms[0] < VERIFY_M_RANGE[0] or ms[-1] > VERIFY_M_RANGE[1]:
        raise UsageError(f"m out of verify range [{VERIFY_M_RANGE[0]},{VERIFY_M_RANGE[1]}]")
    if args.trials < 0:
        raise UsageError("--trials must be non-negative")
    tags = parse_algos(args.algo, alg.ALL_TAGS)
    poly = _parse_poly(args.poly, ms)
    seed = resolve_seed(args.seed)

    print(f"gfft verify: seed={seed} trials={args.trials} m={args.m} algo={','.join(tags)}", file=out)
    print(f"{'m':>2}  {'algo':<10}  {'random':<6}  {'units':<6}  {'matrix':<6}", file=out)
    all_ok = True
    for m in ms:
        ctx = field_for(m, poly)
        for row in _verify_one_field(ctx, tags, args.trials, seed, out):
            m_, tag, r, u, x, ok = row
            all_ok &= ok
            print(f"{m_:>2}  {tag:<10}  {r:<6}  {u:<6}  {x:<6}", file=out)
    print(f"overall {'PASS' if all_ok else 'FAIL'}", file=out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def bench_records(ms: list[int], tags: list[str], poly: int | None, block_size: int | None):
    records = []
    for m in ms:
        ctx = field_for(m, poly)
        n = ctx.n
        t = block_size if block_size is not None else binmat.default_block_size(n)
        fr = binmat.FourRussiansPlan(n, t)
        adds_4r = fr.predicted_adds(n)
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


def emit_bench_csv(records, out):
    print(CSV_HEADER, file=out)
    for r in records:
        print(
            f"{r['algo']},{r['m']},{r['n']},{r['stage1_mults']},{r['stage1_adds']},"
            f"{r['stage2_adds_naive']},{r['stage2_adds_4r']},{r['bound_nlogn']},"
            f"{r['bound_2n2logn']},{str(r['ok_mults']).lower()},{str(r['ok_adds']).lower()}",
            file=out,
        )


def parse_bench_csv(text: str):
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed bench CSV header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 11:
            raise ValueError(f"bad bench CSV record: {ln!r}")
        records.append(
            {
                "algo": parts[0],
                "m": int(parts[1]),
                "n": int(parts[2]),
                "stage1_mults": int(parts[3]),
                "stage1_adds": int(parts[4]),
                "stage2_adds_naive": int(parts[5]),
                "stage2_adds_4r": int(parts[6]),
                "bound_nlogn": int(parts[7]),
                "bound_2n2logn": int(parts[8]),
                "ok_mults": {"true": True, "false": False}[parts[9]],
                "ok_adds": {"true": True, "false": False}[parts[10]],
            }
        )
    return records


def cmd_bench(args, out=sys.stdout) -> int:
    ms = parse_m_range(args.m)
    if ms[0] < BENCH_M_RANGE[0] or ms[-1] > BENCH_M_RANGE[1]:
        raise UsageError(f"m out of bench range [{BENCH_M_RANGE[0]},{BENCH_M_RANGE[1]}]")
    tags = parse_algos(args.algo, alg.FACTORED_TAGS)
    poly = _parse_poly(args.poly, ms)
    if args.block_size is not None and not (1 <= args.block_size <= 16):
        raise UsageError("--block-size must be in [1,16]")
    records = bench_records(ms, tags, poly, args.block_size)
    if args.format == "csv":
        emit_bench_csv(records, out)
    else:
        hdr = (
            f"{'algo':<10} {'m':>2} {'n':>6} {'s1_mults':>9} {'s1_adds':>9} "
            f"{'s2_naive':>10} {'s2_4r':>10} {'nlogn':>8} {'2n2/logn':>10} {'mults':>5} {'adds':>5}"
        )
        print(hdr, file=out)
        for r in records:
            print(
                f"{r['algo']:<10} {r['m']:>2} {r['n']:>6} {r['stage1_mults']:>9} "
                f"{r['stage1_adds']:>9} {r['stage2_adds_naive']:>10} {r['stage2_adds_4r']:>10} "
                f"{r['bound_nlogn']:>8} {r['bound_2n2logn']:>10} "
                f"{'ok' if r['ok_mults'] else 'FAIL':>5} {'ok' if r['ok_adds'] else 'FAIL':>5}",
                file=out,
            )
    return 0


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------


def _elem(ctx, x: int) -> str:
    return "." if x == 0 else f"a{ctx.log[x]}"


def _order_line(perm, layouts, prefix: str) -> str:
    groups = []
    pos = 0
    for lay in layouts:
        d = lay.coset.size
        groups.append(" ".join(f"{prefix}{perm[pos + r]}" for r in range(d)))
        pos += d
    return " | ".join(groups)


def _grid_lines(matrix, layouts, grouped_rows: bool) -> list[str]:
    widths = [lay.coset.size for lay in layouts]
    lines = []
    for i in range(matrix.n_rows):
        bits = matrix.row_bits(i)
        parts = []
        pos = 0
        for d in widths:
            parts.append(" ".join(str(b) for b in bits[pos : pos + d]))
            pos += d
        lines.append(" | ".join(parts))
    if grouped_rows and lines:
        sep = "-" * len(lines[0])
        out = []
        pos = 0
        for gi, d in enumerate(widths):
            if gi:
                out.append(sep)
            out.extend(lines[pos : pos + d])
            pos += d
        return out
    return lines


def _factor_text_factored(plan, out):
    ctx = plan.ctx
    print(f"input order : {_order_line(plan.in_perm, plan.layouts, 'f')}", file=out)
    if plan.out_perm == tuple(range(plan.n)):
        print(f"output order: {' '.join(f'F{i}' for i in plan.out_perm)}", file=out)
        grouped = False
    else:
        print(f"output order: {_order_line(plan.out_perm, plan.layouts, 'F')}", file=out)
        grouped = True
    print("A_e (binary):", file=out)
    for line in _grid_lines(plan.a_matrix, plan.layouts, grouped):
        print(f"  {line}", file=out)
    print("D_e blocks:", file=out)
    for k, lay in enumerate(plan.layouts):
        cs = ",".join(str(e) for e in lay.coset.elements)
        if isinstance(lay.block, alg.CirculantBlock) and lay.block.size == 1:
            print(f"  block {k} (coset {{{cs}}}): [{_elem(ctx, lay.block.first_row[0])}]", file=out)
            continue
        kind = "circulant" if isinstance(lay.block, alg.CirculantBlock) else "dense"
        print(f"  block {k} (coset {{{cs}}}): {kind}", file=out)
        for r in range(lay.block.size):
            print(f"    {' '.join(_elem(ctx, e) for e in lay.block.row(r))}", file=out)


def _factor_text_goertzel(plan, out):
    ctx = plan.ctx
    groups = []
    pos = 0
    for coset in plan.partition.cosets:
        groups.append(" ".join(f"F{plan.out_perm[pos + r]}" for r in range(coset.size)))
        pos += coset.size
    print(f"output order: {' | '.join(groups)}", file=out)
    print("R (binary, remainder coefficients by coset):", file=out)
    pos = 0
    first = True
    for coset in plan.partition.cosets:
        if not first:
            print(f"  {'-' * (2 * ctx.n - 1)}", file=out)
        first = False
        for t in range(coset.size):
            bits = plan.remainder_matrix.row_bits(pos + t)
            print(f"  {' '.join(str(b) for b in bits)}", file=out)
        pos += coset.size
    print("evaluation blocks (rows = output points):", file=out)
    for coset, block in zip(plan.partition.cosets, plan.eval_blocks):
        cs = ",".join(str(e) for e in coset.elements)
        print(f"  coset {{{cs}}}:", file=out)
        for r, e in enumerate(coset.elements):
            print(f"    F{e}: {' '.join(_elem(ctx, v) for v in block[r])}", file=out)


def _factor_text_blahut(plan, out):
    ctx = plan.ctx
    for coset, vblock, bblock in zip(plan.partition.cosets, plan.v_blocks, plan.b_blocks):
        cs = ",".join(str(e) for e in coset.elements)
        if coset.size == 1 and coset.leader == 0:
            print(f"coset {{{cs}}}: all-ones column times f0", file=out)
            continue
        print(f"coset {{{cs}}}:", file=out)
        print("  V (element rows):", file=out)
        for row in vblock:
            print(f"    {' '.join(_elem(ctx, v) for v in row)}", file=out)
        print("  B (binary rows, outputs F0..F{}):".format(ctx.n - 1), file=out)
        for i in range(ctx.n):
            print(f"    {' '.join(str(b) for b in bblock.row_bits(i))}", file=out)


def _latex_elem(ctx, x: int) -> str:
    return "0" if x == 0 else f"\\alpha^{{{ctx.log[x]}}}"


def _factor_latex(plan, out):
    ctx = plan.ctx
    if isinstance(plan, alg.FactoredTransform):
        print("% A_e", file=out)
        print("\\begin{bmatrix}", file=out)
        for i in range(plan.a_matrix.n_rows):
            print(" & ".join(str(b) for b in plan.a_matrix.row_bits(i)) + r" \\", file=out)
        print("\\end{bmatrix}", file=out)
        print("% D_e (block diagonal)", file=out)
        for k, lay in enumerate(plan.layouts):
            print(f"% block {k}", file=out)
            print("\\begin{bmatrix}", file=out)
            for r in range(lay.block.size):
                print(
                    " & ".join(_latex_elem(ctx, e) for e in lay.block.row(r)) + r" \\",
                    file=out,
                )
            print("\\end{bmatrix}", file=out)
    elif isinstance(plan, alg.GoertzelPlan):
        print("% remainder matrix R", file=out)
        print("\\begin{bmatrix}", file=out)
        for i in range(plan.remainder_matrix.n_rows):
            print(" & ".join(str(b) for b in plan.remainder_matrix.row_bits(i)) + r" \\", file=out)
        print("\\end{bmatrix}", file=out)
    else:
        for k, (vblock, bblock) in enumerate(zip(plan.v_blocks, plan.b_blocks)):
            print(f"% coset block {k}: B then V", file=out)
            print("\\begin{bmatrix}", file=out)
            for i in range(bblock.n_rows):
                print(" & ".join(str(b) for b in bblock.row_bits(i)) + r" \\", file=out)
            print("\\end{bmatrix}", file=out)
            print("\\begin{bmatrix}", file=out)
            for row in vblock:
                print(" & ".join(_latex_elem(ctx, e) for e in row) + r" \\", file=out)
            print("\\end{bmatrix}", file=out)


def cmd_factor(args, out=sys.stdout) -> int:
    ms = parse_m_range(args.m)
    if len(ms) != 1:
        raise UsageError("factor takes a single m, not a range")
    m = ms[0]
    if not (FACTOR_M_RANGE[0] <= m <= FACTOR_M_RANGE[1]):
        raise UsageError(f"m out of factor range [{FACTOR_M_RANGE[0]},{FACTOR_M_RANGE[1]}]")
    tags = parse_algos(args.algo, alg.ALL_TAGS)
    if len(tags) != 1:
        raise UsageError("factor takes a single algorithm")
    poly = _parse_poly(args.poly, ms)
    ctx = field_for(m, poly)
    plan = alg.build(tags[0], ctx)
    print(f"algo={tags[0]} m={m} n={ctx.n} poly={ctx.spec.resolved_poly():#x}", file=out)
    if args.format == "latex":
        _factor_latex(plan, out)
    elif isinstance(plan, alg.GoertzelPlan):
        _factor_text_goertzel(plan, out)
    elif isinstance(plan, alg.BlahutPlan):
        _factor_text_blahut(plan, out)
    else:
        _factor_text_factored(plan, out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse_poly(poly_text: str | None, ms: list[int]) -> int | None:
    if poly_text is None:
        return None
    if len(ms) != 1:
        raise UsageError("--poly requires a single m")
    try:
        return int(poly_text, 16)
    except ValueError:
        raise UsageError(f"--poly expects a hex bitmask, got {poly_text!r}") from None


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
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="exact operation counts vs complexity budgets")
    p_bench.add_argument("--m", default="2..12", help="degree or range, e.g. 8 or 2..16")
    p_bench.add_argument("--algo", default="all", help=f"comma list or 'all' ({', '.join(alg.FACTORED_TAGS)})")
    p_bench.add_argument("--block-size", type=int, default=None, help="Four-Russians group width t")
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
        return args.func(args, out)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
