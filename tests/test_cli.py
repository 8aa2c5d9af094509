import csv
import io
import json
import random
from pathlib import Path

import pytest

from gfft import algorithms as alg
from gfft import cli
from gfft.field import default_field
from gfft.reference import naive_dft, unit_response

GOLDEN_DIR = Path(__file__).parent / "golden"
ALGOS = ("goertzel", "blahut2008", "ft2002", "tf2003", "fed2006a", "fed2006b")


def bench_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def run(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def test_verify_m3_all_pass():
    code, out = run(["verify", "--m", "3", "--algo", "all", "--trials", "100", "--seed", "7"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("gfft verify: seed=7 trials=100")
    body = [ln for ln in lines if ln.lstrip().startswith("3")]
    assert len(body) == len(ALGOS)
    assert all("PASS" in ln and "FAIL" not in ln for ln in body)
    assert [ln.split()[4] for ln in body] == ["PASS"] * len(ALGOS)  # matrix column
    assert lines[-1] == "overall PASS"


def test_verify_range_single_algo():
    code, out = run(["verify", "--m", "2..8", "--algo", "tf2003", "--trials", "5", "--seed", "1"])
    assert code == 0
    rows = [ln for ln in out.splitlines() if "tf2003" in ln and "algo" not in ln]
    assert len(rows) == 7


def test_verify_m_out_of_range():
    code, _ = run(["verify", "--m", "13"])
    assert code == 2


def test_verify_bad_algo():
    code, _ = run(["verify", "--m", "3", "--algo", "nope"])
    assert code == 2


def test_verify_bad_range_syntax():
    code, _ = run(["verify", "--m", "8..2"])
    assert code == 2


def test_verify_failure_exits_one(monkeypatch):
    # corrupt the unit oracle; the suite must notice and report failure
    import gfft.reference as reference

    real = reference.unit_response

    def broken(j, ctx):
        out = real(j, ctx)
        out[0] ^= 1
        return out

    monkeypatch.setattr(cli, "unit_response", broken)
    code, out = run(["verify", "--m", "3", "--algo", "tf2003", "--trials", "2", "--seed", "1"])
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("suite, size", [("random", 2), ("unit", 7)])
def test_verify_names_first_mismatch(monkeypatch, capsys, suite, size):
    # one wrong output of one tag: exit 1, the same table with one FAIL, and
    # one stderr line naming where the output went wrong
    real = alg.apply_batch

    def corrupt(plan, vectors):
        out = real(plan, vectors)
        if plan.tag == "tf2003" and len(vectors) == size:
            out[1][3] ^= 1
        return out

    monkeypatch.setattr(alg, "apply_batch", corrupt)
    argv = ["verify", "--m", "3", "--algo", "tf2003,fed2006a", "--trials", "2", "--seed", "1"]
    code, out = run(argv)
    assert code == 1
    rng = random.Random("1:3")
    vecs = [[rng.randrange(8) for _ in range(7)] for _ in range(2)]
    ctx = default_field(3)
    expected = (naive_dft(vecs[1], ctx) if suite == "random" else unit_response(1, ctx))[3]
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"first mismatch: m=3 tag=tf2003 suite={suite} vector=1 seed=1 "
        f"output=3 expected={expected} actual={expected ^ 1}"
    ]
    random_cell, unit_cell = ("FAIL", "PASS") if suite == "random" else ("PASS", "FAIL")
    assert out.splitlines()[1:] == [
        " m  algo        random  units   matrix",
        f" 3  tf2003      {random_cell:<6}  {unit_cell:<6}  PASS  ",
        " 3  fed2006a    PASS    PASS    PASS  ",
        "overall FAIL",
    ]


def test_verify_json_report(monkeypatch, capsys):
    argv = ["verify", "--m", "2..3", "--algo", "tf2003,fed2006a", "--trials", "2", "--seed", "5",
            "--format", "json"]
    code, out = run(argv)
    assert code == 0
    report = json.loads(out)  # the whole of stdout is one JSON object
    assert (report["seed"], report["trials"], report["overall"]) == (5, 2, "PASS")
    assert report["first_mismatch"] is None
    records = report["records"]
    assert [(r["m"], r["algo"]) for r in records] == [
        (2, "tf2003"), (2, "fed2006a"), (3, "tf2003"), (3, "fed2006a")
    ]
    assert all(r["random"] == r["unit"] == r["matrix"] == "PASS" and r["ok"] for r in records)

    # one wrong output of fed2006a's m = 3 unit suite: exit 1, its record
    # fails, and first_mismatch holds what the stderr line names
    real = alg.apply_batch

    def corrupt(plan, vectors):
        out = real(plan, vectors)
        if plan.tag == "fed2006a" and plan.ctx.m == 3 and len(vectors) == 7:
            out[2][4] ^= 1
        return out

    monkeypatch.setattr(alg, "apply_batch", corrupt)
    code, out = run(argv)
    assert code == 1
    report = json.loads(out)
    assert report["overall"] == "FAIL"
    assert [r["ok"] for r in report["records"]] == [True, True, True, False]
    assert (report["records"][3]["random"], report["records"][3]["unit"]) == ("PASS", "FAIL")
    expected = unit_response(2, default_field(3))[4]
    mismatch = {"m": 3, "tag": "fed2006a", "suite": "unit", "vector": 2, "seed": 5, "output": 4,
                "expected": expected, "actual": expected ^ 1}
    assert report["first_mismatch"] == mismatch
    assert capsys.readouterr().err.splitlines() == [
        "first mismatch: " + " ".join(f"{k}={v}" for k, v in mismatch.items())
    ]


def test_verify_json_matrix_checked_above_m8():
    code, out = run(["verify", "--m", "9", "--algo", "ft2002", "--trials", "1", "--format", "json"])
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record == {"m": 9, "algo": "ft2002", "random": "PASS", "unit": "PASS", "matrix": "PASS", "ok": True}


def test_verify_names_first_matrix_mismatch(monkeypatch, capsys):
    # one wrong entry of tf2003's dense matrix: exit 1, only its matrix
    # suite fails, and first_mismatch names the entry the stderr line names
    real = alg.materialize

    def corrupt(plan):
        out = real(plan)
        if plan.tag == "tf2003":
            out[2, 5] ^= 1
        return out

    monkeypatch.setattr(alg, "materialize", corrupt)
    argv = ["verify", "--m", "3", "--algo", "tf2003,fed2006a", "--trials", "2", "--format", "json"]
    code, out = run(argv)
    assert code == 1
    report = json.loads(out)
    assert [(r["random"], r["unit"], r["matrix"], r["ok"]) for r in report["records"]] == [
        ("PASS", "PASS", "FAIL", False), ("PASS", "PASS", "PASS", True)
    ]
    expected = default_field(3).exp[2 * 5 % 7]
    mismatch = {"m": 3, "tag": "tf2003", "suite": "matrix", "row": 2, "column": 5,
                "expected": expected, "actual": expected ^ 1}
    assert report["first_mismatch"] == mismatch
    assert capsys.readouterr().err.splitlines() == [
        "first mismatch: " + " ".join(f"{k}={v}" for k, v in mismatch.items())
    ]


def test_verify_names_first_broken_coset_pair(monkeypatch, capsys):
    # a square coset pair of fed2006a reported not circulant fails the
    # matrix suite and is named by its cosets
    real = alg.coset_block_report

    def broken(plan):
        out = real(plan)
        out[-1]["circulant"] = False
        return out

    monkeypatch.setattr(alg, "coset_block_report", broken)
    code, out = run(["verify", "--m", "3", "--algo", "fed2006a", "--trials", "1"])
    assert code == 1
    assert out.splitlines()[2:] == [" 3  fed2006a    PASS    PASS    FAIL  ", "overall FAIL"]
    assert capsys.readouterr().err.splitlines() == [
        "first mismatch: m=3 tag=fed2006a suite=matrix out_coset=3 in_coset=3 "
        "rotation_chain=True circulant=False"
    ]


def test_unknown_flag_exits_two(capsys):
    code = cli.main(["verify", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_bench_csv_schema_and_roundtrip():
    code, out = run(["bench", "--m", "2..8", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 1 + 7 * len(ALGOS)
    assert all(len(ln.split(",")) == 11 for ln in lines[1:])


def test_bench_known_m3_row():
    code, out = run(["bench", "--m", "3", "--algo", "tf2003", "--format", "csv"])
    assert code == 0
    rec = bench_rows(out)[0]
    assert rec["stage1_mults"] == "18"
    assert rec["bound_nlogn"] == "21"
    assert rec["ok_mults"] == "true"
    assert rec["ok_adds"] == "true"
    assert rec["stage2_adds_naive"] == "24"
    assert rec["stage2_adds_4r"] == "25"


def test_bench_m8_budget():
    code, out = run(["bench", "--m", "8", "--format", "csv"])
    assert code == 0
    for rec in bench_rows(out):
        assert rec["stage2_adds_4r"] == "13620"
        assert rec["ok_adds"] == "true"


def test_bench_m2_degenerate():
    code, out = run(["bench", "--m", "2", "--format", "csv"])
    assert code == 0
    for rec in bench_rows(out):
        assert rec["n"] == "3"
        assert rec["ok_mults"] == "true"


def test_bench_text_format():
    code, out = run(["bench", "--m", "3"])
    assert code == 0
    assert "tf2003" in out and "s1_mults" in out


def test_bench_block_size_override():
    code, out = run(["bench", "--m", "8", "--block-size", "4", "--format", "csv"])
    assert code == 0
    rec = bench_rows(out)[0]
    # 64 groups of width 4: 64*(16-4-1) + 255*63
    assert rec["stage2_adds_4r"] == str(64 * 11 + 255 * 63)


def test_bench_rejects_bad_block_size():
    code, _ = run(["bench", "--m", "8", "--block-size", "0"])
    assert code == 2


def test_bench_unfactored_rows_match_plans():
    code, out = run(["bench", "--m", "3", "--algo", "goertzel,blahut2008", "--format", "csv"])
    assert code == 0
    ctx = default_field(3)
    for rec, tag in zip(bench_rows(out), ("goertzel", "blahut2008"), strict=True):
        plan = alg.build(tag, ctx)
        mults, adds = alg.structural_stage1_counts(plan)
        assert rec["algo"] == tag
        assert (int(rec["stage1_mults"]), int(rec["stage1_adds"])) == (mults, adds)
        assert int(rec["stage2_adds_naive"]) == alg.stage2_naive_adds(plan)


def test_bench_rejects_m17():
    code, _ = run(["bench", "--m", "17"])
    assert code == 2


def test_bench_m16_structural_runs():
    code, out = run(["bench", "--m", "16", "--algo", "tf2003", "--format", "csv"])
    assert code == 0
    rec = bench_rows(out)[0]
    assert rec["n"] == "65535"
    assert rec["ok_mults"] == "true"
    assert rec["ok_adds"] == "true"


@pytest.mark.parametrize("algo", ALGOS)
def test_factor_golden(algo):
    code, out = run(["factor", "--m", "3", "--algo", algo])
    assert code == 0
    golden = (GOLDEN_DIR / f"factor_m3_{algo}.txt").read_text()
    assert out == golden


def test_factor_latex_structure():
    code, out = run(["factor", "--m", "3", "--algo", "tf2003", "--format", "latex"])
    assert code == 0
    assert out.count("\\begin{bmatrix}") == out.count("\\end{bmatrix}") == 4
    assert "\\alpha^{3}" in out


@pytest.mark.parametrize("algo", ALGOS)
def test_factor_latex_prints_every_stage_matrix(algo):
    # one bmatrix for the binary stage plus one per block, in product order
    code, out = run(["factor", "--m", "3", "--algo", algo, "--format", "latex"])
    assert code == 0
    sizes = alg.build(algo, default_field(3)).stage(alg.BlockStage).sizes
    assert out.count("\\begin{bmatrix}") == out.count("\\end{bmatrix}") == 1 + len(sizes)


def test_factor_latex_goertzel_and_blahut():
    for algo in ("goertzel", "blahut2008"):
        code, out = run(["factor", "--m", "3", "--algo", algo, "--format", "latex"])
        assert code == 0
        assert "\\begin{bmatrix}" in out


def test_factor_rejects_out_of_range():
    code, _ = run(["factor", "--m", "7", "--algo", "tf2003"])
    assert code == 2
    code, _ = run(["factor", "--m", "2..4", "--algo", "tf2003"])
    assert code == 2


def test_factor_poly_override():
    code, out = run(["factor", "--m", "3", "--algo", "tf2003", "--poly", "d"])
    assert code == 0
    assert "poly=0xd" in out


def test_poly_rejects_range():
    code, _ = run(["verify", "--m", "2..4", "--poly", "b", "--trials", "1"])
    assert code == 2


def test_poly_rejects_nonhex():
    code, _ = run(["factor", "--m", "3", "--algo", "tf2003", "--poly", "zz"])
    assert code == 2


def test_poly_rejects_nonprimitive():
    code, _ = run(["factor", "--m", "3", "--algo", "tf2003", "--poly", "f"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "8", "--poly=-11d"],
        ["bench", "--m", "8", "--poly=-11d"],
        ["factor", "--m", "3", "--algo", "tf2003", "--poly=-b"],
    ],
)
def test_poly_rejects_negative(argv, capsys):
    code, _ = run(argv)
    assert code == 2
    assert "error: polynomial -0x" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("poly", ["-11d", "11b", "100"])
def test_verify_bad_poly_prints_nothing(poly, fmt, capsys):
    # the field is built before the first line, so the error comes alone
    code, out = run(["verify", "--m", "8", f"--poly={poly}", "--format", fmt])
    assert code == 2
    assert out == ""
    assert "error:" in capsys.readouterr().err


def test_poly_rejects_wrong_degree(capsys):
    code, _ = run(["factor", "--m", "5", "--algo", "tf2003", "--poly", "b"])
    assert code == 2
    assert "does not have degree 5" in capsys.readouterr().err


def test_internal_error_exits_three(monkeypatch, capsys):
    # a ValueError from inside gfft is a fault, not a usage error
    def broken(tag, ctx):
        raise ValueError("corrupt plan")

    monkeypatch.setattr(alg, "build", broken)
    code, _ = run(["factor", "--m", "3", "--algo", "tf2003"])
    assert code == 3
    assert "internal error: ValueError: corrupt plan" in capsys.readouterr().err


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("GFFT_SEED", "99")
    code, out = run(["verify", "--m", "2", "--trials", "1"])
    assert code == 0
    assert "seed=99" in out
    monkeypatch.setenv("GFFT_SEED", "zz")
    code, _ = run(["verify", "--m", "2", "--trials", "1"])
    assert code == 2


def test_seed_flag_beats_env(monkeypatch):
    monkeypatch.setenv("GFFT_SEED", "99")
    code, out = run(["verify", "--m", "2", "--trials", "1", "--seed", "5"])
    assert code == 0
    assert "seed=5" in out
