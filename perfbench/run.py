#!/usr/bin/env python3
"""Benchmark of the gfft transforms: wall time next to exact operation counts.

Run from the repository root; it imports the package from ``src/``:

    python3 perfbench/run.py --workload rs255_stream --seed 1 --seconds 10 --trace 0

One process runs one workload, with one caller and no threads.  A run sets
up cold (fresh field tables, six fresh plans), draws its vectors from
``--seed`` and computes the oracle (``naive_dft_batch``) once per vector set
outside the timed region.  It then runs a closed loop of rounds for
``--seconds`` of apply time; a round sends one vector (one batch for
``batch_m11``) through every plan.  Further cold set-ups, each replacing the
plans in use, are spread evenly through the loop, and ``setup_s`` is their
median.  Every output is compared with the oracle; a call that raises counts
as a mismatch.

Shared machines run the same code up to 1.7 times slower in some spells
than in others, so every timing is made in reference seconds
(``hostclock``): each call and each piece of a set-up is bracketed by a
short fixed probe, sampled with it every 40 ms inside, and scaled by the
probe's nominal time over its measured time.  The timings are also medians:
``vectors_per_s`` and the latency percentiles take each call kind (a plan,
or a plan and its stage-2 kernel) at its median latency.  The wall-clock
figures and the host's speed are printed alongside.

Workloads (the reasons they were chosen are in BENCHMARK.json):

* ``rs255_stream``: m=8.  Each vector through one uncounted ``apply`` per
  plan in turn, Four-Russians stage 2 for the factored four.
* ``counted_m10``: m=10.  Every call counted with a fresh ``TransformTally``;
  each factored plan runs each vector through the naive and the
  Four-Russians stage 2.  The vectors cycle through a fixed seed-determined
  set and the loop stops after whole passes over it, so the counts repeat
  exactly for a seed.
* ``batch_m11``: m=11.  ``apply_batch`` on one 32-vector batch per plan.
  Not m=12: there a run has time for two rounds only, and with probes
  around the calls alone its timings spread 8 to 10% from run to run,
  against 5 to 6% at m=11; an m=11 run also takes half as long.

Operation counts on the uncounted workloads come from an untimed tallied
pass after the timed loop: a few of their vectors through the four factored
plans with the Four-Russians stage 2 (the batch path has no counted form).
Every tallied factored call is cross-checked against the structural counts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` does every
set-up up front under the tracer, runs half of the time untraced and half
traced (``trace.overhead_frac`` compares the two), prints the per-layer
metrics and a per-layer self-time table, and writes the spans as JSON under
``perfbench_out/``.  The spans, and so the per-layer times, are wall-clock.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any output differs from the oracle, any call raises or any count
cross-check fails; the first failure is reported on standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gfft  # noqa: E402

if Path(gfft.__file__).resolve().parent != SRC / "gfft":
    sys.exit(f"gfft imported from {gfft.__file__}, not from {SRC}")

from gfft import algorithms, binmat, field, reference  # noqa: E402
from gfft.structure import BinaryMatrix  # noqa: E402

from hostclock import HostClock  # noqa: E402
from spans import Tracer  # noqa: E402

FACTORED = set(algorithms.FACTORED_TAGS)
OUT_DIR = ROOT / "perfbench_out"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    m: int
    mode: str  # "stream", "counted" or "batch"
    vectors: int  # vectors drawn from the seed (the batch size for "batch")
    counted_vectors: int  # vectors tallied after the loop (every call is tallied in "counted")
    setups: int  # cold set-ups per run; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rs255_stream", m=8, mode="stream", vectors=64, counted_vectors=16, setups=15),
        Workload("counted_m10", m=10, mode="counted", vectors=2, counted_vectors=0, setups=7),
        Workload("batch_m11", m=11, mode="batch", vectors=32, counted_vectors=1, setups=3),
    )
}


# ---------------------------------------------------------------------------
# Calls, checks and counts.
# ---------------------------------------------------------------------------


class Ledger:
    """Latencies, checks and tallies of one run."""

    def __init__(self, workload: Workload, seed: int, clock: HostClock):
        self.workload = workload
        self.seed = seed
        self.clock = clock
        # Per call kind (a plan, or a plan and stage-2 kernel): latencies in
        # reference seconds and vectors per call.  Every kind runs exactly
        # once per round.
        self.latencies: dict[str, list[float]] = {}
        self.wall_latencies: dict[str, list[float]] = {}
        self.vectors_per_call: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.first_failure: dict | None = None
        # Tallies: number of tallied calls, stage-1 and stage-2 totals.
        self.tallied = 0
        self.stage1_mults = 0
        self.stage1_adds = 0
        self.stage2_adds = {"naive": [0, 0], "four_russians": [0, 0]}  # [adds, calls]

    def fail(self, tag: str, index: int, **detail) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = {
                "workload": self.workload.name,
                "seed": self.seed,
                "tag": tag,
                "vector_index": index,
                **detail,
            }

    def check(self, tag: str, index: int, actual: list[int], expected: list[int]) -> None:
        self.attempted += 1
        if actual == expected:
            return
        if len(actual) != len(expected):
            self.fail(tag, index, output_index=None, expected=len(expected), actual=len(actual),
                      reason="output length")
            return
        k = next(i for i, (a, e) in enumerate(zip(actual, expected)) if a != e)
        self.fail(tag, index, output_index=k, expected=expected[k], actual=actual[k])

    def call(self, tag: str, index: int, fn, expected: list[list[int]], batch: bool = False,
             kind: str | None = None):
        """Run fn once and check its output (a list of vectors when batch)
        against expected, whose first vector has the given index.  The call
        is timed under kind unless kind is None."""
        out, wall, elapsed, raised = self.clock.timed(fn)
        if raised:  # a raising call is a failed call, not a crash
            self.attempted += len(expected)
            self.fail(tag, index, output_index=None, expected=None, actual=None,
                      reason="raised", error=repr(out),
                      traceback="".join(traceback.format_exception(out)))
            return None
        if kind is not None:
            self.latencies.setdefault(kind, []).append(elapsed)
            self.wall_latencies.setdefault(kind, []).append(wall)
            self.vectors_per_call[kind] = len(expected)
        outs = out if batch else [out]
        if len(outs) != len(expected):
            self.attempted += len(expected)
            self.fail(tag, index, output_index=None, expected=len(expected), actual=len(outs),
                      reason="vector count")
            return out
        for k, (actual, exp) in enumerate(zip(outs, expected)):
            self.check(tag, index + k, actual, exp)
        return out

    def tallied_call(self, bench, tag: str, index: int, four_russians: bool | None,
                     timed: bool) -> None:
        """One counted apply, its output check and its count cross-check."""
        tally = algorithms.TransformTally.fresh()
        kw = {} if four_russians is None else {"four_russians": four_russians}
        kernel = "four_russians" if four_russians else "naive"
        kind = (tag if four_russians is None else f"{tag}/{kernel}") if timed else None
        plan, vector = bench.plans[tag], bench.vectors[index]
        fails_before = self.failed
        out = self.call(tag, index, lambda: algorithms.apply(plan, vector, tally=tally, **kw),
                        [bench.oracle[index]], kind=kind)
        if out is None:
            return
        self.tallied += 1
        self.stage1_mults += tally.stage1.mults
        self.stage1_adds += tally.stage1.adds
        self.stage2_adds[kernel][0] += tally.stage2.adds
        self.stage2_adds[kernel][1] += 1
        if tag not in FACTORED:
            return
        s1_mults, s1_adds, naive_adds, fr_adds = bench.structural[tag]
        want2 = fr_adds if four_russians else naive_adds
        problems = []
        if tally.stage1.adds != s1_adds:
            problems.append(f"stage-1 adds {tally.stage1.adds} != structural {s1_adds}")
        if tally.stage2.adds != want2:
            problems.append(f"{kernel} stage-2 adds {tally.stage2.adds} != structural {want2}")
        if tally.stage1.mults > s1_mults:
            problems.append(f"stage-1 mults {tally.stage1.mults} > worst case {s1_mults}")
        if problems and self.failed == fails_before:
            self.fail(tag, index, output_index=None, expected=None, actual=None,
                      reason="count cross-check", problems=problems)

    def round_medians(self, since: dict[str, int] | None = None,
                      wall: bool = False) -> dict[str, float]:
        """Median latency per call kind, over the calls after `since`."""
        since = since or {}
        latencies = self.wall_latencies if wall else self.latencies
        return {k: statistics.median(v[since.get(k, 0):]) for k, v in latencies.items()}

    def vectors_per_s(self, since: dict[str, int] | None = None, wall: bool = False) -> float:
        """Vectors in one round over the round's time, each kind's call
        taking its median latency."""
        medians = self.round_medians(since, wall)
        return sum(self.vectors_per_call[k] for k in medians) / sum(medians.values())


def structural_counts(plans: dict, n: int) -> dict:
    """Per factored tag: (stage-1 worst-case mults, stage-1 adds, naive and
    Four-Russians stage-2 adds)."""
    fr_adds = binmat.make_plan(n).predicted_adds(n)
    out = {}
    for tag, plan in plans.items():
        if tag in FACTORED:
            mults, adds = algorithms.structural_stage1_counts(plan)
            out[tag] = (mults, adds, algorithms.stage2_naive_adds(plan), fr_adds)
    return out


# ---------------------------------------------------------------------------
# Set-up and the timed loop.
# ---------------------------------------------------------------------------


def scope(tracer: Tracer | None, tag: str):
    return tracer.call(tag) if tracer else nullcontext()


class Bench:
    """The plans in use, the vectors and their oracle outputs."""

    def __init__(self, workload: Workload, seed: int, clock: HostClock, tracer: Tracer | None):
        self.workload = workload
        self.clock = clock
        self.tracer = tracer
        self.setup_times: list[float] = []  # reference seconds
        self.setup_wall: list[float] = []
        self.plans: dict = {}
        self.set_up()
        rng = random.Random(f"{workload.name}/{seed}")
        q = 1 << workload.m
        self.vectors = [[rng.randrange(q) for _ in range(self.ctx.n)]
                        for _ in range(workload.vectors)]
        with scope(tracer, "oracle"):
            self.oracle = reference.naive_dft_batch(self.vectors, self.ctx)

    def set_up(self) -> None:
        """Field tables plus six cold builds, replacing the plans in use."""
        self.plans = {}  # release the previous plans first
        gc.collect()  # and free them now, so that peak memory is the same on every run
        wall = ref = 0.0

        def timed(tag, fn):
            nonlocal wall, ref
            with scope(self.tracer, tag):
                out, w, r, raised = self.clock.timed(fn)
            if raised:
                raise out
            wall, ref = wall + w, ref + r
            return out

        ctx = timed("field", lambda: field.build_field(field.FieldSpec(self.workload.m)))
        plans = {tag: timed(tag, lambda: algorithms.build(tag, ctx)) for tag in algorithms.ALL_TAGS}
        self.setup_times.append(ref)
        self.setup_wall.append(wall)
        self.ctx, self.plans = ctx, plans
        self.structural = structural_counts(plans, ctx.n)


def stream_round(bench, led, r, tracer):
    """One vector through one uncounted apply per plan."""
    i = r % len(bench.vectors)
    v = bench.vectors[i]
    for tag, plan in bench.plans.items():
        kw = {"four_russians": True} if tag in FACTORED else {}
        with scope(tracer, tag):
            led.call(tag, i, lambda: algorithms.apply(plan, v, **kw), [bench.oracle[i]], kind=tag)


def counted_round(bench, led, r, tracer):
    """One vector through every plan, tallied; the factored plans twice."""
    i = r % len(bench.vectors)
    for tag in bench.plans:
        for fr in (False, True) if tag in FACTORED else (None,):
            with scope(tracer, tag):
                led.tallied_call(bench, tag, i, fr, timed=True)


def batch_round(bench, led, r, tracer):
    """The whole batch through apply_batch once per plan."""
    for tag, plan in bench.plans.items():
        with scope(tracer, tag):
            led.call(tag, 0, lambda: algorithms.apply_batch(plan, bench.vectors), bench.oracle,
                     batch=True, kind=tag)


ROUNDS = {"stream": stream_round, "counted": counted_round, "batch": batch_round}


def timed_loop(bench, led, seconds, tracer=None, interleave=False) -> int:
    """Closed loop of rounds for `seconds` of apply time; returns the rounds.

    With interleave, the set-ups still owed run at even steps of apply time,
    so that set-up and apply samples see the same stretches of machine time.
    The counted workload stops only after whole passes over its vectors.
    """
    do_round = ROUNDS[bench.workload.mode]
    owed = bench.workload.setups - len(bench.setup_times) if interleave else 0
    step = seconds / (owed + 1)
    rounds, paused, start = 0, 0.0, perf_counter()
    while True:
        do_round(bench, led, rounds, tracer)
        rounds += 1
        elapsed = perf_counter() - start - paused
        if owed and elapsed >= step * len(bench.setup_times):
            t = perf_counter()
            bench.set_up()
            paused += perf_counter() - t
            owed -= 1
        whole = bench.workload.mode != "counted" or rounds % len(bench.vectors) == 0
        if elapsed >= seconds and whole:
            break
    for _ in range(owed):
        bench.set_up()
    return rounds


def tally_pass(bench, led):
    """Untimed tallied pass for the workloads whose timed calls are uncounted:
    the factored plans through the Four-Russians stage 2.  goertzel and
    blahut2008 are left out because their only counted stage 2 is the naive
    fold, which is slow at the batch size (about 11 s per vector at m=12)."""
    for i in range(bench.workload.counted_vectors):
        for tag in algorithms.FACTORED_TAGS:
            led.tallied_call(bench, tag, i, True, timed=False)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end_metrics(led: Ledger, setup_times: list[float]) -> dict:
    """Latency percentiles are taken over the calls of one round, each call
    at its kind's median latency: the machine's slow spells then move a
    percentile only when they fill half the run."""
    deciles = statistics.quantiles(led.round_medians().values(), n=10, method="inclusive")
    s2 = sum(adds for adds, _ in led.stage2_adds.values())
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "vectors_per_s": (led.vectors_per_s(), "1/s"),
        "call_p50_ms": (deciles[4] * 1e3, "ms"),
        "call_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "mults_per_vector": (led.stage1_mults / led.tallied, "count"),
        "adds_per_vector": ((led.stage1_adds + s2) / led.tallied, "count"),
    }


def binary_matrix_bytes(obj) -> int:
    """Bytes held by the binary matrices reachable from a plan's fields."""
    if isinstance(obj, BinaryMatrix):
        return sys.getsizeof(obj.rows) + sum(sys.getsizeof(r) for r in obj.rows)
    if isinstance(obj, (tuple, list)):
        return sum(binary_matrix_bytes(x) for x in obj if not isinstance(x, int))
    if dataclasses.is_dataclass(obj):
        return sum(binary_matrix_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def per_layer_metrics(tracer: Tracer, led: Ledger, plans: dict, setups: int, rounds: int,
                      vps_untraced: float, vps_traced: float) -> dict:
    """Set-up metrics are per set-up; apply metrics are per round, one round
    being one vector (one batch for batch_m11) through all six plans."""
    own = tracer.self_times()
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    build_self = apply_self = 0.0
    for (name, start, end, _, _, tag), self_s in zip(tracer.spans, own):
        key = name
        if name.startswith("algorithms.build_"):
            key = f"algorithms.build_s.{tag}"
            build_self += self_s  # build time minus the structure spans inside
        elif name in ("algorithms.apply", "algorithms.apply_batch"):
            key = f"{name}_s.{tag}"
            if name == "algorithms.apply":
                apply_self += self_s  # apply time minus the binmat spans inside
        total[key] = total.get(key, 0.0) + end - start
        calls[key] = calls.get(key, 0) + 1

    def per_setup(key):
        return total.get(key, 0.0) / setups

    out = {
        "field.build_field_s": (per_setup("field.build_field"), "s"),
        "field.build_field.calls": (calls.get("field.build_field", 0) / setups, "count"),
    }
    for fn in ("cyclotomic_cosets", "minimal_polynomial", "find_normal_basis"):
        key = f"structure.{fn}"
        out[f"{key}_s"] = (per_setup(key), "s")
        out[f"{key}.calls"] = (calls.get(key, 0) / setups, "count")
    out["structure.coord_solves"] = (tracer.counts["structure.coord_solves"] / setups, "count")
    for tag in algorithms.ALL_TAGS:
        out[f"algorithms.build_s.{tag}"] = (per_setup(f"algorithms.build_s.{tag}"), "s")
    out["algorithms.build_self_s"] = (build_self / setups, "s")
    for tag in algorithms.ALL_TAGS:
        out[f"algorithms.apply_s.{tag}"] = (total.get(f"algorithms.apply_s.{tag}", 0.0) / rounds, "s")
    out["algorithms.apply_self_s"] = (apply_self / rounds, "s")
    for tag in algorithms.ALL_TAGS:
        key = f"algorithms.apply_batch_s.{tag}"
        out[key] = (total.get(key, 0.0) / rounds, "s")
    out["algorithms.binary_matrix_bytes"] = (sum(binary_matrix_bytes(p) for p in plans.values()), "B")
    for kernel in ("naive", "four_russians"):
        out[f"binmat.{kernel}_s"] = (total.get(f"binmat.{kernel}", 0.0) / rounds, "s")
        out[f"binmat.{kernel}_calls"] = (calls.get(f"binmat.{kernel}", 0) / rounds, "count")
    tallied = max(led.tallied, 1)
    out["algorithms.stage1.mults_per_vector"] = (led.stage1_mults / tallied, "count")
    out["algorithms.stage1.adds_per_vector"] = (led.stage1_adds / tallied, "count")
    for kernel, (adds, n_calls) in led.stage2_adds.items():
        out[f"binmat.{kernel}.adds_per_call"] = (adds / max(n_calls, 1), "count")
    out["reference.naive_dft_batch_s"] = (total.get("reference.naive_dft_batch", 0.0), "s")
    out["trace.overhead_frac"] = (1.0 - vps_traced / vps_untraced, "ratio")
    return out


def layer_table(tracer: Tracer) -> list[str]:
    own = tracer.self_times()
    rows: dict[str, list[float]] = {}
    for span, self_s in zip(tracer.spans, own):
        layer = span[0].split(".", 1)[0]
        row = rows.setdefault(layer, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += self_s
    lines = [f"{'layer':<12} {'spans':>8} {'total_s':>10} {'self_s':>10}"]
    for layer in sorted(rows):
        n, tot, self_s = rows[layer]
        lines.append(f"{layer:<12} {n:>8} {tot:>10.4f} {self_s:>10.4f}")
    return lines


# ---------------------------------------------------------------------------
# Environment and the run.
# ---------------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """HEAD of root's own .git, read without running git (None outside a repo)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: Workload, seed: int, seconds: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gfft").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "workload": dataclasses.asdict(workload),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR):
    """Run one workload; returns the result dict, the lines to print before
    it and the first failure (None when every check passed)."""
    tracer = Tracer() if trace else None
    clock = HostClock(ticks=not trace)
    led = Ledger(workload, seed, clock)
    if trace:
        # Set-ups all traced up front; then half the time untraced, half traced.
        with tracer.installed():
            bench = Bench(workload, seed, clock, tracer)
            for _ in range(workload.setups - 1):
                bench.set_up()
        timed_loop(bench, led, seconds / 2)
        since = {k: len(v) for k, v in led.latencies.items()}
        with tracer.installed():
            rounds = timed_loop(bench, led, seconds / 2, tracer)
        vps_untraced = led.vectors_per_s()
        vps_traced = led.vectors_per_s(since)
    else:
        bench = Bench(workload, seed, clock, None)
        rounds = timed_loop(bench, led, seconds, interleave=True)
    tally_pass(bench, led)

    env = environment(workload, seed, seconds)
    lines = ["env " + json.dumps(env, sort_keys=True)]
    if trace:
        metrics = per_layer_metrics(tracer, led, bench.plans, workload.setups, rounds,
                                    vps_untraced, vps_traced)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"spans-{workload.name}-seed{seed}.json"
        path.write_text(json.dumps({"env": env, "counts": dict(tracer.counts),
                                    "spans": tracer.as_json()}))
        lines += layer_table(tracer)
        lines.append(f"trace.overhead_frac {metrics['trace.overhead_frac'][0]:.4f}  spans -> {path}")
    else:
        metrics = end_to_end_metrics(led, bench.setup_times)
        samples = {k: len(v) for k, v in led.latencies.items()}
        lines.append(f"rounds {rounds}; timed calls per kind {json.dumps(samples)}")
        lines.append(f"host speed {clock.speed():.3f} of the reference; wall-clock median "
                     f"set-up {statistics.median(bench.setup_wall):.4g} s, "
                     f"{led.vectors_per_s(wall=True):.4g} vectors per s")
    lines.append(f"mismatch_frac {led.failed / max(led.attempted, 1):.6g} "
                 f"({led.failed} of {led.attempted})")
    lines += [f"{name:<40} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines, led.first_failure


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result, lines, first_failure = run(WORKLOADS[args.workload], args.seed, args.seconds,
                                       bool(args.trace))
    for line in lines:
        print(line)
    if first_failure is not None:
        print("first failure: " + json.dumps(first_failure, default=str), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
