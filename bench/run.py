"""Run one silgrad benchmark workload and print its result as JSON.

    python3 bench/run.py --workload {train,correct,track} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from the repository root. The program under test is imported from
``src/`` beside this directory. A run sets up its workload three times
(set-up time is their median), warms up, then repeats whole rounds until
``--seconds`` have passed, checks the outputs of the rounds, and prints a
digest of its seeded outputs followed, as the last line, by
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from rounds run alternately with and without the tracer. Results and
spans are written under ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread keeps a run on one core, so that its tail latency does not
# depend on load on the other; README.md has the measurements.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUPS = 3


def _import_program():
    src = ROOT / "src"
    if not (src / "silgrad" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no silgrad package under {src}")
    sys.path[:0] = [str(src), str(BENCH_DIR)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", out_dir: Path = OUT_DIR) -> dict:
    """One run; returns the result object plus a "details" entry."""
    import numpy as np

    import checks
    import tracing
    import workloads
    from silgrad import synth

    wl = workloads.WORKLOADS[workload](workloads.SIZES[size][workload], seed,
                                       out_dir / "data")
    tracer = tracing.Tracer() if trace else None

    if tracer:
        tracer.install()
    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    if tracer:
        tracer.remove()
    wl.warmup()

    rounds, round_s, traced = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds or (trace and len(rounds) < 2):
        on = bool(tracer) and len(rounds) % 2 == 0
        if on:
            tracer.round = len(rounds)
            tracer.install()
        t0 = time.perf_counter()
        rnd = wl.round()
        round_s.append(time.perf_counter() - t0)
        if rounds:
            rnd.output = {}  # only the first round's outputs are checked
        rounds.append(rnd)
        traced.append(on)
        if on:
            tracer.remove()

    correct, reason, checked, rows = True, None, {}, []
    digests = {r.digest for r in rounds}
    try:
        if len(digests) != 1:
            raise checks.CheckFailed(f"rounds gave {len(digests)} different digests")
        checked = wl.check(rounds[0].output, synth.rng_stream(seed, 1 << 40))
    except checks.CheckFailed as exc:
        correct, reason = False, str(exc)

    if tracer:
        metrics = tracer.metrics()
        on = [t for t, flag in zip(round_s, traced) if flag]
        off = [t for t, flag in zip(round_s, traced) if not flag]
        metrics["trace.overhead_pct"] = {
            "value": (float(np.median(on)) / float(np.median(off)) - 1.0) * 100.0,
            "unit": "%"}
        tracer.write(out_dir / f"{workload}-seed{seed}-spans.jsonl")
    else:
        # every round repeats the same operations; an operation's cost is its
        # fastest repeat, since other load on a shared host slows whole
        # windows of a run (by up to 1.8x on a 2-core sandbox, see README.md)
        cost = np.min([r.latencies for r in rounds], axis=0)
        rows = wl.errors(rounds[0].output) if rounds[0].output else []
        metrics = {
            "setup_s": (float(np.median(setup_s)), "s"),
            "frames_per_s": (rounds[0].frames / float(cost.sum()), "1/s"),
            "latency_ms_p50": (float(np.percentile(cost, 50)) * 1e3, "ms"),
            "latency_ms_p90": (float(np.percentile(cost, 90)) * 1e3, "ms"),
            "translation_rmse_mm": (float(np.mean([e["translation"][0] for e in rows])), "mm"),
            "rotation_rmse_deg": (float(np.mean([e["rotation"][0] for e in rows])), "deg"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    return {"correct": correct,
            "attempted": sum(r.frames for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics,
            "details": {"digest": rounds[0].digest, "reason": reason,
                        "rounds": len(rounds), "round_s": round_s,
                        "setup_s": setup_s, "checks": checked, "pose_errors": rows}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "correct", "track"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    _import_program()

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    details = result.pop("details")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, "details": details}, indent=1, default=str))
    if details["reason"]:
        print(f"check failed: {details['reason']}", file=sys.stderr)
    print(f"digest {args.workload} {details['digest']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
