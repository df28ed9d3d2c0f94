#!/usr/bin/env python3
"""Run one vqesim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload noisy-2q --seed 1 --seconds 20 --trace 0

Run from the repository root; vqesim is imported from ./src. The workload's
operations repeat in whole rounds, one at a time in this one process, until
--seconds have passed (at least two rounds, so every run re-checks that a
repeat gives bit-identical output). Each operation is timed against a fixed
calibration kernel run just before it, which takes out the drift of a
shared host (see README). With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 the
public functions of every vqesim module are wrapped in spans and the
per-layer metrics are printed instead. A readable summary goes to stderr.
"""

import os
import sys
import time

T0 = time.perf_counter()
# One BLAS thread keeps the figures steady on a shared two-core machine (see README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = Path.cwd() / ".perfbench-out"
MIN_ROUNDS = 2
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("noisy-2q", "wide-8q", "cli-modes"))
    parser.add_argument("--seed", type=int, required=True, help="seed for the generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import vqesim from ./src, and only from there."""
    if not (SRC / "vqesim" / "__init__.py").is_file():
        sys.exit(f"vqesim sources not found under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import vqesim
    import vqesim.cli  # noqa: F401

    if Path(vqesim.__file__).resolve().parent != (SRC / "vqesim").resolve():
        sys.exit(f"imported vqesim from {vqesim.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and vqesim, then exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import vqesim, vqesim.cli"], env=env, check=True, timeout=60)
    return time.perf_counter() - t


def run_rounds(workload, ops, seconds, tracer, gauge):
    """Repeat the operations in whole rounds; returns per-round figures and failures.

    gauge() runs just before each operation and once more after the last, so
    each operation's time has a gauge reading on either side of it.
    """
    first = {}  # label -> (output, digest) of round 0
    raised = {}  # op id -> traceback
    wrong = {}  # op id -> why its output is wrong or irreproducible
    rounds = []
    before = getattr(workload, "before", None)
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
        times, gauges, evaluations, written = [], [], 0, 0
        for i, op in enumerate(ops):
            op_id = r * len(ops) + i
            if before is not None:
                before(op.label)
            gauges.append(gauge())
            if tracer is not None:
                tracer.current_op = op_id
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an operation that raises is counted, not fatal
                raised[op_id] = traceback.format_exc()
                continue
            finally:
                times.append(time.perf_counter() - t)
                if tracer is not None:
                    tracer.current_op = -1
            if op.collect is not None:
                out = op.collect(out)
            if tracer is not None:
                expected = workload.expected_shots(op.label, out)
                if tracer.shots[op_id] != expected:
                    wrong[op_id] = f"estimates reported {tracer.shots[op_id]} shots, expected {expected}"
            evaluations += workload.evaluations(op.label, out)
            written += workload.bytes_written(op.label, out)
            digest = workload.digest(op.label, out)
            if r == 0:
                first[op.label] = (out, digest)
            elif op.label not in first or digest != first[op.label][1]:
                wrong[op_id] = "output differs from the first round's"
        rounds.append({"times": times, "gauges": gauges, "evaluations": evaluations, "written": written})
        r += 1
    rounds[-1]["gauge_after"] = gauge()
    return rounds, first, raised, wrong


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import_s = time.perf_counter() - T0

    sys.path.insert(0, str(HERE))
    import calibrate
    import spans
    import workloads

    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    setups = []  # (import and set-up seconds, calibration seconds) per repeat
    for _ in range(SETUP_REPEATS):
        gauge = calibrate.kernel_seconds()
        t_import = import_seconds()
        t = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.workload, args.seed, workdir)
        workload.setup()
        ops = workload.operations()
        setups.append((t_import + time.perf_counter() - t, gauge))

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    rounds, first, raised, wrong = run_rounds(workload, ops, args.seconds, tracer, calibrate.kernel_seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, op in enumerate(ops):
        errors = workload.check(op.label, first[op.label][0]) if op.label in first else []
        if errors:
            # The later rounds reproduce the first, so they are wrong alike.
            for r in range(len(rounds)):
                if r * len(ops) + i not in raised:
                    wrong.setdefault(r * len(ops) + i, "; ".join(errors))
    correct = not wrong
    for op_id, reason in sorted({**raised, **wrong}.items()):
        print(f"FAILED {ops[op_id % len(ops)].label} (round {op_id // len(ops)}): {reason}", file=sys.stderr)

    round_s = [sum(r["times"]) for r in rounds]
    # Each operation's median over the rounds of its wall time at the
    # calibration kernel's reference speed (see README).
    scale = calibrate.REFERENCE_S
    gauges = [g for r in rounds for g in r["gauges"]] + [rounds[-1]["gauge_after"]]
    # The gauge around operation i of round r: the mean of the readings just
    # before and just after it.
    around = [(a + b) / 2 for a, b in zip(gauges, gauges[1:])]
    run_s = sum(
        statistics.median(rounds[r]["times"][i] * scale / around[r * len(ops) + i] for r in range(len(rounds)))
        for i in range(len(ops))
    )
    setup_s = statistics.median(s * scale / gauge for s, gauge in setups)
    if args.trace:
        profiles = [tracer.op_profile(range(r * len(ops), (r + 1) * len(ops))) for r in range(len(rounds))]
        for p in profiles[1:]:
            changed = [k for k in spans.COUNT_METRICS if p[k] != profiles[0][k]]
            if changed:
                correct = False
                print(f"FAILED per-round counts differ: {changed}", file=sys.stderr)
        values = spans.median_profile(profiles)
        values["cli.bytes_written"] = rounds[0]["written"]
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in values.items()}
        tracer.dump(OUT / f"spans-{args.workload}.json")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "evals_per_s": {"value": rounds[0]["evaluations"] / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds of {len(ops)} operations, "
          f"wall times {', '.join(f'{s:.3f}' for s in round_s)} s, {rounds[0]['evaluations']} evaluations "
          f"per round, {run_s:.3f} s at the reference speed; calibration kernel {statistics.median(gauges):.4f} s median over "
          f"[{min(gauges):.4f}, {max(gauges):.4f}] against {scale} s; in-process import {import_s:.3f} s",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": len(rounds) * len(ops),
        "failed": len(raised) + len(wrong),
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
