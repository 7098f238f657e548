"""zbsim benchmark: one workload per process, one JSON result line on stdout.

    python3 zbbench/run.py --workload verify_points --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; zbsim is imported from `src/`. An
operation is one zbsim command, passed as argv to `zbsim.cli.main` in this
process. After one warm-up operation the run repeats whole rounds of the
workload's seeded operations until the operations have taken `--seconds`.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it wraps
the zbsim modules (see `tracing`) and prints the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".zbbench_out"

#: Fewest fresh interpreters started per run to time `import zbsim.cli`; the median is reported.
SETUP_LAUNCHES = 9

#: The packet of evolve_packet: zbsim's documented default mix and width.
EVOLVE_MIX = (0.5, 0.5j, 0.5, 0.5)
EVOLVE_SIGMA_P = 0.05
EVOLVE_MODES = 64
#: The CLI default, passed explicitly so that a new default does not change the timed work
EVOLVE_SAMPLES = 4096


def _draw(rng: random.Random, lo: float, hi: float, signed: bool = False) -> float:
    """Uniform in [lo, hi] (either sign if `signed`), to six decimals for readable argv."""
    return round(rng.choice((-1.0, 1.0) if signed else (1.0,)) * rng.uniform(lo, hi), 6)


def verify_points(rng: random.Random) -> list[tuple[list[str], dict]]:
    """Single-mode `verify` at p0 in [0.3, 3], |delta| in [0.4, 0.8]: default mix and grid."""
    ops = []
    for _ in range(6):
        p0, delta = _draw(rng, 0.3, 3.0), _draw(rng, 0.4, 0.8, signed=True)
        ops.append((["verify", "--p0", repr(p0), "--delta", repr(delta)],
                    {"p0": p0, "delta": delta}))
    return ops


def evolve_packet(rng: random.Random) -> list[tuple[list[str], dict]]:
    """`evolve` of all nine observables for a 64-mode Gaussian packet, as CSV."""
    mix = ",".join(repr(a) for a in EVOLVE_MIX)
    ops = []
    for _ in range(2):
        p0, delta = _draw(rng, 0.3, 3.0), _draw(rng, 0.1, 0.8, signed=True)
        ops.append((["evolve", "--p0", repr(p0), "--delta", repr(delta), "--modes", str(EVOLVE_MODES),
                     "--samples", str(EVOLVE_SAMPLES), "--sigma-p", repr(EVOLVE_SIGMA_P), "--mix", mix],
                    {"p0": p0, "delta": delta, "sigma_p": EVOLVE_SIGMA_P, "modes": EVOLVE_MODES,
                     "samples": EVOLVE_SAMPLES, "mix": EVOLVE_MIX}))
    return ops


def sweep_table(rng: random.Random) -> list[tuple[list[str], dict]]:
    """Full `sweep` tables over (delta, v_max): ten of 10^4 rows, 10^5 rows a round."""
    steps = 10_000
    ops = []
    for _ in range(10):
        delta, v_max = _draw(rng, 0.05, 0.9, signed=True), _draw(rng, 0.5, 0.99)
        ops.append((["sweep", "--steps", str(steps), "--v-max", repr(v_max), "--delta", repr(delta)],
                    {"delta": delta, "v_max": v_max, "steps": steps}))
    return ops


def time_setup() -> float:
    """Wall time of one fresh interpreter that imports zbsim.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import zbsim.cli"], env=env, check=True)
    return time.perf_counter() - t0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from zbsim import cli  # the program under test

    make_ops, check, suffix = WORKLOADS[workload]
    ops = make_ops(random.Random(f"{workload}:{seed}"))
    work_dir = OUT / f"{workload}-{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    outs = [work_dir / f"op{i}{suffix}" for i in range(len(ops))]

    # Set-up is timed once per round, between rounds, so that its median spans
    # the same slow and fast phases of the machine as the operations do.
    setup_times: list[float] = []
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()

    def attempt(i: int) -> tuple[float, bool]:
        t0 = time.perf_counter()
        try:
            ok = cli.main(ops[i][0] + ["--out", str(outs[i])]) == 0
        except Exception as exc:  # a crash is a failed operation, not a benchmark fault
            print(f"{workload} op {i}: {exc!r}", file=sys.stderr)
            ok = False
        return time.perf_counter() - t0, ok

    attempt(0)  # warm-up
    if tracer:
        tracer.reset()
    durations, op_times, attempted, failed = [], [], 0, 0
    digests: dict[int, str] = {}
    faults: list[str] = []
    while sum(durations) < seconds:
        for i in range(len(ops)):
            dt, ok = attempt(i)
            attempted += 1
            durations.append(dt)
            if not ok:
                failed += 1
                continue
            op_times.append(dt)
            digest = _digest(outs[i])
            if digests.setdefault(i, digest) != digest:
                faults.append(f"op {i}: output differs between rounds")
        if not trace:
            setup_times.append(time_setup())
    while not trace and len(setup_times) < SETUP_LAUNCHES:
        setup_times.append(time_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i in digests:  # every round wrote the same bytes, so checking one covers all
        faults += [f"op {i}: {f}" for f in check(outs[i].read_text(), **ops[i][1])]
    shutil.rmtree(work_dir)
    for fault in faults[:20]:
        print(f"{workload}: {fault}", file=sys.stderr)

    p50 = statistics.median(op_times) if op_times else float("nan")
    print(f"{workload} seed {seed}: {attempted} ops, {failed} failed, op_p50_s {p50:.4f}, "
          f"trace {int(trace)}", file=sys.stderr)
    if tracer:
        metrics = tracing.layer_metrics(tracer, attempted)
        (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(
            {name: s.as_dict() for name, s in sorted(tracer.stats.items()) if s.calls}, indent=1))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p50_s": (p50, "s"),
            "ops_per_s": (len(op_times) / sum(durations), "ops/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


#: name -> (seeded operations of one round, output check, output file suffix)
WORKLOADS = {
    "verify_points": (verify_points, checks.check_verify, ".json"),
    "evolve_packet": (evolve_packet, checks.check_evolve, ".csv"),
    "sweep_table": (sweep_table, checks.check_sweep, ".csv"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zbsim" / "cli.py").is_file():
        print(f"error: no zbsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
