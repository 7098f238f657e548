"""Self-tests of the workload checks: each must pass a real output and reject a corrupted one.

    python3 zbbench/selftest.py

Runs the first operation of each workload (seed 0) through `zbsim.cli.main`,
checks the output, then checks three corruptions that must be rejected: a
sweep frequency moved by 1e-6 relative, one evolved sample changed, and a
verify assignment moved off its tone. Exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import run


def _output(workload: str) -> tuple[str, dict, object]:
    make_ops, check, suffix = run.WORKLOADS[workload]
    argv, params = make_ops(random.Random(f"{workload}:0"))[0]
    from zbsim import cli

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out = Path(tmp) / f"out{suffix}"
        if cli.main(argv + ["--out", str(out)]) != 0:
            raise SystemExit(f"{workload}: zbsim {' '.join(argv)} failed")
        return out.read_text(), params, check


def _edit_csv_cell(text: str, row: int, column: str, edit) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[row].split(",")
    i = header.index(column)
    cells[i] = f"{edit(float(cells[i])):.12g}"
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def corrupt_sweep(text: str) -> str:
    return _edit_csv_cell(text, 4321, "omega_zb2", lambda w: w * (1.0 + 1e-6))


def corrupt_evolve(text: str) -> str:
    row = 1 + 5 * run.EVOLVE_SAMPLES + 123  # one sample of alpha_z
    return _edit_csv_cell(text, row, "value", lambda x: x + 1e-6)


def corrupt_verify(text: str) -> str:
    report = json.loads(text)
    tol = report["config"]["peak_tol_rel"]
    assignment = report["observables"]["alpha_y"]["match"]["assignments"][0]
    assignment["omega"] *= 1.0 + 2.0 * tol
    return json.dumps(report)


CASES = {
    "verify_points": corrupt_verify,
    "evolve_packet": corrupt_evolve,
    "sweep_table": corrupt_sweep,
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bad = 0
    for workload, corrupt in CASES.items():
        text, params, check = _output(workload)
        clean, corrupted = check(text, **params), check(corrupt(text), **params)
        ok = not clean and bool(corrupted)
        bad += not ok
        print(f"{workload}: real output {'passes' if not clean else clean}; "
              f"corrupted output {'rejected: ' + corrupted[0] if corrupted else 'ACCEPTED'}")
    print("selftest", "FAIL" if bad else "PASS")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
