"""Output checks of the three workloads.

Each check takes one operation's output text and the inputs that produced
it, and returns a list of faults (empty when the output is correct). The
expected values come from `reference`, never from saved outputs.
"""

from __future__ import annotations

import json

import numpy as np

import reference

#: Spectral tone families the paper predicts per observable; S_x is conserved.
TONE_FAMILIES = {
    **{tag: {"omega_L", "omega_zb2"} for tag in ("S_y", "S_z", "alpha_y", "alpha_z", "r_y", "r_z")},
    **{tag: {"omega_zb1", "omega_zb3"} for tag in ("alpha_x", "r_x")},
}
OBSERVABLES = ("S_x", "S_y", "S_z", "alpha_x", "alpha_y", "alpha_z", "r_x", "r_y", "r_z")

EXPECTED_REL = 1e-12
SERIES_REL = 1e-8
SWEEP_REL = 1e-10
SPIN_X_DRIFT = 1e-10
PRINTED_REL = 1e-11  # CSV cells carry 12 significant digits
SWEEP_REQUIRED = ("v", "p", "omega_L", "omega_zb1", "omega_zb2", "omega_zb3", "omega_sb", "omega_ob1")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_verify(text: str, p0: float, delta: float) -> list[str]:
    """`zbsim verify` report at a single-mode point against the closed-form tones."""
    faults: list[str] = []
    report = json.loads(text)
    if report.get("pass") is not True:
        faults.append("report does not pass")
    cfg = report["config"]
    if cfg["p0"] != p0 or cfg["delta"] != delta:
        faults.append(f"report config {cfg['p0']}, {cfg['delta']} is not the input {p0}, {delta}")
    peak_tol, beat_tol = cfg["peak_tol_rel"], cfg["beat_tol_rel"]
    ref = {label: abs(float(w)) for label, w in reference.tones(p0, delta).items()}
    obs = report["observables"]
    if set(obs) != set(OBSERVABLES):
        faults.append(f"observables {sorted(obs)}")
        return faults
    if obs["S_x"]["kind"] != "constant":
        faults.append("S_x is not constant")
    for tag, family in TONE_FAMILIES.items():
        match = obs[tag].get("match")
        if match is None:
            faults.append(f"{tag}: no tones matched")
            continue
        labels = {a["label"] for a in match["assignments"]}
        if labels != family or match["missing"] or match["unexplained"]:
            faults.append(f"{tag}: tones {sorted(labels)}, missing {match['missing']}, "
                          f"{len(match['unexplained'])} unexplained; want {sorted(family)}")
        for a in match["assignments"]:
            want = ref.get(a["label"])
            if want is None:
                continue
            if _rel(a["expected_omega"], want) > EXPECTED_REL:
                faults.append(f"{tag}: expected {a['label']} = {a['expected_omega']}, reference {want}")
            if _rel(a["omega"], want) > peak_tol:
                faults.append(f"{tag}: measured {a['label']} = {a['omega']}, reference {want}")
        lo, hi = sorted(ref[label] for label in family)
        beat = obs[tag].get("beat") or {}
        if "measured" not in beat:
            faults.append(f"{tag}: no beat measured")
        elif _rel(beat["measured"], hi - lo) > beat_tol:
            faults.append(f"{tag}: beat {beat['measured']}, reference {hi - lo}")
    return faults


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_evolve(text: str, p0: float, delta: float, sigma_p: float, modes: int,
                 samples: int, mix: tuple) -> list[str]:
    """`zbsim evolve` CSV of all nine observables against the reference evolution."""
    header, rows = _parse_csv(text)
    if header != ["t", "value", "observable", "p0", "delta"]:
        return [f"header {header}"]
    series: dict[str, list[tuple[float, float]]] = {}
    for t, value, tag, row_p0, row_delta in rows:
        if _rel(float(row_p0), p0) > PRINTED_REL or _rel(float(row_delta), delta) > PRINTED_REL:
            return [f"row p0, delta = {row_p0}, {row_delta}; input {p0}, {delta}"]
        series.setdefault(tag, []).append((float(t), float(value)))
    if tuple(series) != OBSERVABLES:
        return [f"observables {list(series)}"]
    data = {tag: np.array(pairs) for tag, pairs in series.items()}
    printed = data["S_x"][:, 0]
    faults: list[str] = []
    if printed.size != samples or printed[0] != 0.0 or not np.all(np.diff(printed) > 0):
        faults.append(f"time grid of {printed.size} samples does not start at 0 and increase")
    # The series are evaluated on a uniform grid t_k = k*dt, but t is printed to
    # 12 digits: at t ~ 1e3 that moves a sample by up to 5e-9, and a tone of
    # omega ~ 6 by 3e-8 in value. So the reference runs on the grid refitted
    # from all printed times, which pins dt to ~1e-14 relative.
    k = np.arange(printed.size, dtype=float)
    times = k * (np.dot(k, printed) / np.dot(k, k))
    if np.any(np.abs(printed - times) > PRINTED_REL * times):
        faults.append("time grid is not uniform")
    ref = reference.packet_series(p0, sigma_p, mix, modes, delta, times)
    for tag, arr in data.items():
        if not np.array_equal(arr[:, 0], printed):
            faults.append(f"{tag}: times differ from S_x's")
            continue
        # |S| <= 1/2 and |alpha| <= 1, so 1 is the unit scale of the bounded observables
        scale = max(1.0, float(np.max(np.abs(ref[tag]))))
        err = np.abs(arr[:, 1] - ref[tag])
        worst = int(np.argmax(err))
        if err[worst] > SERIES_REL * scale:
            faults.append(f"{tag}[{worst}] = {arr[worst, 1]}, reference {ref[tag][worst]}")
    spin_x = data["S_x"][:, 1]
    if np.max(np.abs(spin_x - spin_x[0])) > SPIN_X_DRIFT:
        faults.append("<S_x> drifts")
    for tag in ("r_x", "r_y", "r_z"):
        if data[tag][0, 1] != 0.0:
            faults.append(f"{tag}(0) = {data[tag][0, 1]}")
    return faults


def check_sweep(text: str, delta: float, v_max: float, steps: int) -> list[str]:
    """`zbsim sweep` full table against the closed forms and their identities."""
    header, rows = _parse_csv(text)
    ref = reference.sweep_columns(delta, v_max, steps)
    unknown = [h for h in header if h not in ref]
    absent = [h for h in SWEEP_REQUIRED if h not in header]
    if unknown or absent or len(rows) != steps:
        return [f"columns {header} ({len(rows)} rows): unknown {unknown}, absent {absent}"]
    table = np.array(rows, dtype=float)
    col = {h: table[:, i] for i, h in enumerate(header)}
    faults: list[str] = []
    for h, got in col.items():
        err = np.abs(got - ref[h]) - SWEEP_REL * np.abs(ref[h])
        worst = int(np.argmax(err))
        if err[worst] > 0.0:
            faults.append(f"{h}[{worst}] = {got[worst]}, reference {ref[h][worst]}")
    w_l = col["omega_L"]
    if np.any(np.abs(col["omega_ob1"] - 2.0 * w_l) > SWEEP_REL * np.abs(2.0 * w_l)):
        faults.append("omega_ob1 != 2*omega_L")
    sb = col["omega_zb2"] - w_l
    if np.any(np.abs(col["omega_sb"] - sb) > SWEEP_REL * np.abs(sb)):
        faults.append("omega_sb != omega_zb2 - omega_L")
    if not (np.all(np.abs(w_l) < 2.0) and np.all(col["omega_zb2"] >= 2.0)):
        faults.append("tones cross the forbidden band 2*m*c^2/hbar")
    # rounding to printed digits is monotone, so printed columns keep the order
    for h in ("omega_zb1", "omega_zb2", "omega_zb3"):
        if np.any(np.diff(col[h]) < 0.0) or not col[h][-1] > col[h][0]:
            faults.append(f"{h} does not rise with v")
    if np.any(np.diff(np.abs(w_l)) > 0.0) or not abs(w_l[-1]) < abs(w_l[0]):
        faults.append("|omega_L| does not fall with v")
    return faults
