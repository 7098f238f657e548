"""Command-line front end: frequency tables, figure sweeps, evolutions, verification.

Exit codes: 0 success, 1 invalid configuration/usage, 2 verification failure,
3 I/O error. All CSV/JSON output is deterministic: fixed header order, 12
significant digits, sorted JSON keys, no timestamps.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .algebra import ConfigError, ParticleConfig
from .dynamics import (
    OBSERVABLE_TAGS,
    TimeSeries,
    default_time_grid,
    expectation_table,
    tone_amplitudes,
)
from .spectral import ResolutionError, beat_envelope, extract_peaks, match_frequencies, periodogram
from .spectrum import FrequencySet, free_zb_frequency, frequency_set, momentum_from_velocity
from .wavepacket import DEFAULT_MIX, gaussian_packet, single_mode

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_IO = 3

SI_C = 299792458.0
SI_HBAR = 1.054571817e-34

PEAK_TOL_REL = 1e-3
BEAT_TOL_REL = 1e-2
SPIN_X_DRIFT_TOL = 1e-10

_FIGURES = {
    "fig1": ("v", "omega_zb"),
    "fig2": ("v", "omega_zb2", "omega_L", "omega_sb"),
    "fig3": ("v", "omega_zb1", "omega_zb3", "omega_ob1"),
}


class CLIUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep exit codes under our control
        raise CLIUsageError(message)


@dataclass(frozen=True)
class UnitScales:
    """Multipliers from internal natural units to the requested output units."""

    momentum: float = 1.0
    frequency: float = 1.0
    time: float = 1.0
    energy: float = 1.0


def _write_text(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks in order to `out`, or to stdout; a generator is never held whole."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _csv_text(header: tuple[str, ...], rows: Iterable[tuple]) -> Iterator[str]:
    """CSV lines (header first) of float rows at 12 significant digits, each ending in a newline."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(f"{x:.12g}" for x in row) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_velocity(text: str) -> float:
    """Velocity as a fraction of c; accepts '0.6' or '0.6c'."""
    text = text.strip()
    if text.endswith(("c", "C")):
        text = text[:-1]
    return float(text)


def _parse_mix(text: str) -> tuple[complex, ...]:
    parts = [complex(chunk) for chunk in text.split(",")]
    if len(parts) != 4:
        raise ValueError("mix needs 4 comma-separated amplitudes (+up,+down,-up,-down)")
    if not all(cmath.isfinite(x) for x in parts):
        raise ConfigError(f"--mix amplitudes must be finite, got {text}")
    return tuple(parts)


def build_particle_config(args: argparse.Namespace) -> tuple[ParticleConfig, UnitScales]:
    """Resolve flags to a natural-unit ParticleConfig plus output scales.

    This is the only place that knows about units. Exactly one of --delta or
    the dipole/field group may be given, and the group gives
    delta = d*E - mu*B; with neither, the stock splitting 0.4 m*c^2 is used.
    SI inputs (delta in joules) are divided by m*c^2 here, and outputs are
    rescaled by m*c^2/hbar (frequencies), m*c (momenta), hbar/(m*c^2) (times)
    and m*c^2 (energies, such as delta).
    """
    field_group = [args.mu, args.dmom, args.bfield, args.efield]
    has_fields = any(x is not None for x in field_group)
    if args.delta is not None and has_fields:
        raise ConfigError("give either --delta or the (--mu/--dmom/--bfield/--efield) group, not both")
    delta = args.delta
    if has_fields:
        delta = (args.dmom or 0.0) * (args.efield or 0.0) - (args.mu or 0.0) * (args.bfield or 0.0)

    if args.units == "si":
        mass = args.mass
        if mass is None:
            raise ConfigError("--units si requires an explicit --mass in kg")
        if not (mass > 0 and math.isfinite(mass)):
            raise ConfigError(f"--mass must be a positive, finite number of kg, got {mass}")
        mc2 = mass * SI_C**2
        delta_j = delta if delta is not None else 0.4 * mc2
        scales = UnitScales(momentum=mass * SI_C, frequency=mc2 / SI_HBAR,
                            time=SI_HBAR / mc2, energy=mc2)
        return ParticleConfig(delta=delta_j / mc2), scales

    if args.mass not in (None, 1.0):
        raise ConfigError("natural units fix the mass at 1; --mass needs --units si")
    return ParticleConfig(delta=delta if delta is not None else 0.4), UnitScales()


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"--{name.replace('_', '-')} must be positive and finite, got {value}")


def _resolve_momentum(args: argparse.Namespace) -> tuple[float, float | None]:
    """(p, v or None) in natural units from --p / --v."""
    if args.p is not None and args.v is not None:
        raise ConfigError("give either --p or --v, not both")
    if args.v is not None:
        return momentum_from_velocity(args.v), args.v
    p = args.p if args.p is not None else 0.0
    _require_finite(p=p)
    return p, None


def _frequency_columns(p, cfg: ParticleConfig, scales: UnitScales) -> dict:
    """p, omega_zb and every FrequencySet field at momentum p (scalar or array), in output units."""
    fs = frequency_set(p, cfg)
    cols = {"p": p * scales.momentum, "omega_zb": free_zb_frequency(p) * scales.frequency}
    cols.update((name, getattr(fs, name) * scales.frequency) for name in FrequencySet.FIELDS)
    return cols


def cmd_frequencies(args: argparse.Namespace) -> int:
    cfg, scales = build_particle_config(args)
    p, v = _resolve_momentum(args)
    row = _frequency_columns(p, cfg, scales)
    row.update(delta=cfg.delta * scales.energy, v=v)
    if args.format == "json":
        text = [_json_text(row)]
    else:
        header = ("p", "delta", "omega_zb") + FrequencySet.FIELDS
        text = _csv_text(header, [tuple(row[h] for h in header)])
    _write_text(text, args.out)
    return EXIT_OK


#: Rows formatted per block by `sweep`: bounds the Python floats alive at once.
_SWEEP_BLOCK = 4096


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, scales = build_particle_config(args)
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    grid = np.linspace(0.0, args.v_max, args.steps)
    cols = _frequency_columns(momentum_from_velocity(grid), cfg, scales)
    cols["v"] = grid
    header = _FIGURES.get(args.figure, ("v", "p", "omega_zb") + FrequencySet.FIELDS)
    table = np.column_stack([np.broadcast_to(cols[h], grid.shape) for h in header])
    if args.format == "json":
        text = [_json_text([dict(zip(header, row)) for row in table.tolist()])]
    else:
        rows = (row for start in range(0, len(table), _SWEEP_BLOCK)
                for row in table[start:start + _SWEEP_BLOCK].tolist())
        text = _csv_text(header, rows)
    _write_text(text, args.out)
    return EXIT_OK


def _build_packet(args: argparse.Namespace, cfg: ParticleConfig):
    _require_finite(p0=args.p0, sigma_p=args.sigma_p)
    if args.modes < 1:
        raise ConfigError(f"--modes must be at least 1, got {args.modes}")
    mix = _parse_mix(args.mix) if args.mix else DEFAULT_MIX
    if args.modes == 1:
        return single_mode(args.p0, mix, cfg)
    return gaussian_packet(args.p0, args.sigma_p, mix, args.modes, cfg)


def _time_grid(args: argparse.Namespace, fs: FrequencySet) -> np.ndarray:
    if args.samples < 2:
        raise ConfigError(f"--samples must be at least 2, got {args.samples}")
    _require_positive(periods=args.periods)
    if args.t_max is not None:
        _require_positive(t_max=args.t_max)
        return np.linspace(0.0, args.t_max, args.samples, endpoint=False)
    return default_time_grid(fs, periods=args.periods, samples=args.samples)


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg, scales = build_particle_config(args)
    wp = _build_packet(args, cfg)
    fs = frequency_set(args.p0, cfg)
    t_grid = _time_grid(args, fs)
    tags = args.observable or list(OBSERVABLE_TAGS)
    for tag in tags:
        if tag not in OBSERVABLE_TAGS:
            raise ConfigError(f"unknown observable {tag!r}; expected one of {OBSERVABLE_TAGS}")
    table = expectation_table(wp, t_grid)
    times = (t_grid * scales.time).tolist()
    p0, delta = args.p0 * scales.momentum, cfg.delta * scales.energy
    if args.format == "json":
        doc = {tag: {"times": times, "values": table[tag].values.tolist()} for tag in tags}
        text = _json_text({"p0": p0, "delta": delta, "series": doc})
    else:
        # every tag shares the t cells, and each row of a tag the same tail
        t_cells = [f"{t:.12g}" for t in times]
        lines = ["t,value,observable,p0,delta"]
        for tag in tags:
            tail = f",{tag},{p0:.12g},{delta:.12g}"
            lines.extend(f"{t},{x:.12g}{tail}" for t, x in zip(t_cells, table[tag].values.tolist()))
        text = "\n".join(lines) + "\n"
    _write_text([text], args.out)
    return EXIT_OK


_BEAT_LABELS = {
    frozenset(("omega_L", "omega_zb2")): "omega_sb",
    frozenset(("omega_zb1", "omega_zb3")): "omega_ob1",
}


def _verify_expectations(wp) -> dict[str, dict]:
    """Expected tones per observable, from the packet's actual cross-term amplitudes.

    A tone family enters the expected set only if its coherent amplitude is
    nonzero for this packet, so structural nulls (the Larmor tone of the
    orbital channels at p = 0 or delta = 0, degenerate tones at delta = 0,
    symmetry cancellations of particular mixes) do not demand phantom peaks.
    """
    plan: dict[str, dict] = {"S_x": {"kind": "constant"}}
    for tag in ("S_y", "S_z", "alpha_x", "alpha_y", "alpha_z", "r_x", "r_y", "r_z"):
        amps = tone_amplitudes(wp, tag)
        spectral = {label: (omega, abs(amp)) for label, (omega, amp) in amps.items()
                    if omega > 1e-12}
        top = max((mag for _, mag in spectral.values()), default=0.0)
        tones: dict[str, float] = {}
        for label, (omega, mag) in spectral.items():
            if top > 1e-12 and mag > 1e-8 * top:
                tones[label] = omega
        # delta = 0 collapses omega_zb1/omega_zb3 onto one line
        if len(tones) == 2:
            (la, wa), (lb, wb) = tones.items()
            if abs(wa - wb) <= 1e-12 * max(wa, wb):
                tones = {la: wa}
        beat = None
        if len(tones) == 2:
            label = _BEAT_LABELS.get(frozenset(tones), "beat")
            omegas = sorted(tones.values())
            beat = (label, omegas[1] - omegas[0])
        plan[tag] = {"kind": "tones" if tones else "constant", "tones": tones,
                     "beat": beat, "detrend": tag.startswith("r")}
    return plan


def _detrended(series: TimeSeries) -> TimeSeries:
    coeffs = np.polynomial.polynomial.polyfit(series.times, series.values, 1)
    resid = series.values - np.polynomial.polynomial.polyval(series.times, coeffs)
    return TimeSeries(times=series.times, values=resid, observable_tag=series.observable_tag)


def run_verification(args: argparse.Namespace) -> dict:
    """Evolve the configured packet, spectrally match all nine observables."""
    cfg, _ = build_particle_config(args)
    wp = _build_packet(args, cfg)
    fs = frequency_set(args.p0, cfg)
    t_grid = _time_grid(args, fs)
    plan = _verify_expectations(wp)
    report: dict = {
        "config": {
            "delta": cfg.delta,
            "p0": args.p0,
            "modes": args.modes,
            "samples": args.samples,
            "periods": args.periods,
            "peak_tol_rel": PEAK_TOL_REL,
            "beat_tol_rel": BEAT_TOL_REL,
        },
        "observables": {},
    }
    table = expectation_table(wp, t_grid)
    overall = True
    for tag, want in plan.items():
        series = table[tag]
        entry: dict = {"kind": want["kind"]}
        if want["kind"] == "constant":
            if want.get("detrend"):
                resid = _detrended(series).values
            else:
                resid = series.values - series.values[0]
            drift = float(np.max(np.abs(resid)))
            entry["max_drift"] = drift
            scale = max(1.0, float(np.max(np.abs(series.values))))
            entry["pass"] = drift <= SPIN_X_DRIFT_TOL * scale
        else:
            work = _detrended(series) if want.get("detrend") else series
            peaks = extract_peaks(periodogram(work), max_peaks=8, rel_threshold=0.01)
            # a ResolutionError here is a run-parameter problem and propagates (exit 1)
            match = match_frequencies(peaks, want["tones"], tol_rel=PEAK_TOL_REL)
            entry["match"] = match.as_dict()
            ok = match.clean and match.complete
            if want["beat"] is not None:
                beat_name, beat_expected = want["beat"]
                try:
                    carrier, envelope = beat_envelope(work)
                except ValueError as exc:
                    # expected two-tone structure absent: a verification failure
                    entry["beat"] = {"label": beat_name, "expected": beat_expected,
                                     "error": str(exc)}
                    ok = False
                else:
                    beat_err = abs(envelope - beat_expected) / beat_expected
                    entry["beat"] = {
                        "label": beat_name,
                        "expected": beat_expected,
                        "measured": envelope,
                        "carrier": carrier,
                        "residual_rel": beat_err,
                    }
                    ok = ok and beat_err <= BEAT_TOL_REL
            entry["pass"] = ok
        report["observables"][tag] = entry
        overall = overall and entry["pass"]
    report["pass"] = overall
    return report


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(args)
    _write_text([_json_text(report)], args.out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def _add_particle_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta", type=float, default=None,
                     help="spin splitting (m*c^2 units natural, joule SI); default 0.4")
    sub.add_argument("--mass", type=float, default=None,
                     help="particle mass in kg; required with --units si (natural units: 1)")
    sub.add_argument("--mu", type=float, default=None, help="magnetic dipole moment")
    sub.add_argument("--dmom", type=float, default=None, help="electric dipole moment")
    sub.add_argument("--bfield", type=float, default=None, help="longitudinal magnetic field")
    sub.add_argument("--efield", type=float, default=None, help="longitudinal electric field")
    sub.add_argument("--units", choices=("natural", "si"), default="natural")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--config", default=None,
                     help="flat key = value file; flags given on the command line win")


def _add_packet_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p0", type=float, default=0.5, help="packet center momentum (m*c)")
    sub.add_argument("--sigma-p", dest="sigma_p", type=float, default=0.05,
                     help="packet momentum spread (m*c)")
    sub.add_argument("--modes", type=int, default=1, help="number of momentum-grid modes")
    sub.add_argument("--mix", default=None,
                     help="four comma-separated branch/spin amplitudes (+up,+down,-up,-down)")
    sub.add_argument("--t-max", dest="t_max", type=float, default=None,
                     help="total evolution time (default: --periods of the slowest tone)")
    sub.add_argument("--samples", type=int, default=4096)
    sub.add_argument("--periods", type=float, default=20.0)


def build_parser() -> _Parser:
    parser = _Parser(prog="zbsim", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    freq = subs.add_parser("frequencies", help="characteristic frequencies at one (p, delta)")
    freq.add_argument("--p", type=float, default=None,
                      help="momentum in m*c units (also under --units si)")
    freq.add_argument("--v", type=_parse_velocity, default=None,
                      help="velocity as a fraction of c, e.g. 0.6 or 0.6c")
    _add_particle_flags(freq)
    freq.set_defaults(func=cmd_frequencies)

    sw = subs.add_parser("sweep", help="frequency table over a velocity grid (figure data)")
    sw.add_argument("--figure", choices=tuple(_FIGURES), default=None,
                    help="named column subset; omit for the full table")
    sw.add_argument("--v-max", dest="v_max", type=float, default=0.99)
    sw.add_argument("--steps", type=int, default=100)
    _add_particle_flags(sw)
    sw.set_defaults(func=cmd_sweep)

    ev = subs.add_parser("evolve", help="expectation-value time series for a wavepacket")
    ev.add_argument("--observable", action="append", default=None,
                    help="observable tag (repeatable or comma-separated); default all nine")
    _add_packet_flags(ev)
    _add_particle_flags(ev)
    ev.set_defaults(func=cmd_evolve)

    vf = subs.add_parser("verify", help="evolve, extract peaks, match against closed forms")
    _add_packet_flags(vf)
    _add_particle_flags(vf)
    vf.set_defaults(func=cmd_verify)

    return parser


def _read_config_file(path: str) -> list[tuple[str, str]]:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CLIUsageError(f"bad config line (want key = value): {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            pairs.append((key.replace("_", "-"), value))
    return pairs


def _inject_config(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise CLIUsageError("--config needs a path")
    flags: list[str] = []
    for key, value in _read_config_file(argv[i + 1]):
        if key == "config":
            raise CLIUsageError("config files cannot nest --config")
        flags.extend([f"--{key}", value])
    # config values go right after the subcommand so explicit flags override them
    insert_at = 1 if argv and not argv[0].startswith("-") else 0
    return argv[:insert_at] + flags + argv[insert_at:]


def _flatten_observables(args: argparse.Namespace) -> None:
    if getattr(args, "observable", None):
        flat: list[str] = []
        for chunk in args.observable:
            flat.extend(tag.strip() for tag in chunk.split(",") if tag.strip())
        args.observable = flat


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _inject_config(argv)
        args = parser.parse_args(argv)
        _flatten_observables(args)
        return args.func(args)
    except CLIUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ResolutionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
