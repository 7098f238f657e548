"""Spectral peak extraction and matching against the closed-form frequencies.

The periodogram is a one-sided, mean-removed power spectrum whose bins sum to
the energy of the (windowed) samples. Peaks are located on the raw bins and
then refined, all peaks of a spectrum in one batch, by Newton steps on the log
power of the exact DTFT (its first two frequency derivatives come from the
same matrix product as the DTFT itself), each kept within one bin of its start
bin. This lands on the maximum of |X(omega)|^2 and pushes the frequency error
of a well-separated tone far below one bin (the tests hold it to
resolution/1000 for tones at least five bins apart).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TimeSeries
from .spectrum import FrequencySet

__all__ = [
    "ResolutionError",
    "Spectrum",
    "Peak",
    "PeakSet",
    "MatchReport",
    "periodogram",
    "extract_peaks",
    "match_frequencies",
    "beat_envelope",
]

#: Assumed worst-case error of a refined peak, as a fraction of the bin width.
#: The refiner converges on the DTFT maximum; what separates that maximum from
#: the true tone is leakage from other tones, well below this for tones a few
#: bins apart. The matching precondition requires the tolerance to exceed it.
REFINEMENT_FRACTION = 1.0 / 100.0

#: Newton refinement: iteration cap, and the step (in bins) taken uphill where
#: the log power is not concave.
_NEWTON_MAX_ITER = 50
_UPHILL_FRACTION = 0.25


class ResolutionError(ValueError):
    """The series is too short to resolve frequencies at the requested tolerance."""


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectrum over angular-frequency bins.

    `windowed` keeps the windowed, mean-removed samples so peak refinement can
    evaluate the exact DTFT off the bin grid.
    """

    freqs: np.ndarray
    power: np.ndarray
    resolution: float
    window: str
    windowed: np.ndarray
    dt: float

    def total_power(self) -> float:
        return float(np.sum(self.power))


@dataclass(frozen=True)
class Peak:
    omega: float
    power: float
    refined: bool


@dataclass(frozen=True)
class PeakSet:
    """Peaks sorted by power, strongest first."""

    peaks: tuple[Peak, ...]
    resolution: float

    def omegas(self) -> list[float]:
        return [pk.omega for pk in self.peaks]


@dataclass(frozen=True)
class Assignment:
    omega: float
    label: str
    expected_omega: float
    residual_rel: float
    power_fraction: float


@dataclass(frozen=True)
class MatchReport:
    """Peak-to-tone assignment with residuals and leftovers on both sides."""

    assignments: tuple[Assignment, ...]
    unexplained: tuple[Peak, ...]
    missing: tuple[str, ...]
    tol_rel: float

    @property
    def clean(self) -> bool:
        return not self.unexplained

    @property
    def complete(self) -> bool:
        return not self.missing

    def as_dict(self) -> dict:
        return {
            "assignments": [
                {
                    "omega": a.omega,
                    "label": a.label,
                    "expected_omega": a.expected_omega,
                    "residual_rel": a.residual_rel,
                    "power_fraction": a.power_fraction,
                }
                for a in self.assignments
            ],
            "unexplained": [{"omega": p.omega, "power": p.power} for p in self.unexplained],
            "missing": list(self.missing),
            "tol_rel": self.tol_rel,
            "clean": self.clean,
            "complete": self.complete,
        }


def _window(name: str, n: int) -> np.ndarray:
    if name == "rect":
        return np.ones(n)
    if name == "hann":
        return np.hanning(n)
    raise ValueError(f"unknown window {name!r}; expected 'rect' or 'hann'")


def periodogram(series: TimeSeries, window: str = "hann") -> Spectrum:
    """One-sided power spectrum of the mean-removed, windowed series.

    Bin k holds m_k*|X_k|^2/N (m = 2 except at DC/Nyquist), so the bins sum to
    the mean-square energy of the windowed samples (Parseval).
    """
    n = series.times.size
    if n < 64:
        raise ValueError(f"need at least 64 samples, got {n}")
    dt = series.dt
    steps = np.diff(series.times)
    if np.any(np.abs(steps - dt) > 1e-9 * dt):
        raise ValueError("sampling must be uniform")
    x = series.values - np.mean(series.values)
    w = _window(window, n)
    xw = x * w
    spec = np.fft.rfft(xw)
    power = np.abs(spec) ** 2 / n
    mult = np.full(power.size, 2.0)
    mult[0] = 1.0
    if n % 2 == 0:
        mult[-1] = 1.0
    power *= mult
    freqs = 2.0 * np.pi * np.fft.rfftfreq(n, dt)
    resolution = 2.0 * np.pi / (n * dt)
    power.setflags(write=False)
    freqs.setflags(write=False)
    xw.setflags(write=False)
    return Spectrum(freqs=freqs, power=power, resolution=resolution, window=window,
                    windowed=xw, dt=dt)


def _refine_peaks(spec: Spectrum, omega0s) -> np.ndarray:
    """Batched Newton ascent of log|X(omega)|^2 from each start bin in `omega0s`.

    One matrix product per iteration gives the DTFT X and its first two
    omega-derivatives at every peak. The time origin sits mid-series: |X| does
    not depend on it, and centring keeps X' and X'' free of a large phase term.
    """
    h = spec.resolution
    start = np.asarray(omega0s, dtype=float)
    omega = start.copy()
    if omega.size == 0:
        return omega
    x = spec.windowed
    t = spec.dt * (np.arange(x.size) - 0.5 * (x.size - 1))
    basis = np.stack([x, -1j * t * x, -(t * t) * x])
    minus_it = -1j * t
    for _ in range(_NEWTON_MAX_ITER):
        d0, d1, d2 = basis @ np.exp(np.outer(minus_it, omega))
        power = np.maximum(np.abs(d0) ** 2, 1e-300)
        g1 = 2.0 * np.real(np.conj(d0) * d1) / power
        g2 = 2.0 * (np.abs(d1) ** 2 + np.real(np.conj(d0) * d2)) / power - g1 * g1
        # away from a maximum the log power is not concave: walk uphill instead
        concave = g2 < 0.0
        step = np.where(concave, -g1 / np.where(concave, g2, -1.0),
                        np.sign(g1) * _UPHILL_FRACTION * h)
        moved = np.clip(omega + step, start - h, start + h)
        largest = float(np.max(np.abs(moved - omega)))
        omega = moved
        if largest < 1e-12 * h:
            break
    return omega


def extract_peaks(spec: Spectrum, max_peaks: int = 8, rel_threshold: float = 0.01) -> PeakSet:
    """Local maxima above rel_threshold of the strongest non-DC bin, refined sub-bin."""
    power = spec.power
    if power.size < 3:
        return PeakSet(peaks=(), resolution=spec.resolution)
    top = float(np.max(power[1:]))
    if top <= 0.0:
        return PeakSet(peaks=(), resolution=spec.resolution)
    cut = rel_threshold * top
    inner = power[1:-1]
    is_peak = (inner >= cut) & (inner > power[:-2]) & (inner >= power[2:])
    idx = np.flatnonzero(is_peak) + 1
    # stable: equal powers keep ascending-frequency order
    idx = idx[np.argsort(-power[idx], kind="stable")][:max_peaks]
    omegas = _refine_peaks(spec, spec.freqs[idx])
    peaks = tuple(Peak(omega=float(w), power=float(power[k]), refined=True)
                  for k, w in zip(idx, omegas))
    return PeakSet(peaks=peaks, resolution=spec.resolution)


def _expected_tones(expected) -> dict[str, float]:
    if isinstance(expected, FrequencySet):
        return {k: v for k, v in expected.tones().items() if v > 1e-12}
    return {str(k): float(v) for k, v in dict(expected).items()}


def match_frequencies(peaks: PeakSet, expected, tol_rel: float = 1e-3) -> MatchReport:
    """Assign each peak to the nearest expected tone within tol_rel.

    `expected` is a FrequencySet (its four tones, zeros dropped) or a mapping
    of label -> angular frequency. Raises ResolutionError when the series
    backing `peaks` is too short for the requested tolerance to be meaningful.
    """
    tones = _expected_tones(expected)
    if not tones:
        raise ValueError("no expected tones to match against")
    omega_min = min(tones.values())
    if tol_rel * omega_min < peaks.resolution * REFINEMENT_FRACTION:
        raise ResolutionError(
            f"tolerance {tol_rel} at omega_min={omega_min} needs resolution below "
            f"{tol_rel * omega_min / REFINEMENT_FRACTION}, got {peaks.resolution}"
        )
    total = max((pk.power for pk in peaks.peaks), default=0.0)
    assignments = []
    unexplained = []
    matched_labels = set()
    for pk in peaks.peaks:
        best = min(tones.items(), key=lambda kv: abs(pk.omega - kv[1]) / kv[1])
        label, omega_exp = best
        residual = abs(pk.omega - omega_exp) / omega_exp
        if residual <= tol_rel:
            assignments.append(
                Assignment(
                    omega=pk.omega,
                    label=label,
                    expected_omega=omega_exp,
                    residual_rel=residual,
                    power_fraction=pk.power / total if total > 0 else 0.0,
                )
            )
            matched_labels.add(label)
        else:
            unexplained.append(pk)
    missing = tuple(sorted(set(tones) - matched_labels))
    return MatchReport(
        assignments=tuple(assignments),
        unexplained=tuple(unexplained),
        missing=missing,
        tol_rel=tol_rel,
    )


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    """Positive-frequency analytic signal via the FFT (real input)."""
    n = x.size
    spec = np.fft.fft(x)
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
        gain[1 : n // 2] = 2.0
    else:
        gain[1 : (n + 1) // 2] = 2.0
    return np.fft.ifft(spec * gain)


def beat_envelope(series: TimeSeries, window: str = "hann") -> tuple[float, float]:
    """(carrier omega, envelope omega) of a two-tone series.

    The envelope is the magnitude of the analytic signal; its dominant
    spectral line sits at the tone difference |omega_a - omega_b|. Edge
    samples (1/16 each side) are dropped before the envelope transform to
    suppress end artifacts of the finite analytic signal.
    """
    spec = periodogram(series, window)
    peaks = extract_peaks(spec, max_peaks=8, rel_threshold=0.01)
    if len(peaks.peaks) != 2:
        raise ValueError(
            f"beat extraction needs exactly two tones, found {len(peaks.peaks)}"
        )
    carrier = peaks.peaks[0].omega
    x = series.values - np.mean(series.values)
    env = np.abs(_analytic_signal(x))
    trim = series.times.size // 16
    env = env[trim : env.size - trim]
    # re-based timestamps are fine: peak frequencies are translation-invariant
    env_series = TimeSeries(
        times=series.times[: env.size], values=env, observable_tag="envelope"
    )
    env_peaks = extract_peaks(periodogram(env_series, window), max_peaks=4,
                              rel_threshold=0.05)
    if not env_peaks.peaks:
        raise ValueError("no envelope modulation found")
    return float(carrier), float(env_peaks.peaks[0].omega)
