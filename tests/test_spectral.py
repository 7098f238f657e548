from dataclasses import replace

import numpy as np
import pytest

from zbsim.dynamics import TimeSeries, default_time_grid, expectation_table
from zbsim.spectral import (
    ResolutionError,
    beat_envelope,
    extract_peaks,
    match_frequencies,
    periodogram,
)
from zbsim.spectrum import frequency_set
from zbsim.wavepacket import DEFAULT_MIX, single_mode

N = 4096
DT = 0.05
RES = 2.0 * np.pi / (N * DT)
T = np.arange(N) * DT


def tone_series(spec):
    """spec: iterable of (amplitude, omega, phase)."""
    x = np.zeros(N)
    for a, w, ph in spec:
        x = x + a * np.cos(w * T + ph)
    return TimeSeries(T, x, "synthetic")


def beat_of(series):
    """beat_envelope on the peaks extracted with verify's settings."""
    return beat_envelope(series, extract_peaks(periodogram(series)))


class TestPeriodogram:
    def test_single_tone_lands_in_one_bin(self):
        w0 = 137.3 * RES
        spec = periodogram(tone_series([(1.0, w0, 0.4)]))
        k = int(np.argmax(spec.power))
        assert abs(spec.freqs[k] - w0) <= spec.resolution

    def test_resolution_definition(self):
        spec = periodogram(tone_series([(1.0, 100 * RES, 0.0)]))
        assert spec.resolution == pytest.approx(2.0 * np.pi / (N * DT), rel=1e-12)

    @pytest.mark.parametrize("window", ["rect", "hann"])
    def test_parseval(self, window):
        series = tone_series([(1.0, 100.25 * RES, 0.3), (0.4, 300.7 * RES, 1.1)])
        spec = periodogram(series, window)
        energy = float(np.sum(spec.windowed**2))
        assert spec.total_power() == pytest.approx(energy, rel=1e-8)

    def test_rect_parseval_against_raw_series(self):
        series = tone_series([(1.0, 100.25 * RES, 0.3)])
        spec = periodogram(series, "rect")
        detrended = series.values - np.mean(series.values)
        assert spec.total_power() == pytest.approx(float(np.sum(detrended**2)), rel=1e-8)

    def test_mean_removed(self):
        series = TimeSeries(T, np.full(N, 7.3), "flat")
        spec = periodogram(series)
        assert np.max(spec.power) <= 1e-20

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            periodogram(TimeSeries(T[:32], np.zeros(32), "short"))

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError):
            periodogram(tone_series([(1.0, 100 * RES, 0.0)]), window="kaiser")


class TestExtractPeaks:
    def test_constant_series_has_no_peaks(self):
        spec = periodogram(TimeSeries(T, np.full(N, 2.5), "flat"))
        assert extract_peaks(spec).peaks == ()

    @pytest.mark.parametrize("offset", [0.0, 0.25, 0.5])
    def test_single_tone_refined_far_below_bin(self, offset):
        w0 = (100 + offset) * RES
        pk = extract_peaks(periodogram(tone_series([(1.0, w0, 0.3)])))
        assert len(pk.peaks) == 1
        assert abs(pk.peaks[0].omega - w0) <= RES / 1000.0
        assert pk.peaks[0].refined

    def test_rect_window_refinement_within_spec(self):
        w0 = 100.5 * RES
        pk = extract_peaks(periodogram(tone_series([(1.0, w0, 0.3)]), "rect"))
        assert abs(pk.peaks[0].omega - w0) <= RES / 100.0

    def test_round_trip_random_tones(self):
        # tones >= 5 bins apart recover to well below the resolution/10 contract
        rng = np.random.default_rng(42)
        for _ in range(8):
            while True:
                bins = np.sort(rng.uniform(20, N / 4, size=3))
                if np.all(np.diff(bins) >= 5):
                    break
            omegas = bins * RES
            amps = rng.uniform(0.3, 1.0, size=3)
            phases = rng.uniform(0, 2 * np.pi, size=3)
            pk = extract_peaks(periodogram(tone_series(zip(amps, omegas, phases))))
            found = np.sort(pk.omegas())
            assert found.size == 3
            assert np.max(np.abs(found - omegas)) <= RES / 1000.0

    def test_threshold_keeps_weak_tone(self):
        # 25:1 power ratio stays above the 1% cut; 10^-5 amplitude does not
        series = tone_series([(1.0, 100.3 * RES, 0.0), (0.2, 300.6 * RES, 0.7),
                              (1e-5, 700.2 * RES, 0.2)])
        pk = extract_peaks(periodogram(series), rel_threshold=0.01)
        assert len(pk.peaks) == 2

    def test_peaks_sorted_by_power(self):
        series = tone_series([(0.5, 100.3 * RES, 0.0), (1.0, 300.6 * RES, 0.7)])
        pk = extract_peaks(periodogram(series))
        assert pk.peaks[0].power >= pk.peaks[1].power
        assert pk.peaks[0].omega == pytest.approx(300.6 * RES, abs=RES)

    def test_selection_matches_loop_rule(self):
        # reference: the per-bin loop rule, stable-sorted by power (ties keep bin order)
        rng = np.random.default_rng(7)
        noisy = periodogram(TimeSeries(T, rng.normal(size=N), "noise"))
        tied = np.zeros(noisy.power.size)
        tied[[40, 90, 140, 300]] = [1.0, 0.5, 1.0, 0.5]
        for spec, cut in ((noisy, 0.3), (replace(noisy, power=tied), 0.01)):
            p = spec.power
            ref = [k for k in range(1, p.size - 1)
                   if p[k] >= cut * np.max(p[1:]) and p[k] > p[k - 1] and p[k] >= p[k + 1]]
            ref.sort(key=lambda k: -p[k])
            got = extract_peaks(spec, max_peaks=8, rel_threshold=cut)
            assert [pk.power for pk in got.peaks] == [float(p[k]) for k in ref[:8]]
            assert all(abs(pk.omega - spec.freqs[k]) <= RES
                       for pk, k in zip(got.peaks, ref[:8]))

    def test_max_peaks_cap(self):
        series = tone_series([(1.0, (60 + 40 * i) * RES, 0.1 * i) for i in range(6)])
        pk = extract_peaks(periodogram(series), max_peaks=3)
        assert len(pk.peaks) == 3


def dense_dtft_maximum(spec, center, half_width):
    """argmax of |X(omega)|^2 on [center - half_width, center + half_width].

    Plain DTFT on the series' own time axis, searched on grids that zoom in
    until the spacing is below 1e-7 bin; independent of the refiner.
    """
    t = spec.dt * np.arange(spec.windowed.size)
    lo, hi = center - half_width, center + half_width
    while True:
        grid = np.linspace(lo, hi, 201)
        power = np.abs(np.exp(-1j * np.outer(grid, t)) @ spec.windowed) ** 2
        best = grid[int(np.argmax(power))]
        step = grid[1] - grid[0]
        if step < 1e-7 * spec.resolution:
            return best
        lo, hi = best - 2.0 * step, best + 2.0 * step


class TestNewtonRefinement:
    """Refined peaks sit on the maximum of |X(omega)|^2 to 1e-6 bin."""

    @pytest.mark.parametrize("window", ["hann", "rect"])
    @pytest.mark.parametrize("offset", [0.0, 0.25, 0.5, 0.9])
    def test_single_tone_on_dtft_maximum(self, window, offset):
        w0 = (100 + offset) * RES
        spec = periodogram(tone_series([(1.0, w0, 0.3)]), window)
        pk = extract_peaks(spec)
        assert len(pk.peaks) == 1
        target = dense_dtft_maximum(spec, w0, RES)
        assert abs(pk.peaks[0].omega - target) <= 1e-6 * RES

    # rect, 3.5 bins, 0.3 amplitude: unclipped steps carry the weak peak 1.7 bins off
    @pytest.mark.parametrize("window,sep,amp,phase", [("hann", 3.0, 0.8, 1.3),
                                                      ("rect", 3.5, 0.3, 1.2)])
    def test_close_tones_stay_on_their_own_peaks(self, window, sep, amp, phase):
        w_lo, w_hi = 200.0 * RES, (200.0 + sep) * RES
        spec = periodogram(tone_series([(1.0, w_lo, 0.2), (amp, w_hi, phase)]), window)
        pk = extract_peaks(spec)
        assert len(pk.peaks) == 2
        low, high = sorted(pk.omegas())
        for got, w0 in ((low, w_lo), (high, w_hi)):
            assert abs(got - w0) < 0.1 * RES
            assert abs(got - dense_dtft_maximum(spec, w0, RES)) <= 1e-6 * RES

    def test_eight_peaks_refined_in_one_batch(self):
        bins = 60.0 + 45.0 * np.arange(8) + np.array([0.0, 0.1, 0.25, 0.4, 0.5, 0.65, 0.8, 0.9])
        amps = np.linspace(1.0, 0.3, 8)
        spec = periodogram(tone_series(zip(amps, bins * RES, 0.7 * np.arange(8))))
        pk = extract_peaks(spec, max_peaks=8)
        assert len(pk.peaks) == 8
        found = np.sort(pk.omegas())
        for got, b in zip(found, bins):
            assert abs(got - dense_dtft_maximum(spec, b * RES, RES)) <= 1e-6 * RES


class TestMatchFrequencies:
    def two_tone_peaks(self):
        series = tone_series([(1.0, 100.3 * RES, 0.0), (0.5, 300.6 * RES, 0.7)])
        return extract_peaks(periodogram(series))

    def test_assignments_and_residuals(self):
        pk = self.two_tone_peaks()
        expected = {"low": 100.3 * RES, "high": 300.6 * RES}
        rep = match_frequencies(pk, expected, tol_rel=1e-3)
        assert rep.clean and rep.complete
        assert {a.label for a in rep.assignments} == {"low", "high"}
        for a in rep.assignments:
            assert a.residual_rel <= 1e-5
        strongest = max(rep.assignments, key=lambda a: a.power_fraction)
        assert strongest.label == "low" and strongest.power_fraction == 1.0

    def test_unexplained_peak_flagged(self):
        pk = self.two_tone_peaks()
        rep = match_frequencies(pk, {"low": 100.3 * RES}, tol_rel=1e-3)
        assert not rep.clean
        assert len(rep.unexplained) == 1
        assert rep.unexplained[0].omega == pytest.approx(300.6 * RES, abs=RES)

    def test_missing_tone_listed(self):
        pk = self.two_tone_peaks()
        expected = {"low": 100.3 * RES, "high": 300.6 * RES, "ghost": 500.0 * RES}
        rep = match_frequencies(pk, expected, tol_rel=1e-3)
        assert rep.missing == ("ghost",)
        assert rep.clean and not rep.complete

    def test_insufficient_resolution_is_loud(self):
        short = TimeSeries(T[:64], np.cos(2.0 * T[:64]), "short")
        pk = extract_peaks(periodogram(short))
        with pytest.raises(ResolutionError):
            match_frequencies(pk, {"tone": 2.0}, tol_rel=1e-3)

    def test_frequency_set_input(self, cfg):
        fs = frequency_set(0.5, cfg)
        wp = single_mode(0.5, DEFAULT_MIX, cfg)
        t = default_time_grid(fs)
        pk = extract_peaks(periodogram(expectation_table(wp, t)["S_y"]))
        rep = match_frequencies(pk, fs, tol_rel=1e-3)
        assert rep.clean
        assert {a.label for a in rep.assignments} == {"omega_L", "omega_zb2"}
        # the longitudinal tones are absent from a spin series, by design
        assert set(rep.missing) == {"omega_zb1", "omega_zb3"}

    def test_report_serializes(self):
        rep = match_frequencies(self.two_tone_peaks(), {"low": 100.3 * RES, "high": 300.6 * RES})
        doc = rep.as_dict()
        assert doc["clean"] and doc["complete"]
        assert len(doc["assignments"]) == 2


class TestBeatEnvelope:
    def test_synthetic_difference_of_tones(self):
        series = tone_series([(1.0, 2.0, 0.3), (1.0, 1.2, 1.0)])
        carrier, envelope = beat_of(series)
        assert envelope == pytest.approx(0.8, rel=1e-2)

    def test_carrier_is_dominant_tone(self):
        series = tone_series([(1.0, 2.0, 0.3), (0.6, 1.2, 1.0)])
        carrier, envelope = beat_of(series)
        assert carrier == pytest.approx(2.0, rel=1e-3)
        assert envelope == pytest.approx(0.8, rel=1e-2)

    def test_single_tone_rejected(self):
        with pytest.raises(ValueError):
            beat_of(tone_series([(1.0, 2.0, 0.0)]))

    def test_three_tones_rejected(self):
        series = tone_series([(1.0, 1.0, 0.0), (1.0, 2.0, 0.2), (1.0, 3.1, 0.4)])
        with pytest.raises(ValueError):
            beat_of(series)

    @pytest.mark.parametrize("count", [1, 3])
    def test_reads_the_given_peaks(self, count):
        # a clean two-tone series with a one- or three-peak PeakSet: the peaks
        # are taken as given, not extracted again
        series = tone_series([(1.0, 2.0, 0.3), (1.0, 1.2, 1.0)])
        peaks = extract_peaks(periodogram(series))
        assert len(peaks.peaks) == 2
        given = replace(peaks, peaks=(peaks.peaks * 2)[:count])
        with pytest.raises(ValueError, match="exactly two tones"):
            beat_envelope(series, given)

    def test_carrier_is_the_first_given_peak(self):
        series = tone_series([(1.0, 2.0, 0.3), (0.6, 1.2, 1.0)])
        peaks = extract_peaks(periodogram(series))
        swapped = replace(peaks, peaks=peaks.peaks[::-1])
        carrier, envelope = beat_envelope(series, swapped)
        assert carrier == peaks.peaks[1].omega
        assert envelope == beat_of(series)[1]

    @pytest.mark.parametrize("n", [64, 71])
    def test_short_series_is_a_resolution_error(self, n):
        # 1/16 trimmed from each end leaves fewer than the 64 samples a periodogram takes
        series = TimeSeries(T[:n], tone_series([(1.0, 20.0, 0.3), (1.0, 12.0, 1.0)]).values[:n], "short")
        with pytest.raises(ResolutionError, match="at least 72 samples.*got " + str(n)):
            beat_envelope(series, extract_peaks(periodogram(series)))

    def test_shortest_series_that_beats(self):
        series = TimeSeries(T[:72], tone_series([(1.0, 20.0, 0.3), (1.0, 12.0, 1.0)]).values[:72], "short")
        beat_envelope(series, extract_peaks(periodogram(series)))


class TestDynamicsPipeline:
    def test_spin_channel_two_tones_above_ten_percent(self, cfg):
        fs = frequency_set(0.5, cfg)
        wp = single_mode(0.5, DEFAULT_MIX, cfg)
        t = default_time_grid(fs)
        spec = periodogram(expectation_table(wp, t)["S_y"])
        pk = extract_peaks(spec, rel_threshold=0.10)
        assert len(pk.peaks) == 2

    def test_spin_beat_matches_closed_form(self, cfg):
        fs = frequency_set(0.5, cfg)
        wp = single_mode(0.5, DEFAULT_MIX, cfg)
        t = default_time_grid(fs)
        _, envelope = beat_of(expectation_table(wp, t)["S_y"])
        assert envelope == pytest.approx(fs.omega_sb, rel=1e-2)

    def test_degenerate_run_single_free_peak(self):
        from zbsim.algebra import ParticleConfig

        cfg0 = ParticleConfig(delta=0.0)
        fs = frequency_set(0.5, cfg0)
        wp = single_mode(0.5, DEFAULT_MIX, cfg0)
        t = default_time_grid(fs)
        pk = extract_peaks(periodogram(expectation_table(wp, t)["S_y"]))
        rep = match_frequencies(pk, fs, tol_rel=1e-3)
        assert len(pk.peaks) == 1
        assert rep.clean
        assert rep.assignments[0].expected_omega == pytest.approx(fs.omega_zb2, rel=1e-12)
