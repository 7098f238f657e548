"""Per-module spans and counts for the traced run.

The tracer wraps every public function of the zbsim modules from outside.
Each function object is replaced at every module that binds it (its own
module, the package and each module that imported the name), so a call is
recorded once whichever name it goes through. A span's self time is its
duration minus the time of the spans it caused.
"""

from __future__ import annotations

import inspect
import sys
import time

MODULES = ("algebra", "spectrum", "wavepacket", "dynamics", "spectral", "cli")

#: Work done per call, for the throughput metrics.
_WORK = {
    "spectrum.sweep": lambda args, kwargs, result: len(result),
    "dynamics.expectation_series": lambda args, kwargs, result: (
        (args[0] if args else kwargs["wp"]).n_modes * result.times.size),
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "cpu_s", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.cpu_s = 0.0
        self.work = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._children: list[float] = []  # child time of each open span

    def reset(self) -> None:
        self.stats = {name: Stat() for name in self.stats}

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def _wrap(self, name: str, fn):
        work = _WORK.get(name)
        cpu = name == "cli.main"  # process CPU time, BLAS threads included
        children = self._children
        self.stats[name] = Stat()

        def traced(*args, **kwargs):
            children.append(0.0)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                st = self.stats[name]
                st.calls += 1
                st.total_s += span
                st.self_s += span - children.pop()
                if cpu:
                    st.cpu_s += time.process_time() - c0
                if children:
                    children[-1] += span
            if work is not None:
                st.work += work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every zbsim module at all their bindings."""
        modules = [sys.modules["zbsim"]] + [sys.modules[f"zbsim.{m}"] for m in MODULES]
        for short in MODULES:
            mod = sys.modules[f"zbsim.{short}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for other in modules:
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, bound, traced)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per operation (rates over all timed operations)."""
    st = tracer.stat

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    commands = [st(f"cli.cmd_{c}") for c in ("frequencies", "sweep", "evolve", "verify")]
    build = st("wavepacket.gaussian_packet").total_s + st("wavepacket.single_mode").total_s
    return {
        "algebra.eigensystem_numeric.calls": (st("algebra.eigensystem_numeric").calls / ops, "count"),
        "algebra.eigensystem_numeric.s": (st("algebra.eigensystem_numeric").total_s / ops, "s"),
        "spectrum.frequency_set.calls": (st("spectrum.frequency_set").calls / ops, "count"),
        "spectrum.sweep.self_s": (st("spectrum.sweep").self_s / ops, "s"),
        "spectrum.sweep.rows_per_s": (rate(st("spectrum.sweep").work, st("spectrum.sweep").total_s), "rows/s"),
        "wavepacket.build.s": (build / ops, "s"),
        "dynamics.expectation_series.calls": (st("dynamics.expectation_series").calls / ops, "count"),
        "dynamics.expectation_series.self_s": (st("dynamics.expectation_series").self_s / ops, "s"),
        "dynamics.expectation_series.mode_samples_per_s": (
            rate(st("dynamics.expectation_series").work, st("dynamics.expectation_series").total_s), "1/s"),
        "dynamics.tone_amplitudes.s": (st("dynamics.tone_amplitudes").total_s / ops, "s"),
        "spectral.periodogram.calls": (st("spectral.periodogram").calls / ops, "count"),
        "spectral.periodogram.s": (st("spectral.periodogram").total_s / ops, "s"),
        "spectral.extract_peaks.calls": (st("spectral.extract_peaks").calls / ops, "count"),
        "spectral.extract_peaks.s": (st("spectral.extract_peaks").total_s / ops, "s"),
        "spectral.match_frequencies.s": (st("spectral.match_frequencies").total_s / ops, "s"),
        "spectral.beat_envelope.self_s": (st("spectral.beat_envelope").self_s / ops, "s"),
        "cli.run_verification.self_s": (st("cli.run_verification").self_s / ops, "s"),
        "cli.render.self_s": (sum(c.self_s for c in commands) / ops, "s"),
        "cli.main.cpu_s": (st("cli.main").cpu_s / ops, "s"),
    }
