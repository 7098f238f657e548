"""Closed-form frequency algebra of the split Dirac spectrum.

Every characteristic frequency is an eigenvalue difference over hbar:

    omega_L   = (E+^up - E+^down)/hbar      Larmor precession
    omega_zb1 = (E+^up - E-^up)/hbar        longitudinal ZB, up sector
    omega_zb2 = (E+^up - E-^down)/hbar      transverse spin/position ZB
    omega_zb3 = (E+^down - E-^down)/hbar    longitudinal ZB, down sector

with E+-^s = +-sqrt((c*p)^2 + (m*c^2 + s*delta)^2). Beats are differences of
simultaneous tones: omega_sb = omega_zb2 - omega_L (spin channel) and
omega_ob1 = omega_zb1 - omega_zb3 = 2*omega_L (longitudinal orbital channel).
2*m*c^2/hbar separates Larmor precession (below) from spin ZB (above) and is
carried along as `omega_forbidden`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import ConfigError, ParticleConfig

__all__ = [
    "FrequencySet",
    "KinematicsPoint",
    "SweepRow",
    "DEFAULT_V_GRID",
    "DEFAULT_DELTA",
    "branch_energy",
    "free_zb_frequency",
    "blue_shift",
    "frequency_set",
    "rest_frame_longitudinal",
    "momentum_from_velocity",
    "sweep",
]

#: Default sweep grid (v/c) and splitting used by the bundled figure data.
DEFAULT_V_GRID = np.linspace(0.0, 0.99, 100)
DEFAULT_DELTA = 0.4


@dataclass(frozen=True)
class FrequencySet:
    """All characteristic angular frequencies at fixed (p, delta)."""

    p: float
    delta: float
    omega_L: float
    omega_zb1: float
    omega_zb2: float
    omega_zb3: float
    omega_sb: float
    omega_ob1: float
    omega_forbidden: float

    #: Field order used by table/CSV renderings.
    FIELDS = (
        "omega_L",
        "omega_zb1",
        "omega_zb2",
        "omega_zb3",
        "omega_sb",
        "omega_ob1",
        "omega_forbidden",
    )

    def tones(self) -> dict[str, float]:
        """The four spectral line positions (beats are envelopes, not lines).

        Magnitudes: omega_L is a signed level difference and turns negative
        for delta < 0, but a real series oscillates at |omega_L|.
        """
        return {
            "omega_L": abs(self.omega_L),
            "omega_zb1": self.omega_zb1,
            "omega_zb2": self.omega_zb2,
            "omega_zb3": self.omega_zb3,
        }

    def as_dict(self) -> dict[str, float]:
        out = {"p": self.p, "delta": self.delta}
        out.update({name: getattr(self, name) for name in self.FIELDS})
        return out


@dataclass(frozen=True)
class KinematicsPoint:
    v: float
    gamma: float
    p: float


@dataclass(frozen=True)
class SweepRow:
    v: float
    p: float
    freqs: FrequencySet


def branch_energy(p: float, cfg: ParticleConfig, s: int) -> float:
    """Positive-branch energy sqrt((c*p)^2 + (m*c^2 + s*delta)^2)."""
    return float(np.hypot(cfg.c * p, cfg.rest_energy(s)))


def free_zb_frequency(p: float, cfg: ParticleConfig | None = None) -> float:
    """Free-particle ZB frequency (2/hbar)*sqrt((c*p)^2 + (m*c^2)^2)."""
    cfg = cfg or ParticleConfig.natural()
    return 2.0 * np.hypot(cfg.c * p, cfg.mc2) / cfg.hbar


def blue_shift(p: float, cfg: ParticleConfig | None = None) -> float:
    """Motional increase of the free ZB frequency over its rest value 2mc^2/hbar."""
    cfg = cfg or ParticleConfig.natural()
    return free_zb_frequency(p, cfg) - 2.0 * cfg.mc2 / cfg.hbar


def frequency_set(p: float, cfg: ParticleConfig) -> FrequencySet:
    """Evaluate every characteristic frequency at momentum p."""
    e_up = branch_energy(p, cfg, +1)
    e_down = branch_energy(p, cfg, -1)
    hbar = cfg.hbar
    omega_L = (e_up - e_down) / hbar
    omega_zb1 = 2.0 * e_up / hbar
    omega_zb2 = (e_up + e_down) / hbar
    omega_zb3 = 2.0 * e_down / hbar
    return FrequencySet(
        p=float(p),
        delta=cfg.delta,
        omega_L=omega_L,
        omega_zb1=omega_zb1,
        omega_zb2=omega_zb2,
        omega_zb3=omega_zb3,
        omega_sb=omega_zb2 - omega_L,
        omega_ob1=omega_zb1 - omega_zb3,
        omega_forbidden=2.0 * cfg.mc2 / hbar,
    )


def rest_frame_longitudinal(delta: float, cfg: ParticleConfig | None = None) -> tuple[float, float]:
    """Rest-frame longitudinal ZB pair (2(mc^2 + delta)/hbar, 2(mc^2 - delta)/hbar)."""
    base = ParticleConfig(mass=1.0, c=1.0, hbar=1.0) if cfg is None else cfg
    if not abs(delta) < base.mc2:  # also rejects NaN
        raise ConfigError(f"|delta|={abs(delta)} must stay below m*c^2={base.mc2}")
    return (
        2.0 * (base.mc2 + delta) / base.hbar,
        2.0 * (base.mc2 - delta) / base.hbar,
    )


def momentum_from_velocity(v: float, cfg: ParticleConfig | None = None) -> KinematicsPoint:
    """Relativistic kinematics p = gamma*m*v; requires |v| < c."""
    cfg = cfg or ParticleConfig.natural()
    if not abs(v) < cfg.c:  # also rejects NaN
        raise ConfigError(f"|v|={abs(v)} must stay below c={cfg.c}")
    gamma = 1.0 / np.sqrt(1.0 - (v / cfg.c) ** 2)
    return KinematicsPoint(v=float(v), gamma=float(gamma), p=float(gamma * cfg.mass * v))


def sweep(
    v_grid: np.ndarray | None = None,
    delta: float = DEFAULT_DELTA,
    cfg: ParticleConfig | None = None,
) -> list[SweepRow]:
    """Frequency table over a velocity grid, one row per v (figure-ready)."""
    cfg = cfg or ParticleConfig.natural()
    cfg = replace(cfg, delta=delta, mu=0.0, d=0.0, B_field=0.0, E_field=0.0)
    grid = DEFAULT_V_GRID if v_grid is None else np.asarray(v_grid, dtype=float)
    rows = []
    for v in grid:
        kin = momentum_from_velocity(float(v), cfg)
        rows.append(SweepRow(v=kin.v, p=kin.p, freqs=frequency_set(kin.p, cfg)))
    return rows
