"""Closed-form frequency algebra of the split Dirac spectrum.

In natural units (hbar = c = m = 1) every characteristic frequency is an
eigenvalue difference:

    omega_L   = E+^up - E+^down        Larmor precession
    omega_zb1 = E+^up - E-^up          longitudinal ZB, up sector
    omega_zb2 = E+^up - E-^down        transverse spin/position ZB
    omega_zb3 = E+^down - E-^down      longitudinal ZB, down sector

with E+-^s = +-sqrt(p^2 + (1 + s*delta)^2). Beats are differences of
simultaneous tones: omega_sb = omega_zb2 - omega_L (spin channel) and
omega_ob1 = omega_zb1 - omega_zb3 = 2*omega_L (longitudinal orbital channel).
2 (that is 2*m*c^2/hbar) separates Larmor precession (below) from spin ZB
(above) and is carried along as `omega_forbidden`.

Every function takes a scalar or an array of momenta (velocities) and
broadcasts; a scalar argument gives Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ConfigError, ParticleConfig

__all__ = [
    "FrequencySet",
    "branch_energy",
    "free_zb_frequency",
    "frequency_set",
    "momentum_from_velocity",
]


def _float_or_array(x: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a Python float (a numpy scalar prints as np.float64(...))."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class FrequencySet:
    """All characteristic angular frequencies at fixed delta and momentum (or momenta)."""

    p: float | np.ndarray
    delta: float
    omega_L: float | np.ndarray
    omega_zb1: float | np.ndarray
    omega_zb2: float | np.ndarray
    omega_zb3: float | np.ndarray
    omega_sb: float | np.ndarray
    omega_ob1: float | np.ndarray
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


def branch_energy(p: float | np.ndarray, cfg: ParticleConfig, s: int) -> float | np.ndarray:
    """Positive-branch energy sqrt(p^2 + (1 + s*delta)^2)."""
    return _float_or_array(np.hypot(p, cfg.rest_energy(s)))


def free_zb_frequency(p: float | np.ndarray) -> float | np.ndarray:
    """Free-particle ZB frequency 2*sqrt(p^2 + 1)."""
    return _float_or_array(2.0 * np.hypot(p, 1.0))


def frequency_set(p: float | np.ndarray, cfg: ParticleConfig) -> FrequencySet:
    """Evaluate every characteristic frequency at momentum p (scalar or array)."""
    e_up = branch_energy(p, cfg, +1)
    e_down = branch_energy(p, cfg, -1)
    omega_L = e_up - e_down
    omega_zb1 = 2.0 * e_up
    omega_zb2 = e_up + e_down
    omega_zb3 = 2.0 * e_down
    return FrequencySet(
        p=_float_or_array(np.asarray(p, dtype=float)),
        delta=cfg.delta,
        omega_L=omega_L,
        omega_zb1=omega_zb1,
        omega_zb2=omega_zb2,
        omega_zb3=omega_zb3,
        omega_sb=omega_zb2 - omega_L,
        omega_ob1=omega_zb1 - omega_zb3,
        omega_forbidden=2.0,
    )


def momentum_from_velocity(v: float | np.ndarray) -> float | np.ndarray:
    """Relativistic momentum p = gamma*v of a velocity v (in units of c); requires |v| < 1."""
    v = np.asarray(v, dtype=float)
    speed = np.abs(v)
    if not np.all(speed < 1.0):  # also rejects NaN
        raise ConfigError(f"|v|={np.max(speed)} must stay below c=1.0")
    return _float_or_array(1.0 / np.sqrt(1.0 - v * v) * v)
