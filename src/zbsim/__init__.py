"""Zitterbewegung of neutral Dirac particles in static longitudinal fields.

Simulation and verification toolkit: closed-form split spectrum and
precession/ZB/beat frequencies, wavepacket dynamics with an independent
eigenphase oracle, and spectral matching of the two.
"""

from .algebra import (
    BRANCH_SPIN_LABELS,
    LABEL_NAMES,
    ConfigError,
    DiracOperatorSet,
    EigenSystem,
    ParticleConfig,
    build_hamiltonian,
    build_operators,
    eigensystem_analytic,
    eigensystem_numeric,
    label_index,
    matrix_element,
)
from .dynamics import (
    OBSERVABLE_TAGS,
    TimeSeries,
    analytic_series,
    default_time_grid,
    expectation_table,
    spin_x_constant,
    tone_amplitudes,
)
from .spectral import (
    MatchReport,
    Peak,
    PeakSet,
    ResolutionError,
    Spectrum,
    beat_envelope,
    extract_peaks,
    match_frequencies,
    periodogram,
)
from .spectrum import (
    FrequencySet,
    branch_energy,
    free_zb_frequency,
    frequency_set,
    momentum_from_velocity,
)
from .wavepacket import (
    DEFAULT_MIX,
    EQUAL_MIX,
    Wavepacket,
    gaussian_packet,
    single_mode,
)

__version__ = "0.1.0"
