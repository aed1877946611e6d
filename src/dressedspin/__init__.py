"""Dressed-spin dynamics with harmonic tuning fields.

A spin in a static magnetic field, strongly dressed by an off-resonant RF
field along x and nudged by weak fields oscillating at integer harmonics of
the dressing frequency, precesses about an effective rectified field whose
components are independently Bessel-attenuated and tuning-shifted: three
inequivalent axes.  This package evaluates that first-order theory
(rectified field, triaxial Larmor frequency, coherence trajectories),
cross-checks it against brute-force propagation of the exact dynamics, and
provides the scans and the ratio-curve calibration built on top.
"""

from .config import (
    DimensionlessBundle,
    DressingField,
    DriveConfiguration,
    StaticField,
    TuningComponent,
    dimensionless,
    validate,
)
from .configfile import apply_overrides, load_config, parse_config_text
from .effective import (
    EffectiveField,
    FloquetFirstOrder,
    bare_precession,
    floquet_first_order,
    larmor_frequency,
    rectified_field,
)
from .errors import (
    ConfigFileError,
    ConfigurationError,
    DegenerateData,
    DressedSpinError,
    FitDiverged,
    NoConvergence,
    NoOscillation,
    SeriesNotConverged,
    UnitarityLost,
)
from .analysis import (
    CalibrationFit,
    FrequencyEstimate,
    ScanResult,
    ScanRow,
    ScanSpec,
    calibrate,
    extract_frequency,
    run_scan,
    synthetic_calibration_data,
)
from .propagate import (
    CoherenceSeries,
    QuasiEnergy,
    analytic_coherences,
    monodromy_quasienergy,
    propagate_bloch_spin1,
    propagate_spin_half,
)
from .special import bessel_j, f_aux, g_func, phi

__version__ = "0.1.0"
