"""Drive configuration: every physical parameter of the driven-spin problem.

All frequencies are stored as angular frequencies (rad/s); the equations of
motion are written in angular units throughout.  The CLI layer converts from
ordinary frequencies in kHz on ingestion.  Gyromagnetic ratio and raw field
values are never stored -- a static field component enters only as the
angular frequency it produces.

All types are immutable value objects and safe to share between tasks.
"""

from dataclasses import dataclass, replace
import math

from .errors import ConfigurationError

__all__ = [
    "StaticField",
    "DressingField",
    "TuningComponent",
    "DriveConfiguration",
    "DimensionlessBundle",
    "TuningTerm",
    "validate",
    "dimensionless",
]

TWO_PI = 2.0 * math.pi

AXES = ("x", "y", "z")
SPINS = ("half", "one")


@dataclass(frozen=True)
class StaticField:
    """Static-field couplings omega0_j = gamma*B0_j along x, y, z (rad/s)."""

    omega0x: float = 0.0
    omega0y: float = 0.0
    omega0z: float = 0.0

    def as_tuple(self):
        return (self.omega0x, self.omega0y, self.omega0z)


@dataclass(frozen=True)
class DressingField:
    """Strong off-resonant drive along x: Rabi amplitude and frequency (rad/s)."""

    omega_d: float
    omega: float


@dataclass(frozen=True)
class TuningComponent:
    """Weak harmonic drive on one axis: amplitude (rad/s), integer harmonic
    of the dressing frequency, and phase relative to the dressing field.

    Phase is stored normalised to [0, 2*pi).  A zero-harmonic component is
    not a drive at all -- static offsets belong in StaticField.
    """

    axis: str
    amplitude: float
    harmonic: int
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "axis", str(self.axis).strip().lower())
        ph = float(self.phase)
        if math.isfinite(ph):
            ph = math.fmod(ph, TWO_PI)
            if ph < 0.0:  # a tiny negative phase rounds up to 2*pi: fold that to 0
                ph = math.fmod(ph + TWO_PI, TWO_PI)
        object.__setattr__(self, "phase", ph)


@dataclass(frozen=True)
class DriveConfiguration:
    """Full parameter set: static field, dressing field, tuning components
    (at most one per axis) and the spin model ("half" or "one")."""

    static: StaticField
    dressing: DressingField
    tuning: tuple = ()
    spin: str = "half"

    def __post_init__(self):
        object.__setattr__(self, "tuning", tuple(self.tuning))

    def xi(self) -> float:
        """Dressing parameter omega_d / omega."""
        return self.dressing.omega_d / self.dressing.omega

    def replace(self, **kwargs) -> "DriveConfiguration":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class TuningTerm:
    """One tuning component of the dimensionless bundle."""

    axis: str
    strength: float  # amplitude / omega
    harmonic: int
    phase: float


@dataclass(frozen=True)
class DimensionlessBundle:
    """The drive in units of the dressing frequency.  It has no spin: both
    spins share the SU(2) dynamics, and only floquet_first_order reads config.spin."""

    xi: float
    w0: tuple  # (omega0x, omega0y, omega0z) / omega
    tuning: tuple  # of TuningTerm


def validate(config: DriveConfiguration) -> DriveConfiguration:
    """Check every invariant; return the configuration unchanged if all hold.

    Raises ConfigurationError carrying the complete list of violations,
    each tagged with its code.  Idempotent.
    """
    violations = []

    for name, value in (
        ("static.x", config.static.omega0x),
        ("static.y", config.static.omega0y),
        ("static.z", config.static.omega0z),
        ("dressing.amplitude", config.dressing.omega_d),
        ("dressing.frequency", config.dressing.omega),
    ):
        if not math.isfinite(value):
            violations.append(("NonFiniteValue", f"{name} must be finite, got {value!r}"))

    if not config.dressing.omega > 0.0:
        violations.append(
            (
                "NonPositiveDressingFrequency",
                f"dressing.frequency must be > 0, got {config.dressing.omega!r}",
            )
        )
    if config.dressing.omega_d < 0.0:
        violations.append(
            ("NegativeAmplitude", f"dressing.amplitude must be >= 0, got {config.dressing.omega_d!r}")
        )

    seen_axes = set()
    for idx, comp in enumerate(config.tuning):
        where = f"tuning.{idx}"
        if comp.axis not in AXES:
            violations.append(("UnknownAxis", f"{where}.axis must be one of x, y, z, got {comp.axis!r}"))
        elif comp.axis in seen_axes:
            violations.append(
                ("DuplicateTuningAxis", f"{where}: a tuning component on axis '{comp.axis}' already exists")
            )
        else:
            seen_axes.add(comp.axis)
        if not math.isfinite(comp.amplitude):
            violations.append(("NonFiniteValue", f"{where}.amplitude must be finite"))
        elif comp.amplitude < 0.0:
            violations.append(
                ("NegativeAmplitude", f"{where}.amplitude must be >= 0, got {comp.amplitude!r}")
            )
        h = comp.harmonic
        if not (isinstance(h, int) or math.isfinite(h) and h == int(h)):
            violations.append(
                ("ZeroHarmonicTuning", f"{where}.harmonic must be an integer, got {comp.harmonic!r}")
            )
        elif comp.amplitude > 0.0 and comp.harmonic < 1:
            violations.append(
                (
                    "ZeroHarmonicTuning",
                    f"{where}.harmonic must be >= 1 for a driven component "
                    "(a zero-harmonic term is a static field; use the [static] section)",
                )
            )
        elif comp.amplitude > 0.0 and comp.harmonic >= 200:  # bessel_j is accurate for n < 200
            violations.append(
                ("HarmonicTooLarge", f"{where}.harmonic must be < 200 for a driven component, got {comp.harmonic!r}")
            )
        if not math.isfinite(comp.phase):
            violations.append(("NonFiniteValue", f"{where}.phase must be finite"))

    if config.spin not in SPINS:
        violations.append(("UnknownSpin", f"spin must be 'half' or 'one', got {config.spin!r}"))

    if violations:
        raise ConfigurationError(violations)
    return config


def dimensionless(config: DriveConfiguration) -> DimensionlessBundle:
    """Reduce a validated configuration to the dimensionless parameter bundle.

    Scale-invariant: multiplying every frequency-dimension field by the same
    positive constant leaves the bundle unchanged.
    """
    validate(config)
    w = config.dressing.omega
    terms = tuple(
        TuningTerm(
            axis=comp.axis,
            strength=comp.amplitude / w,
            harmonic=int(comp.harmonic),
            phase=comp.phase,
        )
        for comp in config.tuning
        if comp.amplitude > 0.0
    )
    return DimensionlessBundle(
        xi=config.dressing.omega_d / w,
        w0=(
            config.static.omega0x / w,
            config.static.omega0y / w,
            config.static.omega0z / w,
        ),
        tuning=terms,
    )
