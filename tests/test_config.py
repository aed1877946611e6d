import math

from hypothesis import given, settings, strategies as st
import pytest

from dressedspin.config import (
    DressingField,
    DriveConfiguration,
    StaticField,
    TuningComponent,
    dimensionless,
    validate,
)
from dressedspin.errors import ConfigurationError

from conftest import make_config


def test_validate_accepts_dressed_calibration_setup():
    # omega/2pi = 30 kHz, no tuning, omega0z/2pi = 5.979 kHz
    cfg = make_config(30.0, xi=0.0, w0_khz=(0.0, 0.0, 5.979))
    assert validate(cfg) is cfg


def test_validate_rejects_zero_drive_frequency():
    cfg = DriveConfiguration(static=StaticField(), dressing=DressingField(omega_d=0.0, omega=0.0))
    with pytest.raises(ConfigurationError) as err:
        validate(cfg)
    assert "NonPositiveDressingFrequency" in err.value.codes()


def test_validate_rejects_duplicate_axis():
    cfg = make_config(
        10.0,
        tuning=(("y", 1.0, 1, 0.0), ("y", 0.5, 2, 0.0)),
    )
    with pytest.raises(ConfigurationError) as err:
        validate(cfg)
    assert "DuplicateTuningAxis" in err.value.codes()


def test_validate_reports_every_violation():
    cfg = DriveConfiguration(
        static=StaticField(omega0x=float("nan")),
        dressing=DressingField(omega_d=-1.0, omega=-5.0),
        tuning=(
            TuningComponent(axis="y", amplitude=-2.0, harmonic=1),
            TuningComponent(axis="z", amplitude=3.0, harmonic=0),
        ),
    )
    with pytest.raises(ConfigurationError) as err:
        validate(cfg)
    codes = err.value.codes()
    for expected in (
        "NonFiniteValue",
        "NonPositiveDressingFrequency",
        "NegativeAmplitude",
        "ZeroHarmonicTuning",
    ):
        assert expected in codes


@pytest.mark.parametrize("harmonic", [float("nan"), float("inf")])
def test_validate_lists_a_non_finite_harmonic_with_the_other_violations(harmonic):
    cfg = DriveConfiguration(
        static=StaticField(),
        dressing=DressingField(omega_d=1.0, omega=-5.0),
        tuning=(TuningComponent(axis="y", amplitude=1.0, harmonic=harmonic),),
    )
    with pytest.raises(ConfigurationError) as err:
        validate(cfg)
    assert err.value.codes() == ("NonPositiveDressingFrequency", "ZeroHarmonicTuning")
    assert f"tuning.0.harmonic must be an integer, got {harmonic!r}" in str(err.value)
    # an integer too large for a float is still an integer: it is too large a
    # harmonic, not an OverflowError
    huge = TuningComponent(axis="y", amplitude=1.0, harmonic=10**400)
    with pytest.raises(ConfigurationError) as err:
        validate(cfg.replace(dressing=DressingField(omega_d=1.0, omega=5.0), tuning=(huge,)))
    assert err.value.codes() == ("HarmonicTooLarge",)


def test_validate_bounds_a_driven_harmonic_below_200():
    def config(amplitude, harmonic):
        return make_config(10.0, tuning=(("y", amplitude, harmonic, 0.0),))

    assert validate(config(1.0, 199))
    assert validate(config(0.0, 10**6))  # an undriven component is inert
    for harmonic in (200, 10**5, 2.0e5):
        with pytest.raises(ConfigurationError) as err:
            validate(config(1.0, harmonic))
        assert err.value.codes() == ("HarmonicTooLarge",)
        assert f"tuning.0.harmonic must be < 200 for a driven component, got {harmonic!r}" in str(err.value)


def test_validate_idempotent():
    cfg = make_config(9.0, xi=1.8, w0_khz=(0.0, 0.0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))
    assert validate(validate(cfg)) is cfg


def test_xi_examples():
    assert make_config(9.0, xi=16.5 / 9.0).xi() == pytest.approx(1.8333333, rel=1e-6)
    assert make_config(9.0, xi=0.0).xi() == 0.0


def test_dimensionless_bundle():
    cfg = make_config(10.0, xi=3.83, w0_khz=(0.0, 0.0, 2.040), tuning=(("y", 2.23, 2, 0.0),))
    b = dimensionless(cfg)
    assert b.xi == pytest.approx(3.83)
    assert b.w0[2] == pytest.approx(0.204)
    assert b.tuning[0].strength == pytest.approx(0.223)
    assert b.tuning[0].harmonic == 2
    assert "spin" not in b.__dataclass_fields__  # the dynamics is the same for both spins


def test_dimensionless_drops_inert_components():
    cfg = make_config(10.0, tuning=(("y", 0.0, 0, 0.0),))
    assert dimensionless(cfg).tuning == ()


def test_scale_invariance_exact_for_powers_of_two():
    cfg = make_config(9.0, xi=1.8, w0_khz=(1.0, 0.5, 2.040), tuning=(("y", 4.97, 1, 0.3),))
    b0 = dimensionless(cfg)
    for k in (2.0, 8.0, 0.25):
        scaled = DriveConfiguration(
            static=StaticField(
                cfg.static.omega0x * k, cfg.static.omega0y * k, cfg.static.omega0z * k
            ),
            dressing=DressingField(cfg.dressing.omega_d * k, cfg.dressing.omega * k),
            tuning=tuple(
                TuningComponent(t.axis, t.amplitude * k, t.harmonic, t.phase) for t in cfg.tuning
            ),
        )
        assert dimensionless(scaled) == b0


def test_scale_invariance_random_scale(rng):
    cfg = make_config(9.0, xi=1.8, w0_khz=(1.0, 0.5, 2.040), tuning=(("y", 4.97, 1, 0.3),))
    b0 = dimensionless(cfg)
    for _ in range(20):
        k = float(rng.uniform(0.01, 100.0))
        scaled = DriveConfiguration(
            static=StaticField(
                cfg.static.omega0x * k, cfg.static.omega0y * k, cfg.static.omega0z * k
            ),
            dressing=DressingField(cfg.dressing.omega_d * k, cfg.dressing.omega * k),
            tuning=tuple(
                TuningComponent(t.axis, t.amplitude * k, t.harmonic, t.phase) for t in cfg.tuning
            ),
        )
        b = dimensionless(scaled)
        assert b.xi == pytest.approx(b0.xi, rel=1e-12)
        assert b.w0[0] == pytest.approx(b0.w0[0], rel=1e-12)
        assert b.tuning[0].strength == pytest.approx(b0.tuning[0].strength, rel=1e-12)


_AMP = st.just(0.0) | st.floats(1e-3, 1e6)  # no subnormals: k*a must not round to 0
_FREQ = _AMP | st.floats(-1e6, -1e-3)


@settings(deadline=None)
@given(
    w0=st.tuples(_FREQ, _FREQ, _FREQ),
    omega=st.floats(1e-3, 1e6),
    omega_d=_AMP,
    tuning=st.tuples(st.sampled_from("xyz"), _AMP, st.integers(1, 5), st.floats(0.0, 6.28)),
    k=st.floats(1e-3, 1e3),
    spin=st.sampled_from(("half", "one")),
)
def test_dimensionless_scale_invariance_property(w0, omega, omega_d, tuning, k, spin):
    axis, amp, harmonic, phase = tuning

    def config(scale):
        return DriveConfiguration(
            static=StaticField(*(v * scale for v in w0)),
            dressing=DressingField(omega_d * scale, omega * scale),
            tuning=(TuningComponent(axis, amp * scale, harmonic, phase),),
            spin=spin,
        )

    b0, b = dimensionless(config(1.0)), dimensionless(config(k))
    assert dimensionless(config(2.0**-7)) == b0  # power-of-two scales are exact
    assert len(b.tuning) == len(b0.tuning)
    # (a*k)/(w*k) vs a/w: three roundings against one
    assert b.xi == pytest.approx(b0.xi, rel=1e-15, abs=0.0)
    assert b.w0 == pytest.approx(b0.w0, rel=1e-15, abs=0.0)
    for t, t0 in zip(b.tuning, b0.tuning):
        assert (t.axis, t.harmonic, t.phase) == (t0.axis, t0.harmonic, t0.phase)
        assert t.strength == pytest.approx(t0.strength, rel=1e-15, abs=0.0)


def test_phase_normalisation():
    a = TuningComponent(axis="y", amplitude=1.0, harmonic=1, phase=0.5)
    b = TuningComponent(axis="y", amplitude=1.0, harmonic=1, phase=0.5 + 2 * math.pi)
    assert 0.0 <= b.phase < 2 * math.pi
    assert b.phase == pytest.approx(a.phase, abs=1e-12)
    c = TuningComponent(axis="y", amplitude=1.0, harmonic=1, phase=-0.5)
    assert c.phase == pytest.approx(2 * math.pi - 0.5, abs=1e-12)
    # a negative phase that rounds up to 2*pi folds to 0, so normalising twice changes nothing
    d = TuningComponent(axis="y", amplitude=1.0, harmonic=1, phase=-1e-300)
    assert d.phase == 0.0
    assert TuningComponent(axis="y", amplitude=1.0, harmonic=1, phase=c.phase).phase == c.phase
