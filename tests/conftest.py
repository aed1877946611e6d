import contextlib
from dataclasses import replace
import math

import pytest

from dressedspin import propagate
from dressedspin.config import (
    DressingField,
    DriveConfiguration,
    StaticField,
    TuningComponent,
    TuningTerm,
    dimensionless,
)

KHZ = 2.0 * math.pi * 1e3


def make_config(omega_khz, xi=0.0, w0_khz=(0.0, 0.0, 0.0), tuning=(), spin="half"):
    """Build a DriveConfiguration from lab-style numbers (kHz, value = f/2pi).

    tuning entries are (axis, amplitude_khz, harmonic, phase_rad).
    """
    omega = omega_khz * KHZ
    comps = tuple(
        TuningComponent(axis=a, amplitude=amp * KHZ, harmonic=h, phase=ph)
        for (a, amp, h, ph) in tuning
    )
    return DriveConfiguration(
        static=StaticField(
            omega0x=w0_khz[0] * KHZ, omega0y=w0_khz[1] * KHZ, omega0z=w0_khz[2] * KHZ
        ),
        dressing=DressingField(omega_d=xi * omega, omega=omega),
        tuning=comps,
        spin=spin,
    )


def lab_bundle(bundle):
    """The same drive with xi = 0 and the dressing term as an x tuning component.

    propagate integrates in the frame that follows the dressing rotation; for
    this bundle that frame is the lab frame and the rotation back is the
    identity, so the package's own integrator runs the lab-frame ODE.
    """
    return replace(bundle, xi=0.0, tuning=bundle.tuning + (TuningTerm("x", bundle.xi, 1, 0.0),))


@contextlib.contextmanager
def lab_frame():
    """Within the block, every propagate entry point integrates in the lab frame."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "dimensionless", lambda config: lab_bundle(dimensionless(config)))
        yield


def fold(omega_l, omega):
    """omega_l modulo 2 omega and up to sign, in [0, omega]: all that the
    monodromy eigenphases fix of a Larmor frequency."""
    r = math.fmod(omega_l, 2.0 * omega)
    return min(r, 2.0 * omega - r)


def bessel_series_oracle(n, x, terms=60):
    """Independent power-series J_n(x) = sum_k (-1)^k (x/2)^{n+2k} / (k! (n+k)!).

    Accurate in double precision for |x| <= 12 or so; used only as a test
    oracle, never by the package itself.
    """
    sign = 1.0
    if x < 0:
        x = -x
        if n % 2:
            sign = -1.0
    half = 0.5 * x
    term = half**n / math.factorial(n)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (n + k))
        total += term
    return sign * total


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(20260810)
