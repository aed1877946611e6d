"""Exact symmetries of the drive, checked on every route without an oracle.

- A rotation by pi about x maps (omega0y, omega0z) to -(omega0y, omega0z)
  and adds pi to the phase of a y or z tuning term; the dressing term is
  on x and stays.
- A half-period shift tau -> tau + pi turns the dressing term to
  -xi cos(tau) x and adds p pi to each tuning phase; a rotation by pi about
  z then turns x back and maps (omega0x, omega0y) to -(omega0x, omega0y)
  and adds pi to the phase of an x or y tuning term.

Both are unitary equivalences, so |h| and the monodromy Omega_L are equal.
The first also rotates P1 rigidly, so its norm is equal.  The second moves
the point where P1 is anchored at 0 from tau = 0 to tau = pi:
P1'(tau) = R_z(pi) (P1(tau + pi) - P1(pi)).
Over these 24 configurations the worst gaps were 1.3e-16 omega in |h| and
Omega_L, 3.7e-16 relative in the P1 norms and 1.9e-15 of the largest
component in the P1 vectors.
"""

from dataclasses import replace
import math
from pathlib import Path
import random

import numpy as np
import pytest

from dressedspin.config import dimensionless
from dressedspin.configfile import load_config
from dressedspin.effective import _p1_norm_maxes, _p1_samples, _p1_vector, _p1_vectors, floquet_first_order, rectified_field
from dressedspin.propagate import monodromy_quasienergy

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
OMEGA_TOL = 1e-15  # of omega
P1_RTOL = 1e-14
R_Z = np.array([-1.0, -1.0, 1.0])  # rotation by pi about z, on (x, y, z)


def _rotate_x(config):
    s = config.static
    tuning = tuple(replace(t, phase=t.phase + math.pi) if t.axis != "x" else t for t in config.tuning)
    return replace(config, static=replace(s, omega0y=-s.omega0y, omega0z=-s.omega0z), tuning=tuning)


def _shift_rotate_z(config):
    s = config.static
    tuning = tuple(
        replace(t, phase=t.phase + t.harmonic * math.pi + (math.pi if t.axis != "z" else 0.0)) for t in config.tuning
    )
    return replace(config, static=replace(s, omega0x=-s.omega0x, omega0y=-s.omega0y), tuning=tuning)


def _configs():
    """The 4 shipped configs and 5 seeded variants of each: random static
    field, xi, tuning axis and tuning phase."""
    rng = random.Random(0)
    out = []
    for name in ("collapse", "even-harmonic", "anisotropy", "odd-harmonic"):
        base = load_config(CONFIG_DIR / f"{name}.cfg")
        out.append(pytest.param(base, id=name))
        w = base.dressing.omega
        for k in range(5):
            static = replace(base.static, **{f"omega0{a}": rng.uniform(-0.3, 0.3) * w for a in "xyz"})
            tuning = tuple(replace(t, axis=rng.choice("xyz"), phase=rng.uniform(0.0, 2.0 * math.pi)) for t in base.tuning)
            dressing = replace(base.dressing, omega_d=rng.uniform(0.2, 6.0) * w)
            out.append(pytest.param(replace(base, static=static, dressing=dressing, tuning=tuning), id=f"{name}-{k}"))
    return out


@pytest.mark.parametrize("config", _configs())
@pytest.mark.parametrize("symmetry", [_rotate_x, _shift_rotate_z], ids=["x-rotation", "half-period-shift"])
def test_larmor_frequencies_are_invariant(config, symmetry):
    image = symmetry(config)
    w = config.dressing.omega
    assert abs(rectified_field(image).omega_L - rectified_field(config).omega_L) <= OMEGA_TOL * w
    assert abs(monodromy_quasienergy(image).omega_L_numeric - monodromy_quasienergy(config).omega_L_numeric) <= OMEGA_TOL * w


@pytest.mark.parametrize("config", _configs())
def test_p1_norms_are_invariant_under_the_x_rotation(config):
    image = _rotate_x(config)
    assert floquet_first_order(image).p1_norm_max == pytest.approx(floquet_first_order(config).p1_norm_max, rel=P1_RTOL)
    for spin in ("half", "one"):
        got, want = _p1_norm_maxes([dimensionless(image), dimensionless(config)], [spin, spin])
        assert got == pytest.approx(want, rel=P1_RTOL)


@pytest.mark.parametrize("config", _configs())
def test_p1_vectors_move_their_anchor_under_the_half_period_shift(config):
    bundle, image = dimensionless(config), dimensionless(_shift_rotate_z(config))
    # the table: tau = 2 pi j/128, so tau + pi is sample j + 64 (P1 is periodic)
    v = _p1_vectors([bundle], _p1_samples(bundle))[:, 0]
    want = R_Z[:, None] * (np.roll(v, -64, axis=1) - v[:, 64:65])
    got = _p1_vectors([image], _p1_samples(image))[:, 0]
    assert np.max(np.abs(got - want)) <= P1_RTOL * np.max(np.abs(v))
    # the series of floquet_first_order, at taus of the first half period
    taus = np.linspace(0.0, math.pi, 17)
    v = np.array([_p1_vector(bundle, t + math.pi) for t in taus]) - np.array(_p1_vector(bundle, math.pi))
    got = np.array([_p1_vector(image, t) for t in taus])
    assert np.max(np.abs(got - R_Z * v)) <= P1_RTOL * np.max(np.abs(v))
