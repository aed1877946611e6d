"""Bessel functions and the periodic auxiliaries of the dressing frame.

The dressing field enters the dynamics only through phi(tau) = xi*sin(tau)
and through integrals of cos(phi), sin(phi) against the tuning harmonics.
Those integrals split into a secular (linear-in-tau) part weighted by Bessel
functions and a periodic remainder; this module evaluates the Bessel factors
J_n and the periodic remainders f1..f4 and g.

Each evaluation of f1, f2 or g reads one table of J_n from one Bessel
recurrence and follows one truncation rule, set by two private module
constants read at call time: terms are added until the tau-independent
envelope of the next level drops below ``_SERIES_ABS_TOL``; reaching
``_SERIES_MAX_TERMS`` levels first raises SeriesNotConverged.  g may stop
only past level p - 1 and past |xi|, so its cap grows to p levels for a
harmonic p above ``_SERIES_MAX_TERMS``, and to the Miller seed of |xi|
(past the levels where J_n(xi) is still large) from |xi| of about 15.

Only tau varies along a P1 diagnostic, so the tau-independent work is
memoised in two bounded least-recently-used caches:

- ``_bessel_table`` holds the normalised J_0..J_{hi-1}(|x|) of one Miller
  recurrence, keyed on (hi, |x|), at most ``_TABLE_CACHE`` tables;
  ``bessel_j`` applies the sign of x and returns a fresh list or a float.
  f1 and f2 have no memo of their own: each evaluation reads its table
  through ``bessel_j`` and sums its terms in one loop.
- ``_g_coefficients`` holds g's terms up to its stop level as two read-only
  flat arrays k and c, keyed on (xi, p, Phi, abs_tol, max_terms), at most
  ``_G_CACHE`` sets; each g evaluation is one NumPy pass,
  sum c*expm1(i k tau), which is exactly 0 at tau = 0.

A cached value is the one the same float operations give on a miss, keyed
on every input they read, and an exception (SeriesNotConverged) is never
cached, so results do not depend on cache state or call history.
"""

import cmath
import functools
import math

import numpy as np

from .errors import SeriesNotConverged

__all__ = [
    "bessel_j",
    "phi",
    "f_aux",
    "g_func",
]


# Series truncation: the envelope below which a series stops, and the most
# levels summed before it raises SeriesNotConverged.
_SERIES_ABS_TOL = 1e-12
_SERIES_MAX_TERMS = 64

# Rescaling threshold for the downward recurrence.
_BIG = 1e250

# Memo bounds.  One P1 diagnostic, all at one xi, reads a J_n table per order
# rectified_field needs, one or two series tables and one g coefficient set
# per tuning component; the rest is headroom for callers that interleave.
_TABLE_CACHE = 32
_G_CACHE = 8


def _miller_seed(top) -> int:
    """Even starting order of the downward recurrence for orders and
    arguments up to top, well above the turning point."""
    m = int(top + 12.0 * max(4.0, top) ** (1.0 / 3.0)) + 22
    return m + m % 2


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _bessel_table(hi, x):
    """(J_0(x), ..., J_{hi-1}(x)) for x >= 0 from one recurrence seeded
    above max(hi - 1, x)."""
    if x < 1e-7:  # leading series terms (exact at 0); recurrence ratios 2k/x get needlessly huge
        # (x/2)^k is already 0.0 from k = 45 on, so capping k! at 170!, the
        # largest that fits a float, changes no value
        return tuple(((0.5 * x) ** k / math.factorial(min(k, 170))) * (1.0 - 0.25 * x * x / (k + 1)) for k in range(hi))
    low = [0.0] * hi  # unnormalised J_0..J_{hi-1}
    jp = 0.0  # J_{k+1}, unnormalised
    jc = 1.0  # J_k
    norm = 0.0  # accumulates J_0 + 2*sum_{k even > 0} J_k
    for k in range(_miller_seed(max(hi - 1, x)), 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp = jc
        jc = jm
        idx = k - 1
        if idx < hi:
            low[idx] = jc
        if idx > 0 and idx % 2 == 0:
            norm += 2.0 * jc
        if abs(jc) > _BIG:
            jc /= _BIG
            jp /= _BIG
            norm /= _BIG
            low = [v / _BIG for v in low]
    norm += jc  # J_0 term
    return tuple([v / norm for v in low])


def bessel_j(n, x: float):
    """Bessel function of the first kind J_n(x) for integer n >= 0.

    n is an order (returns a float) or a range such as range(N) (returns a
    new list J_0(x)..J_{N-1}(x) from one recurrence; one order is its
    one-element case).  Downward recurrence with normalisation (Miller's
    algorithm), seeded above the highest requested order.  Absolute error
    below 1e-12 for |x| <= 130 with n < 200, and for |x| <= 1e4 with n < 8
    (checked against scipy and an independent power-series oracle in the
    tests).  J_n(-x) = (-1)^n J_n(x).
    """
    orders = isinstance(n, range)
    lo, hi = (n.start, n.stop) if orders else (n, n + 1)
    if lo < 0 or orders and n.step != 1:
        raise ValueError("order n must be >= 0 (a range of orders: step 1)")
    table = _bessel_table(hi, abs(float(x)))  # float(x): a NumPy scalar shares the key of its float
    neg = x < 0.0
    if not orders:
        return -table[n] if neg and n % 2 else table[n]
    return [-table[k] if k % 2 else table[k] for k in n] if neg else list(table[lo:])


def _series_table(xi, past, size):
    """[J_0(xi), ..., J_{n-1}(xi), 0.0, 0.0] from one bessel_j recurrence,
    for a series of size orders that may stop only past order past >= |xi|
    (where J_n decays monotonically).  The recurrence stops at the Miller
    seed of past, n = min(size, seed + 1): the orders beyond are below 2e-28
    (checked against scipy in the tests) and read as zero, so the first of
    the two zeros stops a series under any abs_tol > 0, and a series that
    reads past them raises at its cap as it would over more zeros."""
    computed = min(size, _miller_seed(min(size, past)) + 1)  # a NaN xi sums to SeriesNotConverged
    return bessel_j(range(computed), xi) + [0.0, 0.0]


def _not_converged(name, cap, abs_tol, xi):
    return SeriesNotConverged(f"{name} series: {cap} levels with envelope >= {abs_tol:g} (xi={xi:g})")


def phi(tau: float, xi: float) -> float:
    """Accumulated dressing rotation angle xi*sin(tau)."""
    return xi * math.sin(tau)


@functools.lru_cache(maxsize=_G_CACHE)
def _g_coefficients(xi, p, Phi, abs_tol, max_terms):
    """Read-only flat arrays (k, c) of g's terms up to its stop level.

    Level |n| holds the terms of J_n and J_{-n}, each at k = n + p (weight
    exp(i Phi)/2) and k = n - p (weight exp(-i Phi)/2) with c = weight *
    J_n/(i k); k = 0 (n = -p and n = +p) is the secular part and left out.
    The series may stop only past both resonant levels and |xi|, so its cap
    of max_terms levels grows to p levels, and to the Miller seed of |xi|,
    where J_n(xi) has long decayed (a NaN xi keeps max(max_terms, p)).
    """
    cap = max(max_terms, p, _miller_seed(abs(xi)) if math.isfinite(xi) else 0)
    past = max(abs(xi), p - 1)
    jn = _series_table(xi, past, cap + 1)
    eip = cmath.exp(1j * Phi)
    ks, cs = [], []
    for level in range(min(cap + 1, len(jn))):
        envelope = 0.0
        for n in (level,) if level == 0 else (level, -level):
            j = jn[level] if (n >= 0 or level % 2 == 0) else -jn[level]
            for k, e in ((n + p, eip), (n - p, eip.conjugate())):
                if k:
                    ks.append(k)
                    cs.append(0.5 * e * j / (1j * k))
                    envelope = max(envelope, abs(j) / abs(k))
        if level > past and envelope < abs_tol:
            k, c = np.array(ks, dtype=float), np.array(cs)
            k.flags.writeable = c.flags.writeable = False
            return k, c
    raise _not_converged("g", cap, abs_tol, xi)


def g_func(tau: float, xi: float, p: int, Phi: float):
    """Periodic remainder of int_0^tau exp(i*phi(tau')) cos(p*tau' + Phi) dtau'.

    Double Bessel sum excluding the resonant indices n = -p and n = +p
    (those produce the secular terms).  g(0) = 0 and g has period 2*pi.
    f3 = Re(g) and f4 = Im(g) are the periodic remainders of the
    cos(phi)*cos and sin(phi)*cos integrals respectively.
    """
    if p < 1:
        raise ValueError("harmonic p must be >= 1")
    k, c = _g_coefficients(xi, p, Phi, _SERIES_ABS_TOL, _SERIES_MAX_TERMS)
    return complex(np.dot(c, np.expm1(1j * tau * k)))


def f_aux(i: int, tau: float, xi: float, p: int = 1, Phi: float = 0.0) -> float:
    """Periodic auxiliary f_i(tau), i in 1..4.

    f1: remainder of int cos(phi) after removing J_0(xi)*tau (period pi).
    f2: int sin(phi) (no secular part; period 2*pi).
    f3, f4: real and imaginary parts of g(tau) -- remainders of the
        cos(phi)*cos(p tau+Phi) and sin(phi)*cos(p tau+Phi) integrals.
    """
    if i in (1, 2):
        # f1 = sum 2 J_m/m sin(m tau) over m = 2, 4, .., 2 cap;
        # f2 = sum 4 J_m/m sin^2(m tau/2) over m = 1, 3, .., 2 cap + 1
        tol, cap = _SERIES_ABS_TOL, _SERIES_MAX_TERMS
        past = abs(xi)
        jn = _series_table(xi, past, 2 * cap + i)
        two_i = 2.0 * i
        total = 0.0
        for m in range(3 - i, min(2 * cap + i, len(jn)), 2):
            c = two_i * jn[m] / m
            if i == 1:
                total += c * math.sin(m * tau)
            else:
                s = math.sin(0.5 * m * tau)
                total += c * s * s
            if m > past and abs(c) < tol:
                return total
        raise _not_converged(f"f{i}", cap, tol, xi)
    if i == 3:
        return g_func(tau, xi, p, Phi).real
    if i == 4:
        return g_func(tau, xi, p, Phi).imag
    raise ValueError("i must be one of 1, 2, 3, 4")
