import cmath
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from dressedspin import special
from dressedspin.errors import SeriesNotConverged
from dressedspin.fitting import bisect_root
from dressedspin.special import bessel_j, f_aux, g_func, phi

from conftest import bessel_series_oracle

# First J0 zero, frozen from the power-series oracle + bisection (re-derived
# in test_first_j0_root below).
J0_ROOT = 2.404825557695773


def test_bessel_trivials():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


def test_bessel_against_series_oracle():
    for n in range(0, 21):
        for x in np.linspace(-12.0, 12.0, 97):
            assert bessel_j(n, float(x)) == pytest.approx(
                bessel_series_oracle(n, float(x)), abs=1e-12
            )


def test_bessel_contract_domain_against_scipy():
    # accuracy contract: abs error <= 1e-12 for |x| <= 50, n <= 20
    worst = 0.0
    for n in range(0, 21):
        for x in np.linspace(-50.0, 50.0, 201):
            worst = max(worst, abs(bessel_j(n, float(x)) - scipy.special.jv(n, x)))
    assert worst < 1e-12


def test_first_j0_root():
    # the spec'd oracle: power series + bisection, then the package root-finder
    oracle_root = bisect_root(lambda x: bessel_series_oracle(0, x), 2.0, 3.0, xtol=1e-14)
    repo_root = bisect_root(lambda x: bessel_j(0, x), 2.0, 3.0, xtol=1e-14)
    assert repo_root == pytest.approx(oracle_root, abs=1e-12)
    assert repo_root == pytest.approx(J0_ROOT, abs=1e-10)
    assert abs(bessel_j(0, repo_root)) < 1e-12


def test_bessel_symmetry(rng):
    for _ in range(200):
        n = int(rng.integers(0, 15))
        x = float(rng.uniform(-20, 20))
        assert bessel_j(n, -x) == pytest.approx((-1.0) ** n * bessel_j(n, x), abs=1e-14)


def test_bessel_generating_identity(rng):
    # partial sums of sum_n J_n(z) e^{i n theta} reproduce e^{i z sin theta}
    for _ in range(40):
        z = float(rng.uniform(0, 5))
        theta = float(rng.uniform(0, 2 * np.pi))
        total = bessel_j(0, z) + 0j
        for n in range(1, 40):
            jn = bessel_j(n, z)
            total += jn * cmath.exp(1j * n * theta)
            total += jn * (-1.0) ** n * cmath.exp(-1j * n * theta)
        assert abs(total - cmath.exp(1j * z * math.sin(theta))) < 1e-10


def test_bessel_rejects_negative_order():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)


def test_phi():
    assert phi(0.0, 5.0) == 0.0
    assert phi(math.pi / 2, 1.833) == pytest.approx(1.833, rel=1e-15)
    assert phi(2 * math.pi, 1.5) == pytest.approx(0.0, abs=1e-15)


def test_f_aux_zero_at_origin():
    assert f_aux(1, 0.0, 2.2) == 0.0
    assert f_aux(2, 0.0, 2.2) == 0.0
    assert g_func(0.0, 2.2, 2, 0.7) == 0.0


def test_g_vanishes_after_full_period():
    for xi, p, Phi in ((1.5, 2, 0.3), (3.2, 1, 1.1), (0.7, 3, 4.0)):
        assert abs(g_func(2 * math.pi, xi, p, Phi)) < 1e-12


def test_g_rejects_bad_harmonic():
    with pytest.raises(ValueError):
        g_func(1.0, 1.0, 0, 0.0)
    with pytest.raises(ValueError):
        f_aux(5, 1.0, 1.0)


def test_periodicity(rng):
    # f1 has period pi; f2, f3, f4 (and g) have period 2*pi
    xi, p, Phi = 2.7, 2, 0.9
    for _ in range(100):
        tau = float(rng.uniform(0, 4 * np.pi))
        assert f_aux(1, tau + math.pi, xi) == pytest.approx(f_aux(1, tau, xi), abs=1e-9)
        assert f_aux(2, tau + 2 * math.pi, xi) == pytest.approx(f_aux(2, tau, xi), abs=1e-9)
        assert g_func(tau + 2 * math.pi, xi, p, Phi) == pytest.approx(
            g_func(tau, xi, p, Phi), abs=1e-9
        )


def test_boundedness_envelope():
    for xi in (0.5, 2.0, 5.0):
        taus = np.linspace(0.0, 2 * np.pi, 400)
        bound = 10.0 * (1.0 + xi)
        for i in (1, 2):
            assert max(abs(f_aux(i, float(t), xi)) for t in taus) < bound
        for p in (1, 2, 3):
            assert max(abs(g_func(float(t), xi, p, 0.4)) for t in taus) < bound


def _quad(f, a, b):
    val, _ = scipy.integrate.quad(f, a, b, limit=400)
    return val


def test_integral_identities(rng):
    # quadrature of each drive integral equals secular term + f_i(tau)
    for _ in range(12):
        xi = float(rng.uniform(0, 5))
        p = int(rng.integers(1, 4))
        Phi = float(rng.uniform(0, 2 * np.pi))
        tau = float(rng.uniform(0, 4 * np.pi))
        j0 = bessel_j(0, xi)
        jp = bessel_j(p, xi)

        i1 = _quad(lambda t: math.cos(phi(t, xi)), 0, tau)
        assert i1 == pytest.approx(j0 * tau + f_aux(1, tau, xi), abs=1e-8)

        i2 = _quad(lambda t: math.sin(phi(t, xi)), 0, tau)
        assert i2 == pytest.approx(f_aux(2, tau, xi), abs=1e-8)

        i3 = _quad(lambda t: math.cos(phi(t, xi)) * math.cos(p * t + Phi), 0, tau)
        sec3 = 0.5 * (1 + (-1) ** p) * jp * math.cos(Phi) * tau
        assert i3 == pytest.approx(sec3 + f_aux(3, tau, xi, p, Phi), abs=1e-8)

        i4 = _quad(lambda t: math.sin(phi(t, xi)) * math.cos(p * t + Phi), 0, tau)
        sec4 = 0.5 * (-1 + (-1) ** p) * jp * math.sin(Phi) * tau
        assert i4 == pytest.approx(sec4 + f_aux(4, tau, xi, p, Phi), abs=1e-8)


def test_f3_example_against_quadrature():
    tau, xi, p, Phi = 1.0, 2.0, 1, math.pi / 2
    i3 = _quad(lambda t: math.cos(phi(t, xi)) * math.cos(p * t + Phi), 0, tau)
    sec3 = 0.0  # p odd: no secular cos-cos term
    assert f_aux(3, tau, xi, p, Phi) == pytest.approx(i3 - sec3, abs=1e-9)


def test_g_example_against_quadrature():
    tau, xi, p, Phi = 1.3, 1.5, 2, 0.0
    re = _quad(lambda t: math.cos(phi(t, xi)) * math.cos(p * t + Phi), 0, tau)
    im = _quad(lambda t: math.sin(phi(t, xi)) * math.cos(p * t + Phi), 0, tau)
    sec_re = bessel_j(p, xi) * math.cos(Phi) * tau  # p even
    g = g_func(tau, xi, p, Phi)
    assert g.real == pytest.approx(re - sec_re, abs=1e-9)
    assert g.imag == pytest.approx(im, abs=1e-9)


def _use_rule(monkeypatch, abs_tol, max_terms):
    """Set the series truncation rule for the rest of a test."""
    monkeypatch.setattr(special, "_SERIES_ABS_TOL", abs_tol)
    monkeypatch.setattr(special, "_SERIES_MAX_TERMS", max_terms)


# The shipped truncation rule, as (abs_tol, max_terms).
_DEFAULT_RULE = (1e-12, 64)


def test_series_not_converged(monkeypatch):
    # xi far beyond the term cap keeps the envelope above tolerance; the
    # message reports the cap it used
    _use_rule(monkeypatch, 1e-12, 8)
    with pytest.raises(SeriesNotConverged, match="f1 series: 8 levels"):
        f_aux(1, 1.0, 40.0)
    with pytest.raises(SeriesNotConverged, match="g series: 8 levels"):
        g_func(1.0, 40.0, 2, 0.0)


def test_g_cap_grows_to_the_harmonic():
    # g may stop only past level p - 1, so for a harmonic above the cap of 64
    # levels the cap grows to p levels.  At xi = 0 only J_0 = 1 is left:
    # g = (exp(i Phi)(exp(i p tau) - 1) - exp(-i Phi)(exp(-i p tau) - 1))/(2 i p)
    Phi = 0.7
    for p in (65, 100, 171):
        for tau in (0.3, 2.9, 5.5):
            want = (cmath.exp(1j * Phi) * (cmath.exp(1j * p * tau) - 1.0)
                    - cmath.exp(-1j * Phi) * (cmath.exp(-1j * p * tau) - 1.0)) / (2j * p)
            assert abs(g_func(tau, 0.0, p, Phi) - want) <= 1e-15
    with pytest.raises(SeriesNotConverged, match="g series: 65 levels"):
        g_func(1.0, 60.0, 65, 0.0)


# Reference copies of the per-order routines: one full downward recurrence
# per Bessel order, and one truncation loop per series.  The range form of
# bessel_j and the shared truncation rule must reproduce them.


def _per_order_bessel_j(n, x):
    if n < 0:
        raise ValueError("order n must be >= 0")
    sign = 1.0
    if x < 0.0:
        x = -x
        if n % 2:
            sign = -1.0
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x < 1e-7:
        t = (0.5 * x) ** n / math.factorial(n)
        return sign * t * (1.0 - 0.25 * x * x / (n + 1))
    top = max(n, x)
    m = int(top + 12.0 * max(4.0, top) ** (1.0 / 3.0)) + 22
    if m % 2:
        m += 1
    jp, jc, target, norm = 0.0, 1.0, 0.0, 0.0
    for k in range(m, 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp = jc
        jc = jm
        idx = k - 1
        if idx == n:
            target = jc
        if idx > 0 and idx % 2 == 0:
            norm += 2.0 * jc
        if abs(jc) > 1e250:
            jc /= 1e250
            jp /= 1e250
            norm /= 1e250
            target /= 1e250
    norm += jc
    return sign * target / norm


def _per_order_g(tau, xi, p, Phi, rule):
    abs_tol, max_terms = rule
    eip = cmath.exp(1j * Phi)
    emp = eip.conjugate()
    total = 0.0 + 0.0j
    min_level = max(p, int(abs(xi)) + 1)
    for level in range(0, max_terms + 1):
        jn_abs = _per_order_bessel_j(level, xi)
        envelope = 0.0
        for n in (level,) if level == 0 else (level, -level):
            jn = jn_abs if (n >= 0 or level % 2 == 0) else -jn_abs
            if n != -p:
                k = n + p
                total += 0.5 * eip * jn / (1j * k) * (cmath.exp(1j * k * tau) - 1.0)
                envelope = max(envelope, abs(jn) / abs(k))
            if n != p:
                k = n - p
                total += 0.5 * emp * jn / (1j * k) * (cmath.exp(1j * k * tau) - 1.0)
                envelope = max(envelope, abs(jn) / abs(k))
        if level >= min_level and envelope < abs_tol:
            return total
    raise SeriesNotConverged("g")


def _per_order_f12(i, tau, xi, rule):
    abs_tol, max_terms = rule
    total = 0.0
    for n in range(1 if i == 1 else 0, max_terms + 1):
        if i == 1:
            c = _per_order_bessel_j(2 * n, xi) / n
            total += c * math.sin(2 * n * tau)
            order = 2 * n
        else:
            c = 4.0 * _per_order_bessel_j(2 * n + 1, xi) / (2 * n + 1)
            s = math.sin((n + 0.5) * tau)
            total += c * s * s
            order = 2 * n + 1
        if order > abs(xi) and abs(c) < abs_tol:
            return total
    raise SeriesNotConverged(f"f{i}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SeriesNotConverged:
        return SeriesNotConverged


def test_scalar_bessel_bit_identical_to_per_order_recurrence():
    xs = [float(x) for x in np.linspace(-60.0, 60.0, 481)] + [0.0, -0.0, 5e-8, -5e-8, 9.99e-8, 1e-300]
    mismatches = [(n, x) for n in range(25) for x in xs if bessel_j(n, x) != _per_order_bessel_j(n, x)]
    assert mismatches == []


def test_bessel_table_against_scipy():
    # the stated range: |x| <= 130 for n < 200 (a series requests at most 130
    # orders), with x = 0 and the small-argument branch below 1e-7, where k!
    # of orders past 170 does not fit a float
    tiny = [0.0, -0.0, 1e-300, -1e-300, 5e-8, -5e-8, 9.99e-8, -9.99e-8, 1e-7, -1e-7]
    worst = 0.0
    for x in [float(v) for v in np.linspace(-130.0, 130.0, 1041)] + tiny:
        table = np.array(bessel_j(range(200), x))
        worst = max(worst, float(np.max(np.abs(table - scipy.special.jv(np.arange(200), x)))))
    assert worst < 1e-12
    assert bessel_j(171, 0.0) == 0.0 and bessel_j(199, -5e-8) == 0.0


def test_low_orders_against_scipy_at_large_argument():
    # and |x| in (130, 1e4] for n < 8
    worst = 0.0
    for x in np.concatenate((np.geomspace(130.5, 1e4, 60), -np.geomspace(131.0, 1e4, 20))):
        table = np.array(bessel_j(range(8), float(x)))
        worst = max(worst, float(np.max(np.abs(table - scipy.special.jv(np.arange(8), x)))))
    assert worst < 1e-12


def test_bessel_range_form_edges():
    assert bessel_j(range(0), 1.3) == []
    assert bessel_j(range(3), 0.0) == [1.0, 0.0, 0.0]
    tiny = bessel_j(range(4), -5e-8)
    assert tiny == [bessel_j(n, -5e-8) for n in range(4)]
    assert bessel_j(range(3, 6), 2.5) == pytest.approx([bessel_j(n, 2.5) for n in range(3, 6)], abs=1e-15)
    with pytest.raises(ValueError):
        bessel_j(range(0, 6, 2), 1.0)
    with pytest.raises(ValueError):
        bessel_j(range(-1, 3), 1.0)


@settings(deadline=None)
@given(
    n=st.integers(0, 40),
    extra=st.integers(0, 90),
    x=st.floats(-50.0, 50.0, allow_nan=False),
)
def test_table_element_matches_scalar_call(n, extra, x):
    # the table seeds its recurrence above order n + extra, the scalar call above n
    assert abs(bessel_j(range(n + extra + 1), x)[n] - bessel_j(n, x)) <= 1e-15


def test_orders_past_the_miller_seed_are_negligible():
    # a series table stops at the Miller seed of past = max(|xi|, p - 1) and reads the orders beyond as zero
    for x in np.linspace(-60.0, 60.0, 481):
        for p in range(1, 4):
            order = special._miller_seed(max(abs(x), p - 1)) + 1
            assert abs(scipy.special.jv(order, x)) < 2e-28


_SERIES_GRID_RULES = (_DEFAULT_RULE, (1e-12, 8), (1e-6, 20))
_SERIES_GRID_XI = (0.0, 1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0, 2.404825557695773, 3.0, 3.83, 4.0, 5.5, 7.0,
                   10.0, 16.0, 22.5, 30.0, 40.0, 45.0, 60.0, -2.7, -9.0)


def test_series_match_per_order_series_and_fail_on_the_same_cells(monkeypatch):
    worst = 0.0
    raised = 0
    for rule in _SERIES_GRID_RULES:
        _use_rule(monkeypatch, *rule)
        for xi in _SERIES_GRID_XI:
            for tau in (0.0, 0.9, 2.5, 5.0):
                cells = [((i, tau, xi, 1, 0.0), _outcome(_per_order_f12, i, tau, xi, rule)) for i in (1, 2)]
                for p in (1, 2, 3):
                    for Phi in (0.0, 1.2):
                        ref = _outcome(_per_order_g, tau, xi, p, Phi, rule)
                        assert type(_outcome(g_func, tau, xi, p, Phi)) is type(ref)
                        if ref is not SeriesNotConverged:
                            worst = max(worst, abs(g_func(tau, xi, p, Phi) - ref))
                            cells += [((3, tau, xi, p, Phi), ref.real), ((4, tau, xi, p, Phi), ref.imag)]
                        else:
                            cells += [((3, tau, xi, p, Phi), ref), ((4, tau, xi, p, Phi), ref)]
                for args, ref in cells:
                    got = _outcome(f_aux, *args)
                    if ref is SeriesNotConverged:
                        raised += 1
                        assert got is SeriesNotConverged, args
                    else:
                        assert got is not SeriesNotConverged, args
                        worst = max(worst, abs(got - ref))
    assert worst <= 1e-14
    assert raised > 0
    # the default cap is reached by g at xi = 40 and 60
    monkeypatch.undo()
    for xi in (40.0, 60.0):
        with pytest.raises(SeriesNotConverged):
            g_func(1.0, xi, 2, 0.0)
        with pytest.raises(SeriesNotConverged):
            f_aux(3, 1.0, xi, 1, 0.0)


def test_series_at_nan_xi_raise_series_not_converged():
    for i in (1, 2, 3, 4):
        with pytest.raises(SeriesNotConverged):
            f_aux(i, 0.5, math.nan, 2, 0.3)


def _clear_caches():
    special._bessel_table.cache_clear()
    special._g_coefficients.cache_clear()


def test_one_bessel_call_per_series_evaluation(monkeypatch):
    # with the memo caches cleared, each f/g evaluation reads one range table and
    # runs at most one recurrence; g at a key it has seen reads none
    calls = []

    def counting(n, x):
        calls.append(n)
        return bessel_j(n, x)

    monkeypatch.setattr(special, "bessel_j", counting)
    _clear_caches()
    for evaluate in (
        lambda: f_aux(1, 0.7, 3.1),
        lambda: f_aux(2, 0.7, 3.1),
        lambda: f_aux(3, 0.7, 3.1, 2, 0.4),
        lambda: f_aux(4, 0.7, 3.1, 1, 0.4),
        lambda: g_func(0.7, 3.1, 3, 1.9),
    ):
        calls.clear()
        misses = special._bessel_table.cache_info().misses
        evaluate()
        assert len(calls) == 1 and isinstance(calls[0], range)
        assert special._bessel_table.cache_info().misses - misses <= 1
    calls.clear()
    misses = special._bessel_table.cache_info().misses
    g_func(2.2, 3.1, 3, 1.9)
    f_aux(3, 5.0, 3.1, 2, 0.4)
    assert calls == []
    assert special._bessel_table.cache_info().misses == misses
    f_aux(1, 1.3, 3.1)  # f reads its table on every evaluation, from the cache
    assert len(calls) == 1 and special._bessel_table.cache_info().misses == misses


def _bits(value):
    values = value if isinstance(value, list) else [value]
    return [v.hex() if isinstance(v, float) else (v.real.hex(), v.imag.hex()) for v in values]


_CACHE_X = st.one_of(
    st.floats(-60.0, 60.0, allow_nan=False),
    st.floats(-1e-7, 1e-7, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -9.99e-8]),
)


@settings(deadline=None, max_examples=200)
@given(lo=st.integers(0, 40), width=st.integers(0, 90), x=_CACHE_X, other=_CACHE_X)
def test_bessel_results_do_not_depend_on_cache_state(lo, width, x, other):
    def evaluate():
        return _bits(bessel_j(range(lo, lo + width), x)) + _bits(bessel_j(lo, x)) + _bits(bessel_j(range(lo + 1), x))

    _clear_caches()
    cold = evaluate()
    warm = evaluate()
    bessel_j(range(lo + width), other)  # evicts nothing at this bound, shares a key when |other| == |x|
    after_other = evaluate()
    _clear_caches()
    assert cold == warm == after_other == evaluate()
    assert _bits(bessel_j(lo, x)) == _bits(_per_order_bessel_j(lo, x))


@settings(deadline=None, max_examples=100)
@given(
    tau=st.floats(0.0, 7.0),
    xi=st.one_of(st.floats(-30.0, 30.0, allow_nan=False), st.sampled_from([0.0, -0.0, 1e-8])),
    p=st.integers(1, 4),
    Phi=st.floats(0.0, 6.3),
)
def test_series_results_do_not_depend_on_cache_state(tau, xi, p, Phi):
    def evaluate():
        return _bits(g_func(tau, xi, p, Phi)) + _bits(f_aux(1, tau, xi)) + _bits(f_aux(2, tau, xi))

    _clear_caches()
    cold = evaluate()
    warm = evaluate()
    g_func(tau + 1.0, xi, p, Phi)
    _clear_caches()
    assert cold == warm == evaluate()


def test_bessel_table_is_a_fresh_list():
    for x in (2.5, -2.5, 3e-8):
        expected = bessel_j(range(6), x)
        first = bessel_j(range(6), x)
        first[1] = 99.0
        first.append(1.0)
        assert bessel_j(range(6), x) == expected
        assert bessel_j(range(6), x) is not bessel_j(range(6), x)


def test_series_not_converged_is_raised_on_every_call(monkeypatch):
    # an exception is never cached: each repeat recomputes and raises again
    _clear_caches()
    for _ in range(3):
        with monkeypatch.context() as mp:
            _use_rule(mp, 1e-12, 8)
            with pytest.raises(SeriesNotConverged):
                g_func(1.0, 40.0, 2, 0.0)
        with pytest.raises(SeriesNotConverged):
            g_func(1.0, math.nan, 2, 0.3)
        with pytest.raises(SeriesNotConverged):
            f_aux(4, 0.5, math.nan, 2, 0.3)
        with monkeypatch.context() as mp:
            _use_rule(mp, 1e-12, 8)
            with pytest.raises(SeriesNotConverged):
                f_aux(1, 1.0, 40.0)
    info = special._g_coefficients.cache_info()
    assert info.currsize == 0 and info.misses == 9


def test_g_coefficients_are_keyed_on_phase_and_series_control(monkeypatch):
    loose = (1e-6, 20)
    cases = [(Phi, rule) for Phi in (0.4, 1.3, 0.4 + 2 * math.pi) for rule in (_DEFAULT_RULE, loose)]

    def g_under(Phi, rule):
        with monkeypatch.context() as mp:
            _use_rule(mp, *rule)
            return g_func(1.1, 2.3, 2, Phi)

    cold = {}
    for Phi, rule in cases:
        _clear_caches()
        cold[Phi, rule] = _bits(g_under(Phi, rule))
    _clear_caches()
    for _ in range(2):
        for Phi, rule in cases:
            assert _bits(g_under(Phi, rule)) == cold[Phi, rule]
    assert special._g_coefficients.cache_info().currsize == len(cases)
    assert cold[0.4, _DEFAULT_RULE] != cold[0.4, loose] and cold[0.4, _DEFAULT_RULE] != cold[1.3, _DEFAULT_RULE]
    for Phi, rule in cases:
        assert abs(g_under(Phi, rule) - _per_order_g(1.1, 2.3, 2, Phi, rule)) <= 1e-14


def test_warm_series_follow_a_changed_truncation_rule(monkeypatch):
    # the rule is read at call time and is part of the g memo key: a call
    # warmed under the shipped rule, repeated under another, gives that
    # rule's cold-cache value (and its SeriesNotConverged)
    def evaluate():
        return _bits(g_func(0.8, 2.3, 2, 0.4)) + _bits(f_aux(4, 0.8, 2.3, 2, 0.4)) + _bits(f_aux(1, 0.8, 2.3))

    assert (special._SERIES_ABS_TOL, special._SERIES_MAX_TERMS) == _DEFAULT_RULE
    _clear_caches()
    shipped = evaluate()
    g_func(1.0, 30.0, 2, 0.0)  # converges under the shipped cap of 64 levels
    _use_rule(monkeypatch, 1e-6, 20)
    warm = evaluate()
    with pytest.raises(SeriesNotConverged, match="g series: 20 levels with envelope >= 1e-06"):
        g_func(1.0, 30.0, 2, 0.0)
    _clear_caches()
    assert warm == evaluate() != shipped
    monkeypatch.undo()
    assert evaluate() == shipped
