"""Gevrey machinery tests: extremal function vs dense-grid oracle, the
integral bound, admissibility checks, majorant norm axioms, and the
bracket-norm inequality with a measured constant."""
import math

import numpy as np
import pytest

from scipy.integrate import quad

from resonorm.errors import DivergenceError
from resonorm.gevrey import (
    ApproximationFunction,
    GevreyWeights,
    _log_objective,
    check_admissible,
    gamma_extremal,
    lemma_ba_bound,
    majorant_norm,
    power_log_delta,
    subgevrey_exp_delta,
)
from resonorm.quadrature import qagi
from resonorm.series import FourierTaylorSeries, PhaseGeometry, poisson_bracket

from test_series import random_series

G21 = PhaseGeometry(d=2, d0=1)


def dense_grid_sup(r, n, eta, delta, thi=1e10):
    """Independent maximization oracle: brute dense grid plus one linear
    refinement pass around the coarse argmax; no golden section."""
    def logf(t):
        return (r * math.log1p(t) + n * math.log(delta(t))
                - eta * t ** (1.0 / delta.alpha))

    ts = np.concatenate(([0.0], np.geomspace(1e-10, thi, 400_000)))
    vals = np.array([logf(t) for t in ts])
    i = int(np.argmax(vals))
    lo, hi = ts[max(0, i - 1)], ts[min(len(ts) - 1, i + 1)]
    fine = np.linspace(lo, hi, 20_000)
    best = max(vals[i], max(logf(t) for t in fine))
    return math.exp(best)


# ---------------------------------------------------------------------------
# gamma_extremal
# ---------------------------------------------------------------------------

def test_gamma_degenerate_delta_is_one():
    # Delta == 1 stub: integrand is decreasing, sup attained at t = 0
    stub = ApproximationFunction(alpha=2.0, log=lambda t: 0.0 * t, name="unit-stub")
    assert abs(gamma_extremal(0, 1, 0.7, stub) - 1.0) < 1e-10


def test_gamma_against_dense_grid_oracle():
    # r=1, n=0, alpha=2, eta=1: sup (1+t) e^{-sqrt(t)}
    delta = power_log_delta(a=2.0, alpha=2.0)
    got = gamma_extremal(1, 0, 1.0, delta)
    want = dense_grid_sup(1, 0, 1.0, delta)
    assert abs(got - want) <= 1e-6 * want
    # analytically: d/ds (1+s^2)e^{-s} = -(s-1)^2 e^{-s} <= 0, so sup = 1
    assert abs(got - 1.0) < 1e-8

    for (r, n, eta) in [(2, 1, 0.8), (0, 2, 1.5), (3, 2, 2.0)]:
        got = gamma_extremal(r, n, eta, delta)
        want = dense_grid_sup(r, n, eta, delta)
        assert abs(got - want) <= 1e-5 * want


def test_gamma_monotonicity():
    delta = power_log_delta(a=2.0, alpha=2.0)
    etas = [0.5, 1.0, 2.0]
    vals = [gamma_extremal(1, 1, e, delta) for e in etas]
    assert vals[0] >= vals[1] >= vals[2]
    assert gamma_extremal(2, 1, 1.0, delta) >= gamma_extremal(1, 1, 1.0, delta)
    assert gamma_extremal(1, 2, 1.0, delta) >= gamma_extremal(1, 1, 1.0, delta)


def test_gamma_divergence_reported():
    # Delta growing like e^t beats any stretched-exponential damping
    bad = ApproximationFunction(alpha=2.0, log=lambda t: t, name="bad")
    with pytest.raises(DivergenceError):
        gamma_extremal(0, 1, 0.5, bad)


# ---------------------------------------------------------------------------
# lemma_ba_bound
# ---------------------------------------------------------------------------

def test_bound_trivial_case():
    delta = power_log_delta(a=2.0, alpha=2.0)
    a, c, eta, bound = lemma_ba_bound(delta, kappa=2.0, T=1.0, n=0, r=0)
    assert eta == 0.0 and bound == 1.0


def test_bound_closed_form_integral():
    # Delta = exp(t^(1/(2*alpha))), alpha = 2: integrand t^(1/4 - 3/2),
    # integral over [1, inf) = 4, so a = 4 / log 2.
    delta = subgevrey_exp_delta(beta=0.25, alpha=2.0)
    a, c, eta, bound = lemma_ba_bound(delta, kappa=2.0, T=1.0, n=1, r=0)
    assert abs(a - 4.0 / math.log(2.0)) < 1e-7
    assert abs(eta - a) < 1e-12
    assert abs(bound - math.exp(eta)) < 1e-7 * bound


def test_bound_monotone_in_T():
    delta = power_log_delta(a=2.0, alpha=2.0)
    a1, _, _, b1 = lemma_ba_bound(delta, 2.0, 1.0, n=1, r=1)
    a2, _, _, b2 = lemma_ba_bound(delta, 2.0, 4.0, n=1, r=1)
    assert a2 < a1          # integrand is positive
    assert b2 > b1          # exp(eta T^(1/alpha)) grows with T here


def test_bound_dominates_extremal():
    # the conclusion of the integral bound, checked numerically
    deltas = [power_log_delta(a=2.0, alpha=2.0),
              power_log_delta(a=3.0, b=1.0, alpha=3.0),
              subgevrey_exp_delta(beta=0.3, alpha=2.0)]
    for delta in deltas:
        for (n, r) in [(1, 0), (0, 1), (2, 1)]:
            for T in (1.0, 3.0):
                a, c, eta, bound = lemma_ba_bound(delta, 2.0, T, n, r)
                val = gamma_extremal(r, n, eta, delta)
                assert val <= bound * (1 + 1e-8), (delta.name, n, r, T)


def test_bound_rejects_divergent_integral():
    # log Delta = t: the a integrand t^(-1/2) is not integrable on [1, inf);
    # QAGI's result (-2) and error (6e-13) look fine, its ier 5 does not
    bad = ApproximationFunction(alpha=2.0, log=lambda t: t)
    with pytest.raises(DivergenceError, match="ier a=5"):
        lemma_ba_bound(bad, 2.0, 1.0, n=1, r=0)


# ---------------------------------------------------------------------------
# QAGI port
# ---------------------------------------------------------------------------

def _quad_cases():
    """(integrand, lower limit, epsrel): the a and c integrals of the
    integral bound, and the summability tail integrand at d = 1, 2."""
    for a, b, alpha in ((3, 0, 2), (2, 0, 2), (3, 2, 1.5), (1, 1, 3), (2, 1, 2)):
        delta = power_log_delta(a, b, alpha)
        expo = 1.0 + 1.0 / alpha
        for T in (1.0, 2.0, 4.0, 10.0):
            yield (lambda t, delta=delta, expo=expo:
                   max(delta.log(t), 0.0) / t ** expo), T, 1e-10
            yield (lambda t, expo=expo: math.log1p(t) / t ** expo), T, 1e-10
    cube = power_log_delta(a=3.0)
    for d in (1, 2):
        for M in (50_000, 50_001):
            yield (lambda t, d=d: t ** (d - 1) * np.exp(-cube.log(t))), M, 1.49e-8


def test_qagi_equals_quad_bit_for_bit():
    cases = list(_quad_cases())
    assert len(cases) == 44
    for f, lo, epsrel in cases:
        result, abserr, ier = qagi(f, lo, epsabs=1.49e-8, epsrel=epsrel,
                                   limit=400)
        assert (result, abserr) == quad(f, lo, np.inf, epsabs=1.49e-8,
                                        epsrel=epsrel, limit=400), lo
        assert ier == 0


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_admissible_families():
    assert check_admissible(power_log_delta(a=2.0, alpha=2.0)).ok
    assert check_admissible(power_log_delta(a=3.0, b=2.0, alpha=1.5)).ok
    assert check_admissible(subgevrey_exp_delta(beta=0.3, alpha=2.0)).ok


def test_inadmissible_exponential():
    # exp(t) has log Delta / t^(1/2) increasing: fails
    bad = ApproximationFunction(alpha=2.0, log=lambda t: t)
    rep = check_admissible(bad, grid_hi=1e4)
    assert not rep.ok


def test_inadmissible_bounded():
    flat = ApproximationFunction(alpha=2.0,
                                 log=lambda t: np.log1p(1e-8 * np.tanh(t)))
    rep = check_admissible(flat, grid_hi=1e4)
    assert not rep.ok


def test_delta_values_match_scalar_calls():
    ms = np.arange(1.0, 50_001.0)
    cube = power_log_delta(a=3.0)             # one exp(log) path for both
    assert np.array_equal(cube.values(ms), [cube(m) for m in ms])
    for delta in (power_log_delta(a=2.5, b=1.0), subgevrey_exp_delta(beta=0.3)):
        np.testing.assert_allclose(delta.values(ms), [delta(m) for m in ms],
                                   rtol=1e-14)


def test_log_values_and_call_agree():
    # (1+t)^3 with a linear tail in log Delta past 1e6, which leaves the
    # float range before 1e12: log Delta stays finite there while Delta is
    # +inf
    tail = ApproximationFunction(
        alpha=2.0, log=lambda t: 3.0 * np.log1p(np.minimum(t, 1e6))
        + 3e-6 * np.maximum(t - 1e6, 0.0), name="linear tail")
    ts = np.array([0.0, 0.5, 3.0, 1e3, 1e6, 1e8, 1e12])
    for delta in (power_log_delta(a=2.0), power_log_delta(a=2.5, b=1.0),
                  subgevrey_exp_delta(beta=0.3), tail):
        logs = delta.log(ts)
        assert np.isfinite(logs).all(), delta.name
        vals = delta.values(ts)
        with np.errstate(over="ignore"):
            assert np.array_equal(vals, np.exp(logs)), delta.name
        np.testing.assert_allclose([delta.log(t) for t in ts.tolist()], logs,
                                   rtol=1e-14)
        np.testing.assert_allclose([delta(t) for t in ts.tolist()], vals,
                                   rtol=1e-14)
        np.testing.assert_allclose([delta.values(t) for t in ts.tolist()],
                                   vals, rtol=1e-14)
    assert vals[-1] == math.inf and vals[-2] < math.inf


def test_gamma_objective_without_delta_ignores_infinite_log():
    # log Delta = +inf past t = 1e3; with n = 0 it must not enter as 0 * inf
    capped = ApproximationFunction(
        alpha=2.0, log=lambda t: np.where(t < 1e3, 2.0 * np.log1p(t), np.inf))
    grid = np.concatenate(([0.0], np.geomspace(1e-8, 1e14, 1200)))
    assert not np.isnan(_log_objective(capped, 1, 0, 1.0)(grid)).any()
    # sup (1+t) e^{-sqrt(t)} = 1, as in test_gamma_against_dense_grid_oracle
    assert abs(gamma_extremal(1, 0, 1.0, capped) - 1.0) < 1e-8


def test_delta_inverse():
    delta = power_log_delta(a=2.0, alpha=2.0)
    for s in (1.5, 10.0, 400.0):
        t = delta.inverse(s)
        assert abs(delta(t) - s) < 1e-6 * s


# ---------------------------------------------------------------------------
# majorant norm
# ---------------------------------------------------------------------------

def test_norm_single_mode():
    geo = PhaseGeometry(d=2, d0=0)
    f = FourierTaylorSeries.fourier_mode(geo, (1, 0))
    w = GevreyWeights(rho=0.7, sigma=1.0, alpha=2.0)
    assert abs(majorant_norm(f, w) - math.exp(0.7)) < 1e-14
    assert majorant_norm(FourierTaylorSeries.zero(geo), w) == 0.0


def test_norm_matches_termwise_loop():
    # reference: the term-by-term sum the array expression replaced; the
    # summation order differs, hence the relative tolerance
    def loop_norm(f, w, radius):
        total = 0.0
        for (k, j, q), c in f.terms():
            deg = sum(j) + sum(q)
            weight = math.exp(w.rho * max(map(abs, k), default=0) ** (1.0 / w.alpha))
            if deg:
                weight *= radius ** deg * math.exp(w.sigma * deg ** (1.0 / w.alpha))
            total += abs(c) * weight
        return total

    rng = np.random.default_rng(13)
    for geo in (PhaseGeometry(d=1, d0=0), G21, PhaseGeometry(d=2, d0=2)):
        for w, radius in ((GevreyWeights(0.5, 0.5, 2.0), 1.0),
                          (GevreyWeights(0.9, 0.3, 1.5), 0.5),
                          (GevreyWeights(0.2, 1.1, 3.0), 2.0)):
            f = random_series(geo, rng, nterms=40, kmax=4, degmax=4)
            want = loop_norm(f, w, radius)
            assert abs(majorant_norm(f, w, radius) - want) <= 1e-13 * want


def test_norm_axioms():
    rng = np.random.default_rng(3)
    w = GevreyWeights(rho=0.5, sigma=0.5, alpha=2.0)
    for _ in range(10):
        f = random_series(G21, rng)
        g = random_series(G21, rng)
        c = complex(rng.normal(), rng.normal())
        assert abs(majorant_norm(f.scale(c), w) - abs(c) * majorant_norm(f, w)) < 1e-10
        assert majorant_norm(f + g, w) <= majorant_norm(f, w) + majorant_norm(g, w) + 1e-12


def test_norm_monotone_in_weights():
    rng = np.random.default_rng(5)
    f = random_series(G21, rng)
    lo = GevreyWeights(rho=0.2, sigma=0.2, alpha=2.0)
    hi = GevreyWeights(rho=0.6, sigma=0.9, alpha=2.0)
    assert majorant_norm(f, lo) <= majorant_norm(f, hi)
    assert majorant_norm(f, lo, radius=0.5) <= majorant_norm(f, lo, radius=2.0)


def test_bracket_norm_inequality_measured_constant():
    # |{f,g}|_(rho', sigma') <= C / ((rho-rho')(sigma-sigma')) |f| |g|
    # with the constant measured empirically and reported.
    rng = np.random.default_rng(7)
    w = GevreyWeights(rho=1.0, sigma=1.0, alpha=2.0)
    wp = GevreyWeights(rho=0.5, sigma=0.5, alpha=2.0)
    loss = (w.rho - wp.rho) * (w.sigma - wp.sigma)
    cmax = 0.0
    for _ in range(40):
        f = random_series(G21, rng, nterms=6, kmax=2, degmax=3)
        g = random_series(G21, rng, nterms=6, kmax=2, degmax=3)
        nf, ng = majorant_norm(f, w), majorant_norm(g, w)
        if nf < 1e-9 or ng < 1e-9:
            continue
        nb = majorant_norm(poisson_bracket(f, g), wp)
        cmax = max(cmax, nb * loss / (nf * ng))
    print(f"measured bracket-norm constant C = {cmax:.4f} at loss {loss}")
    assert 0.0 < cmax < 100.0
