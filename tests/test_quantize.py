"""Quantization-formula tests: pinned integrable values, cluster spacing by
finite differencing, remainder-bound arithmetic, the optimal-order law
against brute force, and lattice window counting."""
import math

import numpy as np
import pytest

from resonorm.errors import ConfigError
from resonorm.kam import NormalFormState
from resonorm.quantize import (
    QuantumNumbers,
    action_index_set,
    optimal_n_brute,
    optimal_n_stirling,
    predict_spectrum,
    remainder_bound,
    resonant_lambdas,
)
from resonorm.series import FourierTaylorSeries, PhaseGeometry


def make_state(omega, M=None, eps=0.0, d0=0):
    geo = PhaseGeometry(d=len(omega), d0=d0)
    return NormalFormState.initial(geo, omega, M, eps,
                                   FourierTaylorSeries.zero(geo))


# ---------------------------------------------------------------------------
# predict_spectrum
# ---------------------------------------------------------------------------

def test_integrable_two_torus_value():
    # eps = 0, omega = (1, sqrt2), h = 0.1, n = (2, 1): E = 0.1*(2 + sqrt2)
    st = make_state([1.0, math.sqrt(2.0)])
    pred = predict_spectrum(st, h=0.1, epsilon=0.0, maslov=(0, 0),
                            window=(0.30, 0.38))
    want = 0.1 * (2.0 + math.sqrt(2.0))
    hits = [e for qn, e in pred.entries if qn.n_y == (2, 1)]
    assert len(hits) == 1
    assert hits[0] == pytest.approx(want, abs=1e-15)


def test_integrable_spectrum_is_linear_form():
    st = make_state([1.0, math.sqrt(2.0)])
    pred = predict_spectrum(st, h=0.05, epsilon=0.0, maslov=(1, 2),
                            window=(-0.5, 0.5))
    for qn, e in pred.entries:
        want = 0.05 * ((qn.n_y[0] + 0.25) + math.sqrt(2.0) * (qn.n_y[1] + 0.5))
        assert e == pytest.approx(want, abs=1e-14)
    es = pred.energies()
    assert np.all(np.diff(es) >= -1e-15)


def test_resonant_ground_contribution_paper_scaling():
    # lam = lamt = 1, n_u = n_v = 0 contributes eps/2
    eps = 0.01
    st = make_state([1.0], M=np.eye(2), eps=eps, d0=1)
    pred = predict_spectrum(st, h=0.1, epsilon=eps, maslov=(0,),
                            window=(-0.3, 0.3), scaling="component", n_res_max=2)
    ground = [e for qn, e in pred.entries if qn.n_y == (0,)
              and qn.n_u == (0,) and qn.n_v == (0,)]
    assert ground[0] == pytest.approx(eps / 2.0, abs=1e-15)


def test_cluster_spacing_by_finite_difference():
    # finite differences of the enumerated table at fixed n_y: stepping one
    # resonant quantum number moves the level by (eps/2)*lam or (eps/2)*lamt,
    # so the smallest adjacent-number spacing is (eps/2)*min(lam, lamt)
    eps = 0.01
    lam, lamt = 1.0, 3.0
    st = make_state([1.0], M=np.diag([lam, lamt]), eps=eps, d0=1)
    pred = predict_spectrum(st, h=0.5, epsilon=eps, maslov=(0,),
                            window=(0.4, 0.6), scaling="component", n_res_max=4)
    table = {(qn.n_u, qn.n_v): e for qn, e in pred.entries if qn.n_y == (1,)}
    du = [table[((n + 1,), v)] - table[((n,), v)]
          for ((n,), v) in table if ((n + 1,), v) in table]
    dv = [table[(u, (n + 1,))] - table[(u, (n,))]
          for (u, (n,)) in table if (u, (n + 1,)) in table]
    assert du and dv
    assert np.allclose(du, 0.5 * eps * lam, rtol=1e-12)
    assert np.allclose(dv, 0.5 * eps * lamt, rtol=1e-12)
    assert min(min(du), min(dv)) == pytest.approx(0.5 * eps * min(lam, lamt),
                                                  rel=1e-9)


def test_oscillator_scaling_spacing():
    eps, h = 0.01, 0.05
    lam, lamt = 1.0, 4.0
    st = make_state([1.0], M=np.diag([lam, lamt]), eps=eps, d0=1)
    pred = predict_spectrum(st, h=h, epsilon=eps, maslov=(0,),
                            window=(0.04, 0.06), scaling="oscillator",
                            n_res_max=3)
    cluster = sorted(e for qn, e in pred.entries if qn.n_y == (1,))
    gaps = np.diff(cluster)
    # sqrt(lam*lamt) = 2: spacing eps*h*2
    assert gaps[0] == pytest.approx(eps * h * 2.0, rel=1e-12)
    assert all(qn.n_v == (0,) for qn, _ in pred.entries)


def test_cluster_diameter_bound():
    # grouping by n_y: each cluster's spread stays below
    # (eps/2)(sum lam + sum lamt) * (n_res_max + 1)
    eps = 0.01
    lam, lamt = 1.0, 2.0
    nmax = 3
    st = make_state([1.0], M=np.diag([lam, lamt]), eps=eps, d0=1)
    pred = predict_spectrum(st, h=0.5, epsilon=eps, maslov=(0,),
                            window=(0.3, 0.7), scaling="component",
                            n_res_max=nmax)
    ids = pred.cluster_ids()
    es = pred.energies()
    bound = 0.5 * eps * (lam + lamt) * (nmax + 1)
    for cid in set(ids):
        vals = es[ids == cid]
        assert vals.max() - vals.min() <= bound + 1e-15


def test_lambda_lists_orthogonal_invariance():
    rng = np.random.default_rng(3)
    lam = np.array([1.0, 2.5])
    lamt = np.array([0.5, 4.0])
    d0 = 2
    M = np.zeros((4, 4))
    M[:2, :2] = np.diag(lam)
    M[2:, 2:] = np.diag(lamt)
    theta = rng.normal()
    Q = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    M2 = M.copy()
    M2[:2, :2] = Q @ M[:2, :2] @ Q.T
    M2[2:, 2:] = Q @ M[2:, 2:] @ Q.T
    a1, b1 = resonant_lambdas(M, d0)
    a2, b2 = resonant_lambdas(M2, d0)
    assert np.allclose(a1, a2)
    assert np.allclose(b1, b2)


def test_nonsymmetric_M_rejected():
    st = make_state([1.0], M=np.array([[1.0, 0.5], [0.0, 1.0]]), eps=0.01,
                    d0=1)
    with pytest.raises(ConfigError, match="symmetric"):
        predict_spectrum(st, h=0.1, epsilon=0.01, maslov=(0,),
                         window=(0.0, 1.0))


# ---------------------------------------------------------------------------
# remainder bound
# ---------------------------------------------------------------------------

def test_remainder_zero_at_eps_zero():
    assert remainder_bound(0.1, 0.0, 2.0) == 0.0


def test_remainder_ratio_under_default_reading():
    # alpha = 2, c = C = 1, eps = 1: bound(0.01)/bound(0.02) = e^-50
    r = remainder_bound(0.01, 1.0, 2.0) / remainder_bound(0.02, 1.0, 2.0)
    assert r == pytest.approx(math.exp(-50.0), rel=1e-9)


def test_remainder_vanishes_as_h_to_zero():
    # monotone on a grid; the smallest h values may underflow to exact zero
    hs = np.geomspace(1e-3, 0.5, 24)
    vals = [remainder_bound(h, 0.5, 2.0) for h in hs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[0] < vals[-1] * 1e-10


def test_remainder_literal_sign_selectable():
    v = remainder_bound(0.01, 1.0, 2.0, exponent_sign=+1)
    assert v == pytest.approx(math.exp(-0.01), rel=1e-12)


# ---------------------------------------------------------------------------
# optimal n
# ---------------------------------------------------------------------------

def test_optimal_n_matches_stirling_within_factor_two():
    for alpha in (1.5, 2.0, 3.0):
        for delta in (1e-1, 1e-2, 1e-3, 1e-4):
            # pick C so the stationary point is interior to [1, 200]
            target = 0.1 if alpha == 1.5 else 1e-2
            C = target / delta
            n_star = optimal_n_stirling(C, delta, alpha)
            n_hat = optimal_n_brute(C, delta, alpha)
            assert n_star <= 150.0
            ratio = n_hat / n_star
            assert 0.5 <= ratio <= 2.0, (alpha, delta, n_hat, n_star)


# ---------------------------------------------------------------------------
# action index set
# ---------------------------------------------------------------------------

def test_index_set_single_point_window():
    h, L = 0.01, 3.0
    I0 = 0.503
    ms, empty = action_index_set([[I0]], h, L, (0,))
    assert not empty
    width = len(ms)
    assert width in (2 * int(L), 2 * int(L) + 1, 2 * int(L) + 2)
    for m in ms:
        assert abs(I0 - h * m[0]) <= L * h + 1e-12


def test_index_set_halving_h_doubles_count():
    # cloud sampled far below the window width so it acts like the segment
    seg = np.linspace(0.3, 0.7, 20_000).reshape(-1, 1)
    n1 = len(action_index_set(seg, 1e-3, 0.5, (0,))[0])
    n2 = len(action_index_set(seg, 5e-4, 0.5, (0,))[0])
    assert abs(n2 / n1 - 2.0) < 0.1


def test_index_set_L_zero_generic_empty():
    ms, _ = action_index_set([[0.5004937]], 0.01, 0.0, (0,))
    assert ms == []


def test_index_set_empty_cloud_flagged():
    ms, empty = action_index_set(np.zeros((0, 1)), 0.01, 1.0, (0,))
    assert empty and ms == []
