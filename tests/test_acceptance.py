"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured numbers.  Tolerances are pinned here, not configured."""
import json
import math
import time

import numpy as np
import pytest

from desk import desk_model
from resonorm.errors import InvariantError
from resonorm.freqsets import ZoneSpec, excluded_set_measure, summability_check, zone_measure_mc
from resonorm.gevrey import (
    gamma_extremal,
    lemma_ba_bound,
    power_log_delta,
    subgevrey_exp_delta,
)
from resonorm.kam import NormalFormState, Schedule, homological_residual, iterate, solve_homological
from resonorm.oracle import build_operator, diagonalize, interior, match_spectrum
from resonorm.quantize import optimal_n_brute, optimal_n_stirling, predict_spectrum
from resonorm.scarring import (
    build_quasi_table,
    mass_on_torus,
    match_quasimodes,
    resonant_ground_energy,
    separation_check,
    torus_window_modes,
    window_census,
)
from resonorm.series import FourierTaylorSeries, PhaseGeometry, to_text

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
DELTA = power_log_delta(a=2.0, alpha=2.0)


def _report(num, detail):
    print(f"ACCEPTANCE {num}: PASS — {detail}")


def cos_series(geo, k, amp=1.0):
    zk = (0,) * geo.d
    zq = (0,) * geo.zdim
    return FourierTaylorSeries.from_terms(geo, [
        ((k, zk, zq), amp / 2.0),
        ((tuple(-v for v in k), zk, zq), amp / 2.0)])


# ---------------------------------------------------------------------------

def test_criterion_1_exact_integrable_limit():
    """eps = 0 torus models in d = 1 and d = 2: prediction equals the
    diagonalization oracle to 1e-12 on every interior mode, within 1 s."""
    t0 = time.monotonic()
    worst = 0.0
    for omega in ([1.0], [1.0, math.sqrt(2.0)]):
        d = len(omega)
        h = 0.05
        geo = PhaseGeometry(d=d, d0=0)
        state = NormalFormState.initial(geo, omega, None, 0.0,
                                        FourierTaylorSeries.zero(geo))
        Nt = 6
        op = build_operator(state.integrable_series(), h, Nt, 1)
        vals, vecs = diagonalize(op)
        for i, e in enumerate(vals):
            mode = op.torus_modes[int(np.argmax(np.abs(vecs[:, i])))]
            pred = state.epsilon_series() + h * float(
                np.dot(state.omega_p(), mode))
            worst = max(worst, abs(pred - e))
    elapsed = time.monotonic() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    _report(1, f"max |prediction - oracle| = {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_homological_residual():
    """100 randomized ansatz-shaped solves: residual <= 1e-10 |R|."""
    rng = np.random.default_rng(2024)
    geo = PhaseGeometry(d=2, d0=1)
    M = np.array([[1.1, 0.3], [0.3, 1.9]])
    omega = np.array([1.0, GOLDEN])
    worst_ratio = 0.0
    for _ in range(100):
        terms = {}
        for _ in range(10):
            k = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            shape = int(rng.integers(0, 4))
            j, q = (0, 0), (0, 0)
            if shape == 1:
                j = (1, 0) if rng.random() < 0.5 else (0, 1)
            elif shape == 2:
                q = (1, 0) if rng.random() < 0.5 else (0, 1)
            elif shape == 3:
                q = tuple(rng.multinomial(2, [0.5, 0.5]))
            terms[(k, j, q)] = complex(rng.normal(), rng.normal())
        R = FourierTaylorSeries(geo, terms)
        R = (R + R.conjugate()).scale(0.5)
        if R.is_zero():
            continue
        eps = 10.0 ** rng.uniform(-4, -1)
        F = solve_homological(omega, M, eps, R.scale(eps), 0.01, DELTA)
        ratio = (homological_residual(omega, M, eps, R.scale(eps), F)
                 / R.norm_l1())
        worst_ratio = max(worst_ratio, ratio)
    assert worst_ratio <= 1e-10
    _report(2, f"worst residual / |R| = {worst_ratio:.2e} over 100 solves")


def test_criterion_3_kam_contraction():
    """H = w y + eps cos x, golden w, eps = 1e-3: a single constant C with
    |P_(p+1)| <= C |P_p|^1.5 for p = 1..4, inside 10 s."""
    t0 = time.monotonic()
    eps = 1e-3
    geo = PhaseGeometry(d=1, d0=0)
    P = cos_series(geo, (1,)).scale(eps)
    st = NormalFormState.initial(geo, [GOLDEN], None, eps, P)
    res = iterate(st, DELTA, Schedule(gamma=0.01, target=0.0), pmax=4)
    traj = res.trajectory
    while len(traj) < 5:
        traj = traj + [0.0]
    C = 0.0
    for p in range(1, 5):
        a, b = traj[p - 1], traj[p]
        if a > 0:
            C = max(C, b / a ** 1.5)
        else:
            assert b == 0.0
    for p in range(1, 5):
        assert traj[p] <= C * traj[p - 1] ** 1.5 + 1e-300
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(3, f"trajectory {['%.3e' % t for t in traj]}, logged C = {C:.3e}, "
               f"{elapsed:.2f}s")


def test_criterion_4_cluster_structure():
    """1 torus x 1 resonant dof at h = 0.05, eps = 0.01: coarse spacing h*w
    within 5%, intra-cluster spacing within 10% of the prediction under the
    oscillator scaling; dim <= 2000, under 60 s."""
    t0 = time.monotonic()
    h, eps, w = 0.05, 0.01, 1.0
    lam = lamt = 1.0
    st, op = desk_model(h, 14, 24, eps=eps, lam=lam, lamt=lamt, w=w)
    pred = predict_spectrum(st, h=h, epsilon=eps, maslov=(0,),
                            window=(0.12, 0.38), scaling="oscillator",
                            n_res_max=5)
    assert op.dim <= 2000
    eigs = np.sort(np.linalg.eigvalsh(interior(op).matrix))
    sel = eigs[(eigs > 0.12) & (eigs < 0.38)]
    rep = match_spectrum(sel, pred)
    centers = sorted(rep.clusters[i].center for i, _ in rep.matched)
    coarse = np.diff(centers)
    assert np.all(np.abs(coarse - h * w) <= 0.05 * h * w)
    want = eps * h * math.sqrt(lam * lamt)
    err = abs(rep.intra_spacing_oracle - want) / want
    assert err <= 0.10
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, f"coarse spacing ~ {float(np.mean(coarse)):.5f} (target {h*w}), "
               f"intra spacing err {100*err:.1f}%, dim {op.dim}, {elapsed:.1f}s")


def test_criterion_5_optimal_truncation_order():
    """Brute-force argmin over n <= 200 within a factor 2 of the stationary
    formula across delta in {1e-1..1e-4}, alpha in {1.5, 2, 3}."""
    worst = 1.0
    for alpha in (1.5, 2.0, 3.0):
        for dexp in (1e-1, 1e-2, 1e-3, 1e-4):
            target = 0.1 if alpha == 1.5 else 1e-2
            C = target / dexp
            n_star = optimal_n_stirling(C, dexp, alpha)
            n_hat = optimal_n_brute(C, dexp, alpha)
            ratio = n_hat / n_star
            worst = max(worst, max(ratio, 1.0 / ratio))
            assert 0.5 <= ratio <= 2.0, (alpha, dexp, n_hat, n_star)
    _report(5, f"worst brute/stirling ratio = {worst:.3f}")


def test_criterion_6_measure_estimates():
    """MC vs exact strips/triangles within 3 ci95; excluded set below its
    majorant and linear in gamma1 under doubling; summability reproduces
    pi^2/6 - 1 to 1e-6."""
    est, ci = zone_measure_mc(ZoneSpec(k=(1, 0), beta=0.1), 2, 200_000, 101)
    assert abs(est - 0.1) <= 3 * ci
    est2, ci2 = zone_measure_mc(ZoneSpec(k=(1, 1), beta=0.1), 2, 400_000, 103)
    assert abs(est2 - 0.005) <= 3 * ci2

    delta3 = power_log_delta(a=3.0, alpha=2.0)
    g1 = 2e-3
    kw = dict(delta=delta3, Kmax=6, l=2, d=2, samples=400_000, seed=105)
    e1, c1, maj1 = excluded_set_measure(g1, **kw)
    e2, c2, maj2 = excluded_set_measure(2 * g1, **kw)
    assert e1 <= maj1 + 3 * c1
    assert e2 <= maj2 + 3 * c2
    ratio = e2 / e1
    assert 1.6 <= ratio <= 2.4

    res = summability_check(power_log_delta(a=2.0, alpha=2.0), d=1, tol=1e-9)
    err = abs(res.estimate - (math.pi ** 2 / 6.0 - 1.0))
    assert res.converges and err <= 1e-6
    _report(6, f"strip {est:.4f}+-{ci:.4f}, triangle {est2:.5f}+-{ci2:.5f}, "
               f"doubling ratio {ratio:.2f}, series err {err:.1e}")


def test_criterion_7_integral_bound_dominates():
    """Both Delta families over a 3x3x3 grid of (alpha, kappa, T):
    gamma_extremal <= the integral bound with 1e-8 slack."""
    checked = 0
    for alpha in (1.5, 2.0, 3.0):
        families = [power_log_delta(a=2.0, alpha=alpha),
                    subgevrey_exp_delta(beta=1.0 / (2.0 * alpha), alpha=alpha)]
        for delta in families:
            for kappa in (1.25, 1.5, 2.0):
                for T in (1.0, 2.0, 4.0):
                    a, c, eta, bound = lemma_ba_bound(delta, kappa, T, n=1, r=1)
                    val = gamma_extremal(1, 1, eta, delta)
                    assert val <= bound * (1.0 + 1e-8), \
                        (delta.name, alpha, kappa, T, val, bound)
                    checked += 1
    _report(7, f"{checked} (family, alpha, kappa, T) cells all bounded")


def _desk_model(h, eps=0.01, lam=1.0, lamt=1.0, w=1.0, window=(0.12, 0.38),
                Nh=24, coupling=0.1):
    Nt = int(math.ceil(window[1] / (h * w))) + 4
    st, op = desk_model(h, Nt, Nh, eps=eps, lam=lam, lamt=lamt, w=w,
                        coupling=coupling)
    sub = interior(op)
    vals, vecs = np.linalg.eigh(sub.matrix)
    sel = (vals >= window[0]) & (vals <= window[1])
    modes = [(m,) for m in range(int(window[0] / h) + 1,
                                 int(window[1] / h) + 1)]
    offset = resonant_ground_energy(st, h, "oscillator")
    table = build_quasi_table(st, h, (0,), modes, offset=offset)
    table = table.select((window[0] <= table.mu) & (table.mu <= window[1]))
    return st, op, vals[sel], vecs[:, sel], table


def test_criterion_8_separation_and_windows():
    """Desk model: no separation violations at the measured constant,
    pairwise disjoint windows, census fraction >= 1 - 2/lam at lam = 4."""
    h = 0.02
    st, op, eigs, vecs, table = _desk_model(h)
    rep = separation_check(table, C1=1.0, delta_fn=DELTA)
    assert rep.violations == []
    assert rep.measured_C2 > 0
    lam = 4.0
    census = window_census(table, 1.85, eigs, lam=lam, R=2.0)
    assert census.fraction >= 1.0 - 2.0 / lam
    occupied = sum(1 for c in census.counts.values() if c > 0)
    _report(8, f"C2 = {rep.measured_C2:.3f} over {rep.qualifying_pairs} pairs, "
               f"census fraction {census.fraction:.2f} "
               f"({occupied}/{len(census.counts)} windows occupied)")


def test_criterion_9_scarring_mass():
    """Matched eigenfunctions carry torus-window mass above
    (1/(2 lam))^2 (meas ratio)^2 for >= 80% of pairs at the smallest h,
    within 2 minutes."""
    t0 = time.monotonic()
    lam = 4.0
    meas_ratio = 0.5
    threshold = (meas_ratio / (2.0 * lam)) ** 2
    fractions = []
    for h in (0.05, 0.02):
        st, op, eigs, vecs, table = _desk_model(h)
        matches = match_quasimodes(table, eigs)
        assert matches
        good = 0
        for m, idx, e, dist in matches:
            I_m = h * np.asarray(m, dtype=float)
            wmodes = torus_window_modes(op.torus_modes, h, I_m, 2.5 * h)
            mass = mass_on_torus(vecs[:, idx], wmodes)
            good += mass >= threshold
        fractions.append(good / len(matches))
    elapsed = time.monotonic() - t0
    assert fractions[-1] >= 0.8
    assert elapsed < 120.0
    _report(9, f"passing fractions {fractions} at threshold {threshold:.4f}, "
               f"{elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    """Any command rerun with an identical manifest is bit-identical."""
    from resonorm.cli import main

    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[gevrey]
family = power_log
a = 3.0
alpha = 2.0

[measure]
l = 2
d = 2
samples = 50000
zones = 1 0 0.1 ; 1 1 0.1
gamma1 = 2e-3
Kmax = 5

[gamma_table]
r = 0 1
n = 0 1

[direct]
omega = 1.6180339887498949
d0 = 0
epsilon = 0.0

[kam]
gamma = 0.01
pmax = 2

[quantize]
h = 0.05
window = 0.0 0.4
maslov = 0

[oracle]
Nh = 1

[run]
seed = 99
""")
    pairs = []
    for cmdname in ("measure", "gamma", "spectrum", "compare"):
        o1 = tmp_path / f"{cmdname}_1"
        o2 = tmp_path / f"{cmdname}_2"
        assert main([cmdname, "--config", str(cfg), "--out", str(o1)]) == 0
        assert main([cmdname, "--config", str(cfg), "--out", str(o2)]) == 0
        for f1 in sorted(o1.iterdir()):
            f2 = o2 / f1.name
            assert f2.exists()
            assert f1.read_bytes() == f2.read_bytes(), f1.name
            pairs.append(f1.name)
    _report(10, f"bit-identical reruns across {len(pairs)} output files "
                f"({len(set(pairs))} distinct)")
