"""Iteration tests: divisor conditions against hand determinants and an
exhaustive search oracle, homological solves with substitute-back
residuals, one-step behavior on the linear-frequency model, quadratic-type
contraction on a twisted model, and state reconstruction invariants."""
import itertools
import math

import numpy as np
import pytest

from resonorm.errors import ConfigError, DivisorError, InvariantError
from resonorm.gevrey import GevreyWeights, majorant_norm, power_log_delta
from resonorm.kam import (
    NormalFormState,
    Schedule,
    StepRejectedError,
    check_divisors,
    divisor_determinants,
    homological_residual,
    iterate,
    kam_step,
    solve_homological,
    symplectic_J,
)
from resonorm.series import (
    FourierTaylorSeries,
    PhaseGeometry,
    average_over_angles,
    lie_transform_auto,
    poisson_bracket,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
DELTA = power_log_delta(a=2.0, alpha=2.0)

G1 = PhaseGeometry(d=1, d0=0)
G11 = PhaseGeometry(d=1, d0=1)


def cos_series(geo, k, amp=1.0):
    zk = (0,) * geo.d
    zq = (0,) * geo.zdim
    return FourierTaylorSeries.from_terms(geo, [
        ((k, zk, zq), amp / 2.0),
        ((tuple(-v for v in k), zk, zq), amp / 2.0)])


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

def test_divisors_no_resonant_block():
    member, reports = check_divisors([1.0], None, Kplus=3, gamma=0.05,
                                     delta=DELTA)
    assert member
    assert all(r.detA1 is None and r.detA2 is None for r in reports)
    # |<k,w>| = |k| >= 0.05/(1+|k|)^2 always here
    assert all(abs(r.kw) >= r.threshold_kw for r in reports)


def test_divisor_matrix_determinant_by_hand():
    # d0 = 1, M = diag(lam, lamt): det A1 = lam*lamt - kw^2
    lam, lamt, kw = 2.0, 3.0, 0.7
    det1, det2 = divisor_determinants(kw, np.diag([lam, lamt]))
    assert abs(det1 - (lam * lamt - kw ** 2)) < 1e-12
    # A2 eigenvalues are -i*kw + mu_i + mu_j for the MJ eigenvalues mu
    MJ = np.diag([lam, lamt]) @ symplectic_J(1)
    mus = np.linalg.eigvals(MJ)
    want = 1.0
    for mi in mus:
        for mj in mus:
            want *= (-1j * kw + mi + mj)
    assert abs(det2 - want) < 1e-9 * abs(want)


def kron_divisor_dets(kw: float, M: np.ndarray):
    """Reference: LU determinants of A1 = -i kw + MJ and of its Kronecker
    sum A2 = -i kw + MJ (x) I + I (x) MJ, built as matrices."""
    n = M.shape[0]
    MJ = M @ symplectic_J(n // 2)
    A1 = -1j * kw * np.eye(n) + MJ
    A2 = (-1j * kw * np.eye(n * n)
          + np.kron(MJ, np.eye(n)) + np.kron(np.eye(n), MJ))
    return complex(np.linalg.det(A1)), complex(np.linalg.det(A2))


def test_divisor_determinants_match_kronecker_lu():
    rng = np.random.default_rng(41)
    Ms = [np.diag([1.0, 0.0])]          # MJ nilpotent: defective
    for d0 in (1, 2):
        for _ in range(3):
            X = rng.normal(size=(2 * d0, 2 * d0))
            Ms.append(X + X.T)
    kws = np.concatenate([np.linspace(-3.0, 3.0, 25), [1e-9, -0.37]])
    assert 0.0 in kws
    for M in Ms:
        n = M.shape[0]
        det1, det2 = divisor_determinants(kws, M)
        assert det1.shape == det2.shape == kws.shape
        # absolute scale: the product of the factor magnitudes (det A2
        # vanishes at kw = 0, the eigenvalues of MJ come in pairs +-mu)
        mu = np.abs(np.linalg.eigvals(M @ symplectic_J(n // 2)))
        for kw, got1, got2 in zip(kws, det1, det2):
            want1, want2 = kron_divisor_dets(kw, M)
            assert abs(got1 - want1) <= 1e-13 * np.prod(mu + abs(kw))
            assert abs(got2 - want2) <= 1e-13 * np.prod(
                (mu[:, None] + mu) + abs(kw))


def test_divisors_golden_ratio_window():
    # exhaustive oracle: direct minimum over the mode box
    omega = np.array([1.0, GOLDEN])
    gamma, Kplus = 0.01, 20
    member, reports = check_divisors(omega, None, Kplus, gamma, DELTA)
    worst = min(abs(r.kw) * DELTA(max(abs(c) for c in r.k)) for r in reports)
    assert worst >= gamma
    assert member


def test_divisors_detect_failure():
    # rational frequency: k = (1, -2) annihilates it
    member, reports = check_divisors([2.0, 1.0], None, 3, 0.01, DELTA)
    assert not member
    bad = [r for r in reports if not r.passed]
    assert any(r.k in ((1, -2), (-1, 2)) for r in bad)


def divisor_loop(omega, M, Kplus, gamma):
    """Per-mode reference for check_divisors: the k box from
    itertools.product, kw by np.dot, LU determinants of built matrices.
    Rows are (k, kw, det A1, det A2, thresholds, which conditions fail)."""
    d0 = M.shape[0] // 2
    rows = []
    for k in itertools.product(range(-Kplus, Kplus + 1), repeat=len(omega)):
        kn = max(abs(c) for c in k)
        if kn == 0:
            continue
        kw = float(np.dot(k, omega))
        dk = DELTA(kn)
        th = (gamma / dk, (gamma ** (2 * d0)) / dk ** (2 * d0),
              (gamma ** (4 * d0 * d0)) / dk ** (4 * d0 * d0))
        det1, det2 = kron_divisor_dets(kw, M)
        fails = (not abs(kw) >= th[0], not abs(det1) > th[1],
                 not abs(det2) > th[2])
        rows.append((k, kw, det1, det2, th, fails))
    return rows


def test_check_divisors_matches_per_mode_loop():
    # the kam-divisor input (omega = (1, rho, rho^2), rho the plastic
    # number, M = diag(1, -1)), where |det A1| = 1 + kw^2 and
    # |det A2| = kw^2 (4 + kw^2) fail only together with the kw condition;
    # then an elliptic M with eigenvalues +-i lam of MJ, lam just above
    # |1 - golden|, so det A1 nearly vanishes at k = (-1, 1) and det A2 at
    # k = (-2, 2): across the cases each condition decides some mode alone;
    # last, a positive definite M with d0 = 2
    rho = 1.324717957244746
    lam = GOLDEN - 1.0 + 1e-3
    M2 = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.0, 0.0, 0.2],
                   [0.1, 0.0, 1.5, 0.4], [0.0, 0.2, 0.4, 0.8]])
    cases = [((1.0, rho, rho * rho), np.diag([1.0, -1.0]), 4.5),
             ((1.0, GOLDEN), np.diag([1.0, lam * lam]), 2.0),
             ((1.0, GOLDEN), np.diag([1.0, lam * lam]), 4.0),
             ((1.0, GOLDEN), M2, 4.0)]
    alone = set()
    for omega, M, gamma in cases:
        omega = np.array(omega)
        member, reports = check_divisors(omega, M, 6, gamma, DELTA)
        want = divisor_loop(omega, M, 6, gamma)
        assert [r.k for r in reports] == [w[0] for w in want]
        assert [r.passed for r in reports] == [not any(w[5]) for w in want]
        assert member == all(r.passed for r in reports) and not member
        assert any(r.passed for r in reports)
        alone |= {w[5].index(True) for w in want if sum(w[5]) == 1}
        for r, (k, kw, det1, det2, th, _) in zip(reports, want):
            assert (r.threshold_kw, r.threshold_A1, r.threshold_A2) == th
            assert abs(r.kw - kw) <= 1e-14 * (1 + np.abs(np.multiply(k, omega)).sum())
            assert abs(r.detA1 - det1) <= 1e-12 * abs(det1)
            assert abs(r.detA2 - det2) <= 1e-12 * abs(det2)
    assert alone == {0, 1, 2}


# ---------------------------------------------------------------------------
# homological solve
# ---------------------------------------------------------------------------

def test_solve_zero_rhs():
    R = FourierTaylorSeries.zero(G1)
    F = solve_homological([1.0], None, R, 0.01, 0.05, DELTA)
    assert F.is_zero()


def test_solve_cosine_gives_sine_shape():
    # d = 1, omega = 1: the generator for cos x is proportional to sin x and
    # the substituted-back residual vanishes
    omega = [1.0]
    R = cos_series(G1, (1,))
    eps = 1e-3
    F = solve_homological(omega, None, R, eps, 0.05, DELTA)
    # F = -eps * sin x: coefficients +-i*eps/2... checked via evaluation
    for x in (0.3, 1.1, 2.0):
        want = -eps * math.sin(x)
        got = F.evaluate([x]).real
        assert abs(got - want) < 1e-14
    assert homological_residual(omega, None, R, eps, F) < 1e-16


def test_solve_k0_linear_z():
    # k = 0 linear-z killing through the resonant matrix
    M = np.diag([2.0, 3.0])
    b = np.array([1.0, 0.0])
    R = FourierTaylorSeries.linear_z(G11, b)
    eps = 0.05
    F = solve_homological([1.0], M, R, eps, 0.05, DELTA)
    # M J F001 = -b with MJ = [[0,2],[-3,0]]: F001 = (0, -1/2)
    assert abs(F.coeff((0,), (0,), (1, 0)) - 0.0) < 1e-14
    assert abs(F.coeff((0,), (0,), (0, 1)) - (-0.5)) < 1e-14
    assert homological_residual([1.0], M, R, eps, F) < 1e-15


def test_solve_singular_M_rejected():
    M = np.diag([1.0, 0.0])
    R = FourierTaylorSeries.linear_z(G11, [0.0, 1.0])
    with pytest.raises(ConfigError, match="singular"):
        solve_homological([1.0], M, R, 0.01, 0.05, DELTA)


def test_solve_below_divisor_rejected():
    R = cos_series(PhaseGeometry(d=2, d0=0), (1, -2))
    with pytest.raises(DivisorError):
        solve_homological([2.0, 1.0], None, R, 0.01, 0.05, DELTA)


def test_solve_randomized_residuals():
    # randomized ansatz-shaped right-hand sides; residual <= 1e-10 |R|
    rng = np.random.default_rng(101)
    M = np.array([[1.3, 0.2], [0.2, 2.1]])
    omega = np.array([1.0, GOLDEN])
    geo = PhaseGeometry(d=2, d0=1)
    for trial in range(50):
        terms = {}
        for _ in range(8):
            k = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            shape = rng.integers(0, 4)
            j = (0, 0)
            q = (0, 0)
            if shape == 1:
                j = (1, 0) if rng.random() < 0.5 else (0, 1)
            elif shape == 2:
                q = (1, 0) if rng.random() < 0.5 else (0, 1)
            elif shape == 3:
                q = tuple(rng.multinomial(2, [0.5, 0.5]))
            terms[(k, j, q)] = complex(rng.normal(), rng.normal())
        R = FourierTaylorSeries(geo, 3, 2, terms)
        R = (R + R.conjugate()).scale(0.5)
        eps = 10.0 ** rng.uniform(-4, -1)
        F = solve_homological(omega, M, R, eps, 0.01, DELTA)
        res = homological_residual(omega, M, R, eps, F)
        assert res <= 1e-10 * max(R.norm_l1(), 1e-30)


# ---------------------------------------------------------------------------
# kam_step
# ---------------------------------------------------------------------------

def pendulum_state(eps=1e-3, omega=GOLDEN):
    P = cos_series(G1, (1,)).scale(eps)
    return NormalFormState.initial(G1, [omega], None, eps, P)


def test_step_zero_perturbation_only_counts():
    st = NormalFormState.initial(G1, [1.0], None, 0.0,
                                 FourierTaylorSeries.zero(G1))
    st2 = kam_step(st, 8, 0.05, DELTA)
    assert st2.p == 1
    assert np.allclose(st2.omega_p(), st.omega_p())
    assert st2.epsilon_series() == st.epsilon_series() == 0.0


def test_step_pendulum_exact_kill():
    # H = w*y + eps*cos x with linear H0: one step removes everything
    st = pendulum_state()
    st2 = kam_step(st, 8, 0.05, DELTA)
    assert st2.p == 1
    assert st2.P.is_zero()
    assert np.allclose(st2.omega_p(), st.omega_p())


def _ycos_series(geo, k, amp=1.0):
    ey = tuple(1 if i == 0 else 0 for i in range(geo.d))
    zq = (0,) * geo.zdim
    return FourierTaylorSeries.from_terms(geo, [
        ((k, ey, zq), amp / 2.0),
        ((tuple(-v for v in k), ey, zq), amp / 2.0)])


def test_step_reconstruction_invariants():
    # twisted model: the y-dependent mode re-feeds the cascade, and the
    # eps-series reconstructions match the running absolute values
    eps = 1e-2
    P = (cos_series(G1, (1,)) + _ycos_series(G1, (2,), 0.8)).scale(eps)
    flat = FourierTaylorSeries(G1, 0, 2, {((0,), (2,), ()): 0.5})
    st = NormalFormState.initial(G1, [GOLDEN], None, eps, P, rterm=flat)
    st1 = kam_step(st, 8, 0.05, DELTA)
    st2 = kam_step(st1, 16, 0.05, DELTA)
    # reconstruction: omega_p from stored coefficients
    omega_direct = st.omega0.copy()
    for s, w in enumerate(st2.omega_coeffs):
        omega_direct = omega_direct + w * eps ** (s + 1)
    assert np.allclose(st2.omega_p(), omega_direct, atol=1e-12)
    assert st2.p == 2
    assert len(st2.flows) == 2
    assert st2.norm_log[-1] <= st2.norm_log[0]


def test_step_resonant_block_symmetry():
    eps = 1e-2
    geo = G11
    M = np.diag([1.0, 1.5])
    P = (cos_series(geo, (1,))
         + FourierTaylorSeries(geo, 1, 2, {
             ((1,), (0,), (1, 0)): 0.2, ((-1,), (0,), (1, 0)): 0.2,
             ((1,), (0,), (0, 2)): 0.1, ((-1,), (0,), (0, 2)): 0.1,
             ((0,), (0,), (2, 0)): 0.05})).scale(eps)
    st = NormalFormState.initial(geo, [GOLDEN], M, eps, P)
    st1 = kam_step(st, 8, 0.05, DELTA)
    M1 = st1.M_p()
    assert np.allclose(M1, M1.T, atol=1e-12)
    st2 = kam_step(st1, 16, 0.05, DELTA)
    assert np.allclose(st2.M_p(), st2.M_p().T, atol=1e-12)
    assert st2.norm_log[-1] < st2.norm_log[0]


def test_step_killed_modes_are_gone():
    # after one step on the exact-kill model no low-mode ansatz mass remains
    st = pendulum_state()
    st2 = kam_step(st, 8, 0.05, DELTA)
    low = sum(abs(c) for (k, j, q), c in st2.P.terms()
              if max(abs(v) for v in k) <= 8)
    assert low <= 1e-10 * st.P.norm_l1()


def test_step_reversibility():
    eps = 1e-2
    P = (cos_series(G1, (1,)) + cos_series(G1, (2,), 0.5)).scale(eps)
    flat = FourierTaylorSeries(G1, 0, 2, {((0,), (2,), ()): 0.5})
    st = NormalFormState.initial(G1, [GOLDEN], None, eps, P, rterm=flat)
    st1 = kam_step(st, 8, 0.05, DELTA)
    F = st1.flows[-1]
    total_after = (st1.integrable_series()
                   + FourierTaylorSeries.constant(G1, st1.epsilon_series())
                   + st1.rterm_total() + st1.P)
    back, _ = lie_transform_auto(total_after, F, -1.0, tol=1e-16)
    total_before = (st.integrable_series()
                    + FourierTaylorSeries.constant(G1, st.epsilon_series())
                    + st.rterm_total() + st.P)
    assert (back - total_before).norm_l1() < 1e-8 * (1 + total_before.norm_l1())


def test_step_rejects_on_divisor_failure():
    st = pendulum_state(omega=0.5)   # k=(2) gives <k,w>=1... use rational pair
    st = NormalFormState.initial(
        PhaseGeometry(d=2, d0=0), [2.0, 1.0], None, 1e-3,
        cos_series(PhaseGeometry(d=2, d0=0), (1, -2)).scale(1e-3))
    with pytest.raises(DivisorError):
        kam_step(st, 8, 0.05, DELTA)


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------

def test_iterate_pmax_zero_identity():
    st = pendulum_state()
    res = iterate(st, DELTA, Schedule(), pmax=0)
    assert res.steps_run == 0
    assert res.state is st


def test_iterate_schedule_budget():
    sch = Schedule(rho=1.0, sigma=1.0)
    # sum of losses stays below the budget: sigma * pi^2/24 < sigma
    total_r = sum(sch.losses_at(p)[0] for p in range(1, 2000))
    assert total_r < sch.rho * (math.pi ** 2 / 24.0) + 1e-9
    w = sch.weights_after(2000, alpha=2.0)
    assert w.rho > 0 and w.sigma > 0
    assert sch.Kplus_at(3) == 3 * sch.K


def test_iterate_pendulum_trajectory():
    st = pendulum_state(eps=1e-3)
    res = iterate(st, DELTA, Schedule(gamma=0.01), pmax=4)
    assert res.trajectory[0] > 0
    assert res.trajectory[1] == 0.0
    assert res.stopped in ("target", "pmax")


def test_iterate_twisted_contraction_order():
    # y-dependent harmonic keeps the cascade alive; contraction is at least
    # order 1.5 per step on the measurable prefix of the trajectory
    eps = 1e-3
    P = (cos_series(G1, (1,)) + _ycos_series(G1, (2,), 0.8)).scale(eps)
    st = NormalFormState.initial(G1, [GOLDEN], None, eps, P)
    res = iterate(st, DELTA, Schedule(gamma=0.01, target=1e-30), pmax=5)
    traj = [t for t in res.trajectory if t > 1e-300]
    assert len(traj) >= 3
    for a, b in zip(traj, traj[1:]):
        if b <= 0 or a > 1.0:
            continue
        order = math.log(b) / math.log(a)
        assert order >= 1.5, (traj, order)


def test_iterate_reports_rejection():
    geo = PhaseGeometry(d=2, d0=0)
    st = NormalFormState.initial(geo, [2.0, 1.0], None, 1e-3,
                                 cos_series(geo, (1, -2)).scale(1e-3))
    res = iterate(st, DELTA, Schedule(), pmax=3)
    assert res.stopped == "rejected"
    assert res.rejection["kind"] == "DivisorError"
    assert res.steps_run == 0
