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
    _solve_modes,
    check_divisors,
    divisor_determinants,
    homological_residual,
    iterate,
    kam_step,
    solve_homological,
    symplectic_J,
)
from resonorm.reduction import (
    TaylorData,
    reduce_hamiltonian,
    unimodular_completion,
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
    member, table = check_divisors([1.0], None, Kplus=3, gamma=0.05,
                                   delta=DELTA)
    assert member
    assert table.detA1 is None and table.detA2 is None
    # |<k,w>| = |k| >= 0.05/(1+|k|)^2 always here
    assert np.all(np.abs(table.kw) >= table.threshold_kw)


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
    member, table = check_divisors(omega, None, Kplus, gamma, DELTA)
    deltas = [DELTA(m) for m in np.abs(table.k).max(axis=1)]
    worst = (np.abs(table.kw) * deltas).min()
    assert worst >= gamma
    assert member


def test_divisors_detect_failure():
    # rational frequency: k = (1, -2) annihilates it
    member, table = check_divisors([2.0, 1.0], None, 3, 0.01, DELTA)
    assert not member
    bad = table.k[~table.passed].tolist()
    assert any(k in ([1, -2], [-1, 2]) for k in bad)


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
        member, table = check_divisors(omega, M, 6, gamma, DELTA)
        want = divisor_loop(omega, M, 6, gamma)
        ks, kw, det1, det2, th, fails = (np.array(col) for col in zip(*want))
        assert np.array_equal(table.k, ks)
        assert np.array_equal(table.passed, ~fails.any(axis=1))
        assert member == table.passed.all() and not member
        assert table.passed.any()
        alone |= set(fails[fails.sum(axis=1) == 1].argmax(axis=1).tolist())
        assert np.array_equal(np.stack([table.threshold_kw, table.threshold_A1,
                                        table.threshold_A2], axis=1), th)
        assert np.all(np.abs(table.kw - kw)
                      <= 1e-14 * (1 + np.abs(ks * omega).sum(axis=1)))
        assert np.all(np.abs(table.detA1 - det1) <= 1e-12 * np.abs(det1))
        assert np.all(np.abs(table.detA2 - det2) <= 1e-12 * np.abs(det2))
    assert alone == {0, 1, 2}


# ---------------------------------------------------------------------------
# homological solve
# ---------------------------------------------------------------------------

def test_solve_zero_rhs():
    R = FourierTaylorSeries.zero(G1)
    F = solve_homological([1.0], None, 0.01, R, 0.05, DELTA)
    assert F.is_zero()


def test_solve_cosine_gives_sine_shape():
    # d = 1, omega = 1: the generator for cos x is proportional to sin x and
    # the substituted-back residual vanishes
    omega = [1.0]
    R = cos_series(G1, (1,))
    eps = 1e-3
    F = solve_homological(omega, None, eps, R.scale(eps), 0.05, DELTA)
    # F = -eps * sin x: coefficients +-i*eps/2... checked via evaluation
    for x in (0.3, 1.1, 2.0):
        want = -eps * math.sin(x)
        got = F.evaluate([x]).real
        assert abs(got - want) < 1e-14
    assert homological_residual(omega, None, eps, R.scale(eps), F) < 1e-16


def test_solve_k0_linear_z():
    # k = 0 linear-z killing through the resonant matrix
    M = np.diag([2.0, 3.0])
    b = np.array([1.0, 0.0])
    R = FourierTaylorSeries.linear_z(G11, b)
    eps = 0.05
    F = solve_homological([1.0], M, eps, R.scale(eps), 0.05, DELTA)
    # M J F001 = -b with MJ = [[0,2],[-3,0]]: F001 = (0, -1/2)
    assert abs(F.coeff((0,), (0,), (1, 0)) - 0.0) < 1e-14
    assert abs(F.coeff((0,), (0,), (0, 1)) - (-0.5)) < 1e-14
    assert homological_residual([1.0], M, eps, R.scale(eps), F) < 1e-15


def test_solve_singular_M_rejected():
    M = np.diag([1.0, 0.0])
    R = FourierTaylorSeries.linear_z(G11, [0.0, 1.0])
    with pytest.raises(ConfigError, match="singular"):
        solve_homological([1.0], M, 0.01, R, 0.05, DELTA)


def test_solve_below_divisor_rejected():
    R = cos_series(PhaseGeometry(d=2, d0=0), (1, -2))
    with pytest.raises(DivisorError):
        solve_homological([2.0, 1.0], None, 0.01, R, 0.05, DELTA)


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
        R = FourierTaylorSeries(geo, terms)
        R = (R + R.conjugate()).scale(0.5)
        eps = 10.0 ** rng.uniform(-4, -1)
        F = solve_homological(omega, M, eps, R.scale(eps), 0.01, DELTA)
        res = homological_residual(omega, M, eps, R.scale(eps), F)
        assert res <= 1e-10 * max(R.norm_l1(), 1e-30)


def solve_modes_loop(omega, M, eps, R, gamma):
    """Per-mode reference for _solve_modes: terms grouped by mode in a
    dict, each mode's blocks decoded term by term, one np.linalg.solve per
    mode and block against i<k,w> + eps MJ and its np.kron-built
    Kronecker sum.  Returns {(k, j, q): coefficient}."""
    geo = R.geometry
    d0, n = geo.d0, geo.zdim
    omega = np.asarray(omega, dtype=float)
    MJ = np.asarray(M, dtype=float) @ symplectic_J(d0) if d0 else None
    zj = (0,) * geo.d

    def unit(a):
        return tuple(int(c == a) for c in range(n))

    by_mode = {}
    for (k, j, q), c in R.terms():
        if (sum(j), sum(q)) not in ((0, 0), (1, 0), (0, 1), (0, 2)):
            raise ConfigError(f"R is not ansatz shaped at {(k, j, q)}")
        by_mode.setdefault(k, []).append(((j, q), c))
    out = {}
    for k, entries in by_mode.items():
        if not any(k):
            b = np.zeros(n, dtype=complex)
            for (j, q), c in entries:
                if (sum(j), sum(q)) == (0, 1):
                    b[q.index(1)] += c
            if not d0 or not np.any(b):
                continue
            if abs(np.linalg.det(M)) < 1e-12 * max(1.0, np.abs(M).max() ** (2 * d0)):
                raise ConfigError("resonant matrix is singular")
            sol = np.linalg.solve(eps * MJ, -b)
            out.update({(k, zj, unit(a)): v for a, v in enumerate(sol) if v != 0})
            continue
        kw = float(np.dot(k, omega))
        if abs(kw) < gamma / DELTA(max(abs(c) for c in k)):
            raise DivisorError(f"divisor below threshold at k = {k}", reports=[k])
        i_kw = 1j * kw
        lin_z = np.zeros(n, dtype=complex)
        C = np.zeros((n, n), dtype=complex)
        quad = False
        for (j, q), c in entries:
            if sum(q) == 0:
                out[(k, j, q)] = -c / i_kw
            elif sum(q) == 1:
                lin_z[q.index(1)] += c
            else:
                a, b = [a for a, p in enumerate(q) for _ in range(p)]
                C[a, b] += c if a == b else c / 2.0
                if a != b:
                    C[b, a] += c / 2.0
                quad = True
        if d0 and np.any(lin_z):
            sol = np.linalg.solve(i_kw * np.eye(n) + eps * MJ, -lin_z)
            out.update({(k, zj, unit(a)): v for a, v in enumerate(sol) if v != 0})
        if d0 and quad:
            op = (i_kw * np.eye(n * n)
                  + eps * (np.kron(np.eye(n), MJ) + np.kron(MJ, np.eye(n))))
            F2 = np.linalg.solve(op, -C.flatten(order="F"))
            F2 = F2.reshape((n, n), order="F")
            F2 = 0.5 * (F2 + F2.T)
            for a in range(n):
                for b in range(a, n):
                    v = F2[a, a] if a == b else F2[a, b] + F2[b, a]
                    if v != 0:
                        out[(k, zj, tuple(np.add(unit(a), unit(b))))] = v
    return out


def random_ansatz_series(rng, geo, kbox=2, modes=6):
    """Every ansatz monomial on a few random modes, k = 0 always among them,
    with random complex coefficients."""
    d, n = geo.d, geo.zdim
    shapes = [((0,) * d, (0,) * n)]
    shapes += [(tuple(np.eye(d, dtype=int)[i]), (0,) * n) for i in range(d)]
    eye = np.eye(n, dtype=int)
    shapes += [((0,) * d, tuple(eye[a])) for a in range(n)]
    shapes += [((0,) * d, tuple(eye[a] + eye[b]))
               for a in range(n) for b in range(a, n)]
    ks = {(0,) * d} | {tuple(rng.integers(-kbox, kbox + 1, size=d).tolist())
                       for _ in range(modes)}
    return FourierTaylorSeries(geo, {
        (k, j, q): complex(rng.normal(), rng.normal())
        for k in ks for j, q in shapes if rng.random() < 0.8})


def assert_same_generator(F, want):
    got = dict(F.terms())
    assert got.keys() == want.keys()
    for key, v in want.items():
        assert abs(got[key] - v) <= 1e-13 * abs(v), key


def test_batched_solve_matches_per_mode_loop():
    rng = np.random.default_rng(7)
    omegas = {1: [1.0], 2: [1.0, GOLDEN], 3: [1.0, GOLDEN, math.sqrt(2.0)]}
    k0_linear_z = 0
    for d in (1, 2, 3):
        for d0 in (0, 1, 2):
            geo = PhaseGeometry(d=d, d0=d0)
            X = rng.normal(size=(2 * d0, 2 * d0))
            M = X @ X.T + np.eye(2 * d0)
            for eps in (0.1, 0.05):
                R = random_ansatz_series(rng, geo)
                F = _solve_modes(omegas[d], M, eps, R, 1e-4, DELTA)
                want = solve_modes_loop(omegas[d], M, eps, R, 1e-4)
                assert_same_generator(F, want)
                k0_linear_z += sum(1 for (k, _, q) in want if not any(k))
    assert k0_linear_z > 0


def test_batched_solve_defective_and_zero():
    # M = diag(1, 0): MJ is nilpotent, so defective, yet i<k,w> + eps MJ is
    # invertible at every k != 0; R has no k = 0 linear-z term
    rng = np.random.default_rng(8)
    M = np.diag([1.0, 0.0])
    R = random_ansatz_series(rng, G11)
    R, _ = R.partition(~((R.knorms() == 0) & (R.degrees() == 1)))
    F = _solve_modes([1.0], M, 0.1, R, 0.01, DELTA)
    assert len(F) > 0
    assert_same_generator(F, solve_modes_loop([1.0], M, 0.1, R, 0.01))
    Z = FourierTaylorSeries.zero(PhaseGeometry(d=2, d0=2))
    F = _solve_modes([1.0, GOLDEN], np.eye(4), 0.1, Z, 0.01, DELTA)
    assert F.is_zero() and solve_modes_loop([1.0, GOLDEN], np.eye(4), 0.1, Z,
                                            0.01) == {}


def test_batched_solve_rejects_at_the_first_low_mode():
    # omega = (2, 1): k = +-(1, -2) annihilates it; the loop meets
    # (-1, 2) first in storage order
    geo = PhaseGeometry(d=2, d0=1)
    rng = np.random.default_rng(9)
    R = random_ansatz_series(rng, geo) + cos_series(geo, (1, -2))
    with pytest.raises(DivisorError) as ref:
        solve_modes_loop([2.0, 1.0], np.eye(2), 0.1, R, 0.01)
    with pytest.raises(DivisorError) as exc:
        _solve_modes([2.0, 1.0], np.eye(2), 0.1, R, 0.01, DELTA)
    assert exc.value.reports.k[0].tolist() == list(ref.value.reports[0])
    assert f"at k = {ref.value.reports[0]}" in str(exc.value)
    assert {(1, -2), (-1, 2)} <= set(map(tuple, exc.value.reports.k.tolist()))


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
    flat = FourierTaylorSeries(G1, {((0,), (2,), ()): 0.5})
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
         + FourierTaylorSeries(geo, {
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
    flat = FourierTaylorSeries(G1, {((0,), (2,), ()): 0.5})
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
    with pytest.raises(DivisorError) as exc:
        kam_step(st, 8, 0.05, DELTA)
    bad = exc.value.reports
    assert {(1, -2), (-1, 2)} <= set(map(tuple, bad.k.tolist()))
    _, table = check_divisors([2.0, 1.0], None, 8, 0.05, DELTA)
    assert np.array_equal(bad.k, table.k[~table.passed])
    assert len(bad) == (~table.passed).sum() and not bad.passed.any()


def reduced_state():
    """The reduction of a three-action model along the resonance (0, 0, 1):
    d = 2, d0 = 1, with a non-empty flat remainder that enters the ledger
    at step 0, and steps that each add flat content of their own."""
    mod = unimodular_completion([(0, 0, 1)])
    taylor = TaylorData(value=0.0, gradient=np.array([1.0, GOLDEN, 0.0]),
                        hessian=np.diag([1.0, 1.0, 1.7]))
    geo = PhaseGeometry(d=3, d0=0)
    P0 = (cos_series(geo, (0, 0, 1), 1.3) + cos_series(geo, (1, 0, 1), 0.4)
          + cos_series(geo, (0, 1, -1), 0.4))
    red = reduce_hamiltonian(taylor, P0, mod, np.zeros(3), epsilon=1e-3,
                             delta=DELTA, gamma=0.01, degmax=2)
    assert not red.Rterm.is_zero()
    return NormalFormState.from_reduced(red)


def eager_rterms(state):
    """The ledger carried the way a step once did it: every entry present
    rides through each flow as the step applies it, and the step's own flat
    content joins after the transport."""
    eps = state.epsilon
    out = [(s, rs) for s, birth, rs in state.ledger if birth == 0]
    for p, F in enumerate(state.flows, 1):
        moved = []
        for s, rs in out:
            w = eps ** s if s else 1.0
            rs_moved, _ = lie_transform_auto(rs.scale(w), F, 1.0)
            moved.append((s, rs_moved.scale(1.0 / w)))
        out = moved + [(s, rs) for s, birth, rs in state.ledger if birth == p]
    return out


def test_ledger_transported_on_read_matches_the_eager_loop():
    st = reduced_state()
    for p in (1, 2):
        st = kam_step(st, 4 * p, 0.01, DELTA)
    assert [birth for _, birth, _ in st.ledger] == [0, 1, 2]
    got, want = st.rterms, eager_rterms(st)
    assert [s for s, _ in got] == [s for s, _ in want] == [1, 1, 2]
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a.exps(), b.exps())
        assert np.array_equal(a.coefs(), b.coefs())


def test_iterate_leaves_the_ledger_untransported():
    res = iterate(reduced_state(), DELTA, Schedule(K=4, gamma=0.01), pmax=2)
    assert res.steps_run == 2 and len(res.state.ledger) == 3
    assert "rterms" not in vars(res.state)
    first = res.state.rterms
    assert res.state.rterms is first


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
