"""Reduction tests: unimodular completion against a brute-force lattice
oracle, resonant averaging, critical points, and the full pipeline on
hand-checked two-degree-of-freedom data."""
import itertools
import math

import numpy as np
import pytest

from resonorm.errors import ConfigError
from resonorm.reduction import (
    CriticalPointSet,
    ResonanceModule,
    TaylorData,
    _angle_grad_hess,
    apply_unimodular_change,
    critical_points,
    reduce_hamiltonian,
    resonant_average,
    smith_normal_form,
    unimodular_completion,
)
from resonorm.series import (
    FourierTaylorSeries,
    PhaseGeometry,
    poisson_bracket,
)

from test_series import random_series, series_close


def lattice_generates_zl(columns, l, box=3):
    """Brute-force oracle: residues of Z^l modulo the column lattice.

    The columns generate Z^l iff every vector in a fundamental box is an
    integer combination of them; we check by solving the linear system and
    testing integrality."""
    M = np.array(columns, dtype=float).T
    if M.shape[0] != M.shape[1]:
        raise ValueError("need l columns")
    Minv = np.linalg.inv(M)
    for v in itertools.product(range(-box, box + 1), repeat=l):
        x = Minv @ np.array(v, dtype=float)
        if np.max(np.abs(x - np.rint(x))) > 1e-9:
            return False
    return True


# ---------------------------------------------------------------------------
# Smith form / completion
# ---------------------------------------------------------------------------

def test_smith_normal_form_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m, n = rng.integers(1, 5, size=2)
        A = rng.integers(-6, 7, size=(m, n))
        U, S, V = smith_normal_form(A)
        assert np.array_equal(np.array(U, dtype=int) @ A @ np.array(V, dtype=int),
                              np.array(S, dtype=int))
        assert abs(round(np.linalg.det(np.array(U, dtype=float)))) == 1
        assert abs(round(np.linalg.det(np.array(V, dtype=float)))) == 1
        diag = [int(S[i, i]) for i in range(min(m, n))]
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))


def test_completion_basic_examples():
    mod = unimodular_completion([(1, 1)])
    assert round(np.linalg.det(mod.K0.astype(float))) == 1
    assert tuple(mod.K0[:, 1]) == (1, 1)
    assert lattice_generates_zl([mod.K0[:, 0], mod.K0[:, 1]], 2)

    mod = unimodular_completion([(0, 1)])
    assert round(np.linalg.det(mod.K0.astype(float))) == 1
    assert lattice_generates_zl([mod.K0[:, 0], mod.K0[:, 1]], 2)


def test_completion_rejects_non_primitive():
    with pytest.raises(ConfigError, match="invariant factor 2"):
        unimodular_completion([(2, 0)])


def test_completion_random_lattices():
    rng = np.random.default_rng(5)
    count = 0
    for _ in range(60):
        l = int(rng.integers(2, 5))
        d0 = int(rng.integers(1, l))
        G = rng.integers(-4, 5, size=(l, d0))
        try:
            mod = unimodular_completion([tuple(G[:, i]) for i in range(d0)])
        except ConfigError:
            continue
        count += 1
        K0 = mod.K0
        assert round(np.linalg.det(K0.astype(float))) == 1
        assert lattice_generates_zl([K0[:, i] for i in range(l)], l, box=2)
        # left inverse property
        assert np.array_equal(mod.left_inverse @ mod.K_prime, np.eye(d0, dtype=int))
        # determinism
        mod2 = unimodular_completion(mod.generators)
        assert np.array_equal(mod.K0, mod2.K0)
    assert count >= 20


# ---------------------------------------------------------------------------
# resonant average
# ---------------------------------------------------------------------------

def _cos_series(geo, k, amp=1.0):
    return FourierTaylorSeries.from_terms(geo, [
        ((k, (0,) * geo.d, ()), amp / 2.0),
        ((tuple(-v for v in k), (0,) * geo.d, ()), amp / 2.0),
    ])


def _averaged(P0, mod):
    """Resonant average of a series in the original angles: change to the
    adapted basis at y0 = 0, then take the resonant slice."""
    return resonant_average(apply_unimodular_change(P0, mod.K0, np.zeros(mod.l)),
                            mod.d0)


def test_resonant_average_single_mode():
    geo = PhaseGeometry(d=2, d0=0)
    mod = unimodular_completion([(1, -1)])
    P0 = _cos_series(geo, (1, -1))
    h0 = _averaged(P0, mod)
    # cos(phi) on the resonant torus: modes +-1 with weight 1/2
    assert abs(h0.coeff((1,)) - 0.5) < 1e-14
    assert abs(h0.coeff((-1,)) - 0.5) < 1e-14
    assert len(h0) == 2

    outside = _cos_series(geo, (1, 0))
    assert _averaged(outside, mod).is_zero()

    both = P0 + _cos_series(geo, (2, -2))
    h = _averaged(both, mod)
    assert abs(h.coeff((2,)) - 0.5) < 1e-14
    assert len(h) == 4


def test_resonant_average_projection_and_reality():
    geo = PhaseGeometry(d=2, d0=0)
    mod = unimodular_completion([(1, -1)])
    rng = np.random.default_rng(11)
    terms = []
    for _ in range(8):
        k = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        terms.append(((k, (0, 0), ()), complex(rng.normal(), rng.normal())))
    P = FourierTaylorSeries.from_terms(geo, terms)
    P = (P + P.conjugate()).scale(0.5)
    h = _averaged(P, mod)
    assert h.is_real()


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------

def test_critical_points_cosine():
    geo = PhaseGeometry(d=1, d0=0)
    h0 = _cos_series(geo, (1,))
    cps = critical_points(h0, 1)
    assert not cps.degenerate_family
    assert len(cps.points) == 2
    phis = sorted(float(p.phi[0]) for p in cps.points)
    assert abs(phis[0] - 0.0) < 1e-9
    assert abs(phis[1] - math.pi) < 1e-9
    for p in cps.points:
        want = -math.cos(p.phi[0])
        assert abs(p.hessian[0, 0] - want) < 1e-9
        assert p.nondegenerate


def test_critical_points_two_angles():
    geo = PhaseGeometry(d=2, d0=0)
    h0 = _cos_series(geo, (1, 0)) + _cos_series(geo, (0, 1))
    cps = critical_points(h0, 2, grid_nodes=16)
    assert len(cps.points) == 4          # 2^d0 nondegenerate points
    assert all(p.nondegenerate for p in cps.points)


def test_angle_grad_hess_matches_termwise_sums():
    # reference: the term-by-term loop over the series; the array sums
    # only reorder the additions
    rng = np.random.default_rng(5)
    terms = [((tuple(int(v) for v in rng.integers(-3, 4, size=2)), (0, 0), ()),
              complex(rng.normal(), rng.normal())) for _ in range(12)]
    ks = np.array([k for (k, _, _), _ in terms], dtype=float)
    cs = np.array([c for _, c in terms])
    for phi in rng.uniform(0.0, 2 * math.pi, size=(5, 2)):
        val, g, H = 0.0, np.zeros(2), np.zeros((2, 2))
        for (k, _, _), c in terms:
            ph = c * np.exp(1j * float(np.dot(k, phi)))
            val += ph.real
            for a in range(2):
                g[a] += (1j * k[a] * ph).real
                for b in range(2):
                    H[a, b] += (-k[a] * k[b] * ph).real
        got = _angle_grad_hess(ks, cs, phi)
        scale = float(np.sum(np.abs(cs) * np.abs(ks).max(axis=1) ** 2))
        assert abs(got[0] - val) <= 1e-13 * scale
        assert np.abs(got[1] - g).max() <= 1e-13 * scale
        assert np.abs(got[2] - H).max() <= 1e-13 * scale


def test_critical_points_constant_family():
    geo = PhaseGeometry(d=1, d0=0)
    h0 = FourierTaylorSeries.constant(geo, 2.5)
    cps = critical_points(h0, 1)
    assert cps.degenerate_family
    assert not cps.points[0].nondegenerate


# ---------------------------------------------------------------------------
# coordinate change
# ---------------------------------------------------------------------------

def test_unimodular_change_preserves_bracket():
    geo = PhaseGeometry(d=2, d0=0)
    mod = unimodular_completion([(1, -1)])
    y0 = np.array([0.3, -0.2])
    rng = np.random.default_rng(13)
    for _ in range(5):
        f = random_series(geo, rng, nterms=4, kmax=1, degmax=2)
        g = random_series(geo, rng, nterms=4, kmax=1, degmax=2)
        lhs = apply_unimodular_change(poisson_bracket(f, g), mod.K0, y0)
        rhs = poisson_bracket(apply_unimodular_change(f, mod.K0, y0),
                              apply_unimodular_change(g, mod.K0, y0))
        assert series_close(lhs, rhs, tol=1e-10)


# ---------------------------------------------------------------------------
# full reduction
# ---------------------------------------------------------------------------

def _two_dof_setup():
    mod = unimodular_completion([(0, 1)])
    taylor = TaylorData(value=0.5,
                        gradient=np.array([1.0, 0.0]),
                        hessian=np.eye(2))
    y0 = np.array([1.0, 0.0])
    return mod, taylor, y0


def test_reduce_no_perturbation():
    mod, taylor, y0 = _two_dof_setup()
    red = reduce_hamiltonian(taylor, None, mod, y0, epsilon=0.01)
    assert np.allclose(red.M1, np.diag([1.0, 0.0]))
    assert red.P1.is_zero()
    assert np.allclose(red.omega1, [1.0])
    assert red.U0[0, 0] == pytest.approx(1.0)


def test_reduce_epsilon_zero_is_integrable():
    mod, taylor, y0 = _two_dof_setup()
    geo = PhaseGeometry(d=2, d0=0)
    P0 = _cos_series(geo, (0, 1))
    red = reduce_hamiltonian(taylor, P0, mod, y0, epsilon=0.0)
    assert red.P1.is_zero()
    assert red.epsilon == 0.0


def test_reduce_two_dof_example():
    # H0 = (y1^2 + y2^2)/2, resonance along (0,1), y0 = (1,0), P0 = cos x2:
    # the resonant average is cos(phi), its minimum sits at phi = pi with
    # curvature +1, and U0 = |tau|^2 = 1.
    mod, taylor, y0 = _two_dof_setup()
    geo = PhaseGeometry(d=2, d0=0)
    P0 = _cos_series(geo, (0, 1))
    eps = 1e-3
    red = reduce_hamiltonian(taylor, P0, mod, y0, epsilon=eps)
    assert red.U0[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert red.V0[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert red.phi0[0] == pytest.approx(math.pi, abs=1e-9)
    assert np.allclose(red.M1, np.eye(2), atol=1e-9)
    assert red.epsilon == pytest.approx(math.sqrt(eps))
    # critical value of the resonant average becomes the constant term
    assert red.epsilonN0 == pytest.approx(-math.sqrt(eps), rel=1e-9)
    # frequency consistency
    assert np.allclose(red.omega1, mod.K_star.T @ taylor.gradient, atol=1e-12)
    # pure resonant-angle perturbation: everything lands in N and the flat
    # remainder, nothing angle-dependent survives
    assert red.P1.is_zero()
    assert not red.Rterm.is_zero()
    for (k, j, q), _ in red.Rterm.terms():
        assert sum(abs(v) for v in k) == 0


def test_reduce_nonresonant_coupling_gives_perturbation():
    mod, taylor, y0 = _two_dof_setup()
    geo = PhaseGeometry(d=2, d0=0)
    P0 = _cos_series(geo, (1, 0)) + _cos_series(geo, (0, 1))
    eps = 1e-3
    red = reduce_hamiltonian(taylor, P0, mod, y0, epsilon=eps)
    assert not red.P1.is_zero()
    assert red.P1.is_real(tol=1e-9)
    # the order-eps non-resonant angle mode was averaged away: any surviving
    # angle-dependent mass is higher order
    mass = sum(abs(c) for (k, j, q), c in red.P1.terms()
               if sum(abs(v) for v in k) > 0 and sum(j) + sum(q) == 0)
    assert mass * red.epsilon < 10 * eps ** 1.5


def test_reduce_rejects_off_surface():
    # gradient at y0 = (1, 0.5) is (1, 0.5): fails <tau, omega> = 0
    mod, _, _ = _two_dof_setup()
    taylor = TaylorData(value=0.0, gradient=np.array([1.0, 0.5]),
                        hessian=np.eye(2))
    with pytest.raises(ConfigError, match="resonant surface"):
        reduce_hamiltonian(taylor, None, mod, np.array([1.0, 0.5]), epsilon=0.01)


def test_reduce_rejects_y0_of_wrong_length():
    mod, taylor, _ = _two_dof_setup()
    with pytest.raises(ConfigError, match="y0 has 3 components"):
        reduce_hamiltonian(taylor, None, mod, np.zeros(3), epsilon=0.01)


def test_reduce_rejects_degenerate_hessian():
    mod, _, y0 = _two_dof_setup()
    taylor = TaylorData(value=0.0, gradient=np.array([1.0, 0.0]),
                        hessian=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ConfigError, match="degenerate"):
        reduce_hamiltonian(taylor, None, mod, y0, epsilon=0.01)
