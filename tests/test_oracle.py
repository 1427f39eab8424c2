"""Model-operator tests: exact diagonal and ladder spectra, perturbation
theory as an independent oracle for weak coupling, Weyl symmetrization,
and cluster matching."""
import math

import numpy as np
import pytest

from resonorm.errors import ConfigError, CoverageError, InvariantError
from resonorm.kam import NormalFormState
from resonorm.oracle import (
    SPOT_CHECKS,
    CouplingTerm,
    OperatorSpec,
    build_operator,
    diagonalize,
    hermite_momentum,
    hermite_position,
    interior,
    match_spectrum,
    required_Nt,
    split_clusters,
    torus_shift,
    weyl_uv_power,
    window_eigenvalues,
)
from resonorm.quantize import predict_spectrum
from resonorm.series import FourierTaylorSeries, PhaseGeometry


def test_pure_torus_diagonal():
    spec = OperatorSpec.build(d=1, torus_poly={(1,): 2.0})   # 2 h D_x
    op = build_operator(spec, h=0.1, epsilon=0.0, Nt=5, Nh=1)
    eigs, _ = diagonalize(op)
    want = sorted(2.0 * 0.1 * n for n in range(-5, 6))
    assert np.allclose(eigs, want, atol=1e-14)


def test_oscillator_ladder_exact():
    # ((h D_u)^2 + u^2)/2: every interior level h (m + 1/2) appears exactly;
    # only the top truncated level is corrupted (the standard edge effect)
    spec = OperatorSpec.build(d=1, d0=1, torus_poly={}, quad_u=[0.5],
                              quad_v=[0.5])
    h = 0.05
    Nh = 12
    op = build_operator(spec, h=h, epsilon=0.0, Nt=0, Nh=Nh)
    eigs, _ = diagonalize(op)
    for m in range(Nh - 1):
        want = h * (m + 0.5)
        assert np.min(np.abs(eigs - want)) < 1e-12


def test_weak_coupling_second_order_perturbation_oracle():
    # H = h w D_x + eps cos x: Rayleigh-Schrodinger to second order gives
    # E_n = h w n + eps^2/2 * [1/(E_n - E_{n-1}) + 1/(E_n - E_{n+1})]
    # with E_n - E_{n+-1} = -+ h w: the second-order shift cancels, so the
    # eigenvalues match h w n to O(eps^2/gap) and the deviation is bounded
    h, w, eps = 0.1, 1.0, 1e-3
    spec = OperatorSpec.build(
        d=1, torus_poly={(1,): w},
        couplings=[CouplingTerm(coeff=eps / 2.0, k=(1,))])
    op = build_operator(spec, h=h, epsilon=eps, Nt=12, Nh=1)
    eigs, _ = diagonalize(op)
    interior = [n for n in range(-8, 9)]
    want = sorted(h * w * n for n in interior)
    got = np.sort(eigs)[4:-4]
    # independent bound: shifts are O(eps^2 / (h w)) per perturbation theory
    bound = 10 * eps ** 2 / (h * w)
    assert np.abs(got - want).max() < bound


def test_shift_out_of_range_rejected():
    spec = OperatorSpec.build(d=1, torus_poly={(1,): 1.0},
                              couplings=[CouplingTerm(0.1, k=(3,))])
    with pytest.raises(CoverageError, match="Nt >= 3"):
        build_operator(spec, h=0.1, epsilon=0.1, Nt=2, Nh=1)


def test_dimension_cap():
    spec = OperatorSpec.build(d=2, torus_poly={(1, 0): 1.0})
    with pytest.raises(ConfigError, match="cap"):
        build_operator(spec, h=0.1, epsilon=0.0, Nt=40, Nh=1)


def test_diagonalize_small_cases():
    spec = OperatorSpec.build(d=1, torus_poly={(1,): 1.0})
    op = build_operator(spec, h=1.0, epsilon=0.0, Nt=1, Nh=1)
    op.matrix[:] = [[0, 1, 0], [1, 0, 0], [0, 0, 2.0]]
    eigs, _ = diagonalize(op)
    assert np.allclose(eigs, [-1.0, 1.0, 2.0])


def test_trace_invariance_random_hermitian():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    A = 0.5 * (A + A.conj().T)
    spec = OperatorSpec.build(d=1, torus_poly={})
    op = build_operator(spec, h=1.0, epsilon=0.0, Nt=14, Nh=1)
    assert op.dim == 29
    op29 = A[:29, :29]
    op29 = 0.5 * (op29 + op29.conj().T)
    op.matrix[:] = op29
    eigs, _ = diagonalize(op)
    assert abs(np.sum(eigs) - np.trace(op29).real) < 1e-10 * max(
        1.0, abs(np.trace(op29)))


def test_residual_guard_rejects_a_corrupted_eigenvector(monkeypatch):
    spec = OperatorSpec.build(d=1, torus_poly={(1,): 1.0},
                              couplings=[CouplingTerm(coeff=0.2, k=(1,))])
    op = build_operator(spec, h=0.5, epsilon=0.2, Nt=2, Nh=1)
    eigh = np.linalg.eigh
    diagonalize(op)
    for bad in range(op.dim):
        def corrupted(a, bad=bad):
            vals, vecs = eigh(a)
            vecs = vecs.copy()
            vecs[:, bad] = vecs[:, (bad + 1) % a.shape[0]]
            return vals, vecs
        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        with pytest.raises(InvariantError, match="residual"):
            diagonalize(op)


def test_spectral_radius_is_the_two_norm():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
    A = 0.5 * (A + A.conj().T)
    spec = OperatorSpec.build(d=1, torus_poly={})
    op = build_operator(spec, h=1.0, epsilon=0.0, Nt=12, Nh=1)
    op.matrix[:] = A
    vals, _ = diagonalize(op)
    two_norm = np.linalg.norm(A, 2)
    assert abs(np.abs(vals).max() - two_norm) <= 1e-12 * two_norm


def _coupled_d1_interior():
    spec = OperatorSpec.build(
        d=1, d0=1, torus_poly={(1,): 1.0}, quad_u=[0.3], quad_v=[0.4],
        couplings=[CouplingTerm(coeff=0.05, k=(1,)),
                   CouplingTerm(coeff=0.02, k=(1,), upow=(1,))])
    return interior(build_operator(spec, h=0.1, epsilon=0.1, Nt=6, Nh=10))


def _wide_band_d2_interior():
    spec = OperatorSpec.build(
        d=2, d0=1, torus_poly={(1, 0): 1.0, (0, 1): 0.7}, quad_u=[0.3],
        quad_v=[0.2],
        couplings=[CouplingTerm(coeff=0.05, k=(1, 0)),
                   CouplingTerm(coeff=0.03j, k=(0, 1), upow=(1,))])
    return interior(build_operator(spec, h=0.1, epsilon=0.1, Nt=3, Nh=5))


def _torus_only():
    spec = OperatorSpec.build(d=1, torus_poly={(1,): 1.0, (2,): 0.5},
                              couplings=[CouplingTerm(coeff=0.1, k=(2,))])
    op = build_operator(spec, h=0.2, epsilon=0.1, Nt=20, Nh=1)
    assert interior(op) is op
    return op


def _random_dense():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(29, 29)) + 1j * rng.normal(size=(29, 29))
    op = build_operator(OperatorSpec.build(d=1, torus_poly={}), h=1.0,
                        epsilon=0.0, Nt=14, Nh=1)
    op.matrix[:] = 0.5 * (A + A.conj().T)
    return op


@pytest.mark.parametrize("make, bandwidth", [
    (_coupled_d1_interior, 9),      # e^{ix} u: 8 interior levels, plus 1
    (_wide_band_d2_interior, 28),   # e^{ix}: (2 Nt + 1) * 4 levels
    (_torus_only, 2),               # e^{2ix}
    (_random_dense, 28),            # bw = n - 1
])
def test_window_eigenvalues_match_dense_eigvalsh(make, bandwidth):
    op = make()
    rows, cols = np.nonzero(op.matrix)
    assert np.abs(rows - cols).max() == bandwidth
    vals = np.linalg.eigvalsh(op.matrix)
    norm_a = np.abs(vals).max()
    # window edges in the middle of spectral gaps, so that rounding in
    # either solver cannot move a value across them
    n = vals.size
    lo = 0.5 * (vals[n // 4] + vals[n // 4 + 1])
    hi = 0.5 * (vals[3 * n // 4] + vals[3 * n // 4 + 1])
    want = vals[(vals >= lo) & (vals <= hi)]
    got = window_eigenvalues(op, (lo, hi))
    assert want.size > SPOT_CHECKS
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * norm_a
    full = window_eigenvalues(op, (vals[0] - 1.0, vals[-1] + 1.0))
    assert np.abs(full - vals).max() <= 1e-13 * norm_a


def test_window_eigenvalues_closed_window_and_singular_shift():
    # epsilon = 0: the matrix is diagonal, every eigenvalue equals a
    # diagonal entry exactly and A - lambda I is exactly singular, which
    # the shifted LU of the residual check must survive; h = 1/4 makes the
    # eigenvalues h n exact, so lo and hi sit exactly on eigenvalues
    spec = OperatorSpec.build(d=1, torus_poly={(1,): 1.0})
    op = build_operator(spec, h=0.25, epsilon=0.0, Nt=6, Nh=1)
    assert np.array_equal(window_eigenvalues(op, (0.25, 1.0)),
                          [0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(window_eigenvalues(op, (-1.5, 1.5)),
                          0.25 * np.arange(-6, 7))
    empty = window_eigenvalues(op, (0.3, 0.4))
    assert empty.shape == (0,)


def test_window_residual_guard_rejects_a_shifted_eigenvalue(monkeypatch):
    import scipy.linalg
    spec = OperatorSpec.build(d=1, torus_poly={(1,): 1.0},
                              couplings=[CouplingTerm(coeff=0.2, k=(1,))])
    op = build_operator(spec, h=0.5, epsilon=0.2, Nt=2, Nh=1)
    assert op.dim <= SPOT_CHECKS
    window = (-10.0, 10.0)
    assert window_eigenvalues(op, window).size == op.dim
    eig_banded = scipy.linalg.eig_banded
    for bad in range(op.dim):
        def shifted(*args, bad=bad, **kwargs):
            vals = eig_banded(*args, **kwargs).copy()
            vals[bad] += 1e-6
            return vals
        monkeypatch.setattr(scipy.linalg, "eig_banded", shifted)
        with pytest.raises(InvariantError, match="residual"):
            window_eigenvalues(op, window)


def test_interior_is_the_principal_submatrix():
    spec = OperatorSpec.build(
        d=1, d0=2, torus_poly={(1,): 1.0}, quad_u=[0.3, 0.5],
        quad_v=[0.4, 0.2],
        couplings=[CouplingTerm(coeff=0.05, k=(1,), upow=(1, 0))])
    op = build_operator(spec, h=0.1, epsilon=0.1, Nt=2, Nh=5)
    sub = interior(op)
    keep = [i for i, (n, m) in enumerate(op.basis_labels())
            if all(v < 4 for v in m)]
    assert len(keep) == 5 * 4 * 4
    assert np.array_equal(sub.matrix, op.matrix[np.ix_(keep, keep)])
    assert sub.basis_labels() == [op.basis_labels()[i] for i in keep]
    assert sub.torus_modes == op.torus_modes
    assert interior(sub) is sub


def test_interior_without_resonant_directions_is_the_operator():
    spec = OperatorSpec.build(d=2, torus_poly={(1, 0): 1.0, (0, 1): 0.7})
    op = build_operator(spec, h=0.1, epsilon=0.0, Nt=3, Nh=1)
    assert interior(op) is op


def test_weyl_symmetrization_uv():
    Nh, h = 8, 0.3
    U = hermite_position(Nh, h)
    P = hermite_momentum(Nh, h)
    got = weyl_uv_power(1, 1, Nh, h)
    avg = 0.5 * (U @ P + P @ U)
    assert np.allclose(got, avg)
    # [u, h D_u] = i h on the interior of the ladder
    comm = U @ P - P @ U
    interior = np.diag(comm)[:-1]
    assert np.allclose(interior, 1j * h, atol=1e-12)


def test_torus_shift_composition():
    modes = [(n,) for n in range(-4, 5)]
    s1 = torus_shift(modes, (1,))
    s2 = torus_shift(modes, (2,))
    # composition agrees away from the truncation edge
    prod = s1 @ s1
    assert np.allclose(prod[1:-1, 1:-1], s2[1:-1, 1:-1])


def test_required_Nt_margin():
    n = required_Nt(window_hi=1.0, h=0.05, omega_min=1.0, coupling_range=2)
    assert n >= 20 + 6


# ---------------------------------------------------------------------------
# cluster matching
# ---------------------------------------------------------------------------

def _state(omega, M=None, eps=0.0, d0=0):
    geo = PhaseGeometry(d=len(omega), d0=d0)
    return NormalFormState.initial(geo, omega, M, eps,
                                   FourierTaylorSeries.zero(geo))


def test_match_identical_spectra():
    st = _state([1.0], M=np.diag([1.0, 1.0]), eps=0.01, d0=1)
    pred = predict_spectrum(st, h=0.05, epsilon=0.01, maslov=(0,),
                            window=(0.01, 0.3), scaling="oscillator",
                            n_res_max=4)
    rep = match_spectrum(pred.energies(), pred)
    assert rep.unmatched == 0
    assert rep.max_center_error < 1e-12
    assert rep.max_width_error < 1e-12


def test_match_uniform_shift():
    st = _state([1.0], M=np.diag([1.0, 1.0]), eps=0.01, d0=1)
    pred = predict_spectrum(st, h=0.05, epsilon=0.01, maslov=(0,),
                            window=(0.01, 0.3), scaling="oscillator",
                            n_res_max=4)
    shift = 2e-4
    rep = match_spectrum(pred.energies() + shift, pred)
    assert rep.max_center_error == pytest.approx(shift, rel=1e-6)


def test_split_clusters_gap_rule():
    vals = np.array([0.0, 0.001, 0.002, 0.5, 0.501, 1.0])
    cls = split_clusters(vals, gap=0.1)
    assert [c.count for c in cls] == [3, 2, 1]


def test_full_pipeline_cluster_structure():
    # 1 torus dof x 1 resonant dof with a weak coupling: coarse spacing h*w,
    # intra-cluster spacing eps*h*sqrt(lam*lamt)
    h, eps, w = 0.05, 0.01, 1.0
    lam, lamt = 1.0, 1.0
    st = _state([w], M=np.diag([lam, lamt]), eps=eps, d0=1)
    pred = predict_spectrum(st, h=h, epsilon=eps, maslov=(0,),
                            window=(0.12, 0.38), scaling="oscillator",
                            n_res_max=5)
    spec = OperatorSpec.build(
        d=1, d0=1, torus_poly={(1,): w},
        quad_u=[0.5 * eps * lam], quad_v=[0.5 * eps * lamt],
        couplings=[CouplingTerm(coeff=0.1 * eps / 2.0, k=(1,))])
    op = build_operator(spec, h=h, epsilon=eps, Nt=14, Nh=24)
    eigs, _ = diagonalize(op)
    # drop the Hermite truncation edge: top 20% of levels
    keep = [i for i, (n, m) in enumerate(op.basis_labels())
            if m[0] < int(0.8 * 24)]
    eigs_interior = np.sort(np.linalg.eigvalsh(
        op.matrix[np.ix_(keep, keep)]))
    sel = eigs_interior[(eigs_interior > 0.12) & (eigs_interior < 0.38)]
    rep = match_spectrum(sel, pred)
    assert rep.matched
    # coarse spacing between neighboring matched cluster centers ~ h*w
    centers = sorted(rep.clusters[i].center for i, _ in rep.matched)
    coarse = np.diff(centers)
    assert np.all(np.abs(coarse - h * w) < 0.05 * h * w)
    # intra-cluster spacing agrees with the predicted resonant spacing
    want = eps * h * math.sqrt(lam * lamt)
    assert abs(rep.intra_spacing_oracle - want) < 0.1 * want
