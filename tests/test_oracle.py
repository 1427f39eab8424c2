"""Model-operator tests: the Weyl assembler against the midpoint rule and an
independent Kronecker-sum assembly, exact diagonal and ladder spectra,
perturbation theory as an independent oracle for weak coupling, Weyl
symmetrization, and cluster matching."""
import math

import numpy as np
import pytest

from desk import desk_model
from resonorm import oracle
from resonorm.errors import ConfigError, CoverageError, InvariantError
from resonorm.kam import NormalFormState
from resonorm.oracle import (
    RESIDUAL_TOL,
    SPOT_CHECKS,
    ModelOperator,
    build_operator,
    diagonalize,
    hermite_momentum,
    hermite_position,
    interior,
    match_spectrum,
    required_Nt,
    split_clusters,
    weyl_uv_power,
    window_spectrum,
)
from resonorm.quantize import predict_spectrum
from resonorm.series import FourierTaylorSeries, PhaseGeometry, integrable_part


def _symbol(d, d0=0, terms=(), waves=()):
    """A real symbol: `terms` are ((k, j, q), c) rows taken as given, and
    each wave (c, k, q) adds c e^{i<k,x>} z^q plus its conjugate row."""
    zero_q = (0,) * (2 * d0)
    rows = list(terms)
    for c, k, q in waves:
        q = tuple(q) if q else zero_q
        rows += [((tuple(k), (0,) * d, q), c),
                 ((tuple(-v for v in k), (0,) * d, q), np.conj(c))]
    return FourierTaylorSeries.from_terms(PhaseGeometry(d=d, d0=d0), rows)


def _y(d, a, c, d0=0, power=1):
    """The row c y_a^power."""
    j = tuple(power if b == a else 0 for b in range(d))
    return (((0,) * d, j, (0,) * (2 * d0)), c)


def _quad(d, d0, cu, cv):
    """The rows cu_a u_a^2 + cv_a v_a^2."""
    rows = []
    for a in range(d0):
        for c, b in ((cu[a], a), (cv[a], d0 + a)):
            q = tuple(2 if i == b else 0 for i in range(2 * d0))
            rows.append((((0,) * d, (0,) * d, q), c))
    return rows


def _from_dense(A):
    """The operator whose entries are the nonzeros of the Hermitian A, on
    len(A) torus modes without resonant directions."""
    rows, cols = np.nonzero(A)
    n = len(A)
    return ModelOperator(Nh=1, torus_modes=np.arange(n)[:, None] - n // 2,
                         hermite_levels=np.zeros((1, 0), dtype=int),
                         rows=rows, cols=cols,
                         values=np.asarray(A, dtype=complex)[rows, cols])


# ---------------------------------------------------------------------------
# the assembler
# ---------------------------------------------------------------------------

def test_midpoint_rule():
    # c e^{ix} y + c.c.: the k = 1 row takes y at the midpoint h (n + 1/2)
    # of the transition n -> n + 1, and its conjugate row the same midpoint
    # of n + 1 -> n, so the matrix is Hermitian
    c, h, Nt = 0.3 + 0.4j, 0.1, 4
    G = PhaseGeometry(d=1)
    symbol = FourierTaylorSeries.from_terms(
        G, [(((1,), (1,), ()), c), (((-1,), (1,), ()), np.conj(c))])
    op = build_operator(symbol, h, Nt, 1)
    A = op.matrix
    # one Hermite level (d0 = 0): torus mode n sits at index n + Nt
    assert op.hermite_levels.shape == (1, 0)
    assert op.torus_modes[:, 0].tolist() == list(range(-Nt, Nt + 1))
    for n in range(-Nt, Nt):
        assert A[n + 1 + Nt, n + Nt] == c * (h * (n + 0.5))
        assert A[n + Nt, n + 1 + Nt] == np.conj(c) * (h * (n + 0.5))
    # a midpoint is never 0: every one of the 2 Nt transitions each way
    assert np.count_nonzero(A) == 2 * 2 * Nt


def test_non_real_symbol_rejected():
    G = PhaseGeometry(d=1, d0=1)
    one_sided = FourierTaylorSeries.fourier_mode(G, (1,), 0.1)
    imaginary = FourierTaylorSeries.from_terms(G, [(((0,), (0,), (2, 0)), 1j)])
    for symbol in (one_sided, imaginary):
        with pytest.raises(InvariantError, match="Hermitian"):
            build_operator(symbol, 0.1, 3, 4)


def test_dense_view_is_the_kronecker_sum():
    # P = 0: the operator is T (x) I + I (x) O, T the torus part h n w plus
    # the coupling g eps/2 (e^{ix} + e^{-ix}), O = cu u^2 + cv v^2 from
    # ladder matrices built here; entry for entry the same sums in the same
    # order, so bit for bit
    h, eps, w, g, Nt, Nh = 0.05, 0.01, 1.3, 0.1, 5, 7
    cu, cv = eps / 2.0 * 0.8, eps / 2.0 * 1.7
    G = PhaseGeometry(d=1, d0=1)
    symbol = integrable_part(G, 0.0, [w], np.diag([0.8, 1.7]), eps) + \
        _symbol(1, 1, waves=[(g * eps / 2.0, (1,), None)])
    n = np.arange(-Nt, Nt + 1)
    T = (np.diag(h * n * w) + np.diag(np.full(2 * Nt, g * eps / 2.0), 1)
         + np.diag(np.full(2 * Nt, g * eps / 2.0), -1))
    lad = np.sqrt(h * np.arange(1, Nh) / 2.0)
    U = np.diag(lad, 1) + np.diag(lad, -1)
    P = 1j * (np.diag(lad, -1) - np.diag(lad, 1))
    O = cu * (U @ U) + cv * (P @ P)
    want = np.kron(T, np.eye(Nh)) + np.kron(np.eye(2 * Nt + 1), O)
    assert np.array_equal(build_operator(symbol, h, Nt, Nh).matrix, want)


def test_mode_shift_composition():
    # cos x applied twice equals 1/2 + cos(2x)/2 away from the box edge,
    # where the truncation drops the intermediate modes
    h, Nt = 0.1, 4
    once = build_operator(_symbol(1, waves=[(0.5, (1,), None)]), h, Nt, 1)
    twice = build_operator(_symbol(1, terms=[(((0,), (0,), ()), 0.5)],
                                   waves=[(0.25, (2,), None)]), h, Nt, 1)
    prod = once.matrix @ once.matrix
    assert np.allclose(prod[1:-1, 1:-1], twice.matrix[1:-1, 1:-1],
                       atol=1e-15)
    assert not np.allclose(prod, twice.matrix)


def test_pure_torus_diagonal():
    op = build_operator(_symbol(1, terms=[_y(1, 0, 2.0)]), 0.1, 5, 1)  # 2 h D_x
    eigs, _ = diagonalize(op)
    want = sorted(2.0 * 0.1 * n for n in range(-5, 6))
    assert np.allclose(eigs, want, atol=1e-14)


def test_oscillator_ladder_exact():
    # ((h D_u)^2 + u^2)/2: every interior level h (m + 1/2) appears exactly;
    # only the top truncated level is corrupted (the standard edge effect)
    h = 0.05
    Nh = 12
    op = build_operator(_symbol(1, 1, terms=_quad(1, 1, [0.5], [0.5])), h,
                        0, Nh)
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
    symbol = _symbol(1, terms=[_y(1, 0, w)], waves=[(eps / 2.0, (1,), None)])
    op = build_operator(symbol, h, 12, 1)
    eigs, _ = diagonalize(op)
    interior = [n for n in range(-8, 9)]
    want = sorted(h * w * n for n in interior)
    got = np.sort(eigs)[4:-4]
    # independent bound: shifts are O(eps^2 / (h w)) per perturbation theory
    bound = 10 * eps ** 2 / (h * w)
    assert np.abs(got - want).max() < bound


def test_shift_out_of_range_rejected():
    symbol = _symbol(1, terms=[_y(1, 0, 1.0)], waves=[(0.1, (3,), None)])
    with pytest.raises(CoverageError, match="Nt >= 3"):
        build_operator(symbol, 0.1, 2, 1)


def test_many_small_components_solve():
    # assembled dimension 81^2 = 6561, every component one torus mode: the
    # dense arrays are 6561 blocks of 1 x 1, however large the dimension
    h = 0.1
    op = build_operator(_symbol(2, terms=[_y(2, 0, 1.0)]), h, 40, 1)
    assert op.dim == 6561
    spec = window_spectrum(op, (-0.45, 0.45))
    assert {len(m) for m in spec.members} == {1}
    np.testing.assert_allclose(spec.values,
                               np.repeat(h * np.arange(-4, 5), 81),
                               rtol=0, atol=1e-15)


def test_dimension_cap(monkeypatch):
    # blocks of sizes 2 and 1, with a bound that only the 2 x 2 class
    # exceeds: it raises before any block, even the smaller class's, is
    # formed and solved, and diagonalize's 3 x 3 matrix exceeds it too
    op = _from_dense(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 2.0]]))
    solves = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: solves.append(a.shape) or eigh(a))
    monkeypatch.setattr(oracle, "DENSE_ENTRIES_MAX", 3)
    with pytest.raises(ConfigError, match="1 stacked blocks of size 2"):
        window_spectrum(op, (-5.0, 5.0))
    with pytest.raises(ConfigError, match="3 x 3"):
        diagonalize(op)
    assert solves == []
    monkeypatch.setattr(oracle, "DENSE_ENTRIES_MAX", 4)
    assert np.allclose(window_spectrum(op, (-5.0, 5.0)).values,
                       [-1.0, 1.0, 2.0])
    assert solves == [(1, 1, 1), (1, 2, 2)]


def test_diagonalize_small_cases():
    op = _from_dense(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 2.0]]))
    eigs, _ = diagonalize(op)
    assert np.allclose(eigs, [-1.0, 1.0, 2.0])


def test_trace_invariance_random_hermitian():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    A = 0.5 * (A + A.conj().T)
    op29 = A[:29, :29]
    op29 = 0.5 * (op29 + op29.conj().T)
    op = _from_dense(op29)
    assert op.dim == 29
    eigs, _ = diagonalize(op)
    assert abs(np.sum(eigs) - np.trace(op29).real) < 1e-10 * max(
        1.0, abs(np.trace(op29)))


def test_residual_guard_rejects_a_corrupted_eigenvector(monkeypatch):
    op = build_operator(_symbol(1, terms=[_y(1, 0, 1.0)],
                                waves=[(0.2, (1,), None)]), 0.5, 2, 1)
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
    op = _from_dense(A)
    vals, _ = diagonalize(op)
    two_norm = np.linalg.norm(A, 2)
    assert abs(np.abs(vals).max() - two_norm) <= 1e-12 * two_norm


def _coupled_d1_interior():
    symbol = _symbol(1, 1, terms=[_y(1, 0, 1.0, 1)] + _quad(1, 1, [0.3], [0.4]),
                     waves=[(0.05, (1,), None), (0.02, (1,), (1, 0))])
    return interior(build_operator(symbol, 0.1, 6, 10))


def _wide_band_d2_interior():
    symbol = _symbol(2, 1, terms=[_y(2, 0, 1.0, 1), _y(2, 1, 0.7, 1)]
                     + _quad(2, 1, [0.3], [0.2]),
                     waves=[(0.05, (1, 0), None), (0.03j, (0, 1), (1, 0))])
    return interior(build_operator(symbol, 0.1, 3, 5))


def _torus_only():
    symbol = _symbol(1, terms=[_y(1, 0, 1.0), _y(1, 0, 0.5, power=2)],
                     waves=[(0.1, (2,), None)])
    op = build_operator(symbol, 0.2, 20, 1)
    assert interior(op) is op
    return op


def _random_dense():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(29, 29)) + 1j * rng.normal(size=(29, 29))
    return _from_dense(0.5 * (A + A.conj().T))


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
    got = window_spectrum(op, (lo, hi)).values
    assert want.size > SPOT_CHECKS
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * norm_a
    full = window_spectrum(op, (vals[0] - 1.0, vals[-1] + 1.0)).values
    assert np.abs(full - vals).max() <= 1e-13 * norm_a


@pytest.mark.parametrize("make, bandwidth", [
    (_coupled_d1_interior, 9),      # connected: the torus-major band
    (_wide_band_d2_interior, 14),   # the parity of n_2 + m is conserved
    (_torus_only, 1),               # e^{2ix}: even and odd n
    (_random_dense, 28),            # connected
])
def test_component_order_never_widens_the_band(make, bandwidth):
    # the components partition the indices, no entry joins two of them, and
    # laid end to end they give P A P^T this bandwidth
    op = make()
    comps = _components(window_spectrum(op, (0.0, 0.0)))
    perm = np.concatenate(comps)
    assert np.array_equal(np.sort(perm), np.arange(op.dim))
    at = np.argsort(perm)
    comp = np.repeat(np.arange(len(comps)), [len(c) for c in comps])[at]
    assert np.array_equal(comp[op.rows], comp[op.cols])
    bw = np.abs(at[op.rows] - at[op.cols]).max()
    assert bw == bandwidth
    assert bw <= np.abs(op.rows - op.cols).max()


def _components(spec):
    """The operator indices of each component of a window spectrum, the
    components by their smallest index."""
    comps = [m.tolist() for m in spec.members]
    assert comps == sorted(comps)
    return comps


@pytest.mark.parametrize("make", [_coupled_d1_interior, _random_dense])
def test_connected_operator_keeps_its_order_and_band(make):
    # one component in the identity order, and the values of eig_banded
    # (an independent band solver) on the band of the entries
    from scipy.linalg import eig_banded
    op = make()
    bw = int(np.abs(op.rows - op.cols).max())
    lower = op.rows >= op.cols
    ab = np.zeros((bw + 1, op.dim), dtype=complex)
    ab[(op.rows - op.cols)[lower], op.cols[lower]] = op.values[lower]
    want = eig_banded(ab, lower=True, eigvals_only=True)
    spec = window_spectrum(op, (want[0] - 1.0, want[-1] + 1.0))
    assert _components(spec) == [list(range(op.dim))]
    assert np.abs(spec.values - want).max() <= 1e-13 * np.abs(want).max()


def _interleaved_blocks():
    """A Hermitian operator of five blocks whose indices a random
    permutation interleaves, and the blocks' index sets: a real and a
    complex random block, a real tridiagonal block, and [[1/2, 1/4],
    [1/4, 1/2]] beside the 1 x 1 block [3/4], so that the eigenvalue 3/4
    is exactly degenerate across two components."""
    rng = np.random.default_rng(3)
    real = rng.normal(size=(7, 7))
    cplx = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    tri = (np.diag(rng.normal(size=8)) + np.diag(rng.normal(size=7), 1)
           + np.diag(rng.normal(size=7), -1))
    blocks = [real + real.T, cplx + cplx.conj().T, tri + tri.T,
              np.array([[0.5, 0.25], [0.25, 0.5]]), np.array([[0.75]])]
    n = sum(len(b) for b in blocks)
    where = rng.permutation(n)
    A = np.zeros((n, n), dtype=complex)
    sets, at = [], 0
    for b in blocks:
        idx = where[at:at + len(b)]
        A[np.ix_(idx, idx)] = b
        sets.append(sorted(idx.tolist()))
        at += len(b)
    return _from_dense(A), sets


def test_interleaved_blocks_solve_in_component_order(monkeypatch):
    op, sets = _interleaved_blocks()
    A = op.matrix
    vals, vecs = np.linalg.eigh(A)
    norm_a = np.abs(vals).max()
    assert np.count_nonzero(np.abs(vals - 0.75) < 1e-14) == 2
    window = (vals[0] - 1.0, vals[-1] + 1.0)
    eigh, shapes = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: shapes.append(a.shape) or eigh(a))
    spec = window_spectrum(op, window)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    # each block is one component, its indices ascending, and one solve
    # per block size, the sizes ascending
    assert _components(spec) == sorted(sets)
    assert shapes == [(1, s, s) for s in sorted(len(b) for b in sets)]
    assert np.abs(spec.values - vals).max() <= 1e-13 * norm_a
    dist, largest = _projector_gap(spec, vals, vecs, *window, 1e-6 * norm_a)
    assert largest == 2             # 3/4 in two components, one cluster
    assert dist <= 1e-8
    lo = 0.5 * (vals[5] + vals[6])
    hi = 0.5 * (vals[-6] + vals[-5])
    inner = window_spectrum(op, (lo, hi)).values
    assert np.abs(inner - vals[6:-5]).max() <= 1e-13 * norm_a


def _shift_one_eigenvalue(monkeypatch, bad):
    """Make np.linalg.eigh return its bad-th eigenvalue, counted over the
    flattened values of its calls, 1e-6 off; the vectors stay exact."""
    eigh, seen = np.linalg.eigh, [0]

    def shifted(a):
        w, v = eigh(a)
        w = w.copy()
        if 0 <= bad - seen[0] < w.size:
            w.reshape(-1)[bad - seen[0]] += 1e-6
        seen[0] += w.size
        return w, v
    monkeypatch.setattr(np.linalg, "eigh", shifted)


def test_interleaved_blocks_residual_guard(monkeypatch):
    op, _ = _interleaved_blocks()
    window = (-100.0, 100.0)
    for bad in range(op.dim):
        _shift_one_eigenvalue(monkeypatch, bad)
        with pytest.raises(InvariantError, match="residual"):
            spec = window_spectrum(op, window)
            spec.vectors(np.arange(spec.values.size))


def _projector_gap(spec, vals, vecs, lo, hi, gap):
    """The largest 2-norm distance between the projectors onto the computed
    and the dense eigenvectors, over groups of window values split at
    gaps larger than `gap`."""
    x = spec.vectors(np.arange(spec.values.size))
    w = vecs[:, (vals >= lo) & (vals <= hi)]
    assert x.shape == w.shape
    cuts = np.flatnonzero(np.diff(spec.values) > gap) + 1
    groups = np.split(np.arange(spec.values.size), cuts)
    return max(np.linalg.norm(x[:, g] @ x[:, g].conj().T
                              - w[:, g] @ w[:, g].conj().T, 2)
               for g in groups), max(len(g) for g in groups)


@pytest.mark.parametrize("make", [_coupled_d1_interior,
                                  _wide_band_d2_interior, _torus_only,
                                  _random_dense])
def test_window_eigenvectors_match_dense_eigh(make):
    # up to phase: a lone vector's projector is invariant under the phase.
    # Values closer than 1e-6 ||A||_2 are compared as one group, because
    # dense eigh fixes a vector only to about 1e-16 ||A||_2 / gap; _torus_only
    # has such pairs (gaps down to 7e-10, 6e-11 of ||A||_2)
    op = make()
    vals, vecs = np.linalg.eigh(op.matrix)
    norm_a = np.abs(vals).max()
    n = vals.size
    for lo, hi in ((0.5 * (vals[n // 4] + vals[n // 4 + 1]),
                    0.5 * (vals[3 * n // 4] + vals[3 * n // 4 + 1])),
                   (vals[0] - 1.0, vals[-1] + 1.0)):
        spec = window_spectrum(op, (lo, hi))
        assert spec.norm == pytest.approx(norm_a, rel=1e-13)
        dist, _ = _projector_gap(spec, vals, vecs, lo, hi, 1e-6 * norm_a)
        assert dist <= 1e-8


def test_degenerate_eigenvalues_share_one_eigenspace():
    # d0 = 2 with M = I: the interior's resonant part is diagonal with the
    # level h (m1 + m2 + 1) eps, exactly degenerate in m1 + m2, tensored
    # with the spectrum of the e^{ix}-coupled torus part
    h, eps = 0.1, 0.01
    symbol = _symbol(1, 2, terms=[_y(1, 0, 1.0, 2)]
                     + _quad(1, 2, [eps / 2] * 2, [eps / 2] * 2),
                     waves=[(0.05, (1,), None)])
    op = interior(build_operator(symbol, h, 4, 5))
    vals, vecs = np.linalg.eigh(op.matrix)
    window = (vals[0] - 1.0, vals[-1] + 1.0)
    spec = window_spectrum(op, window)
    # every value, with its cluster, passes the residual check in vectors
    dist, largest = _projector_gap(spec, vals, vecs, *window, 1e-8)
    assert largest == 4             # m1 + m2 = 3 below the cut at 4 levels
    assert dist <= 1e-10



def test_near_degenerate_eigenvalues_get_their_own_vectors():
    # A = Q diag(lam) Q^T with Q two layers of Givens rotations, so A is a
    # band matrix whose eigenvectors mix neighbouring sites.  Three values
    # 7e-11 ||A||_2 apart span more than RESIDUAL_TOL ||A||_2, so a mix of
    # their vectors fails the residual check: each value, asked for by its
    # window index, gets its own vector.  Dense eigh fixes each vector only
    # to about 1e-16 / 7e-11, hence 1e-4
    n = 24
    lam = np.linspace(-1.0, 1.0, n)
    lam[11:14] = 0.1 + 7e-11 * np.arange(3)
    Q = np.eye(n)
    for first in (0, 1):
        G = np.eye(n)
        for i in range(first, n - 1, 2):
            t = 0.3 + 0.17 * i
            G[i:i + 2, i:i + 2] = [[math.cos(t), -math.sin(t)],
                                   [math.sin(t), math.cos(t)]]
        Q = Q @ G
    op = _from_dense((Q * lam) @ Q.T)
    vals, vecs = np.linalg.eigh(op.matrix)
    norm_a = np.abs(vals).max()
    gaps = np.diff(vals[11:14]) / norm_a
    assert (gaps > 1e-13).all() and (gaps < RESIDUAL_TOL).all()
    assert vals[13] - vals[11] > RESIDUAL_TOL * norm_a
    spec = window_spectrum(op, (-0.5, 0.5))
    picks = [13, 8, 11, 12]         # the cluster, out of order, and a loner
    idx = [i - np.searchsorted(vals, -0.5) for i in picks]
    assert np.abs(spec.values[idx] - vals[picks]).max() <= 1e-13 * norm_a
    x = spec.vectors(idx)
    for col, i in enumerate(picks):
        # the sine of the angle between the two vectors
        overlap = abs(np.vdot(vecs[:, i], x[:, col]))
        assert math.sqrt(max(0.0, 1.0 - overlap ** 2)) <= 1e-4


def test_window_eigenvalues_closed_window_and_singular_shift():
    # epsilon = 0: the matrix is diagonal, every eigenvalue equals a
    # diagonal entry exactly and A - lambda I is exactly singular, which
    # the residual check must accept; h = 1/4 makes the eigenvalues h n
    # exact, so lo and hi sit exactly on eigenvalues
    op = build_operator(_symbol(1, terms=[_y(1, 0, 1.0)]), 0.25, 6, 1)
    assert np.array_equal(window_spectrum(op, (0.25, 1.0)).values,
                          [0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(window_spectrum(op, (-1.5, 1.5)).values,
                          0.25 * np.arange(-6, 7))
    empty = window_spectrum(op, (0.3, 0.4)).values
    assert empty.shape == (0,)


def test_window_residual_guard_rejects_a_shifted_eigenvalue(monkeypatch):
    op = build_operator(_symbol(1, terms=[_y(1, 0, 1.0)],
                                waves=[(0.2, (1,), None)]), 0.5, 2, 1)
    assert op.dim <= SPOT_CHECKS
    window = (-10.0, 10.0)
    assert window_spectrum(op, window).values.size == op.dim
    for bad in range(op.dim):
        _shift_one_eigenvalue(monkeypatch, bad)
        with pytest.raises(InvariantError, match="residual"):
            window_spectrum(op, window)


def test_interior_is_the_principal_submatrix():
    symbol = _symbol(1, 2, terms=[_y(1, 0, 1.0, 2)]
                     + _quad(1, 2, [0.3, 0.5], [0.4, 0.2]),
                     waves=[(0.05, (1,), (1, 0, 0, 0))])
    op = build_operator(symbol, 0.1, 2, 5)
    sub = interior(op)
    # index t nh + l is torus mode t at Hermite level l, product order
    nh = len(op.hermite_levels)
    assert op.hermite_levels.tolist() == [[a, b] for a in range(5)
                                          for b in range(5)]
    keep = [t * nh + l for t in range(len(op.torus_modes))
            for l, m in enumerate(op.hermite_levels.tolist())
            if all(v < 4 for v in m)]
    assert len(keep) == 5 * 4 * 4
    assert np.array_equal(sub.matrix, op.matrix[np.ix_(keep, keep)])
    assert sub.hermite_levels.tolist() == [[a, b] for a in range(4)
                                           for b in range(4)]
    assert np.array_equal(sub.torus_modes, op.torus_modes)
    assert interior(sub) is sub


def test_interior_without_resonant_directions_is_the_operator():
    op = build_operator(_symbol(2, terms=[_y(2, 0, 1.0), _y(2, 1, 0.7)]),
                        0.1, 3, 1)
    assert interior(op) is op


def test_weyl_symmetrization_uv():
    h = 0.3
    for Nh in (8, 24, 72):
        U = hermite_position(Nh, h)
        P = hermite_momentum(Nh, h)
        # the ladders: sqrt(h m / 2) next to the diagonal, zero elsewhere
        m = np.arange(1, Nh)
        assert np.array_equal(U[m, m - 1], np.sqrt(h * m / 2.0))
        assert np.array_equal(U, U.T) and np.count_nonzero(U) == 2 * (Nh - 1)
        assert np.array_equal(P, 1j * (np.tril(U) - np.triu(U)))
        U = U.astype(complex)
        for (a, b), want in {(0, 0): np.eye(Nh), (1, 0): U, (0, 1): P,
                             (2, 0): U @ U, (0, 2): P @ P,
                             (1, 1): 0.5 * (U @ P + P @ U)}.items():
            assert np.array_equal(weyl_uv_power(a, b, U, P), want), (a, b)
        # [u, h D_u] = i h on the interior of the ladder
        comm = U @ P - P @ U
        assert np.allclose(np.diag(comm)[:-1], 1j * h, atol=1e-12)


def test_weyl_quartic_identity():
    # Op^W(|z|^4) = (Op^W |z|^2)^2 + h^2: the Weyl symbol of the square
    # carries the Moyal term -h^2 of u^2 # v^2 + v^2 # u^2.  Truncating the
    # ladder changes only the rows within four levels of the top.
    Nh, h = 30, 0.05
    U = hermite_position(Nh, h).astype(complex)
    P = hermite_momentum(Nh, h)

    def W(a, b):
        return weyl_uv_power(a, b, U, P)

    z2 = W(2, 0) + W(0, 2)
    square = z2 @ z2
    gap = W(4, 0) + 2 * W(2, 2) + W(0, 4) - square
    # to a few ulps of the largest entry (8.1; h^2 = 0.0025)
    np.testing.assert_allclose(gap[:Nh - 4], h ** 2 * np.eye(Nh)[:Nh - 4],
                               rtol=0, atol=4 * np.finfo(float).eps
                               * np.abs(square).max())


def test_cubic_row_builds_hermitian():
    # c u^2 v quantizes to c (U^2 P + 2 U P U + P U^2)/4, Hermitian for a
    # real c, and passes build_operator's check
    h, Nh, c = 0.1, 12, 0.7
    op = build_operator(_symbol(1, 1, terms=[(((0,), (0,), (2, 1)), c)]), h,
                        0, Nh)
    U = hermite_position(Nh, h)
    P = hermite_momentum(Nh, h)
    want = c * (U @ U @ P + 2 * U @ P @ U + P @ U @ U) / 4
    np.testing.assert_allclose(op.matrix, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(want, want.conj().T, rtol=0, atol=1e-15)


def test_required_Nt_margin():
    n = required_Nt(window_hi=1.0, h=0.05, omega_min=1.0, kmax=2)
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
    st, op = desk_model(h, 14, 24, eps=eps, lam=lam, lamt=lamt, w=w)
    pred = predict_spectrum(st, h=h, epsilon=eps, maslov=(0,),
                            window=(0.12, 0.38), scaling="oscillator",
                            n_res_max=5)
    # drop the Hermite truncation edge: top 20% of levels
    eigs_interior = np.linalg.eigvalsh(interior(op).matrix)
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
