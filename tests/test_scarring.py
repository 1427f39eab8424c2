"""Scarring-diagnostic tests: separation constants, window disjointness and
census fractions, the action-map regularity check, and mass on the torus
window for oracle eigenvectors."""
import math

import numpy as np
import pytest

from resonorm.errors import ConfigError, InvariantError
from resonorm.gevrey import power_log_delta
from resonorm.kam import NormalFormState
from resonorm.oracle import build_operator, diagonalize
from resonorm.scarring import (
    CensusReport,
    QuasiEigenvalueTable,
    build_quasi_table,
    local_diffeo_check,
    mass_on_torus,
    match_quasimodes,
    resonant_ground_energy,
    separation_check,
    torus_window_modes,
    window_census,
)
from resonorm.series import FourierTaylorSeries, PhaseGeometry

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
DELTA = power_log_delta(a=2.0, alpha=2.0)


def make_state(omega, M=None, eps=0.0, d0=0, rterm=None):
    geo = PhaseGeometry(d=len(omega), d0=d0)
    return NormalFormState.initial(geo, omega, M, eps,
                                   FourierTaylorSeries.zero(geo), rterm=rterm)


# ---------------------------------------------------------------------------
# quasi-eigenvalues and separation
# ---------------------------------------------------------------------------

def test_quasi_table_linear_integrable():
    st = make_state([GOLDEN])
    h = 0.02
    table = build_quasi_table(st, h, (0,), [(m,) for m in range(10, 20)])
    for m, mu in zip(table.m, table.mu):
        assert mu == pytest.approx(GOLDEN * h * m[0], abs=1e-14)


def test_k0_eps_derivative_polynomial():
    # synthetic state with eps-series coefficients and a remainder ledger at
    # s = 0, 1, 2: K0 = <w,I> + c1 e + c2 e^2 + R0(I) + e R1(I) + e^2 R2(I)
    geo = PhaseGeometry(d=1, d0=0)

    def ledger_entry(*terms):
        return FourierTaylorSeries.from_terms(
            geo, [(((k,), (j,), ()), c) for k, j, c in terms])

    R0 = ledger_entry((0, 2, 0.7))                          # 0.7 I^2
    R1 = ledger_entry((0, 2, -0.3), (1, 1, 0.4), (-1, 1, 0.4))
    R2 = ledger_entry((0, 1, 1.5))                          # 1.5 I
    st = make_state([1.0], eps=0.1)
    st = st.__class__(geometry=st.geometry, omega0=st.omega0, M0=st.M0,
                      epsilon=0.1, P=st.P, p=2, eps_coeffs=(0.3, -0.2),
                      omega_coeffs=(np.array([0.5]), np.array([0.0])),
                      M_coeffs=(np.zeros((0, 0)), np.zeros((0, 0))),
                      ledger=((0, 0, R0), (1, 0, R1), (2, 0, R2)))
    I = np.array([2.0])
    e = 0.1
    # the angle-dependent part of R1 averages away
    assert st.k0_polynomial(I) == pytest.approx(
        (1 + 0.5 * e) * 2.0 + 0.3 * e - 0.2 * e ** 2
        + 0.7 * 4.0 - 0.3 * 4.0 * e + 1.5 * 2.0 * e ** 2, abs=1e-14)
    # order 1: R0 (s = 0 < 1) vanishes
    d1 = st.k0_polynomial(I, order=1)
    assert d1 == pytest.approx(0.5 * 2.0 + 0.3 - 0.4 * e - 0.3 * 4.0
                               + 2.0 * 1.5 * 2.0 * e, abs=1e-13)
    # order 2: R0 and R1 (s < 2) vanish
    d2 = st.k0_polynomial(I, order=2)
    assert d2 == pytest.approx(-0.4 + 2.0 * 1.5 * 2.0, abs=1e-13)
    # a stack of points gives the same values row by row
    Y = np.array([[2.0], [-1.0]])
    for order in (0, 1, 2):
        assert np.allclose(st.k0_polynomial(Y, order=order),
                           [st.k0_polynomial(y, order=order) for y in Y],
                           rtol=0, atol=1e-14)


def test_k0_polynomial_stacked_points():
    # a stack of actions gives the values at each row, the remainder
    # ledger's angle averages included, whether the caller passes them or not
    geo = PhaseGeometry(d=2, d0=0)
    rterm = FourierTaylorSeries.from_terms(geo, [
        (((0, 0), (2, 0), ()), 0.3), (((0, 0), (1, 1), ()), -0.2),
        (((1, 0), (1, 0), ()), 0.5), (((-1, 0), (1, 0), ()), 0.5)])
    st = make_state([1.0, GOLDEN], eps=0.05, rterm=rterm)
    Y = np.array([[0.5, 1.0], [1.5, -0.3], [2.0, 0.7]])
    each = [st.k0_polynomial(y) for y in Y]
    assert all(isinstance(v, float) for v in each)
    assert np.array_equal(st.k0_polynomial(Y), each)
    assert np.array_equal(st.k0_polynomial(Y, ledger=st.ledger_averages()),
                          each)
    # the angle average drops the e^{+-ix} rows
    want = Y @ [1.0, GOLDEN] + 0.3 * Y[:, 0] ** 2 - 0.2 * Y[:, 0] * Y[:, 1]
    assert np.abs(st.k0_polynomial(Y) - want).max() <= 1e-14


def test_separation_diophantine_linear():
    # eps = 0, K0 linear with Diophantine frequency: the measured constant is
    # |<w, m - m'>| h / h^(3/2), consistent with the divisor lower bound
    st = make_state([GOLDEN])
    h = 0.02
    modes = [(m,) for m in range(30, 60)]
    table = build_quasi_table(st, h, (0,), modes)
    rep = separation_check(table, C1=1.0, delta_fn=DELTA)
    assert rep.qualifying_pairs > 0
    assert not rep.violations
    # neighboring modes: |mu| gap = h*w: measured C2 = w/sqrt(h)
    assert rep.measured_C2 <= GOLDEN / math.sqrt(h) + 1e-9
    assert rep.measured_C2 > 0


def test_separation_single_entry_vacuous():
    st = make_state([1.0])
    table = build_quasi_table(st, 0.02, (0,), [(3,)])
    rep = separation_check(table, C1=1.0, delta_fn=DELTA)
    assert rep.qualifying_pairs == 0
    assert rep.violations == []


def test_separation_flags_duplicates():
    st = make_state([1.0])
    h = 0.02
    table = build_quasi_table(st, h, (0,), [(5,), (6,)])
    # adversarial: overwrite with duplicate quasi-eigenvalues
    table.mu[1] = table.mu[0]
    rep = separation_check(table, C1=2.0, delta_fn=DELTA)
    assert rep.violations


# ---------------------------------------------------------------------------
# windows and census
# ---------------------------------------------------------------------------

def test_windows_disjoint_when_separated():
    st = make_state([GOLDEN])
    h = 0.02
    table = build_quasi_table(st, h, (0,), [(m,) for m in range(10, 25)])
    # the table is ascending in mu, and each window [mu - hw, mu + hw]
    # ends below the next one's start
    hw = h ** 1.85 / 3.0
    assert np.all(np.diff(table.mu) > 0)
    assert np.all(table.mu[:-1] + hw < table.mu[1:] - hw)
    window_census(table, 1.85, [], lam=4.0, R=1.0)


def test_census_sparse_spectrum_all_low():
    st = make_state([GOLDEN])
    h = 0.02
    table = build_quasi_table(st, h, (0,), [(m,) for m in range(10, 25)])
    # oracle spectrum with gaps much larger than the windows
    eigs = [GOLDEN * h * m + 1e-9 for m in range(10, 25)]
    rep = window_census(table, 1.85, eigs, lam=4.0, R=1.0)
    assert all(c <= 1 for c in rep.counts.values())
    assert rep.fraction >= 1.0 - 2.0 / 4.0


def test_census_fraction_monotone_in_lam():
    st = make_state([GOLDEN])
    h = 0.02
    table = build_quasi_table(st, h, (0,), [(m,) for m in range(10, 25)])
    rng = np.random.default_rng(5)
    eigs = np.concatenate([[GOLDEN * h * m + rng.normal() * 1e-6]
                           for m in range(10, 25)])
    fr = []
    for lam in (1.5, 2.0, 4.0, 16.0):
        rep = window_census(table, 1.85, eigs, lam=lam, R=0.6)
        fr.append(rep.fraction)
    assert all(a <= b + 1e-12 for a, b in zip(fr, fr[1:]))
    assert fr[-1] == 1.0


def test_census_aborts_on_overlap():
    st = make_state([1.0])
    h = 0.2
    # adjacent integers at low exponent: windows h^1.76/3 vs spacing h
    table = build_quasi_table(st, h, (0,), [(0,), (1,)])
    table.mu[1] = table.mu[0] + 1e-6
    with pytest.raises(InvariantError, match="overlap"):
        window_census(table, 1.76, [0.0], lam=4.0, R=1.0)


# ---------------------------------------------------------------------------
# the table's array forms against per-pair loops
# ---------------------------------------------------------------------------

def _loop_separation(entries, h, C1, delta_fn):
    """Reference: the walk over itertools.combinations of (m, I, mu) rows."""
    import itertools
    gap = h * delta_fn.inverse(C1 * h ** (-0.5))
    ref = h ** 1.5
    measured = math.inf
    violations = []
    pairs = 0
    scale = max(abs(mu) for _, _, mu in entries) if entries else 1.0
    for (m1, I1, mu1), (m2, I2, mu2) in itertools.combinations(entries, 2):
        if np.linalg.norm(I1 - I2) > gap:
            continue
        pairs += 1
        dmu = abs(mu1 - mu2)
        measured = min(measured, dmu / ref)
        if dmu <= 1e-13 * max(1.0, scale):
            violations.append((m1, m2, dmu))
    return violations, measured if pairs else math.nan, pairs


def _loop_census(entries, h, delta_exp, eigs, lam, R):
    """Reference: one window per row, overlap checked on the sorted
    windows, two searchsorted calls per window."""
    hw = h ** delta_exp / 3.0
    wins = sorted(((m, mu - hw, mu + hw) for m, _, mu in entries),
                  key=lambda w: w[1] + hw)
    for a, b in zip(wins, wins[1:]):
        if a[2] > b[1]:
            raise InvariantError(f"windows overlap at {a[0]} / {b[0]}")
    eigs = np.sort(np.asarray(eigs, dtype=float))
    counts = {m: int(np.searchsorted(eigs, mu + hw, side="right")
                     - np.searchsorted(eigs, mu - hw, side="left"))
              for m, _, mu in entries}
    mtilde = [m for m, c in counts.items() if c < lam * R]
    return counts, mtilde, len(mtilde) / len(counts) if counts else math.nan


def _loop_match(entries, eigs):
    """Reference: three neighbours per row, the first strictly nearest."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    gaps = np.diff(eigs)
    tol = 0.5 * float(np.median(gaps)) if gaps.size else math.inf
    out = []
    for m, _, mu in entries:
        i = int(np.searchsorted(eigs, mu))
        best, best_d = None, math.inf
        for j in (i - 1, i, i + 1):
            if 0 <= j < eigs.size and abs(eigs[j] - mu) < best_d:
                best, best_d = j, abs(eigs[j] - mu)
        if best is not None and best_d <= tol:
            out.append((m, best, float(eigs[best]), best_d))
    return out


def _entries(table):
    return [(tuple(m), I, float(mu))
            for m, I, mu in zip(table.m.tolist(), table.I, table.mu)]


def _assert_like_loops(table, eigs, C1=1.0, lam=4.0, R=1.5):
    entries = _entries(table)
    sep = separation_check(table, C1=C1, delta_fn=DELTA)
    want = _loop_separation(entries, table.h, C1, DELTA)
    assert sep.violations == want[0]
    assert sep.measured_C2 == want[1] or math.isnan(want[1]) \
        and math.isnan(sep.measured_C2)
    assert sep.qualifying_pairs == want[2]
    assert match_quasimodes(table, eigs) == _loop_match(entries, eigs)
    try:
        want = _loop_census(entries, table.h, 1.85, eigs, lam, R)
    except InvariantError:
        with pytest.raises(InvariantError, match="overlap"):
            window_census(table, 1.85, eigs, lam=lam, R=R)
        return sep
    rep = window_census(table, 1.85, eigs, lam=lam, R=R)
    assert list(rep.counts.items()) == list(want[0].items())
    assert rep.mtilde == want[1]
    assert rep.fraction == want[2] or math.isnan(want[2])
    return sep


def test_table_arrays_match_pair_loops_d2():
    # d = 2, omega = (1, golden): separation, census and matching against
    # the loops over rows and row pairs
    st = make_state([1.0, GOLDEN], eps=0.02)
    h = 0.05
    table = build_quasi_table(st, h, (1, 2),
                              [(a, b) for a in range(-1, 6) for b in range(5)])
    assert table.m.shape == table.I.shape == (35, 2)
    assert np.array_equal(table.mu, np.sort(table.mu))
    assert np.array_equal(table.I, h * (table.m + np.array([1, 2]) / 4.0))
    rng = np.random.default_rng(11)
    near = table.mu[::2] + rng.normal(scale=1e-4, size=table.mu[::2].size)
    for eigs in (near, np.concatenate([near, rng.uniform(0, 1.0, 9)]), []):
        sep = _assert_like_loops(table, eigs)
        assert sep.qualifying_pairs > 0 and not sep.violations
    assert match_quasimodes(table, []) == []
    assert set(window_census(table, 1.85, [], lam=4.0, R=1.0)
               .counts.values()) == {0}


def test_table_exact_tie_and_violation():
    # a hand-made d = 2 table: row 1 lies exactly midway between two
    # eigenvalues, where matching takes the lower; rows 2 and 3 coincide,
    # a separation violation whose windows overlap
    m = np.array([[5, 0], [10, 0], [15, 0], [15, 1]])
    table = QuasiEigenvalueTable(m=m, I=0.05 * m,
                                 mu=np.array([0.25, 0.5, 0.75, 0.75]),
                                 h=0.05, epsilon=0.0, maslov=(0, 0))
    eigs = [0.25, 0.5 - 2.0 ** -8, 0.5 + 2.0 ** -8, 0.75]
    matches = match_quasimodes(table, eigs)
    assert [(m, i) for m, i, _, _ in matches] == [((5, 0), 0), ((10, 0), 1),
                                                 ((15, 0), 3), ((15, 1), 3)]
    sep = _assert_like_loops(table, eigs)
    assert sep.violations == [((15, 0), (15, 1), 0.0)]
    # without row 3 the windows are disjoint; one more eigenvalue sits on
    # the closed lower edge of row 0's window
    first = table.select(np.array([1, 1, 1, 0], bool))
    eigs = eigs + [0.25 - 0.05 ** 1.85 / 3.0]
    assert _assert_like_loops(first, eigs).violations == []
    census = window_census(first, 1.85, eigs, lam=4.0, R=1.5)
    assert census.counts == {(5, 0): 2, (10, 0): 0, (15, 0): 1}


# ---------------------------------------------------------------------------
# action-map regularity
# ---------------------------------------------------------------------------

def test_diffeo_linear_case():
    st = make_state([GOLDEN])
    rep = local_diffeo_check(st, [(1.0, 2.0)], [0.0], grid_nodes=8,
                             pair_samples=2000)
    assert rep.min_singular == pytest.approx(GOLDEN, rel=1e-6)
    assert not rep.failures
    assert rep.G1 <= rep.G2
    assert rep.G1 == pytest.approx(1.0 / GOLDEN, rel=1e-6)


def test_diffeo_with_twist():
    # K0(I; e) = I + e I^2: Jacobian of (K0) in I is 1 + 2 e I > 0 on [1,2];
    # the ledger takes the absolute series e * I^2
    geo = PhaseGeometry(d=1, d0=0)
    eps = 0.05
    rterm = FourierTaylorSeries(geo, {((0,), (2,), ()): eps})
    st = NormalFormState.initial(geo, [1.0], None, eps,
                                 FourierTaylorSeries.zero(geo), rterm=rterm)
    rep = local_diffeo_check(st, [(1.0, 2.0)], [0.05], grid_nodes=12,
                             pair_samples=4000)
    # d/dI (I + e I^2) = 1 + 2 e I in [1.1, 1.2] at e = 0.05
    assert 1.05 <= rep.min_singular <= 1.25
    assert rep.G1 <= rep.G2
    # bi-Lipschitz sampling agrees with the derivative range
    assert rep.G2 <= 1.0 / 1.05 + 1e-3


def test_diffeo_constants_h_stable():
    # the classical action function carries no h: constants are h-independent
    st = make_state([GOLDEN])
    reps = [local_diffeo_check(st, [(1.0, 2.0)], [0.0], grid_nodes=6,
                               pair_samples=500, seed=3) for _ in range(2)]
    assert reps[0].G1 == reps[1].G1 and reps[0].G2 == reps[1].G2


# ---------------------------------------------------------------------------
# mass on torus
# ---------------------------------------------------------------------------

def test_mass_pure_basis_states():
    # torus modes -3..3, four Hermite levels each: index = (n + 3) * 4 + level
    modes = np.arange(-3, 4)[:, None]
    window = torus_window_modes(modes, 1.0, 2.0, 0.5)
    assert window.tolist() == [n == 2 for n in range(-3, 4)]
    v = np.zeros(modes.size * 4)
    v[(2 + 3) * 4 + 1] = 1.0
    assert mass_on_torus(v, window) == 1.0
    v2 = np.zeros(modes.size * 4)
    v2[(-1 + 3) * 4 + 0] = 1.0
    assert mass_on_torus(v2, window) == 0.0
    empty = mass_on_torus(v, np.zeros(modes.size, dtype=bool))
    assert empty == 0.0 and isinstance(empty, float)


def test_mass_partition_of_unity():
    rng = np.random.default_rng(7)
    modes = np.arange(-3, 4)[:, None]
    v = rng.normal(size=modes.size * 3) + 1j * rng.normal(size=modes.size * 3)
    v /= np.linalg.norm(v)
    total = sum(mass_on_torus(v, (modes == n).ravel()) for n in range(-3, 4))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_mass_integrable_eigenstates_exact():
    op = build_operator(FourierTaylorSeries.linear_y(PhaseGeometry(d=1), [1.0]),
                        0.1, 4, 1)
    vals, vecs = diagonalize(op)
    for i, e in enumerate(vals):
        n = int(round(e / 0.1))
        window = torus_window_modes(op.torus_modes, 0.1, 0.1 * n, 0.05)
        assert mass_on_torus(vecs[:, i], window) == pytest.approx(1.0)


def test_match_quasimodes_nearest():
    st = make_state([GOLDEN])
    h = 0.02
    table = build_quasi_table(st, h, (0,), [(m,) for m in range(10, 15)])
    eigs = [GOLDEN * h * m + 1e-7 for m in range(10, 15)] + [99.0]
    matches = match_quasimodes(table, eigs)
    assert len(matches) == 5
    for m, idx, e, dist in matches:
        assert dist < 1e-6


# ---------------------------------------------------------------------------
# supporting checks
# ---------------------------------------------------------------------------

def test_separation_hypothesis_by_family():
    # numeric determination of which built-in divisor families satisfy
    # lim C1 gamma h^(-1/2) / (Delta^(-1)(C1 h^(-1/2)))^2 = infinity.
    # Findings: power-law exponent a > 2 grows like h^(1/a - 1/2) (diverges),
    # a = 2 is borderline-constant, and the sub-exponential family, though
    # asymptotically divergent (power over log-power), is still *decreasing*
    # at every practically reachable h.
    from resonorm.gevrey import power_log_delta, subgevrey_exp_delta

    def ratio(delta, h, C1=1.0, gamma=0.05):
        s = C1 * h ** -0.5
        return C1 * gamma * h ** -0.5 / delta.inverse(s) ** 2

    growing = power_log_delta(a=3.0, alpha=2.0)
    vals = [ratio(growing, h) for h in (1e-2, 1e-7, 1e-12)]
    assert vals[2] > vals[1] > vals[0]
    assert vals[2] > 10.0 * vals[0]

    borderline = power_log_delta(a=2.0, alpha=2.0)
    vals_b = [ratio(borderline, h) for h in (1e-2, 1e-7, 1e-12)]
    assert max(vals_b) < 10.0 * vals_b[0]          # bounded: hypothesis fails

    subexp = subgevrey_exp_delta(beta=0.25, alpha=2.0)
    vals_s = [ratio(subexp, h) for h in (1e-2, 1e-4, 1e-6)]
    assert vals_s[0] > vals_s[1] > vals_s[2]       # decreasing at desk scale
    print(f"hypothesis ratios: a=3 {vals}, a=2 {vals_b}, subexp {vals_s}")


def test_resonant_ground_energy_values():
    st = make_state([1.0], M=np.diag([1.0, 4.0]), eps=0.01, d0=1)
    assert resonant_ground_energy(st, 0.05, "oscillator") == pytest.approx(
        0.5 * 0.01 * 0.05 * 2.0)
    assert resonant_ground_energy(st, 0.05, "component") == pytest.approx(
        0.25 * 0.01 * 5.0)
