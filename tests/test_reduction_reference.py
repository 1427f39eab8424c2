"""The array reduction against the term-by-term reference in
reduction_reference.py: the same supports (so the same kmax and degmax),
coefficients within 1e-14 relative, the same critical points (phi, value
and Hessian within 1e-12) and the same failed seeds."""
import math

import numpy as np
import pytest

import reduction_reference as ref
import resonorm.reduction
from resonorm.gevrey import power_log_delta
from resonorm.reduction import (
    TaylorData,
    apply_unimodular_change,
    critical_points,
    reduce_hamiltonian,
    resonant_average,
    unimodular_completion,
)
from resonorm.series import (FourierTaylorSeries, PhaseGeometry,
                             lie_transform_auto)

REL = 1e-14
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def assert_series_match(got, want):
    assert got.geometry == want.geometry
    assert (got.kmax, got.degmax) == (want.kmax, want.degmax)
    assert np.array_equal(got.exps(), want.exps())
    a, b = got.coefs(), want.coefs()
    assert np.all(np.abs(a - b) <= REL * np.maximum(np.abs(a), np.abs(b)))


def assert_reductions_match(got, want):
    assert_series_match(got.P1, want.P1)
    assert_series_match(got.Rterm, want.Rterm)
    assert got.geometry == want.geometry and got.epsilon == want.epsilon
    assert_close(got.epsilonN0, want.epsilonN0, REL)
    assert np.array_equal(got.omega1, want.omega1)
    assert np.array_equal(got.U0, want.U0)
    assert_close(got.phi0, want.phi0, 1e-12)
    assert_close(got.V0, want.V0, 1e-12)
    assert_close(got.M1, want.M1, 1e-12)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        tol = 1e-12 if key == "h0_critical_value" else REL
        assert_close(got.diagnostics[key], value, tol)


def assert_close(got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


def real_series(geo, rows, rng):
    """A real series with one drawn coefficient per (k, j) row, plus the
    conjugate row at -k."""
    P = FourierTaylorSeries.from_terms(geo, [
        ((k, j, (0,) * geo.zdim), complex(rng.normal(), rng.normal()))
        for k, j in rows])
    return (P + P.conjugate()).scale(0.5)


# ---------------------------------------------------------------------------
# critical points: one Newton run over all seeds vs one seed at a time
# ---------------------------------------------------------------------------

def _angle_series(name):
    if name == "singular":
        # Re(c_1 e^{i phi} + c_2 e^{2 i phi}) with 1 Re c_1 + 4 Re c_2 = 0:
        # the Hessian at the seed phi = 0 is exactly 0 while the gradient
        # is not, so that seed fails
        geo = PhaseGeometry(d=1, d0=0)
        c1, c2 = 0.25 + 0.15j, -0.0625
        return FourierTaylorSeries.from_terms(geo, [
            (((1,), (0,), ()), c1), (((-1,), (0,), ()), c1.conjugate()),
            (((2,), (0,), ()), c2), (((-2,), (0,), ()), c2)]), 1
    d0 = 1 if name == "d0=1" else 2
    modes = ([(1,), (2,), (3,)] if d0 == 1 else
             [(1, 0), (0, 1), (1, 1), (1, -1), (2, 0)])
    rng = np.random.default_rng(17 + d0)
    return real_series(PhaseGeometry(d=d0, d0=0),
                       [(k, (0,) * d0) for k in modes], rng), d0


@pytest.mark.parametrize("grid_nodes", [16, 64])
@pytest.mark.parametrize("name", ["d0=1", "d0=2", "singular"])
def test_critical_points_match_per_seed_newton(name, grid_nodes):
    h0, d0 = _angle_series(name)
    got = critical_points(h0, d0, grid_nodes=grid_nodes)
    want = ref.critical_points(h0, d0, grid_nodes=grid_nodes)
    assert got.failed_seeds == want.failed_seeds
    assert got.degenerate_family == want.degenerate_family
    assert len(got.points) == len(want.points) > 0
    for p, w in zip(got.points, want.points):
        assert np.abs(p.phi - w.phi).max() <= 1e-12
        assert abs(p.value - w.value) <= 1e-12
        assert np.abs(p.hessian - w.hessian).max() <= 1e-12
        assert p.nondegenerate == w.nondegenerate
    if name == "singular":
        assert want.failed_seeds > 0


# ---------------------------------------------------------------------------
# coordinate change and resonant average
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y0", [(0.0, 0.0, 0.0), (0.3, -0.2, 0.7)])
def test_unimodular_change_matches_termwise(y0):
    geo = PhaseGeometry(d=3, d0=0)
    mod = unimodular_completion([(1, -1, 0), (0, 1, -1)])
    rng = np.random.default_rng(23)
    rows = [((1, 0, 0), (0, 0, 0)), ((1, -1, 0), (1, 0, 0)),
            ((0, 1, -1), (0, 2, 0)), ((2, 1, 0), (1, 0, 1)),
            ((0, 0, 0), (0, 1, 1)), ((1, 1, 1), (0, 0, 2))]
    P = real_series(geo, rows, rng)
    got = apply_unimodular_change(P, mod.K0, np.array(y0))
    assert_series_match(got, ref.apply_unimodular_change(P, mod.K0,
                                                         np.array(y0)))
    for d0 in (1, 2):
        assert_series_match(resonant_average(got, d0),
                            ref.resonant_average(got, d0))


# ---------------------------------------------------------------------------
# the full reduction
# ---------------------------------------------------------------------------

def _cubic(l, rng):
    """A symmetric third-derivative tensor."""
    T = rng.normal(scale=0.3, size=(l, l, l))
    return sum(T.transpose(p) for p in
               ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                (2, 1, 0))) / 6.0


def _reduction_case(d0, cubic, y_dependent):
    """Taylor data, P0 and module on T^3: d0 = 1 has the module (0 0 1)
    and frequency (1, golden, 0); d0 = 2 the module (1 -1 0 ; 0 1 -1) and
    frequency (1, 1, 1), whose resonant average has its minimum off 0."""
    rng = np.random.default_rng(31 + 2 * d0 + cubic)
    geo = PhaseGeometry(d=3, d0=0)
    hess = np.diag([1.0, 1.2, 1.7])
    hess[0, 2] = hess[2, 0] = 0.2
    if d0 == 1:
        gens, grad = [(0, 0, 1)], np.array([1.0, GOLDEN, 0.0])
        modes = [(0, 0, 1), (1, 0, 1), (0, 1, -1), (1, 1, 0)]
    else:
        gens, grad = [(1, -1, 0), (0, 1, -1)], np.ones(3)
        modes = [(1, -1, 0), (0, 1, -1), (1, 0, -1), (1, 0, 0), (0, 1, 1)]
    rows = [(k, (0, 0, 0)) for k in modes]
    if y_dependent:
        rows += [((1, 0, 1), (1, 0, 0)), (modes[0], (0, 1, 1)),
                 ((0, 0, 0), (0, 2, 0)), (modes[1], (0, 0, 2))]
    taylor = TaylorData(value=0.0, gradient=grad, hessian=hess,
                        cubic=_cubic(3, rng) if cubic else None)
    y0 = np.array([0.25, -0.15, 0.4]) if y_dependent else np.zeros(3)
    return taylor, real_series(geo, rows, rng), unimodular_completion(gens), y0


@pytest.mark.parametrize("d0, cubic, y_dependent, degmax", [
    (1, False, False, 4),
    (1, True, True, 4),
    (1, True, True, 2),
    (2, False, False, 4),
    (2, True, True, 3),
])
def test_reduce_hamiltonian_matches_termwise(d0, cubic, y_dependent, degmax):
    taylor, P0, mod, y0 = _reduction_case(d0, cubic, y_dependent)
    kw = dict(delta=power_log_delta(a=2.0), gamma=0.01, degmax=degmax)
    got = reduce_hamiltonian(taylor, P0, mod, y0, 1e-3, **kw)
    want = ref.reduce_hamiltonian(taylor, P0, mod, y0, 1e-3, **kw)
    assert_reductions_match(got, want)
    if d0 == 2:
        assert np.all(np.abs(np.sin(got.phi0)) > 1e-3)
    if degmax == 2:
        assert got.diagnostics["taylor_drop"] > 0
    if cubic:
        assert got.diagnostics["cross_quad_mass"] > 0


def test_averaging_lie_series_is_not_cut(monkeypatch):
    # Y_1^4 e^{i theta_1} in P0 meets the averaging generator F1 (modes
    # |k| <= 1) in four brackets that reach |k| = 5; a cut of the Lie
    # series at |k| <= 4 max|k| would drop 5.8e-12 of mass here.  Nothing
    # is cut: the series ends by itself and P1 carries that content
    taylor, P0, mod, y0 = _reduction_case(1, True, True)
    P0 = P0 + real_series(P0.geometry, [((1, 0, 0), (4, 0, 0))],
                          np.random.default_rng(5))
    seen = []

    def spy(H, F, *args, **kwargs):
        seen.append((H, F, lie_transform_auto(H, F, *args, **kwargs)))
        return seen[-1][2]

    monkeypatch.setattr(resonorm.reduction, "lie_transform_auto", spy)
    kw = dict(delta=power_log_delta(a=2.0), gamma=0.01, degmax=4)
    got = reduce_hamiltonian(taylor, P0, mod, y0, 1e-2, **kw)
    (H, F1, (moved, order)), = seen
    assert F1.kmax == 1 and order <= H.degrees().max() + 1
    assert np.abs(moved.coefs()[moved.knorms() > 4]).sum() > 5e-12
    assert got.P1.knorms().max() == 5
    assert got.P1.kmax == 5
    assert_reductions_match(
        got, ref.reduce_hamiltonian(taylor, P0, mod, y0, 1e-2, **kw))

