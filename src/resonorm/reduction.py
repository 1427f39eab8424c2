"""Classical resonant reduction.

Starting from H = H0(y) + eps*P0(x,y) on T^l x R^l and a resonance
sublattice g of Z^l of rank d0, this module produces the reduced form

    H1 = eps*N1(0) + <omega1, y> + (eps/2) <z, M1 z> + eps*R1 + eps*P1

on T^d x R^d x R^(2*d0), d = l - d0, via: unimodular change of basis
adapted to g, Taylor expansion at a resonant action y0, one averaging
step removing the order-eps dependence on the non-resonant angles,
shift of the resonant angles to a critical point of the resonant
average, Taylor expansion in the resonant angle deviation, and a
conformal action scaling.  Nothing is discarded: terms outside the
normal-form shape are reclassified into the flat remainder R1 or the
perturbation P1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivisorError, InvariantError
from .gevrey import ApproximationFunction
from .kam import DivisorTable, divisor_thresholds
from .series import (
    FourierTaylorSeries,
    PhaseGeometry,
    flat_remainder_part,
    integrable_part,
    lie_transform_auto,
)

RESONANCE_TOL = 1e-10
#: Newton iterations per critical-point seed, and the gradient norm,
#: relative to the coefficient scale, at which a seed has converged.
NEWTON_STEPS = 60
NEWTON_TOL = 1e-12
#: Settling tolerance of the averaging step's Lie series.
AVERAGING_LIE_TOL = 1e-15


# ---------------------------------------------------------------------------
# integer linear algebra
# ---------------------------------------------------------------------------

def smith_normal_form(A):
    """Smith decomposition U A V = S over the integers.

    U, V are unimodular; S is diagonal with non-negative invariant
    factors satisfying the divisibility chain.  Entries are Python ints,
    so there is no overflow.  Deterministic for fixed input.
    """
    A = np.array([[int(v) for v in row] for row in A], dtype=object)
    m, n = A.shape
    U = np.eye(m, dtype=object)
    V = np.eye(n, dtype=object)

    def swap_rows(i, j):
        A[[i, j], :] = A[[j, i], :]
        U[[i, j], :] = U[[j, i], :]

    def swap_cols(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        V[:, [i, j]] = V[:, [j, i]]

    def add_row(src, dst, c):
        A[dst, :] += c * A[src, :]
        U[dst, :] += c * U[src, :]

    def add_col(src, dst, c):
        A[:, dst] += c * A[:, src]
        V[:, dst] += c * V[:, src]

    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero magnitude in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i, j]
                if a != 0 and (best is None or abs(a) < best):
                    best, pivot = abs(a), (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            done = True
            for i in range(t + 1, m):
                if A[i, t] != 0:
                    add_row(t, i, -(A[i, t] // A[t, t]))
                    if A[i, t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if A[t, j] != 0:
                    add_col(t, j, -(A[t, j] // A[t, t]))
                    if A[t, j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # divisibility: fold any non-divisible trailing entry into the pivot
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i, j] % A[t, t] != 0:
                    add_row(i, t, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if A[t, t] < 0:
            A[t, :] *= -1
            U[t, :] *= -1
        t += 1

    return U, A, V


def _det_int(M) -> int:
    M = [[int(v) for v in row] for row in M]
    n = len(M)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det_int(minor)
    return total


@dataclass(frozen=True)
class ResonanceModule:
    """Resonance lattice data: generators, their unimodular completion, and
    the full change-of-basis matrix K0 = (K_star, K_prime)."""

    generators: tuple          # d0 integer vectors, each length l
    completion: tuple          # d integer vectors, each length l
    K0: np.ndarray             # l x l integer matrix, det +1
    left_inverse: np.ndarray   # d0 x l integer matrix A with A K' = I

    @property
    def l(self) -> int:
        return self.K0.shape[0]

    @property
    def d0(self) -> int:
        return len(self.generators)

    @property
    def d(self) -> int:
        return self.l - self.d0

    @property
    def K_star(self) -> np.ndarray:
        return self.K0[:, :self.d]

    @property
    def K_prime(self) -> np.ndarray:
        return self.K0[:, self.d:]


def unimodular_completion(generators) -> ResonanceModule:
    """Extend lattice generators to a basis of Z^l with determinant +1.

    The generators must span a rank-d0 direct summand of Z^l; a non-unit
    invariant factor in the Smith form means they do not, and the call is
    rejected with that factor named.
    """
    gens = [np.asarray(g, dtype=int) for g in generators]
    if not gens:
        raise ConfigError("at least one generator is required")
    l = gens[0].size
    if any(g.size != l for g in gens):
        raise ConfigError("generators must share a common length")
    d0 = len(gens)
    if d0 > l:
        raise ConfigError("more generators than dimensions")

    G = np.stack(gens, axis=1)          # l x d0
    U, S, V = smith_normal_form(G)
    factors = [int(S[i, i]) for i in range(min(l, d0))]
    if len([f for f in factors if f != 0]) < d0:
        raise ConfigError("generators are linearly dependent")
    bad = [f for f in factors if f not in (0, 1)]
    if bad:
        raise ConfigError(
            f"generators do not span a direct summand of Z^l "
            f"(invariant factor {bad[0]})")

    # left inverse A with A G = I_d0: A = V (I|0) U
    proj = np.zeros((d0, l), dtype=object)
    for i in range(d0):
        proj[i, i] = 1
    A = np.array(V, dtype=object) @ proj @ np.array(U, dtype=object)

    # integer kernel of A: trailing columns of the Smith column transform
    Ua, Sa, Va = smith_normal_form(A)
    kernel = [np.array([int(Va[i, j]) for i in range(l)]) for j in range(d0, l)]

    K0 = np.zeros((l, l), dtype=int)
    for idx, col in enumerate(kernel):
        K0[:, idx] = col
    for idx, g in enumerate(gens):
        K0[:, l - d0 + idx] = g
    det = _det_int(K0)
    if abs(det) != 1:
        raise InvariantError(f"completion construction failed (det {det})")
    if det == -1:
        K0[:, 0] *= -1
        kernel[0] = -kernel[0]

    A_int = np.array([[int(v) for v in row] for row in A], dtype=int)
    return ResonanceModule(generators=tuple(tuple(int(v) for v in g) for g in gens),
                           completion=tuple(tuple(int(v) for v in c) for c in kernel),
                           K0=K0, left_inverse=A_int)


# ---------------------------------------------------------------------------
# resonant average and critical points
# ---------------------------------------------------------------------------

def resonant_average(P0bar: FourierTaylorSeries, d0: int) -> FourierTaylorSeries:
    """Resonant average of a perturbation in adapted coordinates (see
    apply_unimodular_change): its Y = 0, k' = 0 slice, k' the first
    d = l - d0 mode components, as a series in the d0 resonant angles
    (on T^1 when d0 = 0)."""
    l = P0bar.geometry.d
    d = l - d0
    e = P0bar.exps()
    sel = ~e[:, :d].any(axis=1) & ~e[:, l:].any(axis=1)
    m = e[sel, d:l] if d0 else np.zeros((int(sel.sum()), 1), dtype=np.int64)
    return FourierTaylorSeries.from_arrays(
        PhaseGeometry(d=max(d0, 1), d0=0), int(np.abs(m).max(initial=0)), 0,
        np.concatenate([m, 0 * m], axis=1), P0bar.coefs()[sel], prune=True)


@dataclass
class CriticalPoint:
    phi: np.ndarray
    hessian: np.ndarray
    value: float
    nondegenerate: bool


@dataclass
class CriticalPointSet:
    points: list
    degenerate_family: bool = False
    failed_seeds: int = 0


def _angle_grad_hess(ks: np.ndarray, cs: np.ndarray, phi: np.ndarray):
    """Value, gradient and Hessian of sum_t Re(c_t e^{i<k_t, phi>}) over
    decoded modes ks (n x d0) and coefficients cs, at a point phi (d0,) or
    at each point of a stack (..., d0); the stacked matmuls run the same
    sums per point as a single point does."""
    ph = cs * np.exp(1j * (ks @ phi[..., None])[..., 0])
    return (ph.real.sum(axis=-1), -(ks.T @ ph.imag[..., None])[..., 0],
            -(ks.T * ph.real[..., None, :]) @ ks)


def critical_points(h0: FourierTaylorSeries, d0: int, *,
                    grid_nodes: int = 64) -> CriticalPointSet:
    """All critical points of an angle-only series on T^d0.

    Every node of a dense grid seeds a Newton iteration on the gradient,
    all seeds at once; seeds that do not converge within NEWTON_STEPS, or
    meet an exactly singular Hessian, are dropped and counted.  Each point
    carries its Hessian and a nondegeneracy flag.
    """
    if h0.geometry.d != d0 or h0.geometry.d0 != 0:
        raise ConfigError("h0 must be an angle-only series on T^d0")
    ks = h0.exps()[:, :d0].astype(float)
    cs = h0.coefs()
    kn = h0.knorms()
    coeff_scale = float(np.sum(np.abs(cs) * np.maximum(1, kn) ** 2,
                               where=kn > 0))
    if coeff_scale < 1e-14:
        return CriticalPointSet(points=[CriticalPoint(
            phi=np.zeros(d0), hessian=np.zeros((d0, d0)), value=float(
                h0.evaluate().real), nondegenerate=False)],
            degenerate_family=True)

    axis = np.linspace(0, 2 * math.pi, grid_nodes, endpoint=False)
    phi = np.stack(np.meshgrid(*[axis] * d0, indexing="ij"),
                   axis=-1).reshape(-1, d0)
    gtol = NEWTON_TOL * max(1.0, coeff_scale)
    live = np.arange(len(phi))
    converged = np.zeros(len(phi), dtype=bool)
    for _ in range(NEWTON_STEPS):
        _, g, H = _angle_grad_hess(ks, cs, phi[live])
        done = np.linalg.norm(g, axis=-1) < gtol
        converged[live[done]] = True
        # an exactly singular Hessian (a zero LU pivot) ends its seed
        go = ~done & (np.linalg.det(H) != 0)
        step = np.linalg.solve(H[go], g[go, :, None])[..., 0]
        size = np.linalg.norm(step, axis=-1, keepdims=True)
        step *= math.pi / np.maximum(size, math.pi)
        live = live[go]
        phi[live] -= step
        if not len(live):
            break

    # the first converged seed near a point stands for it
    found = np.mod(phi[converged], 2 * math.pi)
    kept = []
    while len(found):
        kept.append(found[0])
        gap = np.abs(found - found[0])
        found = found[np.linalg.norm(np.minimum(gap, 2 * math.pi - gap),
                                     axis=-1) >= 1e-6]
    val, _, hess = _angle_grad_hess(ks, cs, np.reshape(kept, (-1, d0)))
    nondeg = np.abs(np.linalg.det(hess)) > 1e-10 * max(1.0, coeff_scale ** d0)
    points = sorted((CriticalPoint(phi=p, hessian=H, value=float(v),
                                   nondegenerate=bool(n))
                     for p, v, H, n in zip(kept, val, hess, nondeg)),
                    key=lambda p: (round(p.value, 9), tuple(np.round(p.phi, 6))))
    return CriticalPointSet(points=points,
                            failed_seeds=len(phi) - int(converged.sum()))


# ---------------------------------------------------------------------------
# reduction pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorData:
    """Dense Taylor coefficients of H0 at the expansion point y0."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    cubic: np.ndarray | None = None


@dataclass
class ReducedHamiltonian:
    geometry: PhaseGeometry
    epsilonN0: float                 # the constant term, prefactor included
    omega1: np.ndarray               # reduced frequency, d components
    M1: np.ndarray                   # diag(U0, V0), 2*d0 x 2*d0
    Rterm: FourierTaylorSeries       # flat remainder, prefactor included
    P1: FourierTaylorSeries          # perturbation with prefactor divided out
    epsilon: float                   # reduced bookkeeping parameter
    U0: np.ndarray = None
    V0: np.ndarray = None
    phi0: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)


def apply_unimodular_change(P0: FourierTaylorSeries, K0: np.ndarray,
                            y0: np.ndarray) -> FourierTaylorSeries:
    """Pull back a series on T^l x R^l through x = K0^(-T) theta,
    y = y0 + K0 Y.  Modes move by the integer matrix K0^(-1); the
    y-monomial of each distinct j re-expands once."""
    geo = P0.geometry
    l = geo.d
    K0 = np.asarray(K0)
    K0_inv = np.rint(np.linalg.inv(K0.astype(float))).astype(np.int64)
    if not np.array_equal(K0_inv @ K0, np.eye(l, dtype=np.int64)):
        raise InvariantError("mode map produced non-integers: K0 is not "
                             "unimodular")
    y0 = np.asarray(y0, dtype=float)
    e, c = P0.exps(), P0.coefs()
    kbar = e[:, :l] @ K0_inv.T

    # y_i = y0_i + sum_a K0[i, a] Y_a, a series in Y
    rows = np.zeros((l + 1, geo.width), dtype=np.int64)
    rows[1:, l:2 * l] = np.eye(l, dtype=np.int64)
    lin = [FourierTaylorSeries.from_arrays(
        geo, 0, 1, rows, np.concatenate(([y0[i]], K0[i])).astype(complex))
        for i in range(l)]
    js, group = np.unique(e[:, l:2 * l], axis=0, return_inverse=True)
    exps, coefs = [np.empty((0, geo.width), np.int64)], [np.empty(0, complex)]
    for g, j in enumerate(js.tolist()):
        poly = FourierTaylorSeries.constant(geo, 1.0)
        for i, p in enumerate(j):
            for _ in range(p):
                poly = poly * lin[i]
        mine = group.ravel() == g
        exps.append(np.concatenate(
            [np.repeat(kbar[mine], len(poly), axis=0),
             np.tile(poly.exps()[:, l:], (int(mine.sum()), 1))], axis=1))
        coefs.append(np.outer(c[mine], poly.coefs()).ravel())
    return FourierTaylorSeries.from_arrays(
        geo, int(np.abs(kbar).max(initial=0)),
        int(e[:, l:2 * l].sum(axis=1).max(initial=0)),
        np.concatenate(exps), np.concatenate(coefs), prune=True)


def _mass(c: np.ndarray):
    """sum |c| in storage order, each |c| by libm's hypot, which numpy's
    vectorized complex abs can miss in the last bit."""
    return sum(np.hypot(c.real, c.imag).tolist(), 0.0)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b rounded as scalar complex arithmetic rounds it, which numpy's
    vectorized product (fused multiply-adds) can miss in the last bit."""
    out = np.empty_like(a)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def reduce_hamiltonian(h0_taylor: TaylorData, P0: FourierTaylorSeries | None,
                       module: ResonanceModule, y0, epsilon: float, *,
                       delta: ApproximationFunction | None = None,
                       gamma: float = 0.05,
                       degmax: int = 6,
                       scaling_exponent: float = 0.5) -> ReducedHamiltonian:
    """Run the full reduction; see the module docstring for the steps.

    Preconditions checked here: y0 has l components and lies on the
    resonant surface (<tau_i, grad H0(y0)> = 0 to 1e-10), the Hessian of H0
    and its resonant block are nondegenerate, and the resonant average has
    a nondegenerate critical point; the one of least value is used.
    """
    y0 = np.asarray(y0, dtype=float)
    l, d0, d = module.l, module.d0, module.d
    if y0.shape != (l,):
        raise ConfigError(f"y0 has {y0.size} components; the resonance "
                          f"module needs l = {l}")
    omega_full = np.asarray(h0_taylor.gradient, dtype=float)
    hess = np.asarray(h0_taylor.hessian, dtype=float)

    for g in module.generators:
        r = float(np.dot(g, omega_full))
        if abs(r) > RESONANCE_TOL:
            raise ConfigError(
                f"y0 is not on the resonant surface: <tau, omega> = {r:.3e} "
                f"for tau = {g}")

    dh = np.linalg.det(hess)
    if abs(dh) < 1e-12 * max(1.0, np.abs(hess).max() ** l):
        raise ConfigError(f"Hessian of H0 is degenerate (det = {dh:.3e}, "
                          f"cond = {np.linalg.cond(hess):.3e})")
    K0 = module.K0.astype(float)
    Gamma = K0.T @ hess @ K0
    Gamma22 = Gamma[d:, d:]
    if d0 and abs(np.linalg.det(Gamma22)) < 1e-12 * max(1.0, np.abs(Gamma22).max() ** d0):
        raise ConfigError(
            f"resonant block K'^T Hess K' is degenerate "
            f"(det = {np.linalg.det(Gamma22):.3e})")

    omega_star = module.K_star.T.astype(float) @ omega_full

    # H0 in adapted coordinates (angles theta, actions Y): each index tuple
    # of its Taylor tensors, K0 applied on every index, is the monomial
    # Y_a1 ... Y_an with weight T_n[a1..an] / n!
    geo_l = PhaseGeometry(d=l, d0=0)
    tensors = [K0.T @ omega_full, Gamma]
    if h0_taylor.cubic is not None:
        T = np.asarray(h0_taylor.cubic, dtype=float)
        tensors.append(np.einsum("ijk,ia,jb,kc->abc", T, K0, K0, K0))
    idx = [np.indices(t.shape).reshape(t.ndim, -1).T for t in tensors]
    j = np.concatenate([np.eye(l, dtype=np.int64)[i].sum(axis=1) for i in idx])
    weights = [t.ravel() / math.factorial(t.ndim) for t in tensors]
    H = FourierTaylorSeries.from_arrays(
        geo_l, 0, len(tensors), np.concatenate([0 * j, j], axis=1),
        np.concatenate(weights).astype(complex), prune=True)

    if epsilon < 0:
        raise ConfigError("epsilon must be non-negative")
    h0_res = FourierTaylorSeries.zero(PhaseGeometry(d=max(d0, 1), d0=0))
    if P0 is not None and not P0.is_zero() and epsilon != 0.0:
        if not P0.is_real():
            raise ConfigError("P0 must be a real series")
        P0bar = apply_unimodular_change(P0, module.K0, y0)
        H = H + P0bar.scale(epsilon)
        h0_res = resonant_average(P0bar, d0)

        # averaging generator for the non-resonant angle modes at Y = 0:
        # -eps c / (i kw) = i eps c / kw, divided component by component
        e, c = P0bar.exps(), P0bar.coefs()
        gen = e[:, :d].any(axis=1) & ~e[:, l:].any(axis=1)
        if gen.any():
            kp = e[gen, :d]
            kw = kp @ omega_star
            # one threshold gamma / Delta(m) per shell |k'| = m
            kn = np.abs(kp).max(axis=1)
            th = np.full(len(kw), 1e-12) if delta is None else \
                divisor_thresholds(gamma, delta, kn.max(), 0)[kn - 1, 0]
            low = np.abs(kw) <= th
            if low.any():
                k, i = np.unique(kp[low], axis=0, return_index=True)
                kw, th, zeros = kw[low][i], th[low][i], np.zeros(len(k))
                raise DivisorError(
                    f"averaging divisor too small at k' = "
                    f"{tuple(k[0].tolist())}: |<k',omega>| = {abs(kw[0]):.3e}"
                    f" <= {th[0]:.3e}",
                    reports=DivisorTable(k, kw, None, None, th, zeros, zeros,
                                         zeros.astype(bool)))
            a = epsilon * c[gen]
            F1 = FourierTaylorSeries.from_arrays(
                geo_l, P0bar.kmax, 0, e[gen], -a.imag / kw + 1j * (a.real / kw),
                prune=True)
            H, _ = lie_transform_auto(H, F1, 1.0, tol=AVERAGING_LIE_TOL)

    # critical point of the resonant average
    phi0 = np.zeros(d0)
    V0 = np.zeros((d0, d0))
    if d0 and not h0_res.is_zero():
        cps = critical_points(h0_res, d0)
        if cps.degenerate_family:
            raise ConfigError("resonant average is constant: no usable "
                              "critical point")
        usable = [p for p in cps.points if p.nondegenerate]
        if not usable:
            raise ConfigError("no nondegenerate critical point found")
        choice = min(usable, key=lambda p: p.value)
        phi0 = choice.phi
        V0 = choice.hessian

    # shift the resonant angles to the critical point
    if d0 and np.any(phi0 != 0.0):
        e = H.exps()
        H = FourierTaylorSeries.from_arrays(
            geo_l, H.kmax, H.degmax, e,
            _product(H.coefs(), np.exp(1j * (e[:, d:l] @ phi0))),
            prune=True)

    # re-express on the reduced geometry: x = theta', y = Y', u = Y'',
    # v = theta''; e^{i <k'', v>} expands over the monomials v^q of degree
    # <= degmax, weighted by prod_a (i k''_a)^q_a / q_a! while the term's
    # degree budget lasts
    geo_red = PhaseGeometry(d=d, d0=d0)
    e, c = H.exps(), H.coefs()
    ks = e[:, d:l]
    budget = degmax - e[:, l:].sum(axis=1)
    taylor_drop = float(_mass(c[budget < 0]))
    q = np.indices((degmax + 1,) * d0).reshape(d0, -1).T
    q = q[q.sum(axis=1) <= degmax]
    fact = np.array([math.factorial(p) for p in range(degmax + 1)], dtype=float)
    mag = np.ones((len(e), len(q)))
    for a in range(d0):
        mag = mag * (ks[:, a, None] ** q[:, a] / fact[q[:, a]])
    use = ((q.sum(axis=1) <= budget[:, None])
           & ((ks[:, None, :] != 0) | (q == 0)).all(axis=2))
    t, r = np.nonzero(use)
    weight = np.array([1, 1j, -1, -1j])[q.sum(axis=1) % 4][r] * mag[t, r]
    Hred = FourierTaylorSeries.from_arrays(
        geo_red, H.kmax, degmax,
        np.concatenate([e[t, :d], e[t, l:l + d], e[t, l + d:], q[r]], axis=1),
        c[t] * weight, prune=True)

    # conformal action scaling: (y, u) -> mu*(y, u), H -> H / mu
    b = scaling_exponent
    mu = epsilon ** b if epsilon > 0 else 1.0
    eps_red = epsilon ** (1.0 - b) if epsilon > 0 else 0.0
    if epsilon > 0:
        e = Hred.exps()
        action_deg = e[:, d:2 * d + d0].sum(axis=1)
        powers = np.array([mu ** (n - 1)
                           for n in range(int(action_deg.max(initial=0)) + 1)])
        Hred = FourierTaylorSeries.from_arrays(
            geo_red, Hred.kmax, Hred.degmax, e,
            Hred.coefs() * powers[action_deg], prune=True)

    # normal-form split
    U0 = Gamma22
    M1 = np.zeros((2 * d0, 2 * d0))
    M1[:d0, :d0] = U0
    M1[d0:, d0:] = V0
    const = Hred.coeff((0,) * d)
    rem = Hred - integrable_part(geo_red, const, omega_star, M1, eps_red)

    if eps_red > 0:
        flat, pert = rem.partition(flat_remainder_part(rem))
        P1 = pert.scale(1.0 / eps_red)
    else:
        # nothing carries an epsilon prefactor: all angle-free content is
        # integrable data and belongs to the flat remainder
        flat, pert = rem.partition(rem.knorms() == 0)
        P1 = pert
        if not pert.is_zero():
            raise InvariantError("perturbation present at epsilon = 0")

    fe = flat.exps()
    cross = fe[:, d:2 * d].any(axis=1) & fe[:, 2 * d:].any(axis=1)
    diag = {
        "taylor_drop": taylor_drop,
        "rterm_mass": flat.norm_l1(),
        "cross_quad_mass": _mass(flat.coefs()[cross]),
        "h0_critical_value": float(h0_res.evaluate(phi0).real) if d0 else 0.0,
        "hessian_cond": float(np.linalg.cond(hess)),
    }

    result = ReducedHamiltonian(
        geometry=geo_red,
        epsilonN0=float(const.real),
        omega1=omega_star,
        M1=M1,
        Rterm=flat,
        P1=P1,
        epsilon=eps_red,
        U0=U0,
        V0=V0,
        phi0=phi0,
        diagnostics=diag,
    )
    if abs(np.linalg.norm(result.omega1 - module.K_star.T @ omega_full)) > 1e-12:
        raise InvariantError("frequency consistency check failed")
    return result
