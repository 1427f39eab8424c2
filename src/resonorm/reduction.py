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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivisorError, InvariantError
from .gevrey import ApproximationFunction
from .series import (
    FourierTaylorSeries,
    PhaseGeometry,
    flat_remainder_part,
    knorm,
    lie_transform_auto,
)

RESONANCE_TOL = 1e-10


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
    d = P0bar.geometry.d - d0
    geo = PhaseGeometry(d=max(d0, 1), d0=0)
    terms = []
    for (k, j, q), c in P0bar.terms():
        if any(j) or any(q):
            continue
        if knorm(k[:d]) != 0:
            continue
        m = k[d:] if d0 else (0,)
        terms.append(((tuple(m), (0,) * geo.d, ()), c))
    return FourierTaylorSeries.from_terms(geo, terms)


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
    decoded modes ks (n x d0) and coefficients cs."""
    ph = cs * np.exp(1j * (ks @ phi))
    return float(ph.real.sum()), -(ks.T @ ph.imag), -(ks.T * ph.real) @ ks


def critical_points(h0: FourierTaylorSeries, d0: int, *,
                    grid_nodes: int = 64, newton_steps: int = 60,
                    tol: float = 1e-12) -> CriticalPointSet:
    """All critical points of an angle-only series on T^d0.

    Dense grid seeding followed by Newton refinement on the gradient;
    seeds whose Newton iteration fails to converge are dropped and
    counted.  Each point carries its Hessian and a nondegeneracy flag.
    """
    if h0.geometry.d != d0 or h0.geometry.d0 != 0:
        raise ConfigError("h0 must be an angle-only series on T^d0")
    terms = h0.terms()
    ks = np.array([k for (k, _, _), _ in terms], dtype=float).reshape(-1, d0)
    cs = np.array([c for _, c in terms], dtype=complex)
    kn = h0.knorms()
    coeff_scale = float(np.sum(np.abs(cs) * np.maximum(1, kn) ** 2,
                               where=kn > 0))
    if coeff_scale < 1e-14:
        return CriticalPointSet(points=[CriticalPoint(
            phi=np.zeros(d0), hessian=np.zeros((d0, d0)), value=float(
                h0.evaluate().real), nondegenerate=False)],
            degenerate_family=True)

    if d0 == 1:
        seeds = [np.array([p]) for p in np.linspace(0, 2 * math.pi, grid_nodes,
                                                    endpoint=False)]
    else:
        axes = [np.linspace(0, 2 * math.pi, grid_nodes, endpoint=False)
                for _ in range(d0)]
        seeds = [np.array(p) for p in itertools.product(*axes)]

    found = []
    failed = 0
    for seed in seeds:
        phi = seed.astype(float).copy()
        ok = False
        for _ in range(newton_steps):
            _, g, H = _angle_grad_hess(ks, cs, phi)
            gn = np.linalg.norm(g)
            if gn < tol * max(1.0, coeff_scale):
                ok = True
                break
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                break
            if np.linalg.norm(step) > math.pi:
                step *= math.pi / np.linalg.norm(step)
            phi -= step
        if not ok:
            failed += 1
            continue
        phi = np.mod(phi, 2 * math.pi)
        if any(np.linalg.norm(np.minimum(np.abs(phi - p.phi),
                                         2 * math.pi - np.abs(phi - p.phi)))
               < 1e-6 for p in found):
            continue
        val, _, H = _angle_grad_hess(ks, cs, phi)
        nondeg = abs(np.linalg.det(H)) > 1e-10 * max(1.0, coeff_scale ** d0)
        found.append(CriticalPoint(phi=phi, hessian=H, value=val,
                                   nondegenerate=nondeg))
    found.sort(key=lambda p: (round(p.value, 9), tuple(np.round(p.phi, 6))))
    return CriticalPointSet(points=found, failed_seeds=failed)


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
    y = y0 + K0 Y.  Modes move by K0^(-1); y-monomials re-expand."""
    geo = P0.geometry
    l = geo.d
    K0 = np.asarray(K0)
    K0_inv = np.linalg.inv(K0.astype(float))
    y0 = np.asarray(y0, dtype=float)

    lin_forms = []
    zk = (0,) * l
    zq = (0,) * geo.zdim
    for i in range(l):
        terms = {}
        if y0[i] != 0.0:
            terms[(zk, zk, zq)] = complex(y0[i])
        for a in range(l):
            if K0[i, a] != 0:
                j = tuple(1 if b == a else 0 for b in range(l))
                terms[(zk, j, zq)] = complex(K0[i, a])
        lin_forms.append(FourierTaylorSeries(geo, 0, 1, terms, prune=False))

    out = FourierTaylorSeries.zero(geo)
    for (k, j, q), c in P0.terms():
        kbar = K0_inv @ np.asarray(k, dtype=float)
        kbar_int = np.rint(kbar).astype(int)
        if np.max(np.abs(kbar - kbar_int)) > 1e-9:
            raise InvariantError(f"mode map produced non-integers for k={k}")
        piece = FourierTaylorSeries.fourier_mode(geo, tuple(kbar_int), c)
        for i, p in enumerate(j):
            for _ in range(p):
                piece = piece * lin_forms[i]
        out = out + piece
    return out


def _quadratic_y(geo: PhaseGeometry, Q: np.ndarray,
                 prefactor: float = 0.5) -> FourierTaylorSeries:
    """prefactor * <Y, Q Y> as a series in the action variables."""
    n = geo.d
    zk = (0,) * n
    zq = (0,) * geo.zdim
    terms = {}
    for a in range(n):
        for b in range(a, n):
            c = Q[a, b] if a == b else Q[a, b] + Q[b, a]
            if c == 0.0:
                continue
            j = [0] * n
            j[a] += 1
            j[b] += 1
            terms[(zk, tuple(j), zq)] = complex(prefactor * c)
    return FourierTaylorSeries(geo, 0, 2, terms, prune=False)


def reduce_hamiltonian(h0_taylor: TaylorData, P0: FourierTaylorSeries | None,
                       module: ResonanceModule, y0, epsilon: float, *,
                       delta: ApproximationFunction | None = None,
                       gamma: float = 0.05,
                       degmax: int = 6,
                       scaling_exponent: float = 0.5,
                       critical_index: int | None = None,
                       lie_tol: float = 1e-15) -> ReducedHamiltonian:
    """Run the full reduction; see the module docstring for the steps.

    Preconditions checked here: y0 lies on the resonant surface
    (<tau_i, grad H0(y0)> = 0 to 1e-10), the Hessian of H0 and its
    resonant block are nondegenerate, and the selected critical point of
    the resonant average is nondegenerate.
    """
    y0 = np.asarray(y0, dtype=float)
    l, d0, d = module.l, module.d0, module.d
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

    # assemble the Hamiltonian in adapted coordinates (angles theta, actions Y)
    geo_l = PhaseGeometry(d=l, d0=0)
    H = FourierTaylorSeries.linear_y(geo_l, K0.T @ omega_full)
    H = H + _quadratic_y(geo_l, Gamma, 0.5)
    if h0_taylor.cubic is not None:
        T = np.asarray(h0_taylor.cubic, dtype=float)
        Tb = np.einsum("ijk,ia,jb,kc->abc", T, K0, K0, K0)
        zk = (0,) * l
        cub_terms = {}
        for a in range(l):
            for b in range(l):
                for c in range(l):
                    if Tb[a, b, c] == 0.0:
                        continue
                    j = [0] * l
                    j[a] += 1
                    j[b] += 1
                    j[c] += 1
                    key = (zk, tuple(j), ())
                    cub_terms[key] = cub_terms.get(key, 0j) + Tb[a, b, c] / 6.0
        H = H + FourierTaylorSeries(geo_l, 0, 3, cub_terms)

    if epsilon < 0:
        raise ConfigError("epsilon must be non-negative")
    P0bar = None
    h0_res = FourierTaylorSeries.zero(PhaseGeometry(d=max(d0, 1), d0=0))
    if P0 is not None and not P0.is_zero() and epsilon != 0.0:
        if not P0.is_real():
            raise ConfigError("P0 must be a real series")
        P0bar = apply_unimodular_change(P0, module.K0, y0)
        H = H + P0bar.scale(epsilon)
        h0_res = resonant_average(P0bar, d0)

        # averaging generator for the non-resonant angle modes at Y = 0
        gen_terms = {}
        for (k, j, q), c in P0bar.terms():
            if any(j) or any(q):
                continue
            kp = k[:d]
            if knorm(kp) == 0:
                continue
            div = float(np.dot(kp, omega_star))
            if delta is not None:
                thr = gamma / delta(knorm(kp))
                if abs(div) <= thr:
                    raise DivisorError(
                        f"averaging divisor too small at k' = {kp}: "
                        f"|<k',omega>| = {abs(div):.3e} <= {thr:.3e}",
                        reports=[{"k": k, "kw": div, "threshold": thr}])
            elif abs(div) < 1e-12:
                raise DivisorError(f"vanishing divisor at k' = {kp}")
            gen_terms[(k, j, q)] = -epsilon * c / (1j * div)
        if gen_terms:
            F1 = FourierTaylorSeries(geo_l, P0bar.kmax, 0, gen_terms)
            H, _ = lie_transform_auto(H, F1, 1.0, tol=lie_tol,
                                      kmax=4 * max(P0bar.kmax, 1),
                                      degmax=degmax + 2)

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
        if critical_index is None:
            choice = min(usable, key=lambda p: p.value)
        else:
            choice = usable[critical_index]
        phi0 = choice.phi
        V0 = choice.hessian

    # shift the resonant angles to the critical point
    if d0 and np.any(phi0 != 0.0):
        shifted = {}
        for (k, j, q), c in H.terms():
            phase = np.exp(1j * float(np.dot(k[d:], phi0)))
            shifted[(k, j, q)] = c * phase
        H = FourierTaylorSeries(geo_l, H.kmax, H.degmax, shifted)

    # re-express on the reduced geometry: x = theta', y = Y', u = Y'', v = theta''
    geo_red = PhaseGeometry(d=d, d0=d0)
    out_terms = {}
    taylor_drop = 0.0
    for (k, j, q), c in H.terms():
        kp, ks = k[:d], k[d:]
        jp, js = j[:d], j[d:]
        base_deg = sum(jp) + sum(js)
        if base_deg > degmax:
            taylor_drop += abs(c)
            continue
        budget = degmax - base_deg
        # expand e^{i <ks, v>} to the remaining degree budget
        expansions = [((0,) * d0, complex(1.0))]
        if d0 and knorm(ks) > 0:
            expansions = _expand_phase(ks, budget)
        for qv, w in expansions:
            q_full = tuple(js) + tuple(qv)
            key = (tuple(kp), tuple(jp), q_full)
            out_terms[key] = out_terms.get(key, 0j) + c * w
    Hred = FourierTaylorSeries(geo_red, H.kmax, degmax, out_terms)

    # conformal action scaling: (y, u) -> mu*(y, u), H -> H / mu
    b = scaling_exponent
    mu = epsilon ** b if epsilon > 0 else 1.0
    eps_red = epsilon ** (1.0 - b) if epsilon > 0 else 0.0
    if epsilon > 0:
        scaled = {}
        for (k, j, q), c in Hred.terms():
            action_deg = sum(j) + sum(q[:d0])
            scaled[(k, j, q)] = c * mu ** (action_deg - 1)
        Hred = FourierTaylorSeries(geo_red, Hred.kmax, Hred.degmax, scaled)

    # normal-form split
    U0 = Gamma22
    M1 = np.zeros((2 * d0, 2 * d0))
    M1[:d0, :d0] = U0
    M1[d0:, d0:] = V0
    N_quad = FourierTaylorSeries.quadratic_z(geo_red, M1, prefactor=eps_red / 2.0) \
        if d0 else FourierTaylorSeries.zero(geo_red)
    N_lin = FourierTaylorSeries.linear_y(geo_red, omega_star)
    const = Hred.coeff((0,) * d)
    rem = Hred - N_lin - N_quad - FourierTaylorSeries.constant(geo_red, const)

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

    cross_mass = sum(abs(c) for (k, j, q), c in flat.terms()
                     if sum(j) and sum(q))
    diag = {
        "taylor_drop": taylor_drop,
        "rterm_mass": flat.norm_l1(),
        "cross_quad_mass": cross_mass,
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


def _expand_phase(ks, budget: int):
    """Taylor expansion of exp(i <ks, v>) in the angle deviation v up to
    total degree `budget`: the coefficient of v^q is prod_a (i ks_a)^{q_a} / q_a!.
    Returns [(q_v, weight)]."""
    d0 = len(ks)
    active = [a for a in range(d0) if ks[a] != 0]
    out = []
    for total in range(budget + 1):
        for combo in itertools.product(range(total + 1), repeat=len(active)):
            if sum(combo) != total:
                continue
            q = [0] * d0
            w = complex(1.0)
            for a, p in zip(active, combo):
                q[a] = p
                w *= (1j * ks[a]) ** p / math.factorial(p)
            out.append((tuple(q), w))
    return out
