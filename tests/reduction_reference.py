"""Term-by-term reference for the reduction tests.

The resonant reduction as it was written before it moved onto the array
representation: per-term walks over `terms()`, dict-keyed series, the
phase expansion `_expand_phase` and a Newton iteration run one seed at a
time.  `test_reduction_reference.py` checks `resonorm.reduction` against
it; nothing else imports it.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from resonorm.errors import ConfigError, DivisorError, InvariantError
from resonorm.gevrey import ApproximationFunction
from resonorm.reduction import (
    RESONANCE_TOL,
    CriticalPoint,
    CriticalPointSet,
    ReducedHamiltonian,
    ResonanceModule,
    TaylorData,
)
from resonorm.series import (
    FourierTaylorSeries,
    PhaseGeometry,
    flat_remainder_part,
    knorm,
    lie_transform_auto,
)


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
        lin_forms.append(FourierTaylorSeries(geo, terms, prune=False))

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
    return FourierTaylorSeries(geo, terms, prune=False)


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
        H = H + FourierTaylorSeries(geo_l, cub_terms)

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
            F1 = FourierTaylorSeries(geo_l, gen_terms)
            H, _ = lie_transform_auto(H, F1, 1.0, tol=lie_tol)

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
        H = FourierTaylorSeries(geo_l, shifted)

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
    Hred = FourierTaylorSeries(geo_red, out_terms)

    # conformal action scaling: (y, u) -> mu*(y, u), H -> H / mu
    b = scaling_exponent
    mu = epsilon ** b if epsilon > 0 else 1.0
    eps_red = epsilon ** (1.0 - b) if epsilon > 0 else 0.0
    if epsilon > 0:
        scaled = {}
        for (k, j, q), c in Hred.terms():
            action_deg = sum(j) + sum(q[:d0])
            scaled[(k, j, q)] = c * mu ** (action_deg - 1)
        Hred = FourierTaylorSeries(geo_red, scaled)

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
