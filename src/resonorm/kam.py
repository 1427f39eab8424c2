"""Normal-form iteration: divisor checks, the homological solve, one
transformation step, and the iterated contraction loop.

State convention.  The accumulated state stores the perturbation series P
in absolute units (all smallness prefactors multiplied in), while the
per-step normal-form increments are stored divided by eps^s so that

    eps_p(eps) = sum_s N_s(0) eps^s,
    omega_p    = omega + sum_s omega_s eps^s,
    M_p        = M + sum_s M_s eps^s

are reconstructible as polynomials in eps; those polynomials are what the
quantization consumes and differentiates.  The remainder ledger collects,
per step, the angle-free content outside the normal-form ansatz (divided
by eps^s) and is transported whole through every later transformation;
it never re-enters the perturbation channel, which is what lets the
perturbation norm contract quadratically.

Each step: low-mode cutoff -> homological solve -> time-1 flow of the
generator applied to every part -> absorb the averaged cutoff into
(constant, frequency, resonant matrix) -> split off new flat content.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DivisorError, InvariantError
from .gevrey import ApproximationFunction, GevreyWeights, majorant_norm
from .series import (
    FourierTaylorSeries,
    GeneratingSeries,
    PhaseGeometry,
    ansatz_shape,
    average_over_angles,
    cutoff,
    flat_remainder_part,
    knorm,
    lie_transform_auto,
    poisson_bracket,
)

RESIDUAL_TOL = 1e-10


def symplectic_J(d0: int) -> np.ndarray:
    """J with <a, J b> = sum_j (a_u_j b_v_j - a_v_j b_u_j)."""
    J = np.zeros((2 * d0, 2 * d0))
    J[:d0, d0:] = np.eye(d0)
    J[d0:, :d0] = -np.eye(d0)
    return J


# ---------------------------------------------------------------------------
# divisor conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisorReport:
    k: tuple
    kw: float
    detA1: complex | None
    detA2: complex | None
    threshold_kw: float
    threshold_A1: float
    threshold_A2: float
    passed: bool


def divisor_determinants(kw, M: np.ndarray):
    """det A1 and det A2 for an array of kw, where A1 = -i kw + MJ and
    A2 = -i kw + MJ (+) MJ is its Kronecker sum.

    Both are products over the eigenvalues mu of MJ, since the spectrum of
    a Kronecker sum is the pairwise sums (Horn and Johnson, Topics in
    Matrix Analysis, 4.4): det A1 = prod_a (mu_a - i kw) and
    det A2 = prod_{a,b} (mu_a + mu_b - i kw).  Results have kw's shape.
    """
    M = np.asarray(M, dtype=float)
    mu = np.linalg.eigvals(M @ symplectic_J(M.shape[0] // 2))
    ikw = 1j * np.asarray(kw, dtype=float)[..., None]
    return (np.prod(mu - ikw, axis=-1),
            np.prod((mu[:, None] + mu).ravel() - ikw, axis=-1))


def check_divisors(omega, M, Kplus: int, gamma: float,
                   delta: ApproximationFunction):
    """Evaluate all three divisor conditions for every 0 < |k| <= Kplus.

    Returns (member, reports): membership is the conjunction over all
    modes; the per-mode reports, in itertools.product order over the k
    box, are always returned for diagnostics.  Failure is data here, not
    an error.
    """
    if Kplus < 1:
        raise ValueError("Kplus must be >= 1")
    omega = np.asarray(omega, dtype=float)
    M = np.asarray(M, dtype=float) if M is not None else np.zeros((0, 0))
    d = omega.size
    d0 = M.shape[0] // 2 if M.size else 0
    box = list(itertools.product(range(-Kplus, Kplus + 1), repeat=d))
    box.remove((0,) * d)
    ks = np.array(box)
    kn = np.abs(ks).max(axis=1)
    kw = ks @ omega
    # the thresholds depend on |k| only: one value per shell, row m - 1
    shells = [delta(m) for m in range(1, Kplus + 1)]
    th_kw, th_A1, th_A2 = np.array([
        (gamma / dk,
         (gamma ** (2 * d0)) / dk ** (2 * d0) if d0 else 0.0,
         (gamma ** (4 * d0 * d0)) / dk ** (4 * d0 * d0) if d0 else 0.0)
        for dk in shells])[kn - 1].T
    passed = np.abs(kw) >= th_kw
    det1 = det2 = [None] * len(kw)
    if d0:
        det1, det2 = divisor_determinants(kw, M)
        passed &= (np.abs(det1) > th_A1) & (np.abs(det2) > th_A2)
        det1, det2 = det1.tolist(), det2.tolist()
    reports = [DivisorReport(*row) for row in zip(
        box, kw.tolist(), det1, det2, th_kw.tolist(), th_A1.tolist(),
        th_A2.tolist(), passed.tolist())]
    return bool(passed.all()), reports


# ---------------------------------------------------------------------------
# quadratic-form helpers
# ---------------------------------------------------------------------------

def quad_matrix_from_terms(terms, d0: int) -> np.ndarray:
    """Symmetric matrix C with <z, C z> = sum of the degree-2 monomials."""
    n = 2 * d0
    C = np.zeros((n, n), dtype=complex)
    for q, c in terms:
        idx = [a for a, p in enumerate(q) for _ in range(p)]
        a, b = idx
        if a == b:
            C[a, a] += c
        else:
            C[a, b] += c / 2.0
            C[b, a] += c / 2.0
    return C


def quad_terms_from_matrix(C: np.ndarray):
    """Inverse of quad_matrix_from_terms for a symmetric C."""
    n = C.shape[0]
    out = []
    for a in range(n):
        for b in range(a, n):
            coeff = C[a, a] if a == b else C[a, b] + C[b, a]
            if coeff != 0:
                q = [0] * n
                q[a] += 1
                q[b] += 1
                out.append((tuple(q), coeff))
    return out


def _split_k0_ansatz(avg: FourierTaylorSeries):
    """Decompose an angle-free ansatz-shaped series into
    (constant, linear-y vector, linear-z vector, quadratic-z matrix)."""
    geo = avg.geometry
    c000 = complex(0.0)
    c010 = np.zeros(geo.d, dtype=complex)
    b001 = np.zeros(geo.zdim, dtype=complex)
    quad_terms = []
    for (k, j, q), c in avg.terms():
        sj, sq = sum(j), sum(q)
        if (sj, sq) == (0, 0):
            c000 += c
        elif (sj, sq) == (1, 0):
            c010[j.index(1)] += c
        elif (sj, sq) == (0, 1):
            b001[q.index(1)] += c
        elif (sj, sq) == (0, 2):
            quad_terms.append((q, c))
        else:
            raise InvariantError(f"non-ansatz shape in averaged cutoff: {j}, {q}")
    C002 = quad_matrix_from_terms(quad_terms, geo.d0) if geo.d0 else \
        np.zeros((0, 0), dtype=complex)
    return c000, c010, b001, C002


def _real_vector(v, what: str, tol=1e-9):
    v = np.asarray(v)
    if v.size and np.abs(v.imag).max() > tol * (1.0 + np.abs(v).max()):
        raise InvariantError(f"{what} has non-real content: {v}")
    return v.real.astype(float)


# ---------------------------------------------------------------------------
# homological solve
# ---------------------------------------------------------------------------

def _solve_modes(omega, M, eps_quad: float, R: FourierTaylorSeries,
                 rhs_scale: float, gamma: float,
                 delta: ApproximationFunction) -> GeneratingSeries:
    """Mode-by-mode inversion of {N, F} = -rhs_scale * (R~ + <b, z>)."""
    geo = R.geometry
    d0 = geo.d0
    omega = np.asarray(omega, dtype=float)
    M = np.asarray(M, dtype=float) if d0 else np.zeros((0, 0))
    MJ = M @ symplectic_J(d0) if d0 else None

    by_mode = {}
    for (k, j, q), c in R.terms():
        if not ansatz_shape(j, q):
            raise ConfigError(f"R is not ansatz shaped at {(k, j, q)}")
        by_mode.setdefault(k, []).append(((j, q), c))

    zero_k = (0,) * geo.d
    out = {}
    for k, entries in by_mode.items():
        if knorm(k) == 0:
            # only the linear-z part is removable at k = 0
            b = np.zeros(2 * d0, dtype=complex)
            for (j, q), c in entries:
                if (sum(j), sum(q)) == (0, 1):
                    b[q.index(1)] += c
            if not d0 or not np.any(b):
                continue
            if abs(np.linalg.det(M)) < 1e-12 * max(1.0, np.abs(M).max() ** (2 * d0)):
                raise ConfigError(
                    f"resonant matrix is singular (det = {np.linalg.det(M):.3e}); "
                    "cannot remove the k = 0 linear-z term")
            F001 = np.linalg.solve(eps_quad * MJ, -rhs_scale * b)
            for a, v in enumerate(F001):
                if v != 0:
                    qv = tuple(1 if c2 == a else 0 for c2 in range(2 * d0))
                    out[(zero_k, (0,) * geo.d, qv)] = v
            continue

        kw = float(np.dot(k, omega))
        dk = delta(knorm(k))
        if abs(kw) < gamma / dk:
            raise DivisorError(
                f"divisor |<k,omega>| = {abs(kw):.3e} below gamma/Delta = "
                f"{gamma / dk:.3e} at k = {k}",
                reports=[DivisorReport(k=k, kw=kw, detA1=None, detA2=None,
                                       threshold_kw=gamma / dk, threshold_A1=0,
                                       threshold_A2=0, passed=False)])
        i_kw = 1j * kw
        quad_entries = []
        lin_z = np.zeros(2 * d0, dtype=complex)
        for (j, q), c in entries:
            sj, sq = sum(j), sum(q)
            if (sj, sq) == (0, 0):
                out[(k, j, q)] = -rhs_scale * c / i_kw
            elif (sj, sq) == (1, 0):
                out[(k, j, q)] = -rhs_scale * c / i_kw
            elif (sj, sq) == (0, 1):
                lin_z[q.index(1)] += c
            else:
                quad_entries.append((q, c))
        if d0 and np.any(lin_z):
            A = i_kw * np.eye(2 * d0) + eps_quad * MJ
            sol = np.linalg.solve(A, -rhs_scale * lin_z)
            for a, v in enumerate(sol):
                if v != 0:
                    qv = tuple(1 if c2 == a else 0 for c2 in range(2 * d0))
                    out[(k, (0,) * geo.d, qv)] = v
        if d0 and quad_entries:
            n = 2 * d0
            C = quad_matrix_from_terms(quad_entries, d0)
            op = (i_kw * np.eye(n * n)
                  + eps_quad * (np.kron(np.eye(n), MJ) + np.kron(MJ, np.eye(n))))
            sol = np.linalg.solve(op, -rhs_scale * C.flatten(order="F"))
            F2 = sol.reshape((n, n), order="F")
            F2 = 0.5 * (F2 + F2.T)
            for q, v in quad_terms_from_matrix(F2):
                if v != 0:
                    out[(k, (0,) * geo.d, q)] = v

    kmax = max((knorm(k) for (k, _, _) in out), default=0)
    return GeneratingSeries(geo, kmax, 2, out, prune=False)


def solve_homological(omega, M, R: FourierTaylorSeries, epsilon: float,
                      gamma: float, delta: ApproximationFunction, *,
                      residual_tol: float = RESIDUAL_TOL,
                      check_residual: bool = True) -> GeneratingSeries:
    """Solve {N, F} + eps*(R~ + <P001, z>) = 0 with N = <omega,y> +
    (eps/2)<z, M z>, mode by mode on the cutoff ansatz.

    The returned generator is verified by substitution: the coefficient-l1
    residual of the defining equation must not exceed residual_tol * |R|.
    """
    geo = R.geometry
    F = _solve_modes(omega, M, epsilon, R, epsilon, gamma, delta)
    if check_residual:
        res = homological_residual(omega, M, R, epsilon, F)
        bound = residual_tol * max(R.norm_l1(), 1e-300)
        if res > bound and not R.is_zero():
            raise InvariantError(
                f"homological residual {res:.3e} exceeds {bound:.3e}")
    return F


def homological_residual(omega, M, R, epsilon, F, *,
                         eps_quad: float | None = None) -> float:
    """l1 size of {N,F} + eps*(R~ + <P001,z>) after the solve.

    eps_quad overrides the coefficient of the quadratic part of N when the
    right-hand-side scale differs from it (the step works on an absolute
    cutoff with scale 1 while N keeps the physical epsilon)."""
    geo = R.geometry
    if eps_quad is None:
        eps_quad = epsilon
    N = FourierTaylorSeries.linear_y(geo, omega)
    if geo.d0:
        N = N + FourierTaylorSeries.quadratic_z(geo, np.asarray(M, dtype=float),
                                                prefactor=eps_quad / 2.0)
    avg = average_over_angles(R)
    _, _, b001, _ = _split_k0_ansatz(avg)
    rhs = (R - avg) + FourierTaylorSeries.linear_z(geo, _real_vector(b001, "P001"))
    res = poisson_bracket(N, F) + rhs.scale(epsilon)
    return res.norm_l1()


# ---------------------------------------------------------------------------
# accumulated state
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormalFormState:
    """Accumulated normal form after p steps; see module docstring."""

    geometry: PhaseGeometry
    omega0: np.ndarray
    M0: np.ndarray
    epsilon: float
    P: FourierTaylorSeries
    p: int = 0
    eps_coeffs: tuple = ()
    omega_coeffs: tuple = ()
    M_coeffs: tuple = ()
    rterms: tuple = ()          # (step s, series stored divided by eps^s)
    norm_log: tuple = ()
    flows: tuple = ()
    step_stats: tuple = ()

    @classmethod
    def initial(cls, geometry, omega, M, epsilon, P,
                rterm: FourierTaylorSeries | None = None):
        omega = np.asarray(omega, dtype=float)
        M = np.asarray(M, dtype=float) if geometry.d0 else np.zeros((0, 0))
        rterms = ()
        if rterm is not None and not rterm.is_zero():
            if epsilon > 0:
                rterms = ((1, rterm.scale(1.0 / epsilon)),)
            else:
                rterms = ((0, rterm),)
        return cls(geometry=geometry, omega0=omega, M0=M, epsilon=epsilon,
                   P=P, rterms=rterms)

    @classmethod
    def from_reduced(cls, red) -> "NormalFormState":
        P_abs = red.P1.scale(red.epsilon) if red.epsilon > 0 else red.P1
        return cls.initial(red.geometry, red.omega1, red.M1, red.epsilon,
                           P_abs, rterm=red.Rterm)

    def epsilon_series(self, eps: float | None = None) -> float:
        eps = self.epsilon if eps is None else eps
        return float(sum(c * eps ** (s + 1)
                         for s, c in enumerate(self.eps_coeffs)))

    def omega_p(self, eps: float | None = None) -> np.ndarray:
        eps = self.epsilon if eps is None else eps
        out = self.omega0.copy()
        for s, w in enumerate(self.omega_coeffs):
            out = out + w * eps ** (s + 1)
        return out

    def M_p(self, eps: float | None = None) -> np.ndarray:
        eps = self.epsilon if eps is None else eps
        out = self.M0.copy()
        for s, m in enumerate(self.M_coeffs):
            out = out + m * eps ** (s + 1)
        return out

    def integrable_series(self) -> FourierTaylorSeries:
        """<omega_p, y> + (eps/2) <z, M_p z>, the bracket-active part of N."""
        N = FourierTaylorSeries.linear_y(self.geometry, self.omega_p())
        if self.geometry.d0:
            N = N + FourierTaylorSeries.quadratic_z(
                self.geometry, self.M_p(), prefactor=self.epsilon / 2.0)
        return N

    def rterm_total(self) -> FourierTaylorSeries:
        """Transported flat remainder in absolute units."""
        out = FourierTaylorSeries.zero(self.geometry)
        for s, rs in self.rterms:
            out = out + rs.scale(self.epsilon ** s if s else 1.0)
        return out

    def k0_polynomial(self, y, eps: float | None = None) -> float:
        """Action function of the normal form on the zero section z = 0:
        eps_p(eps) + <omega_p(eps), y> plus the angle-averaged remainder
        ledger evaluated at (y, z = 0)."""
        eps = self.epsilon if eps is None else eps
        y = np.asarray(y, dtype=float)
        total = self.epsilon_series(eps) + float(np.dot(self.omega_p(eps), y))
        for s, rs in self.rterms:
            w = eps ** s if s else 1.0
            total += w * average_over_angles(rs).evaluate(x=None, y=y, z=None).real
        return total


class StepRejectedError(InvariantError):
    def __init__(self, message, norm_before, norm_after):
        super().__init__(message)
        self.norm_before = norm_before
        self.norm_after = norm_after


# ---------------------------------------------------------------------------
# one step and the iteration
# ---------------------------------------------------------------------------

def kam_step(state: NormalFormState, Kplus: int, gamma: float,
             delta: ApproximationFunction,
             weights: GevreyWeights | None = None, *,
             require_membership: bool = True,
             reject_on_growth: bool = True,
             lie_tol: float = 1e-16) -> NormalFormState:
    """One full transformation step; returns the new state.

    Divisor failure and norm growth raise (the caller treats the step as
    rejected; the input state is unchanged in either case).
    """
    geo = state.geometry
    norm = (lambda s: majorant_norm(s, weights)) if weights else \
        (lambda s: s.norm_l1())
    norm_before = norm(state.P)

    if state.P.is_zero():
        return replace(state, p=state.p + 1,
                       norm_log=state.norm_log + (0.0,),
                       step_stats=state.step_stats + ({"trivial": True},))

    omega_now = state.omega_p()
    M_now = state.M_p()
    member, reports = check_divisors(omega_now, M_now, Kplus, gamma, delta)
    stats = {
        "min_kw": min(abs(r.kw) for r in reports),
        "min_detA1": min((abs(r.detA1) for r in reports if r.detA1 is not None),
                         default=math.nan),
        "min_detA2": min((abs(r.detA2) for r in reports if r.detA2 is not None),
                         default=math.nan),
    }
    if require_membership and not member:
        bad = [r for r in reports if not r.passed]
        raise DivisorError(
            f"divisor membership failed for {len(bad)} mode(s) at Kplus={Kplus}",
            reports=bad)

    s_new = state.p + 1
    eps = state.epsilon
    if eps <= 0:
        raise ConfigError("a non-trivial step needs epsilon > 0")

    R, _tail = cutoff(state.P, Kplus)
    avg = average_over_angles(R)
    c000, c010, b001, C002 = _split_k0_ansatz(avg)

    F = _solve_modes(omega_now, M_now, eps, R, 1.0, gamma, delta)
    res = homological_residual(omega_now, M_now, R, 1.0, F, eps_quad=eps)
    if res > RESIDUAL_TOL * max(R.norm_l1(), 1e-300):
        raise InvariantError(f"step solve residual {res:.3e} above tolerance")

    # absorb the averaged cutoff into the integrable part
    d_omega = _real_vector(c010, "frequency update")
    omega_next_abs = omega_now + d_omega
    if geo.d0:
        C_sym = _real_vector(0.5 * (C002 + C002.T), "resonant matrix update")
        M_next_abs = M_now + 2.0 * C_sym / eps
    else:
        M_next_abs = M_now
    const_abs = float(c000.real)

    N_old = state.integrable_series()
    N_new = FourierTaylorSeries.linear_y(geo, omega_next_abs)
    if geo.d0:
        N_new = N_new + FourierTaylorSeries.quadratic_z(geo, M_next_abs,
                                                        prefactor=eps / 2.0)

    moved, order_used = lie_transform_auto(N_old + state.P, F, 1.0, tol=lie_tol)
    P_raw = moved - N_new - FourierTaylorSeries.constant(geo, const_abs)

    # transport the remainder ledger whole: each entry rides along the flow
    # and never re-enters the perturbation channel
    new_rterms = []
    for s, rs in state.rterms:
        w = eps ** s if s else 1.0
        rs_moved, _ = lie_transform_auto(rs.scale(w), F, 1.0, tol=lie_tol)
        new_rterms.append((s, rs_moved.scale(1.0 / w)))

    flat_new, P_next = P_raw.partition(flat_remainder_part(P_raw))
    if not flat_new.is_zero():
        new_rterms.append((s_new, flat_new.scale(eps ** (-s_new))))

    norm_after = norm(P_next)
    if reject_on_growth and norm_after > norm_before * (1.0 + 1e-9):
        raise StepRejectedError(
            f"perturbation norm grew: {norm_before:.6e} -> {norm_after:.6e}",
            norm_before, norm_after)

    stats.update({"lie_order": order_used, "norm_before": norm_before,
                  "norm_after": norm_after, "Kplus": Kplus})
    scale = eps ** s_new
    return replace(
        state,
        p=s_new,
        P=P_next,
        eps_coeffs=state.eps_coeffs + (const_abs / scale,),
        omega_coeffs=state.omega_coeffs + (d_omega / scale,),
        M_coeffs=state.M_coeffs + ((M_next_abs - M_now) / scale
                                   if geo.d0 else np.zeros((0, 0)),),
        rterms=tuple(new_rterms),
        norm_log=state.norm_log + (norm_after,),
        flows=state.flows + (F,),
        step_stats=state.step_stats + (stats,),
    )


@dataclass(frozen=True)
class Schedule:
    """Per-step parameter schedule: sigma_p = sigma/4p^2, rho_p = rho/4p^2,
    s_p = s_{p-1} - sigma_p, r_p = r_{p-1} - rho_p, K_p = p*K."""

    rho: float = 1.0
    sigma: float = 1.0
    K: int = 8
    gamma: float = 0.05
    target: float = 1e-14

    def losses_at(self, p: int):
        return self.rho / (4.0 * p * p), self.sigma / (4.0 * p * p)

    def weights_after(self, p: int, alpha: float) -> GevreyWeights:
        r = self.rho - sum(self.rho / (4.0 * i * i) for i in range(1, p + 1))
        s = self.sigma - sum(self.sigma / (4.0 * i * i) for i in range(1, p + 1))
        return GevreyWeights(rho=r, sigma=s, alpha=alpha)

    def Kplus_at(self, p: int) -> int:
        return p * self.K


@dataclass
class IterationResult:
    state: NormalFormState
    trajectory: list
    steps_run: int
    stopped: str
    rejection: dict | None = None


def iterate(state: NormalFormState, delta: ApproximationFunction,
            schedule: Schedule | None = None, pmax: int = 6,
            **step_kw) -> IterationResult:
    """Run steps until pmax, the target norm, or a rejection.

    The trajectory starts with the initial norm at the undepleted weights
    and appends the post-step norm at each step's depleted weights.
    """
    if pmax < 0:
        raise ConfigError("pmax must be >= 0")
    schedule = schedule or Schedule()
    alpha = delta.alpha
    w0 = GevreyWeights(schedule.rho, schedule.sigma, alpha)
    trajectory = [majorant_norm(state.P, w0)]
    rejection = None
    stopped = "pmax"
    steps = 0
    for p in range(1, pmax + 1):
        weights = schedule.weights_after(p, alpha)
        try:
            state = kam_step(state, schedule.Kplus_at(p), schedule.gamma,
                             delta, weights, **step_kw)
        except (DivisorError, StepRejectedError) as exc:
            rejection = {"step": p, "reason": str(exc),
                         "kind": type(exc).__name__}
            stopped = "rejected"
            break
        steps += 1
        trajectory.append(state.norm_log[-1])
        if trajectory[-1] < schedule.target:
            stopped = "target"
            break
    return IterationResult(state=state, trajectory=trajectory,
                           steps_run=steps, stopped=stopped,
                           rejection=rejection)
