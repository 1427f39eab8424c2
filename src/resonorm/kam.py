"""Normal-form iteration: divisor checks, the homological solve, one
transformation step, and the iterated contraction loop.

State convention.  The accumulated state stores the perturbation series P
in absolute units (all smallness prefactors multiplied in), while the
per-step normal-form increments are stored divided by eps^s so that

    eps_p(eps) = sum_s N_s(0) eps^s,
    omega_p    = omega + sum_s omega_s eps^s,
    M_p        = M + sum_s M_s eps^s

are reconstructible as polynomials in eps; those polynomials are what the
quantization consumes and differentiates, and `_eps_poly` is the one
routine that evaluates them and their eps-derivatives.  The remainder
ledger collects, per step, the angle-free content outside the normal-form
ansatz (divided by eps^s) and keeps each entry as it was added; reading
`NormalFormState.rterms` transports it through the flows after its entry.
It never re-enters the perturbation channel, which is what lets the
perturbation norm contract quadratically.

Each step: low-mode cutoff -> homological solve (in absolute units, against
N_eps = <omega, y> + (eps/2) <z, M z>) -> time-1 flow of the generator
applied to every part -> absorb the averaged cutoff into (constant,
frequency, resonant matrix) -> split off new flat content.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, DivisorError, InvariantError
from .gevrey import ApproximationFunction, GevreyWeights, majorant_norm
from .series import (
    FourierTaylorSeries,
    GeneratingSeries,
    PhaseGeometry,
    ansatz_arrays,
    ansatz_blocks,
    average_over_angles,
    cutoff,
    flat_remainder_part,
    integrable_part,
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

@dataclass(frozen=True, eq=False)
class DivisorTable:
    """Divisor conditions, one row per mode: k (modes x d), kw = <k, omega>,
    det A1 and det A2 (None without a resonant block), the three
    thresholds, and whether the mode passes all three."""

    k: np.ndarray
    kw: np.ndarray
    detA1: np.ndarray | None
    detA2: np.ndarray | None
    threshold_kw: np.ndarray
    threshold_A1: np.ndarray
    threshold_A2: np.ndarray
    passed: np.ndarray

    def __len__(self):
        return len(self.kw)

    def select(self, mask) -> "DivisorTable":
        """The rows where mask holds."""
        return DivisorTable(*(None if v is None else v[mask]
                              for v in vars(self).values()))


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


def divisor_thresholds(gamma: float, delta: ApproximationFunction, K: int,
                       d0: int) -> np.ndarray:
    """The three divisor thresholds of every shell |k| = m = 1..K, row
    m - 1: gamma/Delta(m), gamma^(2 d0)/Delta(m)^(2 d0) and
    gamma^(4 d0^2)/Delta(m)^(4 d0^2), the last two 0 without a resonant
    block."""
    p = np.array([1, 2 * d0, 4 * d0 * d0])
    dk = delta.values(np.arange(1, K + 1))[:, None]
    return gamma ** p / dk ** p * (p > 0)


def check_divisors(omega, M, Kplus: int, gamma: float,
                   delta: ApproximationFunction):
    """Evaluate all three divisor conditions for every 0 < |k| <= Kplus.

    Returns (member, table): membership is the conjunction over all modes;
    the DivisorTable, in itertools.product order over the k box, is always
    returned for diagnostics.  Failure is data here, not an error.
    """
    if Kplus < 1:
        raise ValueError("Kplus must be >= 1")
    omega = np.asarray(omega, dtype=float)
    M = np.asarray(M, dtype=float) if M is not None else np.zeros((0, 0))
    d = omega.size
    d0 = M.shape[0] // 2 if M.size else 0
    ks = np.indices((2 * Kplus + 1,) * d).reshape(d, -1).T - Kplus
    ks = np.delete(ks, len(ks) // 2, axis=0)      # k = 0, the box's centre
    kn = np.abs(ks).max(axis=1)
    kw = ks @ omega
    th_kw, th_A1, th_A2 = divisor_thresholds(gamma, delta, Kplus, d0)[kn - 1].T
    passed = np.abs(kw) >= th_kw
    det1 = det2 = None
    if d0:
        det1, det2 = divisor_determinants(kw, M)
        passed &= (np.abs(det1) > th_A1) & (np.abs(det2) > th_A2)
    return bool(passed.all()), DivisorTable(ks, kw, det1, det2, th_kw, th_A1,
                                            th_A2, passed)


def _real_vector(v, what: str):
    v = np.asarray(v)
    if v.size and np.abs(v.imag).max() > 1e-9 * (1.0 + np.abs(v).max()):
        raise InvariantError(f"{what} has non-real content: {v}")
    return v.real.astype(float)


# ---------------------------------------------------------------------------
# homological solve
# ---------------------------------------------------------------------------

def _solve_modes(omega, M, eps: float, R: FourierTaylorSeries, gamma: float,
                 delta: ApproximationFunction) -> GeneratingSeries:
    """Inversion of {N_eps, F} = -(R~ + <b, z>) on every mode of R at once.
    The constant and linear-y blocks divide by i<k,omega>; the linear-z and
    quadratic-z blocks take one stacked solve each against
    i<k,omega> + eps MJ and its Kronecker sum.  At k = 0 only the linear-z
    block is solved."""
    geo = R.geometry
    d0, n = geo.d0, geo.zdim
    ks, c000, c010, b001, C002 = ansatz_blocks(R)
    kn = np.abs(ks).max(axis=1, initial=0)
    kw = ks @ np.asarray(omega, dtype=float)
    # shell 0 (k = 0) has no divisor
    th_kw = np.concatenate(([0.0], divisor_thresholds(
        gamma, delta, int(kn.max(initial=0)), d0)[:, 0]))[kn]
    low = np.abs(kw) < th_kw
    if low.any():
        i = int(np.argmax(low))
        zeros = np.zeros(int(low.sum()))
        raise DivisorError(
            f"divisor |<k,omega>| = {abs(kw[i]):.3e} below gamma/Delta = "
            f"{th_kw[i]:.3e} at k = {tuple(ks[i].tolist())}",
            reports=DivisorTable(ks[low], kw[low], None, None, th_kw[low],
                                 zeros, zeros, zeros.astype(bool)))

    nz = kn > 0
    ikw = 1j * kw
    F000, F010 = np.zeros_like(c000), np.zeros_like(c010)
    F000[nz] = -c000[nz] / ikw[nz]
    F010[nz] = -c010[nz] / ikw[nz, None]
    F001, F002 = np.zeros_like(b001), np.zeros_like(C002)
    if d0:
        M = np.asarray(M, dtype=float)
        MJ = M @ symplectic_J(d0)
        lin = b001.any(axis=1)
        if (lin & ~nz).any() and abs(np.linalg.det(M)) < 1e-12 * max(
                1.0, np.abs(M).max() ** (2 * d0)):
            raise ConfigError(
                f"resonant matrix is singular (det = {np.linalg.det(M):.3e}); "
                "cannot remove the k = 0 linear-z term")
        A = ikw[lin, None, None] * np.eye(n) + eps * MJ
        F001[lin] = np.linalg.solve(A, -b001[lin, :, None])[..., 0]
        quad = nz & C002.any(axis=(1, 2))
        A = (ikw[quad, None, None] * np.eye(n * n)
             + eps * (np.kron(np.eye(n), MJ) + np.kron(MJ, np.eye(n))))
        # C is symmetric, so its row-major and column-major vec agree, and
        # the solution's transpose has the same quadratic form
        sol = np.linalg.solve(A, -C002[quad].reshape(-1, n * n, 1))
        F002[quad] = sol.reshape(-1, n, n)
    return GeneratingSeries.from_arrays(
        geo, *ansatz_arrays(geo, ks, F000, F010, F001, F002))


def solve_homological(omega, M, eps: float, R: FourierTaylorSeries,
                      gamma: float,
                      delta: ApproximationFunction) -> GeneratingSeries:
    """Solve {N_eps, F} + R~ + <P001, z> = 0 with N_eps = <omega,y> +
    (eps/2)<z, M z> on the cutoff ansatz; R is in absolute units, so a
    caller that wants eps*R passes R.scale(eps).

    The returned generator is verified by substitution: the coefficient-l1
    residual of the defining equation must not exceed RESIDUAL_TOL * |R|.
    """
    F = _solve_modes(omega, M, eps, R, gamma, delta)
    res = homological_residual(omega, M, eps, R, F)
    bound = RESIDUAL_TOL * max(R.norm_l1(), 1e-300)
    if res > bound and not R.is_zero():
        raise InvariantError(
            f"homological residual {res:.3e} exceeds {bound:.3e}")
    return F


def homological_residual(omega, M, eps: float, R: FourierTaylorSeries,
                         F: FourierTaylorSeries) -> float:
    """l1 size of {N_eps, F} + R~ + <P001, z> after the solve."""
    geo = R.geometry
    N = integrable_part(geo, 0.0, omega, M, eps)
    avg = average_over_angles(R)
    b001 = ansatz_blocks(avg)[3].sum(axis=0)      # avg has k = 0 at most
    rhs = (R - avg) + FourierTaylorSeries.linear_z(geo, _real_vector(b001, "P001"))
    return (poisson_bracket(N, F) + rhs).norm_l1()


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
    ledger: tuple = ()          # (step s, birth step, series / eps^s) as added
    norm_log: tuple = ()
    flows: tuple = ()
    step_stats: tuple = ()

    @classmethod
    def initial(cls, geometry, omega, M, epsilon, P,
                rterm: FourierTaylorSeries | None = None):
        omega = np.asarray(omega, dtype=float)
        M = np.asarray(M, dtype=float) if geometry.d0 else np.zeros((0, 0))
        ledger = ()
        if rterm is not None and not rterm.is_zero():
            if epsilon > 0:
                ledger = ((1, 0, rterm.scale(1.0 / epsilon)),)
            else:
                ledger = ((0, 0, rterm),)
        return cls(geometry=geometry, omega0=omega, M0=M, epsilon=epsilon,
                   P=P, ledger=ledger)

    @classmethod
    def from_reduced(cls, red) -> "NormalFormState":
        P_abs = red.P1.scale(red.epsilon) if red.epsilon > 0 else red.P1
        return cls.initial(red.geometry, red.omega1, red.M1, red.epsilon,
                           P_abs, rterm=red.Rterm)

    def epsilon_series(self, eps: float | None = None) -> float:
        eps = self.epsilon if eps is None else eps
        return float(_eps_poly(0.0, enumerate(self.eps_coeffs, 1), eps))

    def omega_p(self, eps: float | None = None) -> np.ndarray:
        eps = self.epsilon if eps is None else eps
        return _eps_poly(self.omega0.copy(), enumerate(self.omega_coeffs, 1),
                         eps)

    def M_p(self, eps: float | None = None) -> np.ndarray:
        eps = self.epsilon if eps is None else eps
        return _eps_poly(self.M0.copy(), enumerate(self.M_coeffs, 1), eps)

    def integrable_series(self) -> FourierTaylorSeries:
        """<omega_p, y> + (eps/2) <z, M_p z>, the bracket-active part of N."""
        return integrable_part(self.geometry, 0.0, self.omega_p(), self.M_p(),
                               self.epsilon)

    @cached_property
    def rterms(self) -> tuple:
        """The remainder ledger as (s, series / eps^s), each entry carried
        through the time-1 flows after its birth step, in order.  Computed
        on the first read and kept; an entry whose Lie series does not
        settle within LIE_ORDER_CAP raises InvariantError here, not in the
        step that added the flow."""
        out = []
        for s, birth, rs in self.ledger:
            w = self.epsilon ** s if s else 1.0
            for F in self.flows[birth:]:
                rs_moved, _ = lie_transform_auto(rs.scale(w), F, 1.0)
                rs = rs_moved.scale(1.0 / w)
            out.append((s, rs))
        return tuple(out)

    def rterm_total(self) -> FourierTaylorSeries:
        """Transported flat remainder in absolute units."""
        return _eps_poly(FourierTaylorSeries.zero(self.geometry), self.rterms,
                         self.epsilon)

    def ledger_averages(self) -> list:
        """(s, angle average of R_s) for each entry of the remainder
        ledger."""
        return [(s, average_over_angles(rs)) for s, rs in self.rterms]

    def k0_polynomial(self, y, eps: float | None = None, ledger=None,
                      order: int = 0):
        """Action function of the normal form on the zero section z = 0,
        or its order-th eps-derivative: eps_p(eps) + <omega_p(eps), y> plus
        the angle-averaged remainder ledger evaluated at (y, z = 0).  A
        stack of points y (one per row) gives an array of values, a point a
        float.  `ledger` is ledger_averages(), for a caller that evaluates
        many points."""
        eps = self.epsilon if eps is None else eps
        y = np.asarray(y, dtype=float)
        ledger = self.ledger_averages() if ledger is None else ledger
        omega = self.omega0 if order == 0 else np.zeros_like(self.omega0)
        total = (_eps_poly(0.0, enumerate(self.eps_coeffs, 1), eps, order)
                 + y @ _eps_poly(omega, enumerate(self.omega_coeffs, 1), eps,
                                 order))
        total = _eps_poly(total, ((s, avg.evaluate(y=y).real)
                                  for s, avg in ledger), eps, order)
        return float(total) if np.ndim(total) == 0 else total


def _eps_poly(start, terms, eps: float, order: int = 0):
    """start + sum of c * d^order/d eps^order (eps^s) over the (s, c) of
    terms, added in order; a term with s < order contributes nothing.
    The c may be numbers, arrays or series."""
    out = start
    for s, c in terms:
        if s >= order:
            out = out + c * (math.perm(s, order) * eps ** (s - order))
    return out


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
             weights: GevreyWeights | None = None) -> NormalFormState:
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
    member, table = check_divisors(omega_now, M_now, Kplus, gamma, delta)
    stats = {"min_kw": float(np.abs(table.kw).min())}
    for key, det in (("min_detA1", table.detA1), ("min_detA2", table.detA2)):
        stats[key] = math.nan if det is None else float(np.abs(det).min())
    if not member:
        bad = table.select(~table.passed)
        raise DivisorError(
            f"divisor membership failed for {len(bad)} mode(s) at Kplus={Kplus}",
            reports=bad)

    s_new = state.p + 1
    eps = state.epsilon
    if eps <= 0:
        raise ConfigError("a non-trivial step needs epsilon > 0")

    R, _tail = cutoff(state.P, Kplus)
    _, *k0 = ansatz_blocks(average_over_angles(R))
    c000, c010, _, C002 = (blk.sum(axis=0) for blk in k0)   # k = 0 at most
    F = solve_homological(omega_now, M_now, eps, R, gamma, delta)

    # absorb the averaged cutoff into the integrable part
    d_omega = _real_vector(c010, "frequency update")
    omega_next_abs = omega_now + d_omega
    if geo.d0:
        M_next_abs = M_now + 2.0 * _real_vector(C002, "resonant matrix update") / eps
    else:
        M_next_abs = M_now
    const_abs = float(c000.real)

    moved, order_used = lie_transform_auto(state.integrable_series() + state.P,
                                           F, 1.0)
    P_raw = moved - integrable_part(geo, const_abs, omega_next_abs,
                                    M_next_abs, eps)

    # the new flat content joins the ledger as it stands after F; the
    # ledger is transported only when it is read (NormalFormState.rterms)
    # and never re-enters the perturbation channel
    ledger = state.ledger
    flat_new, P_next = P_raw.partition(flat_remainder_part(P_raw))
    if not flat_new.is_zero():
        ledger += ((s_new, s_new, flat_new.scale(eps ** (-s_new))),)

    norm_after = norm(P_next)
    if norm_after > norm_before * (1.0 + 1e-9):
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
        ledger=ledger,
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
            schedule: Schedule | None = None, pmax: int = 6) -> IterationResult:
    """Run steps until pmax, the target norm, or a rejection.

    The trajectory starts with the initial norm at the undepleted weights
    and appends the post-step norm at each step's depleted weights.  The
    remainder ledger is left untransported: the first read of the state's
    `rterms` carries it through the flows.
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
                             delta, weights)
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
