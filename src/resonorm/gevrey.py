"""Approximation-function machinery and the majorant Gevrey norm.

An admissible approximation function Delta controls small divisors through
|<k, w>| > gamma / Delta(|k|).  Admissibility means: continuous, strictly
increasing, Delta(0) >= 1, unbounded, with log Delta(t) / t^(1/alpha)
decreasing to zero and the integral of log Delta(t) / t^(1+1/alpha) finite.
These are verified by sampling on a geometric grid plus adaptive quadrature
with a geometric-window tail bound.

The norm on truncated series is a coefficient majorant,

    |f| = sum |c_kjq| e^(rho |k|^(1/alpha)) r^(|j|+|q|)
                      e^(sigma (|j|+|q|)^(1/alpha)),

which keeps the two features the estimates rely on: exponential Fourier
weights in k and Gevrey-type growth control in the polynomial degree.  The
exact transform-based norm is distributional on polynomials and is not used.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import DivergenceError, InvariantError
from .series import FourierTaylorSeries

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GevreyWeights:
    """Weights of the majorant norm: rho on Fourier modes, sigma on degree."""

    rho: float
    sigma: float
    alpha: float

    def __post_init__(self):
        if self.rho < 0 or self.sigma < 0:
            raise ValueError("weights must be non-negative")
        if self.alpha <= 1:
            raise ValueError("Gevrey index alpha must exceed 1")


@dataclass(frozen=True)
class ApproximationFunction:
    """A divisor-control function Delta with its Gevrey index.

    `fn` maps t >= 0 to Delta(t).  `log_fn`, when given, evaluates
    log Delta(t) directly so fast-growing families do not overflow the
    float range.  `varsigma` is the lower cutoff of the admissibility
    integral.  Construction does not validate; call `validate()` (or
    `check_admissible`) to run the sampled checks, so degenerate stubs
    remain constructible for tests.
    """

    alpha: float
    fn: Callable[[float], float]
    varsigma: float = 0.01
    name: str = "custom"
    log_fn: Callable[[float], float] | None = None

    def __call__(self, t: float) -> float:
        return float(self.fn(float(t)))

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Delta over an array of t: one call of `fn` on the whole array
        when `fn` is written with numpy ufuncs (as in `power_log_delta` and
        `subgevrey_exp_delta`), else one scalar call per element."""
        try:
            vals = np.asarray(self.fn(ts), dtype=float)
        except (TypeError, ValueError):
            vals = None
        if vals is None or vals.shape != ts.shape:
            vals = np.array([self(t) for t in ts])
        return vals

    def inverse(self, s: float) -> float:
        """Monotone inverse by bisection: smallest t with Delta(t) >= s."""
        if self(0.0) >= s:
            return 0.0
        lo, hi = 0.0, 1.0
        while self(hi) < s:
            lo, hi = hi, hi * 2.0
            if hi > 1e12:
                raise DivergenceError(f"Delta never reaches {s}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self(mid) < s:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


@dataclass
class AdmissibilityReport:
    ok: bool
    failures: list = field(default_factory=list)
    integral: float = math.nan
    tail_bound: float = math.nan

    def require(self):
        if not self.ok:
            raise InvariantError("Delta not admissible: " + "; ".join(self.failures))
        return self


def power_log_delta(a: float, b: float = 0.0, alpha: float = 2.0,
                    varsigma: float = 0.01) -> ApproximationFunction:
    """Delta(t) = (1+t)^a * log^b(e+t)."""
    def fn(t):
        # b = 0 skips np.log, which costs more than math.log on a scalar t
        power = (1.0 + t) ** a
        return power * np.log(np.e + t) ** b if b else power
    return ApproximationFunction(alpha, fn, varsigma, name=f"power_log(a={a},b={b})")


def subgevrey_exp_delta(beta: float, alpha: float = 2.0,
                        varsigma: float = 0.01) -> ApproximationFunction:
    """Delta(t) = exp(t^beta); admissible when beta < 1/alpha."""
    def fn(t):
        return np.exp(t ** beta)
    return ApproximationFunction(alpha, fn, varsigma,
                                 name=f"subgevrey_exp(beta={beta})",
                                 log_fn=lambda t: t ** beta)


def tabulated_delta(ts, vals, alpha: float = 2.0) -> ApproximationFunction:
    """Monotone interpolation of tabulated samples (log-linear in between),
    extended by the last log-slope beyond the table, where a value past
    the float range is +inf."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if np.any(np.diff(ts) <= 0) or np.any(np.diff(vals) <= 0):
        raise ValueError("samples must be strictly increasing")
    logv = np.log(vals)

    def fn(t):
        if t <= ts[0]:
            return float(vals[0])
        if t >= ts[-1]:
            slope = (logv[-1] - logv[-2]) / (ts[-1] - ts[-2])
            try:
                return float(math.exp(logv[-1] + slope * (t - ts[-1])))
            except OverflowError:
                return math.inf
        return float(math.exp(np.interp(t, ts, logv)))

    return ApproximationFunction(alpha, fn, name="tabulated")


def _geometric_grid(lo: float, hi: float, nodes_per_decade: int) -> np.ndarray:
    decades = math.log10(hi / lo)
    n = max(8, int(round(decades * nodes_per_decade)))
    return np.geomspace(lo, hi, n)


def _log_delta(delta: ApproximationFunction, t: float) -> float:
    """log Delta(t), with float overflow treated as +inf."""
    if delta.log_fn is not None:
        return float(delta.log_fn(float(t)))
    try:
        v = delta(t)
    except OverflowError:
        return math.inf
    if v <= 0.0:
        raise InvariantError(f"Delta({t}) = {v} is not positive")
    if math.isinf(v):
        return math.inf
    return math.log(v)


def check_admissible(delta: ApproximationFunction, grid_hi: float = 1e6,
                     nodes_per_decade: int = 64,
                     quad_rtol: float = 1e-9) -> AdmissibilityReport:
    """Sampled admissibility checks; see module docstring for the conditions."""
    failures = []
    ts = _geometric_grid(delta.varsigma, grid_hi, nodes_per_decade)
    logs = np.array([_log_delta(delta, t) for t in ts])
    finite = np.isfinite(logs)
    if not finite.all():
        failures.append("Delta overflows the float range on the grid")
        ts, logs = ts[finite], logs[finite]

    if _log_delta(delta, 0.0) < -1e-12:
        failures.append("Delta(0) < 1")
    if logs.size >= 2 and np.any(np.diff(logs) < 0):
        failures.append("not increasing on the sampled grid")
    if logs.size >= 2 and logs[-1] < logs[0] + math.log(2.0):
        failures.append("insufficient growth across the grid (bounded?)")

    # log Delta(t)/t^(1/alpha) must decrease to 0 on the tail; the ratio may
    # first rise at small t, so the check applies after its peak
    ratio = logs / ts ** (1.0 / delta.alpha)
    if ratio.size >= 8:
        ipk = int(np.argmax(ratio))
        tail = ratio[ipk:]
        if tail.size >= 4 and np.any(np.diff(tail) > 1e-12 * (1 + np.abs(tail[:-1]))):
            failures.append("log Delta(t)/t^(1/alpha) not decreasing past its peak")
        if ipk >= ratio.size - 2 and ratio[ipk] > 0:
            failures.append("log Delta(t)/t^(1/alpha) still rising at the grid end")
        if tail.size and ratio[ipk] > 0 and tail[-1] > 0.2 * ratio[ipk] and tail[-1] > 1e-6:
            failures.append("log Delta(t)/t^(1/alpha) does not tend to 0 on the grid")

    # finite integral of log Delta / t^(1+1/alpha): quadrature over doubling
    # windows; geometric decay of window integrals gives the tail bound
    expo = 1.0 + 1.0 / delta.alpha

    def integrand(t):
        return min(_log_delta(delta, t), 1e12) / t ** expo

    total = 0.0
    window_lo = delta.varsigma
    prev = None
    tail_bound = math.inf
    converged = False
    for _ in range(60):
        window_hi = window_lo * 2.0
        with warnings.catch_warnings():
            # window convergence is judged by the geometric-decay test below
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _err = quad(integrand, window_lo, window_hi,
                             epsrel=quad_rtol, epsabs=1e-15, limit=200)
        total += val
        if prev is not None and prev > 0:
            q = val / prev
            if q < 0.95:
                tail_bound = val * q / (1.0 - q)
                if tail_bound < max(quad_rtol, 1e-12) * max(total, 1.0) or window_hi > 1e12:
                    converged = True
                    if window_hi > 1e8:
                        break
        prev = val
        window_lo = window_hi
    if not converged and not math.isfinite(tail_bound):
        failures.append("integral of log Delta/t^(1+1/alpha) shows no convergence")

    return AdmissibilityReport(ok=not failures, failures=failures,
                               integral=total, tail_bound=tail_bound)


# ---------------------------------------------------------------------------
# extremal function and its integral bound
# ---------------------------------------------------------------------------

def _log_objective(delta: ApproximationFunction, r: int, n: int, eta: float):
    inv_alpha = 1.0 / delta.alpha

    def f(t):
        ld = _log_delta(delta, t) if n else 0.0
        if math.isinf(ld):
            return math.inf
        return r * math.log1p(t) + n * ld - eta * t ** inv_alpha

    return f


def gamma_extremal(r: int, n: int, eta: float,
                   delta: ApproximationFunction) -> float:
    """sup over t >= 0 of (1+t)^r Delta(t)^n exp(-eta t^(1/alpha)).

    Bracketed 1-D maximization: multi-start geometric coarse grid, then
    golden-section refinement of the log objective to relative accuracy
    1e-8.  A supremum that is still climbing at t ~ 1e14 is reported as
    divergence rather than returned as a number.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if r < 0 or n < 0:
        raise ValueError("r, n must be non-negative")
    f = _log_objective(delta, r, n, eta)

    grid = np.concatenate(([0.0], np.geomspace(1e-8, 1e14, 1200)))
    vals = np.array([f(t) for t in grid])
    imax = int(np.argmax(vals))
    if imax >= len(grid) - 2 or math.isinf(vals[imax]):
        # still climbing at the far end of a huge grid: inadmissible Delta
        raise DivergenceError(
            f"Gamma_(r={r},n={n})(eta={eta}) diverges (objective increasing at t={grid[imax]:.3g})")

    # multi-start refinement around the best coarse nodes guards plateaus;
    # grid values themselves are included so exact-endpoint maxima survive
    order = np.argsort(vals)[::-1][:8]
    best = vals[imax]
    for i in order:
        lo = grid[max(0, i - 1)]
        hi = grid[min(len(grid) - 1, i + 1)]
        best = max(best, _golden_max(f, lo, hi))
    return math.exp(best)


def _golden_max(f, lo, hi):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(300):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if (b - a) <= 1e-8 * (1.0 + abs(a) + abs(b)):
            break
    return max(fc, fd)


def lemma_ba_bound(delta: ApproximationFunction, kappa: float, T: float,
                   n: int, r: int):
    """Integral bound on the extremal function.

    Computes a = (1/log kappa) * int_T^inf log Delta(t) / t^(1+1/alpha) dt
    and c likewise with log(1+t); with eta = n*a + r*c the extremal value
    Gamma_{r,n}(eta) is bounded by exp(eta * T^(1/alpha)).

    Returns (a, c, eta, bound).
    """
    if not (1.0 < kappa <= 2.0):
        raise ValueError("kappa must lie in (1, 2]")
    if T < delta.varsigma:
        raise ValueError("T must be >= varsigma")
    expo = 1.0 + 1.0 / delta.alpha
    logk = math.log(kappa)

    def ig_a(t):
        return max(_log_delta(delta, t), 0.0) / t ** expo

    def ig_c(t):
        return math.log1p(t) / t ** expo

    a_val, a_err = quad(ig_a, T, np.inf, epsrel=1e-10, limit=400)
    c_val, c_err = quad(ig_c, T, np.inf, epsrel=1e-10, limit=400)
    if not (math.isfinite(a_val) and math.isfinite(c_val)):
        raise DivergenceError("quadrature for the integral bound did not converge")
    if a_err > 1e-6 * max(1.0, a_val) or c_err > 1e-6 * max(1.0, c_val):
        raise DivergenceError(
            f"quadrature error too large (a_err={a_err:.2e}, c_err={c_err:.2e})")
    a_val /= logk
    c_val /= logk
    eta = n * a_val + r * c_val
    bound = math.exp(eta * T ** (1.0 / delta.alpha))
    return a_val, c_val, eta, bound


# ---------------------------------------------------------------------------
# majorant norm
# ---------------------------------------------------------------------------

def majorant_norm(f: FourierTaylorSeries, w: GevreyWeights,
                  radius: float = 1.0) -> float:
    """Weighted l1 coefficient norm; monotone in rho, sigma and radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    inv_alpha = 1.0 / w.alpha
    deg = f.degrees()
    weight = (np.exp(w.rho * f.knorms() ** inv_alpha)
              * radius ** deg * np.exp(w.sigma * deg ** inv_alpha))
    return float(np.abs(f.coefs()) @ weight)
