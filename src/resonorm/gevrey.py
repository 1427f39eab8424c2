"""Approximation-function machinery and the majorant Gevrey norm.

An approximation function Delta controls small divisors through
|<k, w>| > gamma / Delta(|k|).  It is defined by its logarithm, as every
estimate on it is written in log Delta: the extremal function
Gamma_{r,n}(eta) = sup_t (1+t)^r Delta(t)^n exp(-eta t^(1/alpha)) and the
integral bound on it.  Delta is admissible when log Delta is continuous
and strictly increasing, log Delta(0) >= 0, log Delta is unbounded,
log Delta(t) / t^(1/alpha) decreases to zero, and the integral of
log Delta(t) / t^(1+1/alpha) from varsigma to infinity is finite.  These
are verified by sampling log Delta on a geometric grid; the integral is
summed over doubling windows [varsigma 2^j, varsigma 2^(j+1)], one 32-point
Gauss-Legendre rule on each, evaluated on arrays, and the geometric decay
of the window integrals bounds the tail.

The integral bound on the extremal function runs QUADPACK's QAGI
(`quadrature.qagi`) on [T, inf).  It is ported, not replaced by a
tanh-sinh rule, because it reproduces SciPy's `quad` bit for bit:
the benchmark's gamma table pins eta to 1e-12 relative, which holds
quad's own quadrature error, so another rule would move the pinned values.

The norm on truncated series is a coefficient majorant,

    |f| = sum |c_kjq| e^(rho |k|^(1/alpha)) r^(|j|+|q|)
                      e^(sigma (|j|+|q|)^(1/alpha)),

which keeps the two features the estimates rely on: exponential Fourier
weights in k and Gevrey-type growth control in the polynomial degree.  The
exact transform-based norm is distributional on polynomials and is not used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .quadrature import qagi
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
    """A divisor-control function Delta with its Gevrey index, defined by
    its logarithm.

    `log` maps t >= 0, a scalar or an array, to log Delta(t); it is written
    with numpy ufuncs, and +inf is allowed where Delta leaves the float
    range.  Every evaluation of Delta is exp(log).  `varsigma` is the lower
    cutoff of the admissibility integral.  Construction does not validate;
    call `check_admissible` to run the sampled checks, so degenerate stubs
    remain constructible for tests.
    """

    alpha: float
    log: Callable
    varsigma: float = 0.01
    name: str = "custom"

    def values(self, t) -> np.ndarray:
        """Delta(t) = exp(log Delta(t)) elementwise, +inf past the float
        range."""
        with np.errstate(over="ignore"):
            return np.exp(self.log(np.asarray(t, dtype=float)))

    def __call__(self, t: float) -> float:
        return float(self.values(t))

    def inverse(self, s: float) -> float:
        """Monotone inverse by bisection on log Delta: smallest t with
        Delta(t) >= s."""
        target = math.log(s)
        if self.log(0.0) >= target:
            return 0.0
        lo, hi = 0.0, 1.0
        while self.log(hi) < target:
            lo, hi = hi, hi * 2.0
            if hi > 1e12:
                raise DivergenceError(f"Delta never reaches {s}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.log(mid) < target:
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


def power_log_delta(a: float, b: float = 0.0, alpha: float = 2.0,
                    varsigma: float = 0.01) -> ApproximationFunction:
    """Delta(t) = (1+t)^a * log^b(e+t)."""
    return ApproximationFunction(
        alpha, lambda t: a * np.log1p(t) + b * np.log(np.log(np.e + t)),
        varsigma, name=f"power_log(a={a},b={b})")


def subgevrey_exp_delta(beta: float, alpha: float = 2.0,
                        varsigma: float = 0.01) -> ApproximationFunction:
    """Delta(t) = exp(t^beta); admissible when beta < 1/alpha."""
    return ApproximationFunction(alpha, lambda t: t ** beta, varsigma,
                                 name=f"subgevrey_exp(beta={beta})")


def _geometric_grid(lo: float, hi: float, nodes_per_decade: int) -> np.ndarray:
    decades = math.log10(hi / lo)
    n = max(8, int(round(decades * nodes_per_decade)))
    return np.geomspace(lo, hi, n)


def check_admissible(delta: ApproximationFunction, grid_hi: float = 1e6,
                     nodes_per_decade: int = 64,
                     rtol: float = 1e-9) -> AdmissibilityReport:
    """Sampled admissibility checks; see module docstring for the conditions."""
    failures = []
    ts = _geometric_grid(delta.varsigma, grid_hi, nodes_per_decade)
    logs = delta.log(ts)
    finite = np.isfinite(logs)
    if not finite.all():
        failures.append("Delta overflows the float range on the grid")
        ts, logs = ts[finite], logs[finite]

    if delta.log(0.0) < -1e-12:
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

    # finite integral of log Delta / t^(1+1/alpha): one Gauss-Legendre rule
    # per doubling window; geometric decay of window integrals gives the
    # tail bound
    x, w = np.polynomial.legendre.leggauss(32)
    lows = delta.varsigma * 2.0 ** np.arange(60)
    nodes = lows[:, None] * (1.5 + 0.5 * x)
    windows = 0.5 * lows * ((np.minimum(delta.log(nodes), 1e12)
                             / nodes ** (1.0 + 1.0 / delta.alpha)) @ w)

    total = 0.0
    prev = None
    tail_bound = math.inf
    converged = False
    for window_hi, val in zip((2.0 * lows).tolist(), windows.tolist()):
        total += val
        if prev is not None and prev > 0:
            q = val / prev
            if q < 0.95:
                tail_bound = val * q / (1.0 - q)
                if tail_bound < max(rtol, 1e-12) * max(total, 1.0) or window_hi > 1e12:
                    converged = True
                    if window_hi > 1e8:
                        break
        prev = val
    if not converged and not math.isfinite(tail_bound):
        failures.append("integral of log Delta/t^(1+1/alpha) shows no convergence")

    return AdmissibilityReport(ok=not failures, failures=failures,
                               integral=total, tail_bound=tail_bound)


# ---------------------------------------------------------------------------
# extremal function and its integral bound
# ---------------------------------------------------------------------------

def _log_objective(delta: ApproximationFunction, r: int, n: int, eta: float):
    """log of (1+t)^r Delta(t)^n exp(-eta t^(1/alpha)), on scalars or
    arrays; n = 0 leaves log Delta out, so an infinite one gives no 0 * inf."""
    inv_alpha = 1.0 / delta.alpha

    def f(t):
        ld = n * delta.log(t) if n else 0.0
        return r * np.log1p(t) + ld - eta * t ** inv_alpha

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
    vals = f(grid)
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


def ba_integrals(delta: ApproximationFunction, kappa: float, T: float):
    """The integrals (a, c) of the integral bound, which depend on Delta,
    kappa and T only.

    a = (1/log kappa) * int_T^inf log Delta(t) / t^(1+1/alpha) dt, and c
    likewise with log(1+t), each by QAGI with quad's tolerances.  An
    integral that QAGI does not report as converged (ier != 0, say
    "probably divergent") raises DivergenceError.
    """
    if not (1.0 < kappa <= 2.0):
        raise ValueError("kappa must lie in (1, 2]")
    if T < delta.varsigma:
        raise ValueError("T must be >= varsigma")
    expo = 1.0 + 1.0 / delta.alpha
    logk = math.log(kappa)

    def ig_a(t):
        return max(delta.log(t), 0.0) / t ** expo

    def ig_c(t):
        return math.log1p(t) / t ** expo

    a_val, a_err, a_ier = qagi(ig_a, T, epsabs=1.49e-8, epsrel=1e-10, limit=400)
    c_val, c_err, c_ier = qagi(ig_c, T, epsabs=1.49e-8, epsrel=1e-10, limit=400)
    if not (math.isfinite(a_val) and math.isfinite(c_val)):
        raise DivergenceError("quadrature for the integral bound did not converge")
    if a_ier or c_ier:
        raise DivergenceError(
            f"quadrature for the integral bound did not converge "
            f"(QUADPACK ier a={a_ier}, c={c_ier})")
    if a_err > 1e-6 * max(1.0, a_val) or c_err > 1e-6 * max(1.0, c_val):
        raise DivergenceError(
            f"quadrature error too large (a_err={a_err:.2e}, c_err={c_err:.2e})")
    return a_val / logk, c_val / logk


def lemma_ba_bound(delta: ApproximationFunction, kappa: float, T: float,
                   n: int, r: int):
    """Integral bound on the extremal function.

    With (a, c) from `ba_integrals` and eta = n*a + r*c, the extremal value
    Gamma_{r,n}(eta) is bounded by exp(eta * T^(1/alpha)).

    Returns (a, c, eta, bound).
    """
    a_val, c_val = ba_integrals(delta, kappa, T)
    eta = n * a_val + r * c_val
    return a_val, c_val, eta, extremal_bound(delta, T, eta)


def extremal_bound(delta: ApproximationFunction, T: float, eta: float) -> float:
    """exp(eta * T^(1/alpha)), the bound of `lemma_ba_bound`."""
    return math.exp(eta * T ** (1.0 / delta.alpha))


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
