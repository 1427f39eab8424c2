"""Measure estimation for resonance zones and the excluded frequency set.

A zone is the set of frequencies in the unit cube where a mode's first
divisor condition fails: |<w,k>| <= beta.  Zones are
measured by plain uniform Monte Carlo with binomial confidence intervals;
the union over modes up to a cutoff carries an analytic majorant from the
per-mode strip bound  |{w in [0,1]^l : |<w,k>| <= beta}| <= 2*beta/|k|.

The union (the excluded set) takes beta per shell |k| = m from
`kam.divisor_thresholds`, the first divisor condition of `check_divisors`,
keeps one mode per +-k pair, and is counted in two passes per chunk of
the draw.  The screen splits k = (k', k_d) by its last Fourier digit.  For
every nonzero prefix k' it takes s = <w', k'> and the nearest digit
c = rint(-s/w_d), and flags the sample when |s + c w_d| <= beta*(k') + e,
where beta*(k') is the largest beta over that prefix's modes and e bounds
the rounding error.  It also flags every sample with
w_d <= 2 (max beta + e).  The exact check then evaluates
|<w,k>| <= beta_k for every mode on the flagged samples only, as one
W_f @ K^T product.

The screen misses no hit.  Let |<w,k>| <= beta(k) with w_d > 2 beta*.
Then |-s/w_d - k_d| <= beta*/w_d < 1/2, so k_d is the nearest digit c and
the prefix's test flags w.  A mode with k' = 0 hits only where
|k_d| w_d <= beta, inside the small-w_d lane.  So the flagged samples
include every hit, and the estimate equals a loop over every mode and
every sample.  (That product and a per-mode mat-vec may round <w,k>
differently in the last bit, so the two could disagree only on a sample
within an ulp of a strip's edge.)
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gevrey import ApproximationFunction
from .kam import divisor_thresholds
from .quadrature import qagi
from .series import knorm


@dataclass(frozen=True)
class ZoneSpec:
    """One resonance zone: the strip |<w,k>| <= beta of mode k."""

    k: tuple
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ConfigError("beta must be finite and non-negative")
        if knorm(self.k) == 0:
            raise ConfigError("k must be nonzero")


def _zone_indicator(spec: ZoneSpec, W: np.ndarray) -> np.ndarray:
    k = np.asarray(spec.k, dtype=float)
    return np.abs(W[:, :k.size] @ k) <= spec.beta


def zone_measure_mc(spec: ZoneSpec, l: int, samples: int, seed: int):
    """Uniform MC measure of one zone in [0,1]^l.

    Returns (estimate, ci95): the mean of the indicator and the 95%
    binomial confidence half-width.  Deterministic for a fixed seed.
    """
    return zones_measure_mc([spec], l, samples, seed)[0]


def zones_measure_mc(specs, l: int, samples: int, seed: int):
    """`zone_measure_mc` for several zones from one draw: each chunk of
    the seeded stream is drawn once and tested with every zone's own
    indicator, so each (estimate, ci95) equals that of its own call."""
    if samples < 10_000:
        raise ConfigError("use at least 1e4 samples")
    if any(len(spec.k) > l for spec in specs):
        raise ConfigError("mode dimension exceeds the cube dimension")
    if not specs:
        return []
    rng = np.random.default_rng(seed)
    hits = [0] * len(specs)
    chunk = 200_000
    left = samples
    while left > 0:
        n = min(chunk, left)
        W = rng.random((n, l))
        for i, spec in enumerate(specs):
            hits[i] += int(_zone_indicator(spec, W).sum())
        left -= n
    return [_binomial(h, samples) for h in hits]


def _binomial(hits: int, samples: int):
    """Hit fraction and its 95% binomial confidence half-width."""
    p = hits / samples
    return p, 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)


def _modes_up_to(d: int, Kmax: int):
    for k in itertools.product(range(-Kmax, Kmax + 1), repeat=d):
        if knorm(k) != 0:
            yield k


def union_majorant(gamma1: float, delta: ApproximationFunction, Kmax: int,
                   d: int) -> float:
    """Analytic bound on the union measure: per shell |k| = m there are
    (2m+1)^d - (2m-1)^d modes, each zone of measure <= 2*beta_m/m with
    beta_m = gamma1/Delta(m)."""
    m = np.arange(1, Kmax + 1)
    beta = divisor_thresholds(gamma1, delta, Kmax, 0)[:, 0]
    return float(np.sum(((2 * m + 1) ** d - (2 * m - 1) ** d) * 2.0 * beta / m))


def excluded_set_measure(gamma1: float, delta: ApproximationFunction,
                         Kmax: int, l: int, d: int, samples: int, seed: int):
    """MC measure of the union of zones T_k(gamma1/Delta(|k|)) over
    0 < |k| <= Kmax, plus the analytic majorant for comparison.

    Each chunk of the draw is screened per nonzero prefix k' and then
    checked exactly on the flagged samples only; see the module docstring.
    Returns (estimate, ci95, majorant)."""
    if not math.isfinite(gamma1) or gamma1 < 0:
        raise ConfigError("gamma1 must be finite and non-negative")
    if d > l:
        raise ConfigError("mode dimension exceeds the cube dimension")
    if samples < 10_000:
        raise ConfigError("use at least 1e4 samples")
    # the zones of k and -k are one set; product order lists each pair's
    # negative half before the origin, so keep the modes after it
    ks = np.array(list(_modes_up_to(d, Kmax)), dtype=float).reshape(-1, d)
    ks = ks[len(ks) // 2:]
    shell = np.abs(ks).max(axis=1).astype(int)
    betas = divisor_thresholds(gamma1, delta, Kmax, 0)[shell - 1, 0]
    ks, betas = ks[betas > 0], betas[betas > 0]   # a zero-width zone is empty
    hits = 0
    if betas.size:
        # beta*(k') per prefix: the modes of one prefix are adjacent rows
        pre = ks[:, :-1]
        first = np.flatnonzero(np.r_[True, (pre[1:] != pre[:-1]).any(axis=1)])
        bstar = np.maximum.reduceat(betas, first)
        live = pre[first].any(axis=1)
        prefixes, bstar = pre[first][live].T, bstar[live]
        # |fl(<w,k>) - <w,k>| <= d^2 Kmax u on the unit cube, in any order
        slack = 4.0 * d * d * Kmax * np.finfo(float).eps
        near = (bstar + slack)[:, None]
        lane = 2.0 * (betas.max() + slack)
        # the draw plus two chunk x prefix arrays stay within 100k x l floats
        chunk = max(1024, 100_000 * l // (l + 2 * bstar.size))
        rng = np.random.default_rng(seed)
        left = samples
        with np.errstate(divide="ignore", invalid="ignore"):
            while left > 0:
                n = min(chunk, left)
                W = rng.random((n, l))
                wd = W[:, d - 1]
                flag = wd <= lane
                if bstar.size:
                    # prefix x sample: s = <w', k'>, then s + c w_d
                    s = np.multiply.outer(prefixes[0], W[:, 0])
                    for j in range(1, d - 1):
                        s += np.multiply.outer(prefixes[j], W[:, j])
                    c = s / wd
                    np.rint(c, out=c)
                    c *= wd
                    s -= c
                    np.abs(s, out=s)
                    flag |= (s <= near).any(axis=0)
                Wf = W[flag, :d]
                hits += int((np.abs(Wf @ ks.T) <= betas).any(axis=1).sum())
                left -= n
    p, ci95 = _binomial(hits, samples)
    return p, ci95, union_majorant(gamma1, delta, Kmax, d)


@dataclass
class SummabilityResult:
    converges: bool
    partial: float
    tail_bound: float
    estimate: float
    terms_used: int


def summability_check(delta: ApproximationFunction, d: int,
                      tol: float = 1e-9,
                      m_cap: int = 2_000_000) -> SummabilityResult:
    """Convergence test and value estimate for sum_m m^(d-1)/Delta(m).

    Terms are accumulated until the current term falls below tol times the
    partial sum; the tail is then bracketed by the integral comparison
    test (the summand must be decreasing by that point), each integral by
    QAGI.  Lack of decay within the cap, or a tail integral that QAGI does
    not report as converged, reports divergence.
    """
    partial = 0.0
    m = 1
    prev = math.inf
    while m <= m_cap:
        hi = min(m + 49_999, m_cap)
        ms = np.arange(m, hi + 1, dtype=float)
        vals = ms ** (d - 1) / delta.values(ms)
        partial += float(vals.sum())
        last = float(vals[-1])
        decreasing = last < prev and bool(np.all(np.diff(vals) <= 1e-15))
        prev = last
        m = hi + 1
        if decreasing and last < tol * max(partial, 1e-300):
            M_stop = hi
            f = lambda t: t ** (d - 1) * np.exp(-delta.log(t))
            tail_hi, _, ier_hi = qagi(f, M_stop, epsabs=1.49e-8,
                                      epsrel=1.49e-8, limit=400)
            tail_lo, _, ier_lo = qagi(f, M_stop + 1, epsabs=1.49e-8,
                                      epsrel=1.49e-8, limit=400)
            if ier_hi or ier_lo or not (math.isfinite(tail_hi) and tail_hi >= 0):
                break
            return SummabilityResult(
                converges=True, partial=partial, tail_bound=tail_hi,
                estimate=partial + 0.5 * (tail_lo + tail_hi),
                terms_used=M_stop)
    return SummabilityResult(converges=False, partial=partial,
                             tail_bound=math.inf, estimate=math.inf,
                             terms_used=m - 1)
