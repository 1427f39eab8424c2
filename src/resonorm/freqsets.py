"""Measure estimation for resonance zones and the excluded frequency set.

A zone is the set of frequencies in the unit cube where a mode's first
divisor condition fails: |<w,k>| <= beta.  Zones are
measured by plain uniform Monte Carlo with binomial confidence intervals;
the union over modes up to a cutoff carries an analytic majorant from the
per-mode strip bound  |{w in [0,1]^l : |<w,k>| <= beta}| <= 2*beta/|k|.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ConfigError
from .gevrey import ApproximationFunction
from .series import knorm


@dataclass(frozen=True)
class ZoneSpec:
    """One resonance zone: the strip |<w,k>| <= beta of mode k."""

    k: tuple
    beta: float

    def __post_init__(self):
        if self.beta < 0:
            raise ConfigError("beta must be non-negative")
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
    if samples < 10_000:
        raise ConfigError("use at least 1e4 samples")
    if len(spec.k) > l:
        raise ConfigError("mode dimension exceeds the cube dimension")
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 200_000
    left = samples
    while left > 0:
        n = min(chunk, left)
        W = rng.random((n, l))
        hits += int(_zone_indicator(spec, W).sum())
        left -= n
    p = hits / samples
    ci95 = 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    return p, ci95


def _modes_up_to(d: int, Kmax: int):
    for k in itertools.product(range(-Kmax, Kmax + 1), repeat=d):
        if knorm(k) != 0:
            yield k


def union_majorant(gamma1: float, delta: ApproximationFunction, Kmax: int,
                   d: int) -> float:
    """Analytic bound on the union measure: per shell |k| = m there are
    (2m+1)^d - (2m-1)^d modes, each zone of measure <= 2*beta_m/m with
    beta_m = gamma1/Delta(m)."""
    total = 0.0
    for m in range(1, Kmax + 1):
        shell = (2 * m + 1) ** d - (2 * m - 1) ** d
        total += shell * 2.0 * (gamma1 / delta(m)) / m
    return total


def excluded_set_measure(gamma1: float, delta: ApproximationFunction,
                         Kmax: int, l: int, d: int, samples: int, seed: int):
    """MC measure of the union of zones T_k(gamma1/Delta(|k|)) over
    0 < |k| <= Kmax, plus the analytic majorant for comparison.

    Returns (estimate, ci95, majorant)."""
    if gamma1 < 0:
        raise ConfigError("gamma1 must be non-negative")
    rng = np.random.default_rng(seed)
    # the zones of k and -k are one set; product order lists each pair's
    # negative half before the origin, so keep the modes after it
    modes = list(_modes_up_to(d, Kmax))
    modes = modes[len(modes) // 2:]
    betas = [gamma1 / delta(knorm(k)) for k in modes]
    hits = 0
    chunk = 100_000
    left = samples
    while left > 0:
        n = min(chunk, left)
        W = rng.random((n, l))
        inside = np.zeros(n, dtype=bool)
        for k, beta in zip(modes, betas):
            if beta == 0.0:
                continue
            inside |= _zone_indicator(ZoneSpec(k=k, beta=beta), W)
        hits += int(inside.sum())
        left -= n
    p = hits / samples
    ci95 = 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
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
    test (the summand must be decreasing by that point).  Lack of decay
    within the cap reports divergence.
    """
    def term(m):
        return float(m) ** (d - 1) / delta(float(m))

    partial = 0.0
    m = 1
    prev = math.inf
    while m <= m_cap:
        hi = min(m + 49_999, m_cap)
        ms = np.arange(m, hi + 1, dtype=float)
        vals = ms ** (d - 1) / np.array([delta(v) for v in ms])
        partial += float(vals.sum())
        last = float(vals[-1])
        decreasing = last < prev and bool(np.all(np.diff(vals) <= 1e-15))
        prev = last
        m = hi + 1
        if decreasing and last < tol * max(partial, 1e-300):
            M_stop = hi
            f = lambda t: t ** (d - 1) / delta(t)
            tail_hi, _ = quad(f, M_stop, np.inf, limit=400)
            tail_lo, _ = quad(f, M_stop + 1, np.inf, limit=400)
            if not (math.isfinite(tail_hi) and tail_hi >= 0):
                break
            return SummabilityResult(
                converges=True, partial=partial, tail_bound=tail_hi,
                estimate=partial + 0.5 * (tail_lo + tail_hi),
                terms_used=M_stop)
    return SummabilityResult(converges=False, partial=partial,
                             tail_bound=math.inf, estimate=math.inf,
                             terms_used=m - 1)
