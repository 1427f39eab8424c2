"""Measure estimation for resonance zones and the excluded frequency set.

A zone is the set of frequencies in the unit cube where a mode's first
divisor condition fails: |<w,k>| <= beta.  Zones are
measured by plain uniform Monte Carlo with binomial confidence intervals;
the union over modes up to a cutoff carries an analytic majorant from the
per-mode strip bound  |{w in [0,1]^l : |<w,k>| <= beta}| <= 2*beta/|k|.

The union (the excluded set) takes beta per shell |k| = m from
`kam.divisor_thresholds`, the first divisor condition of `check_divisors`,
keeps one mode per +-k pair, and is counted in two stages per chunk of
the draw, a screen and an exact check.  The screen splits k = (k', k_d)
by its last Fourier digit.  It divides once per sample, r = w'/w_d, and
for every nonzero prefix k' takes t = <r, k'>; it flags the sample when
|t - rint t| w_d <= beta*(k') + e, where beta*(k') is the largest beta
over that prefix's modes and e bounds the rounding error.  These steps
run in float32, in buffers allocated once.  It also flags every sample
with w_d <= 2 (max beta + e), a test on the float64 draw.  The exact
check then evaluates |<w,k>| <= beta_k in float64 for every mode on the
flagged samples only, gathered by index, as one W_f @ K^T product.

The screen misses no hit.  Write u = 2^-24 for float32's unit roundoff,
so that e = 16 (d^2 Kmax + d) u, and D(x) for the distance from x to the
nearest integer.  Let the exact check count w for k = (k', k_d), k' != 0:
then |<w,k>| <= beta + rho, where rho <= d^2 Kmax 2^-53 bounds the float64
product's error on the unit cube.  If w_d <= 2 (max beta + e), the lane
flags w.  Otherwise beta* < w_d/2 < 1/2, and the exact t = <w',k'>/w_d has
D(t) w_d <= |t + k_d| w_d = |<w,k>| <= beta* + rho.  In float32 each term
of t passes through at most d + 2 roundings (w_j and w_d to float32, the
quotient, the product by k'_j, d - 2 sums), each of relative error at
most u (gradual underflow adds at most 2^-149 instead, which the margin
below absorbs), so |t^ - t| w_d <= (d + 2)(d - 1) Kmax u (1 + O(u)).  D is
1-Lipschitz, t^ - rint t^ is exact, and the product by fl(w_d) adds two
roundings, so the screen's value is at most
(beta* + rho + (d + 2)(d - 1) Kmax u (1 + O(u))) (1 + u)^2, while its
threshold fl(beta* + e) is at least (beta* + e)(1 - u)^2.  With beta* < 1/2
the value stays below the threshold when e (1 - u)^2 exceeds
2u + ((d^2 + d) Kmax + 1) u (1 + O(u)), which this e does by a factor of
more than 10.  A mode with k' = 0 hits only where |k_d| w_d <= beta + rho,
inside the lane.  So the flagged samples include every sample that the
exact check counts, and the estimate equals a loop over every mode and
every sample.  (That product and a per-mode mat-vec may round <w,k>
differently in the last bit, so the two could disagree only on a sample
within an ulp of a strip's edge.)  In the lane, w_d may be 0.0 or
subnormal in float32, where r overflows: the lane has set the flag, the
screen's value there cannot clear it, and the count ignores those
floating-point warnings.

`measure` counts the zones and the union in one pass over one seeded
draw (`zones_and_excluded_set`): each chunk is drawn once, into a buffer
allocated once, and handed to every zone's indicator and to the union's
screen and exact check, whose per-chunk arrays are also allocated once
and written in place.  The union keeps its chunks and each zone its
per-row mat-vec, on the same stream, so both results equal those of
separate `zone_measure_mc` and `excluded_set_measure` calls.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng  # at import: numpy loads it lazily

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


def _zone_indicator(spec: ZoneSpec, W: np.ndarray, tmp=None, out=None,
                    k=None) -> np.ndarray:
    """|<w,k>| <= beta for each row w of W; when given, `tmp` (float) and
    `out` (bool), one entry per row, receive <w,k> and the result, and `k`
    is spec.k as a float array."""
    if k is None:
        k = np.asarray(spec.k, dtype=float)
    s = np.matmul(W[:, :k.size], k, out=tmp)
    np.abs(s, out=s)
    return np.less_equal(s, spec.beta, out=out)


def zone_measure_mc(spec: ZoneSpec, l: int, samples: int, seed: int):
    """Uniform MC measure of one zone in [0,1]^l.

    Returns (estimate, ci95): the mean of the indicator and the 95%
    binomial confidence half-width.  Deterministic for a fixed seed.
    """
    _check_zones([spec], l, samples)
    (hits,), _ = _count([spec], None, l, samples, seed)
    return _binomial(hits, samples)


def excluded_set_measure(gamma1: float, delta: ApproximationFunction,
                         Kmax: int, l: int, d: int, samples: int, seed: int):
    """MC measure of the union of zones T_k(gamma1/Delta(|k|)) over
    0 < |k| <= Kmax, plus the analytic majorant for comparison.

    Each chunk of the draw is screened per nonzero prefix k' and then
    checked exactly on the flagged samples only; see the module docstring.
    Returns (estimate, ci95, majorant)."""
    _check_union(gamma1, l, d, samples)
    _, hits = _count([], _union_screen(gamma1, delta, Kmax, l, d, samples),
                     l, samples, seed)
    return (*_binomial(hits, samples), union_majorant(gamma1, delta, Kmax, d))


def zones_and_excluded_set(specs, gamma1: float, delta: ApproximationFunction,
                           Kmax: int, l: int, d: int, samples: int,
                           seed: int):
    """`zone_measure_mc(spec, l, samples, seed)` for each of specs and
    `excluded_set_measure(gamma1, delta, Kmax, l, d, samples, seed)` from
    one pass over one draw: each chunk is drawn once and counted by every
    zone and by the union, so the results equal those of the separate
    calls.  Both inputs are checked before the draw, in the calls' order."""
    _check_zones(specs, l, samples)
    _check_union(gamma1, l, d, samples)
    zone_hits, hits = _count(
        specs, _union_screen(gamma1, delta, Kmax, l, d, samples), l, samples,
        seed)
    return ([_binomial(h, samples) for h in zone_hits],
            (*_binomial(hits, samples),
             union_majorant(gamma1, delta, Kmax, d)))


def _check_zones(specs, l: int, samples: int):
    if samples < 10_000:
        raise ConfigError("use at least 1e4 samples")
    if any(len(spec.k) > l for spec in specs):
        raise ConfigError("mode dimension exceeds the cube dimension")


def _check_union(gamma1: float, l: int, d: int, samples: int):
    if not math.isfinite(gamma1) or gamma1 < 0:
        raise ConfigError("gamma1 must be finite and non-negative")
    if d > l:
        raise ConfigError("mode dimension exceeds the cube dimension")
    if d < 1:
        raise ConfigError("mode dimension must be at least 1")
    if samples < 10_000:
        raise ConfigError("use at least 1e4 samples")


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


def _union_screen(gamma1: float, delta: ApproximationFunction, Kmax: int,
                  l: int, d: int, samples: int):
    """The screen over the excluded set's modes, one per +-k pair with
    beta = gamma1/Delta(|k|) > 0, or None when there is no such mode."""
    # the zones of k and -k are one set; product order lists each pair's
    # negative half before the origin, so keep the modes after it
    ks = np.array(list(_modes_up_to(d, Kmax)), dtype=float).reshape(-1, d)
    ks = ks[len(ks) // 2:]
    shell = np.abs(ks).max(axis=1).astype(int)
    betas = divisor_thresholds(gamma1, delta, Kmax, 0)[shell - 1, 0]
    ks, betas = ks[betas > 0], betas[betas > 0]   # a zero-width zone is empty
    return _Screen(ks, betas, Kmax, l, samples) if betas.size else None


def _chunk_rows(l: int, prefixes: int, samples: int) -> int:
    # at least 1024 rows, else as many as keep the draw (float64: 8 l bytes
    # a row) and the screen's prefix x chunk arrays (t and c in float32 and
    # the close mask: 9 bytes a prefix) within 800,000 l bytes; the screen's
    # float32 columns and two row masks add 4 d + 2 bytes a row
    return min(samples, max(1024, 100_000 * l // (l + 2 * prefixes)))


class _Screen:
    """The union's screen and exact check (module docstring) for chunks of
    up to `chunk` rows, with every per-chunk array allocated here once."""

    def __init__(self, ks: np.ndarray, betas: np.ndarray, Kmax: int, l: int,
                 samples: int):
        d = ks.shape[1]
        # beta*(k') per prefix: the modes of one prefix are adjacent rows
        pre = ks[:, :-1]
        first = np.flatnonzero(np.r_[True, (pre[1:] != pre[:-1]).any(axis=1)])
        bstar = np.maximum.reduceat(betas, first)
        live = pre[first].any(axis=1)
        self.prefixes = pre[first][live].T.astype(np.float32)
        bstar = bstar[live]
        # e, the float32 rounding margin of the module docstring
        slack = 8.0 * (d * d * Kmax + d) * float(np.finfo(np.float32).eps)
        self.near = (bstar + slack).astype(np.float32)[:, None]
        self.lane = 2.0 * (betas.max() + slack)
        self.ks, self.betas = ks, betas
        self.chunk = chunk = _chunk_rows(l, bstar.size, samples)
        # float32 columns for the prefix tests, none when there is no prefix
        self.cols = np.empty((d if bstar.size else 0, chunk),
                             dtype=np.float32)
        self.t = np.empty((bstar.size, chunk), dtype=np.float32)
        self.c = np.empty_like(self.t)
        self.close = np.empty(self.t.shape, dtype=bool)
        self.flag = np.empty(chunk, dtype=bool)
        self.any_close = np.empty(chunk, dtype=bool)

    def hits(self, W: np.ndarray) -> int:
        """How many rows of the draw W lie in the union."""
        n, d = len(W), self.ks.shape[1]
        flag = np.less_equal(W[:, d - 1], self.lane, out=self.flag[:n])
        if self.near.size:
            cols = self.cols[:, :n]
            np.copyto(cols, W[:, :d].T)   # contiguous float32 operands
            wd, r = cols[d - 1], cols[:d - 1]
            r /= wd                       # r = w'/w_d, one divide a sample
            # prefix x sample: t = <r, k'>, then |t - rint t| w_d
            t, c = self.t[:, :n], self.c[:, :n]
            np.multiply.outer(self.prefixes[0], r[0], out=t)
            for j in range(1, d - 1):
                t += np.multiply.outer(self.prefixes[j], r[j], out=c)
            np.rint(t, out=c)
            t -= c
            np.abs(t, out=t)
            t *= wd
            close = np.less_equal(t, self.near, out=self.close[:, :n])
            flag |= np.logical_or.reduce(close, axis=0, out=self.any_close[:n])
        Wf = W[np.flatnonzero(flag), :d]
        return int(np.count_nonzero(
            (np.abs(Wf @ self.ks.T) <= self.betas).any(axis=1)))


def _count(specs, screen, l: int, samples: int, seed: int):
    """Hits of every zone and of the union (through its screen, or none)
    in one pass over the seeded draw of samples x l uniforms."""
    zone_hits = [0] * len(specs)
    hits = 0
    if not specs and screen is None:
        return zone_hits, hits
    chunk = screen.chunk if screen else _chunk_rows(l, 0, samples)
    W = np.empty((chunk, l))
    tmp, inside = np.empty(chunk), np.empty(chunk, dtype=bool)
    ks = [np.asarray(spec.k, dtype=float) for spec in specs]
    rng = default_rng(seed)
    left = samples
    # the screen divides by w_d, which may be 0.0 or, in float32, subnormal
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while left > 0:
            n = min(chunk, left)
            w = rng.random(out=W[:n])
            for i, (spec, k) in enumerate(zip(specs, ks)):
                zone_hits[i] += int(np.count_nonzero(
                    _zone_indicator(spec, w, tmp[:n], inside[:n], k)))
            if screen is not None:
                hits += screen.hits(w)
            left -= n
    return zone_hits, hits


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
