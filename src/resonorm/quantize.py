"""Semiclassical spectrum prediction from an accumulated normal form.

The predicted eigenvalue attached to torus quantum numbers n_y (integers,
Maslov-shifted by theta/4) and resonant oscillator numbers (n_u, n_v) is

    E = eps_p(h, eps) + h * sum_j omega_j (n_y_j + theta_j / 4) + E_res

with two selectable conventions for the resonant part:

* "component":   E_res = (eps/2) * (sum_j lam_j (n_u_j + 1/2)
                                    + sum_j lamt_j (n_v_j + 1/2))
* "oscillator":  E_res = eps * h * sum_j sqrt(lam_j lamt_j) (n_u_j + 1/2),
                 n_v pinned to zero.

The second matches the spectrum of the literal Weyl quantization of
(eps/2)(lam u^2 + lamt v^2), where u, v are a conjugate pair; the model
operator module adjudicates between them, and the cross-check suite runs
under "oscillator" for that reason.  lam_j / lamt_j are the ascending
eigenvalues of the two diagonal blocks of the accumulated resonant matrix.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kam import NormalFormState

RESONANT_SCALINGS = ("component", "oscillator")
#: Largest number of levels a window may produce.
MAX_LEVELS = 200_000
#: Symmetry tolerance of the resonant matrix, relative to its largest entry.
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class QuantumNumbers:
    """Torus numbers may be negative; oscillator numbers are >= 0."""

    n_y: tuple
    n_u: tuple = ()
    n_v: tuple = ()

    def __post_init__(self):
        if any(v < 0 for v in self.n_u) or any(v < 0 for v in self.n_v):
            raise ValueError("resonant quantum numbers must be non-negative")


@dataclass
class SpectrumPrediction:
    entries: list                  # [(QuantumNumbers, energy)], ascending
    h: float
    epsilon: float
    maslov: tuple
    lambdas_u: np.ndarray
    lambdas_v: np.ndarray
    remainder: float
    scaling: str

    def energies(self) -> np.ndarray:
        return np.array([e for _, e in self.entries])

    def intra_step(self) -> float | None:
        """Smallest step between the resonant levels of one cluster; None
        without a resonant part."""
        lam_u, lam_v, eps = self.lambdas_u, self.lambdas_v, self.epsilon
        if not lam_u.size or eps == 0.0:
            return None
        if self.scaling == "component":
            return 0.5 * abs(eps) * float(
                min(lam_u.min(), lam_v.min()) if lam_v.size else lam_u.min())
        return abs(eps) * self.h * float(
            np.sqrt(np.maximum(lam_u * lam_v, 0.0)).min())

    def cluster_ids(self) -> np.ndarray:
        """Entries grouped by their torus quantum numbers."""
        seen = {}
        out = []
        for qn, _ in self.entries:
            out.append(seen.setdefault(qn.n_y, len(seen)))
        return np.array(out, dtype=int)


def resonant_lambdas(M: np.ndarray, d0: int):
    """Ascending eigenvalues of the two diagonal blocks of M, which must be
    symmetric."""
    if d0 == 0:
        return np.zeros(0), np.zeros(0)
    M = np.asarray(M, dtype=float)
    if not np.allclose(M, M.T, atol=SYMMETRY_TOL * max(1.0, np.abs(M).max())):
        raise ConfigError("resonant matrix must be symmetric")
    return np.linalg.eigvalsh(M[:d0, :d0]), np.linalg.eigvalsh(M[d0:, d0:])


def resonant_levels(lam_u, lam_v, eps: float, h: float, scaling: str,
                    n_res_max: int) -> list:
    """The resonant level offsets within a cluster, (n_u, n_v, energy) for
    every oscillator number up to n_res_max, ascending in energy; one
    all-zero level ((), (), 0.0) without resonant directions."""
    if scaling not in RESONANT_SCALINGS:
        raise ConfigError(f"unknown resonant scaling {scaling!r}")
    d0 = len(lam_u)
    if d0 == 0:
        return [((), (), 0.0)]
    if scaling == "component":
        levels = []
        for nu in itertools.product(range(n_res_max + 1), repeat=d0):
            for nv in itertools.product(range(n_res_max + 1), repeat=d0):
                e = 0.5 * eps * (sum(lam_u[j] * (nu[j] + 0.5) for j in range(d0))
                                 + sum(lam_v[j] * (nv[j] + 0.5) for j in range(d0)))
                levels.append((nu, nv, e))
    else:
        freq = np.sqrt(np.maximum(lam_u * lam_v, 0.0))
        if np.any(lam_u * lam_v < 0):
            raise ConfigError("mixed-signature resonant blocks have no "
                              "oscillator spectrum")
        levels = []
        for nu in itertools.product(range(n_res_max + 1), repeat=d0):
            e = eps * h * sum(freq[j] * (nu[j] + 0.5) for j in range(d0))
            levels.append((nu, (0,) * d0, e))
    levels.sort(key=lambda t: t[2])
    return levels


def remainder_bound(h: float, epsilon: float, alpha: float, *,
                    exponent_sign: int = -1) -> float:
    """|eps| * exp(-h^(sign/(alpha-1))), the constants c and C of the
    estimate C |eps| exp(-c h^(sign/(alpha-1))) both set to 1.

    The default sign -1 makes the bound vanish as h -> 0, matching the
    optimal-truncation estimate; sign +1 is the literal reading of the
    spectral error term and is exposed for comparison.
    """
    if alpha <= 1:
        raise ConfigError("alpha must exceed 1")
    if h <= 0:
        raise ConfigError("h must be positive")
    if epsilon == 0.0:
        return 0.0
    expo = exponent_sign / (alpha - 1.0)
    return abs(epsilon) * math.exp(-h ** expo)


def predict_spectrum(state: NormalFormState, h: float, epsilon: float | None,
                     maslov, window, *, scaling: str = "oscillator",
                     n_res_max: int = 8,
                     alpha: float = 2.0) -> SpectrumPrediction:
    """Enumerate all predicted eigenvalues inside the window [lo, hi].

    The torus quantum numbers run over the integer box that can reach the
    window given the frequency signs; every accumulated eps-series is
    evaluated at the run's epsilon unless an override is given.  alpha is
    the Gevrey index of the divisor function, which sets the remainder
    bound.
    """
    eps = state.epsilon if epsilon is None else epsilon
    geo = state.geometry
    d, d0 = geo.d, geo.d0
    maslov = tuple(int(v) for v in maslov)
    if len(maslov) != d:
        raise ConfigError("Maslov index length must match the torus dimension")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ConfigError("window must be a non-empty interval")

    omega = state.omega_p(eps)
    if np.any(omega == 0.0):
        raise ConfigError("zero frequency component: unbounded enumeration")
    base = state.epsilon_series(eps)
    lam_u, lam_v = resonant_lambdas(state.M_p(eps), d0)
    res_levels = resonant_levels(lam_u, lam_v, eps, h, scaling, n_res_max)
    res_min = res_levels[0][2]
    res_max_off = res_levels[-1][2]

    # per-axis integer ranges able to reach the window
    margin = abs(base) + abs(res_min) + abs(res_max_off) + h * sum(
        abs(w) * (abs(m) / 4.0 + 1.0) for w, m in zip(omega, maslov))
    scale = max(hi - lo, h * float(np.min(np.abs(omega))))
    ranges = []
    for wj in omega:
        reach = (max(abs(lo), abs(hi)) + margin) / (h * abs(wj))
        n_hi = int(math.ceil(reach)) + 1
        ranges.append(range(-n_hi, n_hi + 1))
    total = math.prod(len(r) for r in ranges) * len(res_levels)
    if total > 50_000_000:
        raise ConfigError(f"enumeration too large ({total} candidates); "
                          "narrow the window")

    entries = []
    for ny in itertools.product(*ranges):
        e_tor = base + h * sum(omega[j] * (ny[j] + maslov[j] / 4.0)
                               for j in range(d))
        if e_tor + res_min > hi or e_tor + res_max_off < lo:
            continue
        for nu, nv, er in res_levels:
            e = e_tor + er
            if lo <= e <= hi:
                entries.append((QuantumNumbers(tuple(ny), nu, nv), e))
                if len(entries) > MAX_LEVELS:
                    raise ConfigError("window produced too many levels")
    entries.sort(key=lambda t: t[1])
    return SpectrumPrediction(
        entries=entries, h=h, epsilon=eps, maslov=maslov,
        lambdas_u=lam_u, lambdas_v=lam_v,
        remainder=remainder_bound(h, eps, alpha),
        scaling=scaling)


# ---------------------------------------------------------------------------
# optimal truncation order
# ---------------------------------------------------------------------------

def optimal_n_brute(C: float, delta: float, alpha: float) -> int:
    """argmin over 1 <= n <= 200 of C^(n+1) n!^(alpha-1) delta^n,
    evaluated in logs."""
    best_n, best_v = 1, math.inf
    for n in range(1, 201):
        v = (n + 1) * math.log(C) + (alpha - 1.0) * math.lgamma(n + 1) \
            + n * math.log(delta)
        if v < best_v:
            best_n, best_v = n, v
    return best_n


def optimal_n_stirling(C: float, delta: float, alpha: float) -> float:
    """Stationary point of the same expression under Stirling's formula:
    n* = (C * delta)^(-1/(alpha-1))."""
    return (C * delta) ** (-1.0 / (alpha - 1.0))


# ---------------------------------------------------------------------------
# action index set
# ---------------------------------------------------------------------------

def action_index_set(egamma_points, h: float, L: float, maslov):
    """All m in Z^d with dist(E_gamma, h*(m + maslov/4)) <= L*h.

    E_gamma is a finite sample cloud of admissible actions; the search box
    is its bounding box inflated by L*h.  Returns (sorted list of tuples,
    empty_flag)."""
    pts = np.atleast_2d(np.asarray(egamma_points, dtype=float))
    if pts.size == 0:
        return [], True
    if not (0 < h < math.inf and 0 <= L < math.inf
            and np.isfinite(pts).all()):
        raise ConfigError("need finite h > 0, L >= 0 and actions")
    theta = np.asarray(maslov, dtype=float)
    lo = np.floor((pts.min(axis=0) - L * h) / h - theta / 4.0).astype(int) - 1
    hi = np.ceil((pts.max(axis=0) + L * h) / h - theta / 4.0).astype(int) + 1
    # the box in product order, which is ascending, and its actions
    box = np.array(list(itertools.product(*map(range, lo, hi + 1))))
    I = h * (box + theta / 4.0)
    # box points x cloud points, in blocks of about 2^20 differences
    step = max(1, 2 ** 20 // pts.size)
    dist = np.concatenate([
        np.linalg.norm(pts - I[i:i + step, None], axis=2).min(axis=1)
        for i in range(0, len(I), step)])
    return [tuple(m) for m in box[dist <= L * h + 1e-15].tolist()], False
