"""Localization diagnostics: quasi-eigenvalue tables and separation,
energy-window censuses against oracle spectra, action-map bi-Lipschitz
constants, and microlocal mass of eigenvectors on a torus momentum window.

The quasi-eigenvalue attached to a lattice action I_m = h*(m + theta/4) is
the normal-form action function evaluated there, optionally shifted by the
resonant ground energy so that the windows sit on the physical branch of
the spectrum; a `QuasiEigenvalueTable` holds the columns m, I_m and mu_m,
ascending in mu.  The mass proxy realizes the phase-space cutoff around a
torus as a sharp projector onto the plane-wave modes whose momentum lies
in the window, a mask over the oracle's torus modes, which selects whole
rows of a torus-major eigenvector; smooth cutoffs differ only by
basis-boundary terms, which the comparison windows exclude.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # numpy loads it lazily: at import, not inside a command

from .errors import ConfigError, InvariantError
from .gevrey import ApproximationFunction
from .kam import NormalFormState
from .oracle import median
from .quantize import resonant_lambdas, resonant_levels


# ---------------------------------------------------------------------------
# quasi-eigenvalues
# ---------------------------------------------------------------------------

def resonant_ground_energy(state: NormalFormState, h: float,
                           scaling: str = "oscillator") -> float:
    """Zero-point energy of the resonant block under the selected scaling
    convention: the all-zero level of quantize.resonant_levels."""
    lam_u, lam_v = resonant_lambdas(state.M_p(), state.geometry.d0)
    return float(resonant_levels(lam_u, lam_v, state.epsilon, h, scaling,
                                 0)[0][2])


@dataclass
class QuasiEigenvalueTable:
    """One row per lattice index, ascending in mu."""

    m: np.ndarray                  # (n, d) lattice indices
    I: np.ndarray                  # (n, d) actions h*(m + maslov/4)
    mu: np.ndarray                 # (n,) quasi-eigenvalues
    h: float
    epsilon: float
    maslov: tuple
    offset: float = 0.0

    def select(self, mask) -> QuasiEigenvalueTable:
        """The rows where mask holds, in their order."""
        return replace(self, m=self.m[mask], I=self.I[mask], mu=self.mu[mask])


def _labels(m) -> list:
    """The rows of a lattice index array as tuples."""
    return [tuple(r) for r in m.tolist()]


def build_quasi_table(state: NormalFormState, h: float, maslov, modes, *,
                      offset: float = 0.0) -> QuasiEigenvalueTable:
    """Evaluate the action function on I_m = h*(m + maslov/4) for the given
    lattice indices, one row each, and sort the rows by mu (stably)."""
    theta = np.asarray(maslov, dtype=float)
    m = np.array(modes, dtype=np.int64).reshape(-1, theta.size)
    I = h * (m + theta / 4.0)
    mu = state.k0_polynomial(I) + offset
    order = np.argsort(mu, kind="stable")
    return QuasiEigenvalueTable(m=m[order], I=I[order], mu=mu[order], h=h,
                                epsilon=state.epsilon,
                                maslov=tuple(int(v) for v in maslov),
                                offset=offset)


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

@dataclass
class SeparationReport:
    violations: list               # (m, m', |mu diff|)
    measured_C2: float
    qualifying_pairs: int


def separation_check(table: QuasiEigenvalueTable, C1: float,
                     delta_fn: ApproximationFunction) -> SeparationReport:
    """For every pair with |I_m - I_m'| within the slow-divisor action gap,
    measure |mu_m - mu_m'| / h^(3/2); the smallest ratio is the measured
    separation constant, and (near-)coincident quasi-eigenvalues are listed
    as violations."""
    h = table.h
    gap = h * delta_fn.inverse(C1 * h ** (-0.5))
    # the pairs i < j, row-major, that lie within the action gap
    a, b = np.triu_indices(table.mu.size, k=1)
    near = np.linalg.norm(table.I[a] - table.I[b], axis=1) <= gap
    a, b = a[near], b[near]
    dmu = np.abs(table.mu[a] - table.mu[b])
    tie = dmu <= 1e-13 * max(1.0, np.abs(table.mu).max(initial=0.0))
    labels = _labels(table.m)
    return SeparationReport(
        violations=[(labels[i], labels[j], v) for i, j, v in
                    zip(a[tie].tolist(), b[tie].tolist(), dmu[tie].tolist())],
        measured_C2=float((dmu / h ** 1.5).min()) if dmu.size else math.nan,
        qualifying_pairs=int(dmu.size))


# ---------------------------------------------------------------------------
# window census
# ---------------------------------------------------------------------------

@dataclass
class CensusReport:
    counts: dict                   # m -> eigenvalues in the window
    mtilde: list
    fraction: float
    lam: float
    disjoint: bool


def window_census(table: QuasiEigenvalueTable, delta_exp: float,
                  oracle_eigs, *, lam: float, R: float) -> CensusReport:
    """Count oracle eigenvalues inside the energy window [mu - w, mu + w],
    w = h^delta_exp / 3, of each row, form the set of indices whose count
    stays below lam*R, and report its fraction; delta_exp must exceed 7/4.

    Overlapping windows abort the census: the separation hypothesis failed
    and the counts would be double-booked.
    """
    if not lam > 1.0:
        raise ConfigError("lam must exceed 1")
    if not delta_exp > 1.75:
        raise ConfigError("window exponent must exceed 7/4")
    hw = table.h ** delta_exp / 3.0
    lo, hi = table.mu - hw, table.mu + hw
    labels = _labels(table.m)
    order = np.argsort(table.mu, kind="stable")
    clash = np.flatnonzero(hi[order[:-1]] > lo[order[1:]])
    if clash.size:
        i, j = order[clash[0]], order[clash[0] + 1]
        raise InvariantError(f"windows overlap at {labels[i]} / {labels[j]}: "
                             "separation failed")
    eigs = np.sort(np.asarray(oracle_eigs, dtype=float))
    counts = dict(zip(labels, (np.searchsorted(eigs, hi, side="right")
                               - np.searchsorted(eigs, lo, side="left"))
                      .tolist()))
    bound = lam * R
    mtilde = [m for m, c in counts.items() if c < bound]
    fraction = len(mtilde) / len(counts) if counts else math.nan
    return CensusReport(counts=counts, mtilde=mtilde, fraction=fraction,
                        lam=lam, disjoint=True)


# ---------------------------------------------------------------------------
# action-map regularity
# ---------------------------------------------------------------------------

@dataclass
class DiffeoReport:
    min_singular: float
    G1: float
    G2: float
    failures: list


def local_diffeo_check(state: NormalFormState, Dbox, eps_grid, *,
                       grid_nodes: int = 24, pair_samples: int = 10_000,
                       seed: int = 0) -> DiffeoReport:
    """Regularity of the map I -> (K0, d_eps K0, ..., d_eps^(d-1) K0).

    Returns the minimum Jacobian singular value over a grid in the action
    box times the epsilon grid, plus empirical two-sided Lipschitz
    constants G1, G2 from sampled action pairs (G1*|eta(I1)-eta(I2)| <=
    |I1-I2| <= G2*|eta(I1)-eta(I2)|).  Grid points with a singular
    Jacobian are reported with their location.
    """
    d = state.geometry.d
    box = [(float(lo), float(hi)) for lo, hi in Dbox]
    if len(box) != d:
        raise ConfigError("action box dimension mismatch")

    ledger = state.ledger_averages()

    def eta(I, eps):
        """eta at each row of I, one column per eps-derivative order."""
        return np.stack([state.k0_polynomial(I, eps, ledger, order=j)
                         for j in range(d)], axis=1)

    # central differences: row a of the (point, a) block steps coordinate a
    grid = np.array(list(itertools.product(*(np.linspace(lo, hi, grid_nodes)
                                             for lo, hi in box))))
    step = 1e-6 * np.maximum(1.0, np.abs(grid))
    diag = np.arange(d)
    plus = np.repeat(grid[:, None, :], d, axis=1)
    minus = plus.copy()
    plus[:, diag, diag] += step
    minus[:, diag, diag] -= step
    min_sv = math.inf
    failures = []
    for eps in eps_grid:
        diff = eta(plus.reshape(-1, d), eps) - eta(minus.reshape(-1, d), eps)
        jac = (diff.reshape(-1, d, d) / (2.0 * step)[:, :, None]) \
            .transpose(0, 2, 1)
        smallest = np.linalg.svd(jac, compute_uv=False)[:, -1]
        failures += [(tuple(grid[i]), float(eps))
                     for i in np.flatnonzero(smallest < 1e-12)]
        min_sv = min(min_sv, float(smallest.min()))

    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    eps_mid = float(eps_grid[len(eps_grid) // 2])
    pairs = lo + (hi - lo) * rng.random((pair_samples, 2, d))
    etas = eta(pairs.reshape(-1, d), eps_mid).reshape(pair_samples, 2, d)
    de = np.linalg.norm(etas[:, 0] - etas[:, 1], axis=1)
    dI = np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1)
    keep = (de >= 1e-14) & (dI >= 1e-14)
    ratio = dI[keep] / de[keep]
    g1 = float(ratio.min()) if ratio.size else math.inf
    g2 = float(ratio.max()) if ratio.size else 0.0
    return DiffeoReport(min_singular=min_sv, G1=g1, G2=g2, failures=failures)


# ---------------------------------------------------------------------------
# mass on the torus window
# ---------------------------------------------------------------------------

def torus_window_modes(torus_modes, h: float, I_center,
                       width: float) -> np.ndarray:
    """Mask over the rows n of torus_modes: |h*n - I| <= width
    component-wise."""
    I_center = np.atleast_1d(np.asarray(I_center, dtype=float))
    n = np.asarray(torus_modes, dtype=float)
    return (np.abs(h * n - I_center) <= width).all(axis=1)


def mass_on_torus(eigvec, window) -> float:
    """Squared component mass of a torus-major eigenvector on the torus
    modes that the mask `window` selects, summed in index order with
    Python's complex abs; in [0, 1].  An empty window gives 0."""
    v = np.asarray(eigvec).reshape(len(window), -1)[window]
    return sum((abs(x) ** 2 for x in v.ravel().tolist()), 0.0)


def match_quasimodes(table: QuasiEigenvalueTable, oracle_eigs):
    """Nearest-eigenvalue matching: for each table row, (m, index,
    eigenvalue, distance) of the closest sorted oracle eigenvalue next to
    its searchsorted position, the lowest on a tie, within half the
    median gap."""
    eigs = np.sort(np.asarray(oracle_eigs, dtype=float))
    if not eigs.size:
        return []
    gaps = np.diff(eigs)
    tol = 0.5 * median(gaps) if gaps.size else math.inf
    # eigs[i - 1], eigs[i], eigs[i + 1] are padded[i], [i + 1], [i + 2]
    padded = np.pad(eigs, (1, 2), constant_values=math.inf)
    cand = np.searchsorted(eigs, table.mu)[:, None] + np.arange(3)
    dist = np.abs(padded[cand] - table.mu[:, None])
    pick = (np.arange(len(cand)), dist.argmin(axis=1))
    best, best_d = cand[pick] - 1, dist[pick]
    keep = np.isfinite(best_d) & (best_d <= tol)
    return [(m, i, e, d) for m, i, e, d in
            zip(_labels(table.m[keep]), best[keep].tolist(),
                eigs[best[keep]].tolist(), best_d[keep].tolist())]
