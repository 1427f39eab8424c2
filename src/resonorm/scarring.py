"""Localization diagnostics: quasi-eigenvalue tables and separation,
energy-window censuses against oracle spectra, action-map bi-Lipschitz
constants, and microlocal mass of eigenvectors on a torus momentum window.

The quasi-eigenvalue attached to a lattice action I_m = h*(m + theta/4) is
the normal-form action function evaluated there, optionally shifted by the
resonant ground energy so that the windows sit on the physical branch of
the spectrum.  The mass proxy realizes the phase-space cutoff around a
torus as a sharp projector onto the plane-wave modes whose momentum lies
in the window; smooth cutoffs differ only by basis-boundary terms, which
the comparison windows exclude.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantError
from .gevrey import ApproximationFunction
from .kam import NormalFormState
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
    entries: list                  # (m tuple, I_m array, mu_m float)
    h: float
    epsilon: float
    maslov: tuple
    offset: float = 0.0

    def mus(self) -> np.ndarray:
        return np.array([mu for _, _, mu in self.entries])


def build_quasi_table(state: NormalFormState, h: float, maslov, modes, *,
                      offset: float = 0.0) -> QuasiEigenvalueTable:
    """Evaluate the action function on I_m = h*(m + maslov/4) for the given
    lattice indices."""
    theta = np.asarray(maslov, dtype=float)
    ledger = state.ledger_averages()
    entries = []
    for m in modes:
        I_m = h * (np.asarray(m, dtype=float) + theta / 4.0)
        mu = state.k0_polynomial(I_m, ledger=ledger) + offset
        entries.append((tuple(int(v) for v in m), I_m, float(mu)))
    entries.sort(key=lambda t: t[2])
    return QuasiEigenvalueTable(entries=entries, h=h, epsilon=state.epsilon,
                                maslov=tuple(int(v) for v in maslov),
                                offset=offset)


@dataclass(frozen=True)
class EnergyWindow:
    m: tuple
    center: float
    halfwidth: float

    @property
    def lo(self) -> float:
        return self.center - self.halfwidth

    @property
    def hi(self) -> float:
        return self.center + self.halfwidth


def energy_windows(table: QuasiEigenvalueTable, delta_exp: float) -> list:
    """Windows of half-width h^delta/3 around each quasi-eigenvalue;
    delta_exp must exceed 7/4."""
    if delta_exp <= 1.75:
        raise ConfigError("window exponent must exceed 7/4")
    hw = table.h ** delta_exp / 3.0
    return [EnergyWindow(m=m, center=mu, halfwidth=hw)
            for m, _, mu in table.entries]


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
    ref = h ** 1.5
    measured = math.inf
    violations = []
    pairs = 0
    scale = max(abs(mu) for _, _, mu in table.entries) if table.entries else 1.0
    for (m1, I1, mu1), (m2, I2, mu2) in itertools.combinations(table.entries, 2):
        if np.linalg.norm(I1 - I2) > gap:
            continue
        pairs += 1
        dmu = abs(mu1 - mu2)
        measured = min(measured, dmu / ref)
        if dmu <= 1e-13 * max(1.0, scale):
            violations.append((m1, m2, dmu))
    return SeparationReport(violations=violations,
                            measured_C2=measured if pairs else math.nan,
                            qualifying_pairs=pairs)


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
    """Count oracle eigenvalues inside each energy window, form the set of
    indices whose count stays below lam*R, and report its fraction.

    Overlapping windows abort the census: the separation hypothesis failed
    and the counts would be double-booked.
    """
    if lam <= 1.0:
        raise ConfigError("lam must exceed 1")
    wins = energy_windows(table, delta_exp)
    wins_sorted = sorted(wins, key=lambda w: w.center)
    for a, b in zip(wins_sorted, wins_sorted[1:]):
        if a.hi > b.lo:
            raise InvariantError(
                f"windows overlap at {a.m} / {b.m}: separation failed")
    eigs = np.sort(np.asarray(oracle_eigs, dtype=float))
    counts = {}
    for w in wins:
        lo_i = np.searchsorted(eigs, w.lo, side="left")
        hi_i = np.searchsorted(eigs, w.hi, side="right")
        counts[w.m] = int(hi_i - lo_i)
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

def torus_window_modes(torus_modes, h: float, I_center, width: float):
    """Plane-wave modes n with |h*n - I| <= width component-wise."""
    I_center = np.atleast_1d(np.asarray(I_center, dtype=float))
    out = set()
    for n in torus_modes:
        if np.all(np.abs(h * np.asarray(n, dtype=float) - I_center) <= width):
            out.add(tuple(n))
    return out


def mass_on_torus(eigvec, basis_labels, window_modes) -> float:
    """Squared component mass of an eigenvector on basis states whose torus
    quantum number lies in the window; in [0, 1].  An empty window gives 0."""
    if not window_modes:
        return 0.0
    v = np.asarray(eigvec)
    total = 0.0
    for i, (n, _m) in enumerate(basis_labels):
        if tuple(n) in window_modes:
            total += float(abs(v[i]) ** 2)
    return total


def match_quasimodes(table: QuasiEigenvalueTable, oracle_eigs):
    """Nearest-eigenvalue matching: for each table entry, the index of the
    closest oracle eigenvalue within half the median gap."""
    eigs = np.sort(np.asarray(oracle_eigs, dtype=float))
    gaps = np.diff(eigs)
    tol = 0.5 * float(np.median(gaps)) if gaps.size else math.inf
    out = []
    for m, I_m, mu in table.entries:
        i = int(np.searchsorted(eigs, mu))
        best, best_d = None, math.inf
        for j in (i - 1, i, i + 1):
            if 0 <= j < eigs.size and abs(eigs[j] - mu) < best_d:
                best, best_d = j, abs(eigs[j] - mu)
        if best is not None and best_d <= tol:
            out.append((m, best, float(eigs[best]), best_d))
    return out


# ---------------------------------------------------------------------------
# supporting sweeps
# ---------------------------------------------------------------------------

def weyl_count_check(eigs, band, h: float, d: int, phase_volume: float):
    """Eigenvalue count in the band against (2 pi h)^(-d) * volume;
    returns (count, prediction, relative error)."""
    eigs = np.asarray(eigs, dtype=float)
    lo, hi = band
    count = int(np.count_nonzero((eigs >= lo) & (eigs <= hi)))
    pred = phase_volume / (2.0 * math.pi * h) ** d
    rel = abs(count - pred) / max(pred, 1e-300)
    return count, pred, rel


def epsilon_collision_sweep(state_builder, eps_values, h: float, maslov,
                            modes, delta_exp: float):
    """Fraction of epsilon grid points at which some window pair collides
    (|mu_m - mu_m'| < h^delta); exercises the small-collision-measure
    claim on a grid."""
    hd = h ** delta_exp
    hits = 0
    for eps in eps_values:
        table = build_quasi_table(state_builder(eps), h, maslov, modes)
        mus = table.mus()
        collide = np.any(np.abs(np.subtract.outer(mus, mus))
                         [~np.eye(len(mus), dtype=bool)] < hd) if len(mus) > 1 \
            else False
        hits += bool(collide)
    return hits / max(len(list(eps_values)), 1)
