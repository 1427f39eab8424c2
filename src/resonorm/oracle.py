"""Independent spectral ground truth: the Weyl quantization of a
Fourier-Taylor symbol in a torus-plane-wave (x) Hermite tensor basis,
checked Hermitian eigensolves, cluster extraction, and comparison against
a predicted spectrum.

The symbol.  `build_operator` quantizes a real `FourierTaylorSeries`
sum c e^{i<k,x>} y^j z^q in absolute units; the CLI passes the integrable
part N = <omega_p, y> + (eps/2) <z, M_p z> of the normal form, all of M_p,
plus the `[oracle] coupling` rows.

Basis and the midpoint rule.  Per torus degree of freedom the basis is
e^{i n x}, |n| <= Nt.  The Weyl quantization of e^{i k x} f(y) maps
e^{i n x} to f(h (n + k/2)) e^{i (n + k) x}, the symbol read at the
midpoint of the transition, so a row (k, j, q, c) acts on the torus
factor as c e^{i<k,x>} prod_a (h (n_a + k_a/2))^(j_a); transitions
leaving the box are dropped, and comparisons therefore stay away from the
box edge.  Per resonant degree of freedom the basis is the first Nh
Hermite levels of the unit oscillator, with position and momentum given
by the standard ladder matrices at scale sqrt(h/2); the q digits of a row
act as the Kronecker product over resonant directions of the Weyl-ordered
monomials `weyl_uv_power` (u v is the symmetrized product).  A real
symbol gives a Hermitian matrix.

Storage.  A `ModelOperator` holds the operator once, as its nonzero
entries (row, col, value) in row-major order, both triangles, with
coincident contributions summed at assembly.  Its basis is two int
arrays in `itertools.product` order, `torus_modes` (nt, d) and
`hermite_levels` (nh, d0; one empty row when d0 = 0), and the index of
torus mode t at Hermite level l is t nh + l, so a vector reshaped to
(nt, nh) has one row per torus mode.  Three views read the entries:
`interior` keeps the entries of the principal sub-operator below the
Hermite truncation edge, `window_spectrum` scatters them into band
storage in component order, and `ModelOperator.matrix` builds the dense
array for `diagonalize`.

Eigensolves.  In the torus-major order a row of mode range K reaches
about K (2 Nt + 1)^(d-1) nh indices off the diagonal (nh Hermite levels
per torus mode), so the bandwidth is about K / (2 Nt + 1) of the
dimension: below 1/6, because the CLI asks for Nt >= required_Nt > 3 K.
`window_spectrum` first reorders the basis by the connected components
of the entries, each component keeping its torus-major order.  P A P^T
has the eigenvalues of A, and the bandwidth can only shrink, since only
other components' indices leave the gap between two entries.  It shrinks
when the symbol conserves a Hermite quantum number: e^{i<k,x>} y^j never
changes the levels, and (eps/2) <z, M z> keeps them when M is diagonal
with M_uu = M_vv in each resonant direction and keeps the parity of the
total level otherwise, so each level, or each parity sector, is a block
of its own (the interior of the benchmark's d = d0 = 1 model, dim 812:
bandwidth 1 in place of 28).  A symbol that couples levels, such as a
row e^{ix} u, leaves one component, the identity order and the
torus-major band.  Both oracle commands take one values-only band solve
(LAPACK ?hbevd, `window_spectrum`), which gives the whole spectrum
without forming the n x n matrix.  Eigenvectors, which `scar` needs for
its matched quasimodes only, come from inverse iteration on a band LU
shifted next to each value (`WindowSpectrum.vectors`, which also
confirms compare's spot checks); the band solver with vectors (?hbevx)
forms Q densely and is slower than a dense solve.  `diagonalize`, the
dense eigh with checked residuals, is the reference that tests and
library callers use.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import ConfigError, CoverageError, InvariantError

DIM_CAP_DEFAULT = 4096
# eigenpairs whose residual diagonalize checks, and window eigenvalues that
# window_spectrum confirms by inverse iteration (all, when fewer)
SPOT_CHECKS = 10
RESIDUAL_TOL = 1e-10       # relative to ||A||_2
SHIFT_OFFSET = 1e-13       # inverse-iteration shift past a cluster, of ||A||_2


@dataclass
class ModelOperator:
    """An assembled operator: values[i] at (rows[i], cols[i]), distinct
    nonzero positions in row-major order, both triangles."""

    Nh: int
    torus_modes: np.ndarray        # (nt, d) ints, the torus factor
    hermite_levels: np.ndarray     # (nh, d0) ints, the Hermite factor
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.torus_modes) * len(self.hermite_levels)

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, built from the entries on every access."""
        A = np.zeros((self.dim, self.dim), dtype=complex)
        A[self.rows, self.cols] = self.values
        return A


# ---------------------------------------------------------------------------
# one-dof building blocks
# ---------------------------------------------------------------------------

def hermite_position(Nh: int, h: float) -> np.ndarray:
    """<m'|u|m> ladder matrix: sqrt(h/2) (a + a^dagger)."""
    U = np.zeros((Nh, Nh))
    for m in range(Nh - 1):
        U[m, m + 1] = U[m + 1, m] = math.sqrt(h * (m + 1) / 2.0)
    return U


def hermite_momentum(Nh: int, h: float) -> np.ndarray:
    """<m'|h D_u|m>: i sqrt(h/2) (a^dagger - a)."""
    P = np.zeros((Nh, Nh), dtype=complex)
    for m in range(Nh - 1):
        P[m + 1, m] = 1j * math.sqrt(h * (m + 1) / 2.0)
        P[m, m + 1] = -1j * math.sqrt(h * (m + 1) / 2.0)
    return P


def weyl_uv_power(upow: int, vpow: int, Nh: int, h: float) -> np.ndarray:
    """Weyl quantization of u^upow v^vpow on one Hermite factor.

    Supported monomials: 1, u, v, u^2, v^2, u v (symmetrized product);
    higher powers are outside the model class.
    """
    U = hermite_position(Nh, h).astype(complex)
    P = hermite_momentum(Nh, h)
    key = (upow, vpow)
    if key == (0, 0):
        return np.eye(Nh, dtype=complex)
    if key == (1, 0):
        return U
    if key == (0, 1):
        return P
    if key == (2, 0):
        return U @ U
    if key == (0, 2):
        return P @ P
    if key == (1, 1):
        return 0.5 * (U @ P + P @ U)
    raise ConfigError(f"unsupported oscillator monomial u^{upow} v^{vpow}")


# ---------------------------------------------------------------------------
# assembly / diagonalization
# ---------------------------------------------------------------------------

def required_Nt(window_hi: float, h: float, omega_min: float,
                kmax: int) -> int:
    """Torus cutoff keeping the comparison window at least three mode
    ranges of the symbol (its largest |k|, at least 1) away from the box
    edge."""
    return int(math.ceil(window_hi / (h * max(omega_min, 1e-12)))) \
        + 3 * max(kmax, 1)


def _sum_coincident(keys, vals):
    """The distinct keys, ascending, and per key the sum of its values,
    added in their order of appearance."""
    out, at = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(out), dtype=complex)
    np.add.at(sums, at, vals)
    return out, sums


def build_operator(symbol, h: float, Nt: int, Nh: int, *,
                   dim_cap: int = DIM_CAP_DEFAULT) -> ModelOperator:
    """Weyl-quantize a real FourierTaylorSeries symbol on the torus box
    |n| <= Nt (x) Nh Hermite levels per resonant direction.

    Each row (k, j, q, c) maps e^{inx} (x) |m> to
    c prod_a (h (n_a + k_a/2))^(j_a) e^{i(n+k)x} (x) W_q |m>, where W_q is
    the Kronecker product of weyl_uv_power(q_u_a, q_v_a) over the resonant
    directions; transitions leaving the box are dropped.  Contributions to
    one position are summed in the order of the rows.  A mode beyond Nt
    raises CoverageError with the cutoff that would be needed; the entries
    are checked against their conjugate transpose to 1e-12 relative, so a
    non-real symbol raises InvariantError.
    """
    g = symbol.geometry
    d, d0 = g.d, g.d0
    if h <= 0:
        raise ConfigError("h must be positive")
    if d0 and Nh < 2:
        raise ConfigError("need at least two Hermite levels per resonant dof")
    krange = symbol.kmax
    if krange > Nt:
        raise CoverageError(
            f"torus cutoff Nt={Nt} cannot represent mode shift {krange}; "
            f"need Nt >= {krange}")

    # np.array of [()] is the (1, 0) array that d0 = 0 needs
    n = np.array(list(itertools.product(range(-Nt, Nt + 1), repeat=d)),
                 dtype=np.int64)
    hermite_levels = np.array(list(itertools.product(range(Nh), repeat=d0)),
                              dtype=np.int64)
    nh = len(hermite_levels)
    dim = len(n) * nh
    if dim > dim_cap:
        raise ConfigError(f"matrix dimension {dim} exceeds cap {dim_cap}")

    parts = [(np.zeros(0, np.int64),) * 2 + (np.zeros(0, complex),)]
    for row, c in zip(symbol.exps(), symbol.coefs()):
        k, j, q = row[:d], row[d:2 * d], row[2 * d:]
        target = n + k
        inside = (np.abs(target) <= Nt).all(axis=1)
        src = np.flatnonzero(inside)
        dst = np.ravel_multi_index((target[inside] + Nt).T, (2 * Nt + 1,) * d)
        f = c * np.prod((h * (n[inside] + k / 2.0)) ** j, axis=1)
        osc = np.ones((1, 1), dtype=complex)
        for a in range(d0):
            osc = np.kron(osc, weyl_uv_power(q[a], q[d0 + a], Nh, h))
        oi, oj = np.nonzero(osc)
        parts.append(((dst[:, None] * nh + oi).ravel(),
                      (src[:, None] * nh + oj).ravel(),
                      (f[:, None] * osc[oi, oj]).ravel()))
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    keys, values = _sum_coincident(rows * dim + cols, vals)
    nonzero = values != 0
    keys, values = keys[nonzero], values[nonzero]
    rows, cols = np.divmod(keys, dim)

    # each value against the conjugate of its mirror entry, zero if absent
    _, gap = _sum_coincident(np.concatenate((keys, cols * dim + rows)),
                             np.concatenate((values, -values.conj())))
    scale = max(np.abs(values).max(initial=0.0), 1e-300)
    if np.abs(gap).max(initial=0.0) > 1e-12 * scale:
        raise InvariantError("assembled matrix is not Hermitian")
    return ModelOperator(Nh=Nh, torus_modes=n,
                         hermite_levels=hermite_levels, rows=rows, cols=cols,
                         values=values)


def interior(op: ModelOperator) -> ModelOperator:
    """The operator restricted to Hermite levels below max(int(0.8 Nh), 1)
    in every resonant direction, which drops the truncation edge of the
    ladder.  The principal sub-operator keeps the torus modes and the
    torus-major order; Nh stays the truncation the operator was assembled
    at.  Returns op itself when nothing is cut."""
    kept = (op.hermite_levels < max(int(0.8 * op.Nh), 1)).all(axis=1)
    if kept.all():
        return op
    keep = np.tile(kept, len(op.torus_modes))
    index = np.cumsum(keep) - 1
    both = keep[op.rows] & keep[op.cols]
    return replace(op, rows=index[op.rows[both]], cols=index[op.cols[both]],
                   values=op.values[both],
                   hermite_levels=op.hermite_levels[kept])


def diagonalize(op: ModelOperator):
    """The dense Hermitian eigensolve, ascending eigenvalues and
    eigenvectors: the reference for the band path, used by tests and
    library callers, not by the CLI.

    Residuals ||A v - lambda v|| of SPOT_CHECKS distinct pairs (all of
    them in a smaller matrix), drawn with a fixed seed, are checked against
    RESIDUAL_TOL * max|lambda|, which equals ||A||_2 for a Hermitian A."""
    A = op.matrix
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise InvariantError(f"eigensolve failed: {exc}") from exc
    norm_a = max(float(np.abs(vals).max()), 1e-300)
    idx = np.random.default_rng(0).choice(op.dim, min(SPOT_CHECKS, op.dim),
                                          replace=False)
    for i in idx:
        res = np.linalg.norm(A @ vecs[:, i] - vals[i] * vecs[:, i])
        if res > RESIDUAL_TOL * norm_a:
            raise InvariantError(f"eigenpair residual {res:.3e} too large")
    return vals, vecs


@dataclass
class WindowSpectrum:
    """The window of one values-only band eigensolve, with what inverse
    iteration needs to add eigenvectors for chosen values."""

    values: np.ndarray             # ascending eigenvalues in the window
    norm: float                    # ||A||_2 = max|lambda| of the spectrum
    op: ModelOperator
    band: np.ndarray               # general band storage, room for the LU
    bw: int
    perm: np.ndarray               # operator index at each band position

    def vectors(self, lams) -> np.ndarray:
        """Unit eigenvectors for the eigenvalues lams, one column each in
        the order of lams, by inverse iteration on a band LU.

        Sorted values closer than RESIDUAL_TOL ||A||_2 form a cluster, as in
        LAPACK ?stein: it shares one LU, factored SHIFT_OFFSET ||A||_2 above
        its top value, because a value that equals a diagonal entry exactly
        (the epsilon = 0 models) makes A - lambda I singular.  A cluster's
        start block, standard normal rows from a fixed seed, one per value
        in the order of lams, takes two solve steps with a QR
        orthonormalization before each and after the last.  The QR columns
        span the cluster's eigenspace but mix its values, so a cluster of
        more than one value is rotated onto its Ritz vectors (the
        eigenvectors of x^H A x), assigned to the members in ascending
        order: that resolves distinct values and stays valid for exact
        degeneracies.  Each column must pass
        ||A x - lambda x|| <= RESIDUAL_TOL ||A||_2 at its own lambda (a
        mat-vec over the entries), or InvariantError is raised; for a
        Hermitian A that proves lambda lies within that distance of the
        spectrum.  The second step keeps a start vector with a small
        component along the eigenvector from failing a true value.

        Everything but the band solve is in operator order: each solve
        permutes its right-hand sides into band order and its solutions
        back."""
        lams = np.asarray(lams, dtype=float)
        op, bw, perm = self.op, self.bw, self.perm
        at = np.argsort(perm)      # the band position of each index
        tol = RESIDUAL_TOL * self.norm
        # the start vectors, replaced by the eigenvectors cluster by cluster
        out = np.random.default_rng(0).standard_normal(
            (lams.size, op.dim)).T.astype(complex)
        if not lams.size:
            return out
        gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"),
                                                     (self.band,))
        order = np.argsort(lams, kind="stable")
        cuts = np.flatnonzero(np.diff(lams[order]) > tol) + 1
        for members in np.split(order, cuts):
            top = float(lams[members[-1]])
            shifted = self.band.copy()
            shifted[2 * bw] -= top + SHIFT_OFFSET * self.norm
            lu, piv, info = gbtrf(shifted, bw, bw)
            if info != 0:
                raise InvariantError(
                    f"band LU at eigenvalue {top!r} failed (info {info})")
            x = out[:, members]
            for _ in range(2):
                x, _ = gbtrs(lu, bw, bw, np.linalg.qr(x)[0][perm], piv)
                x = x[at]
            x = np.linalg.qr(x)[0]
            ax = np.zeros_like(x)
            np.add.at(ax, op.rows, op.values[:, None] * x[op.cols])
            if members.size > 1:
                h = x.conj().T @ ax
                _, w = np.linalg.eigh(0.5 * (h + h.conj().T))
                x, ax = x @ w, ax @ w
            res = np.linalg.norm(ax - lams[members] * x, axis=0)
            for lam, r in zip(lams[members].tolist(), res.tolist()):
                if not r <= tol:
                    raise InvariantError(
                        f"eigenvalue {lam!r} residual {r:.3e} too large")
            out[:, members] = x
        return out


def _component_order(n: int, rows, cols) -> np.ndarray:
    """A stable order of the indices 0..n-1 by connected component of the
    graph with edges (rows[i], cols[i]), both directions present: each
    component's indices keep their order, and the components follow their
    smallest index.  The identity for a connected graph.

    Min-label propagation with pointer jumping: a label is always an index
    of the same component, and it stops changing once it is the smallest
    index of the component."""
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return np.argsort(label, kind="stable")
        label = new


def window_spectrum(op: ModelOperator, window) -> WindowSpectrum:
    """The eigenvalues of the operator in the closed window [lo, hi],
    without the dense matrix; `WindowSpectrum.vectors` adds eigenvectors.

    The entries go into band storage in component order
    (`_component_order`: P A P^T has the eigenvalues of A, and a connected
    operator keeps its order), with the bandwidth max |row - col| after
    the reorder, never more than before it, and one values-only
    eig_banded call (LAPACK ?hbevd) gives every eigenvalue; the extremes
    give max|lambda| = ||A||_2.  Then
    min(SPOT_CHECKS, window size) window values, drawn with a fixed seed,
    are confirmed by `WindowSpectrum.vectors`, which raises on a value off
    the spectrum."""
    n = op.dim
    perm = _component_order(n, op.rows, op.cols)
    at = np.argsort(perm)          # the band position of each index
    rows, cols = at[op.rows], at[op.cols]
    bw = int(np.abs(rows - cols).max(initial=0))
    # LAPACK general band storage, A[i, j] at ab[2 bw + i - j, j]; the top
    # bw rows are room for the LU's fill-in.  Rows 2 bw .. 3 bw, the
    # diagonal and the bw subdiagonals, are eig_banded's lower storage.
    ab = np.zeros((3 * bw + 1, n), dtype=complex)
    ab[2 * bw + rows - cols, cols] = op.values
    try:
        vals = scipy.linalg.eig_banded(ab[2 * bw:], lower=True,
                                       eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise InvariantError(f"band eigensolve failed: {exc}") from exc
    norm_a = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    sel = vals[(vals >= window[0]) & (vals <= window[1])]
    spec = WindowSpectrum(values=sel, norm=norm_a, op=op, band=ab, bw=bw,
                          perm=perm)
    rng = np.random.default_rng(0)
    spec.vectors(sel[rng.choice(sel.size, min(SPOT_CHECKS, sel.size),
                                replace=False)])
    return spec


# ---------------------------------------------------------------------------
# cluster comparison
# ---------------------------------------------------------------------------

@dataclass
class Cluster:
    center: float
    width: float
    count: int
    members: np.ndarray


@dataclass
class ClusterReport:
    clusters: list
    matched: list                  # (cluster index, predicted index)
    max_center_error: float
    max_width_error: float
    intra_spacing_oracle: float
    intra_spacing_predicted: float
    unmatched: int


def split_clusters(values: np.ndarray, gap: float) -> list:
    """Greedy split of an ascending array at gaps larger than `gap`."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    out = []
    start = 0
    for i in range(1, values.size):
        if values[i] - values[i - 1] > gap:
            out.append(values[start:i])
            start = i
    out.append(values[start:])
    return [Cluster(center=float(v.mean()), width=float(v[-1] - v[0]),
                    count=int(v.size), members=v) for v in out]


def match_spectrum(eigs, prediction, *,
                   gap_factor: float = 4.0) -> ClusterReport:
    """Cluster the oracle eigenvalues and pair them with the prediction.

    The split threshold is gap_factor times the predicted
    intra-cluster spacing (falling back to half the coarse torus spacing
    when the resonant part is absent); clusters are then greedily matched
    to predicted clusters by nearest center.  Count mismatches are
    reported, not raised.
    """
    eigs = np.sort(np.asarray(eigs, dtype=float))
    pred_e = prediction.energies()
    ids = prediction.cluster_ids()

    h = prediction.h
    intra = prediction.intra_step()
    gap = 0.5 * h if intra is None else gap_factor * intra
    clusters = split_clusters(eigs, gap)

    pred_clusters = []
    for cid in sorted(set(ids)):
        vals = np.sort(pred_e[ids == cid])
        pred_clusters.append(Cluster(center=float(vals.mean()),
                                     width=float(vals[-1] - vals[0]),
                                     count=int(vals.size), members=vals))
    pred_clusters.sort(key=lambda c: c.center)

    matched = []
    used = set()
    for i, cl in enumerate(clusters):
        best = None
        best_d = math.inf
        for jdx, pc in enumerate(pred_clusters):
            if jdx in used:
                continue
            dd = abs(pc.center - cl.center)
            if dd < best_d:
                best, best_d = jdx, dd
        if best is not None and best_d <= max(gap, 0.5 * h):
            used.add(best)
            matched.append((i, best))

    c_err = max((abs(clusters[i].center - pred_clusters[j].center)
                 for i, j in matched), default=math.nan)
    w_err = max((abs(clusters[i].width - pred_clusters[j].width)
                 for i, j in matched), default=math.nan)

    def med_spacing(cls):
        gaps = [g for c in cls if c.count > 1 for g in np.diff(c.members)]
        return float(np.median(gaps)) if gaps else math.nan

    return ClusterReport(
        clusters=clusters, matched=matched,
        max_center_error=float(c_err), max_width_error=float(w_err),
        intra_spacing_oracle=med_spacing([clusters[i] for i, _ in matched]),
        intra_spacing_predicted=med_spacing([pred_clusters[j]
                                             for _, j in matched]),
        unmatched=len(clusters) - len(matched))
