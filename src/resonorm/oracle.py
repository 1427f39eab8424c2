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
by the standard ladder matrices U and P at scale sqrt(h/2), built once
per operator; the q digits of a row act as the Kronecker product over
resonant directions of `weyl_uv_power`, McCoy's Weyl ordering of any
monomial u^a v^b (u v is the symmetrized product).  A real symbol gives a
Hermitian matrix.  Products of the truncated ladders are exact only below
the top levels (U U misses the level Nh it would pass through), so every
comparison reads the operator through `interior`, which cuts them.

Storage.  A `ModelOperator` holds the operator once, as its nonzero
entries (row, col, value) in row-major order, both triangles, with
coincident contributions summed at assembly.  Its basis is two int
arrays in `itertools.product` order, `torus_modes` (nt, d) and
`hermite_levels` (nh, d0; one empty row when d0 = 0), and the index of
torus mode t at Hermite level l is t nh + l, so a vector reshaped to
(nt, nh) has one row per torus mode.  Three views read the entries:
`interior` keeps the entries of the principal sub-operator below the
Hermite truncation edge, `window_spectrum` scatters them into one dense
block per connected component, and `ModelOperator.matrix` builds the
dense array for `diagonalize`.

Eigensolves.  The operator is block diagonal over the connected
components of its entries, and each block has its own eigenvalues and
eigenvectors.  The blocks are small when the symbol conserves a Hermite
quantum number: e^{i<k,x>} y^j never changes the levels, and
(eps/2) <z, M z> keeps them when M is diagonal with M_uu = M_vv in each
resonant direction and keeps the parity of the total level otherwise, so
each level, or each parity sector, is a component of its own (the
interior of the benchmark's d = d0 = 1 model, dim 812: 28 tridiagonal
chains of 29 torus modes).  A symbol that couples levels, such as a row
e^{ix} u, leaves one component, the whole operator.  `window_spectrum`
stacks the components of each size into one array and takes one
np.linalg.eigh per size, values and vectors together, in real arithmetic
when every entry is real (five to six times faster than complex on the
blocks of 812 and 841 at Nh = 72).  Both oracle commands thus take one
solve per component size and form no n x n matrix; `scar`
reads the eigenvectors of its matched quasimodes from that solve, and an
exact degeneracy across components gets orthonormal vectors, one per
component.  Every vector handed out, and compare's spot checks, pass a
residual check over the entries.  `diagonalize`, the dense eigh with
checked residuals, is the reference that tests and library callers use.
No dimension is capped: each dense array formed, a size class of stacked
blocks or diagonalize's matrix, is, at DENSE_ENTRIES_MAX entries.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # numpy loads it lazily: at import, not inside a command

from .errors import ConfigError, CoverageError, InvariantError

DENSE_ENTRIES_MAX = 4096 ** 2   # in any one dense array, else ConfigError
# eigenpairs whose residual diagonalize checks, and window eigenvalues whose
# eigenvector window_spectrum checks (all, when fewer)
SPOT_CHECKS = 10
RESIDUAL_TOL = 1e-10       # relative to ||A||_2


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
    off = np.sqrt(h * np.arange(1, Nh) / 2.0)
    return np.diag(off, 1) + np.diag(off, -1)


def hermite_momentum(Nh: int, h: float) -> np.ndarray:
    """<m'|h D_u|m>: i sqrt(h/2) (a^dagger - a)."""
    off = 1j * np.sqrt(h * np.arange(1, Nh) / 2.0)
    return np.diag(off, -1) - np.diag(off, 1)


def weyl_uv_power(upow: int, vpow: int, U: np.ndarray,
                  P: np.ndarray) -> np.ndarray:
    """Weyl quantization of u^upow v^vpow on one Hermite factor with
    ladders U and P, by McCoy's rule

        Op^W(u^a v^b) = 2^(-a) sum_r C(a, r) U^r P^b U^(a-r).

    Left and right multiplication by U commute, so the sum is a-fold
    symmetrization, X <- (U X + X U)/2 starting from X = P^b."""
    X = np.linalg.matrix_power(P, vpow)
    for _ in range(upow):
        X = 0.5 * (U @ X + X @ U)
    return X


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


def build_operator(symbol, h: float, Nt: int, Nh: int) -> ModelOperator:
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
    U, P = hermite_position(Nh, h).astype(complex), hermite_momentum(Nh, h)

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
            osc = np.kron(osc, weyl_uv_power(q[a], q[d0 + a], U, P))
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
    eigenvectors: the reference for the component path, used by tests and
    library callers, not by the CLI.

    Residuals ||A v - lambda v|| of SPOT_CHECKS distinct pairs (all of
    them in a smaller matrix), drawn with a fixed seed, are checked against
    RESIDUAL_TOL * max|lambda|, which equals ||A||_2 for a Hermitian A.
    A matrix of more than DENSE_ENTRIES_MAX entries raises ConfigError."""
    _check_dense(op.dim ** 2, f"the {op.dim} x {op.dim} matrix")
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
    """The window of the component eigensolves, with the eigenvectors of
    the same solves."""

    values: np.ndarray             # ascending eigenvalues in the window
    norm: float                    # ||A||_2 = max|lambda| of the spectrum
    op: ModelOperator
    members: list                  # each component's indices, ascending
    eigvecs: list                  # each component's (s, s) eigenvectors
    source: np.ndarray             # (component, column) of each value

    def vectors(self, idx) -> np.ndarray:
        """Unit eigenvectors for the window values at positions idx, one
        column each in the order of idx: each is its component's eigenvector
        from the solve, zero off the component.  Each column must pass
        ||A x - lambda x|| <= RESIDUAL_TOL ||A||_2 at its own lambda (a
        mat-vec over the entries), or InvariantError is raised; for a
        Hermitian A that proves lambda lies within that distance of the
        spectrum."""
        idx = np.asarray(idx, dtype=np.int64)
        op = self.op
        x = np.zeros((op.dim, idx.size), dtype=complex)
        for j, (k, col) in enumerate(self.source[idx].tolist()):
            x[self.members[k], j] = self.eigvecs[k][:, col]
        ax = np.zeros_like(x)
        np.add.at(ax, op.rows, op.values[:, None] * x[op.cols])
        lams = self.values[idx]
        res = np.linalg.norm(ax - lams * x, axis=0)
        for lam, r in zip(lams.tolist(), res.tolist()):
            if not r <= RESIDUAL_TOL * self.norm:
                raise InvariantError(
                    f"eigenvalue {lam!r} residual {r:.3e} too large")
        return x


def _check_dense(entries: int, what: str):
    if entries > DENSE_ENTRIES_MAX:
        raise ConfigError(f"{what} has {entries} entries, above the "
                          f"dense-array bound of {DENSE_ENTRIES_MAX}")


def _component_labels(n: int, rows, cols) -> np.ndarray:
    """The smallest index of the connected component of each index
    0..n-1 in the graph with edges (rows[i], cols[i]), both directions
    present.

    Min-label propagation with pointer jumping: a label is always an index
    of the same component, and it stops changing once it is the smallest
    index of the component."""
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def window_spectrum(op: ModelOperator, window) -> WindowSpectrum:
    """The eigenvalues of the operator in the closed window [lo, hi], with
    what `WindowSpectrum.vectors` needs, without the n x n matrix.

    The entries split into the connected components of their graph
    (`_component_labels`); components follow their smallest index and keep
    their indices ascending.  The components of each size go into one
    stacked dense array and one np.linalg.eigh call, real when every
    entry of the stack is, so every eigenvalue and eigenvector comes from
    one solve per size; the extremes give max|lambda| = ||A||_2.  A size
    class of more than DENSE_ENTRIES_MAX entries raises ConfigError before
    any block is formed.  Then
    min(SPOT_CHECKS, window size) window values, drawn with a fixed seed,
    are confirmed by `WindowSpectrum.vectors`, which raises on a value off
    the spectrum."""
    n = op.dim
    label = _component_labels(n, op.rows, op.cols)
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    sizes = np.diff(starts, append=n)
    members = np.split(order, starts[1:])
    comp = np.empty(n, dtype=np.int64)         # component of each index
    comp[order] = np.repeat(np.arange(starts.size), sizes)
    pos = np.empty(n, dtype=np.int64)          # its place in the component
    pos[order] = np.arange(n) - np.repeat(starts, sizes)
    counts = np.bincount(sizes)                # components of each size
    entries = counts * np.arange(counts.size) ** 2
    s = int(entries.argmax())
    _check_dense(int(entries[s]), f"{counts[s]} stacked blocks of size {s}")
    eigvecs, vals, source = [None] * len(members), [], []
    for s in np.flatnonzero(counts).tolist():
        ks = np.flatnonzero(sizes == s)
        e = sizes[comp[op.rows]] == s
        A = np.zeros((ks.size, s, s), dtype=complex)
        A[np.searchsorted(ks, comp[op.rows[e]]), pos[op.rows[e]],
          pos[op.cols[e]]] = op.values[e]
        if not A.imag.any():       # real symmetric: the faster real solve
            A = A.real
        try:
            w, v = np.linalg.eigh(A)
        except np.linalg.LinAlgError as exc:
            raise InvariantError(f"eigensolve failed: {exc}") from exc
        for k, vk in zip(ks.tolist(), v):
            eigvecs[k] = vk
        vals.append(w.ravel())
        source.append(np.column_stack((np.repeat(ks, s),
                                       np.tile(np.arange(s), ks.size))))
    vals = np.concatenate(vals)
    rank = np.argsort(vals, kind="stable")
    inside = rank[(vals[rank] >= window[0]) & (vals[rank] <= window[1])]
    spec = WindowSpectrum(values=vals[inside],
                          norm=max(float(np.abs(vals).max()), 1e-300), op=op,
                          members=members, eigvecs=eigvecs,
                          source=np.concatenate(source)[inside])
    rng = np.random.default_rng(0)
    spec.vectors(rng.choice(inside.size, min(SPOT_CHECKS, inside.size),
                            replace=False))
    return spec


# ---------------------------------------------------------------------------
# cluster comparison
# ---------------------------------------------------------------------------

def median(values) -> float:
    """np.median of a non-empty sequence, bit for bit, without loading
    numpy.ma: the middle sorted value, or the mean of the middle two."""
    v = np.sort(np.asarray(values, dtype=float))
    mid = v.size // 2
    return float(v[mid] if v.size % 2 else (v[mid - 1] + v[mid]) / 2)


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
        return median(gaps) if gaps else math.nan

    return ClusterReport(
        clusters=clusters, matched=matched,
        max_center_error=float(c_err), max_width_error=float(w_err),
        intra_spacing_oracle=med_spacing([clusters[i] for i, _ in matched]),
        intra_spacing_predicted=med_spacing([pred_clusters[j]
                                             for _, j in matched]),
        unmatched=len(clusters) - len(matched))
