"""Independent spectral ground truth: small model operators assembled in a
torus-plane-wave (x) Hermite tensor basis, checked Hermitian eigensolves,
cluster extraction, and comparison against a predicted spectrum.

Basis and matrix elements.  Per torus degree of freedom the basis is
e^{i n x}, |n| <= Nt, on which h*D_x acts diagonally as h*n and e^{i k x}
acts as the mode shift n -> n + k (transitions leaving the box are
truncated; comparisons therefore stay away from the box edge).  Per
resonant degree of freedom the basis is the first Nh Hermite levels of the
unit oscillator, with position and momentum given by the standard ladder
matrices at scale sqrt(h/2); Weyl ordering of a mixed monomial u v is the
symmetrized product.

Eigensolves.  In the torus-major order a coupling of mode range K reaches
about K (2 Nt + 1)^(d-1) nh indices off the diagonal (nh Hermite levels
per torus mode), so the bandwidth is about K / (2 Nt + 1) of the
dimension: below 1/6, because the CLI asks for Nt >= required_Nt > 3 K.
`window_eigenvalues` (the compare path) needs eigenvalues only: one
values-only band solve (LAPACK ?hbevd) gives the whole spectrum, and each
checked window value is confirmed by inverse iteration on one band LU.
`diagonalize` (the scar path) needs the eigenvectors of tight clusters and
stays one dense eigh: the band solver with vectors (?hbevx) forms Q densely
and is slower than the dense solve.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, CoverageError, InvariantError

DIM_CAP_DEFAULT = 4096
# eigenpairs whose residual diagonalize checks, and window eigenvalues that
# window_eigenvalues confirms by inverse iteration (all, when fewer)
SPOT_CHECKS = 10
RESIDUAL_TOL = 1e-10       # relative to ||A||_2
SHIFT_OFFSET = 1e-13       # inverse-iteration shift past lambda, of ||A||_2


# ---------------------------------------------------------------------------
# operator specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingTerm:
    """coeff * e^{i<k,x>} * Weyl(u^upow v^vpow); adds its own conjugate when
    `hermitian` is set so the assembled matrix stays self-adjoint."""

    coeff: complex
    k: tuple
    upow: tuple = ()
    vpow: tuple = ()
    hermitian: bool = True


@dataclass(frozen=True)
class OperatorSpec:
    """Symbol data for a model operator.

    torus_poly maps momentum-power tuples to coefficients: the symbol
    sum_a c_a (h n)^a.  quad_u / quad_v are the coefficients of Op(u_j^2)
    and Op(v_j^2) per resonant direction.  couplings holds trigonometric
    (optionally oscillator-weighted) perturbation terms.
    """

    d: int
    d0: int = 0
    torus_poly: tuple = ()         # ((powers, coeff), ...)
    quad_u: tuple = ()
    quad_v: tuple = ()
    couplings: tuple = ()

    @classmethod
    def build(cls, d, d0=0, torus_poly=None, quad_u=None, quad_v=None,
              couplings=None):
        tp = tuple((tuple(p), float(c)) for p, c in (torus_poly or {}).items())
        return cls(d=d, d0=d0, torus_poly=tp,
                   quad_u=tuple(float(v) for v in (quad_u or ())),
                   quad_v=tuple(float(v) for v in (quad_v or ())),
                   couplings=tuple(couplings or ()))

    def coupling_range(self) -> int:
        return max((max(abs(v) for v in t.k) if t.k else 0
                    for t in self.couplings), default=0)


@dataclass
class ModelOperator:
    spec: OperatorSpec
    h: float
    epsilon: float
    Nt: int
    Nh: int
    matrix: np.ndarray
    torus_modes: list              # tuples, aligned with the torus factor
    hermite_levels: list           # tuples, aligned with the Hermite factor

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def basis_labels(self):
        """(torus mode, hermite level) per matrix index, torus factor major."""
        return [(n, m) for n in self.torus_modes for m in self.hermite_levels]


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


def torus_shift(modes: list, k: tuple) -> np.ndarray:
    """Mode-shift matrix of e^{i<k,x>} on the listed torus modes; transitions
    leaving the box are dropped (edge truncation)."""
    index = {n: i for i, n in enumerate(modes)}
    S = np.zeros((len(modes), len(modes)))
    for n, i in index.items():
        target = tuple(a + b for a, b in zip(n, k))
        jdx = index.get(target)
        if jdx is not None:
            S[jdx, i] = 1.0
    return S


# ---------------------------------------------------------------------------
# assembly / diagonalization
# ---------------------------------------------------------------------------

def required_Nt(window_hi: float, h: float, omega_min: float,
                coupling_range: int) -> int:
    """Torus cutoff keeping the comparison window at least three coupling
    ranges away from the box edge."""
    return int(math.ceil(window_hi / (h * max(omega_min, 1e-12)))) \
        + 3 * max(coupling_range, 1)


def build_operator(spec: OperatorSpec, h: float, epsilon: float, Nt: int,
                   Nh: int, *, dim_cap: int = DIM_CAP_DEFAULT) -> ModelOperator:
    """Assemble the Hermitian matrix of the model operator.

    Couplings whose mode shift exceeds the torus box are rejected with the
    cutoff that would be needed.  The assembled matrix is checked for
    Hermiticity to 1e-12 relative.
    """
    if h <= 0:
        raise ConfigError("h must be positive")
    if spec.d0 and Nh < 2:
        raise ConfigError("need at least two Hermite levels per resonant dof")
    krange = spec.coupling_range()
    if krange > Nt:
        raise CoverageError(
            f"torus cutoff Nt={Nt} cannot represent mode shift {krange}; "
            f"need Nt >= {krange}")

    torus_modes = [tuple(n) for n in
                   itertools.product(range(-Nt, Nt + 1), repeat=spec.d)]
    hermite_levels = [tuple(m) for m in
                      itertools.product(range(Nh), repeat=spec.d0)]
    dim = len(torus_modes) * len(hermite_levels)
    if dim > dim_cap:
        raise ConfigError(f"matrix dimension {dim} exceeds cap {dim_cap}")

    nt = len(torus_modes)
    nh = len(hermite_levels)
    eye_h = np.eye(nh, dtype=complex)
    eye_t = np.eye(nt, dtype=complex)

    A = np.zeros((dim, dim), dtype=complex)

    # torus polynomial: diagonal in the plane-wave factor
    if spec.torus_poly:
        diag = np.zeros(nt)
        for i, n in enumerate(torus_modes):
            val = 0.0
            for powers, c in spec.torus_poly:
                val += c * math.prod((h * n[a]) ** p
                                     for a, p in enumerate(powers))
            diag[i] = val
        A += np.kron(np.diag(diag), eye_h)

    # resonant quadratic part
    if spec.d0:
        for j in range(spec.d0):
            cu = spec.quad_u[j] if j < len(spec.quad_u) else 0.0
            cv = spec.quad_v[j] if j < len(spec.quad_v) else 0.0
            if cu == 0.0 and cv == 0.0:
                continue
            blocks_u = [weyl_uv_power(2, 0, Nh, h) if a == j
                        else np.eye(Nh, dtype=complex)
                        for a in range(spec.d0)]
            blocks_v = [weyl_uv_power(0, 2, Nh, h) if a == j
                        else np.eye(Nh, dtype=complex)
                        for a in range(spec.d0)]
            opu = blocks_u[0]
            opv = blocks_v[0]
            for b_u, b_v in zip(blocks_u[1:], blocks_v[1:]):
                opu = np.kron(opu, b_u)
                opv = np.kron(opv, b_v)
            A += np.kron(eye_t, cu * opu + cv * opv)

    # trigonometric couplings
    for term in spec.couplings:
        S = torus_shift(torus_modes, tuple(term.k)).astype(complex)
        if spec.d0:
            osc = None
            for a in range(spec.d0):
                up = term.upow[a] if a < len(term.upow) else 0
                vp = term.vpow[a] if a < len(term.vpow) else 0
                blk = weyl_uv_power(up, vp, Nh, h)
                osc = blk if osc is None else np.kron(osc, blk)
        else:
            osc = eye_h
        piece = complex(term.coeff) * np.kron(S, osc)
        A += piece
        if term.hermitian:
            A += piece.conj().T

    scale = max(np.abs(A).max(), 1e-300)
    if np.abs(A - A.conj().T).max() > 1e-12 * scale:
        raise InvariantError("assembled matrix is not Hermitian")
    return ModelOperator(spec=spec, h=h, epsilon=epsilon, Nt=Nt, Nh=Nh,
                         matrix=A, torus_modes=torus_modes,
                         hermite_levels=hermite_levels)


def interior(op: ModelOperator) -> ModelOperator:
    """The operator restricted to Hermite levels below max(int(0.8 Nh), 1)
    in every resonant direction, which drops the truncation edge of the
    ladder.  The principal submatrix keeps the torus modes and the
    torus-major order, so basis_labels() stays aligned; Nh stays the
    truncation the matrix was assembled at.  Returns op itself when
    nothing is cut."""
    cut = max(int(0.8 * op.Nh), 1)
    levels = [m for m in op.hermite_levels if all(v < cut for v in m)]
    if len(levels) == len(op.hermite_levels):
        return op
    kept = set(levels)
    keep = [i for i, (_, m) in enumerate(op.basis_labels()) if m in kept]
    return replace(op, matrix=op.matrix[np.ix_(keep, keep)],
                   hermite_levels=levels)


def diagonalize(op: ModelOperator):
    """The Hermitian eigensolve: ascending eigenvalues and eigenvectors.

    Residuals ||A v - lambda v|| of SPOT_CHECKS distinct pairs (all of
    them in a smaller matrix), drawn with a fixed seed, are checked against
    RESIDUAL_TOL * max|lambda|, which equals ||A||_2 for a Hermitian A."""
    try:
        vals, vecs = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise InvariantError(f"eigensolve failed: {exc}") from exc
    norm_a = max(float(np.abs(vals).max()), 1e-300)
    idx = np.random.default_rng(0).choice(op.dim, min(SPOT_CHECKS, op.dim),
                                          replace=False)
    for i in idx:
        res = np.linalg.norm(op.matrix @ vecs[:, i] - vals[i] * vecs[:, i])
        if res > RESIDUAL_TOL * norm_a:
            raise InvariantError(f"eigenpair residual {res:.3e} too large")
    return vals, vecs


def window_eigenvalues(op: ModelOperator, window) -> np.ndarray:
    """The ascending eigenvalues of op.matrix in the closed window
    [lo, hi], without eigenvectors.

    The matrix goes into band storage, with the bandwidth read from its
    nonzeros, and one values-only eig_banded call (LAPACK ?hbevd) gives
    every eigenvalue; the extremes give max|lambda| = ||A||_2.  Then
    min(SPOT_CHECKS, window size) window values, drawn with a fixed seed,
    are confirmed by two inverse-iteration steps on one band LU.  The LU
    is factored at lambda + SHIFT_OFFSET ||A||_2, because a value that
    equals a diagonal entry exactly (the epsilon = 0 models) makes
    A - lambda I singular; the residual is measured at lambda itself.  For a
    Hermitian A, ||A x - lambda x|| <= RESIDUAL_TOL ||A||_2 with ||x|| = 1
    proves lambda lies within that distance of the spectrum.  A second step
    keeps a start vector with a small component along the eigenvector from
    failing a true value."""
    from scipy.linalg import eig_banded, get_lapack_funcs

    A, n = op.matrix, op.dim
    rows, cols = np.nonzero(A)
    bw = int(np.abs(rows - cols).max(initial=0))
    # LAPACK general band storage, A[i, j] at ab[2 bw + i - j, j]; the top
    # bw rows are room for the LU's fill-in.  Rows 2 bw .. 3 bw, the
    # diagonal and the bw subdiagonals, are eig_banded's lower storage.
    ab = np.zeros((3 * bw + 1, n), dtype=A.dtype)
    for k in range(-bw, bw + 1):
        ab[2 * bw - k, max(k, 0):n + min(k, 0)] = np.diagonal(A, k)
    try:
        vals = eig_banded(ab[2 * bw:], lower=True, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise InvariantError(f"band eigensolve failed: {exc}") from exc
    norm_a = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    sel = vals[(vals >= window[0]) & (vals <= window[1])]

    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    rng = np.random.default_rng(0)
    for lam in sel[rng.choice(sel.size, min(SPOT_CHECKS, sel.size),
                              replace=False)].tolist():
        shifted = ab.copy()
        shifted[2 * bw] -= lam + SHIFT_OFFSET * norm_a
        lu, piv, info = gbtrf(shifted, bw, bw)
        if info != 0:
            raise InvariantError(
                f"band LU at window eigenvalue {lam!r} failed (info {info})")
        x = rng.standard_normal((n, 1)).astype(A.dtype)
        for _ in range(2):
            x, _ = gbtrs(lu, bw, bw, x / np.linalg.norm(x), piv)
        x = x[:, 0] / np.linalg.norm(x)
        res = np.linalg.norm(A @ x - lam * x)
        if not res <= RESIDUAL_TOL * norm_a:
            raise InvariantError(
                f"window eigenvalue {lam!r} residual {res:.3e} too large")
    return sel


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
    predicted_clusters: list
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

    lam_u, lam_v = prediction.lambdas_u, prediction.lambdas_v
    eps, h = prediction.epsilon, prediction.h
    if lam_u.size and eps != 0.0:
        if prediction.scaling == "component":
            intra = 0.5 * abs(eps) * float(
                min(lam_u.min(), lam_v.min()) if lam_v.size else lam_u.min())
        else:
            intra = abs(eps) * h * float(
                np.sqrt(np.maximum(lam_u * lam_v, 0.0)).min())
        gap = gap_factor * intra
    else:
        gap = 0.5 * h
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
        clusters=clusters, predicted_clusters=pred_clusters, matched=matched,
        max_center_error=float(c_err), max_width_error=float(w_err),
        intra_spacing_oracle=med_spacing([clusters[i] for i, _ in matched]),
        intra_spacing_predicted=med_spacing([pred_clusters[j]
                                             for _, j in matched]),
        unmatched=len(clusters) - len(matched))
