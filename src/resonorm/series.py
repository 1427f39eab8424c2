"""Sparse truncated Fourier-Taylor series on T^d x R^d x R^(2*d0).

A series is a finite sum  sum_{k,j,q} c_{kjq} e^{i<k,x>} y^j z^q  with
x in T^d (angles), y in R^d (actions) and z = (u, v) in R^(2*d0) (one
position/momentum pair per resonant direction).  Series values are
immutable: every operation is a pure function returning a new series, so
values can be shared freely.

Representation.  A series stores its support as one integer exponent
matrix, one row per term and 2d + 2d0 columns (the k, j and q digits side
by side), and its coefficients as one complex128 vector.  Rows are
distinct, carry nonzero coefficients and are kept in lexicographic
(k, j, q) order, so equal series have equal arrays and the text form
needs no sort.  One routine, `_canonical`, brings rows into that form for
every constructor and operation that can yield them unsorted or repeated
(the dict and array constructors, +, * and conjugate); the bracket merges
its int64 codes itself.  Operations drop coefficients with |c| <=
PRUNE_EPS silently: an epsilon floor, not a truncation, so nothing else
is cut and nothing is logged.  Both constructors reject negative powers
with one helper, `_check_powers`.  A series is its rows: its Fourier
radius `kmax` and degree `degmax` are read from them, the largest |k| and
the largest |j| + |q| stored (0 for the zero series), so equal series
have equal bounds.  Only `from_text` checks rows against bounds, those
its file header declares.  `terms()` decodes the rows into ((k, j, q), c)
tuples for callers that walk a series term by term.

The generator ansatz (modes carrying 1, y_i, z_a and z_a z_b) has one
codec, `ansatz_blocks` and its inverse `ansatz_arrays`.  The k = 0
factories (`constant`, `linear_y`, `linear_z`, `quadratic_z`) and the
integrable part N of a normal form (`integrable_part`) are built through
it.

The canonical bracket convention used throughout is

    {f, g} = sum_i (df/dy_i dg/dx_i - df/dx_i dg/dy_i)
           + sum_j (df/du_j dg/dv_j - df/dv_j dg/du_j)

which makes {<w,y>, e^{i<k,x>}} = i<k,w> e^{i<k,x>}.

The bracket runs as d + d0 channels.  Channel i (angle/action pair) is
i(j1_i k2_i - k1_i j2_i), channel a (resonant pair u_a, v_a) is
q1_u q2_v - q1_v q2_u, each digit standing for a derivative.  Each
difference is two products, and a product pairs only the rows of f with a
nonzero digit in one column (coefficient times digit) with the rows of g
with a nonzero digit in the other, so no pair of zero weight is formed.
Exponent rows are packed into transient int64 codes in a mixed radix taken
from the operands' digit ranges (the Kronecker substitution), so the
product monomial is code1 + code2 and the derivative is a fixed stride
subtracted per channel.  The products are summed in one of two ways:

* densely, when the code width (the product of the radices) is at most
  DENSE_CELLS_PER_PAIR cells per pair formed and the products' shorter
  sides hold DENSE_COLUMN pairs per row on average: one indexed add into
  a complex array of width cells per row of a product's shorter side.
  The rows on the other side have distinct codes, so no add repeats a
  cell, and the nonzero cells come out in code order, which is canonical
  order.
* by sort otherwise (small brackets, and wide codes up to the CODE_BITS
  guard): the pairs are formed in blocks of PAIR_BLOCK, and equal codes are
  merged by a stable sort and a segment sum whenever the terms formed
  since the last merge outnumber the merged result, and once more at the
  end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, GeometryMismatchError, InvariantError

PRUNE_EPS = 1e-15
LIE_ORDER_CAP = 32
#: Product pairs the bracket's sort path forms at once; bounds its scratch
#: memory.
PAIR_BLOCK = 4096
#: Widest mixed-radix code the bracket packs into an int64.
CODE_BITS = 62
#: Most accumulator cells per pair formed for which the bracket sums densely;
#: bounds the accumulator's memory by the work.
DENSE_CELLS_PER_PAIR = 4
#: Fewest pairs per indexed add, on average, for which it sums densely; a
#: shorter add costs more per pair than the sort.
DENSE_COLUMN = 64


@dataclass(frozen=True)
class PhaseGeometry:
    """Dimension bookkeeping: d angle/action pairs, d0 resonant pairs."""

    d: int
    d0: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need at least one angle/action pair (d >= 1)")
        if self.d0 < 0:
            raise ValueError("d0 must be non-negative")

    @property
    def l(self) -> int:
        return self.d + self.d0

    @property
    def zdim(self) -> int:
        return 2 * self.d0

    @property
    def width(self) -> int:
        """Columns of an exponent row: k, j and q digits."""
        return 2 * self.d + self.zdim


def knorm(k) -> int:
    """Sup-norm of a Fourier multi-index; the |k| used by all cutoffs."""
    return max((abs(int(c)) for c in k), default=0)


# -- array helpers -----------------------------------------------------------

def _canonical(exps, coefs, *, prune):
    """Canonical form of rows in any order: sorted lexicographically, the
    coefficients of equal rows added one by one in their order of
    appearance (the sort is stable), as a dict accumulates them, and zeros
    dropped, exact zeros before the sum too.  With prune, |c| <= PRUNE_EPS
    goes as well."""
    nonzero = coefs != 0
    exps, coefs = exps[nonzero], coefs[nonzero]
    order = np.lexsort(exps.T[::-1])
    exps, coefs = exps[order], coefs[order]
    first = np.ones(len(exps), dtype=bool)
    first[1:] = np.any(exps[1:] != exps[:-1], axis=1)
    summed = coefs[first]
    np.add.at(summed, np.cumsum(first)[~first] - 1, coefs[~first])
    keep = ~(np.abs(summed) <= (PRUNE_EPS if prune else 0.0))
    return exps[first][keep], summed[keep]


def _make(geometry, exps, coefs, prune=False):
    """Series from rows already in canonical order, without validation.
    With prune, |c| <= PRUNE_EPS goes; without, the coefficients are taken
    to be nonzero already."""
    if prune:
        keep = ~(np.abs(coefs) <= PRUNE_EPS)
        if not keep.all():
            exps, coefs = exps[keep], coefs[keep]
    s = FourierTaylorSeries.__new__(FourierTaylorSeries)
    s._store(geometry, exps, coefs)
    return s


def _check_powers(g: PhaseGeometry, exps):
    """Raise ValueError if an exponent row has a negative power."""
    if (exps[:, g.d:] < 0).any():
        raise ValueError("polynomial powers must be non-negative")


class FourierTaylorSeries:
    """Immutable sparse series; see module docstring for the monomial shape
    and the storage.

    Parameters
    ----------
    geometry : PhaseGeometry
    coeffs : mapping from (k, j, q) tuples to complex, optional
    """

    __slots__ = ("geometry", "_exps", "_coefs")

    def __init__(self, geometry: PhaseGeometry, coeffs=None, *,
                 prune: bool = True):
        keys = list(coeffs) if coeffs else []
        values = [coeffs[key] for key in keys]
        exps = self._check_keys(geometry, keys)
        _check_powers(geometry, exps)
        coefs = np.array(values, dtype=complex).reshape(len(keys))
        self._store(geometry, *_canonical(exps, coefs, prune=prune))

    def _store(self, geometry, exps, coefs):
        exps.flags.writeable = False
        coefs.flags.writeable = False
        for name, value in (("geometry", geometry), ("_exps", exps),
                            ("_coefs", coefs)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FourierTaylorSeries is immutable")

    @staticmethod
    def _check_keys(g: PhaseGeometry, keys):
        """Exponent matrix of (k, j, q) keys; raises ValueError on the first
        key of the wrong shape."""
        n = len(keys)
        try:
            blocks = [np.array([key[p] for key in keys],
                               dtype=np.int64).reshape(n, w)
                      for p, w in enumerate((g.d, g.d, g.zdim))]
        except ValueError:
            for k, j, q in keys:
                if len(k) != g.d or len(j) != g.d or len(q) != g.zdim:
                    raise ValueError(
                        f"index dims {len(k)},{len(j)},{len(q)} do not "
                        f"match geometry d={g.d}, 2*d0={g.zdim}") from None
            raise
        return np.concatenate(blocks, axis=1)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, geometry: PhaseGeometry):
        return cls(geometry, {})

    @classmethod
    def from_terms(cls, geometry: PhaseGeometry, terms):
        """Build from an iterable of ((k, j, q), coeff); repeated keys add."""
        agg = {}
        for (k, j, q), c in terms:
            key = (tuple(k), tuple(j), tuple(q))
            agg[key] = agg.get(key, 0j) + complex(c)
        return cls(geometry, agg)

    @classmethod
    def _k0(cls, geo: PhaseGeometry, c, by, bz, C):
        """The k = 0 ansatz series c + <by, y> + <bz, z> + <z, C z> for a
        symmetric C, each block broadcast to its shape."""
        n = geo.zdim
        blocks = [np.broadcast_to(np.asarray(v, dtype=complex), (1, *shape))
                  for v, shape in zip((c, by, bz, C),
                                      ((), (geo.d,), (n,), (n, n)))]
        exps, coefs = ansatz_arrays(geo, np.zeros((1, geo.d), np.int64),
                                    *blocks)
        return cls.from_arrays(geo, exps, coefs, prune=True)

    @classmethod
    def constant(cls, geometry: PhaseGeometry, value):
        return cls._k0(geometry, value, 0, 0, 0)

    @classmethod
    def linear_y(cls, geometry: PhaseGeometry, omega):
        """<omega, y> as a series."""
        return cls._k0(geometry, 0, omega, 0, 0)

    @classmethod
    def linear_z(cls, geometry: PhaseGeometry, b):
        """<b, z> as a series."""
        return cls._k0(geometry, 0, 0, b, 0)

    @classmethod
    def quadratic_z(cls, geometry: PhaseGeometry, Q, prefactor=1.0):
        """prefactor * <z, Q z> for a symmetric matrix Q."""
        return cls._k0(geometry, 0, 0, 0,
                       prefactor * np.asarray(Q, dtype=float))

    @classmethod
    def fourier_mode(cls, geometry: PhaseGeometry, k, coeff=1.0):
        zk = (0,) * geometry.d
        zq = (0,) * geometry.zdim
        return cls(geometry, {(tuple(k), zk, zq): complex(coeff)})

    @classmethod
    def from_arrays(cls, geometry: PhaseGeometry, exps, coefs, *,
                    prune: bool = False):
        """Build from an exponent matrix (rows in any order) and its
        coefficient vector, brought to canonical form by _canonical and then
        checked for negative powers as in the dict constructor.  With prune,
        |c| <= PRUNE_EPS goes too."""
        exps, coefs = _canonical(exps, coefs, prune=prune)
        _check_powers(geometry, exps)
        s = cls.__new__(cls)
        s._store(geometry, exps, coefs)
        return s

    # -- basic access -------------------------------------------------------

    @property
    def kmax(self) -> int:
        """Fourier radius: the largest |k| stored, 0 for the zero series."""
        return int(self.knorms().max(initial=0))

    @property
    def degmax(self) -> int:
        """The largest |j| + |q| stored, 0 for the zero series."""
        return int(self.degrees().max(initial=0))

    def knorms(self) -> np.ndarray:
        """|k| of every stored term, in storage order."""
        return np.abs(self._exps[:, :self.geometry.d]).max(axis=1, initial=0)

    def degrees(self) -> np.ndarray:
        """|j| + |q| of every stored term, in storage order."""
        return self._exps[:, self.geometry.d:].sum(axis=1)

    def exps(self) -> np.ndarray:
        """Exponent row (k, j and q digits) of every stored term, in storage
        order (read-only)."""
        return self._exps

    def coefs(self) -> np.ndarray:
        """Coefficient of every stored term, in storage order (read-only)."""
        return self._coefs

    def coeff(self, k, j=None, q=None) -> complex:
        g = self.geometry
        j = (0,) * g.d if j is None else tuple(j)
        q = (0,) * g.zdim if q is None else tuple(q)
        row = np.array(tuple(k) + j + q, dtype=np.int64)
        if row.shape != (g.width,):
            return 0j
        hit = np.flatnonzero((self._exps == row).all(axis=1))
        return complex(self._coefs[hit[0]]) if hit.size else 0j

    def terms(self):
        """((k, j, q), c) per stored term, in lexicographic (k, j, q) order."""
        d = self.geometry.d
        return [((tuple(r[:d]), tuple(r[d:2 * d]), tuple(r[2 * d:])), c)
                for r, c in zip(self._exps.tolist(), self._coefs.tolist())]

    def __len__(self):
        return len(self._coefs)

    def is_zero(self) -> bool:
        return not len(self._coefs)

    def norm_l1(self) -> float:
        return float(np.abs(self._coefs).sum())

    def is_real(self, tol: float = 1e-12) -> bool:
        """True iff c_{-k,j,q} = conj(c_{k,j,q}) for every stored index."""
        _, gap = _canonical(np.concatenate((self._exps, self._reflected())),
                            np.concatenate((self._coefs, -self._coefs.conj())),
                            prune=False)
        return bool(np.all(np.abs(gap) <= tol))

    def _reflected(self):
        """Exponent rows with k negated (not in canonical order)."""
        out = self._exps.copy()
        out[:, :self.geometry.d] *= -1
        return out

    def __repr__(self):
        g = self.geometry
        return (f"FourierTaylorSeries(d={g.d}, d0={g.d0}, kmax={self.kmax}, "
                f"degmax={self.degmax}, terms={len(self)})")

    def __eq__(self, other):
        if not isinstance(other, FourierTaylorSeries):
            return NotImplemented
        return (self.geometry == other.geometry
                and np.array_equal(self._exps, other._exps)
                and np.array_equal(self._coefs, other._coefs))

    def __hash__(self):
        # + 0.0 turns -0.0 parts into 0.0, which array_equal treats as equal
        return hash((self.geometry, self._exps.astype(np.int64, copy=False).tobytes(),
                     (self._coefs + 0.0).tobytes()))

    # -- arithmetic ---------------------------------------------------------

    def _require_same_geometry(self, other):
        if self.geometry != other.geometry:
            raise GeometryMismatchError(
                f"geometry mismatch: {self.geometry} vs {other.geometry}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FourierTaylorSeries.constant(self.geometry, other)
        self._require_same_geometry(other)
        return _make(self.geometry,
                     *_canonical(np.concatenate((self._exps, other._exps)),
                                 np.concatenate((self._coefs, other._coefs)),
                                 prune=True))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FourierTaylorSeries.constant(self.geometry, other)
        return self.__add__(other.scale(-1.0))

    def scale(self, c):
        c = complex(c)
        if c == 0:
            return FourierTaylorSeries.zero(self.geometry)
        return _make(self.geometry, self._exps, self._coefs * c, prune=True)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        self._require_same_geometry(other)
        ia, ib = np.divmod(np.arange(len(self) * len(other)), len(other))
        return _make(self.geometry,
                     *_canonical(self._exps[ia] + other._exps[ib],
                                 self._coefs[ia] * other._coefs[ib],
                                 prune=True))

    __rmul__ = __mul__

    def conjugate(self):
        return _make(self.geometry,
                     *_canonical(self._reflected(), self._coefs.conj(),
                                 prune=True))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x=None, y=None, z=None):
        """The series at (x, y, z), None standing for zeros.  A point gives
        a complex number; points stacked along leading axes (the last axis
        holds the coordinates) broadcast, and give a complex array of the
        broadcast shape."""
        g = self.geometry
        x = np.zeros(g.d) if x is None else np.asarray(x, dtype=float)
        y = np.zeros(g.d) if y is None else np.asarray(y, dtype=float)
        z = np.zeros(g.zdim) if z is None else np.asarray(z, dtype=float)
        e, d = self._exps, g.d
        k, j, q = e[:, :d], e[:, d:2 * d], e[:, 2 * d:]
        v = (self._coefs * np.exp(1j * (x @ k.T))
             * np.prod(y[..., None, :] ** j, axis=-1)
             * np.prod(z[..., None, :] ** q, axis=-1))
        out = v.sum(axis=-1)
        return complex(out) if out.ndim == 0 else out

    # -- structural helpers -------------------------------------------------

    def partition(self, mask):
        """Split into (kept, rest) by a boolean mask over the stored terms
        (storage order, as `knorms` and `degrees` give it); exact, no
        pruning."""
        mask = np.asarray(mask, dtype=bool)
        return (_make(self.geometry, self._exps[mask], self._coefs[mask]),
                _make(self.geometry, self._exps[~mask], self._coefs[~mask]))


class GeneratingSeries(FourierTaylorSeries):
    """A series restricted to the generator ansatz: modes 0 < |k| <= Kplus
    carrying constant, linear-y, linear-z and quadratic-z parts, plus a
    single k = 0 linear-z term."""

    __slots__ = ()

    def _store(self, *args):
        super()._store(*args)
        g, shape = self.geometry, ansatz_index(self)
        linear_z = (shape > g.d) & (shape <= g.d + g.zdim)
        bad = np.where(self.knorms() == 0, ~linear_z, shape < 0)
        if bad.any():
            (k, j, q), _ = self.terms()[int(np.argmax(bad))]
            where = "k=0" if knorm(k) == 0 else f"k={k}"
            raise InvariantError(
                f"generator ansatz violated at {where}: j={j}, q={q}")


# -- ansatz predicates -------------------------------------------------------

def ansatz_monomials(geo: PhaseGeometry) -> np.ndarray:
    """(j, q) exponent rows of the monomials the generator ansatz and the
    cutoff keep, in block order: 1, the y_i, the z_a, then z_a z_b for
    a <= b in np.triu_indices order."""
    eye = np.eye(geo.d + geo.zdim, dtype=np.int64)
    a, b = np.triu_indices(geo.zdim)
    return np.concatenate([0 * eye[:1], eye, eye[geo.d + a] + eye[geo.d + b]])


def ansatz_index(s: FourierTaylorSeries) -> np.ndarray:
    """Row of ansatz_monomials that each term of s carries; -1 for a term
    outside the ansatz."""
    g = s.geometry
    hit = (s._exps[:, None, g.d:] == ansatz_monomials(g)).all(axis=2)
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


def ansatz_blocks(R: FourierTaylorSeries):
    """The distinct modes ks of an ansatz-shaped series, in sorted order,
    with their blocks: constant (m,), linear-y (m, d), linear-z (m, 2 d0)
    and the symmetric C (m, 2 d0, 2 d0) whose <z, C z> is the
    quadratic-z part."""
    geo = R.geometry
    d, n = geo.d, geo.zdim
    shape = ansatz_index(R)
    if (shape < 0).any():
        raise ConfigError("R is not ansatz shaped at "
                          f"{R.terms()[int(np.argmin(shape))][0]}")
    # rows are sorted by k first: a mode starts wherever k changes
    exps = R.exps()
    new = np.ones(len(exps), dtype=bool)
    new[1:] = (exps[1:, :d] != exps[:-1, :d]).any(axis=1)
    ks = exps[new, :d]
    V = np.zeros((len(ks), len(ansatz_monomials(geo))), dtype=complex)
    V[np.cumsum(new) - 1, shape] = R.coefs()
    a, b = np.triu_indices(n)
    C = np.zeros((len(ks), n, n), dtype=complex)
    C[:, a, b] = C[:, b, a] = V[:, 1 + d + n:] * np.where(a == b, 1.0, 0.5)
    return ks, V[:, 0], V[:, 1:1 + d], V[:, 1 + d:1 + d + n], C


def ansatz_arrays(geo: PhaseGeometry, ks, c, by, bz, C):
    """Inverse of ansatz_blocks: the exponent rows and coefficients of the
    series with these blocks on the modes ks, its quadratic-z part
    <z, C z> for a symmetric C.  Every ansatz monomial of every mode gets
    a row, zero or not; from_arrays drops the zeros."""
    a, b = np.triu_indices(geo.zdim)
    quad = np.where(a == b, C[:, a, b], C[:, a, b] + C[:, b, a])
    V = np.concatenate([c[:, None], by, bz, quad], axis=1)
    table = ansatz_monomials(geo)
    exps = np.concatenate([np.repeat(ks, len(table), axis=0),
                           np.tile(table, (len(ks), 1))], axis=1)
    return exps, V.ravel()


def integrable_part(geo: PhaseGeometry, const, omega, M,
                    eps) -> FourierTaylorSeries:
    """The integrable part N = const + <omega, y> + (eps/2) <z, M z> of a
    normal form, for a symmetric M; without a resonant block M is not
    read."""
    C = eps / 2.0 * np.asarray(M, dtype=float) if geo.d0 else 0
    return FourierTaylorSeries._k0(geo, const, omega, 0, C)


def ansatz_rows(s: FourierTaylorSeries) -> np.ndarray:
    """Mask of the terms of s whose monomial has an ansatz shape."""
    return ansatz_index(s) >= 0


def flat_remainder_part(s: FourierTaylorSeries) -> np.ndarray:
    """Mask of the angle-free terms of s outside the ansatz: the flat
    remainder channel."""
    return (s.knorms() == 0) & ~ansatz_rows(s)


def cutoff(P: FourierTaylorSeries, Kplus: int):
    """Split P = R + tail where R keeps the low-mode ansatz part.

    R holds exactly the modes |k| <= Kplus whose monomial is constant,
    linear in y, linear in z, or quadratic in z; tail is everything else.
    The decomposition is exact: R + tail reproduces P coefficient for
    coefficient.
    """
    if Kplus < 1:
        raise ValueError("Kplus must be >= 1")
    return P.partition((P.knorms() <= Kplus) & ansatz_rows(P))


def average_over_angles(P: FourierTaylorSeries) -> FourierTaylorSeries:
    """Projection onto the k = 0 Fourier modes."""
    keep = P.knorms() == 0
    return _make(P.geometry, P._exps[keep], P._coefs[keep])


# -- Poisson bracket ---------------------------------------------------------

@lru_cache
def _bracket_products(geo: PhaseGeometry):
    """The products a bracket sums (two per channel, module docstring), as
    read-only arrays: per product, the column of f and the column of g
    whose digits it multiplies, its coefficient factor and a 0/1 mask of
    the columns it lowers."""
    d, d0 = geo.d, geo.d0
    channels = ([(d + i, i, 1j, [d + i]) for i in range(d)]
                + [(2 * d + a, 2 * d + d0 + a, 1.0,
                    [2 * d + a, 2 * d + d0 + a]) for a in range(d0)])
    cols1, cols2, factors, lowered = [], [], [], []
    for a, b, factor, low in channels:
        mask = np.zeros(geo.width, np.int64)
        mask[low] = 1
        cols1 += [a, b]
        cols2 += [b, a]
        factors += [factor, -factor]
        lowered += [mask, mask]
    table = (np.array(cols1), np.array(cols2), np.array(factors, complex),
             np.array(lowered))
    for column in table:
        column.flags.writeable = False
    return table


def _merge_codes(codes, coefs):
    """Codes sorted (stably), coefficients of equal codes summed in their
    order of appearance: the merge of the sort path."""
    order = np.argsort(codes, kind="stable")
    codes, coefs = codes[order], coefs[order]
    if len(codes) < 2:
        return codes, coefs
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    return codes[starts], np.add.reduceat(coefs, starts)


def _use_dense(width, m, n):
    """Whether products of m[p] x n[p] pairs are summed in a dense
    accumulator of width cells (module docstring) rather than by sort."""
    npairs = int(m @ n)
    columns = int(np.minimum(m, n).sum())
    return (width <= DENSE_CELLS_PER_PAIR * npairs
            and DENSE_COLUMN * columns <= npairs)


def _sum_dense(U, X, V, Y, first1, first2, m, n, width):
    """Codes and summed coefficients of the products, via one dense
    accumulator of width cells."""
    acc = np.zeros(width, complex)
    for a, ma, b, nb in zip(first1.tolist(), m.tolist(), first2.tolist(),
                            n.tolist()):
        u, x, v, y = U[a:a + ma], X[a:a + ma], V[b:b + nb], Y[b:b + nb]
        if ma < nb:
            u, x, v, y = v, y, u, x
        # u holds distinct codes: no cell repeats within one column
        for vj, yj in zip(v.tolist(), y.tolist()):
            acc[u + vj] += x * yj
    codes = np.flatnonzero(acc != 0)
    return codes, acc[codes]


def _sum_sorted(U, X, V, Y, first1, first2, m, n):
    """Codes and summed coefficients of the products, merged by sort in
    blocks of PAIR_BLOCK pairs."""
    # formed pairs wait in `pending` until they outnumber the merged result
    # (and a block), so scratch memory stays proportional to the output
    sizes = m * n
    ends = np.cumsum(sizes)
    codes, coefs = np.empty(0, np.int64), np.empty(0, complex)
    pending_codes, pending_coefs = [], []
    npending = 0
    total = int(ends[-1])
    for start in range(0, total, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, total)
        t = np.arange(start, stop)
        p = np.searchsorted(ends, t, side="right")
        i, j = np.divmod(t - (ends - sizes)[p], n[p])
        i += first1[p]
        j += first2[p]
        pending_codes.append(U[i] + V[j])
        pending_coefs.append(X[i] * Y[j])
        npending += len(t)
        if npending > max(len(codes), PAIR_BLOCK) or stop == total:
            codes, coefs = _merge_codes(
                np.concatenate([codes, *pending_codes]),
                np.concatenate([coefs, *pending_coefs]))
            pending_codes, pending_coefs = [], []
            npending = 0
    return codes, coefs


def poisson_bracket(f: FourierTaylorSeries,
                    g: FourierTaylorSeries) -> FourierTaylorSeries:
    """Canonical bracket of two series under the module convention.

    The result is exact for the two polynomials.
    """
    f._require_same_geometry(g)
    geo = f.geometry
    n1, n2 = len(f), len(g)
    if not n1 or not n2:
        return _make(geo, np.empty((0, geo.width), np.int64),
                     np.empty(0, complex))
    e1, e2 = f._exps, g._exps

    # mixed radix covering every digit of e1 + e2; offsets are <= 0, so a
    # lowered j or q digit (never below 0) stays inside its range
    lo1 = np.minimum(e1.min(axis=0), 0)
    lo2 = np.minimum(e2.min(axis=0), 0)
    radix = [int(v) for v in e1.max(axis=0) + e2.max(axis=0) - lo1 - lo2 + 1]
    width = math.prod(radix)
    if width.bit_length() > CODE_BITS:
        raise InvariantError(
            f"bracket code needs {width.bit_length()} bits, more than "
            f"{CODE_BITS}: digit ranges {radix} for operands of {n1} and "
            f"{n2} terms")
    strides = np.array([math.prod(radix[c + 1:]) for c in range(len(radix))],
                       dtype=np.int64)
    code1 = (e1 - lo1) @ strides
    code2 = (e2 - lo2) @ strides

    # product p pairs the rows of f with a nonzero digit in column cols1[p]
    # (coefficient times digit times factor, code lowered) with the rows of
    # g with a nonzero digit in column cols2[p] (coefficient times digit);
    # the nonzero entries come grouped by product
    cols1, cols2, factors, lowered = _bracket_products(geo)
    digits1 = e1[:, cols1].T
    p1, r1 = np.nonzero(digits1)
    U = code1[r1] - (lowered @ strides)[p1]
    X = f._coefs[r1] * (factors[p1] * digits1[p1, r1])
    digits2 = e2[:, cols2].T
    p2, r2 = np.nonzero(digits2)
    V = code2[r2]
    Y = g._coefs[r2] * digits2[p2, r2]
    m = np.bincount(p1, minlength=len(cols1))
    n = np.bincount(p2, minlength=len(cols1))
    products = (U, X, V, Y, np.cumsum(m) - m, np.cumsum(n) - n, m, n)
    if _use_dense(width, m, n):
        codes, coefs = _sum_dense(*products, width)
    else:
        codes, coefs = _sum_sorted(*products)
    exps = codes[:, None] // strides
    exps %= radix
    exps += lo1 + lo2
    return _make(geo, exps, coefs, prune=True)


def lie_transform_auto(H, F, epsilon=1.0, *, tol=1e-16,
                       order_cap=LIE_ORDER_CAP):
    """Lie series iterated until the next term's l1 mass falls below
    tol * (1 + |H|_l1); returns (series, order used).  Nothing is cut: when
    F is free of actions and resonant variables each order lowers the
    degree of H by one, and the series ends exactly."""
    result = H
    term = H
    scale = 1.0 + H.norm_l1()
    if epsilon == 0.0:
        return H, 0
    for m in range(1, order_cap + 1):
        term = poisson_bracket(term, F).scale(epsilon / m)
        result = result + term
        if term.norm_l1() <= tol * scale:
            return result, m
    raise InvariantError(f"Lie series did not settle within {order_cap} orders")


# -- serialization -----------------------------------------------------------

def to_text(s: FourierTaylorSeries) -> str:
    """Line-oriented text form; floats printed with repr for exact round-trip.
    The header gives d, d0 and the series' kmax and degmax; rows come out in
    storage order, which is sorted (k, j, q) order."""
    g = s.geometry
    # one format per geometry: the exponents, then repr of both floats
    row = " | ".join([" ".join(["{}"] * g.d)] * 2
                     + [" ".join(["{}"] * g.zdim) if g.d0 else "-",
                        "{!r} {!r}"]).format
    lines = [f"# d d0 kmax degmax", f"{g.d} {g.d0} {s.kmax} {s.degmax}"]
    lines += [row(*r, re, im) for r, re, im in zip(
        s._exps.tolist(), s._coefs.real.tolist(), s._coefs.imag.tolist())]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> FourierTaylorSeries:
    """Inverse of to_text.  Raises ValueError on malformed text, on a row
    beyond the kmax or degmax its header declares and on a repeated
    (k, j, q) row, in that order."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty series text")
    head = lines[0].split()
    d, d0, kmax, degmax = (int(v) for v in head)
    geo = PhaseGeometry(d, d0)
    coeffs, repeated = {}, []
    for ln in lines[1:]:
        k_part, j_part, q_part, c_part = (p.strip() for p in ln.split("|"))
        k = tuple(int(v) for v in k_part.split())
        j = tuple(int(v) for v in j_part.split())
        q = () if q_part == "-" else tuple(int(v) for v in q_part.split())
        re_s, im_s = c_part.split()
        if (k, j, q) in coeffs:
            repeated.append(f"repeated row k={k}, j={j}, q={q}: {ln.strip()}")
        coeffs[(k, j, q)] = complex(float(re_s), float(im_s))
    s = FourierTaylorSeries(geo, coeffs, prune=False)
    if s.kmax > kmax:
        k = s.exps()[int(np.argmax(s.knorms())), :d]
        raise ValueError(f"mode {tuple(k.tolist())} exceeds kmax={kmax}")
    if s.degmax > degmax:
        raise ValueError(f"degree {s.degmax} exceeds degmax={degmax}")
    if repeated:
        raise ValueError(repeated[0])
    return s
