"""Series algebra tests: bracket axioms, Lie transforms, cutoff, round-trip.

The bracket is checked against two independent oracles: a from-scratch
monomial-calculus bracket built in this file, and pointwise evaluation of
the defining derivative formula via exact polynomial/trig differentiation
of single monomials.
"""
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from resonorm import series
from resonorm.series import (
    PAIR_BLOCK,
    PhaseGeometry,
    FourierTaylorSeries,
    GeneratingSeries,
    ansatz_index,
    ansatz_monomials,
    poisson_bracket,
    lie_transform_auto,
    cutoff,
    average_over_angles,
    integrable_part,
    to_text,
    from_text,
)
from resonorm.errors import GeometryMismatchError, InvariantError

G1 = PhaseGeometry(d=1, d0=0)
G11 = PhaseGeometry(d=1, d0=1)
G21 = PhaseGeometry(d=2, d0=1)


# ---------------------------------------------------------------------------
# independent bracket oracle: dict-of-monomials calculus written from scratch
# ---------------------------------------------------------------------------

def _oracle_mul(t1, t2):
    (k1, j1, q1), c1 = t1
    (k2, j2, q2), c2 = t2
    return ((tuple(a + b for a, b in zip(k1, k2)),
             tuple(a + b for a, b in zip(j1, j2)),
             tuple(a + b for a, b in zip(q1, q2))), c1 * c2)


def _oracle_dx(term, i):
    (k, j, q), c = term
    return ((k, j, q), 1j * k[i] * c)


def _oracle_dpoly(term, slot, i):
    (k, j, q), c = term
    vec = list(j) if slot == "j" else list(q)
    if vec[i] == 0:
        return ((k, j, q), 0j)
    c2 = c * vec[i]
    vec[i] -= 1
    if slot == "j":
        return ((k, tuple(vec), q), c2)
    return ((k, j, tuple(vec)), c2)


def oracle_bracket(fa, fb, geo):
    """{f,g} assembled term pair by term pair from the defining formula."""
    acc = {}

    def push(term):
        key, c = term
        if c != 0:
            acc[key] = acc.get(key, 0j) + c

    for t1 in fa.items():
        for t2 in fb.items():
            for i in range(geo.d):
                push(_oracle_mul(_oracle_dpoly(t1, "j", i), _oracle_dx(t2, i)))
                m = _oracle_mul(_oracle_dx(t1, i), _oracle_dpoly(t2, "j", i))
                push((m[0], -m[1]))
            for a in range(geo.d0):
                ua, va = a, geo.d0 + a
                push(_oracle_mul(_oracle_dpoly(t1, "q", ua),
                                 _oracle_dpoly(t2, "q", va)))
                m = _oracle_mul(_oracle_dpoly(t1, "q", va),
                                _oracle_dpoly(t2, "q", ua))
                push((m[0], -m[1]))
    return {k: v for k, v in acc.items() if abs(v) > 1e-14}


def random_series(geo, rng, nterms=6, kmax=2, degmax=3, real=False):
    terms = {}
    for _ in range(nterms):
        k = tuple(int(rng.integers(-kmax, kmax + 1)) for _ in range(geo.d))
        j = tuple(int(rng.integers(0, 2)) for _ in range(geo.d))
        q = tuple(int(rng.integers(0, 2)) for _ in range(geo.zdim))
        if sum(j) + sum(q) > degmax:
            continue
        c = complex(rng.normal(), rng.normal())
        terms[(k, j, q)] = terms.get((k, j, q), 0j) + c
    s = FourierTaylorSeries(geo, terms)
    if real:
        s = (s + s.conjugate()).scale(0.5)
    return s


def series_close(a, b, tol=1e-12):
    return (a - b).norm_l1() <= tol * (1.0 + a.norm_l1() + b.norm_l1())


# ---------------------------------------------------------------------------
# bracket: pinned examples
# ---------------------------------------------------------------------------

def test_bracket_linear_y_vs_mode():
    # {<w,y>, e^{i<k,x>}} = i<k,w> e^{i<k,x>}
    geo = PhaseGeometry(d=2, d0=0)
    w = np.array([1.5, -0.5])
    k = (3, 2)
    f = FourierTaylorSeries.linear_y(geo, w)
    g = FourierTaylorSeries.fourier_mode(geo, k)
    br = poisson_bracket(f, g)
    expect = 1j * (k[0] * w[0] + k[1] * w[1])
    assert abs(br.coeff(k) - expect) < 1e-14
    assert len(br) == 1


def test_bracket_self_is_zero():
    rng = np.random.default_rng(7)
    for geo in (G1, G11, G21):
        f = random_series(geo, rng)
        assert poisson_bracket(f, f).is_zero()


def test_bracket_canonical_pair():
    # {u1^2, v1} = 2 u1 with d0 = 1
    geo = G11
    u2 = FourierTaylorSeries(geo, {((0,), (0,), (2, 0)): 1.0})
    v1 = FourierTaylorSeries(geo, {((0,), (0,), (0, 1)): 1.0})
    br = poisson_bracket(u2, v1)
    assert abs(br.coeff((0,), (0,), (1, 0)) - 2.0) < 1e-14
    assert len(br) == 1


def test_bracket_antisymmetry_bilinearity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        geo = random.Random(int(rng.integers(1e9))).choice([G1, G11, G21])
        f = random_series(geo, rng)
        g = random_series(geo, rng)
        h = random_series(geo, rng)
        a, b = complex(rng.normal()), complex(rng.normal())
        lhs = poisson_bracket(f.scale(a) + g.scale(b), h)
        rhs = poisson_bracket(f, h).scale(a) + poisson_bracket(g, h).scale(b)
        assert series_close(lhs, rhs)
        assert series_close(poisson_bracket(f, g),
                            poisson_bracket(g, f).scale(-1.0))


def test_bracket_jacobi_identity():
    # no truncation happens inside the bracket, so Jacobi holds exactly
    rng = np.random.default_rng(13)
    for _ in range(10):
        geo = G11
        f = random_series(geo, rng, nterms=4, kmax=1, degmax=2)
        g = random_series(geo, rng, nterms=4, kmax=1, degmax=2)
        h = random_series(geo, rng, nterms=4, kmax=1, degmax=2)
        total = (poisson_bracket(f, poisson_bracket(g, h))
                 + poisson_bracket(g, poisson_bracket(h, f))
                 + poisson_bracket(h, poisson_bracket(f, g)))
        assert total.norm_l1() < 1e-10 * (1 + f.norm_l1()) * (1 + g.norm_l1()) * (1 + h.norm_l1())


def test_bracket_leibniz_rule():
    rng = np.random.default_rng(17)
    for _ in range(10):
        geo = G11
        f = random_series(geo, rng, nterms=4, kmax=1, degmax=2)
        g = random_series(geo, rng, nterms=3, kmax=1, degmax=2)
        h = random_series(geo, rng, nterms=3, kmax=1, degmax=2)
        lhs = poisson_bracket(f, g * h)
        rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        assert series_close(lhs, rhs, tol=1e-11)


def _distinct_series(geo, rng, nterms, integer=False):
    """Exactly nterms terms, the Fourier radius widened until the key space
    holds them.  Small-integer coefficients make every sum of products
    exact."""
    kmax = 1
    while (2 * kmax + 1) ** geo.d * 2 ** (geo.d + geo.zdim) < 4 * nterms:
        kmax += 1
    terms = {}
    while len(terms) < nterms:
        k = tuple(int(rng.integers(-kmax, kmax + 1)) for _ in range(geo.d))
        j = tuple(int(rng.integers(0, 2)) for _ in range(geo.d))
        q = tuple(int(rng.integers(0, 2)) for _ in range(geo.zdim))
        if integer:
            terms[(k, j, q)] = complex(int(rng.integers(1, 4)),
                                       int(rng.integers(-3, 4)))
        else:
            terms[(k, j, q)] = complex(rng.normal(), rng.normal())
    return FourierTaylorSeries(geo, terms)


def _oracle_cases():
    """(geometry, f, g) operand pairs for the oracle comparison."""
    rng = np.random.default_rng(19)
    for _ in range(15):
        geo = random.Random(int(rng.integers(1e9))).choice([G11, G21])
        yield geo, random_series(geo, rng), random_series(geo, rng)
    rng = np.random.default_rng(61)
    for d, d0 in ((1, 0), (1, 1), (2, 1), (3, 1), (2, 2)):
        geo = PhaseGeometry(d=d, d0=d0)
        for real in (False, True):
            yield (geo, random_series(geo, rng, real=real),
                   random_series(geo, rng, real=real))
        # product pairs spanning several pair blocks, the last one partial
        f = _distinct_series(geo, rng, 101)
        g = _distinct_series(geo, rng, 90)
        cols1, cols2, _, _ = series._bracket_products(geo)
        npairs = (f.exps()[:, cols1] != 0).sum(0) @ (
            g.exps()[:, cols2] != 0).sum(0)
        assert npairs > 2 * PAIR_BLOCK and npairs % PAIR_BLOCK
        yield geo, f, g
        zero = FourierTaylorSeries.zero(geo)
        yield geo, zero, g
        yield geo, f, zero
        # {f, f} with integer coefficients cancels exactly, across blocks too
        for nterms in (5, 70):
            f = _distinct_series(geo, rng, nterms, integer=True)
            yield geo, f, f
    # every pair weight vanishes: {y1, y2}, {u1, u1^2}
    G30 = PhaseGeometry(d=3, d0=0)
    yield (G30, FourierTaylorSeries.linear_y(G30, [1, 2, 0]),
           FourierTaylorSeries.linear_y(G30, [0, 1, 5]))
    u = FourierTaylorSeries.linear_z(G11, [1.0, 0.0])
    yield G11, u, u * u


def _log_paths(monkeypatch, chosen):
    """Append to chosen, per bracket from here on, whether it sums
    densely."""
    use_dense = series._use_dense

    def spy(*args):
        chosen.append(use_dense(*args))
        return chosen[-1]

    monkeypatch.setattr("resonorm.series._use_dense", spy)


def test_bracket_matches_independent_oracle(monkeypatch):
    chosen = []
    for geo, f, g in _oracle_cases():
        want = oracle_bracket(dict(f.terms()), dict(g.terms()), geo)
        # the path the operands pick, then each path forced
        for force in (None, True, False):
            with monkeypatch.context() as m:
                if force is None:
                    _log_paths(m, chosen)
                else:
                    m.setattr("resonorm.series._use_dense",
                              lambda *args: force)
                got = dict(poisson_bracket(f, g).terms())
                if not want:
                    # a result that cancels cancels exactly: empty with no
                    # epsilon floor to prune below
                    m.setattr("resonorm.series.PRUNE_EPS", 0.0)
                    assert poisson_bracket(f, g).is_zero()
            if not want:
                assert not got
            keys = set(got) | set(want)
            for key in keys:
                assert abs(got.get(key, 0j) - want.get(key, 0j)) < 1e-12
    # both paths run on operands of their own choosing
    assert True in chosen and False in chosen


def test_bracket_wide_codes_merge_by_sort():
    # digit ranges needing 49 bits: a dense accumulator of that many cells
    # cannot be allocated, so only the sort path can form this bracket
    geo = PhaseGeometry(d=3, d0=2)
    f = FourierTaylorSeries(geo, {
        ((60, -60, 60), (10, 10, 10), (5, 5, 5, 5)): 1.0 + 0.5j,
        ((-60, 60, -60), (0, 1, 0), (0, 1, 1, 0)): -2.0,
        ((3, 0, -1), (1, 0, 0), (1, 0, 0, 1)): 0.7,
    })
    g = FourierTaylorSeries(geo, {
        ((-60, 60, 60), (10, 0, 10), (5, 0, 5, 5)): 0.5 - 1.0j,
        ((60, 60, -60), (1, 1, 0), (1, 1, 0, 0)): 1.5,
        ((0, 2, 1), (0, 0, 1), (0, 1, 0, 1)): -0.3j,
    })
    got = poisson_bracket(f, g)
    want = oracle_bracket(dict(f.terms()), dict(g.terms()), geo)
    assert want and dict(got.terms()).keys() == want.keys()
    for key, c in got.terms():
        assert abs(c - want[key]) < 1e-12


def _benchmark_shaped_operands(rng):
    """A 1,400-term P and a 96-term generator at d = 2, d0 = 1 with the digit
    ranges of the largest bracket of the reduce-iterate benchmark: P has
    |k| <= 4, j in {0, 1}^2, u <= 3, v <= 5, u + v <= 5; the generator
    carries ansatz monomials on the modes 0 < |k| <= 2."""
    keys = [(k, j, q) for k in itertools.product(range(-4, 5), repeat=2)
            for j in itertools.product((0, 1), repeat=2)
            for q in itertools.product(range(4), range(6)) if sum(q) <= 5]
    f = FourierTaylorSeries(G21, {
        keys[i]: complex(*rng.normal(size=2))
        for i in rng.choice(len(keys), 1400, replace=False)})
    keys = [(k, tuple(r[:2]), tuple(r[2:]))
            for k in itertools.product(range(-2, 3), repeat=2) if any(k)
            for r in ansatz_monomials(G21).tolist()]
    g = FourierTaylorSeries(G21, {
        keys[i]: complex(*rng.normal(size=2))
        for i in rng.choice(len(keys), 96, replace=False)})
    return f, g


def test_bracket_scratch_memory_is_bounded(monkeypatch):
    f, g = _benchmark_shaped_operands(np.random.default_rng(5))
    chosen = []
    _log_paths(monkeypatch, chosen)
    poisson_bracket(f, g)
    assert chosen == [True]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = poisson_bracket(f, g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the accumulator is 73,008 cells (1.17 MB) and the ~22,700 result rows
    # take 1.1 MB; forming the ~120,000 product pairs at once would add
    # 24 bytes each (2.9 MB)
    assert len(out) > 20000
    assert peak < 2.5e6


def test_bracket_code_width_guard():
    geo = PhaseGeometry(d=3, d0=2)
    big = FourierTaylorSeries(geo, {
        ((200, -200, 200), (100, 100, 100), (100, 100, 100, 100)): 1.0,
        ((-200, 200, -200), (0, 0, 0), (0, 0, 0, 0)): 1.0,
    })
    with pytest.raises(InvariantError, match="bits"):
        poisson_bracket(big, big)


def test_bracket_geometry_mismatch_rejected():
    f = random_series(G1, np.random.default_rng(0))
    g = random_series(G11, np.random.default_rng(1))
    with pytest.raises(GeometryMismatchError):
        poisson_bracket(f, g)


# ---------------------------------------------------------------------------
# Lie transform
# ---------------------------------------------------------------------------

def test_lie_transform_epsilon_zero_and_order_zero():
    rng = np.random.default_rng(23)
    H = random_series(G11, rng)
    F = random_series(G11, rng)
    out, order = lie_transform_auto(H, F, 0.0)
    assert out == H and order == 0


def angle_only(s):
    """The y- and z-free part of s."""
    return s.partition(s.degrees() == 0)[0]


def test_lie_transform_first_order_definition():
    # an angle-only F brackets an angle-only term to zero: the series
    # stops after its first-order term
    rng = np.random.default_rng(29)
    H = FourierTaylorSeries.linear_y(G1, [1.3])
    F = angle_only(random_series(G1, rng))
    assert not F.is_zero()
    eps = 0.05
    out, order = lie_transform_auto(H, F, eps)
    assert order == 2
    expect = H + poisson_bracket(H, F).scale(eps)
    assert series_close(out, expect)


def test_lie_transform_hand_computed_order2():
    # H = y1, F = e^{i x1}: {y1, F} = i e^{i x1}, {i e^{i x1}, F} = 0,
    # so the order-2 image is y1 + eps * i e^{i x1}.
    H = FourierTaylorSeries.linear_y(G1, [1.0])
    F = FourierTaylorSeries.fourier_mode(G1, (1,))
    eps = 0.1
    out, _ = lie_transform_auto(H, F, eps)
    assert abs(out.coeff((0,), (1,), ()) - 1.0) < 1e-15
    assert abs(out.coeff((1,), (0,), ()) - eps * 1j) < 1e-15
    assert len(out) == 2


def test_lie_transform_matches_nested_bracket_oracle():
    # brute-force sum_{m} eps^m/m! ad^m from the oracle bracket, up to the
    # order the series reports
    rng = np.random.default_rng(31)
    geo = G11
    H = random_series(geo, rng, nterms=4, kmax=1, degmax=2)
    F = random_series(geo, rng, nterms=3, kmax=1, degmax=2)
    eps = 0.07
    got, order = lie_transform_auto(H, F, eps)
    assert order >= 3

    acc = dict(H.terms())
    term = dict(H.terms())
    fd = dict(F.terms())
    for m in range(1, order + 1):
        term = oracle_bracket(term, fd, geo)
        term = {k: v * (eps / m) for k, v in term.items()}
        for k, v in term.items():
            acc[k] = acc.get(k, 0j) + v
    for key in set(acc) | {k for k, _ in got.terms()}:
        assert abs(got.coeff(*key) - acc.get(key, 0j)) < 1e-12


def test_lie_transform_order_cap():
    H = random_series(G1, np.random.default_rng(1))
    F = random_series(G1, np.random.default_rng(2))
    with pytest.raises(InvariantError):
        lie_transform_auto(H, F, 0.1, order_cap=2)


def test_lie_transform_reversibility():
    rng = np.random.default_rng(37)
    H = random_series(G11, rng, nterms=4, kmax=1, degmax=2)
    F = random_series(G11, rng, nterms=3, kmax=1, degmax=2).scale(0.05)
    fwd, _ = lie_transform_auto(H, F, 1.0, tol=1e-16)
    back, _ = lie_transform_auto(fwd, F, -1.0, tol=1e-16)
    assert (back - H).norm_l1() < 1e-8 * (1 + H.norm_l1())


# ---------------------------------------------------------------------------
# cutoff / averaging
# ---------------------------------------------------------------------------

def test_cutoff_mode_radius():
    P = FourierTaylorSeries.fourier_mode(G1, (2,))
    R, tail = cutoff(P, 1)
    assert R.is_zero()
    assert tail == P


def test_cutoff_keeps_linear_z():
    P = FourierTaylorSeries.linear_z(G11, [0.5, -1.0])
    R, tail = cutoff(P, 3)
    assert R == P
    assert tail.is_zero()


def test_cutoff_rejects_high_degree():
    P = FourierTaylorSeries(G1, {((1,), (3,), ()): 1.0})
    R, tail = cutoff(P, 2)
    assert R.is_zero()
    assert tail == P


def test_cutoff_exact_decomposition():
    rng = np.random.default_rng(41)
    for _ in range(10):
        P = random_series(G21, rng, nterms=12, kmax=3, degmax=4)
        R, tail = cutoff(P, 2)
        back = dict(R.terms())
        for key, c in tail.terms():
            back[key] = back.get(key, 0j) + c
        assert back == dict(P.terms())


def test_average_over_angles():
    geo = G1
    e1 = FourierTaylorSeries.fourier_mode(geo, (1,))
    y1 = FourierTaylorSeries.linear_y(geo, [1.0])
    mixed = y1 + e1 * y1
    avg = average_over_angles(mixed)
    assert avg == y1
    assert average_over_angles(e1).is_zero()
    # idempotent linear projection
    rng = np.random.default_rng(43)
    P = random_series(G21, rng, real=True)
    assert average_over_angles(average_over_angles(P)) == average_over_angles(P)
    # commutes with multiplication by an angle-free series
    yz = random_series(G21, rng, kmax=0, degmax=2)
    lhs = average_over_angles(P * yz)
    rhs = average_over_angles(P) * yz
    assert series_close(lhs, rhs)


# ---------------------------------------------------------------------------
# generating ansatz, serialization, misc
# ---------------------------------------------------------------------------

def test_generating_series_validation():
    ok = GeneratingSeries(G11, {
        ((1,), (0,), (0, 0)): 1.0,
        ((1,), (1,), (0, 0)): 0.5,
        ((1,), (0,), (1, 1)): 0.25,
        ((0,), (0,), (0, 1)): -1.0,
    })
    assert len(ok) == 4
    with pytest.raises(InvariantError):
        GeneratingSeries(G11, {((0,), (1,), (0, 0)): 1.0})
    with pytest.raises(InvariantError):
        GeneratingSeries(G11, {((1,), (1,), (0, 1)): 1.0})
    for q in ((0, 0), (1, 1), (2, 0)):          # k = 0 keeps only z_a
        with pytest.raises(InvariantError):
            GeneratingSeries(G11, {((0,), (0,), q): 1.0})
    with pytest.raises(InvariantError):          # however it is built
        GeneratingSeries.from_arrays(G11, np.array([[0, 0, 1, 1]]),
                                     np.array([1.0 + 0j]))


def test_ansatz_index_is_the_shape_rule():
    # every monomial of degree <= 3: in the ansatz exactly when (|j|, |q|)
    # is constant, linear-y, linear-z or quadratic-z, at its table row
    for geo in (G1, G11, G21, PhaseGeometry(d=2, d0=2)):
        d, n = geo.d, geo.zdim
        jqs = [jq for jq in itertools.product(range(3), repeat=d + n)
               if sum(jq) <= 3]
        s = FourierTaylorSeries(geo, {
            ((0,) * d, jq[:d], jq[d:]): 1.0 for jq in jqs})
        shape = ansatz_index(s)
        table = ansatz_monomials(geo)
        for ((_, j, q), _), row in zip(s.terms(), shape):
            inside = (sum(j), sum(q)) in ((0, 0), (1, 0), (0, 1), (0, 2))
            assert (row >= 0) == inside
            if inside:
                assert tuple(table[row]) == j + q
        assert sorted(shape[shape >= 0].tolist()) == list(range(len(table)))


def test_text_round_trip_byte_exact_in_sorted_order():
    rng = np.random.default_rng(71)
    for geo in (G1, G11, G21, PhaseGeometry(d=2, d0=2)):
        s = random_series(geo, rng, nterms=40, kmax=3, degmax=4, real=True)
        text = to_text(s)
        assert to_text(from_text(text)) == text
        rows = text.splitlines()[2:]
        assert len(rows) == len(s)
        for line, ((k, j, q), c) in zip(rows, sorted(s.terms())):
            k_part, j_part, q_part, c_part = (p.split() for p in line.split("|"))
            assert tuple(map(int, k_part)) == k
            assert tuple(map(int, j_part)) == j
            assert (() if q_part == ["-"] else tuple(map(int, q_part))) == q
            assert complex(*map(float, c_part)) == c


def _to_text_by_joins(s):
    """Reference writer: each row assembled from three joins and an
    f-string."""
    g, d = s.geometry, s.geometry.d
    lines = ["# d d0 kmax degmax", f"{g.d} {g.d0} {s.kmax} {s.degmax}"]
    for (k, j, q), c in s.terms():
        k_part = " ".join(map(str, k))
        j_part = " ".join(map(str, j))
        q_part = " ".join(map(str, q)) if g.d0 else "-"
        lines.append(f"{k_part} | {j_part} | {q_part} | {c.real!r} {c.imag!r}")
    return "\n".join(lines) + "\n"


def test_text_matches_the_reference_writer_byte_for_byte():
    rng = np.random.default_rng(73)
    for geo in (G1, PhaseGeometry(d=2, d0=0), G11, G21):
        s = random_series(geo, rng, nterms=60, kmax=12, degmax=4)
        # negative zeros, integral floats and tiny exponents print via repr
        s = s + FourierTaylorSeries(geo, {
            ((0,) * geo.d, (0,) * geo.d, (0,) * geo.zdim): complex(3.0, -0.0),
            ((-11,) * geo.d, (1,) * geo.d, (0,) * geo.zdim): 1.25e-300j})
        assert to_text(s) == _to_text_by_joins(s)
    zero = FourierTaylorSeries.zero(G21)
    assert to_text(zero) == _to_text_by_joins(zero)


def test_construction_validation_and_prune():
    with pytest.raises(ValueError, match="index dims 2,1,2"):
        FourierTaylorSeries(G11, {((0, 0), (0,), (0, 0)): 1.0})
    with pytest.raises(ValueError, match="non-negative"):
        FourierTaylorSeries(G11, {((0,), (-1,), (0, 0)): 1.0})
    # the array constructor checks its rows the same way, after the zeros
    # are dropped
    one = np.ones(2, dtype=complex)
    for row in ([0, -1, 0, 0], [0, 0, 0, -1]):
        for prune in (False, True):
            with pytest.raises(ValueError, match="non-negative"):
                FourierTaylorSeries.from_arrays(
                    G11, np.array([[1, 0, 1, 0], row]), one, prune=prune)
        s = FourierTaylorSeries.from_arrays(
            G11, np.array([[1, 0, 1, 0], row]), np.array([1.0, 0.0]))
        assert len(s) == 1
    s = FourierTaylorSeries(G1, {((1,), (0,), ()): 1e-16,
                                 ((0,), (1,), ()): 2.0,
                                 ((-1,), (0,), ()): 0.0})
    assert s.terms() == [(((0,), (1,), ()), 2.0 + 0j)]


def test_bounds_are_read_from_the_rows():
    s = FourierTaylorSeries(G11, {((3,), (0,), (0, 0)): 1.0,
                                  ((-1,), (1,), (1, 1)): 1.0})
    assert (s.kmax, s.degmax) == (3, 3)
    assert (FourierTaylorSeries.zero(G11).kmax,
            FourierTaylorSeries.zero(G11).degmax) == (0, 0)
    assert to_text(s).splitlines()[1] == "1 1 3 3"


def test_from_text_rejects_rows_beyond_its_header():
    rows = "1 | 0 | 1 0 | 1.0 0.0\n"
    assert len(from_text("1 1 1 1\n" + rows)) == 1
    for head, row, match in (
            ("1 1 2 2", "3 | 0 | 0 0", r"mode \(3,\) exceeds kmax=2"),
            ("1 1 2 2", "-3 | 0 | 0 0", r"mode \(-3,\) exceeds kmax=2"),
            ("1 1 2 2", "0 | 1 | 1 1", "degree 3 exceeds degmax=2"),
            ("1 1 2 2", "0 | -1 | 0 0", "non-negative"),
            ("1 1 0 1", "1 | 0 | 1 0", r"mode \(1,\) exceeds kmax=0"),
            # within the bounds, but a repeat would keep only its last value
            ("1 1 1 1", "1 | 0 | 1 0",
             r"repeated row k=\(1,\), j=\(0,\), q=\(1, 0\): 1 \| 0 \| 1 0")):
        with pytest.raises(ValueError, match=match):
            from_text(f"{head}\n{rows}{row} | 1.0 0.0\n")


def test_equality_is_by_rows_and_hash_ignores_zero_signs():
    # a series is its rows: equal rows are equal series, with equal hashes
    # and equal text, whichever path built them
    zero = FourierTaylorSeries.zero(G1)
    assert zero == FourierTaylorSeries(G1, {}) and len({
        zero, FourierTaylorSeries(G1, {})}) == 1
    assert to_text(zero) == to_text(FourierTaylorSeries(G1, {}))
    rng = np.random.default_rng(103)
    f, g = random_series(G21, rng), random_series(G21, rng)
    br = poisson_bracket(f, g)
    rows = FourierTaylorSeries(G21, dict(br.terms()))
    assert len(br) and br == rows and hash(br) == hash(rows)
    assert to_text(br) == to_text(rows)
    # parts that differ only in the sign of a zero are equal, hash equal
    key = ((1,), (0,), (0, 0))
    for a, b in ((complex(0.0, 1.0), complex(-0.0, 1.0)),
                 (complex(2.0, 0.0), complex(2.0, -0.0))):
        f, g = (FourierTaylorSeries(G11, {key: c}) for c in (a, b))
        assert f.coefs().tobytes() != g.coefs().tobytes()
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    rng = np.random.default_rng(101)
    P = random_series(G21, rng, real=True)
    Q = from_text(to_text(P))
    assert P == Q and hash(P) == hash(Q)


def _same_bits(a, b):
    """Same geometry, kmax and degmax, exponent rows and coefficient bits."""
    return (a.geometry == b.geometry and (a.kmax, a.degmax) == (b.kmax, b.degmax)
            and a.exps().tobytes() == b.exps().tobytes()
            and a.coefs().tobytes() == b.coefs().tobytes())


def test_factories_match_dict_built_series():
    rng = np.random.default_rng(83)
    for d, d0 in ((1, 0), (1, 1), (2, 1), (2, 2)):
        geo = PhaseGeometry(d=d, d0=d0)
        n = geo.zdim
        zk, zq = (0,) * d, (0,) * n
        unit = np.eye(d + n, dtype=int)
        omega = rng.normal(size=d)
        omega[0] = 0.0                       # a zero coefficient is dropped
        b = rng.normal(size=n)
        X = rng.normal(size=(n, n))
        Q, pre = X + X.T, float(rng.normal())
        pairs = [
            (FourierTaylorSeries.constant(geo, -1.25),
             FourierTaylorSeries(geo, {(zk, zk, zq): -1.25})),
            (FourierTaylorSeries.linear_y(geo, omega),
             FourierTaylorSeries(geo, {
                 (zk, tuple(unit[i, :d]), zq): w
                 for i, w in enumerate(omega)})),
            (FourierTaylorSeries.linear_z(geo, b),
             FourierTaylorSeries(geo, {
                 (zk, zk, tuple(unit[d + a, d:])): v
                 for a, v in enumerate(b)})),
            (FourierTaylorSeries.quadratic_z(geo, Q, prefactor=pre),
             FourierTaylorSeries(geo, {
                 (zk, zk, tuple(unit[d + a, d:] + unit[d + c, d:])):
                     pre * (Q[a, c] if a == c else Q[a, c] + Q[c, a])
                 for a in range(n) for c in range(a, n)})),
        ]
        for got, ref in pairs:
            assert _same_bits(got, ref), (d, d0, got, ref)


def test_equal_rows_add_in_order_of_appearance():
    # 1e16 absorbs each later 1.0 one at a time, but not their pairwise
    # sum: only a left-to-right sum gives 1e16 back
    geo = PhaseGeometry(d=1, d0=1)
    vals = [1e16 + 2j] + [1.0 - 1e-17j] * 9 + [
        complex(*v) for v in np.random.default_rng(89).normal(size=(6, 2))]
    bits = lambda c: np.complex128(c).tobytes()
    row, other = [1, 0, 1, 0], [0, 1, 0, 0]
    s = FourierTaylorSeries.from_arrays(
        geo, np.array([row] * 10 + [other] + [row] * 6),
        np.array(vals[:10] + [3.0] + vals[10:]))
    assert bits(s.coeff((1,), (0,), (1, 0))) == bits(sum(vals, 0j))

    # the product: mode k of f meets -k of g at k = 0, in f's order; g's
    # coefficients are 1, so each product is f's coefficient exactly
    f = FourierTaylorSeries.from_arrays(
        geo, np.array([[k, 0, 0, 0] for k in range(16)]),
        np.array(vals))
    g = FourierTaylorSeries.from_arrays(
        geo, np.array([[-k, 0, 0, 0] for k in range(16)]),
        np.ones(16, dtype=complex))
    assert bits((f * g).coeff((0,))) == bits(sum(f.coefs().tolist(), 0j))

    # the sum of two equal rows, signed zeros included
    for za, zb in itertools.product((0.0, -0.0), repeat=2):
        f, g = (FourierTaylorSeries(geo, {((1,), (0,), (0, 0)): c})
                for c in (complex(za, 1.0), complex(zb, 2.0)))
        assert bits((f + g).coefs()[0]) == bits(complex(za, 1.0)
                                                + complex(zb, 2.0))


def test_integrable_part_evaluates_to_N():
    rng = np.random.default_rng(97)
    for d, d0 in ((1, 0), (1, 1), (2, 1), (2, 2)):
        geo = PhaseGeometry(d=d, d0=d0)
        n = geo.zdim
        X = rng.normal(size=(n, n))
        M, omega = X + X.T, rng.normal(size=d)
        const, eps = float(rng.normal()), 0.3
        N = integrable_part(geo, const, omega, M if d0 else None, eps)
        assert (N.kmax, N.degmax) == (0, 2 if d0 else 1)
        assert len(N) == 1 + d + n * (n + 1) // 2
        for _ in range(5):
            x, y, z = rng.normal(size=d), rng.normal(size=d), rng.normal(size=n)
            want = const + omega @ y + 0.5 * eps * z @ M @ z
            assert abs(N.evaluate(x, y, z) - want) <= 1e-13 * (1 + abs(want))


def test_text_round_trip_bit_exact():
    rng = np.random.default_rng(47)
    for geo in (G1, G21):
        s = random_series(geo, rng, nterms=10, kmax=3, degmax=3)
        t = from_text(to_text(s))
        assert dict(t.terms()) == dict(s.terms())
        assert (t.kmax, t.degmax) == (s.kmax, s.degmax)


def test_real_flag_check():
    rng = np.random.default_rng(53)
    s = random_series(G21, rng, real=True)
    assert s.is_real()
    broken = s + FourierTaylorSeries.fourier_mode(G21, (1, 0), 1j)
    assert not broken.is_real()


def test_evaluate_consistency():
    rng = np.random.default_rng(59)
    f = random_series(G11, rng)
    g = random_series(G11, rng)
    x, y, z = rng.normal(size=1), rng.normal(size=1), rng.normal(size=2)
    lhs = (f * g).evaluate(x, y, z)
    rhs = f.evaluate(x, y, z) * g.evaluate(x, y, z)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_evaluate_stacked_points():
    # rows of stacked points give the values at each point; None and a
    # single point broadcast against the stack
    rng = np.random.default_rng(61)
    f = random_series(G21, rng)
    x, y, z = rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), rng.normal(size=2)
    got = f.evaluate(x, y, z)
    assert got.shape == (5,)
    for i in range(5):
        want = f.evaluate(x[i], y[i], z)
        assert isinstance(want, complex)
        assert abs(got[i] - want) <= 1e-14 * (1 + abs(want))
    assert np.array_equal(f.evaluate(y=y[None]), [[f.evaluate(y=v) for v in y]])
