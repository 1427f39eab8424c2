"""Measure-estimation tests against exact strip/triangle geometry, union
majorants, scaling in the zone width, and the summability check."""
import math
import warnings

import numpy as np
import pytest

from resonorm import freqsets
from resonorm.cli import main
from resonorm.errors import ConfigError
from resonorm.freqsets import (
    SummabilityResult,
    ZoneSpec,
    _modes_up_to,
    _zone_indicator,
    excluded_set_measure,
    summability_check,
    union_majorant,
    zone_measure_mc,
    zones_and_excluded_set,
)
from resonorm.gevrey import ApproximationFunction, power_log_delta


def test_strip_measure_exact():
    # l = 2, k = (1,0), beta = 0.1: P(|w1| <= 0.1) = 0.1 on the unit square
    spec = ZoneSpec(k=(1, 0), beta=0.1)
    est, ci = zone_measure_mc(spec, l=2, samples=200_000, seed=11)
    assert abs(est - 0.1) <= 3 * ci


def test_triangle_measure_exact():
    # k = (1,1), beta = 0.1: area {w1 + w2 <= 0.1} = 0.005
    spec = ZoneSpec(k=(1, 1), beta=0.1)
    est, ci = zone_measure_mc(spec, l=2, samples=400_000, seed=13)
    assert abs(est - 0.005) <= 3 * ci


def test_zero_width_zone():
    spec = ZoneSpec(k=(1, 0), beta=0.0)
    est, ci = zone_measure_mc(spec, l=2, samples=20_000, seed=17)
    assert est == 0.0


def test_seed_determinism():
    spec = ZoneSpec(k=(2, -1), beta=0.05)
    a = zone_measure_mc(spec, l=2, samples=50_000, seed=23)
    b = zone_measure_mc(spec, l=2, samples=50_000, seed=23)
    assert a == b


def test_zones_from_one_draw_equal_their_own_calls():
    # three chunks, the last one partial; modes shorter than l included
    specs = [ZoneSpec(k=(1,), beta=0.1), ZoneSpec(k=(1, -1), beta=0.05),
             ZoneSpec(k=(2, 1, 1), beta=0.2)]
    delta = power_log_delta(a=3.0, alpha=2.0)
    together, _ = zones_and_excluded_set(specs, 0.0, delta, 2, 3, 3,
                                         450_000, 29)
    assert together == [zone_measure_mc(s, l=3, samples=450_000, seed=29)
                        for s in specs]
    assert zones_and_excluded_set([], 0.0, delta, 2, 3, 3, 450_000,
                                  29)[0] == []
    with pytest.raises(ConfigError):
        zones_and_excluded_set(specs, 0.0, delta, 2, 2, 2, 450_000, 29)
    with pytest.raises(ConfigError):
        zone_measure_mc(specs[2], l=2, samples=450_000, seed=29)


def test_zone_indicator_matches_per_sample_loop():
    rng = np.random.default_rng(31)
    W = rng.random((10_000, 3))
    for k, beta in (((1, 1), 0.3), ((2, -1), 0.05), ((1, 0, -3), 0.2)):
        spec = ZoneSpec(k=k, beta=beta)
        want = np.array([abs(sum(a * b for a, b in zip(w, k))) <= beta
                         for w in W.tolist()])
        assert 0 < want.sum() < len(W)
        assert np.array_equal(_zone_indicator(spec, W), want)


def test_excluded_set_zero_gamma():
    delta = power_log_delta(a=3.0, alpha=2.0)
    est, ci, maj = excluded_set_measure(0.0, delta, Kmax=4, l=2, d=2,
                                        samples=20_000, seed=3)
    assert est == 0.0 and maj == 0.0


def test_excluded_set_majorant_and_convergent_sum():
    # Delta(t) = (1+t)^3, d = 2: partial sums of sum m/(1+m)^3 stay < 1.7
    delta = power_log_delta(a=3.0, alpha=2.0)
    s = sum(m / (1.0 + m) ** 3 for m in range(1, 200_000))
    assert s < 1.7
    gamma1 = 2e-3
    est, ci, maj = excluded_set_measure(gamma1, delta, Kmax=6, l=2, d=2,
                                        samples=200_000, seed=5)
    assert est <= maj + 3 * ci
    assert maj < 1.0


def test_excluded_set_linear_in_gamma1():
    delta = power_log_delta(a=3.0, alpha=2.0)
    gamma1 = 2e-3
    kw = dict(delta=delta, Kmax=6, l=2, d=2, samples=400_000, seed=7)
    e1, ci1, _ = excluded_set_measure(gamma1, **kw)
    e2, ci2, _ = excluded_set_measure(2 * gamma1, **kw)
    assert 1.6 <= e2 / e1 <= 2.4


def test_excluded_set_monotone():
    delta = power_log_delta(a=3.0, alpha=2.0)
    kw = dict(delta=delta, l=2, d=2, samples=100_000, seed=9)
    e_small, _, _ = excluded_set_measure(1e-3, Kmax=4, **kw)
    e_big, _, _ = excluded_set_measure(4e-3, Kmax=4, **kw)
    e_more_k, _, _ = excluded_set_measure(1e-3, Kmax=8, **kw)
    assert e_small <= e_big
    assert e_small <= e_more_k


def test_excluded_set_matches_both_signs_loop():
    # one zone per +-k pair gives exactly the estimate of a loop over every
    # mode, since |<w,-k>| = |<w,k>| bit for bit
    delta = power_log_delta(a=3.0, alpha=2.0)
    gamma1, Kmax, l, d, samples, seed = 4e-3, 4, 3, 2, 150_000, 19
    W = np.random.default_rng(seed).random((samples, l))
    inside = np.zeros(samples, dtype=bool)
    for k in _modes_up_to(d, Kmax):
        spec = ZoneSpec(k=k, beta=gamma1 / delta(max(map(abs, k))))
        inside |= _zone_indicator(spec, W)
    hits = int(inside.sum())
    p = hits / samples
    ci95 = 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    est, ci, maj = excluded_set_measure(gamma1, delta, Kmax, l, d, samples, seed)
    assert hits > 0
    assert (est, ci) == (p, ci95)
    assert maj == union_majorant(gamma1, delta, Kmax, d)


def _union_by_every_mode(gamma1, delta, Kmax, l, d, samples, seed):
    """The union estimate by brute force: every mode of both signs over
    the full draw, one zone indicator each."""
    W = np.random.default_rng(seed).random((samples, l))
    inside = np.zeros(samples, dtype=bool)
    for k in _modes_up_to(d, Kmax):
        beta = gamma1 / delta(max(map(abs, k)))
        if beta > 0.0:
            inside |= _zone_indicator(ZoneSpec(k=k, beta=beta), W)
    p = int(inside.sum()) / samples
    return p, 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)


@pytest.mark.parametrize("gamma1, Kmax, l, d, samples, seed", [
    (0.05, 4, 1, 1, 50_000, 41),        # d = 1: no prefix, the lane only
    (2e-3, 8, 2, 2, 200_000, 42),
    (1e-2, 3, 3, 3, 100_000, 43),
    (4e-3, 5, 4, 2, 100_000, 44),       # l > d
    (2e-2, 1, 3, 3, 50_000, 45),        # Kmax = 1
    (0.0, 4, 2, 2, 20_000, 46),         # gamma1 = 0
    (0.1, 6, 2, 2, 100_000, 47),        # a wide small-w_d lane
    (0.1, 3, 3, 3, 50_000, 48),
])
def test_excluded_set_screen_matches_every_mode(gamma1, Kmax, l, d, samples,
                                                seed):
    delta = power_log_delta(a=3.0, alpha=2.0)
    want = _union_by_every_mode(gamma1, delta, Kmax, l, d, samples, seed)
    est, ci, _ = excluded_set_measure(gamma1, delta, Kmax, l, d, samples,
                                      seed)
    assert (est, ci) == want
    assert (est > 0.0) == (gamma1 > 0.0)
    if gamma1 >= 0.1:
        # the lane w_d <= 2 max beta holds more than 1 % of the draw here
        W = np.random.default_rng(seed).random((samples, l))
        assert np.mean(W[:, d - 1] <= 2.0 * gamma1 / delta(1)) > 0.01


@pytest.mark.parametrize("seed, want", [
    (0, 0.001288), (1, 0.001351), (2, 0.001333), (3, 0.001328)])
def test_excluded_set_measure_gamma_estimates(seed, want):
    # the union rows of the measure-gamma benchmark input, as the per-mode
    # loop computed them before the screen
    est, _, _ = excluded_set_measure(2e-3, power_log_delta(3.0), Kmax=8, l=2,
                                     d=2, samples=2_000_000, seed=seed)
    assert est == want


def _edge_rows(gamma1, delta, Kmax, l, d, rng):
    """For every mode, rows 1 to 4 float32 ulps inside each edge of its
    strip, and 1 and 2 ulps outside, with the other coordinates drawn;
    then rows whose w_d is 0, subnormal in float32, or tiny in float64."""
    rows = []
    for k in _modes_up_to(d, Kmax):
        beta = gamma1 / delta(max(map(abs, k)))
        k = np.array(k, dtype=float)
        i = d - 1 if k[-1] else int(np.flatnonzero(k)[-1])   # solve for w_i
        for edge in (beta, -beta):
            for _ in range(100):
                w = rng.random(l)
                w[i] = 0.0
                wi = (edge - w[:d] @ k) / k[i]
                if 0.0 <= wi < 1.0:
                    break
            else:
                continue
            ulp = float(np.spacing(np.float32(wi)))
            inward = -np.sign(edge) * np.sign(k[i])    # shrinks |<w,k>|
            for m in (1, 2, 3, 4, -1, -2):
                w[i] = min(max(wi + inward * m * ulp, 0.0), 1.0 - 2.0 ** -53)
                rows.append(w.copy())
    for wd in (0.0, 1e-39, 1e-300):
        for _ in range(10):
            w = rng.random(l)
            w[d - 1] = wd
            rows.append(w)
    return np.array(rows)


def _every_mode_hits(gamma1, delta, Kmax, d, W):
    inside = np.zeros(len(W), dtype=bool)
    for k in _modes_up_to(d, Kmax):
        beta = gamma1 / delta(max(map(abs, k)))
        if beta > 0.0:
            inside |= _zone_indicator(ZoneSpec(k=k, beta=beta), W)
    return int(inside.sum())


@pytest.mark.parametrize("gamma1, Kmax, l, d", [
    (2e-3, 8, 2, 2),                    # the measure-gamma input's modes
    (1e-2, 3, 3, 3),
    (4e-3, 5, 4, 2),                    # l > d
    (0.05, 4, 1, 1),                    # d = 1: no prefix, the lane only
])
def test_screen_counts_rows_at_the_strip_edges(monkeypatch, gamma1, Kmax, l,
                                               d):
    # rows within float32 ulps of an edge, where a random draw almost never
    # lands, test the screen's float32 rounding margin: the count through
    # the screen equals the every-mode float64 count, with no warning
    delta = power_log_delta(a=3.0, alpha=2.0)
    rows = _edge_rows(gamma1, delta, Kmax, l, d, np.random.default_rng(61))
    want = _every_mode_hits(gamma1, delta, Kmax, d, rows)
    assert 0 < want < len(rows)

    class Rows:
        """A generator that hands out `rows` in order."""

        def __init__(self, seed):
            self.at = 0

        def random(self, out):
            out[...] = rows[self.at:self.at + len(out)]
            self.at += len(out)
            return out

    monkeypatch.setattr(freqsets, "default_rng", Rows)
    screen = freqsets._union_screen(gamma1, delta, Kmax, l, d, len(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, hits = freqsets._count([], screen, l, len(rows), 0)
    assert hits == want


@pytest.mark.parametrize("gamma1, Kmax, l, d", [
    (2e-3, 8, 2, 2),                    # the measure-gamma input
    (1e-2, 3, 3, 3),
    (4e-3, 5, 4, 2),
])
def test_screen_buffers_fit_the_chunk_budget(gamma1, Kmax, l, d):
    # `_chunk_rows`: the float64 draw and the screen's prefix x chunk arrays
    # within 800,000 l bytes, plus 4 d + 2 bytes a row for its float32
    # columns and two row masks
    screen = freqsets._union_screen(gamma1, power_log_delta(3.0), Kmax, l, d,
                                    2_000_000)
    chunk = screen.chunk
    per_chunk = [a for a in vars(screen).values()
                 if isinstance(a, np.ndarray) and a.shape[-1] == chunk]
    assert len(per_chunk) == 6
    draw = 8 * l * chunk
    assert draw + sum(a.nbytes for a in per_chunk) <= \
        800_000 * l + (4 * d + 2) * chunk
    if (gamma1, Kmax, l, d) == (2e-3, 8, 2, 2):
        assert chunk == 11_111


ZONES = [ZoneSpec(k=(1, 0), beta=0.1), ZoneSpec(k=(0, 1), beta=0.05),
         ZoneSpec(k=(1, 1), beta=0.2), ZoneSpec(k=(1, -1), beta=0.1)]


@pytest.mark.parametrize("specs, gamma1, Kmax, l, d, samples, seed", [
    (ZONES, 2e-3, 8, 2, 2, 123_457, 51),   # 11,111-row chunks, a partial one
    (ZONES, 2e-3, 8, 2, 2, 10_000, 52),    # fewer samples than one chunk
    (ZONES + [ZoneSpec(k=(2, 1, 1), beta=0.2)], 4e-3, 5, 4, 2, 60_001, 53),
    (ZONES, 0.05, 4, 2, 1, 250_001, 54),   # d = 1: no prefix, the lane only
    (ZONES, 0.0, 4, 2, 2, 150_000, 55),    # gamma1 = 0: the zones alone
    ([], 1e-2, 3, 3, 3, 50_000, 56),       # no zones: the union alone
])
def test_one_pass_equals_the_separate_calls(specs, gamma1, Kmax, l, d,
                                            samples, seed):
    delta = power_log_delta(a=3.0, alpha=2.0)
    zones, union = zones_and_excluded_set(specs, gamma1, delta, Kmax, l, d,
                                          samples, seed)
    assert zones == [zone_measure_mc(s, l, samples, seed) for s in specs]
    assert union == excluded_set_measure(gamma1, delta, Kmax, l, d, samples,
                                         seed)
    # and each zone as one indicator over the whole draw
    W = np.random.default_rng(seed).random((samples, l))
    assert [est for est, _ in zones] == [
        int(_zone_indicator(s, W).sum()) / samples for s in specs]
    assert (union[0] > 0.0) == (gamma1 > 0.0)


def test_measure_draws_the_stream_once(tmp_path, monkeypatch):
    # a counting proxy around the generator that freqsets seeds: `measure`
    # seeds one and draws samples x l numbers from it, each exactly once
    seeded, drawn = [], []

    class Counting:
        def __init__(self, seed):
            seeded.append(seed)
            self.rng = np.random.default_rng(seed)

        def random(self, *args, **kwargs):
            out = self.rng.random(*args, **kwargs)
            drawn.append(out.size)
            return out

    monkeypatch.setattr(freqsets, "default_rng", Counting)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gevrey]\nfamily = power_log\na = 3.0\nalpha = 2.0\n"
                   "[measure]\nl = 3\nd = 2\nsamples = 123457\n"
                   "zones = 1 0 0.1 ; 1 1 0.2 ; 2 1 -1 0.05\n"
                   "gamma1 = 2e-3\nKmax = 6\n[run]\nseed = 5\n")
    assert main(["measure", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert seeded == [5]
    assert sum(drawn) == 123_457 * 3


@pytest.mark.parametrize("kw", [
    dict(d=3, l=2),                     # mode dimension above the cube's
    dict(samples=0),
    dict(samples=9_999),
    dict(gamma1=math.nan),
    dict(gamma1=math.inf),
    dict(gamma1=-1e-3),
])
def test_excluded_set_rejects_bad_input(kw):
    args = dict(gamma1=2e-3, delta=power_log_delta(3.0), Kmax=4, l=2, d=2,
                samples=20_000, seed=1)
    with pytest.raises(ConfigError):
        excluded_set_measure(**{**args, **kw})


@pytest.mark.parametrize("beta", [math.nan, math.inf, -0.1])
def test_zone_rejects_bad_beta(beta):
    with pytest.raises(ConfigError):
        ZoneSpec(k=(1, 0), beta=beta)


# ---------------------------------------------------------------------------
# summability
# ---------------------------------------------------------------------------

def test_summability_known_series():
    # d = 1, Delta = (1+m)^2: sum 1/(1+m)^2 = pi^2/6 - 1
    delta = power_log_delta(a=2.0, alpha=2.0)
    res = summability_check(delta, d=1, tol=1e-9)
    assert res.converges
    want = math.pi ** 2 / 6.0 - 1.0
    assert abs(res.estimate - want) <= 1e-6


def test_summability_subexponential():
    delta = ApproximationFunction(alpha=2.0, log=np.sqrt)
    res = summability_check(delta, d=2, tol=1e-12)
    assert res.converges
    assert res.tail_bound < 1e-6 * res.partial


def test_summability_past_the_float_range():
    # Delta = (1+t)^3 with a linear tail in log Delta past 1e6: the tail
    # integral reaches t where Delta is +inf, so the summand is 0 there
    tail = ApproximationFunction(
        alpha=2.0, log=lambda t: 3.0 * np.log1p(np.minimum(t, 1e6))
        + 3e-6 * np.maximum(t - 1e6, 0.0))
    res = summability_check(tail, 2)
    assert res.converges
    assert math.isfinite(res.estimate)
    # sum m/(1+m)^3 = zeta(2) - zeta(3), less the terms past 1e6 that the
    # tail shrinks, below 1e-6 in all
    want = math.pi ** 2 / 6.0 - 1.2020569031595942
    assert abs(res.estimate - want) <= 1e-5 * want


def test_summability_divergent():
    delta = power_log_delta(a=1.0, alpha=2.0)      # m/(1+m) does not decay
    res = summability_check(delta, d=2, tol=1e-9, m_cap=20_000)
    assert not res.converges


def test_summability_divergent_tail():
    # sum 1/(1+m) diverges, yet its terms fall below tol times the partial
    # sum within the first chunk; QAGI flags the tail integral of 1/(1+t)
    res = summability_check(power_log_delta(a=1.0), d=1, tol=1e-3)
    assert not res.converges
    assert res.estimate == math.inf


def test_majorant_formula():
    delta = power_log_delta(a=3.0, alpha=2.0)
    maj = union_majorant(1e-3, delta, Kmax=3, d=1)
    want = sum(2 * 2.0 * (1e-3 / (1.0 + m) ** 3) / m for m in range(1, 4))
    assert maj == pytest.approx(want, rel=1e-12)
