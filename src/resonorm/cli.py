"""Command-line pipeline runner.

Scenario configs are INI files with sections; every command writes its
outputs plus a manifest (config echo, seed, library versions) into the
output directory.  Outputs are plain CSV/JSON with repr-formatted floats,
so a rerun with an identical manifest is bit-identical.  Exit codes:
0 success, 2 config or file error, 3 divisor failure, 4 oracle coverage
failure, 5 invariant violation.

Commands: reduce, iterate, spectrum, compare, measure, scar, gamma.
"""
from __future__ import annotations

import argparse
import configparser
import json
import locale  # argparse's gettext imports it in main: at import instead
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    CoverageError,
    DivisorError,
    InvariantError,
    ResonormError,
)
from .freqsets import ZoneSpec, summability_check, zones_and_excluded_set
from .gevrey import (
    ApproximationFunction,
    ba_integrals,
    extremal_bound,
    gamma_extremal,
    power_log_delta,
    subgevrey_exp_delta,
)
from .kam import NormalFormState, Schedule, iterate
from .oracle import (
    build_operator,
    interior,
    match_spectrum,
    required_Nt,
    window_spectrum,
)
from .quantize import action_index_set, predict_spectrum
from .reduction import TaylorData, reduce_hamiltonian, unimodular_completion
from .scarring import (
    build_quasi_table,
    local_diffeo_check,
    mass_on_torus,
    match_quasimodes,
    resonant_ground_energy,
    separation_check,
    torus_window_modes,
    window_census,
)
from .series import FourierTaylorSeries, PhaseGeometry, from_text, to_text


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _floats(s: str) -> list:
    return [float(v) for v in s.replace(",", " ").split()]


def _ints(s: str) -> list:
    return [int(v) for v in s.replace(",", " ").split()]


def _rows(s: str, parse=_floats) -> list:
    """Semicolon-separated rows, each parsed by `parse`."""
    return [parse(r) for r in s.split(";") if r.strip()]


def _zone(s: str) -> ZoneSpec:
    """One [measure] zones row: the integer mode k, then beta."""
    *k, beta = _floats(s)
    if not all(v.is_integer() for v in k):
        raise ValueError("mode components must be integers")
    return ZoneSpec(k=tuple(int(v) for v in k), beta=beta)


def _matrix(s: str) -> np.ndarray:
    rows = _rows(s)
    if len({len(r) for r in rows}) > 1:
        raise ValueError("ragged matrix rows")
    return np.array(rows)


# the test and the rule of a value that must be finite and > 0
_POSITIVE = (lambda v: 0.0 < v < math.inf, "be finite and > 0")


# every [section] key that some command reads; a config may set no other
KEYS = (
    ("run", ("seed",)),
    ("gevrey", ("family", "alpha", "varsigma", "a", "b", "beta", "rho",
                "sigma")),
    ("kam", ("K", "gamma", "target", "pmax", "epsilon", "degmax",
             "action_scaling_exponent")),
    ("h0", ("value", "gradient", "hessian", "cubic", "y0")),
    ("module", ("generators",)),
    ("p0", ("file",)),
    ("direct", ("omega", "d0", "M", "epsilon", "p_file")),
    ("quantize", ("h", "window", "maslov", "scaling", "n_res_max")),
    ("oracle", ("Nh", "Nt", "coupling", "gap_factor")),
    ("scarring", ("lam", "delta_exp", "meas_ratio", "C1", "L",
                  "mass_window")),
    ("measure", ("l", "d", "samples", "zones", "gamma1", "Kmax")),
    ("gamma_table", ("r", "n", "kappa", "T")),
)


class RunConfig:
    """Validated view over the INI file."""

    def __init__(self, path: Path):
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        self.path = path
        cp = configparser.ConfigParser()
        cp.read(path)
        # configparser folds key case, so compare folded names
        keys = dict(KEYS)
        for section in cp.sections():
            known = {key.lower() for key in keys.get(section, ())}
            for key in cp[section]:
                if key not in known:
                    raise ConfigError(f"unknown key [{section}] {key} in "
                                      f"{path}: no command reads it")
        self.cp = cp

    def has(self, section: str) -> bool:
        return self.cp.has_section(section)

    def get(self, section: str, key: str, fallback=None, cast=str):
        if not self.cp.has_section(section) or key not in self.cp[section]:
            if fallback is None:
                raise ConfigError(f"missing [{section}] {key} in {self.path}")
            return fallback
        raw = self.cp[section][key]
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw}") from exc

    def checked(self, section: str, key: str, fallback, cast, ok, rule: str):
        """get(), then ConfigError "[section] key = value must <rule>"
        unless ok(value)."""
        value = self.get(section, key, fallback, cast)
        if not ok(value):
            raise ConfigError(f"[{section}] {key} = {value} must {rule}")
        return value

    def echo(self) -> dict:
        return {s: dict(self.cp[s]) for s in self.cp.sections()}

    # -- assembled objects --------------------------------------------------

    def delta(self) -> ApproximationFunction:
        family = self.get("gevrey", "family", "power_log")
        alpha = self.checked("gevrey", "alpha", 2.0, float,
                             lambda a: a > 1.0, "exceed 1")
        varsigma = self.get("gevrey", "varsigma", 0.01, float)
        if family == "power_log":
            return power_log_delta(self.get("gevrey", "a", 2.0, float),
                                   self.get("gevrey", "b", 0.0, float),
                                   alpha, varsigma)
        if family == "subgevrey_exp":
            return subgevrey_exp_delta(self.get("gevrey", "beta", 0.3, float),
                                       alpha, varsigma)
        raise ConfigError(f"unknown Delta family {family!r}")

    def schedule(self) -> Schedule:
        return Schedule(rho=self.get("gevrey", "rho", 1.0, float),
                        sigma=self.get("gevrey", "sigma", 1.0, float),
                        K=self.checked("kam", "K", 8, int, lambda k: k >= 1,
                                       "be >= 1"),
                        gamma=self.checked("kam", "gamma", 0.05, float,
                                           *_POSITIVE),
                        target=self.get("kam", "target", 1e-14, float))

    def quantize(self, d: int) -> dict:
        """The [quantize] keys, defaulted, as predict_spectrum's keyword
        arguments; maslov defaults to d zeros."""
        h = self.checked("quantize", "h", 0.05, float, *_POSITIVE)
        window = self.get("quantize", "window", [0.0, 0.5], _floats)
        if len(window) != 2:
            raise ConfigError(f"[quantize] window = {window} must be two "
                              "numbers")
        return {"h": h,
                "window": tuple(window),
                "maslov": self.get("quantize", "maslov", [0] * d, _ints),
                "scaling": self.get("quantize", "scaling", "oscillator"),
                "n_res_max": self.checked("quantize", "n_res_max", 6, int,
                                          lambda n: n >= 0, "be >= 0")}

    def series_file(self, section: str, key: str) -> FourierTaylorSeries:
        """The series in the file that [section] key names, relative to the
        config's directory."""
        p = self.path.parent / self.get(section, key)
        if not p.exists():
            raise ConfigError(f"series file not found: {p}")
        try:
            return from_text(p.read_text())
        except ValueError as exc:
            raise ConfigError(f"bad series file {p}: {exc}") from exc

    def p0_series(self):
        return self.series_file("p0", "file") if self.has("p0") else None

    def taylor(self) -> TaylorData:
        grad = np.array(self.get("h0", "gradient", cast=_floats))
        hess = self.get("h0", "hessian", cast=_matrix)
        cubic = None
        if self.has("h0") and "cubic" in self.cp["h0"]:
            l = grad.size
            cubic = self.get("h0", "cubic",
                             cast=lambda s: np.reshape(_floats(s), (l, l, l)))
        return TaylorData(value=self.get("h0", "value", 0.0, float),
                          gradient=grad, hessian=hess, cubic=cubic)

    def module(self):
        return unimodular_completion(
            self.get("module", "generators", cast=lambda s: _rows(s, _ints)))

    def state(self) -> NormalFormState:
        """Build the initial state, through the reduction when the config
        carries reduction inputs, directly otherwise."""
        if self.has("h0") and self.has("module"):
            red = self._run_reduce()
            return NormalFormState.from_reduced(red)
        if self.has("direct"):
            omega = np.array(self.get("direct", "omega", cast=_floats))
            d0 = self.get("direct", "d0", 0, int)
            M = self.get("direct", "M", cast=_matrix) if d0 else None
            eps = self.get("direct", "epsilon", 0.0, float)
            geo = PhaseGeometry(d=omega.size, d0=d0)
            P = FourierTaylorSeries.zero(geo)
            if "p_file" in self.cp["direct"]:
                P = self.series_file("direct", "p_file").scale(eps)
            return NormalFormState.initial(geo, omega, M, eps, P)
        raise ConfigError("config needs either [h0]+[module] or [direct]")

    def _run_reduce(self):
        module = self.module()
        return reduce_hamiltonian(
            self.taylor(), self.p0_series(), module,
            np.array(self.get("h0", "y0", [0.0] * module.l, _floats)),
            self.get("kam", "epsilon", 0.0, float),
            delta=self.delta(),
            gamma=self.schedule().gamma,
            degmax=self.get("kam", "degmax", 6, int),
            scaling_exponent=self.get("kam", "action_scaling_exponent",
                                      0.5, float))


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(v):
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=1)
                    + "\n")


def write_manifest(outdir: Path, command: str, cfg: RunConfig, seed: int):
    write_json(outdir / "manifest.json", {
        "command": command,
        "config": cfg.echo(),
        "seed": seed,
        "versions": {
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
            "resonorm": __version__,
        },
    })


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_reduce(cfg: RunConfig, outdir: Path, seed: int) -> int:
    red = cfg._run_reduce()
    (outdir / "p1.series").write_text(to_text(red.P1))
    (outdir / "rterm.series").write_text(to_text(red.Rterm))
    write_json(outdir / "reduced.json", {
        "epsilonN0": red.epsilonN0,
        "omega1": red.omega1,
        "M1": red.M1,
        "U0": red.U0,
        "V0": red.V0,
        "phi0": red.phi0,
        "epsilon": red.epsilon,
        "diagnostics": red.diagnostics,
    })
    return 0


def _iterate(cfg: RunConfig):
    state = cfg.state()
    res = iterate(state, cfg.delta(), cfg.schedule(),
                  pmax=cfg.get("kam", "pmax", 6, int))
    return res


def cmd_iterate(cfg: RunConfig, outdir: Path, seed: int) -> int:
    res = _iterate(cfg)
    rows = []
    for p, norm in enumerate(res.trajectory):
        stats = res.state.step_stats[p - 1] if 1 <= p <= len(res.state.step_stats) \
            else {}
        rows.append((p, norm, stats.get("min_kw", math.nan),
                     stats.get("min_detA1", math.nan),
                     stats.get("min_detA2", math.nan)))
    write_csv(outdir / "norms.csv",
              ["p", "perturbation_norm", "min_kw", "min_detA1", "min_detA2"],
              rows)
    st = res.state
    write_json(outdir / "state.json", {
        "p": st.p,
        "epsilon": st.epsilon,
        "omega_p": st.omega_p(),
        "M_p": st.M_p(),
        "epsilon_series": st.epsilon_series(),
        "eps_coeffs": list(st.eps_coeffs),
        "omega_coeffs": [list(w) for w in st.omega_coeffs],
        "trajectory": res.trajectory,
        "stopped": res.stopped,
        "rejection": res.rejection,
    })
    (outdir / "p_final.series").write_text(to_text(st.P))
    if res.stopped == "rejected":
        reason = res.rejection["reason"]
        if res.rejection["kind"] == "DivisorError":
            raise DivisorError("iteration stopped on a rejected step: " + reason)
        raise InvariantError(reason)
    return 0


def cmd_spectrum(cfg: RunConfig, outdir: Path, seed: int) -> int:
    res = _iterate(cfg)
    pred = predict_spectrum(res.state, epsilon=None, alpha=cfg.delta().alpha,
                            **cfg.quantize(res.state.geometry.d))
    ids = pred.cluster_ids()
    rows = []
    for (qn, e), cid in zip(pred.entries, ids):
        rows.append(("/".join(str(v) for v in qn.n_y),
                     "/".join(str(v) for v in qn.n_u),
                     "/".join(str(v) for v in qn.n_v),
                     e, int(cid), pred.remainder))
    write_csv(outdir / "spectrum.csv",
              ["n_y", "n_u", "n_v", "energy", "cluster_id", "remainder_bound"],
              rows)
    return 0


def _oracle_symbol(cfg: RunConfig, state: NormalFormState):
    """The symbol the oracle quantizes: N = <omega_p, y> + (eps/2) <z, M_p z>
    with all of M_p, plus the [oracle] coupling g eps cos x_1 as the rows
    +-e_1 with coefficient g eps / 2."""
    geo = state.geometry
    c = cfg.get("oracle", "coupling", 0.0, float) * state.epsilon / 2.0
    e1 = (1,) + (0,) * (geo.d - 1)
    return (state.integrable_series()
            + FourierTaylorSeries.fourier_mode(geo, e1, c)
            + FourierTaylorSeries.fourier_mode(geo, [-v for v in e1], c))


def _oracle_operator(cfg: RunConfig, state: NormalFormState, h, window):
    symbol = _oracle_symbol(cfg, state)
    Nt = cfg.get("oracle", "Nt", 0, int)
    omega = state.omega_p()
    need = required_Nt(window[1], h, float(np.min(np.abs(omega))),
                       symbol.kmax)
    if Nt == 0:
        Nt = need
    if Nt < need:
        raise CoverageError(
            f"oracle basis Nt={Nt} does not cover the window; need >= {need}")
    return build_operator(symbol, h, Nt, cfg.get("oracle", "Nh", 16, int))


def _interior_filter(op, window):
    """Drop the Hermite truncation edge (top 20% of levels) before the
    component eigensolves: the window's spectrum, whose `op` is the
    interior operator that its eigenvectors are aligned with."""
    return window_spectrum(interior(op), window)


def cmd_compare(cfg: RunConfig, outdir: Path, seed: int) -> int:
    res = _iterate(cfg)
    state = res.state
    q = cfg.quantize(state.geometry.d)
    pred = predict_spectrum(state, epsilon=None, alpha=cfg.delta().alpha, **q)
    window = q["window"]
    op = _oracle_operator(cfg, state, q["h"], window)
    sel = _interior_filter(op, window).values
    rep = match_spectrum(sel, pred,
                         gap_factor=cfg.get("oracle", "gap_factor", 4.0, float))

    # each window value against its nearest predicted level, the first on
    # a tie; none without a prediction
    pred_e = pred.energies()
    if pred_e.size:
        near = np.abs(sel[:, None] - pred_e).argmin(axis=1)
        e_p, cid = pred_e[near], pred.cluster_ids()[near]
    else:
        e_p, cid = np.full(sel.size, math.nan), np.full(sel.size, -1)
    err = np.abs(e_p - sel).tolist()
    write_csv(outdir / "comparison.csv",
              ["energy_predicted", "energy_oracle", "abs_error", "cluster_id"],
              zip(e_p.tolist(), sel.tolist(), err, cid.tolist()))
    write_json(outdir / "summary.json", {
        "max_abs_error": max(err, default=math.nan),
        "max_center_error": rep.max_center_error,
        "max_width_error": rep.max_width_error,
        "intra_spacing_oracle": rep.intra_spacing_oracle,
        "intra_spacing_predicted": rep.intra_spacing_predicted,
        "matched_clusters": len(rep.matched),
        "unmatched_clusters": rep.unmatched,
        "scaling": pred.scaling,
        "remainder_bound": pred.remainder,
        "oracle_dim": op.dim,
    })
    return 0


def cmd_measure(cfg: RunConfig, outdir: Path, seed: int) -> int:
    delta = cfg.delta()
    l = cfg.get("measure", "l", 2, int)
    d = cfg.get("measure", "d", 2, int)
    samples = cfg.get("measure", "samples", 100_000, int)
    specs = cfg.get("measure", "zones", [], lambda s: _rows(s, _zone))
    gamma1 = cfg.get("measure", "gamma1", 1e-3, float)
    Kmax = cfg.get("measure", "Kmax", 6, int)
    zones, (est, ci, maj) = zones_and_excluded_set(
        specs, gamma1, delta, Kmax, l, d, samples, seed)
    rows = []
    for spec, (z_est, z_ci) in zip(specs, zones):
        exact = _exact_zone_measure(spec.k, spec.beta)
        rows.append(("/".join(str(v) for v in spec.k), spec.beta, z_est, z_ci,
                     exact if exact is not None else math.nan, math.nan))
    rows.append(("union", gamma1, est, ci, math.nan, maj))
    write_csv(outdir / "measure.csv",
              ["k_or_union", "beta", "estimate", "ci95", "exact_if_known",
               "majorant"], rows)
    summ = summability_check(delta, d)
    write_json(outdir / "summability.json", {
        "converges": summ.converges,
        "partial": summ.partial,
        "tail_bound": summ.tail_bound,
        "estimate": summ.estimate,
        "terms_used": summ.terms_used,
    })
    return 0


def _exact_zone_measure(k, beta):
    # closed forms on [0,1]^2: axis strips, the (1,1) triangle, and the
    # (1,-1) diagonal band
    if len(k) != 2 or beta > 1.0:
        return None
    kk = tuple(sorted(abs(v) for v in k))
    if kk == (0, 1):
        return min(beta, 1.0)
    if kk == (1, 1):
        same_sign = k[0] * k[1] > 0
        if same_sign:
            return beta ** 2 / 2.0          # w1 + w2 <= beta
        return beta * (2.0 - beta)          # |w1 - w2| <= beta
    return None


def cmd_scar(cfg: RunConfig, outdir: Path, seed: int) -> int:
    res = _iterate(cfg)
    state = res.state
    q = cfg.quantize(state.geometry.d)
    h, window, maslov = q["h"], q["window"], q["maslov"]
    delta = cfg.delta()
    lam = cfg.get("scarring", "lam", 4.0, float)
    delta_exp = cfg.get("scarring", "delta_exp", 1.85, float)
    meas_ratio = cfg.checked("scarring", "meas_ratio", 0.5, float, *_POSITIVE)
    C1 = cfg.checked("scarring", "C1", 1.0, float, *_POSITIVE)
    mass_window = cfg.checked("scarring", "mass_window", 2.5 * h, float,
                              lambda w: 0.0 <= w < math.inf,
                              "be finite and >= 0")

    op = _oracle_operator(cfg, state, h, window)
    spec = _interior_filter(op, window)
    sel = spec.values

    # lattice actions reaching the window
    L = cfg.get("scarring", "L", 0.5, float)
    lo_a = window[0] / float(np.max(np.abs(state.omega_p())))
    hi_a = window[1] / float(np.min(np.abs(state.omega_p())))
    d = state.geometry.d
    cloud = np.linspace(lo_a, hi_a, 512 - 512 % d).reshape(-1, d)
    modes, empty = action_index_set(cloud, h, L, maslov)
    if empty or not modes:
        write_json(outdir / "scar.json", {"empty": True})
        return 0

    offset = resonant_ground_energy(state, h, q["scaling"])
    table = build_quasi_table(state, h, maslov, modes, offset=offset)
    table = table.select((window[0] <= table.mu) & (table.mu <= window[1]))

    sep = separation_check(table, C1, delta)
    census = window_census(table, delta_exp, sel, lam=lam, R=1.0 / meas_ratio)

    matches = match_quasimodes(table, sel)
    # eigenvectors for the matched eigenvalues only, each index once
    idx = sorted({i for _, i, _, _ in matches})
    vecs = dict(zip(idx, spec.vectors(idx).T))
    threshold = (meas_ratio / (2.0 * lam)) ** 2
    masses = []
    for m, i, e, dist in matches:
        I_m = h * (np.asarray(m, dtype=float) + np.asarray(maslov) / 4.0)
        wmodes = torus_window_modes(op.torus_modes, h, I_m, mass_window)
        masses.append({"m": list(m), "eig": e,
                       "mass": mass_on_torus(vecs[i], wmodes)})
    passing = sum(1 for r in masses if r["mass"] >= threshold)

    diffeo = local_diffeo_check(state, [(lo_a, hi_a)] * state.geometry.d,
                                [state.epsilon], grid_nodes=8,
                                pair_samples=2000, seed=seed)
    write_json(outdir / "scar.json", {
        "separation": {
            "violations": len(sep.violations),
            "measured_C2": sep.measured_C2,
            "qualifying_pairs": sep.qualifying_pairs,
        },
        "census": {
            "fraction": census.fraction,
            "lam": lam,
            "floor": 1.0 - 2.0 / lam,
            "counts": {"/".join(str(v) for v in m): c
                       for m, c in census.counts.items()},
        },
        "mass": {
            "threshold": threshold,
            "entries": masses,
            "max_mass": max((r["mass"] for r in masses), default=math.nan),
            "passing_fraction": passing / len(masses) if masses else math.nan,
        },
        "constants": {"G1": diffeo.G1, "G2": diffeo.G2,
                      "min_singular": diffeo.min_singular},
        "matched_pairs": len(matches),
    })
    return 0


def cmd_gamma(cfg: RunConfig, outdir: Path, seed: int) -> int:
    delta = cfg.delta()
    rs = cfg.get("gamma_table", "r", [0, 1, 2], _ints)
    ns = cfg.get("gamma_table", "n", [0, 1], _ints)
    if min(rs + ns, default=0) < 0:
        raise ConfigError("[gamma_table] r and n must be non-negative")
    kappa = cfg.checked("gamma_table", "kappa", 2.0, float,
                        lambda k: 1.0 < k <= 2.0, "lie in (1, 2]")
    T = cfg.checked("gamma_table", "T", 1.0, float,
                    lambda t: t >= delta.varsigma,
                    f"be >= varsigma = {delta.varsigma}")
    a, c = ba_integrals(delta, kappa, T)      # one pair for every row
    rows = []
    for r in rs:
        for n in ns:
            eta = n * a + r * c
            val = gamma_extremal(r, n, eta, delta) if eta > 0 else 1.0
            rows.append((r, n, eta, val, extremal_bound(delta, T, eta)))
    write_csv(outdir / "gamma.csv",
              ["r", "n", "eta", "gamma_extremal", "integral_bound"], rows)
    return 0


COMMANDS = {
    "reduce": cmd_reduce,
    "iterate": cmd_iterate,
    "spectrum": cmd_spectrum,
    "compare": cmd_compare,
    "measure": cmd_measure,
    "scar": cmd_scar,
    "gamma": cmd_gamma,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="resonorm",
        description="Resonant normal forms, spectrum prediction, and "
                    "diagonalization cross-checks")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="INI scenario file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the [run] seed")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(Path(args.config))
        seed = args.seed if args.seed is not None else \
            cfg.get("run", "seed", 12345, int)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_manifest(outdir, args.command, cfg, seed)
        return COMMANDS[args.command](cfg, outdir, seed)
    except ResonormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
