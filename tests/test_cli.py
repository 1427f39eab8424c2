"""End-to-end command tests: each command against a small scenario config,
exit codes on broken inputs, and bit-identical reruns."""
import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resonorm.cli import RunConfig, main
from resonorm.errors import DivisorError
from resonorm.gevrey import lemma_ba_bound, power_log_delta
from resonorm.kam import check_divisors
from resonorm.oracle import ModelOperator, required_Nt
from resonorm.quantize import remainder_bound
from resonorm.reduction import unimodular_completion
from resonorm.series import (FourierTaylorSeries, PhaseGeometry,
                             lie_transform_auto, to_text)


def write_cos_series(path: Path, l=2, k=(0, 1)):
    geo = PhaseGeometry(d=l, d0=0)
    s = FourierTaylorSeries.from_terms(geo, [
        ((k, (0,) * l, ()), 0.5),
        ((tuple(-v for v in k), (0,) * l, ()), 0.5)])
    path.write_text(to_text(s))


REDUCE_CFG = """
[h0]
value = 0.5
gradient = 1 0
hessian = 1 0 ; 0 1
y0 = 1 0

[module]
generators = 0 1

[p0]
file = p0.series

[gevrey]
family = power_log
a = 2.0
alpha = 2.0

[kam]
epsilon = 1e-3
gamma = 0.01

[run]
seed = 7
"""

DIRECT_CFG = """
[direct]
omega = 1.6180339887498949
d0 = 0
epsilon = 1e-3
p_file = pert.series

[gevrey]
family = power_log
a = 2.0
alpha = 2.0

[kam]
gamma = 0.01
K = 8
pmax = 4

[quantize]
h = 0.05
window = 0.0 0.4
maslov = 0

[oracle]
Nh = 1

[run]
seed = 11
"""

RESONANT_CFG = """
[direct]
omega = 1.0
d0 = 1
M = 1.0 0 ; 0 1.0
epsilon = 0.01

[gevrey]
family = power_log
a = 2.0
alpha = 2.0

[kam]
gamma = 0.01
pmax = 2

[quantize]
h = 0.05
window = 0.12 0.38
maslov = 0
scaling = oscillator
n_res_max = 5

[oracle]
Nh = 24
coupling = 0.1

[scarring]
delta_exp = 1.85
lam = 4.0
meas_ratio = 0.5
L = 0.5

[run]
seed = 13
"""

MEASURE_CFG = """
[gevrey]
family = power_log
a = 3.0
alpha = 2.0

[measure]
l = 2
d = 2
samples = 50000
zones = 1 0 0.1 ; 1 1 0.1
gamma1 = 2e-3
Kmax = 5

[run]
seed = 17
"""


def write_pendulum_series(path: Path):
    geo = PhaseGeometry(d=1, d0=0)
    s = FourierTaylorSeries.from_terms(geo, [
        (((1,), (0,), ()), 0.5), (((-1,), (0,), ()), 0.5)])
    path.write_text(to_text(s))


def test_reduce_command(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(REDUCE_CFG)
    write_cos_series(tmp_path / "p0.series")
    out = tmp_path / "out"
    assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
    red = json.loads((out / "reduced.json").read_text())
    assert red["U0"][0][0] == pytest.approx(1.0)
    assert red["V0"][0][0] == pytest.approx(1.0, abs=1e-8)
    assert (out / "p1.series").exists()
    assert (out / "manifest.json").exists()


def test_reduce_missing_p0_exits_2(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(REDUCE_CFG)
    out = tmp_path / "out"
    rc = main(["reduce", "--config", str(cfg), "--out", str(out)])
    assert rc == 2


REDUCE3_CFG = """
[h0]
value = 0.0
gradient = 1.0 1.618033988749895 0.0
hessian = 1 0 0 ; 0 1 0 ; 0 0 1.7
y0 = 0 0 0

[module]
generators = 0 0 1

[p0]
file = p0.series

[gevrey]
family = power_log
a = 2.0
alpha = 2.0

[kam]
epsilon = 1e-3
gamma = 0.01
degmax = 4
"""


def write_modes_series(path: Path, modes):
    """sum of 0.5 cos(<k, x>) over the modes, on T^3."""
    geo = PhaseGeometry(d=3, d0=0)
    s = FourierTaylorSeries.from_terms(geo, [
        ((tuple(s * v for v in k), (0, 0, 0), ()), 0.5)
        for k in modes for s in (1, -1)])
    path.write_text(to_text(s))


def test_reduce_y0_defaults_to_zeros_of_length_l(tmp_path):
    write_modes_series(tmp_path / "p0.series", [(0, 0, 1), (1, 0, 1)])
    outs = []
    for name, text in (("given", REDUCE3_CFG),
                       ("default", REDUCE3_CFG.replace("y0 = 0 0 0\n", ""))):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        outs.append(tmp_path / name)
        assert main(["reduce", "--config", str(cfg), "--out", str(outs[-1])]) == 0
    for f in ("p1.series", "rterm.series", "reduced.json"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


def test_reduce_writes_cross_quad_mass_as_a_float(tmp_path):
    # this reduction leaves no y.z cross term in the flat remainder, so the
    # mass is 0.0; it is written as a float, as a nonzero mass is
    write_modes_series(tmp_path / "p0.series", [(0, 0, 1), (1, 0, 1)])
    cfg = tmp_path / "run.ini"
    cfg.write_text(REDUCE3_CFG)
    out = tmp_path / "out"
    assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
    assert '"cross_quad_mass": 0.0,' in (out / "reduced.json").read_text()


def test_reduce_y0_of_wrong_length_exits_2(tmp_path, capsys):
    write_modes_series(tmp_path / "p0.series", [(0, 0, 1)])
    cfg = tmp_path / "run.ini"
    cfg.write_text(REDUCE3_CFG.replace("y0 = 0 0 0", "y0 = 0 0"))
    assert main(["reduce", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert "y0 has 2 components" in capsys.readouterr().err


def test_reduce_averaging_divisor_failure_exits_3(tmp_path, capsys):
    # <(1, -1, 0), omega> = -1e-4 is below gamma / Delta(1) = 0.0025
    write_modes_series(tmp_path / "p0.series", [(0, 0, 1), (1, -1, 0)])
    cfg = tmp_path / "run.ini"
    cfg.write_text(REDUCE3_CFG.replace("1.618033988749895", "1.0001"))
    assert main(["reduce", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 3
    K0 = unimodular_completion([(0, 0, 1)]).K0
    kp = np.rint(np.linalg.solve(K0, [1, -1, 0])).astype(int)[:2]
    assert f"k' = {tuple(sorted([kp, -kp], key=tuple)[0].tolist())}" in \
        capsys.readouterr().err
    with pytest.raises(DivisorError) as exc:
        RunConfig(cfg)._run_reduce()
    table = exc.value.reports
    assert sorted(map(tuple, table.k.tolist())) == sorted(
        [tuple(kp.tolist()), tuple((-kp).tolist())])
    assert np.allclose(np.abs(table.kw), 1e-4)
    assert np.all(np.abs(table.kw) <= table.threshold_kw)
    assert not table.passed.any()


def test_missing_config_exits_2(tmp_path):
    rc = main(["reduce", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_iterate_command_decay(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(DIRECT_CFG)
    write_pendulum_series(tmp_path / "pert.series")
    out = tmp_path / "out"
    assert main(["iterate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "norms.csv").read_text().strip().splitlines()
    assert lines[0].startswith("p,")
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert last < first
    state = json.loads((out / "state.json").read_text())
    assert state["stopped"] in ("target", "pmax")


def test_iterate_divisor_failure_exits_3(tmp_path):
    cfg = tmp_path / "run.ini"
    bad = DIRECT_CFG.replace("omega = 1.6180339887498949", "omega = 1.0 0.5")
    bad = bad.replace("maslov = 0", "maslov = 0 0")
    cfg.write_text(bad)
    geo = PhaseGeometry(d=2, d0=0)
    s = FourierTaylorSeries.from_terms(geo, [
        (((1, -2), (0, 0), ()), 0.5), (((-1, 2), (0, 0), ()), 0.5)])
    (tmp_path / "pert.series").write_text(to_text(s))
    rc = main(["iterate", "--config", str(cfg), "--out",
               str(tmp_path / "out")])
    assert rc == 3


def test_spectrum_and_compare_integrable(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(DIRECT_CFG.replace("epsilon = 1e-3", "epsilon = 0.0")
                   .replace("p_file = pert.series", ""))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert len(lines) > 3
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_abs_error"] < 1e-12


def test_compare_window_not_covered_exits_4(tmp_path):
    cfg = tmp_path / "run.ini"
    txt = DIRECT_CFG.replace("epsilon = 1e-3", "epsilon = 0.0") \
        .replace("p_file = pert.series", "") \
        .replace("[oracle]\nNh = 1", "[oracle]\nNh = 1\nNt = 2")
    cfg.write_text(txt)
    rc = main(["compare", "--config", str(cfg), "--out",
               str(tmp_path / "out")])
    assert rc == 4


def test_oracle_solver_failures_exit_5(tmp_path, monkeypatch, capsys):
    import scipy.linalg
    eig_banded, qr = scipy.linalg.eig_banded, np.linalg.qr
    cfg = tmp_path / "run.ini"
    cfg.write_text(DIRECT_CFG.replace("epsilon = 1e-3", "epsilon = 0.0")
                   .replace("p_file = pert.series", ""))

    def run(command):
        return main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
    # a band eigenvalue 1e-6 off the spectrum fails its residual check
    monkeypatch.setattr(scipy.linalg, "eig_banded",
                        lambda *a, **k: eig_banded(*a, **k) + 1e-6)
    assert run("compare") == 5
    assert "residual" in capsys.readouterr().err

    # a LAPACK failure in the band solve is an invariant violation
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    monkeypatch.setattr(scipy.linalg, "eig_banded", fails)
    for command in ("compare", "scar"):
        assert run(command) == 5
        assert "band eigensolve failed" in capsys.readouterr().err
    monkeypatch.setattr(scipy.linalg, "eig_banded", eig_banded)

    # so is an eigenvector that fails its residual check.  Without spot
    # checks, scar's vectors for its matched eigenvalues are the only
    # inverse iteration; the final orthonormalization then returns the
    # rows of each vector rolled by one, which is no eigenvector
    import resonorm.oracle
    monkeypatch.setattr(resonorm.oracle, "SPOT_CHECKS", 0)
    monkeypatch.setattr(np.linalg, "qr", lambda a: (np.roll(qr(a)[0], 1, 0),
                                                    None))
    cfg.write_text(RESONANT_CFG)
    assert run("scar") == 5
    assert "residual" in capsys.readouterr().err


def test_compare_resonant_clusters(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RESONANT_CFG)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    h, eps = 0.05, 0.01
    assert summary["matched_clusters"] >= 3
    want = eps * h  # sqrt(lam*lamt) = 1
    assert abs(summary["intra_spacing_oracle"] - want) < 0.1 * want


def test_comparison_csv_cells_are_plain_numbers(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RESONANT_CFG)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert len(lines) > 1
    for ln in lines[1:]:
        for cell in ln.split(","):
            float(cell)


def test_configured_alpha_sets_remainder_bound(tmp_path):
    h, eps = 0.05, 0.01
    bounds = {}
    for alpha in (2.0, 3.0):
        cfg = tmp_path / f"run{alpha}.ini"
        cfg.write_text(RESONANT_CFG.replace("alpha = 2.0", f"alpha = {alpha}"))
        out = tmp_path / f"out{alpha}"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["remainder_bound"] == remainder_bound(h, eps, alpha)
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
        assert {float(r.split(",")[-1]) for r in rows} == \
            {remainder_bound(h, eps, alpha)}
        bounds[alpha] = summary["remainder_bound"]
    assert bounds[3.0] != bounds[2.0]


def test_scar_command(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RESONANT_CFG)
    out = tmp_path / "out"
    assert main(["scar", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "scar.json").read_text())
    assert rep["separation"]["violations"] == 0
    assert rep["census"]["fraction"] >= rep["census"]["floor"]
    assert rep["mass"]["passing_fraction"] >= 0.8


def test_scar_command_three_tori(tmp_path):
    # d = 3 takes a 510-point action cloud (512 rounded down to 3 | n)
    cfg = tmp_path / "run.ini"
    cfg.write_text(DIRECT_CFG.replace(
        "omega = 1.6180339887498949",
        "omega = 1.0 1.3247179572447454 1.7548776662466927")
        .replace("epsilon = 1e-3", "epsilon = 0.0")
        .replace("p_file = pert.series", "")
        .replace("h = 0.05", "h = 0.2").replace("maslov = 0", "maslov = 0 0 0"))
    out = tmp_path / "out"
    assert main(["scar", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "scar.json").read_text())
    assert rep["matched_pairs"] >= 1
    assert rep["census"]["fraction"] >= rep["census"]["floor"]


@pytest.mark.parametrize("command", ["compare", "scar"])
def test_oracle_commands_solve_once(tmp_path, monkeypatch, command):
    import scipy.linalg
    calls = []
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (scipy.linalg, "eig_banded")):
        def counted(a, *args, _name=name, _fn=getattr(owner, name),
                    **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    cfg = tmp_path / "run.ini"
    cfg.write_text(RESONANT_CFG)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    # the prediction diagonalizes the 1 x 1 blocks of M; every larger
    # matrix is an oracle solve, and the only one is on the 19 interior
    # levels of Nh = 24: one values-only band solve on the lower band
    # storage.  With M = I the resonant part is diagonal in the Hermite
    # level and e^{ix} keeps it, so each level is one tridiagonal
    # component over the nt torus modes, and in component order the
    # bandwidth is 1.  scar's eigenvectors come from inverse iteration,
    # not a solve
    solves = [c for c in calls if c[1][0] > 1]
    nt = 2 * required_Nt(0.38, 0.05, 1.0, 1) + 1
    assert solves == [("eig_banded", (2, nt * 19))]


def test_scar_computes_each_matched_eigenvector_once(tmp_path, monkeypatch):
    # every table entry matched twice: scar asks inverse iteration for each
    # distinct eigenvalue once, and both copies of an entry get its mass
    import resonorm.cli
    import resonorm.oracle
    from resonorm.oracle import WindowSpectrum
    match, vectors = resonorm.cli.match_quasimodes, WindowSpectrum.vectors
    asked = []

    def recorded(self, lams):
        asked.append(np.asarray(lams))
        return vectors(self, lams)
    monkeypatch.setattr(resonorm.oracle, "SPOT_CHECKS", 0)
    monkeypatch.setattr(WindowSpectrum, "vectors", recorded)
    monkeypatch.setattr(resonorm.cli, "match_quasimodes",
                        lambda table, eigs: 2 * match(table, eigs))
    cfg = tmp_path / "run.ini"
    cfg.write_text(RESONANT_CFG)
    assert main(["scar", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "scar.json").read_text())
    entries = rep["mass"]["entries"]
    half = len(entries) // 2
    assert half > 0 and entries[:half] == entries[half:]
    asked = [lams for lams in asked if lams.size]      # no spot checks
    assert len(asked) == 1
    assert np.array_equal(asked[0], np.unique([e["eig"] for e in entries]))


def test_compare_never_forms_the_dense_matrix(tmp_path, monkeypatch):
    # neither oracle command: scar too runs on the band storage
    def dense(self):
        raise AssertionError("an oracle command read the dense matrix")
    monkeypatch.setattr(ModelOperator, "matrix", property(dense))
    cfg = tmp_path / "run.ini"
    cfg.write_text(RESONANT_CFG)
    for command in ("compare", "scar"):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / command)]) == 0


def test_compare_quantizes_off_diagonal_M(tmp_path):
    # d0 = 2 with U = V = [[1, 0.3], [0.3, 1]]: the oracle quantizes all of
    # M, whose normal modes have lambda = (0.7, 1.3).  U = V conserves the
    # total Hermite level, so below the interior cut the oracle levels are
    # exactly the prediction's eps h sum_j lambda_j (n_j + 1/2) on top of
    # the torus level h n w; the window holds the n = 3 cluster only
    h, eps = 0.05, 0.01
    cfg = tmp_path / "run.ini"
    cfg.write_text(RESONANT_CFG
                   .replace("d0 = 1", "d0 = 2")
                   .replace("M = 1.0 0 ; 0 1.0", "M = 1 0.3 0 0 ; 0.3 1 0 0 ; "
                            "0 0 1 0.3 ; 0 0 0.3 1")
                   .replace("window = 0.12 0.38", "window = 0.1495 0.152175")
                   .replace("n_res_max = 5", "n_res_max = 8")
                   .replace("Nh = 24\ncoupling = 0.1", "Nh = 10"))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "comparison.csv").read_text().strip().splitlines()[1:]
    got = [[float(v) for v in r.split(",")[:2]] for r in rows]
    want = sorted(3 * h + eps * h * (0.7 * (n1 + 0.5) + 1.3 * (n2 + 0.5))
                  for n1 in range(9) for n2 in range(9))
    want = [e for e in want if 0.1495 <= e <= 0.152175]
    assert len(want) == 10
    assert len(got) == len(want)
    for (predicted, oracle), e in zip(got, want):
        assert abs(predicted - e) <= 1e-15
        assert abs(oracle - e) <= 1e-15


def test_measure_command_and_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(MEASURE_CFG)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["measure", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["measure", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "measure.csv").read_bytes() == \
        (out2 / "measure.csv").read_bytes()
    assert (out1 / "summability.json").read_bytes() == \
        (out2 / "summability.json").read_bytes()
    text = (out1 / "measure.csv").read_text()
    assert "union" in text


@pytest.mark.parametrize("old, new", [
    ("d = 2", "d = 3"),
    ("samples = 50000", "samples = 0"),
    ("gamma1 = 2e-3", "gamma1 = nan"),
    ("1 1 0.1", "1 1 nan"),
])
def test_measure_bad_input_exits_2(tmp_path, old, new):
    cfg = tmp_path / "run.ini"
    text = MEASURE_CFG.replace(old, new)
    if old.startswith("samples"):
        text = text.replace("zones = 1 0 0.1 ; 1 1 0.1", "zones =")
    assert text != MEASURE_CFG
    cfg.write_text(text)
    assert main(["measure", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_gamma_command(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(MEASURE_CFG + "\n[gamma_table]\nr = 0 1\nn = 0 1\n")
    out = tmp_path / "out"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "gamma.csv").read_text().strip().splitlines()
    assert len(lines) == 5
    for ln in lines[1:]:
        r, n, eta, val, bound = ln.split(",")
        assert float(val) <= float(bound) * (1 + 1e-8)


def test_every_exported_name_resolves():
    import resonorm
    missing = [n for n in resonorm.__all__ if not hasattr(resonorm, n)]
    assert not missing


def test_no_module_state():
    # state is passed explicitly: no module holds an instance of a resonorm
    # class or a mutable container, apart from the CLI's command table
    import pkgutil
    import resonorm
    allowed = {("resonorm.cli", "COMMANDS")}
    found = []
    for info in pkgutil.iter_modules(resonorm.__path__):
        name = f"resonorm.{info.name}"
        for attr, value in vars(importlib.import_module(name)).items():
            if attr.startswith("__") or (name, attr) in allowed:
                continue
            if (type(value).__module__.startswith("resonorm")
                    or isinstance(value, (list, dict, set))):
                found.append((name, attr, type(value).__name__))
    assert not found


def test_import_path():
    # the CLI's imports load scipy.linalg and no other public scipy
    # subpackage (scipy.version comes with every scipy import)
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import resonorm.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.split()
    public = {m.split(".")[1] for m in out if not m.split(".")[1].startswith("_")}
    assert public - {"version"} == {"linalg"}


def test_gamma_table_equals_lemma_ba_bound(tmp_path):
    # the command evaluates the two integrals once for the whole table
    cfg = tmp_path / "run.ini"
    cfg.write_text(MEASURE_CFG + "\n[gamma_table]\nr = 0 1 2 3\nn = 0 1 2\n"
                   "kappa = 1.5\nT = 2.0\n")
    out = tmp_path / "out"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "gamma.csv").read_text().strip().splitlines()[1:]
    delta = RunConfig(cfg).delta()
    want = []
    for r in range(4):
        for n in range(3):
            _, _, eta, bound = lemma_ba_bound(delta, 1.5, 2.0, n, r)
            want.append((r, n, eta, bound))
    got = [(int(c[0]), int(c[1]), float(c[2]), float(c[4]))
           for c in (row.split(",") for row in rows)]
    assert got == want


def test_tracer_targets_resolve(monkeypatch):
    # the benchmark's --trace wraps these module attributes by name; read
    # perfbench/spans.py (never edit it) and check every one still exists
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            (module, attr)
    # and its divisor span still counts every mode of the box
    modes = {attr: attrs for _, attr, _, attrs in spans.TARGETS}["check_divisors"]
    omega = [1.0, (1.0 + math.sqrt(5.0)) / 2.0, math.sqrt(2.0)]
    for d, Kplus, M in ((1, 3, None), (2, 4, np.diag([1.0, -1.0])), (3, 2, None)):
        result = check_divisors(omega[:d], M, Kplus, 1e-3, power_log_delta(a=2.0))
        assert len(result[1]) == (2 * Kplus + 1) ** d - 1
        assert modes((), {}, result) == {"modes": (2 * Kplus + 1) ** d - 1}
    # its Lie span reads the order from a real result
    order = {attr: attrs
             for _, attr, _, attrs in spans.TARGETS}["lie_transform_auto"]
    G = PhaseGeometry(d=1, d0=0)
    H = FourierTaylorSeries(G, 0, 2, {((0,), (2,), ()): 0.5})
    F = FourierTaylorSeries.fourier_mode(G, (1,), 0.1j)
    result = lie_transform_auto(H, F, 1.0)
    assert result[1] == 3
    assert order((H, F, 1.0), {}, result) == {"order": 3}
    # and its construct span wraps __init__ in place, which must still build
    tracer = spans.Tracer("test")
    monkeypatch.setattr(FourierTaylorSeries, "__init__", tracer.wrap(
        "series.construct", FourierTaylorSeries.__init__))
    s = FourierTaylorSeries(G, 1, 1, {((1,), (1,), ()): 2.0})
    assert s.terms() == [(((1,), (1,), ()), 2.0 + 0j)]
    assert [span[0] for span in tracer.spans] == ["series.construct"]
