"""Workload definitions: seeded input generators and output checks.

Every workload is a fixed sequence of `resonorm` CLI commands run against
INI and series files that this module writes.  Parameters that enter the
divisor conditions (frequencies, the resonance module, the Hessian, the
resonant amplitude, the resonant matrix M) are constants; the seed draws
only the remaining coefficients.  Inputs are built with `random.Random`
and written as text, so they do not depend on the program under test.

The iterate, compare and scar workloads are checked against values the
reference commit produced (`reference.json`).  Their seed therefore selects
one of BANK input sets, `seed % BANK`, for each of which the reference
holds the reference commit's outputs.  measure-gamma is checked against closed
forms and uses the seed directly as the Monte Carlo seed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BANK = 64
PLASTIC = 1.3247179572447454          # real root of x^3 = x + 1
GOLDEN = 1.618033988749895

GEVREY = """
[gevrey]
family = power_log
a = {a}
alpha = 2.0
"""


def _series_text(d: int, d0: int, kmax: int, degmax: int, rows) -> str:
    """Series text format: header, then `k | j | q | re im` per coefficient."""
    lines = ["# d d0 kmax degmax", f"{d} {d0} {kmax} {degmax}"]
    for k, j, q, c in sorted(rows):
        q_part = " ".join(str(v) for v in q) if q else "-"
        lines.append(f"{' '.join(str(v) for v in k)} | "
                     f"{' '.join(str(v) for v in j)} | {q_part} | "
                     f"{c.real!r} {c.imag!r}")
    return "\n".join(lines) + "\n"


def _cos_rows(k, j, q, amp, phase=0.0):
    """amp * cos(<k, x> + phase) * monomial: two conjugate coefficients."""
    c = complex(amp / 2.0 * math.cos(phase), amp / 2.0 * math.sin(phase))
    return [(tuple(k), tuple(j), tuple(q), c),
            (tuple(-v for v in k), tuple(j), tuple(q), c.conjugate())]


# ---------------------------------------------------------------------------
# generators: seed -> {file name: text}
# ---------------------------------------------------------------------------

def gen_reduce_iterate(seed: int) -> dict:
    """l = 3, module (0 0 1): d = 2, d0 = 1.  P0 = 1.3 cos(t3) plus three
    non-resonant modes, two of them coupled to the resonant angle.  Their
    amplitudes are drawn from a narrow band and their phases freely: term
    counts, and with them the cost, then barely depend on the seed."""
    rng = random.Random(f"reduce-iterate/{seed % BANK}")
    rows = _cos_rows((0, 0, 1), (0, 0, 0), (), 1.3)
    for k in ((1, 0, 1), (0, 1, -1), (1, 1, 0)):
        rows += _cos_rows(k, (0, 0, 0), (), rng.uniform(0.38, 0.42),
                          rng.uniform(0.0, 2.0 * math.pi))
    ini = f"""
[h0]
value = 0.0
gradient = 1.0 {GOLDEN!r} 0.0
hessian = 1 0 0 ; 0 1 0 ; 0 0 1.7
y0 = 0 0 0

[module]
generators = 0 0 1

[p0]
file = p0.series
{GEVREY.format(a=2.0)}
[kam]
epsilon = 1e-3
gamma = 0.01
K = 4
pmax = 1
degmax = 4

[run]
seed = {seed % BANK}
"""
    return {"run.ini": ini, "p0.series": _series_text(3, 0, 1, 0, rows)}


def gen_kam_divisor(seed: int) -> dict:
    """d = 3, d0 = 1, omega = (1, rho, rho^2), M = diag(1, -1), K = 6,
    pmax = 2: 2,196 + 15,624 divisor modes.  M is hyperbolic because with
    an elliptic M = I, det A1 = 1 - <k, omega>^2 vanishes at k = (1, 0, 0).
    P has six coefficients: three real modes with drawn amplitude and phase."""
    rng = random.Random(f"kam-divisor/{seed % BANK}")
    rows = []
    for k, j in (((1, 0, 0), (0, 0, 0)), ((0, 1, -1), (0, 0, 0)),
                 ((0, 0, 1), (1, 0, 0))):
        rows += _cos_rows(k, j, (0, 0), rng.uniform(0.9, 1.1),
                          rng.uniform(0.0, 2.0 * math.pi))
    ini = f"""
[direct]
omega = 1.0 {PLASTIC!r} {PLASTIC * PLASTIC!r}
d0 = 1
M = 1.0 0 ; 0 -1.0
epsilon = 1e-3
p_file = p.series
{GEVREY.format(a=2.0)}
[kam]
gamma = 0.01
K = 6
pmax = 2

[run]
seed = {seed % BANK}
"""
    return {"run.ini": ini, "p.series": _series_text(3, 1, 1, 1, rows)}


# Oracle model: d = 1, d0 = 1, zero P.  Nt is pinned to the value the CLI
# would derive, ceil(0.38 / 0.035) + 3, so the independent reference below
# assembles the same basis.
ORACLE = {"omega": 1.0, "eps": 0.01, "h": 0.035, "Nh": 36, "Nt": 14,
          "window": (0.12, 0.38), "M": (1.0, 1.0), "n_res_max": 5}


def gen_oracle(seed: int) -> dict:
    rng = random.Random(f"oracle/{seed % BANK}")
    o = ORACLE
    coupling = rng.uniform(0.08, 0.12)
    ini = f"""
[direct]
omega = {o['omega']!r}
d0 = 1
M = {o['M'][0]!r} 0 ; 0 {o['M'][1]!r}
epsilon = {o['eps']!r}
{GEVREY.format(a=2.0)}
[kam]
gamma = 0.01
pmax = 2

[quantize]
h = {o['h']!r}
window = {o['window'][0]!r} {o['window'][1]!r}
maslov = 0
scaling = oscillator
n_res_max = {o['n_res_max']}

[oracle]
Nh = {o['Nh']}
Nt = {o['Nt']}
coupling = {coupling!r}

[scarring]
delta_exp = 1.85
lam = 4.0
meas_ratio = 0.5
L = 0.5

[run]
seed = {seed % BANK}
"""
    return {"run.ini": ini}


def gen_measure_gamma(seed: int) -> dict:
    ini = f"""
{GEVREY.format(a=3.0)}
[measure]
l = 2
d = 2
samples = 2000000
zones = 1 0 0.1 ; 0 1 0.05 ; 1 1 0.2 ; 1 -1 0.1
gamma1 = 2e-3
Kmax = 8

[gamma_table]
r = 0 1 2 3
n = 0 1 2

[run]
seed = {seed % 2 ** 32}
"""
    return {"run.ini": ini}


def write_inputs(files: dict, directory: Path) -> str:
    """Write the generated files; return the sha256 of their bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name in sorted(files):
        data = files[name].encode()
        (directory / name).write_bytes(data)
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

_NP_SCALAR = re.compile(r"^np\.float64\((.*)\)$")


def _num(text: str) -> float:
    """Parse a CSV float; the CLI writes numpy scalars as `np.float64(x)`
    in some columns under numpy 2."""
    m = _NP_SCALAR.match(text.strip())
    return float(m.group(1) if m else text)


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class CheckFailed(Exception):
    """An output that does not meet its workload's check."""


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# checks: (output dirs by command, seed, reference, input dir) -> values
# ---------------------------------------------------------------------------

def check_iterate(outs: dict, seed: int, ref: dict, inputs: Path) -> dict:
    out = outs["iterate"]
    traj = [_num(r["perturbation_norm"]) for r in read_csv(out / "norms.csv")]
    _require(len(traj) >= 2, "norms.csv holds no step")
    for a, b in zip(traj, traj[1:]):
        _require(b <= a, f"norm trajectory increases: {a!r} -> {b!r}")
    state = json.loads((out / "state.json").read_text())
    _require(state["stopped"] in ("pmax", "target"),
             f"iteration stopped: {state['stopped']}")
    want = ref[str(seed % BANK)]["trajectory"]
    _require(len(want) == len(traj), "trajectory length differs from the "
             "reference commit's")
    for got, exp in zip(traj, want):
        _require(_close(got, exp, 1e-9),
                 f"norm {got!r} differs from the reference commit's {exp!r}")
    return {"kam_norm_final": traj[-1]}


def oracle_reference(coupling: float):
    """Interior-filtered window eigenvalues of the d = 1, d0 = 1 model and
    the 2-norm of the full matrix, assembled independently of the program.

    With zero P the operator is a Kronecker sum T (x) I + I (x) O: T is the
    torus part h*n*omega plus the coupling g*eps/2 (e^{ix} + e^{-ix}), and O
    is eps/2 (M_uu u^2 + M_vv v^2) built from truncated ladder matrices.
    Its eigenvalues are all sums t_i + o_j; the interior filter keeps the
    Hermite levels below 0.8 Nh, i.e. a principal submatrix of O.
    """
    import numpy as np

    o = ORACLE
    h, eps, Nh, Nt = o["h"], o["eps"], o["Nh"], o["Nt"]
    n = np.arange(-Nt, Nt + 1)
    T = np.diag(h * n * o["omega"]) + np.diag(
        np.full(2 * Nt, coupling * eps / 2.0), 1) + np.diag(
        np.full(2 * Nt, coupling * eps / 2.0), -1)
    lad = np.sqrt(h * np.arange(1, Nh) / 2.0)
    U = np.diag(lad, 1) + np.diag(lad, -1)
    P = 1j * (np.diag(lad, -1) - np.diag(lad, 1))
    O = 0.5 * eps * (o["M"][0] * (U @ U) + o["M"][1] * (P @ P)).real
    t = np.linalg.eigvalsh(T)
    keep = max(int(0.8 * Nh), 1)
    inner = np.sort(np.add.outer(t, np.linalg.eigvalsh(O[:keep, :keep]))
                    .ravel())
    lo, hi = o["window"]
    full = np.add.outer(t, np.linalg.eigvalsh(O)).ravel()
    return inner[(inner >= lo) & (inner <= hi)], float(np.abs(full).max())


def _coupling(inputs: Path) -> float:
    text = (inputs / "run.ini").read_text()
    return float(re.search(r"^coupling = (.*)$", text, re.M).group(1))


def check_compare(outs: dict, seed: int, ref: dict, inputs: Path) -> dict:
    out = outs["compare"]
    summary = json.loads((out / "summary.json").read_text())
    _require(summary["unmatched_clusters"] == 0,
             f"{summary['unmatched_clusters']} unmatched clusters")
    got = sorted(_num(r["energy_oracle"]) for r in
                 read_csv(out / "comparison.csv"))
    want, norm_a = oracle_reference(_coupling(inputs))
    _require(len(got) == len(want),
             f"{len(got)} window eigenvalues, reference has {len(want)}")
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    _require(worst <= 1e-10 * norm_a,
             f"window eigenvalue off by {worst:.3e} > 1e-10 |A|")
    err = float(summary["max_abs_error"])
    ref_err = ref[str(seed % BANK)]["max_abs_error"]
    _require(err <= ref_err * (1.0 + 1e-12),
             f"max_abs_error {err!r} exceeds the reference {ref_err!r}")
    return {"spectrum_max_err": err, "eigenvalue_dev": float(worst)}


def check_scar(outs: dict, seed: int, ref: dict, inputs: Path) -> dict:
    rep = json.loads((outs["scar"] / "scar.json").read_text())
    _require(not rep.get("empty"), "scar report is empty")
    census = rep["census"]
    _require(census["fraction"] >= census["floor"],
             f"census fraction {census['fraction']} below {census['floor']}")
    frac = rep["mass"]["passing_fraction"]
    want = ref[str(seed % BANK)]["passing_fraction"]
    _require(frac == want,
             f"passing mass fraction {frac!r}, reference commit {want!r}")
    return {"passing_fraction": frac, "census_fraction": census["fraction"]}


def check_measure_gamma(outs: dict, seed: int, ref: dict,
                        inputs: Path) -> dict:
    rows = read_csv(outs["measure"] / "measure.csv")
    union = None
    for r in rows:
        est, ci = _num(r["estimate"]), _num(r["ci95"])
        exact = _num(r["exact_if_known"])
        if r["k_or_union"] == "union":
            union = (est, _num(r["majorant"]))
        elif not math.isnan(exact):
            _require(abs(est - exact) <= 4.0 * ci,
                     f"zone {r['k_or_union']}: {est!r} vs exact {exact!r} "
                     f"beyond 4 ci95 = {4.0 * ci:.3e}")
    _require(union is not None, "measure.csv has no union row")
    _require(union[0] <= union[1],
             f"union estimate {union[0]!r} above its majorant {union[1]!r}")
    table = [[_num(v) for v in r.values()]
             for r in read_csv(outs["gamma"] / "gamma.csv")]
    want = ref["table"]
    _require(len(table) == len(want), "gamma table size differs")
    for got_row, want_row in zip(table, want):
        for g, w in zip(got_row, want_row):
            _require(_close(g, w, 1e-12) or g == w,
                     f"gamma table value {g!r}, reference commit {w!r}")
    return {"union_estimate": union[0], "union_majorant": union[1]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    generate: Callable
    check: Callable


WORKLOADS = {w.name: w for w in (
    Workload("reduce-iterate",
             "reduce then KAM iterate; the series bracket dominates",
             ("iterate",), gen_reduce_iterate, check_iterate),
    Workload("kam-divisor",
             "same iterate entry, d=3 and K=6; the divisor check dominates",
             ("iterate",), gen_kam_divisor, check_iterate),
    Workload("oracle-compare",
             "eigenvalues-only oracle path: dense eigh, 2-norm SVD, re-solve",
             ("compare",), gen_oracle, check_compare),
    Workload("oracle-scar",
             "oracle path that needs eigenvectors, plus scarring diagnostics",
             ("scar",), gen_oracle, check_scar),
    Workload("measure-gamma",
             "only path through freqsets and gevrey; import is a large share",
             ("measure", "gamma"), gen_measure_gamma, check_measure_gamma),
)}
