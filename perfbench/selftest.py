"""Self-tests of the benchmark: generator determinism, the self-time
arithmetic, and that every output check rejects a perturbed output.

Usage (from the repository root): python3 perfbench/selftest.py

The check tests run each workload's commands once on seed 0 (about 15 s).
"""
import csv
import json
import shutil
import time
import unittest
from pathlib import Path

from run import WORK, Runner
from spans import covered_length, layer_metrics, self_times
from workloads import WORKLOADS, CheckFailed, write_inputs

BENCH = Path(__file__).resolve().parent
REF = json.loads((BENCH / "reference.json").read_text())


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        tmp = WORK / "selftest" / "gen"
        for name, wl in WORKLOADS.items():
            a = write_inputs(wl.generate(5), tmp / name / "a")
            b = write_inputs(wl.generate(5), tmp / name / "b")
            c = write_inputs(wl.generate(6), tmp / name / "c")
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)
            for f in (tmp / name / "a").iterdir():
                self.assertEqual(f.read_bytes(),
                                 (tmp / name / "b" / f.name).read_bytes())


class SelfTimeTest(unittest.TestCase):
    def test_union_of_children(self):
        self.assertEqual(covered_length([(1, 4), (3, 6), (8, 12)], 0, 10), 7)
        self.assertEqual(covered_length([], 0, 10), 0)

    def test_span_tree(self):
        #  root [0, 10]: A [1, 4] (child G [2, 3]), B [5, 9]
        spans = [["root", 0.0, 10.0, -1, None],
                 ["A", 1.0, 4.0, 0, None],
                 ["G", 2.0, 3.0, 1, None],
                 ["B", 5.0, 9.0, 0, None]]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_layer_metrics(self):
        spans = [["oracle.diagonalize", 0.0, 10.0, -1, None],
                 ["linalg.eigh", 1.0, 6.0, 0, None],
                 ["linalg.norm", 6.0, 9.0, 0, {"ord2": True}],
                 ["cli.filter", 10.0, 12.0, -1, None],
                 ["linalg.eigvalsh", 10.5, 11.5, 3, None],
                 ["quantize.predict", 12.0, 13.0, -1, {"levels": 5}],
                 ["linalg.eigvalsh", 12.2, 12.3, 5, None],
                 ["series.bracket", 13.0, 15.0, -1,
                  {"pairs": 400, "terms_out": 10, "max_operand": 20}],
                 ["series.construct", 14.0, 14.5, 7, None]]
        m = layer_metrics(spans)
        self.assertEqual(m["oracle.solves"], 2)     # not the one in predict
        self.assertAlmostEqual(m["oracle.solve_s"], 6.0)
        self.assertAlmostEqual(m["oracle.norm2_s"], 3.0)
        self.assertAlmostEqual(m["oracle.diagonalize.self_s"], 2.0)
        self.assertAlmostEqual(m["cli.filter.self_s"], 1.0)
        self.assertAlmostEqual(m["series.bracket.self_s"], 1.5)
        self.assertAlmostEqual(m["series.bracket.pairs_per_s"], 400 / 1.5)
        self.assertAlmostEqual(m["series.bracket.yield"], 10 / 400)
        self.assertEqual(m["quantize.levels"], 5)


def _rewrite_csv(path: Path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def _rewrite_json(path: Path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


class CheckTest(unittest.TestCase):
    """Run each workload once, then perturb its outputs one way at a time."""

    @classmethod
    def setUpClass(cls):
        cls.work = WORK / "selftest" / "checks"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        runner = Runner(cls.work, time.perf_counter())
        cls.outs = {}
        for name, wl in WORKLOADS.items():
            inputs = cls.work / name / "inputs"
            write_inputs(wl.generate(0), inputs)
            outs = {}
            for command in wl.commands:
                outs[command] = cls.work / name / "clean" / command
                rec = runner.spawn([command, "--config",
                                    str(inputs / "run.ini"), "--out",
                                    str(outs[command])])
                assert rec["rc"] == 0, rec
            cls.outs[name] = (inputs, outs)

    def _check(self, name, edit=None):
        """Run the workload's check on a perturbed copy of the clean output."""
        inputs, clean = self.outs[name]
        copy = self.work / name / "perturbed"
        shutil.rmtree(copy, ignore_errors=True)
        outs = {c: copy / c for c in clean}
        for c, o in clean.items():
            shutil.copytree(o, outs[c])
        if edit:
            edit(outs)
        return WORKLOADS[name].check(outs, 0, REF[name], inputs)

    def _rejects(self, name, edit):
        with self.assertRaises(CheckFailed):
            self._check(name, edit)

    def test_clean_outputs_pass(self):
        for name in WORKLOADS:
            self._check(name)

    def test_iterate_rejects(self):
        def grow(rows):
            rows[-1]["perturbation_norm"] = repr(
                2.0 * float(rows[-2]["perturbation_norm"]))

        def shift(rows):
            rows[0]["perturbation_norm"] = repr(
                float(rows[0]["perturbation_norm"]) * (1 + 1e-7))
        for name in ("reduce-iterate", "kam-divisor"):
            self._rejects(name, lambda o: _rewrite_csv(
                o["iterate"] / "norms.csv", grow))
            self._rejects(name, lambda o: _rewrite_csv(
                o["iterate"] / "norms.csv", shift))
            self._rejects(name, lambda o: _rewrite_json(
                o["iterate"] / "state.json",
                lambda d: d.update(stopped="rejected")))

    def test_compare_rejects(self):
        def move(rows):
            rows[3]["energy_oracle"] = repr(float(rows[3]["energy_oracle"])
                                            + 1e-9)
        self._rejects("oracle-compare", lambda o: _rewrite_csv(
            o["compare"] / "comparison.csv", move))
        self._rejects("oracle-compare", lambda o: _rewrite_csv(
            o["compare"] / "comparison.csv", lambda rows: rows.pop()))
        self._rejects("oracle-compare", lambda o: _rewrite_json(
            o["compare"] / "summary.json",
            lambda d: d.update(unmatched_clusters=1)))
        self._rejects("oracle-compare", lambda o: _rewrite_json(
            o["compare"] / "summary.json",
            lambda d: d.update(max_abs_error=d["max_abs_error"] * 1.01)))

    def test_scar_rejects(self):
        self._rejects("oracle-scar", lambda o: _rewrite_json(
            o["scar"] / "scar.json",
            lambda d: d["census"].update(fraction=d["census"]["floor"] / 2)))
        self._rejects("oracle-scar", lambda o: _rewrite_json(
            o["scar"] / "scar.json",
            lambda d: d["mass"].update(passing_fraction=0.5)))

    def test_measure_gamma_rejects(self):
        def off_zone(rows):
            r = rows[0]
            r["estimate"] = repr(float(r["exact_if_known"])
                                 + 5.0 * float(r["ci95"]))

        def over_majorant(rows):
            rows[-1]["estimate"] = repr(2.0 * float(rows[-1]["majorant"]))

        def gamma_off(rows):
            rows[4]["integral_bound"] = repr(
                float(rows[4]["integral_bound"]) * (1 + 1e-9))
        self._rejects("measure-gamma", lambda o: _rewrite_csv(
            o["measure"] / "measure.csv", off_zone))
        self._rejects("measure-gamma", lambda o: _rewrite_csv(
            o["measure"] / "measure.csv", over_majorant))
        self._rejects("measure-gamma", lambda o: _rewrite_csv(
            o["gamma"] / "gamma.csv", gamma_off))


if __name__ == "__main__":
    unittest.main()
