"""The benchmark's own tests: every check fails on a deliberately wrong
input, the traced counts repeat exactly, and BENCHMARK.json names the
metrics run.py prints.

    python3 perfbench/selftest.py        # from the root of a checkout, about a minute
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import kyfanreg as kf  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _trial(residual, delta=1.0, alpha=1.0, flagged=False, eta=0.1):
    return SimpleNamespace(eta=eta, trial=0, residual=residual, delta_eff=delta,
                           alpha_or_kstar=alpha, flagged=flagged)


def _summaries(deltas, errs, **extra):
    return [SimpleNamespace(eta=d, delta_eff=d, err_kyfan=e, **extra) for d, e in zip(deltas, errs)]


def _result(trials=(), summaries=()):
    return SimpleNamespace(trials=list(trials), summaries=list(summaries))


class KernelChecks(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(3)
        m = 32
        grid = kf.AutoconvGrid(m)
        x, v, r = (rng.standard_normal(m) for _ in range(3))
        self.case = {
            "name": "random", "x": x, "v": v, "r": r,
            "F(x)": kf.autoconv_apply(grid, x), "F(v)": kf.autoconv_apply(grid, v),
            "F(x+v)": kf.autoconv_apply(grid, x + v),
            "F'(x)v": kf.autoconv_derivative_apply(grid, x, v),
            "F'(x)*r": kf.autoconv_derivative_adjoint_apply(grid, x, r),
        }

    def failures(self, key, delta):
        case = dict(self.case)
        case[key] = case[key].copy()
        case[key][5] += delta
        return checks.check_kernels(case)

    def test_program_kernels_pass(self):
        self.assertEqual(checks.check_kernels(self.case), [])

    def test_perturbed_autoconvolution_fails(self):
        found = self.failures("F(x)", 1e-9)
        self.assertTrue(any(p.startswith("kernel-vs-double-sum: autoconv_apply") for p in found))
        self.assertTrue(any(p.startswith("taylor-identity") for p in found))

    def test_perturbed_adjoint_fails(self):
        found = self.failures("F'(x)*r", 1e-9)
        self.assertTrue(any(p.startswith("adjoint-identity") for p in found))

    def test_perturbed_second_order_term_fails(self):
        self.assertTrue(self.failures("F(v)", 1e-9)[0].startswith("taylor-identity"))


class StudyChecks(unittest.TestCase):
    rule = SimpleNamespace(tau1=1.1, tau2=1.3)

    def test_trial_kinds(self):
        good = [_trial(1.2), _trial(1.0, alpha=math.inf), _trial(5.0, flagged=True)]
        self.assertEqual(checks.check_autoconv_trials(_result(good), self.rule), [])
        for bad in (_trial(1.31), _trial(1.09), _trial(1.35, alpha=math.inf)):
            found = checks.check_autoconv_trials(_result([bad]), self.rule)
            self.assertTrue(found and found[0].startswith("trial-kind"), bad)

    def test_flagged_share(self):
        ok = SimpleNamespace(eta=0.1, flagged_count=15, trials=30)
        bad = SimpleNamespace(eta=0.1, flagged_count=16, trials=30)
        self.assertEqual(checks.check_flagged_share(_result(summaries=[ok])), [])
        self.assertTrue(checks.check_flagged_share(_result(summaries=[bad]))[0].startswith("flagged-share"))

    def test_ratio_fall(self):
        first, last = (SimpleNamespace(ratio_delta2_alpha=v) for v in (5.0, 1.0))
        self.assertEqual(checks.check_ratio_fall(first, last), [])
        last.ratio_delta2_alpha = 1.01
        self.assertTrue(checks.check_ratio_fall(first, last)[0].startswith("ratio-fall"))

    def test_residual_band(self):
        self.assertEqual(checks.check_band(_result([_trial(1.1), _trial(1.3)]), self.rule), [])
        for residual in (1.3 * (1 + 1e-6), 1.1 * (1 - 1e-6)):
            found = checks.check_band(_result([_trial(residual)]), self.rule)
            self.assertTrue(found[0].startswith("residual-band"))

    def test_slope(self):
        deltas = np.logspace(-1, -4, 5)
        self.assertEqual(checks.check_slope(_result(summaries=_summaries(deltas, deltas**0.55)), 0.5, 0.1), [])
        found = checks.check_slope(_result(summaries=_summaries(deltas, deltas**0.65)), 0.5, 0.1)
        self.assertTrue(found[0].startswith("rate-slope"))

    def test_delta(self):
        s = _summaries([0.01], [1.0])
        s[0].eta, s[0].delta_eff = 0.01, checks.kyfan_bound_ref(0.01, 100)
        self.assertEqual(checks.check_delta(_result(summaries=s), 100), [])
        s[0].delta_eff *= 1 + 1e-9
        self.assertTrue(checks.check_delta(_result(summaries=s), 100)[0].startswith("delta-eff"))

    def test_lambert_rate(self):
        delta = 1e-3
        rate = kf.lambert_w0(-math.log(delta)) / -math.log(delta)
        self.assertEqual(checks.check_lambert_rate(_result(summaries=_summaries([delta], [rate]))), [])
        found = checks.check_lambert_rate(_result(summaries=_summaries([delta], [20 * rate])))
        self.assertTrue(found[0].startswith("lambert-rate"))

    def test_balance(self):
        params = kf.BesovBalanceParams(eta=1e-3, m=256, n=256, p=1.5, rho=1.0, zeta=7 / 6, beta=1.0)
        res = kf.besov_balance_alpha(params)
        self.assertEqual(checks.check_balance(params, res), [])
        off = SimpleNamespace(alpha_tilde=res.alpha_tilde * 1.01)
        self.assertTrue(checks.check_balance(params, off)[0].startswith("balance-residual"))

    def test_roundtrip(self):
        written = [kf.EtaSummary(eta=0.1, delta_eff=1 / 3, alpha_or_kstar=math.inf, err_mean=0.2,
                                 err_kyfan=0.3, residual_mean=0.4, trials=30, truncated_count=0)]
        path = workloads.OUT_DIR / "selftest-roundtrip.csv"
        workloads.OUT_DIR.mkdir(exist_ok=True)
        kf.export(written, path)
        read = kf.read_summaries(path)
        path.unlink()
        self.assertEqual(checks.check_roundtrip(written, read), [])
        nudged = [kf.EtaSummary(**{**read[0].__dict__, "delta_eff": np.nextafter(1 / 3, 1.0)})]
        self.assertTrue(checks.check_roundtrip(written, nudged)[0].startswith("export-roundtrip"))


class NoiseChecks(unittest.TestCase):
    eta, m, n = 0.01, 4, 250_000

    @classmethod
    def setUpClass(cls):
        cls.noise = kf.sample_noise(kf.NoiseSpec(eta=cls.eta, m=cls.m), 7, cls.n)
        cls.norms = np.linalg.norm(cls.noise, axis=1)

    def test_tail_frequency(self):
        p = kf.tail_prob_tau(1.2, self.m)
        self.assertEqual(checks.check_tail(self.norms, self.eta, self.m, 1.2, p), [])
        found = checks.check_tail(1.02 * self.norms, self.eta, self.m, 1.2, p)
        self.assertTrue(found[0].startswith("tail-frequency"))

    def test_reg_gamma_q(self):
        z = checks.tail_argument(1.5, self.m)
        q = kf.reg_gamma_q(self.m / 2, z)
        self.assertEqual(checks.check_reg_gamma_q(self.m / 2, z, q), [])
        self.assertTrue(checks.check_reg_gamma_q(self.m / 2, z, q * (1 + 1e-8))[0].startswith("reg-gamma-q"))

    def test_kyfan_definition(self):
        value = kf.empirical_kyfan(kf.EmpiricalSample.from_values(self.norms))
        self.assertEqual(checks.check_kyfan(self.norms, value), [])
        shifted = value + 1.0 / self.n
        self.assertTrue(checks.check_kyfan(self.norms, shifted)[0].startswith("kyfan-definition"))

    def test_kyfan_definition_on_ties_and_zeros(self):
        for d in ([0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 2.0], [3.0, 4.0], [0.1] * 10, [0.2, 0.3, 0.3, 0.9]):
            value = kf.empirical_kyfan(kf.EmpiricalSample.from_values(d))
            self.assertEqual(checks.check_kyfan(np.array(d), value), [], d)

    def test_kyfan_bound(self):
        spec = kf.NoiseSpec(eta=self.eta, m=self.m)
        value = kf.empirical_kyfan(kf.EmpiricalSample.from_values(self.norms))
        bound = kf.kyfan_bound_gaussian(spec)
        self.assertEqual(checks.check_kyfan_bound(value, self.eta, self.m, self.n, bound), [])
        found = checks.check_kyfan_bound(value, self.eta, self.m, self.n, bound * (1 + 1e-9))
        self.assertTrue(found[0].startswith("kyfan-bound"))
        found = checks.check_kyfan_bound(bound + 3 / math.sqrt(self.n), self.eta, self.m, self.n, bound)
        self.assertTrue(found[0].startswith("kyfan-containment"))

    def test_moments(self):
        self.assertEqual(checks.check_moments(self.noise, self.eta), [])
        self.assertTrue(checks.check_moments(1.01 * self.noise, self.eta)[0].startswith("noise-variance"))
        shifted = self.noise + 0.01 * self.eta
        self.assertTrue(checks.check_moments(shifted, self.eta)[0].startswith("noise-mean"))


def _traced_counts(workload, keep=None):
    ops = workloads.ops(workload, workloads.setup(workload, 5))
    if keep is not None:
        ops = [op for op in ops if op.name in keep]
    tracer = tracing.Tracer()
    problems = []
    with tracing.traced(tracer):
        run._run_round(ops, problems)
    metrics = tracing.round_metrics(tracer)
    return {name: metrics[name] for name in tracing.COUNTS}, problems


class TraceCounts(unittest.TestCase):
    def assert_repeats(self, workload, keep=None):
        first, problems = _traced_counts(workload, keep)
        second, _ = _traced_counts(workload, keep)
        self.assertEqual(problems, [])
        self.assertEqual(first, second)
        return first

    def test_linear_counts_repeat(self):
        counts = self.assert_repeats("linear")
        self.assertGreater(counts["rules.discrepancy_evals"], 0)
        self.assertGreater(counts["special.reg_gamma_q_calls"], 0)

    def test_noise_counts_repeat(self):
        counts = self.assert_repeats("noise")
        self.assertEqual(counts["noise.largest_draw_mb"], 8 * 64 * 100_000 / 1e6)

    def test_autoconv_counts_repeat(self):
        # the coarse configs make the same kinds of calls as the fine ones, in seconds
        counts = self.assert_repeats("autoconv", {"kernels", "constant-coarse", "log-coarse"})
        for name in ("operators.autoconv_calls", "regularization.prox_solves",
                     "regularization.prox_iters", "harness.flagged_trials"):
            self.assertGreater(counts[name], 0, name)

    def test_originals_restored(self):
        before = [getattr(module, name) for module, name, _ in tracing.TARGETS]
        with self.assertRaises(KeyError):
            with tracing.traced(tracing.Tracer()):
                raise KeyError("inside")
        self.assertEqual(before, [getattr(module, name) for module, name, _ in tracing.TARGETS])

    def test_self_time(self):
        tracer = tracing.Tracer()
        tracer.spans = [["outer", 0.0, 10.0, None, None], ["inner", 2.0, 5.0, 0, None]]
        tracer.leaves[(0, "leaf")] = [4, 1.5]
        tracer.leaves[(1, "leaf")] = [2, 0.5]
        self.assertEqual(tracer.self_times(), [5.5, 2.5])


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         tracing.LAYER_METRICS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
