import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kyfanreg.noise import (
    ConstantTau,
    EmpiricalSample,
    InflatedExpectation,
    KyFanBound,
    LogInflatingTau,
    NoiseSpec,
    delta_eff,
    empirical_kyfan,
    expected_norm,
    expected_norm_upper,
    kyfan_bound_gaussian,
    sample_noise,
    tail_prob_tau,
    tau_schedule,
    trial_rng,
    truncate_solution,
)


def gaussian_log_term(eta, m):
    return math.log(eta**2 * 2.0 * math.pi * m**2) + m * (1.0 - math.log(2.0))


class TestNoiseSpec:
    def test_rejects_zero_eta(self):
        with pytest.raises(ValueError):
            NoiseSpec(eta=0.0, m=4)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            NoiseSpec(eta=1.0, m=0)
        with pytest.raises(ValueError):
            NoiseSpec(eta=1.0, m=1.5)


class TestSampler:
    def test_component_means(self):
        noise = sample_noise(NoiseSpec(eta=1.0, m=4), seed=101, trials=200_000)
        tol = 3.0 / math.sqrt(200_000)
        assert np.all(np.abs(noise.mean(axis=0)) < tol)

    def test_matches_expected_norm(self):
        spec = NoiseSpec(eta=0.5, m=2)
        noise = sample_noise(spec, seed=7, trials=200_000)
        emp = float(np.mean(np.linalg.norm(noise, axis=1)))
        assert emp == pytest.approx(expected_norm(spec), rel=0.01)

    def test_deterministic_and_chunk_invariant(self):
        spec = NoiseSpec(eta=0.3, m=5)
        a = sample_noise(spec, seed=99, trials=5000)
        b = sample_noise(spec, seed=99, trials=5000)
        assert np.array_equal(a, b)
        # a prefix of a longer run is bit-identical: layout is per-trial
        c = sample_noise(spec, seed=99, trials=700)
        assert np.array_equal(a[:700], c)
        assert not np.array_equal(a, sample_noise(spec, seed=100, trials=5000))

    @pytest.mark.parametrize("m", [1, 5, 8])
    def test_one_fill_from_trial_rng(self, m):
        spec = NoiseSpec(eta=0.7, m=m)
        expected = trial_rng(31, 0).standard_normal((2000, m)) * spec.eta
        assert np.array_equal(sample_noise(spec, seed=31, trials=2000), expected)

    @pytest.mark.parametrize(("m", "trials"), [(1, 1_000_000), (64, 100_000)])
    def test_peak_memory_is_the_output(self, m, trials):
        tracemalloc.start()
        try:
            out = sample_noise(NoiseSpec(eta=0.1, m=m), seed=4, trials=trials)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2**20

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_rejects_seed_out_of_range(self, bad):
        with pytest.raises(ValueError, match="seed"):
            sample_noise(NoiseSpec(eta=1.0, m=2), seed=bad, trials=10)
        with pytest.raises(ValueError, match="seed"):
            trial_rng(bad, 0)
        with pytest.raises(ValueError, match="index"):
            trial_rng(0, bad)

    def test_largest_seed_and_index_accepted(self):
        trial_rng(2**64 - 1, 2**64 - 1)


class TestExpectedNorm:
    def test_m1_analytic(self):
        assert expected_norm(NoiseSpec(1.0, 1)) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_m2_analytic(self):
        assert expected_norm(NoiseSpec(1.0, 2)) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_m1_monte_carlo(self):
        spec = NoiseSpec(1.0, 1)
        noise = sample_noise(spec, seed=5, trials=1_000_000)
        norms = np.linalg.norm(noise, axis=1)
        se = norms.std() / math.sqrt(norms.size)
        assert abs(norms.mean() - expected_norm(spec)) < 3.0 * se

    def test_upper_bound_ordering(self):
        for m in range(1, 65):
            spec = NoiseSpec(0.7, m)
            assert expected_norm(spec) <= expected_norm_upper(spec)

    def test_upper_examples(self):
        assert expected_norm_upper(NoiseSpec(0.1, 4)) == pytest.approx(0.2)
        assert expected_norm_upper(NoiseSpec(1.0, 1)) == pytest.approx(1.0)


class TestKyFanBoundGaussian:
    def test_positive_log_term(self):
        # eta=0.1, m=4: log term > 0, bound = sqrt(2)*0.1*2
        assert gaussian_log_term(0.1, 4) > 0.0
        expected = math.sqrt(2.0) * 0.1 * 2.0
        assert kyfan_bound_gaussian(NoiseSpec(0.1, 4)) == pytest.approx(expected, rel=1e-12)

    def test_negative_log_term(self):
        lt = gaussian_log_term(1e-4, 1)
        assert lt == pytest.approx(-16.27, abs=0.01)
        expected = math.sqrt(2.0) * 1e-4 * math.sqrt(1.0 - lt)
        assert kyfan_bound_gaussian(NoiseSpec(1e-4, 1)) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(5.88e-4, abs=1e-6)

    def test_cap_at_one(self):
        assert kyfan_bound_gaussian(NoiseSpec(10.0, 10)) == 1.0

    def test_dominates_expectation_uncapped(self):
        # eta*sqrt(m) <= sqrt(2)*eta*sqrt(m - min(log term, 0))
        for eta in (1e-1, 1e-3, 1e-5):
            for m in (1, 4, 16, 64):
                uncapped = math.sqrt(2.0) * eta * math.sqrt(
                    m - min(gaussian_log_term(eta, m), 0.0)
                )
                assert expected_norm_upper(NoiseSpec(eta, m)) <= uncapped + 1e-15


class TestTailProb:
    def test_tau_to_zero(self):
        assert tail_prob_tau(1e-9, 3) == pytest.approx(1.0, abs=1e-9)

    def test_m2_closed_form(self):
        assert tail_prob_tau(1.0, 2) == pytest.approx(math.exp(-math.pi / 4.0), abs=1e-12)

    def test_against_monte_carlo(self):
        m, tau = 4, 1.5
        spec = NoiseSpec(1.0, m)
        noise = sample_noise(spec, seed=11, trials=200_000)
        norms = np.linalg.norm(noise, axis=1)
        freq = float(np.mean(norms >= tau * expected_norm(spec)))
        p = tail_prob_tau(tau, m)
        sd = math.sqrt(p * (1.0 - p) / 200_000)
        assert abs(freq - p) < 3.0 * sd

    def test_eta_free(self):
        # the signature has no eta: identical by construction, checked for the record
        assert tail_prob_tau(1.3, 6) == tail_prob_tau(1.3, 6)

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_prob_tau(0.0, 4)


class TestEmpiricalKyFan:
    def test_all_zero(self):
        assert empirical_kyfan(EmpiricalSample.from_values([0.0, 0.0, 0.0])) == 0.0

    def test_single_value(self):
        assert empirical_kyfan(EmpiricalSample.from_values([0.5])) == pytest.approx(0.5)

    def test_four_values(self):
        sample = EmpiricalSample.from_values([0.2, 0.2, 0.2, 0.9])
        assert empirical_kyfan(sample) == pytest.approx(0.25)

    def test_capped_at_one(self):
        assert empirical_kyfan(EmpiricalSample.from_values([5.0, 6.0, 7.0])) == 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EmpiricalSample.from_values([0.1, -0.2])
        with pytest.raises(ValueError):
            EmpiricalSample.from_values([0.1, float("inf")])

    def test_definition_on_random_samples(self):
        # brute-force check of the defining infimum on candidate epsilons
        rng = np.random.default_rng(8)
        for _ in range(25):
            d = rng.exponential(0.3, size=rng.integers(1, 40))
            est = empirical_kyfan(EmpiricalSample.from_values(d))
            n = d.size
            # the condition holds just right of the estimate and fails below it
            for eps in (est + 1e-9, est + 0.05):
                assert np.sum(d > eps) / n < eps
            for eps in np.linspace(1e-9, est - 1e-9, 7):
                if eps > 0:
                    assert np.sum(d > eps) / n >= eps

    @given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_adding_zero_never_increases(self, values):
        base = empirical_kyfan(EmpiricalSample.from_values(values))
        grown = empirical_kyfan(EmpiricalSample.from_values(values + [0.0]))
        assert grown <= base + 1e-12
        assert 0.0 <= base <= max(1.0, max(values) if values else 1.0)

    def test_gaussian_below_analytic_bound(self):
        trials = 100_000
        slack = 2.0 / math.sqrt(trials)
        for eta in (1e-1, 1e-2, 1e-3):
            for m in (1, 4, 16):
                spec = NoiseSpec(eta, m)
                noise = sample_noise(spec, seed=21, trials=trials)
                est = empirical_kyfan(
                    EmpiricalSample.from_values(np.linalg.norm(noise, axis=1))
                )
                assert est <= kyfan_bound_gaussian(spec) + slack


class TestTauSchedule:
    def test_constant(self):
        assert tau_schedule(NoiseSpec(0.5, 3), ConstantTau(1.3)) == 1.3

    def test_constant_rejects_deflation(self):
        with pytest.raises(ValueError):
            ConstantTau(1.0)
        with pytest.raises(ValueError):
            ConstantTau(0.5)

    def test_log_inflating_example(self):
        tau = tau_schedule(NoiseSpec(0.01, 8), LogInflatingTau())
        inner = 1.0 - math.log(0.01**2 * 2.0 * math.pi * 64.0 * (math.e / 2.0) ** 8)
        assert tau == pytest.approx(math.sqrt(inner), rel=1e-12)
        assert tau == pytest.approx(1.3262, abs=2e-4)

    def test_log_inflating_clamp(self):
        # large eta drives 1 - log(...) below 1: clamp to 1
        assert tau_schedule(NoiseSpec(10.0, 8), LogInflatingTau()) == 1.0

    def test_log_inflating_diverges(self):
        taus = [tau_schedule(NoiseSpec(e, 4), LogInflatingTau()) for e in (1e-2, 1e-4, 1e-6)]
        assert taus[0] < taus[1] < taus[2]


class TestDeltaEff:
    def test_kyfan_mode(self):
        spec = NoiseSpec(0.1, 4)
        assert delta_eff(spec, KyFanBound()) == pytest.approx(0.28284, abs=1e-5)

    def test_inflated_mode(self):
        spec = NoiseSpec(0.1, 4)
        got = delta_eff(spec, InflatedExpectation(ConstantTau(1.3)))
        assert got == pytest.approx(1.3 * 0.2, rel=1e-12)

    def test_log_inflating_vanishes_while_tau_grows(self):
        etas = np.logspace(-1, -6, 6)
        prev_delta, prev_tau = math.inf, 0.0
        for eta in etas:
            spec = NoiseSpec(float(eta), 4)
            tau = tau_schedule(spec, LogInflatingTau())
            d = delta_eff(spec, InflatedExpectation(LogInflatingTau()))
            assert d < prev_delta
            assert tau >= prev_tau
            prev_delta, prev_tau = d, tau
        assert prev_delta < 1e-4


class TestTruncation:
    def test_zero_passes(self):
        x = np.zeros(5)
        assert np.array_equal(truncate_solution(x, 1.0, 1.0), x)

    def test_norm_cap(self):
        x = np.ones(4)  # norm 2
        out = truncate_solution(x, 1.0, 10.0)
        assert np.array_equal(out, np.zeros(4))

    def test_sup_cap(self):
        x = np.array([0.1, 3.0])
        assert np.array_equal(truncate_solution(x, 10.0, 1.0), np.zeros(2))

    def test_within_caps_identity(self):
        x = np.array([0.3, -0.4])
        assert np.array_equal(truncate_solution(x, 1.0, 0.5), x)
