"""Sampling law, join process, union bound, reproducibility."""

import time

import numpy as np
import pytest
from scipy import stats

from noise_lattice import randsup
from noise_lattice.errors import CapacityError, PreconditionError
from noise_lattice.randsup import (
    BLOCK,
    SampleConfig,
    _chi2_sf,
    element_counts,
    element_distribution_pvalue,
    inclusion_decay,
    run_join_process,
    sample_element,
    trial_rng,
    union_bound_report,
)


def test_sample_element_bounds():
    rng = trial_rng(0, 0)
    rows = sample_element(5, 0.5, rng)
    assert rows.shape == (BLOCK, 5) and rows.dtype == bool
    with pytest.raises(PreconditionError):
        sample_element(3, 0.0, rng)
    with pytest.raises(PreconditionError):
        sample_element(3, 1.0, rng)


def test_empty_probability_at_small_p():
    # Pr[empty] = 0.99^4 ~ 0.9606 at p=0.01, n=4
    trials = 50_000
    counts = element_counts(4, 0.01, seed=7, trials=trials)
    exact = 0.99**4
    sigma = (exact * (1 - exact) / trials) ** 0.5
    assert abs(counts[0] / trials - exact) <= 3 * sigma


def test_uniform_at_half():
    # p = 1/2, n = 2: all four elements equally likely
    pv, counts, expected = element_distribution_pvalue(2, 0.5, seed=11, trials=40_000)
    assert pv > 0.001
    assert np.allclose(expected, expected[0])


def test_atom_count_is_binomial():
    trials = 30_000
    n, p = 4, 0.3
    counts = element_counts(n, p, seed=13, trials=trials)
    by_size = np.zeros(n + 1)
    for mask in range(1 << n):
        by_size[bin(mask).count("1")] += counts[mask]
    from math import comb

    for k in range(n + 1):
        exact = comb(n, k) * p**k * (1 - p) ** (n - k)
        sigma = (exact * (1 - exact) / trials) ** 0.5
        assert abs(by_size[k] / trials - exact) <= 4 * sigma


def test_join_process_monotone_and_reproducible():
    cfg = SampleConfig((3, 4, 4), (0.2, 0.3, 0.25), seed=5, trials=100)
    t1 = run_join_process(cfg)
    t2 = run_join_process(cfg)
    assert t1 == t2
    for traj in t1:
        for a, b in zip(traj, traj[1:]):
            assert a <= b


def test_single_level_probability():
    cfg = SampleConfig((1,), (0.25,), seed=3, trials=60_000)
    rep = union_bound_report(cfg)
    assert rep.exact == pytest.approx(0.25)
    assert rep.bound == pytest.approx(0.25)
    assert rep.within_three_sigma


def test_union_bound_examples():
    cfg = SampleConfig((4, 4, 4), (0.1, 0.1, 0.1), seed=42, trials=50_000)
    rep = union_bound_report(cfg)
    assert rep.exact == pytest.approx(1 - 0.9**3)
    assert rep.bound == pytest.approx(0.3)
    assert rep.ok
    cfg2 = SampleConfig((3, 3), (0.4, 0.4), seed=42, trials=50_000)
    rep2 = union_bound_report(cfg2)
    assert rep2.exact == pytest.approx(0.64)
    assert rep2.bound == pytest.approx(0.8)
    assert rep2.ok


def test_union_bound_preconditions():
    cfg = SampleConfig((2, 2), (0.6, 0.6), seed=1, trials=10)
    with pytest.raises(PreconditionError):
        union_bound_report(cfg)


def test_config_validation():
    with pytest.raises(PreconditionError):
        SampleConfig((2,), (1.5,), seed=0, trials=10)
    with pytest.raises(ValueError):
        SampleConfig((3, 2), (0.1, 0.1), seed=0, trials=10)
    with pytest.raises(ValueError):
        SampleConfig((2, 2), (0.1, 0.1), seed=0, trials=0)
    for counts in ((0,), (-1,), (0, 2)):
        with pytest.raises(ValueError, match="atom count must be at least 1"):
            SampleConfig(counts, (0.1,) * len(counts), seed=0, trials=10)
    SampleConfig((4, 1024), (0.1, 0.1), seed=0, trials=10)  # a (4096, 1024) draw is 32 MiB
    with pytest.raises(CapacityError, match="guard of 1024 per level"):
        SampleConfig((4, 1025), (0.1, 0.1), seed=0, trials=10)


def test_inclusion_decay_default_exponents():
    cfg = SampleConfig((2, 2, 2), (0.5, 0.5, 0.5), seed=0, trials=1)
    assert inclusion_decay(cfg) == [0.5, 0.5**4, 0.5**9]


def test_trial_streams_are_independent_of_order():
    a = [sample_element(3, 0.5, trial_rng(9, b)) for b in range(4)]
    c = [sample_element(3, 0.5, trial_rng(9, b)) for b in reversed(range(4))]
    assert all(np.array_equal(x, y) for x, y in zip(a, reversed(c)))
    assert not np.array_equal(a[0], a[1])


def test_forced_empty_samples_keep_join_at_bottom(monkeypatch):
    cfg = SampleConfig((3, 3, 3), (0.5, 0.5, 0.5), seed=2, trials=20)
    monkeypatch.setattr(randsup, "sample_element", lambda n, p, rng: np.zeros((BLOCK, n), dtype=bool))
    trajs = run_join_process(cfg)
    assert len(trajs) == 20
    assert all(all(y == frozenset() for y in t) for t in trajs)


def test_single_level_full_join_probability():
    # one atom: Pr[Y_1 = everything] = p
    trials = 40_000
    p = 0.3
    cfg = SampleConfig((1,), (p,), seed=21, trials=trials)
    hits = sum(t[-1] == frozenset({0}) for t in run_join_process(cfg))
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(hits / trials - p) <= 3 * sigma


@pytest.mark.parametrize("k", [1, 4095, 4096, 4097])
def test_trials_are_a_prefix_of_longer_runs(k):
    levels = ((3, 4, 5), (0.2, 0.3, 0.1))
    long = run_join_process(SampleConfig(*levels, seed=4, trials=9000))
    assert run_join_process(SampleConfig(*levels, seed=4, trials=k)) == long[:k]
    first = run_join_process(SampleConfig((3,), (0.3,), seed=4, trials=9000))[:k]
    masks = [sum(1 << i for i in t[0]) for t in first]
    assert np.array_equal(element_counts(3, 0.3, seed=4, trials=k), np.bincount(masks, minlength=8))


@pytest.mark.parametrize("n, p, trials", [(1, 0.25, 5000), (3, 0.1, 9000), (4, 0.6, 4096)])
def test_entry_points_agree_on_one_level(n, p, trials):
    cfg = SampleConfig((n,), (p,), seed=17, trials=trials)
    hits = round(union_bound_report(cfg).estimate * trials)
    assert hits == sum(0 in t[0] for t in run_join_process(cfg))
    counts = element_counts(n, p, seed=17, trials=trials)
    assert hits == counts[1::2].sum()


def test_one_stream_per_block(monkeypatch):
    calls = []

    def counted(seed, block):
        calls.append(block)
        return trial_rng(seed, block)

    monkeypatch.setattr(randsup, "trial_rng", counted)
    union_bound_report(SampleConfig((4, 4, 4), (0.1, 0.1, 0.1), seed=3, trials=10_000))
    assert calls == [0, 1, 2]


def test_large_trial_counts_are_fast():
    cfg = SampleConfig((4, 4, 4), (0.1, 0.1, 0.1), seed=8, trials=2_000_000)
    t0 = time.perf_counter()
    rep = union_bound_report(cfg)
    assert time.perf_counter() - t0 < 2.0
    assert rep.ok


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 15, 31])
def test_chi2_tail_matches_scipy(k):
    for x in np.concatenate([[0.0, 1e-6, 1e-3], np.linspace(0.05, 120.0, 300)]):
        assert _chi2_sf(float(x), k) == pytest.approx(stats.chi2.sf(x, k), rel=1e-12, abs=1e-300)
