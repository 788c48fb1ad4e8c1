import numpy as np
import pytest

from conftest import random_table
from ctecs import (
    CONSTANT_DEPTH,
    Circuit,
    EstimatorConfig,
    FourierTable,
    IQP,
    ModelBPlan,
    NoiseSpec,
    ResourceLimitError,
    ValidationError,
    apply_depolarizing_exact,
    empirical_distribution,
    enumerate_alg_distribution,
    l1_distance,
    marginal_sum,
    noise_operator_apply,
    random_family_instance,
    sample_alg_batch,
    simulate_marginal,
    simulate_model_a,
    simulate_model_b,
)
from ctecs import _bits, oracle
from ctecs.circuits import h
from ctecs.fourier import EstimatedCoefficients, ExactCoefficients, uniform_table
from ctecs.checks import sign_fix_gap
from ctecs.sampler import negative_mass


# --- marginal sums ------------------------------------------------------------

def test_marginal_sum_uniform_table():
    table = uniform_table(2)
    assert marginal_sum(table, "0") == pytest.approx(0.5)
    assert marginal_sum(table, "1") == pytest.approx(0.5)


def test_marginal_sum_hand_example():
    table = FourierTable(1, 1, {0: 0.5, 1: 0.35})
    assert marginal_sum(table, "0") == pytest.approx(0.85)
    assert marginal_sum(table, "1") == pytest.approx(0.15)


def test_marginal_sum_empty_prefix_is_one():
    rng = np.random.default_rng(0)
    for _ in range(10):
        table = random_table(rng, int(rng.integers(1, 8)), 2)
        assert marginal_sum(table, "") == pytest.approx(1.0)


def test_marginal_sum_agrees_with_dense():
    rng = np.random.default_rng(1)
    table = random_table(rng, 6, 3)
    q = table.dense_values()
    for k in range(7):
        for prefix_ix in range(1 << k) if k else [0]:
            prefix = format(prefix_ix, f"0{k}b") if k else ""
            dense = q[prefix_ix << (6 - k): (prefix_ix + 1) << (6 - k)].sum()
            assert marginal_sum(table, prefix) == pytest.approx(dense, abs=1e-12)


# --- the sampler ----------------------------------------------------------------

def test_sampler_uniform_table_is_uniform():
    table = uniform_table(2)
    samples = sample_alg_batch(table, np.random.default_rng(2), 100_000)
    emp = empirical_distribution(samples, 2)
    assert np.max(np.abs(emp.p - 0.25)) <= 0.01


def test_sampler_negative_leaf_hand_example():
    table = FourierTable(1, 1, {0: 0.5, 1: 0.7})
    # q = (1.2, -0.2): the sign-fix makes 0 deterministic
    samples = sample_alg_batch(table, np.random.default_rng(3), 1000)
    assert not samples.any()
    assert not sample_alg_batch(table, np.random.default_rng(4), 1).any()
    alg = enumerate_alg_distribution(table)
    np.testing.assert_allclose(alg.p, [1.0, 0.0], atol=1e-15)
    q = table.dense_values()
    assert np.abs(q - alg.p).sum() == pytest.approx(0.4, abs=1e-12)
    assert 2 * negative_mass(table) == pytest.approx(0.4, abs=1e-12)


def test_enumeration_equals_q_when_nonnegative():
    table = FourierTable(2, 1, {0: 0.25, 0b10: 0.1, 0b01: -0.05})
    q = table.dense_values()
    assert (q >= 0).all()
    np.testing.assert_allclose(enumerate_alg_distribution(table).p, q, atol=1e-12)


def test_enumeration_above_dense_cap_is_a_resource_limit():
    with pytest.raises(ResourceLimitError, match="at most 20 qubits"):
        enumerate_alg_distribution(uniform_table(21))


def _brute_branches(table, prefixes) -> list[np.ndarray]:
    """Branch term of every level at each prefix row, one mask at a time."""
    n = table.n
    out = [np.zeros(len(prefixes)) for _ in range(n)]
    for mask, value in zip(table.masks, table.values):
        qubits = _bits.mask_to_qubits(int(mask), n)
        if qubits:
            signs = (-1.0) ** prefixes[:, list(qubits[:-1])].sum(axis=1)
            out[qubits[-1]] += value * signs
    return out


def test_levels_group_masks_by_highest_qubit():
    from ctecs.sampler import _LevelData

    table = random_table(np.random.default_rng(6), 7, 3, density=1.0)
    levels = _LevelData(table)
    prefixes = _bits.index_to_bits(np.arange(1 << 7), 7)
    want = _brute_branches(table, prefixes)
    for k in range(7):
        _, _, branch = levels.step(k, prefixes, np.zeros(1 << 7))
        np.testing.assert_allclose(branch, want[k], rtol=0, atol=1e-15)


def test_branch_terms_match_brute_force_sums(monkeypatch):
    from ctecs import sampler
    from ctecs.sampler import _LevelData

    # blocks of a few rows, so the block loop runs more than once
    monkeypatch.setattr(sampler, "_BLOCK_BYTES", 1000)
    rng = np.random.default_rng(31)
    forms = set()
    for _ in range(40):
        n = int(rng.integers(1, 13))
        c = int(rng.integers(0, n + 1))
        table = random_table(rng, n, c, density=float(rng.uniform(0.2, 1.0)),
                             scale=1.0)
        levels = _LevelData(table)
        prefixes = rng.integers(0, 2, (50, n)).astype(np.uint8)
        partial = rng.normal(size=50)
        want = _brute_branches(table, prefixes)
        tol = 1e-12 * np.abs(table.values).sum()
        for k in range(n):
            s0, s1, branch = levels.step(k, prefixes, partial)
            np.testing.assert_allclose(branch, want[k], rtol=0, atol=tol)
            factor = 2.0 ** (n - k - 1)
            np.testing.assert_allclose(s0, factor * (partial + want[k]), rtol=0,
                                       atol=factor * tol)
            np.testing.assert_allclose(s1, factor * (partial - want[k]), rtol=0,
                                       atol=factor * tol)
            form = levels.forms[k]
            forms.add("values" if isinstance(form, np.ndarray)
                      else "tensors" if form else "empty")
    assert forms == {"values", "tensors", "empty"}


def test_full_table_levels_store_at_most_two_to_the_k_entries():
    from ctecs.sampler import _LevelData

    levels = _LevelData(random_table(np.random.default_rng(32), 14, 14, density=1.0))
    for k, form in enumerate(levels.forms):
        size = form.size if isinstance(form, np.ndarray) else sum(t.size for t in form)
        assert size <= 1 << k


def test_enumeration_is_q_on_nonnegative_tables_and_keeps_the_fix_identity():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        c = int(rng.integers(0, n + 1))
        signed = random_table(rng, n, c, density=0.5)
        assert sign_fix_gap(signed) <= 1e-9
        # coefficients this small cannot make q negative
        small = random_table(rng, n, c, density=0.5,
                             scale=0.5 ** n / (4 * _bits.mask_count(n, c)))
        q = small.dense_values()
        assert (q >= 0).all()
        np.testing.assert_allclose(enumerate_alg_distribution(small).p, q,
                                   rtol=0, atol=1e-12)


def test_sampler_rejects_negative_size():
    table = uniform_table(3)
    with pytest.raises(ValidationError):
        sample_alg_batch(table, np.random.default_rng(0), -5)
    assert sample_alg_batch(table, np.random.default_rng(0), 0).shape == (0, 3)


def test_fix_identity_on_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        assert sign_fix_gap(random_table(rng, n, min(3, n))) <= 1e-9


def test_sampling_matches_enumeration_iqp_table():
    decomp = random_family_instance(IQP, 8, np.random.default_rng(12))
    res = simulate_model_a(decomp, 2.0, 0.4, 0.25, ExactCoefficients(decomp),
                          np.random.default_rng(6), 100_000)
    alg = enumerate_alg_distribution(res.table)
    emp = empirical_distribution(res.samples, 8)
    assert 0.5 * l1_distance(emp, alg) <= 0.02


def test_sampler_chunking_is_seed_deterministic():
    table = random_table(np.random.default_rng(7), 5, 2)
    a = sample_alg_batch(table, np.random.default_rng(8), 10_000)
    b = sample_alg_batch(table, np.random.default_rng(8), 10_000)
    np.testing.assert_array_equal(a, b)


# --- model A ----------------------------------------------------------------------

def test_model_a_end_to_end_small():
    decomp = random_family_instance(IQP, 8, np.random.default_rng(21))
    p = oracle.output_distribution(decomp.circuit)
    alpha = max(1.0, oracle.anti_concentration_alpha(p))
    eps = 0.2
    res = simulate_model_a(decomp, alpha, 0.4, eps, ExactCoefficients(decomp),
                          np.random.default_rng(9), 0, true_epsilon=eps)
    noisy = apply_depolarizing_exact(p, NoiseSpec.uniform(eps), n=8)
    alg = enumerate_alg_distribution(res.table)
    assert l1_distance(noisy, alg) <= 0.4
    assert res.report["lambda_check"]["ok"]
    assert res.report["c_used"] <= 4 <= res.report["c_theory"]


def test_model_a_rejects_zero_lambda():
    decomp = random_family_instance(IQP, 4, np.random.default_rng(10))
    with pytest.raises(ValidationError):
        simulate_model_a(decomp, 1.0, 0.4, 0.0, ExactCoefficients(decomp),
                         np.random.default_rng(11), 10)


def test_model_a_warns_on_rate_knowledge_violation():
    decomp = random_family_instance(IQP, 4, np.random.default_rng(10))
    with pytest.warns(UserWarning, match="rate-knowledge"):
        res = simulate_model_a(
            decomp, 1.0, 0.4, 0.1, ExactCoefficients(decomp),
            np.random.default_rng(11), 10, true_epsilon=0.3)
    assert not res.report["lambda_check"]["ok"]


def test_model_a_single_hadamard_stays_uniform():
    from ctecs import build_constant_depth, build_iqp
    from ctecs.circuits import cz

    # p is uniform, so the noisy law and the sampled law are both uniform
    decomp = build_constant_depth(Circuit(1, (h(0),)), 1)
    for eps in (0.1, 0.5, 0.9):
        res = simulate_model_a(decomp, 1.0, 0.4, eps, ExactCoefficients(decomp),
                               np.random.default_rng(1), 0)
        alg = enumerate_alg_distribution(res.table)
        np.testing.assert_allclose(alg.p, 0.5, atol=1e-12)
    # same story for a uniform-output IQP circuit
    decomp = build_iqp(2, [cz(0, 1)])
    res = simulate_model_a(decomp, 1.0, 0.4, 0.3, ExactCoefficients(decomp),
                          np.random.default_rng(1), 0)
    alg = enumerate_alg_distribution(res.table)
    np.testing.assert_allclose(alg.p, 0.25, atol=1e-9)


# --- model B ----------------------------------------------------------------------

def test_model_b_plan_examples():
    plan = ModelBPlan.from_rates([0.2, 0.5])
    deltas = plan.residual_deltas(2)
    np.testing.assert_allclose(deltas, [0.0, 0.375])
    np.testing.assert_allclose(deltas / 2, [0.0, 0.1875])


def test_model_b_plan_rejects_rate_below_minimum():
    with pytest.raises(ValidationError):
        ModelBPlan(0.3, ((1, 0.2),))


def test_model_b_equal_rates_degenerates_to_model_a():
    decomp = random_family_instance(IQP, 5, np.random.default_rng(13))
    plan = ModelBPlan.from_rates([0.25] * 5)
    res = simulate_model_b(decomp, 1.5, 0.4, plan, ExactCoefficients(decomp),
                          np.random.default_rng(14), 200)
    assert res.report["degenerates_to_model_a"]
    assert not any(res.report["residual_deltas"])


def test_model_b_factorization_consistency():
    decomp = random_family_instance(IQP, 6, np.random.default_rng(15))
    rates = [0.2, 0.3, 0.2, 0.3, 0.2, 0.3]
    plan = ModelBPlan.from_rates(rates)
    res = simulate_model_b(decomp, 2.0, 0.4, plan, ExactCoefficients(decomp),
                          np.random.default_rng(16), 200_000)
    # enumerated model-B law: residual noise operators applied to Alg(q)
    vec = enumerate_alg_distribution(res.table).p
    for j, dj in enumerate(plan.residual_deltas(6)):
        vec = noise_operator_apply(vec, j, float(dj), 6)
    emp = empirical_distribution(res.samples, 6)
    assert 0.5 * l1_distance(emp, vec) <= 0.02
    # and the enumerated law tracks the dense noisy truth within the bound
    p = oracle.output_distribution(decomp.circuit)
    noisy = apply_depolarizing_exact(p, NoiseSpec.per_qubit(rates), n=6)
    assert l1_distance(vec, noisy) <= res.report["l1_bound"]


# --- marginals --------------------------------------------------------------------

def test_marginal_full_measurement_recovers_p():
    decomp = random_family_instance(IQP, 5, np.random.default_rng(17))
    res = simulate_marginal(decomp, list(range(5)), ExactCoefficients(decomp),
                            np.random.default_rng(18), 0)
    p = oracle.output_distribution(decomp.circuit).p
    alg = enumerate_alg_distribution(res.table).p
    if (p > 1e-12).all():
        np.testing.assert_allclose(alg, p, atol=1e-9)
    else:
        assert l1_distance(alg, p) <= 2 * negative_mass(res.table) + 1e-9


def test_marginal_single_qubit_matches_dense():
    decomp = random_family_instance(CONSTANT_DEPTH, 9, np.random.default_rng(19))
    res = simulate_marginal(decomp, [4], ExactCoefficients(decomp),
                            np.random.default_rng(20), 0)
    p = oracle.output_distribution(decomp.circuit)
    marg = oracle.marginal_distribution(p, [4])
    alg = enumerate_alg_distribution(res.table)
    assert l1_distance(alg, marg) <= 1e-9


def test_marginal_constant_depth_estimator_source():
    decomp = random_family_instance(CONSTANT_DEPTH, 12, np.random.default_rng(22))
    cfg = EstimatorConfig(batch_size=20_000, batch_count=5, seed=0)
    res = simulate_marginal(decomp, [2, 5, 9], EstimatedCoefficients(decomp, cfg),
                            np.random.default_rng(23), 10_000)
    p = oracle.output_distribution(decomp.circuit)
    marg = oracle.marginal_distribution(p, [2, 5, 9])
    alg = enumerate_alg_distribution(res.table)
    assert l1_distance(alg, marg) <= 0.05
    emp = empirical_distribution(res.samples, 3)
    assert l1_distance(emp, marg) <= 0.08


def test_marginal_table_checks_the_mask_budget_before_the_source():
    from ctecs.sampler import marginal_table

    class NoSource:
        def expectations(self, masks, rng):
            raise AssertionError("coefficients were computed")

    decomp = random_family_instance(IQP, 17, np.random.default_rng(26))
    with pytest.raises(ResourceLimitError, match="131071 masks"):
        marginal_table(decomp, range(17), NoSource(), np.random.default_rng(27))
    with pytest.raises(ValidationError, match="outside register"):
        marginal_table(decomp, [17], NoSource(), np.random.default_rng(27))


def test_sample_strings_match_the_per_row_form():
    from ctecs.sampler import SimulationResult

    rng = np.random.default_rng(28)
    for rows, n in [(0, 5), (1, 1), (7, 1), (300, 13), (0, 1), (64, 64)]:
        samples = rng.integers(0, 2, (rows, n)).astype(np.uint8)
        result = SimulationResult(samples=samples, table=None, report={})
        assert result.sample_strings() == ["".join(map(str, r)) for r in samples]


def test_marginal_rejects_duplicates():
    decomp = random_family_instance(IQP, 4, np.random.default_rng(24))
    with pytest.raises(ValidationError):
        simulate_marginal(decomp, [1, 1], ExactCoefficients(decomp),
                          np.random.default_rng(25), 10)
