import json
import math

import numpy as np
import pytest

from conftest import random_table
from ctecs import (
    CLIFFORD_MAGIC,
    FAMILIES,
    Circuit,
    EstimatorConfig,
    FourierTable,
    IQP,
    PhaseState,
    ProductState,
    ResourceLimitError,
    SignedPauli,
    ValidationError,
    attenuate,
    build_low_degree_table,
    choose_degree,
    ct_state_of,
    ecs_for,
    random_family_instance,
    validate_lambda,
)
from ctecs import _bits, fourier, oracle
from ctecs.checks import fourier_identity_sides
from ctecs.circuits import h
from ctecs.fourier import (
    MASK_BUDGET,
    BornSample,
    EstimatedCoefficients,
    ExactCoefficients,
    estimate_expectation_detailed,
    theory_accuracy_denominator,
)


# --- tables ---------------------------------------------------------------------

def test_table_pins_zero_entry():
    with pytest.raises(ValidationError):
        FourierTable(2, 1, {0: 0.3})
    with pytest.raises(ValidationError):
        FourierTable(2, 1, {0b10: 0.1})  # zero mask missing entirely


def test_table_rejects_masks_above_cutoff():
    with pytest.raises(ValidationError):
        FourierTable(3, 1, {0: 0.125, 0b110: 0.01})


def test_table_evaluate_hand_example():
    table = FourierTable(1, 1, {0: 0.5, 1: 0.7})
    np.testing.assert_allclose(table.dense_values(), [1.2, -0.2], atol=1e-15)


def test_uniform_table_evaluates_to_uniform():
    table = FourierTable(3, 0, {0: 0.5 ** 3})
    np.testing.assert_allclose(table.dense_values(), np.full(8, 1 / 8), atol=1e-15)


def test_tables_sum_to_one_dense():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        table = random_table(rng, n, min(3, n))
        q = table.dense_values()
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
        assert (1 << n) * table.coefficient(0) == pytest.approx(1.0)


def test_table_parseval_audit():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        table = random_table(rng, n, min(2, n))
        q = table.dense_values()
        coeffs = np.zeros(1 << n)
        for mask, value in table.entries.items():
            coeffs[mask] = value
        lhs = 2.0 ** (2 * n) * np.sum(coeffs ** 2)
        rhs = 2.0 ** n * np.sum(q ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_table_json_roundtrip():
    table = FourierTable(3, 2, {0: 0.125, 0b100: 0.05, 0b011: -0.02})
    data = json.loads(json.dumps(table.to_json_dict()))
    back = FourierTable.from_json_dict(data)
    assert back.entries == table.entries
    assert back.n == 3 and back.c == 2


# --- attenuation -----------------------------------------------------------------

def test_attenuate_rate_zero_is_identity():
    table = FourierTable(2, 2, {0: 0.25, 0b10: 0.1, 0b11: -0.04})
    assert attenuate(table, 0.0).entries == table.entries


def test_attenuate_near_one_leaves_uniform():
    table = FourierTable(2, 2, {0: 0.25, 0b10: 0.1, 0b11: -0.04})
    out = attenuate(table, 1.0 - 1e-12)
    dense = out.dense_values()
    np.testing.assert_allclose(dense, np.full(4, 0.25), atol=1e-9)


def test_attenuate_identity_circuit_value():
    # exact table of the 2-qubit identity circuit: every coefficient 1/4
    entries = {mask: 0.25 for mask in range(4)}
    table = FourierTable(2, 2, entries)
    out = attenuate(table, 0.5)
    assert out.dense_values()[0b00] == pytest.approx(9 / 16)


def test_attenuate_rejects_rate_one():
    with pytest.raises(ValidationError):
        attenuate(FourierTable(2, 0, {0: 0.25}), 1.0)


def test_attenuated_exact_table_equals_dense_noisy_distribution():
    from ctecs import NoiseSpec, apply_depolarizing_exact, random_family_instance

    for seed, n in ((0, 6), (1, 8), (2, 10)):
        decomp = random_family_instance(IQP, n, np.random.default_rng(seed))
        table = build_low_degree_table(decomp, n, ExactCoefficients(decomp))
        eps = 0.35
        noisy = apply_depolarizing_exact(
            oracle.output_distribution(decomp.circuit), NoiseSpec.uniform(eps), n=n)
        np.testing.assert_allclose(
            attenuate(table, eps).dense_values(), noisy.p, atol=1e-9)


# --- theory constants ----------------------------------------------------------------

def test_choose_degree_hand_values():
    assert choose_degree(1.0, 0.5, 0.5) == 9
    assert choose_degree(1.0, 0.9, 0.9) == 4


def test_choose_degree_always_exceeds_three():
    rng = np.random.default_rng(2)
    for _ in range(20):
        alpha = float(rng.uniform(1.0, 50.0))
        delta = float(rng.uniform(0.01, 0.99))
        lam = float(rng.uniform(0.01, 0.99))
        assert choose_degree(alpha, delta, lam) > 3


def test_choose_degree_invariant_survives_optimized_mode():
    import subprocess
    import sys
    from pathlib import Path

    import ctecs

    # force a cutoff of 3 under ``python -O``, which strips bare asserts
    code = ("import math; from ctecs import fourier; "
            "math.ceil = lambda value: 3; fourier.choose_degree(1.0, 0.5, 0.5)")
    env = {"PYTHONPATH": str(Path(ctecs.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode != 0
    assert "AssertionError" in run.stderr


def test_choose_degree_rejects_out_of_range():
    with pytest.raises(ValidationError):
        choose_degree(0.5, 0.5, 0.5)
    with pytest.raises(ValidationError):
        choose_degree(1.0, 0.5, 1.5)


def test_theory_accuracy_denominator():
    assert theory_accuracy_denominator(4, 9, 0.5) == pytest.approx(
        10 * (4 ** 9 + 1) / 0.5)


def test_validate_lambda_cases():
    check = validate_lambda(1.0, 0.5, 0.5, 0.5)
    assert check.ok and check.ratio == pytest.approx(1.0)
    assert check.bound == pytest.approx(1.0115686, abs=1e-6)
    assert validate_lambda(1.0, 0.5, 0.4999, 0.5).ok
    assert not validate_lambda(1.0, 0.5, 0.5 / 1.5, 0.5).ok
    assert not validate_lambda(1.0, 0.5, 0.6, 0.5).ok  # lambda above epsilon


# --- estimator -------------------------------------------------------------------------

def test_estimator_config_from_accuracy():
    cfg = EstimatorConfig.from_accuracy(0.01, 0.05)
    assert cfg.batch_size == math.ceil(4 / 0.01 ** 2)
    assert cfg.batch_count % 2 == 1
    assert cfg.batch_count >= 8 * math.log(2 / 0.05)
    with pytest.raises(ValidationError):
        EstimatorConfig(batch_size=10, batch_count=4)


def test_estimator_zero_state_z_is_exactly_one():
    state = ProductState.zero(5)
    op = SignedPauli.z_on(5, (0,))
    cfg = EstimatorConfig(batch_size=50, batch_count=3, seed=1)
    assert estimate_expectation_detailed(state, op, cfg).value == 1.0


class _UnderflowingState(ProductState):
    """Every fourth row of the first draw has amplitude 0, as if underflowed:
    a sampler that disagrees with the amplitudes."""

    def __init__(self, n):
        super().__init__(np.ones(n), np.zeros(n))
        object.__setattr__(self, "_calls", 0)

    def sample_bits(self, rng, size):
        bits = super().sample_bits(rng, size)
        if self._calls == 0:
            bits[::4] = 1  # amplitude exactly 0 for these rows
        object.__setattr__(self, "_calls", self._calls + 1)
        return bits


def test_estimator_rejects_zero_amplitude_draws():
    state = _UnderflowingState(3)
    op = SignedPauli.z_on(3, (1,))
    with pytest.raises(ValidationError, match="amplitude 0"):
        estimate_expectation_detailed(
            state, op, EstimatorConfig(batch_size=64, batch_count=1, seed=2))


def test_estimator_plus_state_z_concentrates_at_zero():
    state = ProductState.plus(1)
    op = SignedPauli.z_on(1, (0,))
    cfg = EstimatorConfig(batch_size=40_000, batch_count=1, seed=0)
    rng = np.random.default_rng(3)
    hits = 0
    reps = 100
    for _ in range(reps):
        value = estimate_expectation_detailed(state, op, cfg, rng).value
        if abs(value) <= 0.02:
            hits += 1
    assert hits >= 99


def test_estimator_iqp_matches_dense():
    decomp = random_family_instance(IQP, 8, np.random.default_rng(4))
    state = ct_state_of(decomp.u_block)
    expectations = oracle.walsh_hadamard(oracle.output_distribution(decomp.circuit).p)
    rng = np.random.default_rng(5)
    cfg = EstimatorConfig(batch_size=100_000, batch_count=9)
    for mask in (0b00000011, 0b01000001):
        got = estimate_expectation_detailed(
            state, ecs_for(decomp, mask), cfg, rng).value
        assert abs(got - expectations[mask]) <= 0.01


def test_estimator_second_moment_at_most_one():
    for family, seed in ((IQP, 6), (CLIFFORD_MAGIC, 7)):
        decomp = random_family_instance(family, 6, np.random.default_rng(seed))
        state = ct_state_of(decomp.u_block)
        op = ecs_for(decomp, 0b000110)
        det = estimate_expectation_detailed(
            state, op, EstimatorConfig(batch_size=5000, batch_count=3, seed=1))
        assert det.second_moment <= 1.0 + 1e-9


def test_estimator_error_scales_with_batch_size():
    decomp = random_family_instance(IQP, 6, np.random.default_rng(8))
    state = ct_state_of(decomp.u_block)
    truth = oracle.walsh_hadamard(oracle.output_distribution(decomp.circuit).p)[0b11]
    op = ecs_for(decomp, 0b11)
    rng = np.random.default_rng(9)
    rmse = {}
    for batch in (100, 1000, 10_000):
        errs = [
            (estimate_expectation_detailed(
                state, op, EstimatorConfig(batch_size=batch, batch_count=1),
                rng).value - truth) ** 2
            for _ in range(120)
        ]
        rmse[batch] = math.sqrt(float(np.mean(errs)))
    ratio = rmse[100] / rmse[10_000]
    assert 10 / 3 <= ratio <= 30


def test_estimate_fourier_coefficient_empty_diagonal_is_exact():
    from ctecs import build_iqp

    decomp = build_iqp(4, [])  # C = H H = I, so p_hat(s) = 1/16 for all s
    cfg = EstimatorConfig(batch_size=100, batch_count=3)
    source = EstimatedCoefficients(decomp, cfg)
    for mask in (0b0001, 0b1010):
        got = source.expectations([mask], np.random.default_rng(mask))[0] / 2 ** 4
        assert got == pytest.approx(1 / 16, abs=1e-12)


def test_estimate_fourier_coefficient_matches_dense_and_rejects_zero():
    decomp = random_family_instance(CLIFFORD_MAGIC, 6, np.random.default_rng(11))
    coeffs = oracle.fourier_transform(oracle.output_distribution(decomp.circuit))
    cfg = EstimatorConfig(batch_size=50_000, batch_count=5)
    source = EstimatedCoefficients(decomp, cfg)
    got = source.expectations([0b100000], np.random.default_rng(12))[0] / 2 ** 6
    assert abs(got - coeffs[0b100000]) <= 0.01 / 2 ** 6
    with pytest.raises(ValidationError):
        source.expectations([0], np.random.default_rng(12))


# --- table construction ------------------------------------------------------------------

def test_build_table_degree_zero_is_uniform():
    decomp = random_family_instance(IQP, 4, np.random.default_rng(13))
    table = build_low_degree_table(decomp, 0, ExactCoefficients(decomp))
    assert table.entries == {0: 1 / 16}


def test_build_table_full_degree_exact_reproduces_p():
    decomp = random_family_instance(IQP, 6, np.random.default_rng(14))
    table = build_low_degree_table(decomp, 6, ExactCoefficients(decomp))
    p = oracle.output_distribution(decomp.circuit).p
    np.testing.assert_allclose(table.dense_values(), p, atol=1e-9)


def test_build_table_estimator_mode_per_coefficient_accuracy():
    decomp = random_family_instance(IQP, 8, np.random.default_rng(15))
    cfg = EstimatorConfig(batch_size=40_000, batch_count=5)
    source = EstimatedCoefficients(decomp, cfg)
    table = build_low_degree_table(decomp, 2, source, np.random.default_rng(16))
    truth = oracle.fourier_transform(oracle.output_distribution(decomp.circuit))
    tol = 0.02 / 2 ** 8  # batch tolerance at B=4e4, pre-division scale 0.02
    good = sum(
        abs(value - truth[mask]) <= tol
        for mask, value in table.entries.items() if mask)
    assert good >= 0.95 * (len(table.entries) - 1)


def test_build_table_mask_budget():
    decomp = random_family_instance(IQP, 40, np.random.default_rng(17))
    assert _bits.mask_count(40, 4) > MASK_BUDGET
    source = EstimatedCoefficients(decomp, EstimatorConfig(batch_size=10))
    with pytest.raises(ResourceLimitError):
        build_low_degree_table(decomp, 4, source)
    assert source.diagnostics()["estimator"]["masks"] == 0


def test_build_table_checks_cutoff_before_estimating():
    decomp = random_family_instance(IQP, 8, np.random.default_rng(17))
    source = EstimatedCoefficients(decomp, EstimatorConfig(batch_size=10))
    for c in (9, -1):
        with pytest.raises(ValidationError, match="cutoff"):
            build_low_degree_table(decomp, c, source)
    assert source.diagnostics()["estimator"]["masks"] == 0


def test_build_table_draws_one_born_sample(monkeypatch):
    decomp = random_family_instance(IQP, 5, np.random.default_rng(19))
    sizes = []
    draw = PhaseState.sample_bits

    def counted(self, rng, size):
        sizes.append(size)
        return draw(self, rng, size)

    monkeypatch.setattr(PhaseState, "sample_bits", counted)
    source = EstimatedCoefficients(
        decomp, EstimatorConfig(batch_size=100, batch_count=3))
    table = build_low_degree_table(decomp, 2, source, np.random.default_rng(20))
    assert len(table.masks) == 1 + 5 + 10
    assert sizes == [100, 100, 100]
    assert source.diagnostics()["estimator"]["rows_drawn"] == 300
    build_low_degree_table(decomp, 0, source)  # no mask, so no draw
    assert len(sizes) == 3


def test_exact_expectations_are_walsh_entries():
    decomp = random_family_instance(CLIFFORD_MAGIC, 5, np.random.default_rng(21))
    truth = oracle.walsh_hadamard(oracle.output_distribution(decomp.circuit).p)
    masks = np.array([3, 0, 17, 31, 3])
    got = ExactCoefficients(decomp).expectations(masks, np.random.default_rng(0))
    np.testing.assert_array_equal(got, truth[masks])


# --- identity check -----------------------------------------------------------------------

def test_identity_check_identity_circuit():
    lhs, rhs = fourier_identity_sides(Circuit(2, ()))
    for mask in range(4):
        assert lhs[mask] == pytest.approx(0.25, abs=1e-12)
        assert rhs[mask] == pytest.approx(0.25, abs=1e-12)


def test_identity_check_single_hadamard():
    lhs, rhs = fourier_identity_sides(Circuit(1, (h(0),)))
    assert lhs[1] == pytest.approx(0.0, abs=1e-12)
    assert rhs[1] == pytest.approx(0.0, abs=1e-12)
    assert lhs[0] == pytest.approx(0.5, abs=1e-12)
    assert rhs[0] == pytest.approx(0.5, abs=1e-12)


def test_identity_check_random_iqp():
    decomp = random_family_instance(IQP, 6, np.random.default_rng(18))
    lhs, rhs = fourier_identity_sides(decomp.circuit)
    assert len(lhs) == len(rhs) == 64
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@pytest.mark.parametrize("family", FAMILIES)
def test_born_sample_estimates_match_the_amplitude_quotient_reference(family):
    """Batch means, median and second moment of a table's masks against f
    summed row by row over every draw, with amplitudes, not ratios."""
    # seed 37 gives a ConjugatedClifford instance of multi-term combinations
    decomp = random_family_instance(family, 6, np.random.default_rng(37))
    state = ct_state_of(decomp.u_block)
    cfg = EstimatorConfig(batch_size=300, batch_count=5)
    sample = BornSample(state, cfg, np.random.default_rng(32))
    batches = [state.sample_bits(g, cfg.batch_size)
               for g in np.random.default_rng(32).spawn(cfg.batch_count)]
    ops = [ecs_for(decomp, mask) for mask in _bits.masks_up_to_weight(6, 2)[1:]]
    block = sample.estimate(ops)
    assert len(sample.rows) == len(np.unique(np.concatenate(batches), axis=0))
    for op, value, got_means, got_second in zip(
            ops, block.value, block.batch_means, block.second_moment):
        fs = []
        for rows in batches:
            betas, gammas = op.columns_bits(rows)
            quotients = state.amplitudes(gammas) / state.amplitudes(rows)[:, None]
            fs.append((np.conj(betas) * quotients).sum(axis=1).real)
        means = np.array([f.mean() for f in fs])
        np.testing.assert_allclose(got_means, means, rtol=0, atol=1e-12)
        assert value == pytest.approx(np.median(means), abs=1e-12)
        assert got_second == pytest.approx(
            np.mean(np.concatenate(fs) ** 2), abs=1e-12)


@pytest.mark.parametrize("block_masks", [None, 1, 10])
@pytest.mark.parametrize("family", FAMILIES)
def test_block_estimates_match_each_mask_alone(monkeypatch, family, block_masks):
    """A table's values and diagnostics, in blocks of every mask (default),
    one mask or a few, against a block of one per mask on the same draw."""
    if block_masks is not None:
        monkeypatch.setattr(fourier, "BLOCK_MASKS", block_masks)
    decomp = random_family_instance(family, 8, np.random.default_rng(37))
    cfg = EstimatorConfig(batch_size=400, batch_count=5)
    masks = _bits.masks_up_to_weight(8, 2)[1:]
    source = EstimatedCoefficients(decomp, cfg)
    got = source.expectations(masks, np.random.default_rng(3))
    sample = BornSample(ct_state_of(decomp.u_block), cfg, np.random.default_rng(3))
    alone = [sample.estimate([ecs_for(decomp, mask)]) for mask in masks]
    np.testing.assert_allclose(
        got, [st.value[0] for st in alone], rtol=0, atol=1e-14)
    diag = source.diagnostics()["estimator"]
    assert diag["masks"] == len(masks)
    assert diag["second_moment_max"] == pytest.approx(
        max(st.second_moment[0] for st in alone), abs=1e-14)
    assert diag["batch_mean_spread_max"] == pytest.approx(
        max(np.ptp(st.batch_means[0]) for st in alone), abs=1e-14)
