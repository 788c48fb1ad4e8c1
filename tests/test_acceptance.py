"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them live).

Dense ground truth always comes from the oracle module via a different
code path than the machinery under test (state-vector simulation + Walsh
butterfly on one side, kron-built unitaries + explicit character sums on
the other).
"""

import math

import numpy as np
import pytest

from conftest import random_table
from ctecs import (
    CLIFFORD_MAGIC,
    CONSTANT_DEPTH,
    FAMILIES,
    IQP,
    EstimatorConfig,
    ModelBPlan,
    NoiseSpec,
    anti_concentration_alpha,
    apply_depolarizing_exact,
    choose_degree,
    ct_state_of,
    ecs_for,
    empirical_distribution,
    enumerate_alg_distribution,
    l1_distance,
    model_b_factorization_check,
    noise_operator_apply,
    random_family_instance,
    sample_alg_batch,
    simulate_marginal,
    simulate_model_a,
    simulate_model_b,
    validate_lambda,
)
from ctecs import _bits, oracle
from ctecs.checks import (
    ecs_error,
    fourier_identity_sides,
    input_noise_l1,
    noise_route_gap,
    sign_fix_gap,
)
from ctecs.circuits import random_iqp
from ctecs.fourier import (
    EstimatedCoefficients,
    ExactCoefficients,
    estimate_expectation_detailed,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_fourier_identity():
    worst = 0.0
    count = 0
    for family in FAMILIES:
        for i in range(56):
            n = 2 + i % 7
            rng = np.random.default_rng(1000 + i)
            decomp = random_family_instance(family, n, rng)
            lhs, rhs = fourier_identity_sides(decomp.circuit)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            count += 1
    _report("1", worst <= 1e-10,
            f"{count} instances (56 per family, n in 2..8), "
            f"max |lhs-rhs| = {worst:.2e} <= 1e-10")


def test_criterion_2_noise_algebra():
    rng = np.random.default_rng(2)
    worst_noise = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        p = rng.random(1 << n)
        p /= p.sum()
        rates = rng.uniform(0.02, 0.98, n)
        uniform = np.full(n, float(rng.uniform(0.02, 0.98)))
        worst_noise = max(worst_noise, noise_route_gap(p, rates),
                          noise_route_gap(p, uniform))
    worst_fact = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        p = rng.random(1 << n)
        p /= p.sum()
        lhs, rhs = model_b_factorization_check(p, rng.uniform(0.02, 0.98, n))
        worst_fact = max(worst_fact, float(np.abs(lhs - rhs).sum()))
    contraction_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        f = rng.standard_normal(1 << n)
        out = noise_operator_apply(f, int(rng.integers(n)),
                                   float(rng.uniform(0, 1)), n)
        contraction_ok &= np.abs(out).sum() <= np.abs(f).sum() + 1e-12
    ok = worst_noise <= 1e-9 and worst_fact <= 1e-9 and contraction_ok
    _report("2", ok,
            f"attenuation-vs-flips max {worst_noise:.2e}, rate-factorization max l1 "
            f"{worst_fact:.2e} (tol 1e-9), contraction 1000/1000: {contraction_ok}")


def _column_squared_is_identity(op, n: int, tol: float) -> bool:
    for x in range(1 << n):
        acc: dict[int, complex] = {}
        for beta, gamma in op.columns(x):
            for beta2, row in op.columns(gamma):
                acc[row] = acc.get(row, 0j) + beta * beta2
        acc[x] = acc.get(x, 0j) - 1.0
        if any(abs(v) > tol for v in acc.values()):
            return False
    return True


def test_criterion_3_ecs_correctness():
    worst = 0.0
    involution_ok = True
    count = 0
    for family in FAMILIES:
        for i in range(3):
            n = 4 + i % 3
            rng = np.random.default_rng(3000 + i)
            decomp = random_family_instance(family, n, rng)
            masks = [mask for mask in range(1, 1 << n)
                     if _bits.mask_weight(mask) <= 3]
            worst = max(worst, ecs_error(decomp, masks))
            for mask in masks:
                involution_ok &= _column_squared_is_identity(
                    ecs_for(decomp, mask), n, 1e-9)
            count += len(masks)
    ok = worst <= 1e-9 and involution_ok
    _report("3", ok,
            f"{count} conjugated observables (4 families, n<=6, |s|<=3): "
            f"max dense error {worst:.2e} <= 1e-9, column-wise A@A=I: "
            f"{involution_ok}")


def test_criterion_4_estimator_contract():
    cfg = EstimatorConfig(batch_size=100_000, batch_count=9)
    hits = 0
    runs = 0
    second_ok = True
    for family, base in ((IQP, 4000), (CLIFFORD_MAGIC, 5000)):
        for i in range(50):
            rng = np.random.default_rng(base + i)
            decomp = random_family_instance(family, 8, rng)
            weight = 1 + i % 3
            qubits = rng.choice(8, size=weight, replace=False)
            mask = _bits.qubits_to_mask([int(q) for q in qubits], 8)
            truth = oracle.walsh_hadamard(
                oracle.output_distribution(decomp.circuit).p)[mask]
            state = ct_state_of(decomp.u_block)
            det = estimate_expectation_detailed(
                state, ecs_for(decomp, mask), cfg, rng)
            hits += abs(det.value - truth) <= 0.01
            second_ok &= det.second_moment <= 1.0 + 1e-9
            runs += 1

    # error-vs-batch-size scaling on a fixed instance and mask
    decomp = random_family_instance(IQP, 8, np.random.default_rng(4242))
    state = ct_state_of(decomp.u_block)
    mask = 0b00000101
    truth = oracle.walsh_hadamard(oracle.output_distribution(decomp.circuit).p)[mask]
    op = ecs_for(decomp, mask)
    rng = np.random.default_rng(77)
    rmse = {}
    for batch in (100, 1000, 10_000):
        sq = [
            (estimate_expectation_detailed(
                state, op, EstimatorConfig(batch_size=batch, batch_count=1),
                rng).value - truth) ** 2
            for _ in range(200)
        ]
        rmse[batch] = math.sqrt(float(np.mean(sq)))
    root10 = math.sqrt(10.0)
    scaling_ok = all(
        root10 / 3 <= rmse[b] / rmse[10 * b] <= root10 * 3
        for b in (100, 1000))
    ok = hits >= 0.95 * runs and second_ok and scaling_ok
    _report("4", ok,
            f"{hits}/{runs} runs within 0.01 of dense truth (need >=95%), "
            f"second moment <= 1+1e-9: {second_ok}, RMSE ratios per decade "
            f"{rmse[100] / rmse[1000]:.2f}, {rmse[1000] / rmse[10_000]:.2f} "
            f"(target sqrt(10) within x3): {scaling_ok}")


EPS_A = 0.2
DELTA = 0.4


@pytest.fixture(scope="module")
def model_a_ensemble():
    """50 random IQP instances at n=10 with oracle-measured alpha <= 2."""
    kept = []
    seed = 0
    while len(kept) < 50 and seed < 5000:
        rng = np.random.default_rng(60_000 + seed)
        seed += 1
        decomp = random_iqp(rng, 10)
        p = oracle.output_distribution(decomp.circuit)
        alpha = anti_concentration_alpha(p)
        if alpha <= 2.0:
            kept.append((decomp, p, max(alpha, 1.0)))
    assert len(kept) == 50, f"only {len(kept)} instances with alpha <= 2"
    return kept


def _model_a_pass_counts(ensemble, lam: float):
    passes = 0
    chain_antecedents = 0
    chain_passes = 0
    for i, (decomp, p, alpha) in enumerate(ensemble):
        res = simulate_model_a(
            decomp, alpha, DELTA, lam, ExactCoefficients(decomp),
            np.random.default_rng(61_000 + i), 0, c_max=4)
        noisy = apply_depolarizing_exact(p, NoiseSpec.uniform(EPS_A), n=10)
        alg = enumerate_alg_distribution(res.table)
        l1_alg = l1_distance(noisy, alg)
        l1_q = float(np.abs(noisy.p - res.table.dense_values()).sum())
        passes += l1_alg <= DELTA
        if l1_q <= DELTA / 3:
            chain_antecedents += 1
            chain_passes += l1_alg <= DELTA
    return passes, chain_antecedents, chain_passes


def test_criterion_5_model_a_end_to_end(model_a_ensemble):
    checks = []
    base = 10.0 * math.sqrt(1.0) / DELTA
    slack = 1.0 / (base * math.log2(base))
    for lam, label in ((EPS_A, "lambda=eps"),
                       (EPS_A / (1.0 + slack / 2.0), "lambda=eps/(1+slack/2)")):
        assert validate_lambda(1.0, DELTA, lam, EPS_A).ok
        passes, antecedents, chain = _model_a_pass_counts(model_a_ensemble, lam)
        checks.append((label, passes, antecedents, chain))
    ok = all(passes >= 45 and chain == antecedents
             for _, passes, antecedents, chain in checks)
    detail = "; ".join(
        f"{label}: {passes}/50 within delta=0.4 (need >=45), chain "
        f"{chain}/{antecedents}" for label, passes, antecedents, chain in checks)
    _report("5", ok, detail)


def test_criterion_6_model_b_end_to_end(model_a_ensemble):
    rates = [0.2 if j % 2 == 0 else 0.3 for j in range(10)]
    plan = ModelBPlan.from_rates(rates)  # lambda_j = eps_j exactly
    bound = (1.0 + 1.0 / (1.0 - plan.lambda_min)) * DELTA
    passes = 0
    for i, (decomp, p, alpha) in enumerate(model_a_ensemble):
        res = simulate_model_b(
            decomp, alpha, DELTA, plan, ExactCoefficients(decomp),
            np.random.default_rng(62_000 + i), 0, c_max=4)
        vec = enumerate_alg_distribution(res.table).p
        for j, dj in enumerate(plan.residual_deltas(10)):
            vec = noise_operator_apply(vec, j, float(dj), 10)
        noisy = apply_depolarizing_exact(p, NoiseSpec.per_qubit(rates), n=10)
        passes += float(np.abs(vec - noisy.p).sum()) <= bound
    _report("6", passes >= 45,
            f"{passes}/50 instances with ||p_B - q_B||_1 <= "
            f"(1 + 1/(1-lambda_min)) * delta = {bound:.2f} (need >=45)")


def test_criterion_7_sampler_exactness():
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        worst_gap = max(worst_gap, sign_fix_gap(random_table(rng, n, min(3, n))))

    # exactness on nonnegative q: noisy tables of real circuits
    worst_exact = 0.0
    for seed in range(10):
        decomp = random_family_instance(IQP, 6, np.random.default_rng(700 + seed))
        res = simulate_model_a(decomp, 4.0, 0.4, 0.3, ExactCoefficients(decomp),
                               np.random.default_rng(seed), 0, c_max=6)
        q = res.table.dense_values()
        if (q < 0).any():
            continue
        alg = enumerate_alg_distribution(res.table).p
        worst_exact = max(worst_exact, float(np.max(np.abs(alg - q))))

    # empirical draws vs enumeration (n=6 keeps the 1e5-draw TV well under 0.02)
    table = random_table(np.random.default_rng(71), 6, 3)
    alg = enumerate_alg_distribution(table)
    draws = sample_alg_batch(table, np.random.default_rng(72), 100_000)
    tv = 0.5 * l1_distance(empirical_distribution(draws, 6), alg)
    ok = worst_gap <= 1e-9 and worst_exact <= 1e-12 and tv <= 0.02
    _report("7", ok,
            f"fix identity max gap {worst_gap:.2e} <= 1e-9 (100 tables, n<=10), "
            f"Alg(q)=q on nonnegative q to {worst_exact:.2e}, "
            f"TV(1e5 draws, enumeration) = {tv:.4f} <= 0.02")


def test_criterion_8_iqp_input_noise_equivalence():
    worst = 0.0
    for i in range(50):
        n = 2 + i % 7
        rng = np.random.default_rng(8000 + i)
        decomp = random_family_instance(IQP, n, rng)
        uniform = np.full(n, float(rng.uniform(0.05, 0.95)))
        worst = max(worst, input_noise_l1(decomp, uniform),
                    input_noise_l1(decomp, rng.uniform(0.05, 0.95, n)))
    _report("8", worst <= 1e-10,
            f"50 instances, uniform and per-qubit rates: max l1 "
            f"{worst:.2e} <= 1e-10")


def test_criterion_9_marginal_simulation():
    cfg = EstimatorConfig(batch_size=100_000, batch_count=9)
    measured = [2, 7, 11]
    passes = 0
    for i in range(20):
        decomp = random_family_instance(
            CONSTANT_DEPTH, 16, np.random.default_rng(9000 + i), depth=3)
        source = EstimatedCoefficients(decomp, cfg)
        res = simulate_marginal(decomp, measured, source,
                                np.random.default_rng(9100 + i), 0)
        p = oracle.output_distribution(decomp.circuit)
        target = oracle.marginal_distribution(p, measured)
        alg = enumerate_alg_distribution(res.table)
        passes += l1_distance(alg, target) <= 0.05
    _report("9", passes >= 18,
            f"{passes}/20 constant-depth n=16 m=3 instances with "
            f"l1 <= 0.05 (need >=18)")


def test_criterion_10_theory_constants():
    ok_nine = choose_degree(1.0, 0.5, 0.5) == 9
    rng = np.random.default_rng(10)
    always = all(
        choose_degree(float(rng.uniform(1, 40)), float(rng.uniform(0.01, 0.99)),
                      float(rng.uniform(0.01, 0.99))) > 3
        for _ in range(50))
    spot_ok = True
    for _ in range(20):
        alpha = float(rng.uniform(1, 30))
        delta = float(rng.uniform(0.05, 0.95))
        eps = float(rng.uniform(0.05, 0.95))
        lam = float(rng.uniform(0.02, eps))
        check = validate_lambda(alpha, delta, lam, eps)
        base = 10.0 * math.sqrt(alpha) / delta
        bound = 1.0 + 1.0 / (base * math.log2(base))
        direct = 1.0 <= eps / lam <= bound
        spot_ok &= check.ok == direct
        spot_ok &= check.bound == pytest.approx(bound, rel=1e-12)
    f_n = 10.0 * (10.0 ** 9 + 1.0) / 0.5
    from ctecs.fourier import theory_accuracy_denominator

    f_ok = theory_accuracy_denominator(10, 9, 0.5) == pytest.approx(f_n)
    ok = ok_nine and always and spot_ok and f_ok
    _report("10", ok,
            f"c(1,0.5,0.5)=9: {ok_nine}, c>3 on 50 random valid inputs: "
            f"{always}, lambda-bound evaluator matches direct evaluation on "
            f"20 spot cases: {spot_ok}, f(n) value: {f_ok}")
