import numpy as np
import pytest

from ctecs import (
    CLIFFORD_MAGIC,
    Circuit,
    DistVector,
    IQP,
    NoiseSpec,
    ResourceLimitError,
    ValidationError,
    anti_concentration_alpha,
    apply_depolarizing_exact,
    ct_state_of,
    empirical_distribution,
    fourier_transform,
    inverse_fourier,
    l1_distance,
    model_b_factorization_check,
    noise_operator_apply,
    noisy_input_distribution_iqp,
    output_distribution,
    random_family_instance,
)
from ctecs import _bits, oracle
from ctecs.checks import input_noise_l1
from ctecs.circuits import build_constant_depth, h
from ctecs.fourier import ExactCoefficients


def test_dist_vector_validation():
    with pytest.raises(ValidationError):
        DistVector(1, np.array([0.5, 0.4]))
    with pytest.raises(ValidationError):
        DistVector(1, np.array([1.2, -0.2]))


def test_output_distribution_identity_and_h_layer():
    ident = output_distribution(Circuit(3, ()))
    np.testing.assert_allclose(ident.p, np.eye(8)[0], atol=1e-12)
    plus = output_distribution(Circuit(3, tuple(h(q) for q in range(3))))
    np.testing.assert_allclose(plus.p, np.full(8, 1 / 8), atol=1e-12)


def test_output_distribution_matches_amplitudes_clifford_magic():
    decomp = random_family_instance(CLIFFORD_MAGIC, 6, np.random.default_rng(0))
    p = output_distribution(decomp.circuit)
    assert p.p.sum() == pytest.approx(1.0, abs=1e-9)
    state = ct_state_of(decomp.u_block)
    v_dense = oracle.circuit_unitary(decomp.v_block)
    rng = np.random.default_rng(1)
    for ix in rng.integers(0, 64, size=50):
        # <x|C|0> = row x of V applied to U|0>
        bits = _bits.index_to_bits(np.arange(64), 6)
        u_state = state.amplitudes(bits)
        amp = v_dense[int(ix)] @ u_state
        assert abs(amp) ** 2 == pytest.approx(p.p[int(ix)], abs=1e-9)


def test_state_vector_cap():
    with pytest.raises(ResourceLimitError):
        oracle.simulate_state(Circuit(oracle.DENSE_CAP + 1, ()))


# --- transforms ---------------------------------------------------------------

def test_fourier_of_point_mass_and_uniform():
    point = np.eye(4)[0]
    np.testing.assert_allclose(fourier_transform(point), np.full(4, 1 / 4),
                               atol=1e-12)
    uniform = np.full(4, 1 / 4)
    np.testing.assert_allclose(fourier_transform(uniform), [1 / 4, 0, 0, 0],
                               atol=1e-12)


def test_fourier_roundtrip_and_parseval():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        f = rng.standard_normal(1 << n)
        coeffs = fourier_transform(f)
        np.testing.assert_allclose(inverse_fourier(coeffs), f, atol=1e-12)
        lhs = 2.0 ** (2 * n) * np.sum(coeffs ** 2)
        rhs = 2.0 ** n * np.sum(f ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_norm_inequality_l1_sq_le_2n_l2_sq():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        f = rng.standard_normal(1 << n)
        assert np.abs(f).sum() ** 2 <= (1 << n) * np.sum(f ** 2) + 1e-9


# --- depolarizing noise ----------------------------------------------------------

def test_depolarizing_point_mass_single_qubit():
    p = np.array([1.0, 0.0])
    noisy = apply_depolarizing_exact(p, NoiseSpec.uniform(0.5), n=1)
    np.testing.assert_allclose(noisy.p, [0.75, 0.25], atol=1e-12)


def test_depolarizing_identity_two_qubits():
    p = np.eye(4)[0]
    noisy = apply_depolarizing_exact(p, NoiseSpec.uniform(0.5), n=2)
    np.testing.assert_allclose(noisy.p, [9 / 16, 3 / 16, 3 / 16, 1 / 16],
                               atol=1e-12)


def test_depolarizing_rate_one_gives_uniform():
    rng = np.random.default_rng(4)
    p = rng.random(8)
    p /= p.sum()
    noisy = apply_depolarizing_exact(p, [1.0, 1.0, 1.0], n=3)
    np.testing.assert_allclose(noisy.p, np.full(8, 1 / 8), atol=1e-12)


def test_noise_spec_validation():
    with pytest.raises(ValidationError):
        NoiseSpec.uniform(0.0)
    with pytest.raises(ValidationError):
        NoiseSpec.uniform(1.0)
    with pytest.raises(ValidationError):
        NoiseSpec.per_qubit([0.2, 1.2])
    spec = NoiseSpec.per_qubit([0.2, 0.3])
    with pytest.raises(ValidationError):
        spec.rates(3)


# --- noise operators ----------------------------------------------------------------

def test_noise_operator_delta_zero_is_identity():
    f = np.random.default_rng(5).standard_normal(16)
    np.testing.assert_allclose(noise_operator_apply(f, 2, 0.0, 4), f, atol=1e-15)


def test_noise_operator_delta_one_symmetrizes_bit():
    f = np.random.default_rng(6).standard_normal(16)
    out = noise_operator_apply(f, 1, 1.0, 4)
    flipped = out[np.arange(16) ^ (1 << 2)]  # qubit 1 of 4 is bit value 4
    np.testing.assert_allclose(out, flipped, atol=1e-12)


def test_noise_operator_contraction_1000_trials():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        f = rng.standard_normal(1 << n)
        j = int(rng.integers(n))
        delta = float(rng.uniform(0, 1))
        out = noise_operator_apply(f, j, delta, n)
        assert np.abs(out).sum() <= np.abs(f).sum() + 1e-12


def test_noise_operators_commute_across_qubits():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        f = rng.standard_normal(1 << n)
        j, k = rng.choice(n, size=2, replace=False)
        dj, dk = rng.uniform(0, 1, 2)
        a = noise_operator_apply(noise_operator_apply(f, int(j), dj, n), int(k), dk, n)
        b = noise_operator_apply(noise_operator_apply(f, int(k), dk, n), int(j), dj, n)
        np.testing.assert_allclose(a, b, atol=1e-12)


# --- model-B factorization ------------------------------------------------------------

def test_factorization_equal_rates_degenerates():
    rng = np.random.default_rng(9)
    p = rng.random(16)
    p /= p.sum()
    lhs, rhs = model_b_factorization_check(p, [0.3] * 4)
    modela = apply_depolarizing_exact(p, NoiseSpec.uniform(0.3), n=4)
    np.testing.assert_allclose(lhs, modela.p, atol=1e-12)
    np.testing.assert_allclose(rhs, modela.p, atol=1e-12)


def test_factorization_two_rates_example():
    deltas = (np.array([0.2, 0.5]) - 0.2) / (1 - 0.2)
    assert deltas[1] == pytest.approx(0.375)
    rng = np.random.default_rng(10)
    p = rng.random(4)
    p /= p.sum()
    lhs, rhs = model_b_factorization_check(p, [0.2, 0.5])
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_factorization_random_rates():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        p = rng.random(1 << n)
        p /= p.sum()
        rates = rng.uniform(0.05, 0.95, n)
        lhs, rhs = model_b_factorization_check(p, rates)
        assert np.abs(lhs - rhs).sum() <= 1e-9


# --- IQP input noise --------------------------------------------------------------------

def test_input_noise_zero_rate_is_noise_free():
    decomp = random_family_instance(IQP, 4, np.random.default_rng(12))
    p = output_distribution(decomp.circuit)
    via_input = noisy_input_distribution_iqp(decomp, np.zeros(4))
    assert l1_distance(via_input, p) <= 1e-10


def test_input_noise_equals_output_noise_uniform():
    for seed in range(10):
        decomp = random_family_instance(IQP, 6, np.random.default_rng(seed))
        assert input_noise_l1(decomp, np.full(6, 0.3)) <= 1e-10


def test_input_noise_equals_output_noise_per_qubit():
    rng = np.random.default_rng(13)
    for seed in range(10):
        decomp = random_family_instance(IQP, 5, np.random.default_rng(seed))
        assert input_noise_l1(decomp, rng.uniform(0.05, 0.95, 5)) <= 1e-10


def test_input_noise_rejects_non_iqp():
    decomp = random_family_instance(CLIFFORD_MAGIC, 3, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        noisy_input_distribution_iqp(decomp, np.full(3, 0.2))


# --- metrics -----------------------------------------------------------------------------

def test_alpha_uniform_and_point_mass():
    assert anti_concentration_alpha(np.full(16, 1 / 16)) == pytest.approx(1.0)
    assert anti_concentration_alpha(np.eye(16)[3]) == pytest.approx(16.0)


def test_l1_distance_cases():
    assert l1_distance(np.eye(4)[0], np.eye(4)[0]) == 0.0
    assert l1_distance(np.eye(4)[0], np.eye(4)[3]) == pytest.approx(2.0)


def test_empirical_distribution_uniform_samples():
    rng = np.random.default_rng(14)
    samples = rng.integers(0, 2, size=(100_000, 4)).astype(np.uint8)
    emp = empirical_distribution(samples, 4)
    assert l1_distance(emp, np.full(16, 1 / 16)) <= 0.05


def test_marginal_distribution_order_and_values():
    p = np.zeros(8)
    p[0b101] = 1.0  # qubits (0,1,2) = (1,0,1)
    marg = oracle.marginal_distribution(p, [2, 0])
    want = np.zeros(4)
    want[0b11] = 1.0
    np.testing.assert_allclose(marg.p, want, atol=1e-15)


def test_expectation_exact_identity_circuit():
    source = ExactCoefficients(build_constant_depth(Circuit(2, ()), 1))
    for mask in range(4):
        assert source.expectations([mask], np.random.default_rng(0))[0] == \
            pytest.approx(1.0)
