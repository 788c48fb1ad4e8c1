"""Each shared invariant check reads within its bound on a correct input
and above it once one side of the checked identity is made wrong."""

import numpy as np

from ctecs import IQP, Circuit, DistVector, FourierTable, random_family_instance
from ctecs import checks, oracle
from ctecs.ecs import ecs_for


def test_fourier_identity_sides_see_a_wrong_distribution(monkeypatch):
    circuit = Circuit(2, ())
    lhs, rhs = checks.fourier_identity_sides(circuit)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10
    monkeypatch.setattr(oracle, "output_distribution",
                        lambda c, **kw: DistVector(2, np.full(4, 0.25)))
    lhs, rhs = checks.fourier_identity_sides(circuit)
    assert np.max(np.abs(lhs - rhs)) > 1e-10


def test_noise_route_gap_sees_a_wrong_attenuation(monkeypatch):
    p = np.random.default_rng(1).random(8)
    p /= p.sum()
    rates = np.array([0.1, 0.4, 0.7])
    assert checks.noise_route_gap(p, rates) <= 1e-9
    right = oracle.attenuation_factors
    monkeypatch.setattr(oracle, "attenuation_factors", lambda r: right(r / 2))
    assert checks.noise_route_gap(p, rates) > 1e-9


def test_ecs_error_sees_the_operator_of_another_mask(monkeypatch):
    decomp = random_family_instance(IQP, 3, np.random.default_rng(2))
    assert checks.ecs_error(decomp, [0b110, 0b011]) <= 1e-9
    monkeypatch.setattr(checks, "ecs_for", lambda d, mask: ecs_for(
        d, mask ^ 0b100 if mask == 0b011 else mask))
    assert checks.ecs_error(decomp, [0b110, 0b011]) > 1e-9


def test_sign_fix_gap_sees_a_wrong_sampler_law(monkeypatch):
    table = FourierTable(1, 1, {0: 0.5, 1: 0.75})  # q = (1.25, -0.25)
    assert checks.sign_fix_gap(table) <= 1e-9
    monkeypatch.setattr(checks, "enumerate_alg_distribution",
                        lambda t: DistVector(1, np.full(2, 0.5)))
    assert checks.sign_fix_gap(table) > 1e-9


def test_input_noise_l1_sees_wrong_input_rates(monkeypatch):
    decomp = random_family_instance(IQP, 4, np.random.default_rng(3))
    rates = np.array([0.2, 0.3, 0.5, 0.6])
    assert checks.input_noise_l1(decomp, rates) <= 1e-10
    right = oracle.noisy_input_distribution_iqp
    monkeypatch.setattr(oracle, "noisy_input_distribution_iqp",
                        lambda d, r: right(d, np.asarray(r) / 2))
    assert checks.input_noise_l1(decomp, rates) > 1e-10
