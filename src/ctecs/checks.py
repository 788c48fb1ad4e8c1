"""Invariant checks shared by ``ctecs verify`` and the acceptance tests.

Each public function computes one checked figure on one input, from dense
routes that do not share the code path under check.  ``SUITES`` maps each
``ctecs verify`` suite name to a function of the master seed that returns
the suite's check records.
"""

from __future__ import annotations

import numpy as np

from . import _bits, oracle, seeding
from .circuits import FAMILIES, IQP, Circuit, CtEcsDecomposition, random_family_instance
from .ecs import dense_from_columns, ecs_for
from .fourier import FourierTable
from .noise import NoiseSpec, noise_operator_apply
from .sampler import enumerate_alg_distribution, negative_mass


def fourier_identity_sides(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of p_hat(s) = <0|C^dag Z^s C|0> / 2**n for all 2**n masks:
    the Walsh butterfly of the state-vector Born law, and direct character
    sums over the first column of the kron-built dense unitary."""
    n = circuit.n
    lhs = oracle.fourier_transform(oracle.output_distribution(circuit))
    weights = np.abs(oracle.circuit_unitary(circuit)[:, 0]) ** 2
    signs = _bits.sign_character(np.arange(1 << n), np.arange(1 << n), n)
    return lhs, (signs * weights).sum(axis=1) / (1 << n)


def noise_route_gap(p, rates) -> float:
    """Largest pointwise gap between the flip and the Fourier routes of
    depolarizing noise at per-qubit ``rates``, as the noisy oracle's guard
    computes it."""
    return oracle.depolarize_two_routes(p, rates)[1]


def ecs_error(decomp: CtEcsDecomposition, masks) -> float:
    """The largest over ``masks`` of two dense errors of
    ``ecs_for(decomp, mask)``: its column oracle against V^dag Z^mask V,
    and its square against I.  V is built once."""
    n = decomp.n
    v = oracle.circuit_unitary(decomp.v_block)
    v_dag = v.conj().T
    identity = np.eye(1 << n)
    worst = 0.0
    for mask in masks:
        signs = _bits.sign_character([mask], np.arange(1 << n), n)[0]
        z = np.diag(signs).astype(complex)
        got = dense_from_columns(ecs_for(decomp, mask))
        worst = max(worst, float(np.max(np.abs(got - v_dag @ z @ v))),
                    float(np.max(np.abs(got @ got - identity))))
    return worst


def sign_fix_gap(table: FourierTable) -> float:
    """| ||q - Alg(q)||_1 - 2 * negative mass of q |, which the sampler's
    sign fix makes 0 for every table q."""
    q = table.dense_values()
    alg = enumerate_alg_distribution(table).p
    return float(abs(np.abs(q - alg).sum() - 2.0 * negative_mass(table)))


def input_noise_l1(decomp: CtEcsDecomposition, rates) -> float:
    """l1 distance between an IQP circuit's output law with depolarizing
    noise at per-qubit ``rates`` on its inputs and on its outputs
    (Bremner-Montanaro-Shepherd: the two are equal)."""
    p = oracle.output_distribution(decomp.circuit)
    via_input = oracle.noisy_input_distribution_iqp(decomp, rates)
    via_output = oracle.apply_depolarizing_exact(
        p, NoiseSpec.per_qubit(rates), n=decomp.n)
    return oracle.l1_distance(via_input, via_output)


# --- the ctecs verify suites ------------------------------------------------------

def _fourier_identity_suite(seed: int) -> list[dict]:
    checks = []
    for family in FAMILIES:
        for n in (2, 3, 4, 5):
            for i in range(3):
                rng = seeding.derive_rng(seed, seeding.LABEL_VERIFY, n, i)
                lhs, rhs = fourier_identity_sides(
                    random_family_instance(family, n, rng).circuit)
                worst = float(np.max(np.abs(lhs - rhs)))
                checks.append({"name": f"{family}/n={n}/instance={i}",
                               "max_abs_difference": worst, "ok": worst <= 1e-10})
    return checks


def _noise_algebra_suite(seed: int) -> list[dict]:
    rng = seeding.derive_rng(seed, seeding.LABEL_VERIFY)
    checks = []
    for trial in range(20):
        n = int(rng.integers(1, 9))
        p = rng.random(1 << n)
        p /= p.sum()
        gap = noise_route_gap(p, rng.uniform(0.05, 0.95, n))
        f = rng.standard_normal(1 << n)
        contracted = noise_operator_apply(
            f, int(rng.integers(n)), float(rng.uniform(0.0, 1.0)), n)
        ok = gap <= 1e-9 and np.abs(contracted).sum() <= np.abs(f).sum() + 1e-12
        checks.append({"name": f"trial={trial}/n={n}", "ok": bool(ok)})
    return checks


def _noise_factorization_suite(seed: int) -> list[dict]:
    rng = seeding.derive_rng(seed, seeding.LABEL_VERIFY)
    checks = []
    for trial in range(30):
        n = int(rng.integers(1, 9))
        p = rng.random(1 << n)
        p /= p.sum()
        lhs, rhs = oracle.model_b_factorization_check(p, rng.uniform(0.05, 0.95, n))
        err = float(np.abs(lhs - rhs).sum())
        checks.append({"name": f"trial={trial}/n={n}", "l1": err, "ok": err <= 1e-9})
    return checks


def _ecs_suite(seed: int) -> list[dict]:
    checks = []
    for family in FAMILIES:
        for i in range(3):
            rng = seeding.derive_rng(seed, seeding.LABEL_VERIFY, i)
            n = int(rng.integers(2, 6))
            decomp = random_family_instance(family, n, rng)
            worst = ecs_error(
                decomp, [mask for mask in _bits.masks_up_to_weight(n, 3) if mask])
            checks.append({"name": f"{family}/instance={i}/n={n}",
                           "max_abs_error": worst, "ok": worst <= 1e-9})
    return checks


def _sampler_fix_suite(seed: int) -> list[dict]:
    rng = seeding.derive_rng(seed, seeding.LABEL_VERIFY)
    checks = []
    for trial in range(25):
        n = int(rng.integers(1, 9))
        c = int(rng.integers(0, n + 1))
        entries = {0: 0.5 ** n}
        for mask in _bits.masks_up_to_weight(n, c):
            if mask and rng.random() < 0.5:
                entries[mask] = float(rng.normal(scale=0.5 ** n))
        gap = sign_fix_gap(FourierTable(n, c, entries))
        checks.append({"name": f"trial={trial}/n={n}", "identity_gap": gap,
                       "ok": gap <= 1e-9})
    return checks


def _iqp_input_noise_suite(seed: int) -> list[dict]:
    checks = []
    for i in range(6):
        rng = seeding.derive_rng(seed, seeding.LABEL_VERIFY, i)
        n = int(rng.integers(2, 7))
        decomp = random_family_instance(IQP, n, rng)
        eps = (rng.uniform(0.05, 0.95, n) if i % 2
               else np.full(n, float(rng.uniform(0.05, 0.95))))
        err = input_noise_l1(decomp, eps)
        checks.append({"name": f"instance={i}/n={n}", "l1": err, "ok": err <= 1e-10})
    return checks


SUITES = {
    "fourier-identity": _fourier_identity_suite,
    "noise-algebra": _noise_algebra_suite,
    "noise-factorization": _noise_factorization_suite,
    "ecs": _ecs_suite,
    "sampler-fix": _sampler_fix_suite,
    "iqp-input-noise": _iqp_input_noise_suite,
}
