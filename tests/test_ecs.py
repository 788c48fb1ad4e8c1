from collections import Counter

import numpy as np
import pytest

from conftest import columns_as_dict, dense_conjugated_z
from ctecs import (
    CLIFFORD_MAGIC,
    CONJUGATED_CLIFFORD,
    CONSTANT_DEPTH,
    FAMILIES,
    IQP,
    Circuit,
    EcsOperation,
    EcsProduct,
    EstimatedCoefficients,
    EstimatorConfig,
    PauliCombination,
    ResourceLimitError,
    SignedPauli,
    ValidationError,
    build_low_degree_table,
    check_ecs_observable,
    conjugate_pauli_by_clifford,
    conjugated_z_decomposition,
    ecs_for,
    lightcone,
    local_z_operator,
    random_family_instance,
)
from ctecs import _bits, ecs, oracle
from ctecs.circuits import cz, gate_matrix, h, rx_matrix, rz_matrix, s, t, x, y
from ctecs.checks import ecs_error
from ctecs.ecs import CHECK_TRIALS, SUPPORT_CAP, dense_from_columns

_PAULI_1Q = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.diag([1.0 + 0j, -1.0]),
    (1, 1): np.array([[0, 1], [1, 0]]) @ np.diag([1.0 + 0j, -1.0]),
}


def dense_signed_pauli(p: SignedPauli) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for j in range(p.n):
        xb = _bits.qubit_bit(p.xmask, j, p.n)
        zb = _bits.qubit_bit(p.zmask, j, p.n)
        out = np.kron(out, _PAULI_1Q[(xb, zb)])
    return (1j ** p.k) * out


def test_signed_pauli_basis_action_matches_dense():
    rng = np.random.default_rng(0)
    for n in (1, 3, 5):
        for _ in range(10):
            p = SignedPauli(n, int(rng.integers(4)), int(rng.integers(1 << n)),
                            int(rng.integers(1 << n)))
            np.testing.assert_allclose(
                dense_from_columns(p), dense_signed_pauli(p), atol=1e-12)


def test_signed_pauli_hermiticity_rule_matches_dense():
    # the spot check accepts a signed Pauli exactly when its dense matrix is
    # Hermitian (a non-Hermitian one squares to -I)
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        p = SignedPauli(n, int(rng.integers(4)), int(rng.integers(1 << n)),
                        int(rng.integers(1 << n)))
        mat = dense_signed_pauli(p)
        if np.allclose(mat, mat.conj().T, atol=1e-12):
            check_ecs_observable(p, rng)
        else:
            with pytest.raises(ValidationError, match="Hermitian"):
                check_ecs_observable(p, rng)


def test_signed_pauli_product_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        a = SignedPauli(n, int(rng.integers(4)), int(rng.integers(1 << n)),
                        int(rng.integers(1 << n)))
        b = SignedPauli(n, int(rng.integers(4)), int(rng.integers(1 << n)),
                        int(rng.integers(1 << n)))
        np.testing.assert_allclose(
            dense_signed_pauli(a @ b),
            dense_signed_pauli(a) @ dense_signed_pauli(b), atol=1e-12)


def test_columns_examples():
    x0 = SignedPauli.x_on(2, (0,))
    assert columns_as_dict(x0, 0b00) == {0b10: 1.0}
    z0 = SignedPauli.z_on(2, (0,))
    assert columns_as_dict(z0, 0b10) == {0b10: -1.0}
    minus_y = PauliCombination(1, [(-1.0, SignedPauli.y_on(1, (0,)))])
    col = columns_as_dict(minus_y, 0)
    assert col == {1: pytest.approx(-1j)}
    np.testing.assert_allclose(
        dense_from_columns(minus_y), -gate_matrix(y(0)), atol=1e-12)


# --- Clifford conjugation ------------------------------------------------------

def test_conjugation_h_takes_z_to_x():
    got = conjugate_pauli_by_clifford([h(0)], SignedPauli.z_on(1, (0,)))
    assert got == SignedPauli.x_on(1, (0,))


def test_conjugation_s_takes_x_to_minus_y():
    got = conjugate_pauli_by_clifford([s(0)], SignedPauli.x_on(1, (0,)))
    np.testing.assert_allclose(
        dense_signed_pauli(got), np.array([[0, 1j], [-1j, 0]]), atol=1e-12)


def test_conjugation_cz_takes_x_to_xz():
    got = conjugate_pauli_by_clifford([cz(0, 1)], SignedPauli.x_on(2, (0,)))
    want = SignedPauli.x_on(2, (0,)) @ SignedPauli.z_on(2, (1,))
    assert got == want


def test_conjugation_rejects_non_clifford():
    with pytest.raises(ValidationError):
        conjugate_pauli_by_clifford([t(0)], SignedPauli.z_on(1, (0,)))


def test_conjugation_random_circuits_match_dense():
    from ctecs.circuits import Gate

    kinds = ("H", "S", "CZ", "X", "Y", "Z")
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(int(rng.integers(0, 12))):
            kind = kinds[rng.integers(len(kinds))]
            if kind == "CZ" and n >= 2:
                q = rng.choice(n, 2, replace=False)
                gates.append(Gate("CZ", (int(q[0]), int(q[1]))))
            elif kind != "CZ":
                gates.append(Gate(kind, (int(rng.integers(n)),)))
        p = SignedPauli(n, int(rng.integers(4)), int(rng.integers(1 << n)),
                        int(rng.integers(1 << n)))
        got = dense_signed_pauli(conjugate_pauli_by_clifford(gates, p))
        e = oracle.circuit_unitary(Circuit(n, tuple(gates)))
        want = e.conj().T @ dense_signed_pauli(p) @ e
        np.testing.assert_allclose(got, want, atol=1e-9)


# --- conjugated-rotation coefficients -------------------------------------------

def test_conjugated_z_decomposition_cancelled_theta_is_z():
    alphas = conjugated_z_decomposition(0.0, 0.0)
    np.testing.assert_allclose(alphas, (0, 1, 0, 0), atol=1e-12)


def test_conjugated_z_decomposition_theta_half_pi_is_minus_y():
    alphas = conjugated_z_decomposition(0.0, np.pi / 2)
    np.testing.assert_allclose(alphas, (0, 0, 0, -1), atol=1e-12)


@pytest.mark.parametrize("phi,theta", [
    (np.pi / 2, np.pi / 2),
    (np.pi / 4, -np.pi / 2),
    (1.234, 0.777),
])
def test_conjugated_z_decomposition_matches_dense_structure(phi, theta):
    alphas = conjugated_z_decomposition(phi, theta)
    want = (0.0, np.cos(theta), np.sin(theta) * np.sin(phi),
            -np.sin(theta) * np.cos(phi))
    np.testing.assert_allclose(alphas, want, atol=1e-12)
    zmat = np.diag([1.0 + 0j, -1.0])
    m = rz_matrix(phi) @ rx_matrix(theta) @ zmat @ rx_matrix(-theta) @ rz_matrix(-phi)
    paulis = (np.eye(2), zmat, gate_matrix(x(0)), gate_matrix(y(0)))
    recon = sum(a * p for a, p in zip(alphas, paulis))
    np.testing.assert_allclose(recon, m, atol=1e-12)


# --- lightcones ------------------------------------------------------------------

def test_lightcone_single_qubit_gates():
    circuit = Circuit(4, tuple(h(q) for q in range(4)))
    for j in range(4):
        assert lightcone(circuit, j) == (j,)


def test_lightcone_layered_example():
    circuit = Circuit(4, (cz(0, 1), cz(2, 3), cz(1, 2)))
    assert lightcone(circuit, 1) == (0, 1, 2, 3)


def test_lightcone_empty_circuit():
    assert lightcone(Circuit(3, ()), 2) == (2,)


def _cz_chain(n: int) -> Circuit:
    return Circuit(n, tuple(cz(i, i + 1) for i in range(n - 1)))


def test_lightcone_cap_raises():
    cone = lightcone(_cz_chain(SUPPORT_CAP), SUPPORT_CAP - 1)
    assert cone == tuple(range(SUPPORT_CAP))
    with pytest.raises(ResourceLimitError):
        lightcone(_cz_chain(14), 13)


def test_local_z_operator_matches_full_conjugation():
    rng = np.random.default_rng(4)
    for seed in range(8):
        decomp = random_family_instance(
            CONSTANT_DEPTH, 6, np.random.default_rng(seed), depth=3)
        circuit = decomp.v_block
        j = int(rng.integers(6))
        op = local_z_operator(circuit, j)
        got = dense_from_columns(op)
        want = dense_conjugated_z(circuit, 1 << (5 - j))
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_local_operator_identity_off_support():
    decomp = random_family_instance(CONSTANT_DEPTH, 5, np.random.default_rng(1),
                                    depth=2)
    op = local_z_operator(decomp.v_block, 0)
    off = [q for q in range(5) if q not in op.support]
    for x_ix in (0, 7, 21):
        for _, gamma in op.columns(x_ix):
            for q in off:
                assert _bits.qubit_bit(gamma, q, 5) == _bits.qubit_bit(x_ix, q, 5)


# --- products and family observables ----------------------------------------------

def test_ecs_product_sparsity_bound_and_dense_equality():
    decomp = random_family_instance(CONSTANT_DEPTH, 6, np.random.default_rng(9),
                                    depth=2)
    ops = [local_z_operator(decomp.v_block, j) for j in (0, 3, 5)]
    product = EcsProduct(ops)
    bound = 1
    for op in ops:
        bound *= op.sparsity
    assert product.sparsity <= bound * 1 and product.sparsity == bound
    for x_ix in range(8):
        assert len(product.columns(x_ix)) <= bound
    want = np.eye(1 << 6, dtype=complex)
    for op in ops:
        want = want @ dense_from_columns(op)
    np.testing.assert_allclose(dense_from_columns(product), want, atol=1e-9)


def test_ecs_for_iqp_is_x_string():
    decomp = random_family_instance(IQP, 4, np.random.default_rng(0))
    op = ecs_for(decomp, 0b1010)
    assert isinstance(op, SignedPauli)
    assert op == SignedPauli.x_on(4, (0, 2))


def test_ecs_for_clifford_magic_weight_two_is_single_pauli():
    decomp = random_family_instance(CLIFFORD_MAGIC, 5, np.random.default_rng(1))
    op = ecs_for(decomp, 0b10010)
    assert isinstance(op, SignedPauli)
    assert op.sparsity == 1
    np.testing.assert_allclose(
        dense_from_columns(op), dense_conjugated_z(decomp.v_block, 0b10010),
        atol=1e-9)


def test_ecs_for_conjugated_clifford_weight_one():
    decomp = random_family_instance(CONJUGATED_CLIFFORD, 4,
                                    np.random.default_rng(2))
    op = ecs_for(decomp, 0b0100)
    assert isinstance(op, PauliCombination)
    assert len(op.terms) <= 4
    mat = dense_from_columns(op)
    np.testing.assert_allclose(mat @ mat, np.eye(16), atol=1e-9)
    check_ecs_observable(op, np.random.default_rng(0))


def test_ecs_for_rejects_zero_mask():
    decomp = random_family_instance(IQP, 3, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        ecs_for(decomp, 0)


def test_ecs_for_constant_depth_support_cap():
    decomp = random_family_instance(CONSTANT_DEPTH, 14, np.random.default_rng(0))
    decomp = type(decomp)(decomp.family, 14, decomp.u_block, _cz_chain(14),
                          decomp.params)
    with pytest.raises(ResourceLimitError) as err:
        ecs_for(decomp, 0b1)
    assert "|s|" in str(err.value)


@pytest.mark.parametrize("family", FAMILIES)
def test_column_oracle_matches_dense_all_families(family):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 3
        decomp = random_family_instance(family, n, rng)
        assert ecs_error(decomp, _bits.masks_up_to_weight(n, 3)[1:]) <= 1e-9


@pytest.mark.parametrize("family", FAMILIES)
def test_involution_and_hermiticity_via_columns(family):
    rng = np.random.default_rng(7)
    decomp = random_family_instance(family, 5, rng)
    for mask in (0b10000, 0b01010, 0b00111):
        op = ecs_for(decomp, mask)
        for _ in range(2):
            check_ecs_observable(op, rng)


def test_check_ecs_observable_rejects_non_unitary():
    bad = PauliCombination(2, [
        (1.0, SignedPauli.x_on(2, (0,))),
        (0.5, SignedPauli.z_on(2, (1,))),
    ])
    with pytest.raises(ValidationError):
        check_ecs_observable(bad, np.random.default_rng(0))


def test_columns_merges_duplicate_rows():
    # X and XZ share a row in every column: they add on |0> and cancel on |1>
    op = PauliCombination(1, [(1.0, SignedPauli.x_on(1, (0,))),
                              (1.0, SignedPauli(1, 0, 1, 1))])
    betas, _ = op.columns_bits(np.array([[0], [1]], dtype=np.uint8))
    assert betas.shape == (2, 2)
    assert op.columns(0) == [(2.0, 1)]
    assert op.columns(1) == []


def test_check_ecs_observable_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="Hermitian"):
        check_ecs_observable(SignedPauli(2, 1, 0b10, 0), np.random.default_rng(0))


def test_batch_columns_agree_with_scalar():
    rng = np.random.default_rng(8)
    for family in FAMILIES:
        decomp = random_family_instance(family, 5, rng)
        op = ecs_for(decomp, 0b10100)
        xs = rng.integers(0, 32, size=10)
        bits = _bits.index_to_bits(xs, 5)
        betas, gammas = op.columns_bits(bits)
        rows = _bits.bits_to_index(gammas.reshape(-1, 5)).reshape(betas.shape)
        for i, x_ix in enumerate(xs):
            merged: dict[int, complex] = {}
            for val, row in zip(betas[i], rows[i]):
                if abs(val) > 0:
                    merged[row] = merged.get(row, 0j) + val
            merged = {r: v for r, v in merged.items() if abs(v) > 1e-12}
            want = columns_as_dict(op, int(x_ix))
            assert set(merged) == set(want)
            for row, val in want.items():
                assert merged[row] == pytest.approx(val, abs=1e-12)


# --- per-qubit observables and the batched spot check --------------------------------

_MEMO_FAMILIES = (CLIFFORD_MAGIC, CONJUGATED_CLIFFORD, CONSTANT_DEPTH)


def _count_factor_builds(monkeypatch) -> Counter:
    """Count the per-qubit conjugations ``ecs_for`` runs, keyed by the
    conjugating gates' identity and the conjugated Pauli (Clifford
    families) or the qubit (constant depth)."""
    builds = Counter()
    conjugate, local = ecs.conjugate_pauli_by_clifford, ecs.local_z_operator

    def counted_conjugate(gates, pauli):
        builds[(id(gates), pauli.k, pauli.xmask, pauli.zmask)] += 1
        return conjugate(gates, pauli)

    def counted_local(circuit, j):
        builds[(id(circuit), j)] += 1
        return local(circuit, j)

    monkeypatch.setattr(ecs, "conjugate_pauli_by_clifford", counted_conjugate)
    monkeypatch.setattr(ecs, "local_z_operator", counted_local)
    return builds


@pytest.mark.parametrize("family", _MEMO_FAMILIES)
def test_table_build_conjugates_each_qubit_once(family, monkeypatch):
    builds = _count_factor_builds(monkeypatch)
    decomp = random_family_instance(family, 6, np.random.default_rng(3))
    source = EstimatedCoefficients(decomp, EstimatorConfig(batch_size=20,
                                                           batch_count=1))
    build_low_degree_table(decomp, 3, source, np.random.default_rng(4))
    assert max(builds.values()) == 1
    if family == CONSTANT_DEPTH:
        assert sorted(j for _, j in builds) == list(range(6))
    if family == CLIFFORD_MAGIC:
        assert len(builds) == 6


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("budget", [None, 1])
def test_memoised_observables_stay_exact(family, budget, monkeypatch):
    builds = _count_factor_builds(monkeypatch)
    if budget is not None:
        monkeypatch.setattr(ecs, "OBSERVABLE_MEMO_BYTES", budget)
    decomps = []  # kept alive, so the counted ids stay distinct
    for n in (4, 6):
        masks = _bits.masks_up_to_weight(n, 3)[1:]
        first, second = (random_family_instance(family, n,
                                                np.random.default_rng(seed))
                         for seed in (n, n + 10))
        decomps += [first, second]
        assert ecs_error(first, masks) <= 1e-9  # first call
        assert ecs_error(first, masks) <= 1e-9  # repeat call, from the memo
        assert max(ecs_error(decomp, [mask])  # interleaved
                   for mask in masks for decomp in (second, first)) <= 1e-9
    # a one-byte budget keeps only the newest factor, so factors holding
    # arrays are rebuilt after eviction; signed Paulis hold none
    evicting = budget is not None and family in (CONJUGATED_CLIFFORD,
                                                 CONSTANT_DEPTH)
    assert (max(builds.values(), default=1) > 1) == evicting


class _WrongColumn(EcsOperation):
    """``base`` with column ``x`` scaled by ``scale``."""

    def __init__(self, base, x, scale):
        self.n, self.base, self.x, self.scale = base.n, base, x, scale

    @property
    def sparsity(self):
        return self.base.sparsity

    def columns_bits(self, bits):
        betas, gammas = self.base.columns_bits(bits)
        hit = _bits.bits_to_index(bits) == self.x
        return np.where(hit[:, None], self.scale * betas, betas), gammas


def _checked_columns(seed: int, n: int) -> list[int]:
    probe = np.random.default_rng(seed)
    return [int(probe.integers(1 << n)) for _ in range(CHECK_TRIALS)]


@pytest.mark.parametrize("trial", range(CHECK_TRIALS))
@pytest.mark.parametrize("base, scale, message", [
    (SignedPauli.z_on(10, (0,)), 2.0, "squared"),  # Hermitian, squares to 4
    (SignedPauli.x_on(10, (0,)), 1j, "Hermitian"),
])
def test_check_rejects_one_wrong_sampled_column(trial, base, scale, message):
    xs = _checked_columns(5, 10)
    assert len(set(xs)) == CHECK_TRIALS
    check_ecs_observable(base, np.random.default_rng(5))
    read = {x ^ flip for x in xs for flip in (0, base.xmask)}
    unsampled = next(x for x in range(1 << 10) if x not in read)
    check_ecs_observable(_WrongColumn(base, unsampled, scale),
                         np.random.default_rng(5))
    with pytest.raises(ValidationError, match=message):
        check_ecs_observable(_WrongColumn(base, xs[trial], scale),
                             np.random.default_rng(5))


@pytest.mark.parametrize("family", FAMILIES)
def test_check_draws_one_scalar_per_trial(family):
    decomp = random_family_instance(family, 6, np.random.default_rng(9))
    rng = np.random.default_rng(11)
    check_ecs_observable(ecs_for(decomp, 0b100110), rng)
    probe = np.random.default_rng(11)
    for _ in range(CHECK_TRIALS):
        probe.integers(1 << 6)
    assert rng.bit_generator.state == probe.bit_generator.state


# --- sparse lightcone columns and bit packing ---------------------------------------

def _embedded_block(op):
    """Dense matrix of a LocalOperator: its block on the support, identity
    elsewhere, built entry by entry from bit positions."""
    n, support = op.n, list(op.support)
    rest = [q for q in range(n) if q not in support]
    bits = _bits.index_to_bits(np.arange(1 << n), n)
    local = _bits.bits_to_index(bits[:, support])
    same_rest = np.all(bits[:, None, rest] == bits[None, :, rest], axis=-1)
    return np.where(same_rest, op.block[local[:, None], local[None, :]], 0.0)


def test_local_operator_columns_are_sparse_and_exact():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        decomp = random_family_instance(CONSTANT_DEPTH, 7, rng, depth=3)
        for j in range(7):
            op = local_z_operator(decomp.v_block, j)
            dense_width = int(np.max(
                np.count_nonzero(np.abs(op.block) > 1e-12, axis=0)))
            xs = _bits.index_to_bits(rng.integers(0, 1 << 7, 20), 7)
            betas, gammas = op.columns_bits(xs)
            assert betas.shape == (20, op.sparsity)
            assert gammas.shape == (20, op.sparsity, 7)
            assert op.sparsity == dense_width <= 1 << len(op.support)
            np.testing.assert_allclose(
                dense_from_columns(op), _embedded_block(op), atol=1e-12)


def test_product_width_is_product_of_factor_sparsities():
    rng = np.random.default_rng(21)
    decomp = random_family_instance(CONSTANT_DEPTH, 7, rng, depth=3)
    for mask in (0b1100000, 0b0101010, 0b1000011):
        op = ecs_for(decomp, mask)
        assert isinstance(op, EcsProduct)
        betas, gammas = op.columns_bits(
            _bits.index_to_bits(rng.integers(0, 1 << 7, 5), 7))
        widths = [f.sparsity for f in op.factors]
        assert betas.shape[1] == gammas.shape[1] == int(np.prod(widths))
        assert op.sparsity == int(np.prod(widths))


@pytest.mark.parametrize("n", [1, 12, 62])
def test_bits_to_index_round_trips(n):
    rng = np.random.default_rng(n)
    for shape in [(), (9,), (4, 5)]:
        index = rng.integers(0, 1 << n, size=shape, dtype=np.int64)
        bits = _bits.index_to_bits(index, n)
        assert bits.shape == shape + (n,)
        packed = _bits.bits_to_index(bits)
        assert np.shape(packed) == shape
        np.testing.assert_array_equal(packed, index)
    top = np.int64((1 << n) - 1)
    assert _bits.bits_to_index(_bits.index_to_bits(top, n)) == top


def test_bits_to_index_rejects_wide_rows():
    with pytest.raises(ValueError, match="at most"):
        _bits.bits_to_index(np.zeros((2, _bits.MAX_PACKED_BITS + 1), np.uint8))
