import json

import numpy as np
import pytest

from ctecs import (
    CLIFFORD_MAGIC,
    CONJUGATED_CLIFFORD,
    FAMILIES,
    IQP,
    Circuit,
    CtEcsDecomposition,
    DyadicAngle,
    Gate,
    ValidationError,
    build_clifford_magic,
    build_conjugated_clifford,
    build_constant_depth,
    build_iqp,
    decompose_to_gate_set,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    random_family_instance,
)
from ctecs import oracle
from ctecs.circuits import (
    GATE_SET_KINDS,
    IqpParams,
    ccz,
    cz,
    gate_matrix,
    h,
    rx,
    rz,
    s,
    t,
    x,
    y,
    z,
)


def test_dyadic_angle_value():
    assert DyadicAngle(1, 1).radians == pytest.approx(np.pi)
    assert DyadicAngle(-1, 2).radians == pytest.approx(-np.pi / 2)
    with pytest.raises(ValidationError):
        DyadicAngle(1, 0)
    with pytest.raises(ValidationError):
        DyadicAngle(2, 1)


def test_gate_validation():
    with pytest.raises(ValidationError):
        Gate("CZ", (1, 1))
    with pytest.raises(ValidationError):
        Gate("H", (0, 1))
    with pytest.raises(ValidationError):
        Gate("H", (0,), DyadicAngle(1, 1))
    with pytest.raises(ValidationError):
        Gate("RX", (0,))
    with pytest.raises(ValidationError):
        Gate("NOPE", (0,))


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(ValidationError):
        Circuit(2, (ccz(0, 1, 2),))


def test_s_and_t_are_their_rotation_forms():
    np.testing.assert_allclose(gate_matrix(s(0)), gate_matrix(rz(0, 1, 2)), atol=1e-15)
    np.testing.assert_allclose(gate_matrix(t(0)), gate_matrix(rz(0, 1, 3)), atol=1e-15)


@pytest.mark.parametrize("gate", [h(0), x(0), y(0), z(0), s(0), t(0), ccz(0, 1, 2)])
def test_gate_set_decomposition_matches_up_to_phase(gate):
    n = max(gate.qubits) + 1
    seq = decompose_to_gate_set(gate)
    assert all(g.kind in ("RX", "RZ", "CZ") for g in seq)
    orig = oracle.circuit_unitary(Circuit(n, (gate,)))
    dec = oracle.circuit_unitary(Circuit(n, seq))
    k = np.argmax(np.abs(orig))
    phase = dec.flat[k] / orig.flat[k]
    assert abs(abs(phase) - 1.0) <= 1e-12
    np.testing.assert_allclose(orig * phase, dec, rtol=0, atol=1e-12)


def test_gate_set_membership_of_rotations():
    assert {"RX", "RZ", "S", "T", "CZ"} == set(GATE_SET_KINDS)


# --- depth -------------------------------------------------------------------

def test_depth_single_layer_of_disjoint_gates_is_one():
    circuit = Circuit(4, (h(0), h(1), cz(2, 3)))
    assert circuit.depth() == 1


def test_depth_layered_example():
    circuit = Circuit(4, (cz(0, 1), cz(2, 3), cz(1, 2)))
    assert circuit.depth() == 2


def test_depth_monotone_under_appending():
    rng = np.random.default_rng(0)
    circuit = Circuit(4, ())
    last = 0
    for _ in range(30):
        q = int(rng.integers(4))
        circuit = Circuit(4, circuit.gates + (h(q),))
        d = circuit.depth()
        assert d >= last
        assert 1 <= d <= circuit.size
        last = d


# --- IQP ---------------------------------------------------------------------

def test_iqp_empty_diagonal_is_identity():
    decomp = build_iqp(1, [])
    unitary = oracle.circuit_unitary(decomp.circuit)
    np.testing.assert_allclose(unitary, np.eye(2), atol=1e-12)


def test_iqp_rejects_non_diagonal_gates():
    with pytest.raises(ValidationError):
        build_iqp(2, [h(0)])


def test_iqp_cz_output_distribution_two_routes_agree():
    decomp = build_iqp(2, [cz(0, 1)])
    p_state = oracle.output_distribution(decomp.circuit).p
    unitary = oracle.circuit_unitary(decomp.circuit)
    p_matrix = np.abs(unitary[:, 0]) ** 2
    np.testing.assert_allclose(p_state, p_matrix, atol=1e-12)


def test_iqp_ccz_conjugation_gives_x():
    from conftest import dense_conjugated_z

    decomp = build_iqp(3, [ccz(0, 1, 2)])
    for j in range(3):
        got = dense_conjugated_z(decomp.v_block, 1 << (2 - j))
        want = oracle.circuit_unitary(Circuit(3, (x(j),)))
        np.testing.assert_allclose(got, want, atol=1e-12)


# --- Clifford magic ------------------------------------------------------------

def test_clifford_magic_single_qubit_state():
    decomp = build_clifford_magic(1, [])
    amps = oracle.simulate_state(decomp.u_block)
    want = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
    # equal up to a global phase: the overlap of two unit vectors has modulus 1
    assert abs(np.vdot(amps, want)) == pytest.approx(1.0, abs=1e-12)
    # and exactly the dense 2x2 product including the rotation phase
    direct = gate_matrix(t(0)) @ gate_matrix(h(0)) @ np.array([1.0, 0.0])
    np.testing.assert_allclose(amps, direct, atol=1e-12)


def test_clifford_magic_rejects_t_gate_in_block():
    with pytest.raises(ValidationError):
        build_clifford_magic(2, [t(0)])


def test_clifford_magic_h_conjugation():
    from conftest import dense_conjugated_z

    decomp = build_clifford_magic(2, [h(0)])
    got = dense_conjugated_z(decomp.v_block, 0b10)
    want = oracle.circuit_unitary(Circuit(2, (x(0),)))
    np.testing.assert_allclose(got, want, atol=1e-12)


def _is_signed_pauli_matrix(mat: np.ndarray, tol: float = 1e-9) -> bool:
    # one nonzero per column, unit modulus, phase in {1, -1, i, -i}
    for col in mat.T:
        hot = np.abs(col) > tol
        if hot.sum() != 1:
            return False
        val = col[hot][0]
        if abs(abs(val) - 1.0) > tol:
            return False
        if min(abs(val - target) for target in (1, -1, 1j, -1j)) > tol:
            return False
    return True


def test_clifford_magic_random_conjugations_are_signed_paulis():
    from conftest import dense_conjugated_z

    for seed in range(20):
        rng = np.random.default_rng(seed)
        decomp = random_family_instance(CLIFFORD_MAGIC, 4, rng)
        for j in range(4):
            mat = dense_conjugated_z(decomp.v_block, 1 << (3 - j))
            assert _is_signed_pauli_matrix(mat)


# --- conjugated Clifford ---------------------------------------------------------

def test_conjugated_clifford_inverse_pair_reduces_to_clifford():
    from conftest import dense_conjugated_z

    pair = (DyadicAngle(1, 1), DyadicAngle(-1, 1))
    decomp = build_conjugated_clifford(2, pair, pair, [h(0), cz(0, 1)])
    for j in range(2):
        mat = dense_conjugated_z(decomp.v_block, 1 << (1 - j))
        assert _is_signed_pauli_matrix(mat)


def test_conjugated_clifford_theta_half_pi_gives_minus_y():
    pair = (DyadicAngle(1, 1), DyadicAngle(-1, 1))
    decomp = build_conjugated_clifford(1, pair, DyadicAngle(1, 2), [])
    from conftest import dense_conjugated_z

    got = dense_conjugated_z(decomp.v_block, 1)
    np.testing.assert_allclose(got, -gate_matrix(y(0)), atol=1e-12)


def test_conjugated_clifford_random_matches_dense():
    # the ecs module reproduces dense V^dag Z_j V; checked in test_ecs too
    from conftest import dense_conjugated_z
    from ctecs import ecs_for
    from ctecs.ecs import dense_from_columns

    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        decomp = random_family_instance(CONJUGATED_CLIFFORD, 3, rng)
        for j in range(3):
            mask = 1 << (2 - j)
            want = dense_conjugated_z(decomp.v_block, mask)
            got = dense_from_columns(ecs_for(decomp, mask))
            np.testing.assert_allclose(got, want, atol=1e-9)


# --- constant depth ---------------------------------------------------------------

def test_constant_depth_rejects_deep_circuits():
    circuit = Circuit(2, (h(0), h(0), h(0)))
    with pytest.raises(ValidationError):
        build_constant_depth(circuit, 2)
    decomp = build_constant_depth(circuit, 3)
    assert decomp.u_block.size == 0
    assert decomp.v_block is circuit


def test_constant_depth_empty_circuit_conjugation_is_z():
    from conftest import dense_conjugated_z, dense_z_string

    decomp = build_constant_depth(Circuit(2, ()), 1)
    for mask in (0b10, 0b01):
        np.testing.assert_allclose(
            dense_conjugated_z(decomp.v_block, mask),
            dense_z_string(mask, 2), atol=1e-12)


# --- random instances ---------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_random_instance_deterministic_in_seed(family):
    a = random_family_instance(family, 5, np.random.default_rng(7))
    b = random_family_instance(family, 5, np.random.default_rng(7))
    assert a == b


def test_random_iqp_alpha_survey_reports_mean():
    alphas = []
    for seed in range(100):
        decomp = random_family_instance(IQP, 8, np.random.default_rng(seed))
        p = oracle.output_distribution(decomp.circuit)
        alphas.append(oracle.anti_concentration_alpha(p))
    mean = float(np.mean(alphas))
    # no fixed target; the measured range just has to be sane
    assert 1.0 - 1e-9 <= min(alphas) and max(alphas) <= 2 ** 8
    assert 1.0 < mean < 2 ** 8


def _defining_circuit(decomp) -> Circuit:
    """The family's defining gate sequence, built independently here."""
    n = decomp.n
    params = decomp.params
    if decomp.family == IQP:
        layer = tuple(h(q) for q in range(n))
        return Circuit(n, layer + params.diagonal + layer)
    if decomp.family == CLIFFORD_MAGIC:
        return Circuit(
            n,
            tuple(h(q) for q in range(n)) + tuple(t(q) for q in range(n))
            + params.clifford)
    if decomp.family == CONJUGATED_CLIFFORD:
        gates = []
        for a in params.theta:
            gates.extend(rx(q, a.sign, a.t) for q in range(n))
        for a in params.phi:
            gates.extend(rz(q, a.sign, a.t) for q in range(n))
        gates.extend(params.clifford)
        for a in reversed(params.phi):
            gates.extend(rz(q, -a.sign, a.t) for q in range(n))
        for a in reversed(params.theta):
            gates.extend(rx(q, -a.sign, a.t) for q in range(n))
        return Circuit(n, tuple(gates))
    return decomp.v_block


@pytest.mark.parametrize("family", FAMILIES)
def test_decomposition_matches_defining_form(family):
    for seed in range(56):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 7
        decomp = random_family_instance(family, n, rng)
        composed = oracle.circuit_unitary(decomp.circuit)
        defining = oracle.circuit_unitary(_defining_circuit(decomp))
        np.testing.assert_allclose(composed, defining, atol=1e-9)


def test_compose_rejects_width_mismatch():
    # the full circuit of a decomposition is U then V; blocks of two widths
    # never make one
    with pytest.raises(ValidationError):
        CtEcsDecomposition(IQP, 2, Circuit(2, ()), Circuit(3, ()), IqpParams(()))


# --- JSON ----------------------------------------------------------------------------

def test_circuit_json_roundtrip():
    circuit = Circuit(3, (h(0), rx(1, -1, 3), cz(0, 2), ccz(0, 1, 2), t(2)))
    data = json.loads(json.dumps(circuit.to_json_dict()))
    assert Circuit.from_json_dict(data) == circuit


@pytest.mark.parametrize("family", FAMILIES)
def test_family_json_roundtrip(family):
    decomp = random_family_instance(family, 4, np.random.default_rng(3))
    data = json.loads(json.dumps(decomposition_to_json_dict(decomp)))
    assert decomposition_from_json_dict(data) == decomp


def test_json_rejects_non_dyadic_angles():
    with pytest.raises(ValidationError):
        Circuit.from_json_dict(
            {"n": 1, "gates": [{"g": "RZ", "q": [0], "sign": 1, "t": 0}]})
    with pytest.raises(ValidationError):
        Circuit.from_json_dict(
            {"n": 1, "gates": [{"g": "RX", "q": [0], "sign": 3, "t": 2}]})
