import numpy as np
import pytest
from scipy import stats

from ctecs import (
    CONSTANT_DEPTH, FAMILIES, Circuit, ProductState, PhaseState, ValidationError,
    ct_state_of, ecs_for, random_family_instance)
from ctecs import _bits, oracle
from ctecs.circuits import (
    DyadicAngle, build_conjugated_clifford, ccz, cz, gate_matrix, h,
    random_clifford_gates, rx, rz, s, t, z)


def all_amplitudes(state):
    bits = _bits.index_to_bits(np.arange(1 << state.n), state.n)
    return state.amplitudes(bits)


def amplitude(state, x) -> complex:
    """<x|phi> for a bitstring or an integer index x."""
    if isinstance(x, str):
        return complex(state.amplitudes(_bits.string_to_bits(x)))
    return complex(state.amplitudes(_bits.index_to_bits(x, state.n)))


def test_product_state_requires_normalized_pairs():
    with pytest.raises(ValidationError):
        ProductState(np.array([1.0]), np.array([1.0]))


def test_zero_state_amplitudes():
    state = ProductState.zero(3)
    assert amplitude(state, "000") == 1.0
    for ix in range(1, 8):
        assert amplitude(state, ix) == 0.0


def test_plus_state_with_cz_phase():
    state = PhaseState(ProductState.plus(2), (cz(0, 1),))
    assert amplitude(state, "11") == pytest.approx(-0.5)
    assert amplitude(state, "01") == pytest.approx(0.5)


def test_th_zero_amplitude_matches_dense_product():
    mat = gate_matrix(t(0)) @ gate_matrix(h(0))
    state = ct_state_of(Circuit(1, (h(0), t(0))))
    assert amplitude(state, "1") == pytest.approx(complex(mat[1, 0]))
    # equal to e^{i pi/4}/sqrt(2) up to the rotation-form global phase
    assert abs(amplitude(state, "1")) == pytest.approx(1 / np.sqrt(2))
    ratio = amplitude(state, "1") / amplitude(state, "0")
    assert ratio == pytest.approx(np.exp(1j * np.pi / 4))


def test_amplitude_rejects_wrong_length():
    with pytest.raises(ValidationError):
        amplitude(ProductState.zero(3), "0101")


@pytest.mark.parametrize("n", [2, 6, 12])
def test_born_normalization_dense(n):
    rng = np.random.default_rng(n)
    angles = rng.uniform(0, 2 * np.pi, n)
    phases = rng.uniform(0, 2 * np.pi, n)
    state = ProductState(np.cos(angles), np.sin(angles) * np.exp(1j * phases))
    total = np.sum(np.abs(all_amplitudes(state)) ** 2)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_sample_zero_state_is_constant():
    state = ProductState.zero(4)
    samples = state.sample_bits(np.random.default_rng(0), 100)
    assert not samples.any()


def test_sample_plus_state_frequencies():
    state = ProductState.plus(3)
    draws = 100_000
    samples = state.sample_bits(np.random.default_rng(1), draws)
    freq = samples.mean(axis=0)
    sigma = 0.5 / np.sqrt(draws)
    assert np.all(np.abs(freq - 0.5) < 3 * sigma + 1e-12)


def test_sample_rotated_product_state_chi_square():
    n, draws = 4, 100_000
    u = Circuit(n, tuple(rx(q, 1, 3) for q in range(n))
                + tuple(rz(q, -1, 2) for q in range(n)))
    state = ct_state_of(u)
    probs = np.abs(oracle.simulate_state(u)) ** 2
    samples = state.sample_bits(np.random.default_rng(2), draws)
    counts = np.bincount(_bits.bits_to_index(samples), minlength=1 << n)
    result = stats.chisquare(counts, probs * draws)
    assert result.pvalue > 1e-3


def test_phase_state_unit_modulus_ratio_and_same_born_law():
    rng = np.random.default_rng(5)
    base = ProductState.plus(4)
    diag = (z(0), s(1), t(2), rz(3, -1, 4), cz(0, 2), ccz(1, 2, 3))
    state = PhaseState(base, diag)
    bits = _bits.index_to_bits(np.arange(16), 4)
    ratios = state.amplitudes(bits) / base.amplitudes(bits)
    np.testing.assert_allclose(np.abs(ratios), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        np.abs(state.amplitudes(bits)) ** 2, np.abs(base.amplitudes(bits)) ** 2,
        atol=1e-12)


def test_phase_state_rejects_non_diagonal():
    with pytest.raises(ValidationError):
        PhaseState(ProductState.plus(2), (h(0),))


# --- ct_state_of ------------------------------------------------------------------

def test_ct_state_of_h_layer_is_plus():
    state = ct_state_of(Circuit(3, tuple(h(q) for q in range(3))))
    np.testing.assert_allclose(
        all_amplitudes(state), np.full(8, 1 / np.sqrt(8)), atol=1e-12)


def test_ct_state_of_identity_is_zero_state():
    state = ct_state_of(Circuit(2, ()))
    np.testing.assert_allclose(all_amplitudes(state), [1, 0, 0, 0], atol=1e-15)


def test_ct_state_of_diagonal_block_matches_dense():
    u = Circuit(3, tuple(h(q) for q in range(3)) + (z(0), ccz(0, 1, 2)))
    state = ct_state_of(u)
    np.testing.assert_allclose(
        all_amplitudes(state), oracle.simulate_state(u), atol=1e-12)


def test_ct_state_of_random_family_u_blocks_match_dense():
    from ctecs import FAMILIES, random_family_instance

    for family in FAMILIES:
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 4
            decomp = random_family_instance(family, n, rng)
            state = ct_state_of(decomp.u_block)
            np.testing.assert_allclose(
                all_amplitudes(state), oracle.simulate_state(decomp.u_block),
                atol=1e-12)


def test_ct_state_of_rejects_entangling_prefix():
    with pytest.raises(ValidationError):
        ct_state_of(Circuit(2, (cz(0, 1), h(0))))


# --- phase kernel and product tables against per-gate references ---------------------

def _reference_phases(diagonal, bits):
    """Per-gate complex product, Rz(theta)|x> = exp(i theta (x - 1/2))|x>."""
    phase = np.ones(bits.shape[:-1], dtype=complex)
    for gate in diagonal:
        on = np.all(bits[..., list(gate.qubits)] > 0, axis=-1)
        if gate.kind in ("Z", "CZ", "CCZ"):
            phase = phase * np.where(on, -1.0, 1.0)
            continue
        if gate.kind == "S":
            theta = np.pi / 2
        elif gate.kind == "T":
            theta = np.pi / 4
        else:
            theta = np.ldexp(gate.angle.sign * 2 * np.pi, -gate.angle.t)
        phase = phase * np.exp(1j * theta * (on - 0.5))
    return phase


def _random_rows(rng, count, n):
    return (rng.random((count, n)) < 0.5).astype(np.uint8)


def test_phases_match_per_gate_reference_for_every_kind():
    rng = np.random.default_rng(11)
    n = 6
    gates = [z(0), s(1), t(2), cz(3, 4), ccz(0, 2, 5), rz(5, 1, 70)]
    for exponent in range(1, 9):
        for sign in (1, -1):
            gates.append(rz(int(rng.integers(n)), sign, exponent))
    bits = _random_rows(rng, 500, n)
    for gate in gates:
        state = PhaseState(ProductState.plus(n), (gate,))
        np.testing.assert_allclose(
            state.phases(bits), _reference_phases((gate,), bits), atol=1e-12)
    state = PhaseState(ProductState.plus(n), gates)
    np.testing.assert_allclose(
        state.phases(bits), _reference_phases(gates, bits), atol=1e-12)
    # a t = 70 rotation is below float resolution next to 1, so its sign
    # shows only in the imaginary part
    tiny = (rz(5, -1, 70),)
    np.testing.assert_allclose(
        PhaseState(ProductState.plus(n), tiny).phases(bits).imag,
        _reference_phases(tiny, bits).imag, rtol=1e-9)


def test_phases_match_reference_on_a_500_gate_mix():
    # rotations with 12 < t <= 20 take the float route beside the lookup table
    rng = np.random.default_rng(12)
    n = 10
    makers = [
        lambda q: z(q[0]), lambda q: s(q[0]), lambda q: t(q[0]),
        lambda q: cz(q[0], q[1]), lambda q: ccz(q[0], q[1], q[2]),
        lambda q: rz(q[0], int(rng.choice([-1, 1])), int(rng.integers(1, 21))),
    ]
    gates = [makers[rng.integers(len(makers))](rng.permutation(n)[:3])
             for _ in range(500)]
    state = PhaseState(ProductState.plus(n), gates)
    bits = _random_rows(rng, 2000, n)
    np.testing.assert_allclose(
        state.phases(bits), _reference_phases(gates, bits), atol=1e-12)
    # leading batch dimensions are kept
    np.testing.assert_allclose(
        state.phases(bits.reshape(40, 50, n)),
        _reference_phases(gates, bits).reshape(40, 50), atol=1e-12)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
def test_product_amplitudes_across_byte_boundaries(n):
    rng = np.random.default_rng(n)
    angles = rng.uniform(0, 2 * np.pi, n)
    amp0 = np.cos(angles)
    amp1 = np.sin(angles) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    state = ProductState(amp0, amp1)
    bits = _random_rows(rng, 300, n)
    want = np.array([
        np.prod([amp1[j] if row[j] else amp0[j] for j in range(n)])
        for row in bits])
    np.testing.assert_allclose(state.amplitudes(bits), want, atol=1e-12)
    np.testing.assert_allclose(
        state.amplitudes(bits.reshape(3, 100, n)), want.reshape(3, 100),
        atol=1e-12)


def test_amplitudes_reject_wrong_width_and_read_nonzero_as_one():
    rng = np.random.default_rng(13)
    state = PhaseState(ProductState.plus(8), (t(0), cz(1, 7), rz(3, -1, 5)))
    for width in (7, 12):
        with pytest.raises(ValidationError):
            state.base.amplitudes(np.zeros((4, width), dtype=np.uint8))
        with pytest.raises(ValidationError):
            state.phases(np.zeros((4, width), dtype=np.uint8))
    bits = _random_rows(rng, 50, 8)
    scaled = bits * rng.integers(1, 5, bits.shape)
    np.testing.assert_array_equal(state.amplitudes(scaled), state.amplitudes(bits))


# --- the fold and amplitude ratios ---------------------------------------------------

def _unfolded(u_block):
    """U|0^n> with only the gates up to the last non-diagonal one composed
    into the wires, and every later gate left to the phase kernel."""
    gates = u_block.gates
    split = max((i + 1 for i, g in enumerate(gates) if not g.is_diagonal),
                default=0)
    mats = [np.eye(2, dtype=complex) for _ in range(u_block.n)]
    for gate in gates[:split]:
        mats[gate.qubits[0]] = gate_matrix(gate) @ mats[gate.qubits[0]]
    base = ProductState(np.array([m[0, 0] for m in mats]),
                        np.array([m[1, 0] for m in mats]))
    return PhaseState(base, gates[split:])


def _family_instances():
    for family in FAMILIES:
        for seed in range(4):
            yield random_family_instance(
                family, 3 + seed, np.random.default_rng(40 + seed))
    # pi/4 rotations: each conjugated Z is a three-term Pauli combination
    yield build_conjugated_clifford(
        6, DyadicAngle(1, 3), DyadicAngle(-1, 3),
        random_clifford_gates(np.random.default_rng(3), 6, 18))


def test_fold_keeps_only_multi_qubit_gates_and_the_amplitudes():
    for decomp in _family_instances():
        folded, unfolded = ct_state_of(decomp.u_block), _unfolded(decomp.u_block)
        assert all(len(gate.qubits) > 1 for gate in folded.diagonal)
        assert ([g for g in folded.diagonal]
                == [g for g in unfolded.diagonal if len(g.qubits) > 1])
        np.testing.assert_allclose(
            all_amplitudes(folded), all_amplitudes(unfolded), rtol=0, atol=1e-12)
        for seed in range(3):
            assert (folded.sample_bits(np.random.default_rng(seed), 2000).tobytes()
                    == unfolded.sample_bits(np.random.default_rng(seed), 2000)
                    .tobytes())


def _assert_ratios_are_quotients(state, rows, gammas, qubits):
    got = state.amplitude_ratios(rows, gammas, qubits)
    want = state.amplitudes(gammas) / state.amplitudes(rows)[:, None]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    return got


def test_ratios_are_amplitude_quotients_for_every_family():
    zero_ratios = 0
    for decomp in _family_instances():
        n = decomp.n
        state = ct_state_of(decomp.u_block)
        rows = state.sample_bits(np.random.default_rng(n), 300)
        for mask in _bits.masks_up_to_weight(n, 2)[1:]:
            op = ecs_for(decomp, mask)
            _, gammas = op.columns_bits(rows)
            qubits = _bits.mask_to_qubits(op.flip_mask, n)
            # rows differ from their column only on the flip mask
            outside = np.setdiff1d(np.arange(n), qubits)
            assert not (gammas[..., outside] ^ rows[:, None, outside]).any()
            got = _assert_ratios_are_quotients(state, rows, gammas, qubits)
            if decomp.family == CONSTANT_DEPTH:
                # |0^n>: a flipped qubit has amplitude 0
                flipped = (gammas != rows[:, None, :]).any(axis=-1)
                assert np.all(got[flipped] == 0) and np.all(got[~flipped] == 1)
                zero_ratios += flipped.sum()
    assert zero_ratios > 0


def test_ratios_with_one_qubit_and_fine_rotations_in_the_kernel():
    rng = np.random.default_rng(14)
    n = 6
    angles = rng.uniform(0.2, 1.3, n)
    base = ProductState(np.cos(angles),
                        np.sin(angles) * np.exp(1j * rng.uniform(0, 6, n)))
    diagonal = (rz(0, 1, 20), rz(2, -1, 13), rz(0, 1, 5), z(2), s(1), t(3),
                cz(0, 1), cz(2, 5), ccz(1, 2, 3))
    state = PhaseState(base, diagonal)
    rows = (rng.random((400, n)) < 0.5).astype(np.uint8)
    for qubits in [(0,), (2,), (0, 2), (1, 3, 4), ()]:
        gammas = np.repeat(rows[:, None, :], 3, axis=1)
        flips = (rng.random((400, 3, len(qubits))) < 0.5).astype(np.uint8)
        gammas[..., list(qubits)] ^= flips
        _assert_ratios_are_quotients(state, rows, gammas, qubits)
        _assert_ratios_are_quotients(base, rows, gammas, qubits)
    # the same gates after an H layer, folded: rotations of t = 13 and 20 on wires
    u = Circuit(n, tuple(h(q) for q in range(n)) + diagonal)
    folded = ct_state_of(u)
    assert len(folded.diagonal) == 3
    gammas = rows[:, None, :] ^ np.array([[1, 0, 1, 0, 0, 0]], dtype=np.uint8)
    _assert_ratios_are_quotients(folded, rows, gammas, (0, 2))
    np.testing.assert_allclose(
        all_amplitudes(folded), oracle.simulate_state(u), atol=1e-12)
