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
    diag = (z(0), s(1), t(2), rz(3, -1, 4), cz(0, 2), ccz(1, 2, 3))
    bits = _all_rows(4)
    state = _assert_h_layer_matches_reference(4, diag, bits)
    plus = ProductState.plus(4)
    ratios = state.amplitudes(bits) / plus.amplitudes(bits)
    np.testing.assert_allclose(np.abs(ratios), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        np.abs(state.amplitudes(bits)) ** 2, np.abs(plus.amplitudes(bits)) ** 2,
        atol=1e-12)


def test_phase_state_rejects_non_diagonal():
    for gate in (h(0), z(0), s(1), t(0), rz(1, -1, 5)):
        with pytest.raises(ValidationError):
            PhaseState(ProductState.plus(2), (gate,))
    with pytest.raises(ValidationError):
        PhaseState(ProductState.plus(2), (cz(0, 2),))


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


# --- phases and product tables against per-gate references ---------------------------

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


def _all_rows(n):
    return _bits.index_to_bits(np.arange(1 << n), n)


def _h_layer_then(n, gates):
    return Circuit(n, tuple(h(q) for q in range(n)) + tuple(gates))


def _assert_h_layer_matches_reference(n, gates, bits):
    """ct_state_of an H layer followed by diagonal ``gates``: its
    amplitudes are 2**(-n/2) times the per-gate phases, and all of them
    are the dense state's.  Returns the state."""
    u = _h_layer_then(n, gates)
    state = ct_state_of(u)
    np.testing.assert_allclose(
        state.amplitudes(bits) * 2 ** (n / 2), _reference_phases(gates, bits),
        atol=1e-12)
    np.testing.assert_allclose(
        all_amplitudes(state), oracle.simulate_state(u), atol=1e-12)
    return state


def test_phases_match_per_gate_reference_for_every_kind():
    rng = np.random.default_rng(11)
    n = 6
    gates = [z(0), s(1), t(2), cz(3, 4), ccz(0, 2, 5), rz(5, 1, 70)]
    for exponent in range(1, 21):
        for sign in (1, -1):
            gates.append(rz(int(rng.integers(n)), sign, exponent))
    bits = _random_rows(rng, 500, n)
    for gate in gates:
        _assert_h_layer_matches_reference(n, (gate,), bits)
    state = _assert_h_layer_matches_reference(n, gates, bits)
    np.testing.assert_allclose(
        state.phases(bits),
        _reference_phases([g for g in gates if len(g.qubits) > 1], bits), atol=0)
    # a t = 70 rotation is below float resolution next to 1, so its sign
    # shows only in the imaginary part
    tiny = (rz(5, -1, 70),)
    np.testing.assert_allclose(
        ct_state_of(_h_layer_then(n, tiny)).amplitudes(bits).imag * 2 ** (n / 2),
        _reference_phases(tiny, bits).imag, rtol=1e-9)


def test_phases_match_reference_on_a_500_gate_mix():
    rng = np.random.default_rng(12)
    n = 10
    makers = [
        lambda q: z(q[0]), lambda q: s(q[0]), lambda q: t(q[0]),
        lambda q: cz(q[0], q[1]), lambda q: ccz(q[0], q[1], q[2]),
        lambda q: rz(q[0], int(rng.choice([-1, 1])), int(rng.integers(1, 21))),
    ]
    gates = [makers[rng.integers(len(makers))](rng.permutation(n)[:3])
             for _ in range(500)]
    bits = _random_rows(rng, 2000, n)
    state = _assert_h_layer_matches_reference(n, gates, bits)
    # the folded state's phases are the CZ/CCZ signs; leading batch
    # dimensions are kept
    signs = _reference_phases([g for g in gates if len(g.qubits) > 1], bits)
    np.testing.assert_array_equal(state.phases(bits), signs.real)
    np.testing.assert_array_equal(
        state.phases(bits.reshape(40, 50, n)), signs.real.reshape(40, 50))


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
    state = ct_state_of(_h_layer_then(8, (t(0), cz(1, 7), rz(3, -1, 5))))
    for width in (7, 12):
        with pytest.raises(ValidationError):
            state.base.amplitudes(np.zeros((4, width), dtype=np.uint8))
        with pytest.raises(ValidationError):
            state.phases(np.zeros((4, width), dtype=np.uint8))
    bits = _random_rows(rng, 50, 8)
    scaled = bits * rng.integers(1, 5, bits.shape)
    np.testing.assert_array_equal(state.amplitudes(scaled), state.amplitudes(bits))


# --- the fold and amplitude ratios ---------------------------------------------------

def _split(u_block):
    """Index just past the last non-diagonal gate of ``u_block``."""
    return max((i + 1 for i, g in enumerate(u_block.gates) if not g.is_diagonal),
               default=0)


def _prefix_state(u_block):
    """The product state of the gates up to the last non-diagonal one; the
    diagonal rest only changes phases, so its Born law is U|0^n>'s."""
    mats = [np.eye(2, dtype=complex) for _ in range(u_block.n)]
    for gate in u_block.gates[:_split(u_block)]:
        mats[gate.qubits[0]] = gate_matrix(gate) @ mats[gate.qubits[0]]
    return ProductState(np.array([m[0, 0] for m in mats]),
                        np.array([m[1, 0] for m in mats]))


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
        u = decomp.u_block
        folded, prefix = ct_state_of(u), _prefix_state(u)
        assert all(len(gate.qubits) > 1 for gate in folded.diagonal)
        assert ([g for g in folded.diagonal]
                == [g for g in u.gates[_split(u):] if len(g.qubits) > 1])
        np.testing.assert_allclose(
            all_amplitudes(folded), oracle.simulate_state(u), rtol=0, atol=1e-12)
        for seed in range(3):
            assert (folded.sample_bits(np.random.default_rng(seed), 2000).tobytes()
                    == prefix.sample_bits(np.random.default_rng(seed), 2000)
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


def _flipped_rows(rng, rows, qubits, width=3):
    """``width`` copies of each row with random flips on ``qubits``."""
    gammas = np.repeat(rows[:, None, :], width, axis=1)
    flips = (rng.random((len(rows), width, len(qubits))) < 0.5).astype(np.uint8)
    gammas[..., list(qubits)] ^= flips
    return gammas


def test_ratios_with_one_qubit_and_fine_rotations_in_the_kernel():
    # one-qubit phases, rotations of t = 13 and 20 among them, fold into
    # the wires of a nontrivial product state (H then RX on every qubit)
    rng = np.random.default_rng(14)
    n = 6
    diagonal = (rz(0, 1, 20), rz(2, -1, 13), rz(0, 1, 5), z(2), s(1), t(3),
                cz(0, 1), cz(2, 5), ccz(1, 2, 3))
    u = Circuit(n, tuple(h(q) for q in range(n))
                + tuple(rx(q, 1 - 2 * (q % 2), 2 + q) for q in range(n)) + diagonal)
    state = ct_state_of(u)
    assert state.diagonal == diagonal[6:]
    np.testing.assert_allclose(
        all_amplitudes(state), oracle.simulate_state(u), atol=1e-12)
    rows = _random_rows(rng, 400, n)
    for qubits in [(0,), (2,), (0, 2), (1, 3, 4), ()]:
        gammas = _flipped_rows(rng, rows, qubits)
        _assert_ratios_are_quotients(state, rows, gammas, qubits)
        _assert_ratios_are_quotients(state.base, rows, gammas, qubits)
    # the same gates after an H layer alone, folded
    folded = _assert_h_layer_matches_reference(n, diagonal, _all_rows(n))
    gammas = rows[:, None, :] ^ np.array([[1, 0, 1, 0, 0, 0]], dtype=np.uint8)
    _assert_ratios_are_quotients(folded, rows, gammas, (0, 2))


def test_repeated_gates_on_one_qubit_set_cancel():
    rng = np.random.default_rng(15)
    n = 5
    angles = rng.uniform(0.2, 1.3, n)
    base = ProductState(np.cos(angles),
                        np.sin(angles) * np.exp(1j * rng.uniform(0, 6, n)))
    kept = (cz(2, 4), ccz(0, 1, 3))
    state = PhaseState(base, (cz(0, 1),) + kept + (cz(1, 0), ccz(3, 1, 0), ccz(0, 3, 1)))
    reference = PhaseState(base, kept)
    rows = _random_rows(rng, 300, n)
    np.testing.assert_array_equal(state.phases(rows), reference.phases(rows))
    for qubits in [(0,), (1,), (0, 1), (2, 3)]:
        gammas = _flipped_rows(rng, rows, qubits)
        got = _assert_ratios_are_quotients(state, rows, gammas, qubits)
        np.testing.assert_array_equal(
            got, reference.amplitude_ratios(rows, gammas, qubits))
    # flipping qubit 0 alone meets only the cancelled CZ and the CCZ
    gammas = rows[:, None, :] ^ np.array([[1, 0, 0, 0, 0]], dtype=np.uint8)
    np.testing.assert_array_equal(
        state.amplitude_ratios(rows, gammas, (0,)),
        base.amplitude_ratios(rows, gammas, (0,))
        * np.where(rows[:, None, 1] & rows[:, None, 3], -1, 1))


def test_gate_index_ratios_on_a_wide_register():
    # 62 qubits and 160 CZ/CCZ gates: a ratio reads only the gates that
    # touch its flipped qubits, at either end of the register
    rng = np.random.default_rng(16)
    n = 62
    angles = rng.uniform(0.5, 1.0, n)
    base = ProductState(np.cos(angles),
                        np.sin(angles) * np.exp(1j * rng.uniform(0, 6, n)))
    gates = tuple(
        cz(*rng.choice(n, 2, replace=False)) if k % 2 else
        ccz(*rng.choice(n, 3, replace=False)) for k in range(160))
    assert len({tuple(sorted(g.qubits)) for g in gates}) >= 100
    state = PhaseState(base, gates)
    rows = _random_rows(rng, 200, n)
    for ends in (range(0, 8), range(n - 8, n)):
        for size in range(1, 7):
            qubits = tuple(sorted(
                int(q) for q in rng.choice(ends, size, replace=False)))
            _assert_ratios_are_quotients(
                state, rows, _flipped_rows(rng, rows, qubits), qubits)
