"""Dense small-n ground truth: state vectors, exact output and noisy
distributions, Walsh transforms, noise-model algebra, and distance metrics.

Everything here is exponential-cost by design and guarded by fixed caps,
each checked before the work it guards: state-vector routines accept up to
``DENSE_CAP`` qubits (16 MiB complex vector), full-unitary routines up to
``UNITARY_CAP``; a wider register raises ``ResourceLimitError``.  The noisy
distribution is always computed by two independent routes (per-bit flip
convolution and Fourier attenuation) and cross-checked before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bits
from .circuits import (
    IQP,
    Circuit,
    CtEcsDecomposition,
    Gate,
    gate_matrix,
)
from .errors import ResourceLimitError, ValidationError
from .noise import NoiseSpec, attenuation_factors, flip_convolve

DENSE_CAP = 20
UNITARY_CAP = 10


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ResourceLimitError(
            f"{what} supports at most {cap} qubits, got {n}")


@dataclass(frozen=True)
class DistVector:
    """Dense probability vector over {0,1}^n, indexed big-endian (qubit 0
    is the most significant bit)."""

    n: int
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.shape != (1 << self.n,):
            raise ValidationError(f"expected 2**{self.n} probabilities, got {p.shape}")
        if p.min() < -1e-9:
            raise ValidationError(f"negative probability {p.min()}")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {p.sum()}, not 1")

    def to_json_dict(self) -> dict:
        return {"n": self.n, "p": [float(v) for v in self.p]}


def as_prob_array(dist) -> np.ndarray:
    return dist.p if isinstance(dist, DistVector) else np.asarray(dist, dtype=float)


# --- state-vector simulation --------------------------------------------------

def _apply_gate_tensor(state: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply one gate to a [2]*n (+ optional batch axis) tensor."""
    kind = gate.kind
    if kind in ("CZ", "CCZ"):
        idx: list = [slice(None)] * state.ndim
        for q in gate.qubits:
            idx[q] = 1
        state = state.copy()
        state[tuple(idx)] *= -1
        return state
    mat = gate_matrix(gate)
    if len(gate.qubits) == 1:
        q = gate.qubits[0]
        moved = np.moveaxis(state, q, -1)
        moved = moved @ mat.T
        return np.moveaxis(moved, -1, q)
    raise ValidationError(f"unsupported multi-qubit kind {kind!r}")


def simulate_state(circuit: Circuit) -> np.ndarray:
    """State vector of circuit|0^n> as a flat (2**n,) complex array."""
    n = circuit.n
    _check_cap(n, DENSE_CAP, "state-vector simulation")
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    for gate in circuit.gates:
        state = _apply_gate_tensor(state, gate, n)
    return state.reshape(-1)


def apply_circuit_to_matrix(circuit: Circuit, matrix: np.ndarray) -> np.ndarray:
    """Apply the circuit to every column of a (2**n, d) matrix."""
    n = circuit.n
    d = matrix.shape[1]
    state = matrix.reshape((2,) * n + (d,)).astype(complex)
    for gate in circuit.gates:
        state = _apply_gate_tensor(state, gate, n)
    return state.reshape(1 << n, d)


def _embedded_gate_matrix(gate: Gate, n: int) -> np.ndarray:
    """Full 2**n matrix of one gate, built by kron and axis permutation."""
    k = len(gate.qubits)
    mat = np.kron(gate_matrix(gate), np.eye(1 << (n - k), dtype=complex))
    # mat currently acts on qubit order (gate.qubits..., rest...); permute home
    order = list(gate.qubits) + [q for q in range(n) if q not in gate.qubits]
    perm = [order.index(q) for q in range(n)]
    tensor = mat.reshape((2,) * (2 * n))
    tensor = tensor.transpose(perm + [n + ax for ax in perm])
    return tensor.reshape(1 << n, 1 << n)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit from explicit per-gate kron products.

    Independent of ``simulate_state``'s gate application; used as one side
    of dual-route checks.
    """
    n = circuit.n
    _check_cap(n, UNITARY_CAP, "dense unitary construction")
    unitary = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        unitary = _embedded_gate_matrix(gate, n) @ unitary
    return unitary


def output_distribution(circuit: Circuit) -> DistVector:
    """Exact Born distribution p(x) = |<x|C|0^n>|**2."""
    amps = simulate_state(circuit)
    p = np.abs(amps) ** 2
    return DistVector(circuit.n, p / p.sum())


# --- Fourier transforms --------------------------------------------------------

def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalized transform g(s) = sum_x f(x) (-1)**(s.x)."""
    out = np.array(values, dtype=float, copy=True)
    size = out.shape[0]
    if size & (size - 1):
        raise ValidationError("length must be a power of two")
    h = 1
    while h < size:
        out = out.reshape(-1, 2, h)
        top = out[:, 0, :] + out[:, 1, :]
        bot = out[:, 0, :] - out[:, 1, :]
        out = np.stack([top, bot], axis=1)
        h *= 2
    return out.reshape(size)


def fourier_transform(dist) -> np.ndarray:
    """Coefficients f_hat(s) = (1/2**n) sum_x f(x) (-1)**(s.x)."""
    values = as_prob_array(dist)
    return walsh_hadamard(values) / len(values)


def inverse_fourier(coeffs: np.ndarray) -> np.ndarray:
    """f(x) = sum_s f_hat(s) (-1)**(s.x); exact inverse of fourier_transform."""
    return walsh_hadamard(coeffs)


# --- noise ---------------------------------------------------------------------

def apply_depolarizing_exact(dist, spec, *, n: int | None = None) -> DistVector:
    """Noisy output distribution, computed two ways and cross-checked.

    Route (i) flips each bit j with probability rates[j]/2; route (ii)
    attenuates Fourier coefficients by prod (1-rates[j])**s_j.  Both must
    agree to 1e-9 or an internal error is raised.  ``spec`` is a NoiseSpec
    (rates in the open interval) or a raw rate array, which may include
    the closed-interval limits 0 and 1 for sanity checks.
    """
    p = as_prob_array(dist)
    if n is None:
        n = int(np.log2(len(p)))
    if isinstance(spec, NoiseSpec):
        rates = spec.rates(n)
    else:
        rates = np.broadcast_to(np.asarray(spec, dtype=float), (n,))
        if rates.min() < 0.0 or rates.max() > 1.0:
            raise ValidationError("raw rates must lie in [0, 1]")
    by_flips, gap = depolarize_two_routes(p, rates)
    if gap > 1e-9:
        raise RuntimeError(
            "internal error: flip convolution and Fourier attenuation disagree")
    return DistVector(n, by_flips)


def depolarize_two_routes(p: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, float]:
    """The noisy distribution by per-bit flips, and its largest pointwise
    gap to the Fourier attenuation route."""
    by_flips = flip_convolve(p, rates)
    by_fourier = inverse_fourier(fourier_transform(p) * attenuation_factors(rates))
    return by_flips, float(np.max(np.abs(by_flips - by_fourier)))


def model_b_factorization_check(dist, eps_list) -> tuple[np.ndarray, np.ndarray]:
    """Direct model-B noise vs model-A at eps_min followed by residual flips.

    Returns (lhs, rhs): lhs applies per-qubit flips at eps_j/2 directly;
    rhs applies uniform flips at eps_min/2 and then the noise operators at
    delta_j = (eps_j - eps_min) / (1 - eps_min).
    """
    p = as_prob_array(dist)
    rates = np.asarray(eps_list, dtype=float)
    n = len(rates)
    lhs = flip_convolve(p, rates)
    eps_min = rates.min()
    deltas = (rates - eps_min) / (1.0 - eps_min)
    rhs = flip_convolve(flip_convolve(p, np.full(n, eps_min)), deltas)
    return lhs, rhs


def noisy_input_distribution_iqp(decomp: CtEcsDecomposition, eps_list) -> DistVector:
    """Output distribution when depolarizing noise hits the |0^n> inputs.

    Simulates the input noise literally: a mixture over basis states |y>
    with weight prod_j (1-eps_j/2)**(1-y_j) (eps_j/2)**y_j, each propagated
    through the full dense unitary.  Only valid for the IQP family.
    """
    if decomp.family != IQP:
        raise ValidationError("input-noise equivalence is defined for IQP only")
    n = decomp.n
    _check_cap(n, UNITARY_CAP, "input-noise simulation")
    rates = np.asarray(eps_list, dtype=float)
    if rates.shape == ():
        rates = np.full(n, float(rates))
    if len(rates) != n:
        raise ValidationError(f"expected {n} rates, got {len(rates)}")
    unitary = circuit_unitary(decomp.circuit)
    bits = _bits.index_to_bits(np.arange(1 << n), n).astype(float)
    weights = np.prod(
        np.where(bits > 0, rates / 2.0, 1.0 - rates / 2.0), axis=1)
    p = (np.abs(unitary) ** 2) @ weights
    return DistVector(n, p)


def anti_concentration_alpha(dist) -> float:
    """Measured alpha = 2**n * sum_x p(x)**2; 1 for uniform, 2**n for a point."""
    p = as_prob_array(dist)
    return float(len(p) * np.sum(p * p))


# --- metrics and marginals ------------------------------------------------------

def l1_distance(a, b) -> float:
    return float(np.abs(as_prob_array(a) - as_prob_array(b)).sum())


def empirical_distribution(samples: np.ndarray, n: int) -> DistVector:
    """Normalized counts of (num, n) bit-array samples."""
    idx = _bits.bits_to_index(np.asarray(samples, dtype=np.uint8))
    counts = np.bincount(idx, minlength=1 << n).astype(float)
    return DistVector(n, counts / counts.sum())


def marginal_distribution(dist, measured) -> DistVector:
    """Marginal over the listed qubits, in their listed order."""
    p = as_prob_array(dist)
    n = int(np.log2(len(p)))
    measured = list(measured)
    tensor = p.reshape((2,) * n)
    keep_sorted = sorted(measured)
    drop = tuple(q for q in range(n) if q not in keep_sorted)
    marg = tensor.sum(axis=drop) if drop else tensor
    order = [keep_sorted.index(q) for q in measured]
    marg = np.transpose(marg, order)
    return DistVector(len(measured), marg.reshape(-1))

