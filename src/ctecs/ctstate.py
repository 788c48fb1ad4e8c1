"""Computationally tractable states: exact amplitudes, amplitude ratios
and exact Born sampling for product states and diagonal-circuit phase
states.

Support is deliberately limited to U-blocks of the recognized shape
"single-qubit gates, then diagonal gates" (the shapes the four circuit
families produce); ``CtState`` is the extension point for anything else.
``ct_state_of`` folds every one-qubit gate, the diagonal ones after the
last non-diagonal gate included, into the per-wire amplitudes, so its
phase state keeps only CZ and CCZ.  All amplitude routines are vectorized
over (batch, n) uint8 bit arrays, which is what the expectation estimator
consumes.

The estimator needs only ratios <y|phi> / <x|phi> for rows y that differ
from x on a few qubits F (the qubits its operator may flip).  The product
part of a ratio is a product over F of per-qubit amplitude quotients, and
the phase part involves only the diagonal gates that touch F; every other
factor cancels.  So a ratio costs O(|F| + gates touching F) per row, not
O(n + all gates).

Product amplitudes are looked up per 8-qubit chunk: each chunk has a
table of the products of its qubits' amplitudes for all 256 values, so a
row costs one lookup and one multiply per chunk.

The phase part is a sign.  Every one-qubit phase is folded into the
wires, so a phase state holds only CZ and CCZ, and its amplitude is the
base amplitude times (-1)**f(x), where f(x) is the XOR over gates of the
AND of each gate's bits (a GF(2) polynomial of degree at most 3).  Gates
on one qubit set cancel in pairs; the rest form one (3, G) qubit index
array, a CZ repeating its last qubit, so a row's f is two ANDs of the
indexed bit columns and one XOR reduction.  The gates are also indexed by
qubit, so a ratio over flipped qubits F reads only the gates that touch F.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from . import _bits
from .circuits import Circuit, Gate, gate_matrix
from .errors import ValidationError


class CtState(abc.ABC):
    """State with computable amplitudes and exactly samplable Born law."""

    n: int

    @abc.abstractmethod
    def amplitudes(self, bits: np.ndarray) -> np.ndarray:
        """<x|phi> for an (..., n) bit array, shape (...) complex."""

    @abc.abstractmethod
    def sample_bits(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, n) uint8 samples drawn from |<x|phi>|**2."""

    @abc.abstractmethod
    def amplitude_ratios(self, bits, rows, qubits) -> np.ndarray:
        """<y|phi> / <x|phi> for (B, n) 0/1 rows x and (B, W, n) 0/1 rows y
        that agree with their x outside the sorted qubit list ``qubits``;
        shape (B, W).  Every x must have a nonzero amplitude."""


def _bit_rows(bits, n: int) -> np.ndarray:
    """(..., n) uint8 0/1 array of ``bits``; any value above 0 is a 1."""
    bits = np.asarray(bits)
    if bits.shape[-1:] != (n,):
        raise ValidationError(f"expected {n} bits, got shape {bits.shape}")
    return (bits > 0).view(np.uint8)


@dataclass(frozen=True)
class ProductState(CtState):
    """Tensor product of per-qubit states (a_j |0> + b_j |1>)."""

    amp0: np.ndarray
    amp1: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amp0, dtype=complex)
        b = np.asarray(self.amp1, dtype=complex)
        object.__setattr__(self, "amp0", a)
        object.__setattr__(self, "amp1", b)
        if a.shape != b.shape or a.ndim != 1:
            raise ValidationError("amplitude arrays must be equal-length vectors")
        norms = np.abs(a) ** 2 + np.abs(b) ** 2
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValidationError("per-qubit amplitudes must be normalized")
        tables = []
        for start in range(0, len(a), 8):
            width = min(8, len(a) - start)
            ones = _bits.index_to_bits(np.arange(1 << width), width) > 0
            qubits = slice(start, start + width)
            tables.append(np.where(ones, b[qubits], a[qubits]).prod(axis=1))
        object.__setattr__(self, "_chunk_tables", tables)
        # entry 2x + y of row j is <y|a_j> / <x|a_j>; a row x of amplitude 0
        # is never asked for, so its inf or nan entries are never read
        with np.errstate(divide="ignore", invalid="ignore"):
            quotients = np.stack([a, b], axis=1)
            quotients = (quotients[:, None, :] / quotients[:, :, None])
        object.__setattr__(self, "_quotients", quotients.reshape(len(a), 4))

    @property
    def n(self) -> int:
        return len(self.amp0)

    @classmethod
    def zero(cls, n: int) -> "ProductState":
        return cls(np.ones(n), np.zeros(n))

    @classmethod
    def plus(cls, n: int) -> "ProductState":
        amp = np.full(n, 1.0 / math.sqrt(2))
        return cls(amp, amp.copy())

    def amplitudes(self, bits) -> np.ndarray:
        bits = _bit_rows(bits, self.n)
        out = np.ones(bits.shape[:-1], dtype=complex)
        for table, value in zip(self._chunk_tables, _bits.chunk_values(bits)):
            out *= table[value]
        return out

    def sample_bits(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p1 = np.abs(self.amp1) ** 2
        return (rng.random((size, self.n)) < p1).astype(np.uint8)

    def amplitude_ratios(self, bits, rows, qubits) -> np.ndarray:
        bits, rows = np.asarray(bits), np.asarray(rows)
        if bits.shape[-1:] != (self.n,) or rows.shape[-1:] != (self.n,):
            raise ValidationError(f"expected {self.n} bits, got shapes "
                                  f"{bits.shape} and {rows.shape}")
        ratios = np.ones(rows.shape[:-1], dtype=complex)
        for q in qubits:
            ratios *= self._quotients[q].take(2 * bits[..., q, None] + rows[..., q])
        return ratios


def _parity(gates: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """f(x) of (..., n) 0/1 rows as a (...) 0/1 array: the XOR over the
    columns of the (3, G) qubit index array ``gates`` of the AND of each
    gate's bits, read from one contiguous copy of each bit column used."""
    qubits = np.unique(gates)
    columns = np.moveaxis(bits, -1, 0)[qubits]
    return np.bitwise_xor.reduce(np.bitwise_and.reduce(
        columns[np.searchsorted(qubits, gates)], axis=0), axis=0)


@dataclass(frozen=True)
class PhaseState(CtState):
    """CZ and CCZ gates applied to a product state.

    amplitude(x) = (-1)**f(x) * base_amplitude(x), where f is the XOR over
    the gates of the AND of each gate's qubits, so the Born distribution is
    the base state's.  One-qubit phases belong in the base state
    (``ct_state_of`` folds them there).
    """

    base: ProductState
    diagonal: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "diagonal", tuple(self.diagonal))
        odd: set[tuple[int, ...]] = set()  # gates on one qubit set cancel in pairs
        for gate in self.diagonal:
            if gate.kind not in ("CZ", "CCZ"):
                raise ValidationError(
                    f"a phase state takes CZ and CCZ only, got {gate.kind}")
            if any(q >= self.base.n for q in gate.qubits):
                raise ValidationError("diagonal gate outside register")
            odd ^= {tuple(sorted(gate.qubits))}
        keys = sorted(odd)  # a CZ is a CCZ on a repeated qubit: x AND x = x
        object.__setattr__(self, "_gates", np.array(
            [key + key[-1:] * (3 - len(key)) for key in keys],
            dtype=np.intp).reshape(-1, 3).T)
        object.__setattr__(self, "_touching", [  # gates by qubit
            {g for g, key in enumerate(keys) if q in key} for q in range(self.n)])

    @property
    def n(self) -> int:
        return self.base.n

    def phases(self, bits) -> np.ndarray:
        return np.where(_parity(self._gates, _bit_rows(bits, self.n)), -1.0, 1.0)

    def amplitudes(self, bits) -> np.ndarray:
        return self.base.amplitudes(bits) * self.phases(bits)

    def sample_bits(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.base.sample_bits(rng, size)

    def amplitude_ratios(self, bits, rows, qubits) -> np.ndarray:
        """The base state's ratio, negated where the parity of the gates
        touching ``qubits`` (read from the gate index) differs in row and x."""
        ratios = self.base.amplitude_ratios(bits, rows, qubits)
        gates = self._gates[:, list(set().union(
            *(self._touching[q] for q in qubits)))]
        if gates.size:
            bits, rows = np.asarray(bits), np.asarray(rows)
            flips = _parity(gates, rows) ^ _parity(gates, bits)[..., None]
            ratios *= 1.0 - 2.0 * flips
        return ratios


def ct_state_of(u_block: Circuit) -> PhaseState:
    """State U|0^n> for a recognized U-block shape.

    Recognized: any prefix of single-qubit gates followed by diagonal
    gates only.  Every single-qubit gate is composed into its wire's
    amplitudes (the diagonal ones commute with the rest of the suffix), so
    the phase state holds only the multi-qubit diagonal gates.  Anything
    else is rejected.
    """
    gates = u_block.gates
    split = 0
    for i, gate in enumerate(gates):
        if not gate.is_diagonal:
            split = i + 1
    for gate in gates[:split]:
        if len(gate.qubits) != 1:
            raise ValidationError(
                "unrecognized U-block: a multi-qubit gate precedes the last "
                "non-diagonal gate")
    n = u_block.n
    mats = [np.eye(2, dtype=complex) for _ in range(n)]
    for gate in gates:
        if len(gate.qubits) == 1:
            q = gate.qubits[0]
            mats[q] = gate_matrix(gate) @ mats[q]
    amp0 = np.array([m[0, 0] for m in mats])
    amp1 = np.array([m[1, 0] for m in mats])
    return PhaseState(ProductState(amp0, amp1),
                      tuple(gate for gate in gates if len(gate.qubits) > 1))
