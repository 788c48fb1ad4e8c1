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

Diagonal phases are integer exponents.  Every supported diagonal gate is
a dyadic phase: Z, CZ and CCZ multiply by exp(2 pi i * AND(x_q) / 2), and
the rotation forms S = Rz(2 pi / 4), T = Rz(2 pi / 8) and Rz(+-2 pi / 2**t)
multiply by exp(2 pi i * (+-x_q) / 2**t) times the constant
exp(-+ pi i / 2**t).  With T = max(3, largest t <= 12), the gates are
compiled once into groups by arity, each holding qubit index arrays and
integer weights mod 2**T (gates on the same qubits merge), plus one global
phase constant; exponents are summed in uint16, which wraps at a multiple
of 2**T.  A row's exponent e is one AND of the indexed bit columns
and one integer dot product per arity, reduced mod 2**T, and its phase
const * exp(2 pi i e / 2**T) is read from a table of 2**T roots of unity.
Rotations with t > 12 (``DyadicAngle`` accepts any t >= 1) keep float
radians per qubit, computed with ``math.ldexp`` so no t overflows, and add
one float dot product; the table never grows past 2**12 entries.
"""

from __future__ import annotations

import abc
import cmath
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


# widest dyadic exponent of the lookup table; finer rotations use float radians
_TABLE_T_MAX = 12


def _dyadic_form(gate: Gate) -> tuple[int, int, bool]:
    """(sign, t, rotation) with the gate's phase exp(2 pi i sign AND(x)/2**t),
    times exp(-pi i sign / 2**t) when ``rotation`` (the Rz form)."""
    kind = gate.kind
    if kind in ("Z", "CZ", "CCZ"):
        return 1, 1, False
    if kind == "S":
        return 1, 2, True
    if kind == "T":
        return 1, 3, True
    if kind == "RZ":
        return gate.angle.sign, gate.angle.t, True
    raise ValidationError(f"unsupported diagonal kind {kind!r}")


@dataclass(frozen=True)
class _PhaseKernel:
    """Diagonal gates compiled to integer exponent weights mod 2**t."""

    t: int
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]  # (qubit columns, weights)
    const: complex  # global phase
    table: np.ndarray  # exp(2 pi i e / 2**t) for every e
    fine: np.ndarray | None  # radians per qubit of rotations with t > _TABLE_T_MAX

    @classmethod
    def compile(cls, diagonal, n: int) -> "_PhaseKernel":
        forms = [(gate.qubits, *_dyadic_form(gate)) for gate in diagonal]
        t = max([3] + [ft for _, _, ft, _ in forms if ft <= _TABLE_T_MAX])
        weights: dict[tuple[int, ...], int] = {}
        fine = np.zeros(n)
        const_units = 0  # global phase in units of 2 pi / 2**(t + 1)
        const_radians = []
        for qubits, sign, ft, rotation in forms:
            if ft > _TABLE_T_MAX:
                fine[qubits[0]] += math.ldexp(sign * 2 * math.pi, -ft)
                const_radians.append(math.ldexp(-sign * math.pi, -ft))
                continue
            key = tuple(sorted(qubits))
            weight = sign << (t - ft)
            weights[key] = (weights.get(key, 0) + weight) % (1 << t)
            if rotation:
                const_units -= weight
        groups = []
        for arity in (1, 2, 3):
            keys = [k for k, w in weights.items() if len(k) == arity and w]
            if keys:
                groups.append((np.array(keys, dtype=np.intp).T,
                               np.array([weights[k] for k in keys], dtype=np.uint16)))
        const = cmath.exp(1j * (math.pi * (const_units % (1 << (t + 1))) / 2 ** t
                                + math.fsum(const_radians)))
        table = np.exp(2j * math.pi * np.arange(1 << t) / 2 ** t)
        return cls(t, tuple(groups), const, table, fine if fine.any() else None)

    def restricted(self, qubits) -> "_PhaseKernel":
        """The gates that touch ``qubits``, without the global phase.  Two
        rows that differ only on ``qubits`` have the same phase ratio under
        this kernel as under the whole one."""
        qubits = list(qubits)
        groups = []
        for columns, weights in self.groups:
            touching = np.isin(columns, qubits).any(axis=0)
            if touching.any():
                groups.append((columns[:, touching], weights[touching]))
        fine = None
        if self.fine is not None and self.fine[qubits].any():
            fine = np.zeros_like(self.fine)
            fine[qubits] = self.fine[qubits]
        return _PhaseKernel(self.t, tuple(groups), 1.0, self.table, fine)

    def exponents(self, bits: np.ndarray) -> np.ndarray:
        """Integer phase exponents mod 2**t of (..., n) 0/1 rows, summed in
        uint16, whose wraparound 2**16 is a multiple of 2**t."""
        exponent = np.zeros(bits.shape[:-1], dtype=np.uint16)
        for qubits, weights in self.groups:
            selected = bits[..., qubits[0]]
            for column in qubits[1:]:
                selected &= bits[..., column]
            exponent += np.einsum("...g,g->...", selected, weights)
        return exponent & np.uint16((1 << self.t) - 1)


@dataclass(frozen=True)
class PhaseState(CtState):
    """Diagonal gates applied to a product state.

    amplitude(x) = phase(x) * base_amplitude(x) with |phase(x)| = 1, so
    the Born distribution is the base state's.
    """

    base: ProductState
    diagonal: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "diagonal", tuple(self.diagonal))
        for gate in self.diagonal:
            if not gate.is_diagonal:
                raise ValidationError(f"{gate.kind} is not diagonal")
            if any(q >= self.base.n for q in gate.qubits):
                raise ValidationError("diagonal gate outside register")
        object.__setattr__(
            self, "_kernel", _PhaseKernel.compile(self.diagonal, self.base.n))

    @property
    def n(self) -> int:
        return self.base.n

    def phases(self, bits) -> np.ndarray:
        bits = _bit_rows(bits, self.n)
        kernel = self._kernel
        phase = kernel.const * kernel.table[kernel.exponents(bits)]
        if kernel.fine is not None:
            phase = phase * np.exp(1j * (bits @ kernel.fine))
        return phase

    def amplitudes(self, bits) -> np.ndarray:
        return self.base.amplitudes(bits) * self.phases(bits)

    def sample_bits(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.base.sample_bits(rng, size)

    def amplitude_ratios(self, bits, rows, qubits) -> np.ndarray:
        """The base state's ratio times the phase ratio of the gates that
        touch ``qubits``."""
        ratios = self.base.amplitude_ratios(bits, rows, qubits)
        bits, rows = np.asarray(bits), np.asarray(rows)
        kernel = self._kernel.restricted(qubits)
        if kernel.groups:
            turns = kernel.exponents(rows) - kernel.exponents(bits)[..., None]
            ratios *= kernel.table[turns & np.uint16((1 << kernel.t) - 1)]
        if kernel.fine is not None:
            qubits = list(qubits)
            flipped = rows[..., qubits].astype(float) - bits[..., None, qubits]
            ratios *= np.exp(1j * np.einsum(
                "...q,q->...", flipped, kernel.fine[qubits]))
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
