"""Efficiently computable sparse operations: column oracles, signed-Pauli
algebra, Clifford conjugation, the four-coefficient single-qubit
decomposition for conjugated rotations, and lightcone-local operators.

Phase convention: a signed Pauli is i**k X^a Z^b with k tracked mod 4, so

    P |x> = i**k (-1)**(b.x) |x XOR a>.

Each operator implements one column oracle, the batched ``columns_bits``
that the expectation estimator runs; it may list a row twice, which leaves
row sums unchanged.  The scalar ``columns(x)`` is derived from it once, on
``EcsOperation``: it merges duplicate rows and drops entries at or below
``COEFF_EPS``.  A lightcone block lists only the entries of its column
above ``COEFF_EPS`` (zero-padded to its sparsity), so the width of a
product is the product of its factors' sparsities.  ``flip_mask`` names
the qubits on which a column's rows may differ from the column index, the
only ones the estimator's amplitude ratios involve: the X mask of a signed
Pauli, the union of a combination's X masks, a block's support, and the
union over a product's factors.

``ecs_for`` builds V^dag Z^s V as the product of the per-qubit operators
V^dag Z_j V.  Each is built once per decomposition and kept on it, in a
least-recently-used map bounded by ``OBSERVABLE_MEMO_BYTES`` of operator
arrays, so a table over many masks conjugates each qubit once.
"""

from __future__ import annotations

import abc
import functools
import operator
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _bits
from .circuits import (
    CLIFFORD_MAGIC,
    CONJUGATED_CLIFFORD,
    CONSTANT_DEPTH,
    IQP,
    PAULI_CONJUGATION_KINDS,
    Circuit,
    CtEcsDecomposition,
    Gate,
    rx_matrix,
    rz_matrix,
)
from .errors import ResourceLimitError, ValidationError

COEFF_EPS = 1e-12
SUPPORT_CAP = 12
TERM_CAP = 256
CHECK_TRIALS = 4  # columns sampled by check_ecs_observable
CHECK_TOL = 1e-9
OBSERVABLE_MEMO_BYTES = 64 << 20  # per decomposition, see _z_factor


class EcsOperation(abc.ABC):
    """Operator with an efficiently computable sparse column oracle."""

    n: int

    @property
    @abc.abstractmethod
    def sparsity(self) -> int:
        """Upper bound on nonzero entries per column."""

    @abc.abstractmethod
    def columns_bits(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched columns for (B, n) inputs.

        Returns (values (B, s) complex, rows (B, s, n) uint8); zero values
        pad rows that have fewer entries.
        """

    @property
    def flip_mask(self) -> int:
        """Qubits on which a column's rows may differ from the column index
        (every qubit unless an operator knows better)."""
        return (1 << self.n) - 1

    def columns(self, x: int) -> list[tuple[complex, int]]:
        """Nonzero entries of column x as (value, row-index) pairs, one per
        distinct row in ascending row order."""
        _, rows, values = _merged_columns(self, np.array([x], dtype=np.int64))
        return [(complex(v), int(r)) for v, r in zip(values, rows)]


def _merge_rows(keys: np.ndarray, rows: np.ndarray, values: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (key, row) pairs in ascending order, with the values listed
    for each summed."""
    keys, rows, values = keys.ravel(), rows.ravel(), values.ravel()
    if keys.size == 0:
        return keys, rows, values
    order = np.lexsort((rows, keys))
    keys, rows, values = keys[order], rows[order], values[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], (keys[1:] != keys[:-1]) | (rows[1:] != rows[:-1]))))
    return keys[starts], rows[starts], np.add.reduceat(values, starts)


def _merged_columns(op: EcsOperation, xs: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of columns ``xs`` as flat (position in ``xs``, row,
    value) arrays: one entry per distinct row of a column, ascending, with
    values at or below ``COEFF_EPS`` dropped."""
    betas, gammas = op.columns_bits(_bits.index_to_bits(xs, op.n))
    positions = np.broadcast_to(np.arange(len(xs))[:, None], betas.shape)
    positions, rows, values = _merge_rows(
        positions, _bits.bits_to_index(gammas), betas)
    keep = np.abs(values) > COEFF_EPS
    return positions[keep], rows[keep], values[keep]


@dataclass(frozen=True)
class SignedPauli(EcsOperation):
    """i**k X^xmask Z^zmask on n qubits (masks in big-endian qubit order)."""

    n: int
    k: int
    xmask: int
    zmask: int

    def __post_init__(self):
        object.__setattr__(self, "k", self.k % 4)
        top = 1 << self.n
        if not (0 <= self.xmask < top and 0 <= self.zmask < top):
            raise ValidationError("Pauli mask outside register")

    @classmethod
    def identity(cls, n: int) -> "SignedPauli":
        return cls(n, 0, 0, 0)

    @classmethod
    def z_on(cls, n: int, qubits) -> "SignedPauli":
        return cls(n, 0, 0, _bits.qubits_to_mask(qubits, n))

    @classmethod
    def x_on(cls, n: int, qubits) -> "SignedPauli":
        return cls(n, 0, _bits.qubits_to_mask(qubits, n), 0)

    @classmethod
    def y_on(cls, n: int, qubits) -> "SignedPauli":
        qubits = tuple(qubits)
        mask = _bits.qubits_to_mask(qubits, n)
        return cls(n, len(qubits) % 4, mask, mask)

    @property
    def phase(self) -> complex:
        return 1j ** self.k

    def __matmul__(self, other: "SignedPauli") -> "SignedPauli":
        if self.n != other.n:
            raise ValidationError("Pauli widths disagree")
        k = self.k + other.k + 2 * _bits.parity(self.zmask & other.xmask)
        return SignedPauli(self.n, k, self.xmask ^ other.xmask,
                           self.zmask ^ other.zmask)

    @property
    def sparsity(self) -> int:
        return 1

    @property
    def flip_mask(self) -> int:
        return self.xmask

    def columns_bits(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bits = np.asarray(bits, dtype=np.uint8)
        xbits = _bits.index_to_bits(np.int64(self.xmask), self.n)
        zqubits = list(_bits.mask_to_qubits(self.zmask, self.n))
        par = np.bitwise_xor.reduce(bits[:, zqubits] & 1, axis=1)
        betas = (self.phase * (1.0 - 2.0 * par)).astype(complex)[:, None]
        gammas = (bits ^ xbits)[:, None, :]
        return betas, gammas


def conjugate_pauli_by_clifford(gates, pauli: SignedPauli) -> SignedPauli:
    """E^dag P E for a gate list E over {H, S, CZ, X, Y, Z}.

    Gates are in application order (E = gates[-1] ... gates[0] as a matrix),
    so the per-gate updates run last gate first.
    """
    n = pauli.n
    k, xm, zm = pauli.k, pauli.xmask, pauli.zmask
    for gate in reversed(tuple(gates)):
        if gate.kind not in PAULI_CONJUGATION_KINDS:
            raise ValidationError(
                f"cannot conjugate by non-Clifford kind {gate.kind!r}")
        if gate.kind == "CZ":
            pa = 1 << (n - 1 - gate.qubits[0])
            pb = 1 << (n - 1 - gate.qubits[1])
            xa, xb = bool(xm & pa), bool(xm & pb)
            if xb:
                zm ^= pa
            if xa:
                zm ^= pb
            if xa and xb:
                k += 2
            continue
        pos = 1 << (n - 1 - gate.qubits[0])
        xb, zb = bool(xm & pos), bool(zm & pos)
        if gate.kind == "H":
            # swap X and Z on the wire; XZ -> ZX costs a sign
            if xb != zb:
                xm ^= pos
                zm ^= pos
            if xb and zb:
                k += 2
        elif gate.kind == "S":
            # S^dag X S = -Y = i**3 X Z
            if xb:
                zm ^= pos
                k += 3
        elif gate.kind == "X":
            if zb:
                k += 2
        elif gate.kind == "Y":
            if xb != zb:
                k += 2
        elif gate.kind == "Z":
            if xb:
                k += 2
    return SignedPauli(n, k % 4, xm, zm)


class PauliCombination(EcsOperation):
    """Complex combination of Pauli strings, merged over (xmask, zmask).

    The i**k phases of input terms are folded into the coefficients;
    coefficients below 1e-12 in modulus are dropped so the reported
    sparsity stays honest.
    """

    def __init__(self, n: int, terms):
        self.n = n
        acc: dict[tuple[int, int], complex] = {}
        for coeff, pauli in terms:
            if pauli.n != n:
                raise ValidationError("Pauli widths disagree")
            key = (pauli.xmask, pauli.zmask)
            acc[key] = acc.get(key, 0j) + complex(coeff) * pauli.phase
        kept = sorted(
            (key, val) for key, val in acc.items() if abs(val) > COEFF_EPS)
        if len(kept) > TERM_CAP:
            raise ResourceLimitError(
                f"Pauli combination grew to {len(kept)} terms (cap {TERM_CAP})")
        self._xmasks = np.array([key[0] for key, _ in kept], dtype=np.int64)
        self._zmasks = np.array([key[1] for key, _ in kept], dtype=np.int64)
        self._coeffs = np.array([val for _, val in kept], dtype=complex)
        self._xbits = _bits.mask_bit_matrix(self._xmasks, n)
        zbits = _bits.mask_bit_matrix(self._zmasks, n)
        # parities read only the qubits some term's Z acts on
        self._zqubits = np.flatnonzero(zbits.any(axis=0))
        self._zbits = zbits[:, self._zqubits]

    @property
    def terms(self) -> list[tuple[complex, SignedPauli]]:
        return [
            (complex(c), SignedPauli(self.n, 0, int(xm), int(zm)))
            for c, xm, zm in zip(self._coeffs, self._xmasks, self._zmasks)
        ]

    @property
    def sparsity(self) -> int:
        return len(set(int(x) for x in self._xmasks))

    @property
    def flip_mask(self) -> int:
        return functools.reduce(operator.or_, self._xmasks.tolist(), 0)

    def __matmul__(self, other: "PauliCombination") -> "PauliCombination":
        if self.n != other.n:
            raise ValidationError("Pauli widths disagree")
        terms = []
        for ca, pa in self.terms:
            for cb, pb in other.terms:
                terms.append((ca * cb, pa @ pb))
        return PauliCombination(self.n, terms)

    def columns_bits(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bits = np.asarray(bits, dtype=np.uint8)
        # (B, T) uint8 sums wrap mod 256, which keeps their parity
        par = (bits[:, self._zqubits] @ self._zbits.T) & 1
        betas = self._coeffs[None, :] * (1.0 - 2.0 * par)
        gammas = bits[:, None, :] ^ self._xbits[None, :, :]
        return betas, gammas


@dataclass(frozen=True)
class LocalOperator(EcsOperation):
    """Dense Hermitian-unitary block on a small support, identity elsewhere."""

    n: int
    support: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        if sorted(set(self.support)) != list(self.support):
            raise ValidationError("support must be sorted and duplicate-free")
        m = len(self.support)
        dim = 1 << m
        if self.block.shape != (dim, dim):
            raise ValidationError("block shape disagrees with support size")
        # per block column, the rows above COEFF_EPS in ascending order,
        # zero-padded to the widest column
        kept = np.abs(self.block) > COEFF_EPS
        width = int(kept.sum(axis=0).max())
        rows = np.argsort(~kept, axis=0, kind="stable")[:width].T  # (dim, width)
        cols = np.arange(dim)[:, None]
        values = np.where(kept[rows, cols], self.block[rows, cols], 0.0)
        object.__setattr__(self, "_column_values", values)
        object.__setattr__(self, "_column_rows", _bits.index_to_bits(rows, m))

    @property
    def sparsity(self) -> int:
        return self._column_values.shape[1]

    @property
    def flip_mask(self) -> int:
        return _bits.qubits_to_mask(self.support, self.n)

    def columns_bits(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bits = np.asarray(bits, dtype=np.uint8)
        support = list(self.support)
        cols = _bits.bits_to_index(bits[:, support])
        betas = self._column_values[cols]  # (B, sparsity)
        gammas = np.repeat(bits[:, None, :], self.sparsity, axis=1)
        gammas[:, :, support] = self._column_rows[cols]
        return betas, gammas


class EcsProduct(EcsOperation):
    """Ordered product of ECS factors: factors[0] @ ... @ factors[-1]."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValidationError("product needs at least one factor")
        n = factors[0].n
        if any(f.n != n for f in factors):
            raise ValidationError("factor widths disagree")
        self.n = n
        self.factors = factors

    @property
    def sparsity(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.sparsity
        return out

    @property
    def flip_mask(self) -> int:
        return functools.reduce(
            operator.or_, (f.flip_mask for f in self.factors))

    def columns_bits(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bits = np.asarray(bits, dtype=np.uint8)
        batch = bits.shape[0]
        betas = np.ones((batch, 1), dtype=complex)
        gammas = bits[:, None, :]
        for factor in reversed(self.factors):
            width = gammas.shape[1]
            fb, fg = factor.columns_bits(gammas.reshape(batch * width, self.n))
            fw = fb.shape[1]
            betas = (betas[:, :, None] * fb.reshape(batch, width, fw))
            betas = betas.reshape(batch, width * fw)
            gammas = fg.reshape(batch, width * fw, self.n)
        return betas, gammas


# --- conjugated-rotation decomposition ----------------------------------------

def conjugated_z_decomposition(phi: float, theta: float) -> tuple[complex, ...]:
    """Coefficients (a_I, a_Z, a_X, a_Y) with
    sum_P a_P P = Rz(phi) Rx(theta) Z Rx(-theta) Rz(-phi)."""
    z = np.diag([1.0 + 0j, -1.0])
    m = rz_matrix(phi) @ rx_matrix(theta) @ z @ rx_matrix(-theta) @ rz_matrix(-phi)
    paulis = (
        np.eye(2, dtype=complex),
        z,
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
    )
    return tuple(complex(np.trace(p @ m)) / 2.0 for p in paulis)


# --- lightcones -----------------------------------------------------------------

def _lightcone_marked(circuit: Circuit, j: int) -> tuple[tuple[int, ...], list[Gate]]:
    if not 0 <= j < circuit.n:
        raise ValidationError(f"qubit {j} outside register")
    support = {j}
    marked: list[Gate] = []
    for gate in reversed(circuit.gates):
        if support.intersection(gate.qubits):
            marked.append(gate)
            support.update(gate.qubits)
            if len(support) > SUPPORT_CAP:
                raise ResourceLimitError(f"lightcone of qubit {j} exceeds "
                                         f"the {SUPPORT_CAP}-qubit support cap")
    marked.reverse()
    return tuple(sorted(support)), marked


def lightcone(circuit: Circuit, j: int) -> tuple[int, ...]:
    """Reverse lightcone of qubit j: the support of C^dag Z_j C."""
    return _lightcone_marked(circuit, j)[0]


def local_z_operator(circuit: Circuit, j: int) -> LocalOperator:
    """C^dag Z_j C as a dense block on the lightcone of j.

    Only gates intersecting the growing support participate; the rest
    cancel against their adjoints.
    """
    from .oracle import apply_circuit_to_matrix  # local import, no cycle

    support, marked = _lightcone_marked(circuit, j)
    m = len(support)
    relabel = {q: i for i, q in enumerate(support)}
    mini = Circuit(m, tuple(
        Gate(g.kind, tuple(relabel[q] for q in g.qubits), g.angle) for g in marked))
    w = apply_circuit_to_matrix(mini, np.eye(1 << m, dtype=complex))
    signs = 1.0 - 2.0 * _bits.index_to_bits(np.arange(1 << m), m)[:, relabel[j]]
    block = w.conj().T @ (signs[:, None] * w)
    return LocalOperator(circuit.n, support, block)


# --- family-specific conjugated observables --------------------------------------

def _build_z_factor(decomp: CtEcsDecomposition, j: int) -> EcsOperation:
    """V^dag Z_j V: a signed Pauli (Clifford magic), a Pauli combination
    (conjugated Clifford) or a lightcone-local block (constant depth)."""
    n = decomp.n
    if decomp.family == CLIFFORD_MAGIC:
        return conjugate_pauli_by_clifford(
            decomp.v_block.gates, SignedPauli.z_on(n, (j,)))
    if decomp.family == CONJUGATED_CLIFFORD:
        params = decomp.params
        alphas = conjugated_z_decomposition(
            params.phi_radians, params.theta_radians)
        basis = (
            SignedPauli.identity(n),
            SignedPauli.z_on(n, (j,)),
            SignedPauli.x_on(n, (j,)),
            SignedPauli.y_on(n, (j,)),
        )
        return PauliCombination(n, [
            (alpha, conjugate_pauli_by_clifford(params.clifford, pauli))
            for alpha, pauli in zip(alphas, basis) if abs(alpha) > COEFF_EPS])
    if decomp.family == CONSTANT_DEPTH:
        return local_z_operator(decomp.v_block, j)
    raise ValidationError(f"unknown family {decomp.family!r}")


def _nbytes(op: EcsOperation) -> int:
    """Bytes of the arrays an operator holds (0 for a signed Pauli)."""
    return sum(a.nbytes for a in vars(op).values() if isinstance(a, np.ndarray))


def _z_factor(decomp: CtEcsDecomposition, j: int) -> EcsOperation:
    """V^dag Z_j V, built once and kept on ``decomp`` in a least-recently-used
    map.  Past ``OBSERVABLE_MEMO_BYTES`` of operator arrays the oldest
    entries are dropped; the entry just built always stays."""
    ops = decomp.__dict__.get("_z_factors")
    if ops is None:
        ops = OrderedDict()  # qubit -> (operator, bytes), least recent first
        object.__setattr__(decomp, "_z_factors", ops)
    if j in ops:
        ops.move_to_end(j)
        return ops[j][0]
    op = _build_z_factor(decomp, j)
    ops[j] = (op, _nbytes(op))
    while (len(ops) > 1 and sum(size for _, size in ops.values())
           > OBSERVABLE_MEMO_BYTES):
        ops.popitem(last=False)
    return op


def ecs_for(decomp: CtEcsDecomposition, mask: int) -> EcsOperation:
    """V^dag Z^mask V for the decomposition's family.

    IQP gives X^mask; Clifford magic a single signed Pauli; conjugated
    Clifford a Pauli combination; constant depth a product of
    lightcone-local blocks.  The non-IQP operators are products, in
    ascending qubit order, of the per-qubit V^dag Z_j V, each built once
    per decomposition (``_z_factor``).  Raises on mask 0 and on cap
    violations.
    """
    n = decomp.n
    if not 0 < mask < (1 << n):
        raise ValidationError("mask must be a nonzero n-bit string")
    if decomp.family == IQP:
        return SignedPauli(n, 0, mask, 0)
    qubits = _bits.mask_to_qubits(mask, n)
    try:
        factors = [_z_factor(decomp, j) for j in qubits]
    except ResourceLimitError as exc:
        raise ResourceLimitError(
            f"{exc} (while conjugating Z^s with |s|={len(qubits)})") from exc
    if decomp.family == CONSTANT_DEPTH:
        return factors[0] if len(factors) == 1 else EcsProduct(factors)
    return functools.reduce(operator.matmul, factors)


# --- checks ----------------------------------------------------------------------

def dense_from_columns(op: EcsOperation) -> np.ndarray:
    """Materialize the operator from its column oracle (test helper)."""
    dim = 1 << op.n
    betas, gammas = op.columns_bits(_bits.index_to_bits(np.arange(dim), op.n))
    cols = np.broadcast_to(np.arange(dim)[:, None], betas.shape)
    mat = np.zeros((dim, dim), dtype=complex)
    np.add.at(mat, (_bits.bits_to_index(gammas), cols), betas)
    return mat


def check_ecs_observable(op: EcsOperation, rng: np.random.Generator) -> None:
    """Spot-check Hermiticity and A @ A = I on sampled basis columns.

    Every conjugated Z^s observable satisfies both; operators failing
    either are rejected at the estimator boundary.  ``CHECK_TRIALS`` columns
    x are drawn one at a time from ``rng``; one batched call reads them all
    and a second one the columns of all their rows.  The first failing
    trial names the error, Hermiticity before the square.
    """
    xs = np.array([rng.integers(1 << op.n) for _ in range(CHECK_TRIALS)],
                  dtype=np.int64)
    trials, gammas, betas = _merged_columns(op, xs)
    betas2, rows2 = op.columns_bits(_bits.index_to_bits(gammas, op.n))
    rows2 = _bits.bits_to_index(rows2)
    mirror = np.where(rows2 == xs[trials][:, None], betas2, 0.0).sum(axis=1)
    not_hermitian = np.bincount(
        trials[np.abs(mirror - np.conj(betas)) > CHECK_TOL],
        minlength=CHECK_TRIALS) > 0
    square_trials, _, square = _merge_rows(
        np.append(np.broadcast_to(trials[:, None], rows2.shape),
                  np.arange(CHECK_TRIALS)),
        np.append(rows2, xs),
        np.append(betas[:, None] * betas2, np.full(CHECK_TRIALS, -1.0)))
    not_square = np.bincount(square_trials[np.abs(square) > CHECK_TOL],
                             minlength=CHECK_TRIALS) > 0
    failed = np.flatnonzero(not_hermitian | not_square)
    if failed.size and not_hermitian[failed[0]]:
        raise ValidationError("operator is not Hermitian on sampled columns")
    if failed.size:
        raise ValidationError(
            "operator squared is not the identity on sampled columns")
