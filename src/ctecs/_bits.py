"""Bitstring conventions shared by every module.

A length-n bitstring x = x_1 ... x_n is identified with the integer
sum_j x_j * 2**(n-1-j), i.e. qubit 0 is the most significant bit.  Dense
vectors over {0,1}^n (state vectors, distributions, Fourier coefficient
tables) are indexed in this order, and (n,)-shaped uint8 arrays hold the
same string with qubit j at position j.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

# widest bit row that packs into an int64 index
MAX_PACKED_BITS = 62


def index_to_bits(index, n: int) -> np.ndarray:
    """Expand integer indices into (..., n) uint8 bit arrays."""
    index = np.asarray(index)
    shifts = np.arange(n - 1, -1, -1)
    return ((index[..., None] >> shifts) & 1).astype(np.uint8)


def chunk_values(bits) -> list[np.ndarray]:
    """Integers of the 8-qubit chunks of (..., n) bit arrays.

    Chunk k covers qubits 8k .. min(8k + 8, n) - 1 with its first qubit
    most significant; each value is a (...) uint8 array, computed without
    widening the bit array.
    """
    bits = np.asarray(bits)
    n = bits.shape[-1]
    out = []
    for start in range(0, n, 8):
        width = min(8, n - start)
        weights = (1 << np.arange(width - 1, -1, -1)).astype(np.uint8)
        out.append(bits[..., start:start + width] @ weights)
    return out


def bits_to_index(bits) -> np.ndarray:
    """Pack (..., n) bit arrays into int64 indices, n <= MAX_PACKED_BITS."""
    bits = np.asarray(bits)
    n = bits.shape[-1]
    if n > MAX_PACKED_BITS:
        raise ValueError(f"bit packing supports at most {MAX_PACKED_BITS} bits")
    out = np.zeros(bits.shape[:-1], dtype=np.int64)
    for start, value in zip(range(0, n, 8), chunk_values(bits)):
        out <<= min(8, n - start)
        out |= value
    return out[()]


def string_to_bits(s: str) -> np.ndarray:
    if any(ch not in "01" for ch in s):
        raise ValueError(f"not a bitstring: {s!r}")
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


def string_to_index(s: str) -> int:
    return int(s, 2) if s else 0


def index_to_string(index: int, n: int) -> str:
    return format(index, f"0{n}b") if n else ""


def mask_weight(mask: int) -> int:
    return int(mask).bit_count()


def parity(x: int) -> int:
    return int(x).bit_count() & 1


def qubit_bit(index: int, j: int, n: int) -> int:
    """Bit of qubit j inside an integer-encoded string."""
    return (index >> (n - 1 - j)) & 1


def qubits_to_mask(qubits, n: int) -> int:
    mask = 0
    for q in qubits:
        mask |= 1 << (n - 1 - q)
    return mask


def mask_to_qubits(mask: int, n: int) -> tuple[int, ...]:
    return tuple(j for j in range(n) if qubit_bit(mask, j, n))


def masks_of_weight(n: int, w: int):
    """Integer masks of Hamming weight w, lexicographic in the qubit tuple."""
    for qubits in combinations(range(n), w):
        yield qubits_to_mask(qubits, n)


def masks_up_to_weight(n: int, c: int) -> list[int]:
    """All masks with weight <= c; weight-major, lexicographic within weight."""
    out = []
    for w in range(min(c, n) + 1):
        out.extend(masks_of_weight(n, w))
    return out


def mask_count(n: int, c: int) -> int:
    return sum(comb(n, w) for w in range(min(c, n) + 1))


def mask_bit_matrix(masks, n: int) -> np.ndarray:
    """(m, n) uint8 matrix with one mask per row."""
    return index_to_bits(np.asarray(list(masks), dtype=np.int64), n)


def sign_character(masks, indices, n: int) -> np.ndarray:
    """(-1)**(s . x) for every mask s (rows) and index x (columns)."""
    smat = mask_bit_matrix(masks, n).astype(np.int64)
    xmat = index_to_bits(np.asarray(indices, dtype=np.int64), n).astype(np.int64)
    par = (smat @ xmat.T) & 1
    return 1.0 - 2.0 * par
