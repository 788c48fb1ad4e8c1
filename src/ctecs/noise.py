"""Depolarizing-noise specifications and the bit-flip noise operator.

On measured bitstrings, a depolarizing channel at rate eps acting on one
qubit is an independent flip of that bit with probability eps/2.  The
corresponding operator on real functions over {0,1}^n is

    (T_delta^j f)(x) = (1 - delta/2) f(x) + (delta/2) f(x with bit j flipped)

which is an l1 contraction and commutes across distinct qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MODEL_A = "A"
MODEL_B = "B"


@dataclass(frozen=True)
class NoiseSpec:
    """Uniform (model A) or per-qubit (model B) depolarizing rates."""

    model: str
    _rates: tuple[float, ...]

    def __post_init__(self):
        if self.model not in (MODEL_A, MODEL_B):
            raise ValidationError(f"noise model must be 'A' or 'B', got {self.model!r}")
        for r in self._rates:
            if not 0.0 < r < 1.0:
                raise ValidationError(f"noise rates must lie in (0, 1), got {r}")

    @classmethod
    def uniform(cls, eps: float) -> "NoiseSpec":
        return cls(MODEL_A, (float(eps),))

    @classmethod
    def per_qubit(cls, rates) -> "NoiseSpec":
        return cls(MODEL_B, tuple(float(r) for r in rates))

    def rates(self, n: int) -> np.ndarray:
        if self.model == MODEL_A:
            return np.full(n, self._rates[0])
        if len(self._rates) != n:
            raise ValidationError(
                f"model B carries {len(self._rates)} rates for {n} qubits")
        return np.array(self._rates)

    def to_json_dict(self) -> dict:
        if self.model == MODEL_A:
            return {"model": "A", "epsilon": self._rates[0]}
        return {"model": "B", "epsilon": list(self._rates)}


def noise_operator_apply(f: np.ndarray, j: int, delta: float, n: int) -> np.ndarray:
    """Average f over flipping bit j with probability delta/2."""
    if not 0.0 <= delta <= 1.0:
        raise ValidationError(f"delta must lie in [0, 1], got {delta}")
    f = np.asarray(f)
    if f.shape != (1 << n,):
        raise ValidationError(f"expected a dense vector of length 2**{n}")
    flipped = f[np.arange(1 << n) ^ (1 << (n - 1 - j))]
    return (1.0 - delta / 2.0) * f + (delta / 2.0) * flipped


def flip_convolve(f: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Apply T^j at rates[j] for every j (independent per-bit flips)."""
    n = len(rates)
    out = np.asarray(f, dtype=float)
    for j, eps in enumerate(rates):
        out = noise_operator_apply(out, j, float(eps), n)
    return out


def attenuation_factors(rates: np.ndarray) -> np.ndarray:
    """factor[s] = prod_j (1 - rates[j])**s_j over all 2**n masks s."""
    # doubling appends the new bit as the top bit, so walk qubits last-first
    factors = np.ones(1)
    for eps in reversed(rates):
        factors = np.concatenate([factors, factors * (1.0 - eps)])
    return factors
