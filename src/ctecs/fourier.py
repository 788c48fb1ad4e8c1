"""Fourier-side machinery: coefficient tables, the sampled expectation
estimator, degree and rate selection, and noise attenuation on tables.

The estimator draws x from the state's Born law and averages

    f(x) = Re[ sum_j conj(beta_j(x)) <gamma_j(x)|phi> / <x|phi> ]

whose mean is <phi|O|phi> exactly and whose second moment is ||O|phi>||**2
(= 1 for the Hermitian-unitary observables used here).  A median of K
batch means of size B then satisfies a Chebyshev-plus-Chernoff tail bound:
with B = ceil(4/tau**2) each batch errs by more than tau with probability
at most 1/4, and the median errs with probability at most exp(-K/8).

The Born law does not depend on the observable, so one draw (a
``BornSample``, as in Van den Nest's CT/ECS estimator, arXiv:0911.1624)
serves every mask of a table.  f needs only the amplitude ratios, which
involve only the qubits the operator may flip, so a mask costs time set by
its neighbourhood, not by n.  The bound holds per coefficient; only
different masks' estimates correlate.  Masks run in blocks of at most
``ecs.BLOCK_MASKS``, each spot-checked in one call and reduced in one pass.

Two coefficient sources sit behind one interface: the estimator above, and
a dense exact source so end-to-end tests can separate truncation error
from estimation error.  Base-2 logarithms throughout.
"""

from __future__ import annotations

import abc
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _bits, oracle
from .circuits import CtEcsDecomposition
from .ctstate import CtState, ct_state_of
from .ecs import BLOCK_MASKS, EcsOperation, check_ecs_observable, ecs_for
from .errors import ResourceLimitError, ValidationError

MASK_BUDGET = 100_000


# --- coefficient tables ---------------------------------------------------------

class FourierTable:
    """Sparse map from low-weight masks to real coefficients.

    The all-zeros entry is pinned to exactly 1/2**n (so the represented
    function sums to 1); masks above the degree cutoff are implicitly 0.
    Immutable after construction.
    """

    def __init__(self, n: int, c: int, entries: dict[int, float]):
        if not 0 <= c <= n:
            raise ValidationError(f"degree cutoff {c} outside [0, {n}]")
        self.n = n
        self.c = c
        pinned = 0.5 ** n
        zero = entries.get(0)
        if zero is None or abs(zero - pinned) > 1e-15 * pinned:
            raise ValidationError("table must carry exactly 1/2**n at the zero mask")
        for mask, value in entries.items():
            if not 0 <= mask < (1 << n):
                raise ValidationError(f"mask {mask} outside register")
            if _bits.mask_weight(mask) > c:
                raise ValidationError(
                    f"mask of weight {_bits.mask_weight(mask)} exceeds cutoff {c}")
            if not np.isfinite(value):
                raise ValidationError("coefficients must be finite")
        items = sorted(entries.items())
        self._masks = np.array([m for m, _ in items], dtype=np.int64)
        self._values = np.array([float(v) for _, v in items])

    @property
    def masks(self) -> np.ndarray:
        return self._masks.copy()

    @property
    def values(self) -> np.ndarray:
        return self._values.copy()

    @property
    def entries(self) -> dict[int, float]:
        return {int(m): float(v) for m, v in zip(self._masks, self._values)}

    def coefficient(self, mask: int) -> float:
        pos = np.searchsorted(self._masks, mask)
        if pos < len(self._masks) and self._masks[pos] == mask:
            return float(self._values[pos])
        return 0.0

    def dense_values(self) -> np.ndarray:
        """The represented function on all 2**n points (index order)."""
        coeffs = np.zeros(1 << self.n)
        coeffs[self._masks] = self._values
        return oracle.inverse_fourier(coeffs)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "entries": [
                {"s": _bits.index_to_string(int(m), self.n), "v": float(v)}
                for m, v in zip(self._masks, self._values)
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FourierTable":
        entries = {
            _bits.string_to_index(e["s"]): float(e["v"]) for e in d["entries"]}
        return cls(int(d["n"]), int(d["c"]), entries)


def attenuate(table: FourierTable, rate: float) -> FourierTable:
    """Multiply each entry by (1-rate)**|s|; the zero entry is unchanged."""
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"attenuation rate must lie in [0, 1), got {rate}")
    entries = {
        int(m): float(v) * (1.0 - rate) ** _bits.mask_weight(int(m))
        for m, v in zip(table.masks, table.values)
    }
    return FourierTable(table.n, table.c, entries)


# --- theory-side constants --------------------------------------------------------

def choose_degree(alpha: float, delta: float, lam: float) -> int:
    """Degree cutoff c = ceil((1/lam) * log2(10*sqrt(alpha)/delta)).

    Always exceeds 3 on the valid ranges alpha >= 1, 0 < delta < 1,
    0 < lam < 1.
    """
    if alpha < 1.0:
        raise ValidationError(f"alpha must be >= 1, got {alpha}")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"lambda must lie in (0, 1), got {lam}")
    c = math.ceil(math.log2(10.0 * math.sqrt(alpha) / delta) / lam)
    if c <= 3:
        raise AssertionError(f"degree cutoff {c} does not exceed 3")
    return c


def theory_accuracy_denominator(n: int, c: int, delta: float) -> float:
    """f(n) = 10 (n**c + 1) / delta, the per-coefficient accuracy scale."""
    return 10.0 * (float(n) ** c + 1.0) / delta


@dataclass(frozen=True)
class LambdaCheck:
    ok: bool
    ratio: float
    bound: float
    slack: float

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "ratio": self.ratio, "bound": self.bound,
                "slack": self.slack}


def validate_lambda(alpha: float, delta: float, lam: float, epsilon: float) -> LambdaCheck:
    """Check 1 <= epsilon/lam <= 1 + 1/((10 sqrt(alpha)/delta) log2(10 sqrt(alpha)/delta))."""
    if alpha < 1.0 or not 0.0 < delta < 1.0:
        raise ValidationError("alpha must be >= 1 and delta in (0, 1)")
    if not 0.0 < lam < 1.0 or not 0.0 < epsilon < 1.0:
        raise ValidationError("rates must lie in (0, 1)")
    base = 10.0 * math.sqrt(alpha) / delta
    bound = 1.0 + 1.0 / (base * math.log2(base))
    ratio = epsilon / lam
    ok = 1.0 <= ratio <= bound
    return LambdaCheck(ok=ok, ratio=ratio, bound=bound, slack=bound - ratio)


# --- the sampled estimator ---------------------------------------------------------

@dataclass(frozen=True)
class EstimatorConfig:
    """Median-of-means parameters.

    ``target_accuracy`` and ``confidence`` document the statistical
    contract; the executed work is batch_count batches of batch_size.
    """

    batch_size: int
    batch_count: int = 9
    seed: int = 0
    target_accuracy: float | None = None
    confidence: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.batch_count < 1 or self.batch_count % 2 == 0:
            raise ValidationError("batch_count must be odd and >= 1")

    @classmethod
    def from_accuracy(cls, tau: float, eta: float, seed: int = 0) -> "EstimatorConfig":
        """B = ceil(4/tau**2), K = smallest odd integer >= 8 ln(2/eta)."""
        if not 0.0 < tau < 1.0 or not 0.0 < eta < 1.0:
            raise ValidationError("tau and eta must lie in (0, 1)")
        batch = math.ceil(4.0 / tau ** 2)
        k = math.ceil(8.0 * math.log(2.0 / eta))
        if k % 2 == 0:
            k += 1
        return cls(batch_size=batch, batch_count=k, seed=seed,
                   target_accuracy=tau, confidence=eta)

    def to_json_dict(self) -> dict:
        return {"batch_size": self.batch_size, "batch_count": self.batch_count,
                "seed": self.seed, "target_accuracy": self.target_accuracy,
                "confidence": self.confidence}


@dataclass
class EstimatorStats:
    """Per mask of a block: value, K batch means (a row), second moment."""

    value: np.ndarray
    batch_means: np.ndarray
    second_moment: np.ndarray


class BornSample:
    """K batches of B rows drawn once from a state's Born law, for any
    number of observables: batch i is ``state.sample_bits(rng.spawn(K)[i],
    B)``, kept as an (R, K) count array over the R distinct rows of the
    whole draw.

    An estimate needs no amplitude, only the ratios <y|phi> / <x|phi> of
    each column row y to its row x.  They differ only on the qubits the
    operator may flip (``EcsOperation.flip_mask``), so the cost per mask is
    set by those qubits and the diagonal gates touching them, not by n.
    The amplitudes of the distinct rows are computed once, to reject a row
    of amplitude 0 (a sampler that disagrees with the amplitudes)."""

    def __init__(self, state: CtState, cfg: EstimatorConfig,
                 rng: np.random.Generator):
        draws = [
            np.unique(_bits.bits_to_index(state.sample_bits(g, cfg.batch_size)),
                      return_counts=True)
            for g in rng.spawn(cfg.batch_count)]
        packed = np.unique(np.concatenate([rows for rows, _ in draws]))
        self.state = state
        self.batch_size = cfg.batch_size
        self.samples = cfg.batch_size * cfg.batch_count
        self.rows = _bits.index_to_bits(packed, state.n)
        if np.any(state.amplitudes(self.rows) == 0.0):
            raise ValidationError("a sampled row has amplitude 0; the state's "
                                  "sampler and amplitudes disagree")
        self._counts = np.zeros((len(packed), cfg.batch_count))
        for k, (rows, counts) in enumerate(draws):
            self._counts[np.searchsorted(packed, rows), k] = counts
        self._totals = self._counts.sum(axis=1)

    def estimate(self, ops) -> EstimatorStats:
        """Per operator of a block, the median of the batch means of f, the
        row-x sum over the column oracle of conj(beta) times the amplitude
        ratio, evaluated once per distinct row; one product each gives its
        batch means and second moment, one median serves the block."""
        means = np.empty((len(ops), self._counts.shape[1]))
        second = np.empty(len(ops))
        for i, op in enumerate(ops):
            if self.state.n != op.n:
                raise ValidationError("state and operator widths disagree")
            betas, gammas = op.columns_bits(self.rows)
            ratios = self.state.amplitude_ratios(
                self.rows, gammas, _bits.mask_to_qubits(op.flip_mask, op.n))
            f = np.einsum("rw,rw->r", np.conj(betas), ratios).real
            means[i] = np.einsum("r,rk->k", f, self._counts) / self.batch_size
            second[i] = np.einsum("r,r,r->", f, f, self._totals) / self.samples
        return EstimatorStats(np.median(means, axis=1), means, second)


def estimate_expectation_detailed(
    state: CtState,
    op: EcsOperation,
    cfg: EstimatorConfig,
    rng: np.random.Generator | None = None,
) -> EstimatorStats:
    """Median of batch means of f, after a spot check of the operator.

    The batches draw from substreams spawned from ``rng``; the check's
    draws on ``rng`` itself leave those substreams unchanged.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    check_ecs_observable(op, rng)
    st = BornSample(state, cfg, rng).estimate([op])
    return EstimatorStats(float(st.value[0]), st.batch_means[0],
                          float(st.second_moment[0]))


# --- coefficient sources -------------------------------------------------------------

class CoefficientSource(abc.ABC):
    """Produces <0|U^dag V^dag Z^s V U|0> values for one decomposition,
    one per mask of a list."""

    @abc.abstractmethod
    def expectations(self, masks, rng: np.random.Generator) -> np.ndarray: ...

    @abc.abstractmethod
    def describe(self) -> dict: ...

    def diagnostics(self) -> dict | None:
        """Run diagnostics for reports; None when the source has none."""
        return None


class ExactCoefficients(CoefficientSource):
    """Dense route: one state-vector simulation, kept as ``distribution``,
    and its Walsh transform."""

    def __init__(self, decomp: CtEcsDecomposition):
        self.decomp = decomp
        self.distribution = oracle.output_distribution(decomp.circuit)
        self._expectations = oracle.walsh_hadamard(self.distribution.p)

    def expectations(self, masks, rng: np.random.Generator) -> np.ndarray:
        return self._expectations[np.asarray(masks, dtype=np.int64)]

    def describe(self) -> dict:
        return {"type": "exact"}


class EstimatedCoefficients(CoefficientSource):
    """Sampled route through the CT-state / column-oracle estimator; each
    call draws one ``BornSample`` for all its masks.  Sampled rows are packed
    into int64, so registers are limited to ``_bits.MAX_PACKED_BITS`` qubits.
    ``check_s`` adds up the wall time of the operators' spot checks.
    """

    def __init__(self, decomp: CtEcsDecomposition, cfg: EstimatorConfig):
        if decomp.n > _bits.MAX_PACKED_BITS:
            raise ResourceLimitError(
                f"the estimator supports at most {_bits.MAX_PACKED_BITS} qubits "
                f"(int64 row packing), got {decomp.n}")
        self.decomp = decomp
        self.cfg = cfg
        self._state = ct_state_of(decomp.u_block)
        self.check_s = 0.0
        self._diagnostics = {
            "masks": 0, "rows_drawn": 0, "distinct_rows": 0,
            "second_moment_max": 0.0, "batch_mean_spread_max": 0.0}

    def expectations(self, masks, rng: np.random.Generator) -> np.ndarray:
        if len(masks) == 0:
            return np.zeros(0)
        sample = BornSample(self._state, self.cfg, rng)
        stats = [self._estimate(sample, masks[i:i + BLOCK_MASKS], rng)
                 for i in range(0, len(masks), BLOCK_MASKS)]
        diag = self._diagnostics
        diag["masks"] += len(masks)
        diag["rows_drawn"] += sample.samples
        diag["distinct_rows"] += len(sample.rows)
        diag["second_moment_max"] = max(diag["second_moment_max"], *(
            float(st.second_moment.max()) for st in stats))
        diag["batch_mean_spread_max"] = max(diag["batch_mean_spread_max"], *(
            float(np.ptp(st.batch_means, axis=1).max()) for st in stats))
        return np.concatenate([st.value for st in stats])

    def _estimate(self, sample: BornSample, masks,
                  rng: np.random.Generator) -> EstimatorStats:
        """One block of masks on the shared sample, checked as one (up to a
        mask whose operator cannot be built, so the earlier failure raises).
        Its operators are freed on return; their factors stay memoised."""
        ops = []
        try:
            for mask in masks:
                ops.append(ecs_for(self.decomp, int(mask)))
        finally:
            started = time.perf_counter()
            check_ecs_observable(ops, rng)
            self.check_s += time.perf_counter() - started
        return sample.estimate(ops)

    def describe(self) -> dict:
        return {"type": "estimator", "config": self.cfg.to_json_dict()}

    def diagnostics(self) -> dict:
        """Estimator aggregates: the rows drawn and the distinct rows among
        them (one Born sample per call), the masks estimated, the largest
        empirical second moment and the widest spread (max - min) of one
        mask's batch means."""
        return {"estimator": dict(self._diagnostics)}


def check_degree(n: int, c: int) -> None:
    """Reject a degree cutoff outside [0, n] or with more masks than
    ``MASK_BUDGET``, before any coefficient is computed."""
    if not 0 <= c <= n:
        raise ValidationError(f"degree cutoff {c} outside [0, {n}]")
    count = _bits.mask_count(n, c)
    if count > MASK_BUDGET:
        raise ResourceLimitError(
            f"degree {c} needs {count} masks, over the budget of {MASK_BUDGET}; "
            "lower c (or c_max)")


def build_low_degree_table(
    decomp: CtEcsDecomposition,
    c: int,
    source: CoefficientSource,
    rng: np.random.Generator | None = None,
) -> FourierTable:
    """Coefficient table over all masks of weight <= c.

    The zero mask is pinned to 1/2**n; the rest come from one source call
    on ``rng``, in enumeration order (weight-major, lexicographic within
    weight).
    """
    n = decomp.n
    check_degree(n, c)
    if rng is None:
        rng = np.random.default_rng(0)
    scale = 0.5 ** n
    masks = _bits.masks_up_to_weight(n, c)[1:]
    values = source.expectations(masks, rng) * scale
    return FourierTable(n, c, {0: scale, **dict(zip(masks, values.tolist()))})
