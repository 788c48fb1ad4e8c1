"""Sequential marginal sampling from a truncated coefficient table, plus
the model-A / model-B / few-qubit-marginal simulation pipelines.

The sampler extends a prefix y one bit at a time using the partial sums

    S_y = 2**(n-k) * sum_{masks s on the first k qubits} q_hat(s) (-1)**(s.y)

choosing 0 with probability S_y0 / S_y, except that a negative child is
never entered (the sign-fix rule).  Along any executed path S_y >= 0, and
the output law Alg(q) differs from q in l1 by exactly twice q's negative
mass.  Partial sums are carried incrementally: appending bit z updates
A <- A + (-1)**z * B where B sums the masks whose highest set qubit is k.

At level k the branch term B is a multilinear polynomial in the signs
z_j = 1 - 2 y_j of the k prefix bits, with one monomial per mask: the
mask's prefix qubits.  Each level stores that polynomial once per table,
in whichever exact form has fewer entries:

- a value table: B at all 2**k prefixes (one Walsh-Hadamard transform of
  the level's coefficients), read at the packed prefix index;
- coefficient tensors: for each prefix degree d present, a dense k**d
  tensor holding each mask's value at its prefix qubits, contracted with
  z one axis at a time (the first axis is one matrix product).

Full marginal tables take value tables (a k**d tensor for every d <= k
would dwarf 2**k); degree-c tables take tensors of about k**(c-1) entries
once 2**k is larger.  The contraction works through the prefixes in
blocks of rows, so no intermediate exceeds ``_BLOCK_BYTES``.

Sampling draws are organized in fixed-size chunks of 8192 samples, each on
its own spawned RNG substream; results are reproducible for a given seed
and independent of how chunks are scheduled.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import _bits, oracle
from .circuits import CtEcsDecomposition
from .errors import ResourceLimitError, ValidationError
from .fourier import (
    MASK_BUDGET,
    CoefficientSource,
    FourierTable,
    LambdaCheck,
    attenuate,
    build_low_degree_table,
    choose_degree,
    theory_accuracy_denominator,
    validate_lambda,
)

CHUNK_SIZE = 8192
_PATH_TOL = -1e-9
# widest intermediate of one contraction block of the level kernel
_BLOCK_BYTES = 1 << 25


# --- partial sums ---------------------------------------------------------------

def marginal_sum(table: FourierTable, y) -> float:
    """S_y for a prefix y (string or bit sequence) of length 0..n."""
    if isinstance(y, str):
        ybits = _bits.string_to_bits(y) if y else np.zeros(0, dtype=np.uint8)
    else:
        ybits = np.asarray(y, dtype=np.uint8)
    k = len(ybits)
    n = table.n
    if k > n:
        raise ValidationError(f"prefix longer than {n} bits")
    low = (1 << (n - k)) - 1
    y_int = int(_bits.bits_to_index(ybits)) if k else 0
    total = 0.0
    for mask, value in zip(table.masks, table.values):
        if mask & low:
            continue
        sign = -1.0 if _bits.parity((mask >> (n - k)) & y_int) else 1.0
        total += value * sign
    return float(2 ** (n - k) * total)


def _mask_qubits(masks: np.ndarray, n: int, width: int) -> np.ndarray:
    """(M, width) qubits of each mask, highest first, padded with -1."""
    out = np.full((len(masks), width), -1, dtype=np.int64)
    rest = masks.copy()
    for i in range(width):
        # the highest qubit of a mask is its lowest set bit
        low = rest & -rest
        out[:, i] = np.where(
            low > 0, n - 1 - np.log2(np.maximum(low, 1)).astype(np.int64), -1)
        rest ^= low
    return out


def _contract(tensor: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum over t of tensor[t_1, ..., t_d] * z[:, t_1] * ... * z[:, t_d]."""
    if tensor.ndim == 0:
        return np.full(len(z), float(tensor))
    out = z @ tensor.reshape(len(tensor), -1)
    for _ in range(tensor.ndim - 1):
        out = np.matmul(z[:, None, :], out.reshape(len(z), z.shape[1], -1))[:, 0]
    return out[:, 0]


class _LevelData:
    """Per-level branch polynomials: level k holds the masks whose highest
    qubit is k, as a value table or as coefficient tensors (module doc)."""

    def __init__(self, table: FourierTable):
        n = self.n = table.n
        masks, values = table.masks, table.values
        self.zero_value = float(values[masks == 0][0])
        qubits = _mask_qubits(masks, n, max(table.c, 1))
        weight = (qubits >= 0).sum(axis=1)
        # per level: a value table (ndarray) or a list of tensors
        self.forms: list = []
        for k in range(n):
            pick = qubits[:, 0] == k
            degrees = [int(d) for d in np.unique(weight[pick]) - 1]
            if 1 << k <= sum(k ** d for d in degrees):
                coeffs = np.zeros(1 << k)
                coeffs[masks[pick] >> (n - k)] = values[pick]
                self.forms.append(oracle.walsh_hadamard(coeffs))
            else:
                tensors = []
                for d in degrees:
                    rows = pick & (weight == d + 1)
                    flat = qubits[rows, 1:d + 1] @ (k ** np.arange(d - 1, -1, -1))
                    tensor = np.zeros(k ** d)
                    tensor[flat] = values[rows]
                    tensors.append(tensor.reshape((k,) * d))
                self.forms.append(tensors)

    def step(self, k: int, prefixes: np.ndarray, partial: np.ndarray):
        """Children sums (s0, s1) and the branch term B at level k.

        ``prefixes`` holds one row per prefix with its first k bits set;
        ``partial`` is the carried sum A of each prefix.
        """
        form = self.forms[k]
        if isinstance(form, np.ndarray):
            branch = form[_bits.bits_to_index(prefixes[:, :k])]
        else:
            branch = np.zeros(len(partial))
            widest = max([1, k] + [t.size // k for t in form if t.ndim > 1])
            block = max(1, _BLOCK_BYTES // (8 * widest))
            for start in range(0, len(partial), block):
                z = 1.0 - 2.0 * prefixes[start:start + block, :k]
                for tensor in form:
                    branch[start:start + block] += _contract(tensor, z)
        factor = float(2 ** (self.n - k - 1))
        return factor * (partial + branch), factor * (partial - branch), branch


def _child_split(s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Probability of appending 0, with the sign-fix rule applied.

    A negative child is never chosen over a nonnegative one; when both
    children vanish the branch is uniform (a measure-zero path, so any
    choice preserves the fix identity).  Both children negative can only
    occur on zero-mass prefixes (S_y < 0 is never entered), where the
    split is irrelevant; the enumerator asserts exactly that.
    """
    neg0 = s0 < 0.0
    neg1 = s1 < 0.0
    total = s0 + s1
    safe = np.where(total > 0.0, total, 1.0)
    p0 = np.where(total > 0.0, np.clip(s0 / safe, 0.0, 1.0), 0.5)
    p0 = np.where(neg0 & ~neg1, 0.0, p0)
    p0 = np.where(neg1 & ~neg0, 1.0, p0)
    p0 = np.where(neg0 & neg1, 0.5, p0)
    return p0


def _walk_chunk(
    levels: _LevelData, rng: np.random.Generator, count: int
) -> np.ndarray:
    n = levels.n
    bits = np.zeros((count, n), dtype=np.uint8)
    partial = np.full(count, levels.zero_value)
    visited = np.full(count, float(2 ** n) * levels.zero_value)
    if np.any(visited < _PATH_TOL):
        raise AssertionError("S at the empty prefix is negative")
    for k in range(n):
        s0, s1, branch = levels.step(k, bits, partial)
        p0 = _child_split(s0, s1)
        chose1 = rng.random(count) >= p0
        bits[:, k] = chose1
        partial = np.where(chose1, partial - branch, partial + branch)
        visited = np.where(chose1, s1, s0)
        if np.any(visited < _PATH_TOL):
            raise AssertionError("walked onto a negative partial sum")
    return bits


def sample_alg_batch(
    table: FourierTable, rng: np.random.Generator, size: int
) -> np.ndarray:
    """(size, n) uint8 samples from Alg(q) for the table's function q."""
    if size < 0:
        raise ValidationError(f"sample count must be >= 0, got {size}")
    levels = _LevelData(table)
    chunks = [CHUNK_SIZE] * (size // CHUNK_SIZE)
    if size % CHUNK_SIZE:
        chunks.append(size % CHUNK_SIZE)
    if not chunks:
        return np.zeros((0, table.n), dtype=np.uint8)
    streams = rng.spawn(len(chunks))
    return np.concatenate(
        [_walk_chunk(levels, stream, count) for stream, count in zip(streams, chunks)])


def enumerate_alg_distribution(table: FourierTable) -> oracle.DistVector:
    """Exact output law of the sampler, by walking every prefix."""
    n = table.n
    oracle._check_cap(n, oracle.DENSE_CAP, "enumeration")
    levels = _LevelData(table)
    mass = np.array([1.0])
    partial = np.array([levels.zero_value])
    for k in range(n):
        prefixes = _bits.index_to_bits(np.arange(1 << k), k) if k else \
            np.zeros((1, 0), dtype=np.uint8)
        s0, s1, branch = levels.step(k, prefixes, partial)
        dead = (s0 < _PATH_TOL) & (s1 < _PATH_TOL)
        if np.any(mass[dead] > 1e-15):
            raise AssertionError("positive mass reached a negative partial sum")
        p0 = _child_split(s0, s1)
        mass = np.stack([mass * p0, mass * (1.0 - p0)], axis=1).reshape(-1)
        partial = np.stack([partial + branch, partial - branch], axis=1).reshape(-1)
    return oracle.DistVector(n, mass)


def negative_mass(table: FourierTable) -> float:
    """sum over q(x) < 0 of |q(x)| (dense; test and diagnostics helper)."""
    q = table.dense_values()
    return float(-q[q < 0.0].sum())


# --- pipelines -------------------------------------------------------------------

@dataclass
class SimulationResult:
    samples: np.ndarray
    table: FourierTable
    report: dict

    def sample_strings(self) -> list[str]:
        count, n = self.samples.shape
        text = (self.samples + ord("0")).astype(np.uint8).tobytes().decode("ascii")
        return [text[i * n:(i + 1) * n] for i in range(count)]


def _theory_constants(n: int, alpha: float, delta: float, lam: float) -> dict:
    c = choose_degree(alpha, delta, lam)
    f_n = theory_accuracy_denominator(n, c, delta)
    batch = 4.0 * f_n * f_n
    return {
        "c": c,
        "f_n": f_n,
        "coefficient_accuracy": 1.0 / f_n,
        "batch_size": batch,
        "batch_count_for_exp_n_confidence": 8.0 * (n + np.log(2.0)),
        "note": "reported only; experiment mode runs the configured sizes",
    }


def simulate_model_a(
    decomp: CtEcsDecomposition,
    alpha: float,
    delta: float,
    lam: float,
    source: CoefficientSource,
    rng: np.random.Generator,
    num_samples: int,
    *,
    c_max: int = 4,
    true_epsilon: float | None = None,
) -> SimulationResult:
    """Uniform-rate pipeline: truncated table, attenuation by lam, Alg(q).

    ``c_max`` caps the degree actually enumerated (the theory-mode value is
    reported alongside); ``true_epsilon``, when known, adds the advisory
    rate-knowledge check to the report without gating execution.
    """
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"lambda must lie in (0, 1), got {lam}")
    n = decomp.n
    c_theory = choose_degree(alpha, delta, lam)
    c_used = min(c_theory, c_max, n)
    table_rng, sample_rng = rng.spawn(2)
    started = time.perf_counter()
    raw = build_low_degree_table(decomp, c_used, source, table_rng)
    built = time.perf_counter()
    table = attenuate(raw, lam)
    samples = sample_alg_batch(table, sample_rng, num_samples)
    done = time.perf_counter()
    check: LambdaCheck | None = None
    if true_epsilon is not None:
        check = validate_lambda(alpha, delta, lam, true_epsilon)
        if not check.ok:
            # advisory only: experiments may probe rate-knowledge violation
            warnings.warn(
                f"lambda={lam} violates the rate-knowledge bound "
                f"(ratio {check.ratio:.4f}, bound {check.bound:.4f})",
                stacklevel=2)
    report = {
        "model": "A",
        "family": decomp.family,
        "n": n,
        "alpha": alpha,
        "delta": delta,
        "lambda": lam,
        "c_theory": c_theory,
        "c_used": c_used,
        "mask_count": len(table.masks),
        "num_samples": num_samples,
        "source": source.describe(),
        "theory_mode": _theory_constants(n, alpha, delta, lam),
        "lambda_check": None if check is None else check.to_json_dict(),
        "timings": {"table_s": built - started, "sampling_s": done - built},
    }
    return SimulationResult(samples=samples, table=table, report=report)


@dataclass(frozen=True)
class ModelBPlan:
    """Rate knowledge for per-qubit noise: lambda_min plus lambda_j for the
    (known) qubits whose rate differs from the minimum."""

    lambda_min: float
    lambda_by_qubit: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if not 0.0 < self.lambda_min < 1.0:
            raise ValidationError("lambda_min must lie in (0, 1)")
        object.__setattr__(
            self, "lambda_by_qubit",
            tuple((int(j), float(l)) for j, l in self.lambda_by_qubit))
        for j, lam_j in self.lambda_by_qubit:
            delta = (lam_j - self.lambda_min) / (1.0 - self.lambda_min)
            if not 0.0 <= delta <= 1.0:
                raise ValidationError(
                    f"qubit {j}: residual flip weight {delta} outside [0, 1]")

    @classmethod
    def from_rates(cls, rates) -> "ModelBPlan":
        rates = [float(r) for r in rates]
        lam_min = min(rates)
        listed = tuple((j, r) for j, r in enumerate(rates) if r != lam_min)
        return cls(lam_min, listed)

    def residual_deltas(self, n: int) -> np.ndarray:
        """delta'_j = (lambda_j - lambda_min) / (1 - lambda_min), 0 if unlisted."""
        deltas = np.zeros(n)
        for j, lam_j in self.lambda_by_qubit:
            if not 0 <= j < n:
                raise ValidationError(f"qubit {j} outside register")
            deltas[j] = (lam_j - self.lambda_min) / (1.0 - self.lambda_min)
        return deltas


def simulate_model_b(
    decomp: CtEcsDecomposition,
    alpha: float,
    delta: float,
    plan: ModelBPlan,
    source: CoefficientSource,
    rng: np.random.Generator,
    num_samples: int,
    *,
    c_max: int = 4,
    true_epsilon_min: float | None = None,
) -> SimulationResult:
    """Per-qubit-rate pipeline: model A at lambda_min, then biased-coin
    flips of qubit j with probability delta'_j / 2."""
    n = decomp.n
    pipeline_rng, flip_rng = rng.spawn(2)
    base = simulate_model_a(
        decomp, alpha, delta, plan.lambda_min, source, pipeline_rng, num_samples,
        c_max=c_max, true_epsilon=true_epsilon_min)
    deltas = plan.residual_deltas(n)
    flips = flip_rng.random((num_samples, n)) < (deltas / 2.0)
    samples = base.samples ^ flips.astype(np.uint8)
    report = dict(base.report)
    report.update({
        "model": "B",
        "lambda_min": plan.lambda_min,
        "residual_deltas": deltas.tolist(),
        "residual_flip_probabilities": (deltas / 2.0).tolist(),
        "degenerates_to_model_a": bool(np.all(deltas == 0.0)),
        "l1_bound": (1.0 + 1.0 / (1.0 - plan.lambda_min)) * delta,
    })
    return SimulationResult(samples=samples, table=base.table, report=report)


def check_measured(measured, n: int) -> list[int]:
    """The measured qubits as ints, checked before any coefficient is
    computed: at least one, distinct, inside the register, and with its
    2**m - 1 nonzero masks within ``MASK_BUDGET``."""
    measured = [int(q) for q in measured]
    if not measured:
        raise ValidationError("at least one qubit must be measured")
    if len(set(measured)) != len(measured):
        raise ValidationError("measured qubits must be distinct")
    if any(not 0 <= q < n for q in measured):
        raise ValidationError("measured qubit outside register")
    count = (1 << len(measured)) - 1
    if count > MASK_BUDGET:
        raise ResourceLimitError(
            f"{len(measured)} measured qubits need {count} masks, over the "
            f"budget of {MASK_BUDGET}")
    return measured


def marginal_table(
    decomp: CtEcsDecomposition,
    measured,
    source: CoefficientSource,
    rng: np.random.Generator,
) -> FourierTable:
    """Full coefficient table of the marginal on the measured qubits.

    All 2**m - 1 nonzero masks are obtained from the source (no degree
    truncation, no attenuation); the zero mask is pinned to 1/2**m.
    """
    measured = check_measured(measured, decomp.n)
    n = decomp.n
    m = len(measured)
    scale = 0.5 ** m
    masks = [_bits.qubits_to_mask([measured[i] for i in _bits.mask_to_qubits(sm, m)], n)
             for sm in range(1, 1 << m)]
    values = source.expectations(masks, rng) * scale
    return FourierTable(m, m, {0: scale, **dict(enumerate(values.tolist(), 1))})


def simulate_marginal(
    decomp: CtEcsDecomposition,
    measured,
    source: CoefficientSource,
    rng: np.random.Generator,
    num_samples: int,
) -> SimulationResult:
    """Noise-free sampling of the marginal on O(log n) measured qubits."""
    table_rng, sample_rng = rng.spawn(2)
    started = time.perf_counter()
    table = marginal_table(decomp, measured, source, table_rng)
    built = time.perf_counter()
    samples = sample_alg_batch(table, sample_rng, num_samples)
    done = time.perf_counter()
    report = {
        "model": "marginal",
        "family": decomp.family,
        "n": decomp.n,
        "measured": [int(q) for q in measured],
        "mask_count": len(table.masks),
        "num_samples": num_samples,
        "source": source.describe(),
        "timings": {"table_s": built - started, "sampling_s": done - built},
    }
    return SimulationResult(samples=samples, table=table, report=report)
