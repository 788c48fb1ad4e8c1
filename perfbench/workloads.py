"""The benchmark's workloads: inputs made from a seed, the ``ctecs`` CLI
calls that form one cycle, and the checks of each call's output.

Every operation is one in-process ``ctecs.cli.main`` call with the CLI
default of one thread.  Instances are generated from the benchmark seed
and written to files, so the program receives only those files.  Checks
compare each output with the dense oracle and run outside the timed
region.  Workloads stay at n <= 20 so that every output can be checked.

- ``estimate-n12``: ``ctecs fourier --source estimator --compare-oracle``,
  one call per family at n=12, c=2 (78 nonzero masks), B=10,000, K=9.
  The estimator layers (CT-state amplitudes, column oracles, the
  median-of-means loop) take nearly all of it; the sampler is never
  called.  ConstantDepth has U = identity, so its estimates are exact yet
  cost a full table of sampling: wasted work the trace exposes.
- ``walk-n20``: ``ctecs sample`` in mode A, IQP at n=20, exact source,
  c_max=4 (6,196 masks), alpha assumed, 65,536 samples to a file.  The
  sampler walk and the dense simulation inside ``ExactCoefficients``
  dominate; the estimator is never called.  The largest register whose
  output the dense oracle can still check.
- ``verify-n16``: ``ctecs sample --verify`` in mode A, IQP at n=16, exact
  source, c_max=4 (2,517 masks), alpha measured, eps=lambda=0.3,
  delta=0.4, 8,192 samples.  The breadth-first enumerator and three dense
  simulations of the same circuit dominate, the walk is a quarter.  At
  n=18 the enumerator's float parity matrices peak at 2.6 GB.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ctecs import _bits, oracle
from ctecs.circuits import (
    CLIFFORD_MAGIC,
    CONJUGATED_CLIFFORD,
    CONSTANT_DEPTH,
    IQP,
    DyadicAngle,
    build_conjugated_clifford,
    decomposition_to_json_dict,
    random_clifford_gates,
    random_family_instance,
)
from ctecs.fourier import FourierTable
from ctecs.sampler import enumerate_alg_distribution

FAMILIES = (IQP, CLIFFORD_MAGIC, CONJUGATED_CLIFFORD, CONSTANT_DEPTH)


@dataclass
class Op:
    """One CLI call, the files it writes, and what its check needs."""

    argv: list[str]
    outputs: dict[str, Path]
    decomp: object
    rc: int | None = None
    seconds: float = 0.0
    error: str | None = None
    check: dict = field(default_factory=dict)

    @property
    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outputs.values() if p.exists())


def op_seed(seed: int, cycle: int, index: int) -> int:
    """Seed passed to the CLI for one call (fits the CLI's int argument)."""
    state = np.random.SeedSequence([seed, cycle, index]).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


def _instance(family: str, n: int, rng: np.random.Generator):
    if family == CONJUGATED_CLIFFORD:
        # the general angle class pi/4 on both rotations, so V^dag Z_j V is
        # a three-term Pauli combination; smaller angles collapse it to one
        # signed Pauli (the CliffordMagic case) and make the cost of an
        # instance depend on which class the seed happened to draw
        phi = DyadicAngle(1 if rng.integers(2) else -1, 3)
        theta = DyadicAngle(1 if rng.integers(2) else -1, 3)
        return build_conjugated_clifford(
            n, phi, theta, random_clifford_gates(rng, n, 3 * n))
    return random_family_instance(family, n, rng)


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, sort_keys=True))
    return path


def _read_report(op: Op) -> dict:
    with open(op.outputs["report"]) as handle:
        return json.load(handle)


def _read_samples(path: Path, count: int, n: int) -> np.ndarray:
    lines = path.read_text().splitlines()
    if len(lines) != count:
        raise ValueError(f"{len(lines)} samples, expected {count}")
    if any(len(line) != n for line in lines):
        raise ValueError(f"a sample is not {n} bits long")
    data = np.frombuffer("".join(lines).encode(), dtype=np.uint8) - ord("0")
    if np.any(data > 1):
        raise ValueError("a sample holds a character other than 0 or 1")
    return data.reshape(count, n)


def _dense_expectations(decomp) -> np.ndarray:
    """<Z^s> for every mask s, from the dense state vector."""
    return oracle.walsh_hadamard(oracle.output_distribution(decomp.circuit).p)


@dataclass(frozen=True)
class Estimate:
    n: int = 12
    c: int = 2
    batch_size: int = 10_000
    batch_count: int = 9

    @property
    def tau(self) -> float:
        """Accuracy of EstimatorConfig.from_accuracy for this batch size."""
        return 2.0 / math.sqrt(self.batch_size)

    def cycle(self, seed: int, cycle: int, workdir: Path) -> list[Op]:
        ops = []
        for index, family in enumerate(FAMILIES):
            rng = np.random.default_rng([seed, cycle, index])
            decomp = _instance(family, self.n, rng)
            stem = workdir / f"c{cycle}-{family.lower()}"
            circuit = _write_json(stem.with_suffix(".json"),
                                  decomposition_to_json_dict(decomp))
            report = stem.with_suffix(".report.json")
            ops.append(Op(
                ["fourier", "--circuit", str(circuit), "--c", str(self.c),
                 "--source", "estimator", "--batch-size", str(self.batch_size),
                 "--batch-count", str(self.batch_count), "--compare-oracle",
                 "--seed", str(op_seed(seed, cycle, index)),
                 "--out", str(report)],
                {"report": report}, decomp))
        return ops

    def check(self, op: Op) -> None:
        report = _read_report(op)
        n = self.n
        entries = report["table"]["entries"]
        got = {_bits.string_to_index(e["s"]): float(e["v"]) for e in entries}
        want = set(_bits.masks_up_to_weight(n, self.c))
        if set(got) != want:
            raise ValueError("table masks differ from all masks of weight <= c")
        truth = _dense_expectations(op.decomp)
        masks = np.array(sorted(got), dtype=np.int64)
        values = np.array([got[m] for m in masks]) * (1 << n)
        err = float(np.max(np.abs(values - truth[masks])))
        op.check["coef_err_max"] = err
        if not err <= self.tau:
            raise ValueError(f"coefficient error {err:.4g} above tau={self.tau:.4g}")
        if "oracle_comparison" not in report:
            raise ValueError("report lacks the oracle comparison")


@dataclass(frozen=True)
class _Sample:
    """Shared part of the two ``ctecs sample`` workloads (IQP, mode A)."""

    n: int
    c_max: int
    samples: int

    def _config(self, circuit: Path, seed: int) -> dict:
        raise NotImplementedError

    def _extra_args(self) -> list[str]:
        return []

    def cycle(self, seed: int, cycle: int, workdir: Path) -> list[Op]:
        rng = np.random.default_rng([seed, cycle, 0])
        decomp = random_family_instance(IQP, self.n, rng)
        stem = workdir / f"c{cycle}-iqp"
        circuit = _write_json(stem.with_suffix(".json"),
                              decomposition_to_json_dict(decomp))
        config = _write_json(stem.with_suffix(".config.json"),
                             self._config(circuit, op_seed(seed, cycle, 0)))
        report = stem.with_suffix(".report.json")
        samples = stem.with_suffix(".samples.txt")
        return [Op(
            ["sample", "--config", str(config), *self._extra_args(),
             "--samples-out", str(samples), "--out", str(report)],
            {"report": report, "samples": samples}, decomp)]


@dataclass(frozen=True)
class Walk(_Sample):
    n: int = 20
    c_max: int = 4
    samples: int = 65_536
    delta: float = 0.4
    lam: float = 0.2
    # the sample marginal on the first m qubits is compared with the
    # sampler's exact law for that prefix
    check_qubits: int = 8

    def _config(self, circuit: Path, seed: int) -> dict:
        return {"circuit": str(circuit), "mode": "A", "alpha": {"assume": 1.0},
                "delta": self.delta, "lambda": self.lam,
                "source": {"type": "exact"}, "c_max": self.c_max,
                "num_samples": self.samples, "seed": seed}

    def prefix_law(self, decomp, c_used: int) -> np.ndarray:
        """Exact law of the first m sampled bits.

        The walk's first m steps read only masks supported on the first m
        qubits, so the enumerator on that restricted table (rescaled to m
        qubits, same attenuation) gives the law of the prefix.
        """
        n, m = self.n, self.check_qubits
        truth = _dense_expectations(decomp)
        entries = {}
        for small in _bits.masks_up_to_weight(m, min(c_used, m)):
            weight = _bits.mask_weight(small)
            value = truth[small << (n - m)] * (1.0 - self.lam) ** weight
            entries[small] = value * 0.5 ** m if small else 0.5 ** m
        table = FourierTable(m, min(c_used, m), entries)
        return enumerate_alg_distribution(table).p

    def check(self, op: Op) -> None:
        report = _read_report(op)
        m = self.check_qubits
        bits = _read_samples(op.outputs["samples"], self.samples, self.n)
        law = self.prefix_law(op.decomp, int(report["report"]["c_used"]))
        counts = np.bincount(_bits.bits_to_index(bits[:, :m]), minlength=1 << m)
        l1 = float(np.abs(counts / self.samples - law).sum())
        # E[l1] <= sqrt(2 * 2**m / (pi * N)); twice sqrt(2**m / N) sits
        # several standard deviations above it
        limit = 2.0 * math.sqrt((1 << m) / self.samples)
        op.check["walk_marginal_l1"] = l1
        if not l1 <= limit:
            raise ValueError(f"prefix marginal l1 {l1:.4g} above {limit:.4g}")


@dataclass(frozen=True)
class Verify(_Sample):
    n: int = 16
    c_max: int = 4
    samples: int = 8_192
    delta: float = 0.4
    # at lambda = 0.2 the c_max = 4 truncation left l1 up to 0.35 against
    # the delta = 0.4 target over 25 instances, so a run of ten instances
    # would fail now and then; at 0.3 the worst of 25 was 0.17
    lam: float = 0.3
    epsilon: float = 0.3

    def _config(self, circuit: Path, seed: int) -> dict:
        return {"circuit": str(circuit), "mode": "A", "alpha": {"measure": True},
                "delta": self.delta, "lambda": self.lam,
                "epsilon": self.epsilon, "source": {"type": "exact"},
                "c_max": self.c_max, "num_samples": self.samples, "seed": seed}

    def _extra_args(self) -> list[str]:
        return ["--verify"]

    def check(self, op: Op) -> None:
        report = _read_report(op)
        _read_samples(op.outputs["samples"], self.samples, self.n)
        verification = report["verification"]
        l1 = float(verification["l1_enumerated_vs_dense"])
        op.check["l1_enum"] = l1
        if verification.get("within_target") is not True:
            raise ValueError(f"l1 {l1:.4g} not within the target "
                             f"{verification.get('l1_target')}")


WORKLOADS = {
    "estimate-n12": Estimate(),
    "walk-n20": Walk(),
    "verify-n16": Verify(),
}

# Same code paths at toy sizes: the set-up warm-up and the self-test.
TINY = {
    "estimate-n12": Estimate(n=5, batch_size=400),
    "walk-n20": Walk(n=8, samples=4_096, check_qubits=4),
    "verify-n16": Verify(n=8, samples=1_024),
}
