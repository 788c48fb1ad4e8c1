"""Experiment harness: generate circuit instances, run the sampling
pipelines, compare against the dense oracle, and emit reproducible JSON
reports.

Subcommands: gen, exact, fourier, sample, verify, report.  Every run is
driven by a single 64-bit master seed; submodule streams derive from it by
labeled splitting (see ``seeding``), so the seed fixes the report.  Exit
codes: 0 success, 2 usage error, 3 resource cap exceeded, 4 verification
failure.  The caps are module constants, not options; a command that will
compare against the dense oracle checks ``oracle.DENSE_CAP``, and
``fourier`` and ``sample`` their degree cutoff or measured qubits against
``fourier.MASK_BUDGET``, before it builds a coefficient source.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import oracle, seeding
from .checks import SUITES
from .circuits import (
    FAMILIES,
    Circuit,
    CtEcsDecomposition,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    random_family_instance,
)
from .errors import ResourceLimitError, ValidationError
from .fourier import (
    EstimatedCoefficients,
    EstimatorConfig,
    ExactCoefficients,
    build_low_degree_table,
    check_degree,
    choose_degree,
)
from .noise import NoiseSpec, flip_convolve
from .sampler import (
    ModelBPlan,
    check_measured,
    enumerate_alg_distribution,
    negative_mass,
    simulate_marginal,
    simulate_model_a,
    simulate_model_b,
)

REPORT_SCHEMA = "ctecs-report/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value)}")


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=_jsonable)
    if out:
        _write_atomic(Path(out), text)
    else:
        print(text)


def _read_json(path: str):
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError(f"{path} is not a JSON file: {exc}") from None


def _number(config: dict, key: str, kind=float, default=None):
    """``kind`` of the config value at ``key`` (``default`` when absent);
    a value that is not a number is a usage error."""
    value = config.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"config {key!r} must be a number, got {value!r}") from None


def _in_unit_interval(config: dict, key: str) -> float:
    """The config number at ``key``, which must lie in (0, 1)."""
    value = _number(config, key)
    if not 0.0 < value < 1.0:
        raise ValidationError(f"config {key!r} must lie in (0, 1), got {value}")
    return value


def _numbers(config: dict, key: str, kind=float) -> list:
    """``kind`` of each entry of the non-empty config list at ``key``."""
    values = config[key]
    try:
        if isinstance(values, list) and values:
            return [kind(v) for v in values]
    except (TypeError, ValueError):
        pass
    raise ValidationError(
        f"config {key!r} must be a non-empty list of numbers, got {values!r}")


def _qubit_rates(config: dict) -> tuple[tuple[int, float], ...]:
    """The config's ``lambda_by_qubit`` object as (qubit, rate) pairs."""
    rates = config.get("lambda_by_qubit", {})
    try:
        if isinstance(rates, dict):
            return tuple({int(j): float(v) for j, v in rates.items()}.items())
    except (TypeError, ValueError):
        pass
    raise ValidationError(
        f"config 'lambda_by_qubit' must map qubits to rates, got {rates!r}")


def _load_decomposition(path: str) -> CtEcsDecomposition:
    data = _read_json(path)
    if isinstance(data, dict) and "family" not in data:
        raise ValidationError(
            f"{path} is a plain circuit file; this command needs a family file")
    return decomposition_from_json_dict(data)


def _load_circuit(path: str) -> Circuit:
    data = _read_json(path)
    if isinstance(data, dict) and "family" in data:
        return decomposition_from_json_dict(data).circuit
    return Circuit.from_json_dict(data)


# --- gen -------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.count < 0:
        raise ValidationError(f"--count must be >= 0, got {args.count}")
    knobs = {}
    if args.gate_count is not None:
        knobs["gate_count"] = args.gate_count
    if args.depth is not None:
        knobs["depth"] = args.depth
    out_dir = Path(args.out_dir)
    written = []
    for i in range(args.count):
        rng = seeding.derive_rng(args.seed, seeding.LABEL_GENERATE, i)
        decomp = random_family_instance(args.family, args.n, rng, **knobs)
        name = f"{args.family.lower()}_{args.n}q_s{args.seed}_{i:03d}.json"
        _write_atomic(out_dir / name,
                      json.dumps(decomposition_to_json_dict(decomp), indent=2,
                                 sort_keys=True))
        written.append(str(out_dir / name))
    _emit({
        "schema": REPORT_SCHEMA,
        "command": "gen",
        "family": args.family,
        "n": args.n,
        "count": args.count,
        "seed": args.seed,
        "files": written,
    }, args.out)
    return EXIT_OK


# --- exact -----------------------------------------------------------------------

def _noise_from_args(args) -> NoiseSpec | None:
    if args.epsilon is None:
        return None
    try:
        rates = [float(tok) for tok in str(args.epsilon).split(",")]
    except ValueError:
        raise ValidationError(
            f"--epsilon takes a rate or comma-separated rates, got {args.epsilon!r}"
        ) from None
    if len(rates) == 1:
        return NoiseSpec.uniform(rates[0])
    return NoiseSpec.per_qubit(rates)


def cmd_exact(args) -> int:
    circuit = _load_circuit(args.circuit)
    p = oracle.output_distribution(circuit)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "exact",
        "circuit": args.circuit,
        "n": circuit.n,
        "size": circuit.size,
        "depth": circuit.depth(),
        "alpha": oracle.anti_concentration_alpha(p),
        "p": p.to_json_dict(),
    }
    if circuit.n <= 12:
        coeffs = oracle.fourier_transform(p)
        report["fourier_coefficients"] = [float(v) for v in coeffs]
    noise = _noise_from_args(args)
    if noise is not None:
        noisy = oracle.apply_depolarizing_exact(p, noise, n=circuit.n)
        report["noise"] = noise.to_json_dict()
        report["p_noisy"] = noisy.to_json_dict()
    _emit(report, args.out)
    return EXIT_OK


# --- fourier ---------------------------------------------------------------------

def _coefficient_source(decomp, spec: dict, seed: int):
    """The coefficient source a spec dict names: ``{"type": "exact"}`` or
    ``{"type": "estimator"}`` with ``tau``/``eta`` or ``batch_size``/``batch_count``.
    An ``eta`` is range-checked even where no ``tau`` uses it."""
    kind = spec.get("type", "exact")
    if kind == "exact":
        return ExactCoefficients(decomp)
    if kind != "estimator":
        raise ValidationError(
            f"unknown source type {kind!r}; choose 'exact' or 'estimator'")
    eta = 0.05 if spec.get("eta") is None else _in_unit_interval(spec, "eta")
    if spec.get("tau") is not None:
        cfg = EstimatorConfig.from_accuracy(_number(spec, "tau"), eta, seed=seed)
    else:
        cfg = EstimatorConfig(batch_size=_number(spec, "batch_size", int, 10_000),
                              batch_count=_number(spec, "batch_count", int, 9),
                              seed=seed)
    return EstimatedCoefficients(decomp, cfg)


def cmd_fourier(args) -> int:
    decomp = _load_decomposition(args.circuit)
    if args.compare_oracle:
        oracle._check_cap(decomp.n, oracle.DENSE_CAP, "oracle comparison")
    check_degree(decomp.n, args.c)
    spec = {"type": args.source, "tau": args.tau, "eta": args.eta,
            "batch_size": args.batch_size, "batch_count": args.batch_count}
    source = _coefficient_source(decomp, spec, args.seed)
    rng = seeding.derive_rng(args.seed, seeding.LABEL_TABLE)
    started = time.perf_counter()
    table = build_low_degree_table(decomp, args.c, source, rng)
    elapsed = time.perf_counter() - started
    report = {
        "schema": REPORT_SCHEMA,
        "command": "fourier",
        "circuit": args.circuit,
        "n": decomp.n,
        "c": args.c,
        "mask_count": len(table.masks),
        "source": source.describe(),
        "seed": args.seed,
        "table": table.to_json_dict(),
        "timings": {"table_s": elapsed},
    }
    if isinstance(source, EstimatedCoefficients):
        report["timings"]["check_s"] = source.check_s
    diagnostics = source.diagnostics()
    if diagnostics is not None:
        report["diagnostics"] = diagnostics
    if args.compare_oracle:
        exact = (source if isinstance(source, ExactCoefficients)
                 else ExactCoefficients(decomp))
        truth = exact.expectations(table.masks, rng) * 0.5 ** decomp.n
        errs = np.abs(table.values - truth)
        report["oracle_comparison"] = {
            "max_abs_error": float(errs.max()),
            "mean_abs_error": float(np.mean(errs)),
        }
    _emit(report, args.out)
    return EXIT_OK


# --- sample ----------------------------------------------------------------------

def _dense_once(decomp, source):
    """The circuit's dense output distribution on demand: the exact
    source's own, or one simulation on the first call."""
    if isinstance(source, ExactCoefficients):
        return lambda: source.distribution
    return functools.cache(lambda: oracle.output_distribution(decomp.circuit))


_REQUIRED_KEYS = {
    "A": ("delta", "lambda"),
    "B": ("delta", "lambda_min"),
    "marginal": ("measured",),
}
_CONFIG_KEYS = {
    "circuit", "instance", "mode", "seed", "num_samples", "source", "alpha",
    "c_max", "epsilon", "delta", "lambda", "lambda_min", "lambda_by_qubit",
    "measured",
}


def _check_sample_config(config) -> None:
    if not isinstance(config, dict):
        raise ValidationError("a sample config must be a JSON object")
    mode = config.get("mode", "A")
    if mode not in _REQUIRED_KEYS:
        raise ValidationError(f"unknown mode {mode!r}")
    missing = [key for key in _REQUIRED_KEYS[mode] if key not in config]
    if "circuit" not in config and "instance" not in config:
        missing.append("'circuit' or 'instance'")
    if missing:
        raise ValidationError(
            f"mode {mode} config lacks {', '.join(missing)}")
    if not isinstance(config.get("source", {}), dict):
        raise ValidationError("'source' must be a JSON object")
    if not isinstance(config.get("circuit", ""), str):
        raise ValidationError("'circuit' must be a file path")
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")


def cmd_sample(args) -> int:
    config = _read_json(args.config)
    _check_sample_config(config)
    seed = args.seed if args.seed is not None else _number(config, "seed", int, 0)
    if "instance" in config:
        decomp = decomposition_from_json_dict(config["instance"])
    else:
        decomp = _load_decomposition(config["circuit"])
    mode = config.get("mode", "A")
    if args.verify and (mode == "marginal" or config.get("epsilon") is not None):
        oracle._check_cap(decomp.n, oracle.DENSE_CAP, "verification")
    # decode every field before the source, whose set-up may be a dense simulation
    num_samples = _number(config, "num_samples", int, 1000)
    eps = measured = alpha = None
    alpha_how = "unused"
    if mode == "marginal":
        measured = check_measured(_numbers(config, "measured", int), decomp.n)
    else:
        alpha_how = "measured"
        alpha_spec = config.get("alpha", {"measure": True})
        if isinstance(alpha_spec, dict) and "assume" in alpha_spec:
            alpha, alpha_how = _number(alpha_spec, "assume"), "assumed"
        c_max = _number(config, "c_max", int, 4)
        delta = _in_unit_interval(config, "delta")
        eps = config.get("epsilon")
        if mode == "B" and isinstance(eps, list):
            eps = _numbers(config, "epsilon")
            if len(eps) != decomp.n:
                raise ValidationError(
                    f"config 'epsilon' lists {len(eps)} rates for {decomp.n} qubits")
        elif eps is not None:
            eps = _number(config, "epsilon")
        if mode == "A":
            lam = _in_unit_interval(config, "lambda")
        else:
            plan = ModelBPlan(_number(config, "lambda_min"), _qubit_rates(config))
            lam = plan.lambda_min
        if alpha is not None:
            c_used = min(choose_degree(alpha, delta, lam), c_max, decomp.n)
            check_degree(decomp.n, c_used)
    started = time.perf_counter()
    source = _coefficient_source(decomp, config.get("source", {}), seed)
    source_s = time.perf_counter() - started
    dense = _dense_once(decomp, source)
    rng = seeding.derive_rng(seed, seeding.LABEL_SAMPLE)
    if mode == "marginal":
        result = simulate_marginal(decomp, measured, source, rng, num_samples)
    else:
        if alpha is None:
            alpha = oracle.anti_concentration_alpha(dense())
        if mode == "A":
            result = simulate_model_a(
                decomp, alpha, delta, lam, source, rng, num_samples,
                c_max=c_max, true_epsilon=eps)
        else:
            result = simulate_model_b(
                decomp, alpha, delta, plan, source, rng, num_samples,
                c_max=c_max,
                true_epsilon_min=min(eps) if isinstance(eps, list) else eps)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "sample",
        "config": config,
        "seed": seed,
        "alpha": alpha,
        "alpha_how": alpha_how,
        "report": result.report,
    }
    # the dense simulation of the exact source runs before the table clock
    result.report["timings"]["source_s"] = source_s
    if isinstance(source, EstimatedCoefficients):
        result.report["timings"]["check_s"] = source.check_s
    diagnostics = source.diagnostics()
    if diagnostics is not None:
        report["diagnostics"] = diagnostics
    if args.verify:
        report["verification"] = _verify_sampling(decomp, result, eps, measured,
                                                  dense)
    if args.samples_out:
        _write_atomic(Path(args.samples_out),
                      "\n".join(result.sample_strings()) + "\n")
        report["samples_file"] = args.samples_out
    else:
        report["samples"] = result.sample_strings()
    _emit(report, args.out)
    return EXIT_OK


def _verify_sampling(decomp, result, eps, measured, dense) -> dict:
    """Compare the run with the dense oracle; ``cmd_sample`` checked the cap."""
    mode = result.report["model"]
    if mode != "marginal" and eps is None:
        return {"note": "no true epsilon in config; oracle comparison skipped"}
    p = dense()
    alg = enumerate_alg_distribution(result.table)
    if mode == "marginal":
        target = oracle.marginal_distribution(p, measured)
    else:
        spec = NoiseSpec.per_qubit(eps) if isinstance(eps, list) else NoiseSpec.uniform(eps)
        target = oracle.apply_depolarizing_exact(p, spec, n=decomp.n)
        if mode == "B":
            alg = oracle.DistVector(
                alg.n, flip_convolve(alg.p, result.report["residual_deltas"]))
    emp = oracle.empirical_distribution(result.samples, alg.n)
    out = {"l1_enumerated_vs_dense": oracle.l1_distance(alg, target),
           "l1_empirical_vs_dense": oracle.l1_distance(emp, target)}
    if mode != "marginal":
        bound = result.report.get("l1_bound", result.report["delta"])
        out["negative_mass_of_q"] = negative_mass(result.table)
        out["l1_target"] = bound
        out["within_target"] = out["l1_enumerated_vs_dense"] <= bound
    return out


# --- verify ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        raise ValidationError(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)} or 'all'")
    results = []
    for name in list(SUITES) if args.suite == "all" else [args.suite]:
        checks = SUITES[name](args.seed)
        results.append({"suite": name, "ok": all(c["ok"] for c in checks),
                        "checks": checks})
        for check in checks:
            status = "pass" if check["ok"] else "FAIL"
            print(f"[{status}] {name}: {check['name']}", file=sys.stderr)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "verify",
        "seed": args.seed,
        "suites": results,
        "ok": all(r["ok"] for r in results),
    }
    _emit(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


# --- report ----------------------------------------------------------------------

def cmd_report(args) -> int:
    rows = []
    alphas = []
    for path in args.files:
        data = _read_json(path)
        if not isinstance(data, dict):
            raise ValidationError(f"{path} is not a ctecs report")
        row = {"file": path, "command": data.get("command")}
        if data.get("command") == "exact":
            row["n"] = data.get("n")
            row["alpha"] = data.get("alpha")
            alphas.append(data["alpha"])
        if data.get("command") == "sample":
            run = data.get("report", {})
            row.update({
                "model": run.get("model"),
                "n": run.get("n"),
                "c_used": run.get("c_used"),
                "mask_count": run.get("mask_count"),
            })
            if "verification" in data:
                row["l1_enumerated_vs_dense"] = data["verification"].get(
                    "l1_enumerated_vs_dense")
        if data.get("command") == "verify":
            row["ok"] = data.get("ok")
        rows.append(row)
    report = {"schema": REPORT_SCHEMA, "command": "report", "rows": rows}
    if alphas:
        report["alpha_summary"] = {
            "count": len(alphas),
            "mean": float(np.mean(alphas)),
            "min": float(np.min(alphas)),
            "max": float(np.max(alphas)),
        }
    _emit(report, args.out)
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctecs",
        description="noisy tractable-circuit sampling harness")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="master seed (default 0 or the config's seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common],
                           help="generate random family instances")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--gate-count", type=int, default=None)
    p_gen.add_argument("--depth", type=int, default=None,
                       help="layer count (ConstantDepth only)")
    p_gen.add_argument("--out-dir", default=".")
    p_gen.add_argument("--out", default=None, help="summary report path")
    p_gen.set_defaults(func=cmd_gen)

    p_exact = sub.add_parser("exact", parents=[common], help="dense oracle report for a circuit")
    p_exact.add_argument("--circuit", required=True)
    p_exact.add_argument("--epsilon", default=None,
                         help="uniform rate, or comma-separated per-qubit rates")
    p_exact.add_argument("--out", default=None)
    p_exact.set_defaults(func=cmd_exact)

    p_fourier = sub.add_parser("fourier", parents=[common], help="build a low-degree table")
    p_fourier.add_argument("--circuit", required=True, help="family JSON file")
    p_fourier.add_argument("--c", type=int, required=True)
    p_fourier.add_argument("--source", choices=("exact", "estimator"),
                           default="exact")
    p_fourier.add_argument("--batch-size", type=int, default=10_000)
    p_fourier.add_argument("--batch-count", type=int, default=9)
    p_fourier.add_argument("--tau", type=float, default=None)
    p_fourier.add_argument("--eta", type=float, default=0.05)
    p_fourier.add_argument("--compare-oracle", action="store_true")
    p_fourier.add_argument("--out", default=None)
    p_fourier.set_defaults(func=cmd_fourier)

    p_sample = sub.add_parser("sample", parents=[common], help="run a sampling pipeline")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--verify", action="store_true",
                          help="compare against the dense oracle (small n)")
    p_sample.add_argument("--samples-out", default=None,
                          help="write newline-delimited bitstrings here")
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", parents=[common], help="run an invariant suite")
    p_verify.add_argument("--suite", required=True,
                          help=f"one of {sorted(SUITES)} or 'all'")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", parents=[common], help="summarize report files")
    p_report.add_argument("files", nargs="+")
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is None and args.command != "sample":
        args.seed = 0
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
