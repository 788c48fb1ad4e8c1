import json
from pathlib import Path

import numpy as np
import pytest

from ctecs import cli, oracle, sampler
from ctecs.checks import SUITES
from ctecs.circuits import Circuit, h, rz
from ctecs.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, EXIT_VERIFY, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gen_is_byte_identical_for_same_seed(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _ = run_cli(
            capsys, "gen", "--family", "IQP", "--n", "6", "--count", "3",
            "--seed", "11", "--out-dir", str(tmp_path / sub))
        assert code == EXIT_OK
    for i in range(3):
        name = f"iqp_6q_s11_{i:03d}.json"
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_gen_batch_instances_all_load(tmp_path, capsys):
    code, out = run_cli(
        capsys, "gen", "--family", "CliffordMagic", "--n", "5", "--count", "10",
        "--seed", "3", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    files = json.loads(out)["files"]
    assert len(files) == 10
    from ctecs import decomposition_from_json_dict

    for path in files:
        decomp = decomposition_from_json_dict(json.loads(Path(path).read_text()))
        assert decomp.n == 5


def test_gen_bad_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--family", "Bogus", "--n", "4"])
    assert err.value.code == EXIT_USAGE


def test_threads_flag_is_unknown(capsys):
    with pytest.raises(SystemExit) as err:
        main(["fourier", "--circuit", "f.json", "--c", "1", "--threads", "2"])
    assert err.value.code == EXIT_USAGE
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--dense-cap", "--mask-budget"])
def test_cap_flags_are_unknown(capsys, flag):
    with pytest.raises(SystemExit) as err:
        main(["fourier", "--circuit", "f.json", "--c", "1", flag, "5"])
    assert err.value.code == EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_exact_identity_circuit_report(tmp_path, capsys):
    circuit_file = tmp_path / "ident.json"
    circuit_file.write_text(json.dumps(Circuit(2, ()).to_json_dict()))
    code, out = run_cli(
        capsys, "exact", "--circuit", str(circuit_file), "--epsilon", "0.5")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["p_noisy"]["p"][0] == pytest.approx(9 / 16)
    assert report["alpha"] == pytest.approx(4.0)


def test_exact_fine_rotation_angle(tmp_path, capsys):
    circuit_file = tmp_path / "fine.json"
    circuit = Circuit(1, (h(0), rz(0, 1, 1100)))
    circuit_file.write_text(json.dumps(circuit.to_json_dict()))
    code, out = run_cli(capsys, "exact", "--circuit", str(circuit_file))
    assert code == EXIT_OK
    assert json.loads(out)["p"]["p"] == pytest.approx([0.5, 0.5], abs=1e-15)


def test_exact_over_cap_is_resource_error(tmp_path, capsys):
    circuit_file = tmp_path / "big.json"
    circuit_file.write_text(json.dumps(Circuit(21, ()).to_json_dict()))
    code, _ = run_cli(capsys, "exact", "--circuit", str(circuit_file))
    assert code == EXIT_RESOURCE


def _write_instance(tmp_path, capsys, family="IQP", n=8, seed=5):
    run_cli(capsys, "gen", "--family", family, "--n", str(n), "--count", "1",
            "--seed", str(seed), "--out-dir", str(tmp_path))
    return tmp_path / f"{family.lower()}_{n}q_s{seed}_000.json"


def test_fourier_exact_table_matches_oracle(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys)
    code, out = run_cli(
        capsys, "fourier", "--circuit", str(instance), "--c", "2",
        "--source", "exact", "--compare-oracle")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["oracle_comparison"]["max_abs_error"] <= 1e-12
    assert report["mask_count"] == 1 + 8 + 28


def test_sample_exact_verify_within_delta(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys, n=8, seed=21)
    config = {
        "circuit": str(instance),
        "mode": "A",
        "alpha": {"measure": True},
        "delta": 0.4,
        "lambda": 0.2,
        "epsilon": 0.2,
        "source": {"type": "exact"},
        "c_max": 4,
        "num_samples": 200,
        "seed": 9,
    }
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config))
    out_file = tmp_path / "run.json"
    samples_file = tmp_path / "samples.txt"
    code, _ = run_cli(
        capsys, "sample", "--config", str(config_file), "--verify",
        "--out", str(out_file), "--samples-out", str(samples_file))
    assert code == EXIT_OK
    report = json.loads(out_file.read_text())
    assert report["verification"]["within_target"]
    assert report["verification"]["l1_enumerated_vs_dense"] <= 0.4
    assert report["report"]["lambda_check"]["ok"]
    lines = samples_file.read_text().strip().splitlines()
    assert len(lines) == 200 and all(len(line) == 8 for line in lines)


def test_sample_reports_are_reproducible(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys, n=6, seed=2)
    config = {
        "circuit": str(instance), "mode": "A", "alpha": {"assume": 2.0},
        "delta": 0.5, "lambda": 0.3, "source": {"type": "exact"},
        "num_samples": 50, "seed": 4,
    }
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config))
    outs = []
    for _ in range(2):
        _, out = run_cli(capsys, "sample", "--config", str(config_file))
        outs.append(json.loads(out))
    assert outs[0]["samples"] == outs[1]["samples"]
    assert outs[0]["report"]["c_used"] == outs[1]["report"]["c_used"]


def test_sample_model_b_degeneration_note(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys, n=5, seed=8)
    config = {
        "circuit": str(instance), "mode": "B", "alpha": {"assume": 2.0},
        "delta": 0.4, "lambda_min": 0.25, "lambda_by_qubit": {},
        "epsilon": [0.25] * 5, "source": {"type": "exact"},
        "num_samples": 64, "seed": 1,
    }
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config))
    code, out = run_cli(capsys, "sample", "--config", str(config_file))
    assert code == EXIT_OK
    assert json.loads(out)["report"]["degenerates_to_model_a"]


def test_sample_estimator_tiny_batch_reports_honest_failure(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys, n=6, seed=33)
    config = {
        "circuit": str(instance), "mode": "A", "alpha": {"measure": True},
        "delta": 0.05, "lambda": 0.05,
        "epsilon": 0.05,
        "source": {"type": "estimator", "batch_size": 2, "batch_count": 1},
        "c_max": 3, "num_samples": 32, "seed": 12,
    }
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config))
    code, out = run_cli(capsys, "sample", "--config", str(config_file), "--verify")
    assert code == EXIT_OK
    verification = json.loads(out)["verification"]
    # B=2 coefficients are far off; the report must say so rather than hide it
    assert verification["l1_enumerated_vs_dense"] > 0.05
    assert not verification["within_target"]


def _sample_exit(tmp_path, capsys, config, *flags):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config))
    code = main(["sample", "--config", str(config_file), *flags])
    return code, capsys.readouterr().err


def test_sample_negative_sample_count_is_usage_error(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys, n=4, seed=3)
    code, _ = _sample_exit(tmp_path, capsys, {
        "circuit": str(instance), "mode": "A", "alpha": {"assume": 2.0},
        "delta": 0.4, "lambda": 0.3, "num_samples": -5})
    assert code == EXIT_USAGE


@pytest.mark.parametrize("mode,drop", [
    ("A", "delta"), ("A", "lambda"), ("B", "delta"), ("B", "lambda_min"),
    ("marginal", "measured"), ("A", "circuit"),
])
def test_sample_missing_config_key_is_usage_error(tmp_path, capsys, mode, drop):
    instance = _write_instance(tmp_path, capsys, n=4, seed=3)
    config = {"circuit": str(instance), "mode": mode, "alpha": {"assume": 2.0},
              "delta": 0.4, "lambda": 0.3, "lambda_min": 0.3,
              "measured": [0, 1], "num_samples": 8}
    del config[drop]
    code, err = _sample_exit(tmp_path, capsys, config)
    assert code == EXIT_USAGE
    assert drop in err


def test_sample_unknown_source_type_is_usage_error(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys, n=4, seed=3)
    code, err = _sample_exit(tmp_path, capsys, {
        "circuit": str(instance), "mode": "A", "alpha": {"assume": 2.0},
        "delta": 0.4, "lambda": 0.3, "source": {"type": "estimate"},
        "num_samples": 8})
    assert code == EXIT_USAGE
    assert "estimate" in err


def test_sample_estimator_over_width_limit_is_resource_error(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys, n=70, seed=3)
    code, err = _sample_exit(tmp_path, capsys, {
        "circuit": str(instance), "mode": "A", "alpha": {"assume": 2.0},
        "delta": 0.4, "lambda": 0.3, "c_max": 2,
        "source": {"type": "estimator", "batch_size": 10, "batch_count": 1},
        "num_samples": 8})
    assert code == EXIT_RESOURCE
    assert "at most 62 qubits" in err


def _wide_instance(tmp_path, monkeypatch):
    """A family file one qubit above the dense cap; building a table fails."""
    def no_table(*args, **kwargs):
        raise AssertionError("a coefficient table was built")
    monkeypatch.setattr(sampler, "build_low_degree_table", no_table)
    monkeypatch.setattr(cli, "build_low_degree_table", no_table)
    instance = tmp_path / "wide.json"
    instance.write_text(json.dumps({"family": "IQP", "n": oracle.DENSE_CAP + 1}))
    return instance


def test_sample_verify_above_dense_cap_fails_before_the_table(
        tmp_path, capsys, monkeypatch):
    instance = _wide_instance(tmp_path, monkeypatch)
    code, err = _sample_exit(tmp_path, capsys, {
        "circuit": str(instance), "mode": "A", "alpha": {"assume": 1.0},
        "delta": 0.4, "lambda": 0.3, "epsilon": 0.3, "c_max": 2,
        "source": {"type": "estimator", "batch_size": 10, "batch_count": 1},
        "num_samples": 8}, "--verify")
    assert code == EXIT_RESOURCE
    assert f"at most {oracle.DENSE_CAP} qubits" in err


def test_fourier_compare_oracle_above_dense_cap_fails_before_the_table(
        tmp_path, capsys, monkeypatch):
    instance = _wide_instance(tmp_path, monkeypatch)
    code = main(["fourier", "--circuit", str(instance), "--c", "2",
                 "--source", "estimator", "--compare-oracle"])
    assert code == EXIT_RESOURCE
    assert f"at most {oracle.DENSE_CAP} qubits" in capsys.readouterr().err


def _no_source(*args, **kwargs):
    raise AssertionError("a coefficient source was built")


@pytest.mark.parametrize("c,code,ending", [
    ("10", EXIT_RESOURCE, "616666 masks, over the budget of 100000; lower c (or c_max)"),
    ("21", EXIT_USAGE, "degree cutoff 21 outside [0, 20]"),
])
def test_fourier_checks_degree_before_the_source(
        tmp_path, capsys, monkeypatch, c, code, ending):
    monkeypatch.setattr(cli, "ExactCoefficients", _no_source)
    instance = tmp_path / "iqp.json"
    instance.write_text(json.dumps({"family": "IQP", "n": 20}))
    assert main(["fourier", "--circuit", str(instance), "--c", c]) == code
    assert capsys.readouterr().err.rstrip().endswith(ending)


@pytest.mark.parametrize("eta", [-1.0, 1.5, float("nan"), "x"])
def test_estimator_eta_is_checked_without_tau(tmp_path, capsys, monkeypatch, eta):
    monkeypatch.setattr(cli, "EstimatedCoefficients", _no_source)
    instance = tmp_path / "iqp.json"
    instance.write_text(json.dumps({"family": "IQP", "n": 4}))
    if eta != "x":  # argparse itself rejects a flag value that is not a float
        code = main(["fourier", "--circuit", str(instance), "--c", "1",
                     "--source", "estimator", "--eta", str(eta)])
        assert code == EXIT_USAGE
        assert "config 'eta' must lie in (0, 1)" in capsys.readouterr().err
    files, _ = _sample_case(source={"type": "estimator", "eta": eta})
    code, err = _sample_exit(tmp_path, capsys, files["cfg.json"])
    assert code == EXIT_USAGE
    assert "config 'eta' must" in err


def test_verify_suites_pass(tmp_path, capsys):
    for suite in ("noise-factorization", "sampler-fix"):
        code, out = run_cli(capsys, "verify", "--suite", suite, "--seed", "0")
        assert code == EXIT_OK
        assert json.loads(out)["ok"]
    code, out = run_cli(capsys, "verify", "--suite", "all", "--seed", "0")
    assert code == EXIT_OK
    suites = json.loads(out)["suites"]
    assert [s["suite"] for s in suites] == list(SUITES) and len(suites) == 6
    assert all(s["ok"] and s["checks"] for s in suites)


def test_verify_noise_algebra_fails_on_a_wrong_noise_route(monkeypatch, capsys):
    right = oracle.attenuation_factors
    monkeypatch.setattr(oracle, "attenuation_factors", lambda r: right(r / 2))
    with pytest.raises(RuntimeError):  # the guard of the noisy oracle stays
        oracle.apply_depolarizing_exact(np.array([1.0, 0.0, 0.0, 0.0]), [0.3, 0.3])
    code = main(["verify", "--suite", "noise-algebra", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFY
    assert not json.loads(captured.out)["ok"]
    assert "[FAIL] noise-algebra: trial=0" in captured.err


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == EXIT_USAGE


def test_report_aggregates(tmp_path, capsys):
    code, out = run_cli(capsys, "verify", "--suite", "noise-factorization",
                        "--out", str(tmp_path / "v.json"))
    assert code == EXIT_OK
    code, out = run_cli(capsys, "report", str(tmp_path / "v.json"))
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert rows[0]["command"] == "verify" and rows[0]["ok"]


@pytest.mark.parametrize("data, field", [
    ({"command": "exact"}, "'alpha' must be a number"),
    ({"command": "exact", "alpha": "high"}, "'alpha' must be a number"),
    ({"command": "exact", "alpha": [2.0]}, "'alpha' must be a number"),
    ({"command": "sample", "report": 5}, "'report' must be a JSON object"),
    ({"command": "sample", "report": {}, "verification": [0.1]},
     "'verification' must be a JSON object"),
])
def test_report_rejects_malformed_fields(tmp_path, capsys, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["report", str(path)])
    assert code == EXIT_USAGE
    assert field in capsys.readouterr().err


def test_report_summarizes_alpha_over_exact_batch(tmp_path, capsys):
    run_cli(capsys, "gen", "--family", "IQP", "--n", "5", "--count", "4",
            "--seed", "6", "--out-dir", str(tmp_path))
    exact_files = []
    for i in range(4):
        instance = tmp_path / f"iqp_5q_s6_{i:03d}.json"
        out = tmp_path / f"exact_{i}.json"
        code, _ = run_cli(capsys, "exact", "--circuit", str(instance),
                          "--out", str(out))
        assert code == EXIT_OK
        exact_files.append(str(out))
    code, out = run_cli(capsys, "report", *exact_files)
    assert code == EXIT_OK
    summary = json.loads(out)["alpha_summary"]
    assert summary["count"] == 4
    assert 1.0 <= summary["mean"] <= 2 ** 5 + 1e-9


def test_sample_report_times_the_source(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys, n=6, seed=2)
    config = {
        "circuit": str(instance), "mode": "A", "alpha": {"assume": 2.0},
        "delta": 0.5, "lambda": 0.3, "source": {"type": "exact"},
        "num_samples": 20, "seed": 4,
    }
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config))
    code, out = run_cli(capsys, "sample", "--config", str(config_file))
    assert code == EXIT_OK
    report = json.loads(out)
    timings = report["report"]["timings"]
    assert timings["source_s"] >= 0.0
    assert set(timings) == {"source_s", "table_s", "sampling_s"}
    assert "diagnostics" not in report


def _check_estimator_diagnostics(diagnostics, masks):
    est = diagnostics["estimator"]
    assert est["masks"] == masks
    assert 0 < est["distinct_rows"] <= est["rows_drawn"]
    assert 0.0 < est["second_moment_max"] <= 1.0 + 1e-9
    assert est["batch_mean_spread_max"] >= 0.0


def test_estimator_reports_carry_diagnostics(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys, n=5, seed=3)
    code, out = run_cli(
        capsys, "fourier", "--circuit", str(instance), "--c", "2",
        "--source", "estimator", "--batch-size", "200", "--batch-count", "3")
    assert code == EXIT_OK
    report = json.loads(out)
    _check_estimator_diagnostics(report["diagnostics"], masks=5 + 10)
    assert report["diagnostics"]["estimator"]["rows_drawn"] == 3 * 200

    config = {
        "circuit": str(instance), "mode": "A", "alpha": {"assume": 2.0},
        "delta": 0.5, "lambda": 0.3, "c_max": 2, "num_samples": 20, "seed": 4,
        "source": {"type": "estimator", "batch_size": 100, "batch_count": 3},
    }
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config))
    code, out = run_cli(capsys, "sample", "--config", str(config_file))
    assert code == EXIT_OK
    report = json.loads(out)
    _check_estimator_diagnostics(report["diagnostics"], masks=5 + 10)


def test_estimator_reports_time_the_spot_check(tmp_path, capsys):
    instance = _write_instance(tmp_path, capsys, family="ConstantDepth", n=5,
                               seed=3)
    fourier = ["fourier", "--circuit", str(instance), "--c", "2"]
    code, out = run_cli(capsys, *fourier, "--source", "estimator",
                        "--batch-size", "50", "--batch-count", "1")
    assert code == EXIT_OK
    timings = json.loads(out)["timings"]
    assert 0.0 < timings["check_s"] <= timings["table_s"]
    code, out = run_cli(capsys, *fourier, "--source", "exact")
    assert code == EXIT_OK
    assert set(json.loads(out)["timings"]) == {"table_s"}

    config = {
        "circuit": str(instance), "mode": "A", "alpha": {"assume": 2.0},
        "delta": 0.5, "lambda": 0.3, "c_max": 2, "num_samples": 20, "seed": 4,
        "source": {"type": "estimator", "batch_size": 50, "batch_count": 1},
    }
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config))
    code, out = run_cli(capsys, "sample", "--config", str(config_file))
    assert code == EXIT_OK
    timings = json.loads(out)["report"]["timings"]
    assert 0.0 < timings["check_s"] <= timings["table_s"] + timings["source_s"]


def _sample_case(**fields):
    """A mode-A sample config on a two-qubit IQP instance, with ``fields``."""
    config = {"instance": {"family": "IQP", "n": 2}, "mode": "A",
              "alpha": {"assume": 1.0}, "delta": 0.4, "lambda": 0.3, **fields}
    return {"cfg.json": config}, ["sample", "--config", "cfg.json"]


_MALFORMED = {
    "epsilon": ({"c.json": {"n": 1, "gates": []}},
                ["exact", "--circuit", "c.json", "--epsilon", "abc"]),
    "family without n": ({"f.json": {"family": "IQP", "diagonal": []}},
                         ["fourier", "--circuit", "f.json", "--c", "1"]),
    "circuit is a list": ({"c.json": [1, 2]}, ["exact", "--circuit", "c.json"]),
    "rz without sign": ({"c.json": {"n": 1, "gates": [{"g": "RZ", "q": [0], "t": 2}]}},
                        ["exact", "--circuit", "c.json"]),
    "delta": _sample_case(delta="x"),
    "num_samples": _sample_case(num_samples="many"),
    "config epsilon": _sample_case(epsilon="x"),
    "mask_budget": _sample_case(mask_budget="x"),
    "config key typo": _sample_case(c_maxx=4),
    "mode-B epsilon too short": _sample_case(mode="B", lambda_min=0.3,
                                             epsilon=[0.3]),
    "mode-B epsilon too long": _sample_case(mode="B", lambda_min=0.3,
                                            epsilon=[0.3, 0.3, 0.3]),
    "lambda_by_qubit key": _sample_case(mode="B", lambda_min=0.3,
                                        lambda_by_qubit={"a": 0.4}),
    "lambda_by_qubit list": _sample_case(mode="B", lambda_min=0.3,
                                         lambda_by_qubit=[1, 2]),
    "measured": _sample_case(mode="marginal", measured=["a"]),
    "circuit path a number": (
        {"cfg.json": {"circuit": 987654, "delta": 0.4, "lambda": 0.3}},
        ["sample", "--config", "cfg.json"]),
    "config not json": ({"cfg.json": "{mode: A"}, ["sample", "--config", "cfg.json"]),
    "report not json": ({"r.json": "not json"}, ["report", "r.json"]),
    "depth for IQP": ({}, ["gen", "--family", "IQP", "--n", "5", "--depth", "3"]),
    "gate count for ConstantDepth": (
        {}, ["gen", "--family", "ConstantDepth", "--n", "5", "--gate-count", "4"]),
    "negative gate count": ({}, ["gen", "--family", "IQP", "--n", "4",
                                 "--gate-count", "-3"]),
    "negative depth": ({}, ["gen", "--family", "ConstantDepth", "--n", "5",
                            "--depth", "-1"]),
    "negative count": ({}, ["gen", "--family", "IQP", "--n", "4", "--count", "-2"]),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_is_usage_error(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # a gen case that is not rejected writes here
    files, argv = _MALFORMED[case]
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    code = main([str(tmp_path / a) if a in files else a for a in argv])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize("document,got", [
    ({"n": 3, "gates": 5}, "int"),
    ({"n": 3, "gates": None}, "NoneType"),
    ({"n": 3, "gates": {"g": "H", "q": [0]}}, "dict"),
    ({"family": "IQP", "n": 3, "diagonal": 5}, "int"),
    ({"family": "ConjugatedClifford", "n": 3, "phi": 5}, "int"),
    ({"family": "ConjugatedClifford", "n": 3, "phi": [], "theta": "ab"}, "str"),
], ids=["gates int", "gates null", "gates object", "diagonal", "phi", "theta"])
def test_gate_and_angle_lists_must_be_json_lists(tmp_path, capsys, document, got):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(document))
    assert main(["exact", "--circuit", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.rstrip().endswith(f"expected a list, got {got}")


@pytest.mark.parametrize("argv", [
    ["exact", "--circuit", "PATH"], ["fourier", "--circuit", "PATH", "--c", "1"],
    ["sample", "--config", "PATH"], ["report", "PATH"],
], ids=["exact", "fourier", "sample", "report"])
def test_a_path_that_is_not_a_readable_file_is_usage_error(
        tmp_path, capsys, monkeypatch, argv):
    code = main([str(tmp_path) if a == "PATH" else a for a in argv])
    assert code == EXIT_USAGE
    assert "is not a readable file" in capsys.readouterr().err

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    readable = tmp_path / "c.json"
    readable.write_text(json.dumps({"n": 1, "gates": []}))
    monkeypatch.setattr(cli, "open", denied, raising=False)
    code = main([str(readable) if a == "PATH" else a for a in argv])
    assert code == EXIT_USAGE
    assert "Permission denied" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"delta": "x"}, {"lambda": "x"}, {"c_max": "x"}, {"epsilon": "x"},
    {"alpha": {"assume": "x"}},
    {"mode": "B", "lambda_min": "x"},
    {"mode": "B", "lambda_min": 0.3, "lambda_by_qubit": {"a": 0.4}},
    {"mode": "marginal", "measured": ["a"]},
], ids=["delta", "lambda", "c_max", "epsilon", "alpha", "lambda_min",
        "lambda_by_qubit", "measured"])
def test_sample_config_is_decoded_before_the_source(
        tmp_path, capsys, monkeypatch, fields):
    monkeypatch.setattr(cli, "_coefficient_source", _no_source)
    files, _ = _sample_case(**fields)
    code, err = _sample_exit(tmp_path, capsys, files["cfg.json"])
    assert code == EXIT_USAGE
    assert err.startswith("invalid input: ")


@pytest.mark.parametrize("fields,code,ending", [
    ({"delta": 2}, EXIT_USAGE, "config 'delta' must lie in (0, 1), got 2.0"),
    ({"lambda": 0}, EXIT_USAGE, "config 'lambda' must lie in (0, 1), got 0.0"),
    ({"alpha": {"assume": 0.5}}, EXIT_USAGE, "alpha must be >= 1, got 0.5"),
    ({"c_max": 10}, EXIT_RESOURCE,
     "616666 masks, over the budget of 100000; lower c (or c_max)"),
    ({"mode": "marginal", "measured": [0, 0]}, EXIT_USAGE,
     "measured qubits must be distinct"),
    ({"mode": "marginal", "measured": [20]}, EXIT_USAGE,
     "measured qubit outside register"),
    ({"mode": "marginal", "measured": list(range(17))}, EXIT_RESOURCE,
     "17 measured qubits need 131071 masks, over the budget of 100000"),
], ids=["delta", "lambda", "alpha", "c_max", "measured twice", "measured outside",
        "measured over budget"])
def test_sample_config_is_range_checked_before_the_source(
        tmp_path, capsys, monkeypatch, fields, code, ending):
    monkeypatch.setattr(cli, "_coefficient_source", _no_source)
    config = {"instance": {"family": "IQP", "n": 20}, "mode": "A",
              "alpha": {"assume": 1.0}, "delta": 0.4, "lambda": 0.2, **fields}
    got, err = _sample_exit(tmp_path, capsys, config)
    assert got == code
    assert err.rstrip().endswith(ending)
