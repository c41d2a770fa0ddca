"""End-to-end command-line runs, in process via main(argv)."""
import contextlib
import errno
import io
import json
import math
import os
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nmixtime.cli
import nmixtime.likelihood
import nmixtime.model
import nmixtime.oracle
from nmixtime.cli import main
from nmixtime.errors import DesignSizeError
from nmixtime.likelihood import total_loglik
from nmixtime.datafiles import load_dataset, params_from_dict
from nmixtime.model import Family, ObservationProcess, Protocol, SurveyDesign
from nmixtime.simulate import SimConfig, simulate_dataset


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def strict_json(text):
    """Parse RFC 8259 JSON, rejecting the NaN and Infinity tokens Python's json accepts."""

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def sim_config(tmp_path, **overrides):
    config = {
        "model": "CountT",
        "sites": 40,
        "occasions": 2,
        "search_time": 1.0,
        "lambda": 2.0,
        "rate": 0.8,
        "seed": 7,
    }
    config.update(overrides)
    return write_json(tmp_path / "config.json", config)


def test_simulate_fit_loglik_validate_pipeline(tmp_path, capsys):
    cfg = sim_config(tmp_path)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    assert (data / "counts.csv").exists()
    assert (data / "times.csv").exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["outputs"]["counts"] == "counts.csv"
    assert len(manifest["config_digest"]) == 64

    fit_out = tmp_path / "fit.json"
    code = main([
        "fit", "--data", str(data), "--model", "CountT", "--out", str(fit_out)
    ])
    assert code == 0
    fit_payload = json.loads(fit_out.read_text())
    assert fit_payload["model"] == "CountT:M"
    assert fit_payload["converged"] is True
    assert len(fit_payload["se"]) == 2
    assert all(math.isfinite(s) for s in fit_payload["se"])
    est = fit_payload["estimates"]
    assert abs(est["log_lambda"] - math.log(2.0)) < 1.0
    assert abs(est["log_rate"] - math.log(0.8)) < 1.0

    params = write_json(tmp_path / "params.json", {"lambda": 2.0, "rate": 0.8})
    capsys.readouterr()
    assert main([
        "loglik", "--data", str(data), "--model", "CountT",
        "--params", params, "--constants",
    ]) == 0
    ll_payload = json.loads(capsys.readouterr().out)
    assert ll_payload["constants_included"] is True
    assert len(ll_payload["per_site"]) == 40
    ds = load_dataset(
        data / "counts.csv", data / "times.csv",
        family=Family.COUNT_T, process=ObservationProcess.BINOMIAL_COUNT,
    )
    from nmixtime.datafiles import params_from_dict
    direct = total_loglik(
        ds, params_from_dict({"lambda": 2.0, "rate": 0.8}), include_constants=True
    )
    assert ll_payload["total"] == pytest.approx(direct.total, abs=1e-12)
    # the fitted parameters cannot score below the truth
    assert fit_payload["loglik"] >= ll_payload["total"] - 1e-8

    val_out = tmp_path / "val.json"
    assert main([
        "validate", "--data", str(data), "--model", "CountT",
        "--params", params, "--tol", "1e-8", "--out", str(val_out),
    ]) == 0
    report = json.loads(val_out.read_text())
    assert report["within_tolerance"] is True
    assert report["max_abs_diff"] < 1e-8


def test_resimulation_is_byte_identical(tmp_path):
    cfg = sim_config(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "counts.csv").read_bytes() == (b / "counts.csv").read_bytes()
    assert (a / "times.csv").read_bytes() == (b / "times.csv").read_bytes()
    assert main(["simulate", "--config", cfg, "--out", str(c), "--seed", "8"]) == 0
    assert (a / "counts.csv").read_bytes() != (c / "counts.csv").read_bytes()


def test_loglik_round_trip_equals_in_memory_simulation(tmp_path, capsys):
    cfg = sim_config(tmp_path, sites=60, occasions=3, search_time=[0.5, 1.0, 1.5])
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    params = write_json(tmp_path / "params.json", {"lambda": 2.0, "rate": 0.8})
    capsys.readouterr()
    assert main([
        "loglik", "--data", str(data), "--model", "CountT", "--params", params, "--constants",
    ]) == 0
    per_site = json.loads(capsys.readouterr().out)["per_site"]
    truth = params_from_dict({"lambda": 2.0, "rate": 0.8})
    in_memory = simulate_dataset(SimConfig(
        Protocol.for_design(Family.COUNT_T, ObservationProcess.BINOMIAL_COUNT, 3),
        SurveyDesign(60, 3, [0.5, 1.0, 1.5]), truth, seed=7,
    ))
    assert per_site == total_loglik(in_memory, truth, include_constants=True).per_site.tolist()


def test_validate_finds_the_truncation_point_once(tmp_path, monkeypatch):
    cfg = sim_config(tmp_path, sites=30)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    params = write_json(tmp_path / "params.json", {"lambda": 2.0, "rate": 0.8})
    calls = []
    original = nmixtime.oracle._default_n_max
    monkeypatch.setattr(
        nmixtime.oracle, "_default_n_max", lambda *a: calls.append(1) or original(*a)
    )
    assert main([
        "validate", "--data", str(data), "--model", "CountT", "--params", params,
        "--out", str(tmp_path / "val.json"),
    ]) == 0
    assert len(calls) == 1


def test_simulate_poisson_prefix_model(tmp_path, capsys):
    cfg = sim_config(tmp_path, model="PCountT1", occasions=3)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    out = capsys.readouterr().out
    assert "PCountT1" in out
    assert (data / "times.csv").exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["outputs"]["times"] == "times.csv"


def test_simulate_missing_config_key(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"model": "Count", "sites": 5})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    assert "missing 'occasions'" in capsys.readouterr().err


def test_simulate_unknown_model(tmp_path, capsys):
    cfg = sim_config(tmp_path, model="CountX")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_model_process_conflict(tmp_path, capsys):
    cfg = sim_config(tmp_path, model="PCount", process="binomial")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    assert "implies the poisson process" in capsys.readouterr().err


def test_fit_wrong_columns_exits_config(tmp_path, capsys):
    bad = tmp_path / "counts.csv"
    bad.write_text("site,occasion,count\n1,1,2\n")
    assert main(["fit", "--counts", str(bad), "--model", "Count"]) == 2
    assert "missing column" in capsys.readouterr().err


def test_fit_requires_data_or_counts(capsys):
    assert main(["fit", "--model", "Count"]) == 2
    assert "--data DIR or --counts FILE" in capsys.readouterr().err


def test_usage_errors_and_help_return_instead_of_exiting(capsys):
    assert main(["fit"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nmixtime fit") and "--model" in err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: nmixtime")


def test_one_parser_serves_successive_subcommands(tmp_path, capsys):
    cfg = sim_config(tmp_path, sites=20)
    data = tmp_path / "data"
    params = write_json(tmp_path / "params.json", {"lambda": 2.0, "rate": 0.8})
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["loglik", "--data", str(data), "--model", "CountT", "--params", params]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["total"])
    assert nmixtime.cli.build_parser() is nmixtime.cli.build_parser()


def test_fit_invalid_data_exits_config(tmp_path, capsys):
    bad = tmp_path / "counts.csv"
    bad.write_text(
        "site,occasion,search_time,count\n1,1,1.0,2\n2,1,1.0,-1\n"
    )
    assert main(["fit", "--counts", str(bad), "--model", "Count"]) == 2
    assert "invalid data" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "loglik", "validate"])
def test_invalid_data_lines_number_cells_as_the_files_do(tmp_path, capsys, command):
    header = "site,occasion,search_time,count\n"
    counts = tmp_path / "counts.csv"
    counts.write_text(header + "1,1,1.0,-1\n1,2,1.0,0\n2,1,1.0,3\n2,2,1.0,-2\n")
    argv = [command, "--counts", str(counts), "--model", "Count"]
    argv += [] if command == "fit" else ["--params", write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 1.0})]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid data: negative count at site 1 occasion 1",
        "invalid data: negative count at site 2 occasion 2",
    ]
    # a load error names the same cell the same way
    counts.write_text(header + "1,1,1.0,-1\n1,1,1.0,0\n")
    assert main(argv) == 2
    assert "duplicate cell site 1 occasion 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "loglik", "validate"])
def test_a_counts_model_reads_no_times_from_a_data_directory(tmp_path, capsys, command):
    cfg = sim_config(tmp_path, sites=12)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    params = write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 0.8})
    argv = [command, "--data", str(data), "--model", "Count"]
    argv += [] if command == "fit" else ["--params", params]
    capsys.readouterr()
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command == "loglik":
        counts_only = load_dataset(data / "counts.csv", family=Family.COUNT, process=ObservationProcess.BINOMIAL_COUNT)
        expected = total_loglik(counts_only, params_from_dict({"lambda": 2.0, "rate": 0.8}))
        assert json.loads(out)["per_site"] == expected.per_site.tolist()


@pytest.mark.parametrize("command", ["fit", "loglik", "validate"])
def test_a_times_model_without_times_csv_prints_one_error_line(tmp_path, capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    (data / "counts.csv").write_text("site,occasion,search_time,count\n1,1,1.0,2\n1,2,1.0,1\n2,1,1.0,0\n2,2,1.0,3\n")
    argv = [command, "--data", str(data), "--model", "CountT"]
    argv += [] if command == "fit" else ["--params", write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 1.0})]
    assert main(argv) == 2
    assert one_error_line(capsys) == f"error: cannot read {data / 'times.csv'}: no such file"


@pytest.mark.parametrize("command", ["fit", "loglik", "validate"])
def test_a_times_model_given_counts_with_detections_and_no_times_prints_one_error_line(tmp_path, capsys, command):
    counts = tmp_path / "counts.csv"
    counts.write_text("site,occasion,search_time,count\n1,1,1.0,2\n1,2,1.0,0\n2,1,1.0,1\n2,2,1.0,1\n")
    argv = [command, "--counts", str(counts), "--model", "CountT"]
    argv += [] if command == "fit" else ["--params", write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 1.0})]
    assert main(argv) == 2
    assert one_error_line(capsys) == f"error: {counts} holds detections and CountT records their times: give --times FILE"


@pytest.mark.parametrize("command", ["fit", "loglik", "validate"])
def test_a_times_model_given_counts_without_detections_needs_no_times(tmp_path, capsys, command):
    counts = tmp_path / "counts.csv"
    counts.write_text("site,occasion,search_time,count\n1,1,1.0,0\n1,2,1.0,0\n2,1,1.0,0\n2,2,1.0,0\n")
    argv = [command, "--counts", str(counts), "--model", "CountT", "--out", str(tmp_path / "out.json")]
    argv += [] if command == "fit" else ["--params", write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 1.0})]
    assert main(argv) in (0, 3)  # a fit to no detections may be flagged
    assert "error" not in capsys.readouterr().err
    assert strict_json((tmp_path / "out.json").read_text())["model"] == "CountT:M"


def _finite_lists(value):
    """``value`` with arrays as lists and non-finite floats as None."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_lists(v) for v in value]
    return value


def dumped(payload) -> str:
    """The JSON text of one json.dumps call on ``payload`` with its arrays as lists."""
    return json.dumps(_finite_lists(payload), indent=2, allow_nan=False) + "\n"


EMIT_PAYLOADS = {
    "non-finite sites": {
        "model": "CountT:M", "total": -math.inf,
        "per_site": np.array([-1.5, -math.inf, math.nan, 0.1, -0.0, 1e-5, -1e300, -12.25, math.inf]),
        "constants_included": False,
    },
    "no sites": {"model": "Count:M", "total": 0.0, "per_site": np.array([]), "constants_included": True},
    "one site": {"model": "PCountT1:S", "total": -3.75, "per_site": np.array([-3.75]), "constants_included": False},
    "more sites than one block": {
        "model": "Count:M", "total": -math.inf,
        "per_site": np.concatenate([-np.linspace(0.5, 900.0, 70_000), [-math.inf, math.nan, -0.0]]),
        "constants_included": False,
    },
    "fit": {
        "model": "Binary:M", "estimates": {"log_lambda": 0.5, "log_rate": -1.25}, "se": [0.1, math.nan],
        "loglik": -41.0, "aic": 86.0, "converged": True, "n_evals": 4, "hessian_condition": math.inf,
        "covariance": [[1.0, 0.0], [0.0, 2.5]], "messages": ["a \"quoted\"\nline", "\u00e9"],
    },
    "nested around an array": {
        "estimates": {"log_lambda": [0.5, -math.inf], "inner": {"x": []}}, "empty": {}, "none": [],
        "per_site": np.array([2.0, -0.25]), "text": "tab\there", "flag": None,
    },
}


@pytest.mark.parametrize("name", list(EMIT_PAYLOADS))
def test_emit_writes_what_one_dumps_call_writes(tmp_path, capsys, name):
    payload = EMIT_PAYLOADS[name]
    nmixtime.cli._emit(payload, str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == dumped(payload)
    nmixtime.cli._emit(payload, None)
    assert capsys.readouterr().out == dumped(payload)


def test_loglik_json_is_what_one_dumps_call_writes(tmp_path, capsys):
    cfg = sim_config(tmp_path, sites=30)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    params = {"lambda": 2.5, "rate": 0.7}
    assert main(["loglik", "--data", str(data), "--model", "CountT", "--params", write_json(tmp_path / "p.json", params)]) == 0
    ds = load_dataset(data / "counts.csv", data / "times.csv", family=Family.COUNT_T, process=ObservationProcess.BINOMIAL_COUNT)
    ll = total_loglik(ds, params_from_dict(params))
    payload = {"model": "CountT:M", "total": ll.total, "per_site": ll.per_site, "constants_included": False}
    assert capsys.readouterr().out.split("\n", 1)[1] == dumped(payload)


@pytest.mark.parametrize("command", ["fit", "loglik"])
def test_a_cli_run_scans_the_records_once(tmp_path, monkeypatch, command):
    cfg = sim_config(tmp_path, sites=12)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    calls = []
    original = nmixtime.model.record_faults
    for module in (nmixtime.model, nmixtime.likelihood, nmixtime.cli):  # every name it is called through
        if getattr(module, "record_faults", None) is original:
            monkeypatch.setattr(module, "record_faults", lambda ds: calls.append(1) or original(ds))
    argv = [command, "--data", str(data), "--model", "CountT", "--out", str(tmp_path / "out.json")]
    argv += [] if command == "fit" else ["--params", write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 0.8})]
    assert main(argv) == 0
    assert len(calls) == 1


def test_fit_first_time_at_window_end_exits_config(tmp_path, capsys):
    # two detections whose first comes at the window's end: no density scores it
    counts = tmp_path / "counts.csv"
    counts.write_text("site,occasion,search_time,count\n1,1,1.0,2\n")
    times = tmp_path / "times.csv"
    times.write_text("site,occasion,detection_index,time\n1,1,1,1.0\n")
    code = main(["fit", "--counts", str(counts), "--times", str(times), "--model", "CountT1"])
    assert code == 2
    assert "invalid data: first detection time equals search time" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "loglik", "validate"])
def test_a_time_at_window_end_warns_in_one_line_numbered_from_1(tmp_path, capsys, command):
    # legal but unusual: one warning line, cells counted as the files count them
    counts = tmp_path / "counts.csv"
    counts.write_text("site,occasion,search_time,count\n1,1,1.0,0\n1,2,1.0,1\n2,1,1.0,2\n2,2,1.0,1\n")
    times = tmp_path / "times.csv"
    times.write_text("site,occasion,detection_index,time\n1,2,1,1.0\n2,1,1,0.3\n2,1,2,0.6\n2,2,1,1.0\n")
    argv = [command, "--counts", str(counts), "--times", str(times), "--model", "CountT"]
    argv += [] if command == "fit" else ["--params", write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 1.0})]
    main(argv)
    assert capsys.readouterr().err.splitlines() == [
        "warning: detection time equals search time in 2 cell(s) (first: site 1 occasion 2)"
    ]


def test_single_visit_binary_fit_flags_and_exits_3(tmp_path, capsys):
    cfg = sim_config(
        tmp_path, model="Binary", sites=80, occasions=1, **{"lambda": 2.0, "rate": 1.0}
    )
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    fit_out = tmp_path / "fit.json"
    code = main([
        "fit", "--data", str(data), "--model", "Binary",
        "--multistart", "2", "--out", str(fit_out),
    ])
    assert code == 3
    payload = strict_json(fit_out.read_text())
    assert payload["hessian_condition"] is None  # infinite, written as null
    assert any("condition" in m for m in payload["messages"])


def test_validate_nmax_below_support_exits_4(tmp_path, capsys):
    cfg = sim_config(tmp_path, model="Count", sites=30, occasions=2, **{"lambda": 3.0})
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    params = write_json(tmp_path / "p.json", {"lambda": 3.0, "rate": 0.8})
    code = main([
        "validate", "--data", str(data), "--model", "Count",
        "--params", params, "--nmax", "1",
    ])
    assert code == 4
    assert "oracle failed" in capsys.readouterr().err


def test_validate_impossible_tolerance_exits_4(tmp_path, capsys):
    cfg = sim_config(tmp_path)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    params = write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 0.8})
    capsys.readouterr()
    code = main([
        "validate", "--data", str(data), "--model", "CountT",
        "--params", params, "--tol", "0",
    ])
    report = json.loads(capsys.readouterr().out)
    if report["max_abs_diff"] == 0.0:
        assert code == 0
    else:
        assert code == 4
        assert report["within_tolerance"] is False


def test_params_exclusivity_error(tmp_path, capsys):
    cfg = sim_config(tmp_path)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    params = write_json(
        tmp_path / "p.json", {"lambda": 2.0, "log_lambda": 0.7, "rate": 0.8}
    )
    code = main([
        "loglik", "--data", str(data), "--model", "CountT", "--params", params
    ])
    assert code == 2
    assert "exactly one of" in capsys.readouterr().err


def test_loglik_poisson_times_note_in_validate(tmp_path, capsys):
    cfg = sim_config(tmp_path, model="PCountT", sites=25)
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    params = write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 0.8})
    capsys.readouterr()
    assert main([
        "validate", "--data", str(data), "--model", "PCountT", "--params", params
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert any("uninformative" in note for note in report["notes"])


def test_loglik_series_failure_exits_config(tmp_path, capsys):
    # at log lambda 800 the hypergeometric series peaks past its 2^32-term bound
    cfg = sim_config(tmp_path, model="Count", sites=2, **{"lambda": 5e4, "rate": 0.01})
    data = tmp_path / "data"
    assert main(["simulate", "--config", cfg, "--out", str(data)]) == 0
    params = write_json(tmp_path / "p.json", {"log_lambda": 800.0, "rate": 0.01})
    capsys.readouterr()
    code = main(["loglik", "--data", str(data), "--model", "Count", "--params", params])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_fit_whose_solver_overflows_exits_3(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text(
        "site,occasion,search_time,count\n1,1,1e-300,5\n1,2,1e+300,1\n2,1,1.0,0\n2,2,1.0,0\n"
    )
    assert main(["fit", "--counts", str(counts), "--model", "Count"]) == 3
    captured = capsys.readouterr()
    payload = strict_json(captured.out)
    assert payload["converged"] is False
    # the flagged fit has no finite standard errors or condition number:
    # strict JSON writes them as null, not NaN or Infinity
    assert payload["se"] == [None, None] and payload["hessian_condition"] is None
    assert any("the trust-region step could not be computed" in m for m in payload["messages"])
    assert captured.err == ""


@pytest.mark.parametrize(
    "flag, value, message",
    [("--tol", "-1", "tol must be positive and finite, got -1.0"),
     ("--tol", "nan", "tol must be positive and finite, got nan"),
     ("--max-evals", "0", "max_evals must be at least 1, got 0"),
     ("--multistart", "-3", "multistart must be nonnegative, got -3")],
)
def test_fit_refuses_a_bad_search_argument(tmp_path, capsys, flag, value, message):
    counts = tmp_path / "counts.csv"
    counts.write_text("site,occasion,search_time,count\n1,1,1.0,2\n2,1,1.0,0\n")
    assert main(["fit", "--counts", str(counts), "--model", "Count", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]


def test_simulate_out_of_memory_prints_one_error_line(tmp_path, capsys, monkeypatch):
    def too_large(config):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (100000000000, 10)")

    monkeypatch.setattr(nmixtime.cli, "simulate_dataset", too_large)
    cfg = sim_config(tmp_path, sites=100)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: out of memory: Unable to allocate 7.28 TiB for an array with shape (100000000000, 10)"]


def test_simulate_refuses_a_design_larger_than_memory_before_allocating(tmp_path, capsys, monkeypatch):
    # 10^11 sites x 4 occasions: 3.2 TB of search times alone, refused from the cell count
    def allocated(*args):
        raise AssertionError("the design's search-time matrix was allocated")

    monkeypatch.setattr(nmixtime.model, "_broadcast", allocated)
    with pytest.raises(DesignSizeError, match="exceed this machine's memory"):
        SurveyDesign(10**11, 4, 1.0)
    cfg = sim_config(tmp_path, sites=1e11, occasions=4)
    start = time.perf_counter()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: a design of 100000000000 sites x 4 occasions")


def test_validate_nmax_below_the_first_sites_count_exits_4(tmp_path, capsys):
    # the site whose count exceeds --nmax comes first, so no earlier site's
    # tail bound fails before it
    counts = tmp_path / "counts.csv"
    counts.write_text("site,occasion,search_time,count\n1,1,1.0,5\n2,1,1.0,0\n")
    params = write_json(tmp_path / "p.json", {"lambda": 3.0, "rate": 0.8})
    code = main(["validate", "--counts", str(counts), "--model", "Count", "--params", params, "--nmax", "1"])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("oracle failed: ")


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    return err.strip()


BASE_CONFIG = '"model": "Count", "sites": 3, "occasions": 2, "search_time": 1.0, "lambda": 2.0, "rate": 0.8, "seed": 7'


@pytest.mark.parametrize(
    "value, message",
    [
        ('"process": "bogus"', "unknown process 'bogus'; expected one of binomial, poisson"),
        ('"process": ["a"]', "unknown process ['a']"),
        ('"sites": null', "'sites' must be a whole number, got None"),
        ('"seed": null', "'seed' must be a whole number, got None"),
        ('"occasions": true', "'occasions' must be a whole number, got True"),
        ('"sites": 2.7', "'sites' must be a whole number, got 2.7"),
        ('"seed": 1.9', "'seed' must be a whole number, got 1.9"),
        ('"sites": 1e400', "'sites' must be a whole number, got inf"),
        ('"seed": "3"', "'seed' must be a whole number, got '3'"),
        ('"search_time": {"a": 1}', "not 'dict'"),
        ('"lambda": {"a": 1}', "not 'dict'"),
        ('"rate": {"a": 1}', "not 'dict'"),
        ('"search_time": true', "'search_time' must hold numbers, not true or false"),
        ('"search_time": [1.0, true]', "'search_time' must hold numbers, not true or false"),
        ('"lambda": false', "'lambda' must hold numbers, not true or false"),
        ('"rate": [[0.5, 1.0], [false, 1.0], [0.5, 1.0]]', "'rate' must hold numbers, not true or false"),
    ],
)
def test_simulate_refuses_a_bad_json_value_in_one_line(tmp_path, capsys, value, message):
    # a repeated key takes the last value
    cfg = tmp_path / "config.json"
    cfg.write_text("{" + BASE_CONFIG + ", " + value + "}", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "d").exists()


def test_simulate_takes_integral_floats_as_whole_numbers(tmp_path):
    outputs = []
    spellings = {"int": '"sites": 3, "occasions": 2, "seed": 7', "float": '"sites": 3.0, "occasions": 2.0, "seed": 7.0'}
    for name, whole in spellings.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text("{" + BASE_CONFIG + ", " + whole + "}", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "counts.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def count_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("count_data")
    assert main(["simulate", "--config", sim_config(root, model="Count", sites=4), "--out", str(root / "data")]) == 0
    return str(root / "data")


@pytest.mark.parametrize("key", ["lambda", "rate"])
@pytest.mark.parametrize("command, flag", [("fit", "--init"), ("loglik", "--params"), ("validate", "--params")])
def test_a_dict_valued_parameter_file_exits_2(tmp_path, capsys, count_data, key, command, flag):
    params = {"lambda": 2.0, "rate": 0.8, key: {"a": 1}}
    capsys.readouterr()
    argv = [command, "--data", count_data, "--model", "Count", flag, write_json(tmp_path / "p.json", params)]
    assert main(argv) == 2
    assert "not 'dict'" in one_error_line(capsys)


@pytest.mark.parametrize(
    "text, message",
    [
        ('"log_lambda": true, "rate": 0.8', "'log_lambda' must hold numbers, not true or false"),
        ('"lambda": 2.0, "log_rate": [[false]]', "'log_rate' must hold numbers, not true or false"),
        ('"lambda": [2.0, 2.0, true, 2.0], "rate": 0.8', "'lambda' must hold numbers, not true or false"),
        ('"lambda": 2.0, "rate": [true]', "'rate' must hold numbers, not true or false"),
        ('"log_lambda": NaN, "rate": 0.8', "log_lambda entries must not be NaN or +inf"),
        ('"lambda": 2.0, "log_rate": Infinity', "log_rate entries must not be NaN or +inf"),
    ],
)
@pytest.mark.parametrize("command, flag", [("fit", "--init"), ("loglik", "--params"), ("validate", "--params")])
def test_a_parameter_file_refuses_booleans_nan_and_infinity(tmp_path, capsys, count_data, command, flag, text, message):
    path = tmp_path / "p.json"
    path.write_text("{" + text + "}", encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--data", count_data, "--model", "Count", flag, str(path)]) == 2
    assert one_error_line(capsys) == f"error: {message}"


@pytest.mark.parametrize("command", ["simulate", "fit", "loglik", "validate"])
def test_an_unwritable_output_is_named_once_in_one_line(tmp_path, capsys, count_data, command):
    if command == "simulate":
        (tmp_path / "file").write_text("")
        out, reason = tmp_path / "file" / "x", os.strerror(errno.ENOTDIR)
        argv = ["simulate", "--config", sim_config(tmp_path), "--out", str(out)]
    else:
        out, reason = tmp_path / "missing" / "out.json", os.strerror(errno.ENOENT)
        params = write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 0.8})
        flag = "--init" if command == "fit" else "--params"
        argv = [command, "--data", count_data, "--model", "Count", flag, params, "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert one_error_line(capsys) == f"error: cannot write {out}: {reason}"


def test_a_header_field_too_long_for_csv_is_named_in_one_line(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("site,occasion,search_time,count," + "x" * 140_000 + "\n1,1,1.0,2\n")
    params = write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 0.8})
    assert main(["loglik", "--counts", str(counts), "--model", "Count", "--params", params]) == 2
    assert one_error_line(capsys) == f"error: {counts}: field larger than field limit (131072)"


def names_its_key(err, key):
    return re.fullmatch(rf"error: '?{key}'? must hold numbers: .*not 'dict'", err) is not None


@pytest.mark.parametrize("key", ["lambda", "rate", "log_lambda", "log_rate"])
@pytest.mark.parametrize("command, flag", [("fit", "--init"), ("loglik", "--params"), ("validate", "--params")])
def test_a_wrong_typed_parameter_value_names_its_key(tmp_path, capsys, count_data, key, command, flag):
    params = {"lambda": 2.0, "rate": 0.8}
    del params[key.removeprefix("log_")]
    params[key] = {"a": 1}
    capsys.readouterr()
    argv = [command, "--data", count_data, "--model", "Count", flag, write_json(tmp_path / "p.json", params)]
    assert main(argv) == 2
    assert names_its_key(one_error_line(capsys), key)


@pytest.mark.parametrize("key", ["lambda", "rate", "log_lambda", "log_rate", "search_time"])
def test_a_wrong_typed_simulate_value_names_its_key(tmp_path, capsys, key):
    config = {"model": "Count", "sites": 3, "occasions": 2, "search_time": 1.0, "lambda": 2.0, "rate": 0.8}
    del config[key.removeprefix("log_")]
    config[key] = {"a": 1}
    assert main(["simulate", "--config", write_json(tmp_path / "c.json", config), "--out", str(tmp_path / "d")]) == 2
    assert names_its_key(one_error_line(capsys), key)
    assert not (tmp_path / "d").exists()


def reading(flag, path, tmp_path, count_data):
    """argv of a run that reads ``path`` as its ``flag`` input, its other inputs good."""
    params = write_json(tmp_path / "good.json", {"lambda": 2.0, "rate": 0.8})
    counts = tmp_path / "counts.csv"
    counts.write_text("site,occasion,search_time,count\n1,1,1.0,1\n")
    return {
        "--config": ["simulate", "--config", path, "--out", str(tmp_path / "out")],
        "--counts": ["loglik", "--counts", path, "--model", "Count", "--params", params],
        "--times": ["loglik", "--counts", str(counts), "--times", path, "--model", "CountT", "--params", params],
        "--params": ["loglik", "--data", count_data, "--model", "Count", "--params", path],
        "--init": ["fit", "--data", count_data, "--model", "Count", "--init", path],
    }[flag]


JSON_INPUTS = ["--config", "--params", "--init"]


@pytest.mark.parametrize("flag", [*JSON_INPUTS, "--counts", "--times"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_unreadable_input_file_is_named_once_in_one_line(tmp_path, capsys, count_data, flag, kind):
    path = tmp_path / "input"
    reason = "no such file"
    if kind == "directory":
        path.mkdir()
        reason = os.strerror(errno.EISDIR)
    capsys.readouterr()
    assert main(reading(flag, str(path), tmp_path, count_data)) == 2
    assert one_error_line(capsys) == f"error: cannot read {path}: {reason}"


@pytest.mark.parametrize("flag", JSON_INPUTS)
@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff{}", ": 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"{", " is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (b"[1, 2]", ": expected a JSON object at the top level"),
    ],
    ids=["not UTF-8", "not JSON", "not an object"],
)
def test_a_json_input_that_is_no_object_is_named_in_one_line(tmp_path, capsys, count_data, flag, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    capsys.readouterr()
    assert main(reading(flag, str(path), tmp_path, count_data)) == 2
    assert one_error_line(capsys) == f"error: {path}{message}"


@pytest.mark.parametrize("tail_tol", ["0", "1", "-1e-3", "nan"])
def test_validate_refuses_a_tail_tolerance_outside_0_1(tmp_path, capsys, count_data, tail_tol):
    params = write_json(tmp_path / "p.json", {"lambda": 2.0, "rate": 0.8})
    capsys.readouterr()
    argv = ["validate", "--data", count_data, "--model", "Count", "--params", params, f"--tail-tol={tail_tol}"]
    assert main(argv) == 2
    assert "tail_tol must lie in (0, 1)" in one_error_line(capsys)


def json_values(numbers):
    """Any JSON value whose numbers come from ``numbers``: null, bools, strings, lists and objects too."""
    leaves = st.none() | st.booleans() | numbers | st.text(max_size=3)
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=8)


# small numbers and non-finite ones only, so no draw can ask for a large survey
ODD_SIZES = st.sampled_from([2.0, 2.5, math.inf, -math.inf, math.nan])
SITES, OCCASIONS = (json_values(st.integers(-1, top) | ODD_SIZES) for top in (4, 3))
VALUES = json_values(st.floats(-2.0, 3.0) | st.sampled_from([0.0, math.inf, -math.inf, math.nan]))
MODELS = st.sampled_from(["Count", "PCountT", "BinaryT1", "CountT1", "countx"]) | json_values(st.integers(0, 2))
PROCESSES = st.sampled_from(["binomial", "poisson", "bogus"]) | json_values(st.integers(0, 2))
PARAMS = {key: VALUES for key in ("lambda", "rate", "log_lambda", "log_rate")}


def run_quietly(argv):
    """main's exit code and stderr, with stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(st.fixed_dictionaries(
    {"model": MODELS, "sites": SITES, "occasions": OCCASIONS, "search_time": VALUES},
    optional={"process": PROCESSES, "seed": SITES, **PARAMS},
))
def test_any_simulate_config_exits_0_or_2_without_a_traceback(config):
    with tempfile.TemporaryDirectory() as work:
        path = f"{work}/config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code, err = run_quietly(["simulate", "--config", path, "--out", f"{work}/out"])
    assert code in (0, 2) and "Traceback" not in err
    assert code == 0 or err.startswith("error: ")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.fixed_dictionaries({}, optional=PARAMS))
def test_any_parameter_file_exits_0_or_2_without_a_traceback(tmp_path, count_data, params):
    path = write_json(tmp_path / "p.json", params)
    code, err = run_quietly(["loglik", "--data", count_data, "--model", "Count", "--params", path])
    assert code in (0, 2) and "Traceback" not in err
    assert code == 0 or err.startswith("error: ")
