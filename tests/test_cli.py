"""End-to-end command-line runs, in process via main(argv)."""
import json
import math

import numpy as np
import pytest

import nmixtime.cli
import nmixtime.oracle
from nmixtime.cli import main
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


def test_fit_first_time_at_window_end_exits_config(tmp_path, capsys):
    # two detections whose first comes at the window's end: no density scores it
    counts = tmp_path / "counts.csv"
    counts.write_text("site,occasion,search_time,count\n1,1,1.0,2\n")
    times = tmp_path / "times.csv"
    times.write_text("site,occasion,detection_index,time\n1,1,1,1.0\n")
    code = main(["fit", "--counts", str(counts), "--times", str(times), "--model", "CountT1"])
    assert code == 2
    assert "invalid data: first detection time equals search time" in capsys.readouterr().err


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
