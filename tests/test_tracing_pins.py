"""The benchmark tracer's pins: every name it rebinds must exist in the package."""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

from nmixtime.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    missing = [
        f"{path}.{attr}"
        for path, attr, _, _ in tracing.LAYERS
        if not hasattr(tracing._owner(path), attr)
    ]
    assert missing == []


def test_a_traced_cli_fit_records_its_layers_and_restores_the_names(tmp_path):
    tracing = load_tracing()
    config = {"model": "Count", "sites": 30, "occasions": 3, "search_time": 1.0, "lambda": 3.0, "rate": 0.8, "seed": 2}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(data)]) == 0
    originals = [(tracing._owner(path), attr) for path, attr, _, _ in tracing.LAYERS]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in originals]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.op("fit", lambda: main(["fit", "--data", str(data), "--model", "Count"]))()
    finally:
        tracer.uninstall()
    assert code == 0
    assert {"special.pfq", "likelihood.total_loglik", "estimate.optimize"} <= set(tracer.names)
    assert all(getattr(owner, attr) is original for owner, attr, original in originals)
