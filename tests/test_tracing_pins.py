"""The benchmark tracer's pins: every name it rebinds must exist in the package."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{path}.{attr}"
        for path, attr, _, _ in tracing.LAYERS
        if not hasattr(tracing._owner(path), attr)
    ]
    assert missing == []
