"""Command-line interface: simulate, fit, loglik, and validate subcommands.

Exit codes: 0 success, 2 unusable configuration or data (one too large
for memory included), or a numeric failure the closed forms cannot get
past (a series that does not converge, data outside the density's
support), each printing one ``error: ...`` line to stderr; 3 fit
completed but flagged (non-convergence or a degenerate Hessian); 4
closed-form vs summation-oracle disagreement, or an oracle that fails
during validation (it misses its tail bound, or ``--nmax`` is below a
count), which prints one ``oracle failed: ...`` line.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .datafiles import (
    COUNTS_FILE,
    MANIFEST_FILE,
    TIMES_FILE,
    RunManifest,
    config_digest,
    json_numbers,
    load_dataset,
    params_from_dict,
    params_to_dict,
    read_text,
    write_dataset,
)
from .errors import DataFormatError, EndOfWindowWarning, NMixTimeError, OracleConvergenceError
from .estimate import fit
from .likelihood import total_loglik
from .model import Dataset, Family, ObservationProcess, Protocol, SurveyDesign, validate_dataset
from .numtext import BLOCK, float_cells, join
from .oracle import OracleConfig, oracle_site_logliks
from .simulate import SimConfig, simulate_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT_FLAGGED = 3
EXIT_VALIDATION = 4

_FAMILIES = {f.value.lower(): f for f in Family}
_PROCESSES = {p.value: p for p in ObservationProcess}


def _parse_model(model: str, process: str | None) -> tuple[Family, ObservationProcess]:
    """Resolve --model/--process, accepting P-prefixed shorthand like PCountT1."""
    name = model.strip().lower()
    implied_poisson = False
    if name not in _FAMILIES and name.startswith("p") and name[1:] in _FAMILIES:
        implied_poisson = True
        name = name[1:]
    if name not in _FAMILIES:
        known = ", ".join(sorted(f.value for f in Family))
        raise DataFormatError(f"unknown model '{model}'; expected one of {known} (or a P- prefix)")
    family = _FAMILIES[name]
    if process is None:
        proc = ObservationProcess.POISSON_PROCESS if implied_poisson else ObservationProcess.BINOMIAL_COUNT
    elif isinstance(process, str) and process in _PROCESSES:
        proc = _PROCESSES[process]
        if implied_poisson and proc is not ObservationProcess.POISSON_PROCESS:
            raise DataFormatError(f"model '{model}' implies the poisson process but --process says '{process}'")
    else:
        raise DataFormatError(f"unknown process {process!r}; expected one of {', '.join(sorted(_PROCESSES))}")
    return family, proc


def _whole(config: dict, key: str, default=None) -> int:
    """``config[key]`` as a JSON whole number: an int or an integral float, not a bool or null."""
    value = config.get(key, default)
    if isinstance(value, bool) or not (isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise DataFormatError(f"'{key}' must be a whole number, got {value!r}")
    return int(value)


def _load_json(path) -> dict:
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: expected a JSON object at the top level")
    return payload


def _dataset_from_args(args) -> Dataset:
    if args.data is not None:
        counts = Path(args.data) / COUNTS_FILE
        times = Path(args.data) / TIMES_FILE
    else:
        if args.counts is None:
            raise DataFormatError("provide --data DIR or --counts FILE")
        counts = Path(args.counts)
        times = Path(args.times) if args.times else None
    family, process = _parse_model(args.model, args.process)
    if not family.records_times:
        times = None
    dataset = load_dataset(counts, times, family=family, process=process)
    if family.records_times and times is None and (dataset.counts > 0).any():
        raise DataFormatError(f"{counts} holds detections and {family.value} records their times: give --times FILE")
    with warnings.catch_warnings():  # reported below, from the scan it comes from
        warnings.simplefilter("ignore", EndOfWindowWarning)
        violations = validate_dataset(dataset)
    edge = dataset.faults[1]
    if edge.any():
        first = divmod(int(np.argmax(edge)), dataset.n_occasions)
        print(
            f"warning: detection time equals search time in {int(edge.sum())} cell(s) (first: {_cell(*first)})",
            file=sys.stderr,
        )
    if violations:
        for v in violations:
            where = "" if v.site is None else " at " + _cell(v.site, v.occasion)
            print(f"invalid data: {v.message}{where}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    return dataset


def _cell(site: int, occasion: int) -> str:
    """A 0-based cell as the files number it, from 1."""
    return f"site {site + 1} occasion {occasion + 1}"


def _finite(value):
    """``value`` with every non-finite float replaced by None, JSON's null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _json_value(value) -> str:
    """``value`` as json.dumps(indent=2) writes it one level into an object;
    an array (a vector of floats) is formatted in numpy, non-finite values as null."""
    if not isinstance(value, np.ndarray):
        return json.dumps(_finite(value), indent=2, allow_nan=False).replace("\n", "\n  ")
    if not value.size:
        return "[]"
    items = b"".join(
        join([b"    ", float_cells(value[k:k + BLOCK], nonfinite="null"), b",\n"])
        for k in range(0, value.size, BLOCK)
    )
    return "[\n" + items[:-2].decode() + "\n  ]"


@contextlib.contextmanager
def _writing(path):
    """An OSError inside as ``cannot write PATH: <reason>``, PATH the file it names, else ``path``."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def _emit(payload: dict, out: str | None) -> None:
    """Write ``payload`` (not empty) as json.dumps(indent=2) would, but strict
    (RFC 8259): NaN and infinities become null, and an array value is written
    as json writes its list, without a call per value."""
    text = "{\n" + ",\n".join(f"  {json.dumps(k)}: {_json_value(v)}" for k, v in payload.items()) + "\n}"
    if out:
        with _writing(out):
            Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def cmd_simulate(args) -> int:
    config = _load_json(args.config)
    for key in ("model", "sites", "occasions", "search_time"):
        if key not in config:
            raise DataFormatError(f"simulate config is missing '{key}'")
    family, process = _parse_model(str(config["model"]), config.get("process"))
    seed = args.seed if args.seed is not None else _whole(config, "seed", 0)
    resolved = {**config, "seed": seed, "process": process.value}

    design = SurveyDesign(_whole(config, "sites"), _whole(config, "occasions"), json_numbers(config, "search_time"))
    params = params_from_dict(config)
    protocol = Protocol.for_design(family, process, design.n_occasions)
    sim = SimConfig(protocol, design, params, seed)

    t0 = time.perf_counter()
    dataset = simulate_dataset(sim)
    with _writing(args.out):
        paths = write_dataset(dataset, args.out)
    elapsed = time.perf_counter() - t0

    manifest = RunManifest(
        command="simulate",
        config_digest=config_digest(resolved),
        outputs={key: path.name for key, path in paths.items() if path is not None},
        timings={"elapsed_seconds": round(elapsed, 6)},
    )
    with _writing(args.out):
        (Path(args.out) / MANIFEST_FILE).write_text(manifest.to_json() + "\n", encoding="utf-8")
    print(
        f"wrote {design.n_sites} sites x {design.n_occasions} occasions "
        f"({protocol.label}) to {args.out}"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    dataset = _dataset_from_args(args)
    init = None
    if args.init:
        init = params_from_dict(_load_json(args.init))
    result = fit(
        dataset,
        init,
        tol=args.tol,
        max_evals=args.max_evals,
        multistart=args.multistart,
        seed=args.seed,
    )
    payload = {
        "model": dataset.protocol.label,
        "estimates": params_to_dict(result.estimates),
        "se": result.se.tolist(),
        "loglik": result.loglik,
        "aic": result.aic,
        "converged": result.converged,
        "n_evals": result.n_evals,
        "hessian_condition": result.hessian_condition,
        "covariance": result.covariance.tolist(),
        "messages": result.messages,
    }
    _emit(payload, args.out)
    return EXIT_FIT_FLAGGED if result.flagged else EXIT_OK


def cmd_loglik(args) -> int:
    dataset = _dataset_from_args(args)
    params = params_from_dict(_load_json(args.params))
    ll = total_loglik(dataset, params, include_constants=args.constants)
    payload = {
        "model": dataset.protocol.label,
        "total": ll.total,
        "per_site": ll.per_site,
        "constants_included": ll.irrelevant_constants_included,
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    dataset = _dataset_from_args(args)
    params = params_from_dict(_load_json(args.params))
    cfg = OracleConfig(n_max=args.nmax, tail_tol=args.tail_tol)
    closed = total_loglik(dataset, params).per_site
    notes = []
    if dataset.protocol.times_uninformative:
        notes.append(
            "detection times are uninformative under the poisson process; "
            "they enter the likelihood only as data-only constants"
        )
    worst = 0.0
    worst_site = None
    oracle_total = 0.0
    try:
        for i, o in enumerate(oracle_site_logliks(dataset, params, cfg)):
            oracle_total += o
            c = float(closed[i])
            if c == o:  # covers the matched -inf case, where subtraction is NaN
                continue
            d = abs(c - o)
            if math.isnan(d) or d > worst:
                worst = d
                worst_site = i
    except (OracleConvergenceError, ValueError) as exc:  # a tail bound missed, or --nmax below a count
        print(f"oracle failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    ok = math.isfinite(worst) and worst <= args.tol
    payload = {
        "model": dataset.protocol.label,
        "n_sites": dataset.n_sites,
        "max_abs_diff": worst,
        "worst_site": worst_site,
        "tolerance": args.tol,
        "within_tolerance": ok,
        "total_closed_form": float(np.sum(closed)),
        "total_oracle": oracle_total,
        "notes": notes,
    }
    _emit(payload, args.out)
    return EXIT_OK if ok else EXIT_VALIDATION


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help=f"directory holding {COUNTS_FILE} (and {TIMES_FILE} if recorded)")
    p.add_argument("--counts", help="counts CSV path (alternative to --data)")
    p.add_argument("--times", help="times CSV path (with --counts)")
    p.add_argument("--model", required=True, help="Binary, BinaryT1, Count, CountT, CountT1 (P- prefix for poisson)")
    p.add_argument("--process", choices=sorted(_PROCESSES), help="observation process (default binomial)")


@functools.cache  # parse_args leaves the parser as it was: build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmixtime",
        description="Simulate, evaluate, fit, and cross-check abundance-mixture detection models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a dataset from a JSON config")
    p_sim.add_argument("--config", required=True, help="JSON file with model, sites, occasions, search_time, lambda, rate, seed")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit")
    _add_data_args(p_fit)
    p_fit.add_argument("--init", help="JSON file with starting lambda/rate values")
    p_fit.add_argument("--tol", type=float, default=1e-8)
    p_fit.add_argument("--max-evals", type=int, default=2000)
    p_fit.add_argument("--multistart", type=int, default=5)
    p_fit.add_argument("--seed", type=int, default=0, help="seed for jittered restarts")
    p_fit.add_argument("--out", help="write the fit JSON here instead of stdout")
    p_fit.set_defaults(func=cmd_fit)

    p_ll = sub.add_parser("loglik", help="evaluate the log-likelihood at fixed parameters")
    _add_data_args(p_ll)
    p_ll.add_argument("--params", required=True, help="JSON file with lambda/rate (or log_lambda/log_rate)")
    p_ll.add_argument("--constants", action="store_true", help="include data-only constant terms")
    p_ll.add_argument("--out", help="write JSON here instead of stdout")
    p_ll.set_defaults(func=cmd_loglik)

    p_val = sub.add_parser("validate", help="cross-check closed forms against the summation oracle")
    _add_data_args(p_val)
    p_val.add_argument("--params", required=True, help="JSON file with lambda/rate (or log_lambda/log_rate)")
    p_val.add_argument("--nmax", type=int, help="abundance truncation point (default: automatic)")
    p_val.add_argument("--tail-tol", type=float, default=1e-14, help="oracle tail tolerance")
    p_val.add_argument("--tol", type=float, default=1e-8, help="allowed closed-form vs oracle discrepancy")
    p_val.add_argument("--out", help="write the report JSON here instead of stdout")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # usage errors, --help and re-raised validation exits
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    except (NMixTimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's says how much it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
