"""nmixtime benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload field_fit --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with nothing
wrapped. ``--trace 1`` runs each cycle of operations twice, first plain and
then with every layer wrapped in timing spans, reports the per-layer
metrics and the tracing overhead, and writes the spans to
``.perfbench-out/trace-<workload>.jsonl``. Times are scaled to a reference
host speed (see calibrate.py); raw seconds go to the summary line.

The run is single-threaded: BLAS/OpenMP pools are pinned to one thread
before numpy loads, and operations run one after another in this process.
Only the set-up measurement starts child processes, one at a time.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

from calibrate import timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9


def environment() -> dict:
    import numpy
    import scipy

    src_loc = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_loc": src_loc,
    }


def measure_setup(argvs: list[list[str]], work: Path) -> tuple[float, float]:
    """Median over fresh interpreters of importing nmixtime plus the
    workload's first, cold operation: (scaled, raw) seconds."""
    spec = work / "cold.json"
    spec.write_text(json.dumps(argvs), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return tuple(statistics.median(x[k] for x in samples) for k in ("setup_s", "raw_s"))


class Tally:
    """Outcome of every operation: scaled and raw seconds, failure, fit evaluations."""

    def __init__(self):
        self.records: list[dict] = []

    def add(self, kind, scaled, raw, error=None, wrong=None, evals=0):
        self.records.append(
            {"kind": kind, "scaled": scaled, "raw": raw, "error": error, "wrong": wrong, "evals": evals}
        )

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["error"] or r["wrong"])

    @property
    def wrong(self) -> list[str]:
        return [r["wrong"] for r in self.records if r["wrong"]]

    def errors(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            key = r["error"] or ("CheckFailed" if r["wrong"] else None)
            if key:
                out[key] = out.get(key, 0) + 1
        return out

    def by_kind(self) -> dict[str, dict]:
        """Median seconds and mean fit evaluations per kind of operation."""
        out = {}
        for k in sorted({r["kind"] for r in self.records}):
            rs = [r for r in self.records if r["kind"] == k]
            out[k] = {
                "n": len(rs),
                "median_s": statistics.median(r["scaled"] for r in rs),
                "median_raw_s": statistics.median(r["raw"] for r in rs),
                "evals": statistics.fmean(r["evals"] for r in rs),
            }
        return out

    def seconds(self) -> float:
        return sum(r["scaled"] for r in self.records)

    def op_s(self, workload: str, key: str = "scaled") -> float:
        """Median seconds per operation; a failed operation counts as +inf.

        field_fit takes the geometric mean over variants of each variant's
        median, so the variants' unequal costs weigh the same in every run.
        """
        def med(rs):
            return statistics.median(math.inf if (r["error"] or r["wrong"]) else r[key] for r in rs)

        if workload != "field_fit":
            return med(self.records)
        kinds = sorted({r["kind"] for r in self.records})
        meds = [med([r for r in self.records if r["kind"] == k]) for k in kinds]
        return math.exp(statistics.fmean(math.log(m) for m in meds))


def run_cycle(workload, index: int, tally: Tally, tracer=None) -> None:
    """Run one cycle of operations, checking each after its timed span."""
    for op in workload.cycle(index):
        run = op.run if tracer is None else tracer.op("op:" + op.kind, op.run)
        out, scaled, wall, exc = timed(run)
        # every failure is counted, none aborts the run
        error = None if exc is None else getattr(exc, "label", type(exc).__name__)
        wrong = None
        if error is None:
            try:
                wrong = op.check(out)
            except Exception as exc:
                wrong = f"check raised {type(exc).__name__}: {exc}"
        evals = out.get("n_evals", 0) if isinstance(out, dict) else 0
        tally.add(op.kind, scaled, wall, error, wrong, evals)


def run_cycles(fixed: int | None, seconds: float, step) -> None:
    """Call ``step(index)`` for ``fixed`` cycles or, when that is None,
    start a new cycle only while the run is expected to stay within
    ``seconds``; the first always runs."""
    start = time.perf_counter()
    index, last = 0, 0.0
    while index < fixed if fixed else (index == 0 or time.perf_counter() - start + last <= seconds):
        t0 = time.perf_counter()
        step(index)
        last = time.perf_counter() - t0
        index += 1


def layer_metrics(tracer, tally: Tally, plain_seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced phase, per operation where counted."""
    names = tracer.names
    self_t = tracer.self_times()
    roots = tracer.roots()
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    per_op: dict[int, dict[str, float]] = {}  # root span -> seconds per layer
    op_self: dict[int, float] = {}  # root span -> self times summed over its tree
    for i, n in enumerate(names):
        dur = tracer.ends[i] - tracer.starts[i]
        calls[n] = calls.get(n, 0) + 1
        total[n] = total.get(n, 0.0) + dur
        own[n] = own.get(n, 0.0) + self_t[i]
        layers = per_op.setdefault(roots[i], {})
        layers[n] = layers.get(n, 0.0) + dur
        op_self[roots[i]] = op_self.get(roots[i], 0.0) + self_t[i]

    fit_children = {"estimate.fit", "estimate.optimize", "estimate.hessian"}
    evals = sum(
        1 for i, n in enumerate(names)
        if n == "likelihood.total_loglik" and tracer.parents[i] >= 0
        and names[tracer.parents[i]] in fit_children
    )
    n_ops = max(tally.attempted, 1)
    n_fits = calls.get("estimate.fit", 0)
    per_fit = max(n_fits, 1)

    def c(n):
        return calls.get(n, 0)

    def t(n):
        return total.get(n, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def share(layer):
        """The layer's share of loglik time, over the operations that use it."""
        used = [op for op in per_op.values() if layer in op]
        return ratio(sum(op[layer] for op in used),
                     sum(op.get("likelihood.total_loglik", 0.0) for op in used))

    load_bytes = tracer.amount_sum.get("datafiles.load", 0)
    errors = tally.errors()
    known = ("SeriesConvergenceError", "ExpansionCapError", "OracleConvergenceError", "CheckFailed")
    metrics = {
        "special.pfq.calls": (c("special.pfq") / n_ops, "count"),
        "special.pfq_us": (1e6 * ratio(t("special.pfq"), c("special.pfq")), "us"),
        "special.pfq.share": (share("special.pfq"), "ratio"),
        "special.raw_moment.calls": (c("special.raw_moment") / n_ops, "count"),
        "special.raw_moment_us": (1e6 * ratio(t("special.raw_moment"), c("special.raw_moment")), "us"),
        "special.raw_moment.max_order": (tracer.amount_max.get("special.raw_moment", 0), "count"),
        "special.raw_moment.share": (share("special.raw_moment"), "ratio"),
        "model.workspace.calls": (c("model.workspace") / n_ops, "count"),
        "model.workspace_s": (t("model.workspace") / n_ops, "s"),
        "model.resolve.calls": (c("model.resolve") / n_ops, "count"),
        "likelihood.total_loglik.calls": (c("likelihood.total_loglik") / n_ops, "count"),
        "likelihood.site_us": (
            1e6 * ratio(t("likelihood.total_loglik"), tracer.amount_sum.get("likelihood.total_loglik", 0)),
            "us",
        ),
        "likelihood.kernel.self_s": (own.get("likelihood.total_loglik", 0.0) / n_ops, "s"),
        "estimate.evals": (evals / per_fit, "count"),
        "estimate.restarts": (max(c("estimate.optimize") - n_fits, 0) / per_fit, "count"),
        "estimate.optimize_s": (t("estimate.optimize") / per_fit, "s"),
        "estimate.hessian_s": (t("estimate.hessian") / per_fit, "s"),
        "estimate.constants_s": (t("estimate.constants") / per_fit, "s"),
        "estimate.other_s": (own.get("estimate.fit", 0.0) / per_fit, "s"),
        "simulate.sites_per_s": (ratio(tracer.amount_sum.get("simulate", 0), t("simulate")), "1/s"),
        "datafiles.write_s": (t("datafiles.write") / n_ops, "s"),
        "datafiles.load_s": (t("datafiles.load") / n_ops, "s"),
        "datafiles.bytes": (load_bytes / n_ops, "bytes"),
        "datafiles.load_mb_per_s": (ratio(load_bytes / 1e6, t("datafiles.load")), "MB/s"),
        "model.validate_s": (t("model.validate") / n_ops, "s"),
        "cli.self_s": (own.get("cli.main", 0.0) / n_ops, "s"),
        "cli.emit_s": (t("cli.emit") / n_ops, "s"),
        "oracle.fallback.calls": (c("oracle.fallback") / n_ops, "count"),
        "oracle.fallback_s": (t("oracle.fallback") / n_ops, "s"),
        **{f"errors.{k}": (errors.get(k, 0), "count") for k in known},
        "errors.other": (sum(v for k, v in errors.items() if k not in known), "count"),
        "error_rate": (tally.failed / n_ops, "ratio"),
        "trace.overhead": (ratio(tally.seconds(), plain_seconds), "ratio"),
    }

    # Self times telescope: within each operation they must add up to its
    # wall time, or spans overlapped and the self times above are wrong.
    problems = []
    for root, summed in op_self.items():
        wall = tracer.ends[root] - tracer.starts[root]
        if abs(wall - summed) > 1e-6 * max(wall, 1.0):
            problems.append(f"{names[root]}: self times add to {summed:.6f}s of {wall:.6f}s")
    fit_evals = sum(r["evals"] for r in tally.records)
    if fit_evals and fit_evals != evals:
        problems.append(f"traced {evals} fit evaluations, fits reported {fit_evals}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nmixtime" / "__init__.py").is_file():
        print(f"error: no nmixtime sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS, cli

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # per-site fallback warnings would flood the log
    # A terminated run still removes its work directory and stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        cold = workload.cold_argv()
        setup_s, setup_raw_s = measure_setup(cold, work)
        # Warm this process the same way, so lazy caches are filled before timing.
        for a in cold:
            cli(a)

        tally = Tally()
        if args.trace == 0:
            run_cycles(workload.fixed_cycles(args.seconds), args.seconds, lambda i: run_cycle(workload, i, tally))
            metrics = {
                "op_s": {"value": tally.op_s(args.workload), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
                },
            }
            problems = []
        else:
            # Each cycle runs plain, then again traced, so drift in machine
            # speed falls on both sides of the overhead ratio alike.
            plain = Tally()
            tracer = Tracer()

            def pair(i):
                run_cycle(workload, i, plain)
                tracer.install()
                try:
                    run_cycle(workload, i, tally, tracer)
                finally:
                    tracer.uninstall()

            run_cycles(workload.fixed_cycles(args.seconds / 2), args.seconds, pair)
            metrics, problems = layer_metrics(tracer, tally, plain.seconds())
            tracer.write(ROOT / ".perfbench-out" / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "setup_raw_s": setup_raw_s,
        "op_raw_s": tally.op_s(args.workload, "raw"),
        "ops": tally.by_kind(),
        "errors": tally.errors(),
        "error_rate": tally.failed / max(tally.attempted, 1),
        "wrong": tally.wrong[:5],
        "trace_problems": problems[:5],
    }
    print(json.dumps(summary))
    result = {
        "correct": not tally.wrong and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
