"""Run every workload and print its end-to-end metrics by name, with units.

    python3 perfbench/report.py [--seed 1] [--seconds 24] [--trace] [--out FILE]

Each workload runs in its own process through ``run.py``, which also checks
every output against the summation oracle. ``fit_s`` is ``op_s`` of
field_fit, ``sites_per_s`` is the 10^4 surveyed sites over ``op_s`` of
large_survey, and ``loglik_s`` is ``op_s`` of large_inputs. ``--trace`` adds
the traced run of each workload; ``--out`` saves every result as JSON.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("field_fit", "large_survey", "large_inputs")
SURVEY_SITES = 10_000


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    *_, summary, result = proc.stdout.strip().splitlines()
    return {"summary": json.loads(summary), "result": json.loads(result)}


def named(workload: str, result: dict) -> list[tuple[str, float | None, str]]:
    m = result["metrics"]
    op_s = m["op_s"]["value"]
    return [
        ("setup_s", m["setup_s"]["value"], "s"),
        ("fit_s", op_s if workload == "field_fit" else None, "s"),
        ("sites_per_s", SURVEY_SITES / op_s if workload == "large_survey" else None, "1/s"),
        ("loglik_s", op_s if workload == "large_inputs" else None, "s"),
        ("peak_rss_mb", m["peak_rss_mb"]["value"], "MB"),
        ("error_rate", result["failed"] / result["attempted"], "ratio"),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", action="store_true", help="also run each workload traced")
    parser.add_argument("--out", help="write every result to this JSON file")
    args = parser.parse_args()

    saved = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    all_correct = True
    for w in WORKLOADS:
        plain = run(w, args.seed, args.seconds, 0)
        saved["env"] = plain["summary"]["env"]
        saved["workloads"][w] = {"plain": plain}
        res = plain["result"]
        all_correct &= res["correct"]
        cells = [f"{name}={'n/a' if v is None else f'{v:.4g} {unit}'}" for name, v, unit in named(w, res)]
        print(f"{w:<13} " + "  ".join(cells))
        print(f"{'':<13} attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']} errors={plain['summary']['errors']}")
        if args.trace:
            traced = run(w, args.seed, args.seconds, 1)
            saved["workloads"][w]["traced"] = traced
            all_correct &= traced["result"]["correct"]
            for name, metric in traced["result"]["metrics"].items():
                print(f"{'':<13} {name} = {metric['value']:.6g} {metric['unit']}")
    print("env " + json.dumps(saved["env"]))
    if args.out:
        Path(args.out).write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
