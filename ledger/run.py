"""The layer ledger: one command, three workloads, every metric by name and unit.

Run from the root of a checkout::

    python3 ledger/run.py --workload solve-d64 --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` is the separate traced run: it times calls into each layer's
public functions from the benchmark's own files and prints the per-layer
metrics, and writes its spans to ``ledger/out/<workload>.spans.jsonl``.
The traced run of ``session-d16`` also drives the ``http-tenants-d2``
traffic against ``repro serve``, so the serving layers are measured on a
gated workload; ``http-tenants-d2`` itself runs by name but is not gated
(see ``catalogue.UNGATED``).
Every answer is checked; the last line of standard output is one JSON
object, and the exit code is 1 when a check failed.  The program under test
is imported from ``src/`` of the checkout, so the command fails when run
anywhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "repro" / "__init__.py"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _check_benchmark_json(catalogue) -> None:
    """Refuse to run when BENCHMARK.json and the catalogue disagree."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    listed = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"], m["better"], m["bound"])
                       for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    }
    expected = {
        "workloads": list(catalogue.WORKLOADS),
        "end_to_end": [(s.name, s.unit, s.better, s.bound) for s in catalogue.END_TO_END],
        "per_layer": [(s.name, s.unit, s.better) for s in catalogue.PER_LAYER],
    }
    for key in expected:
        if listed[key] != expected[key]:
            raise SystemExit(f"error: BENCHMARK.json {key} differ from ledger/catalogue.py")


def main(argv=None) -> int:
    args = _parse(argv)
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import catalogue

    _check_benchmark_json(catalogue)
    runnable = [*catalogue.WORKLOADS, *catalogue.UNGATED]
    if args.workload not in runnable:
        print(f"error: --workload must be one of {', '.join(runnable)}", file=sys.stderr)
        return 2

    import wl_http
    import wl_session
    import wl_solve

    module = {
        catalogue.SOLVE: wl_solve,
        catalogue.SESSION: wl_session,
        catalogue.HTTP: wl_http,
    }[args.workload]
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    if args.trace and args.workload == catalogue.SESSION:
        # The serving layers are measured here, on a gated workload, by the
        # http-tenants-d2 run recording into the same spans.
        serving = wl_http.run(args.seed, args.seconds, True, recorder=outcome.recorder)
        outcome.absorb(serving, ("manager.", "http.", "gen."))

    if args.trace:
        specs = catalogue.PER_LAYER
        values = {spec.name: 0.0 for spec in specs}
        recorder = outcome.recorder
        for layer, seconds in recorder.self_seconds().items():
            values[f"{catalogue.LAYER_PREFIX[layer]}.self_s"] = seconds
        values.update(outcome.metrics)
        values["error_rate"] = outcome.failed / max(1, outcome.attempted)
        recorder.write(HERE / "out" / f"{args.workload}.spans.jsonl")
    else:
        specs = catalogue.END_TO_END
        values = outcome.metrics
        missing = [spec.name for spec in specs if spec.name not in values]
        if missing:
            raise SystemExit(f"error: {args.workload} did not measure {', '.join(missing)}")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for spec in specs:
        print(f"{spec.name:28s} {values[spec.name]:>16.6g} {spec.unit:9s} "
              f"({spec.better} is better; {spec.layer})")
    print(f"# error_rate {outcome.failed / max(1, outcome.attempted):.6g}: "
          f"{outcome.failed} of {outcome.attempted} operations and checks failed")
    for line in outcome.notes:
        print(f"# {line}")
    for what in outcome.mismatches:
        print(f"# MISMATCH: {what}")

    result = {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            spec.name: {"value": _finite(values[spec.name]), "unit": spec.unit}
            for spec in specs
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


def _finite(value: float) -> float:
    """JSON has no infinity; a latency of +inf (a failed request) prints as 1e12."""
    return 1e12 if math.isinf(value) else float(value)


if __name__ == "__main__":
    sys.exit(main())
