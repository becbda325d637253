#!/usr/bin/env python3
"""Benchmark of the DPS system: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 dpsbench/run.py --workload many-source-usa --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics and writes a span file
under ``dpsbench/out/``.  The closed-loop workloads answer each query
untraced and then traced (the time ratio is the tracing overhead);
serve-east reads the daemon's counters around its one replay.  Every
answer is checked (fingerprints across repeats, passes, engines and
runs of the same code; sampled distance-preservation verification;
daemon answers against in-process ones).  The last line of standard
output is the JSON result; the exit code is 0 only when every answer
was right.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("many-source-usa", "roadpart-east", "serve-east")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _select(spec, outcome_metrics, trace: bool):
    """The result's metrics: exactly the declared set, with units.

    End-to-end metrics must all be measured.  A per-layer metric the
    workload did not produce belongs to a layer it does not exercise
    and reads 0.
    """
    from common import METRIC_NAME
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(outcome_metrics) - names)
    missing = sorted(names - set(outcome_metrics))
    if unknown or (missing and not trace):
        raise RuntimeError(f"metric set mismatch: unknown {unknown},"
                           f" missing {missing}")
    result = {}
    for m in declared:
        if not METRIC_NAME.match(m["name"]):
            raise RuntimeError(f"bad metric name {m['name']!r}")
        result[m["name"]] = {"value": outcome_metrics.get(m["name"], 0),
                             "unit": m["unit"]}
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    spec = _load_spec()
    sys.path.insert(0, str(src))

    from common import (env_block, render_table, self_time_table,
                        source_digest)
    from outcome import Context
    import many_source
    import roadpart_east
    import serve_east
    module = {"many-source-usa": many_source,
              "roadpart-east": roadpart_east,
              "serve-east": serve_east}[args.workload]

    # A terminated run still unwinds, so daemon children are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    code = source_digest(src)
    ctx = Context(args.seed, args.seconds, bool(args.trace), ROOT, out_dir,
                  work_dir, code)
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = _select(spec, outcome.metrics, ctx.trace)
    env = env_block(ROOT, code, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, **outcome.env)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']!r:>24} {m['unit']}")
    for name, (value, unit) in outcome.notes.items():
        print(f"  (printed only) {name:<29} {value} {unit}")
    print(f"  attempted {outcome.attempted}, failed checks {outcome.failed}")
    for line in outcome.mismatches[:20]:
        print(f"  WRONG: {line}")
    if outcome.tracer is not None:
        span_path = out_dir / f"spans-{tag}.json"
        outcome.tracer.write(span_path, env)
        print(f"per-layer self time ({len(outcome.tracer.spans)} spans,"
              f" {span_path.relative_to(ROOT)}):")
        print(render_table(self_time_table(outcome.tracer.spans)))
    correct = not outcome.mismatches and outcome.failed == 0
    # One wrong answer can fail several checks; count it once at most.
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": min(outcome.failed, outcome.attempted),
              "metrics": metrics}
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "printed_only": outcome.notes, **result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
