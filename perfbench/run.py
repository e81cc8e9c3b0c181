"""Command-line entry point of the benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload eesmr-n2000 --seed 1 --seconds 30 --trace 0

It prints a human-readable report and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 1`` adds a traced iteration, reports the per-layer metrics
instead of the end-to-end ones, and writes the spans to ``perfbench/out/``.
See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {source / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(source), str(ROOT)]
    # Imported here, after the path is set and before any clock starts.
    from perfbench.bench import run_benchmark
    from perfbench.measure import BenchmarkError
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    try:
        result = run_benchmark(
            args.workload,
            seed=DEFAULT_SEED if args.seed is None else args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            out_dir=HERE / "out",
        )
    except BenchmarkError as error:
        print(f"perfbench: FAILED: {error}", file=sys.stderr)
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
