"""CLI entry point: ``python -m repro.perf [--quick] [--gate-check] [--out DIR]``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.perf.report import gate_status, run_hotpath_suite


def check_gates(path: Path) -> int:
    """Validate the gate verdicts in an existing report; 0 iff none failed.

    CI's ``bench-gate`` step runs this against the committed
    ``BENCH_hotpath.json`` so a regressed (or hand-edited) perf trajectory
    fails the build without re-running the full benchmark suite.  Gates
    that did not measure on the recording host are listed by name as
    skipped; only gates that measured and missed their floor fail.
    """
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        print(f"gate check: {path} does not exist (run `make bench` first)")
        return 1
    except json.JSONDecodeError as error:
        print(f"gate check: {path} is not valid JSON: {error}")
        return 1
    gates = payload.get("gates", {})
    if not gates:
        print(f"gate check: {path} has no gates section")
        return 1
    outcomes: dict[str, list[str]] = {"passed": [], "failed": [], "skipped": []}
    for name, verdict in sorted(gates.items()):
        status = gate_status(verdict)
        outcomes[status].append(name)
        reason = f" ({verdict['reason']})" if status == "skipped" else ""
        print(f"  gate {name}: floor {verdict.get('floor', '?')}: {status.upper()}{reason}")
    if outcomes["skipped"]:
        print(
            f"gate check: {len(outcomes['skipped'])} gate(s) skipped (not measured): "
            f"{', '.join(outcomes['skipped'])}"
        )
    if outcomes["failed"]:
        print(
            f"gate check: {len(outcomes['failed'])} gate(s) failing: "
            f"{', '.join(outcomes['failed'])}"
        )
        return 1
    print("gate check: all measured gates pass")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Run the hot-path benchmark suite and write BENCH_hotpath.json.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test scale (fast; numbers not meaningful against the gates)",
    )
    parser.add_argument(
        "--gate-check",
        action="store_true",
        help="check gates in the existing BENCH_hotpath.json and exit "
        "(no benchmarks are run)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path.cwd(),
        help="directory to write/read BENCH_hotpath.json (default: cwd)",
    )
    args = parser.parse_args(argv)

    if args.gate_check:
        return check_gates(args.out / "BENCH_hotpath.json")

    report = run_hotpath_suite(quick=args.quick)
    path = report.write(args.out)

    if report.last_write_updated_tracked:
        print(f"wrote {path}")
    else:
        print(
            f"{path} unchanged (stable signature identical); "
            f"fresh samples in {path.with_suffix('.latest.json').name}"
        )
    for entry in report.entries:
        print(
            f"  {entry.name}: {entry.before_s:.4f}s -> {entry.after_s:.4f}s "
            f"({entry.speedup:.2f}x, {entry.metric})"
        )
    if not args.quick:
        gates = report.gates_detail()
        for name, verdict in sorted(gates.items()):
            entry = report.entry(name)
            actual = f"{entry.speedup:.2f}x" if entry is not None else "n/a"
            note = verdict.get("reason", verdict.get("note"))
            note = f" ({note})" if note else ""
            print(
                f"  gate {name}: floor {verdict['floor']:.1f}, "
                f"actual {actual}: {gate_status(verdict).upper()}{note}"
            )
        if any(gate_status(verdict) == "failed" for verdict in gates.values()):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
