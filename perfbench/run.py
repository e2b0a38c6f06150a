#!/usr/bin/env python3
"""The repository benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload static-sparse --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the program from ``src/``.
``--trace 0`` prints the end-to-end metrics; their times are put on
the reference host's clock (``common.HostProbe``).
``--trace 1`` runs a traced pass after an untraced one, which it must
match exactly, and prints the per-layer metrics.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full record (host, raw
wall-clock values, sample counts, span tree).  Names and units match
``BENCHMARK.json``.  A failed correctness or determinism check prints
the result with ``"correct": false`` and exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("static-sparse", "static-dense", "churn-1pct")


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    from common import BenchFailure, HostProbe, host_record

    if args.workload.startswith("static"):
        import wl_static as wl
    else:
        import wl_churn as wl

    started = time.perf_counter()
    correct, error, out = True, None, None
    probe = HostProbe()
    try:
        out = wl.run(args.workload, args.seed, args.seconds, bool(args.trace), probe)
    except BenchFailure as exc:
        correct, error = False, str(exc)
        traceback.print_exc()
    finally:
        probe.close()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(time.perf_counter() - started, 3),
        "host": host_record(),
    }
    if correct and out.failed:
        correct, error = False, f"{out.failed} of {out.attempted} operations failed"
    if not correct:
        record["error"] = error
        print(json.dumps(record))
        attempted, failed = (out.attempted, out.failed) if out else (1, 1)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    if args.trace:
        out.put("bench.host_probe_ms", probe.median_ms(), "ms")
    declared = _declared(bool(args.trace))
    got = {name: unit for name, (_, unit) in out.metrics.items()}
    if got != declared:
        print(f"perfbench: metrics {sorted(set(got) ^ set(declared))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 3
    record.update(out.details)
    record["host_probe_ms"] = probe.median_ms()
    print(json.dumps(record))
    print(json.dumps({
        "correct": True,
        "attempted": out.attempted,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
