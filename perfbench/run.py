"""The ``repro scan`` benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan-b1-serial --seed 7 --seconds 30 --trace 0

Set-up builds the workload's benchmark pair, fits the detector, saves
the archive and writes the testing layout, moved by ``--seed``, to GDS,
several times; then a closed loop of cold scans and rescans runs for
``--seconds``.  With
``--trace 1`` a traced run follows and the per-layer metrics are
reported instead of the end-to-end ones.  Metric names and units come
from ``BENCHMARK.json``.  The last line of standard output is the JSON
result; ``perfbench/README.md`` describes everything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"


def _import_program():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def _declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_lines": src_lines,
    }


def _vm_hwm_mb() -> float:
    """This process's peak resident memory since the last reset, in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("/proc/self/status has no VmHWM line")


def reset_peak_rss() -> float:
    """Reset this process's peak RSS to its current RSS; return the old peak in MiB.

    Set-up (generating and fitting) runs before any scan in this process,
    so without the reset its peak would hide the scans'.
    """
    before = _vm_hwm_mb()
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
    return before


def workers_peak_rss_mb() -> float:
    """Peak RSS of any reaped pool worker, in MiB.

    Pool workers are forked after :func:`reset_peak_rss`, so theirs
    starts at the process's RSS at that moment.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="places the testing layout; same work, same hotspots")
    parser.add_argument("--pair-seed", type=int, default=None,
                        help="benchmark seed the pair is generated from "
                             "(default: the benchmark's built-in one)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the scan loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced run and report per-layer metrics")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's layout scale (smoke tests)")
    parser.add_argument("--setup-reps", type=int, default=3,
                        help="set-up repetitions; setup_s is the fastest")
    args = parser.parse_args(argv)

    declared = _declared_metrics()
    _import_program()
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    seed = args.seed
    pair_seed = workload.default_pair_seed if args.pair_seed is None else args.pair_seed
    scale = workload.scale if args.scale is None else args.scale
    golden = None
    if pair_seed == workload.default_pair_seed and scale == workload.scale:
        golden = workloads.load_golden().get(workload.name)

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    start_rss_mb = _vm_hwm_mb()
    try:
        prepared = workloads.prepare(
            workload, seed, pair_seed, scale, workdir, max(1, args.setup_reps)
        )
        setup_peak_rss_mb = reset_peak_rss()
        setup_rss_mb = _vm_hwm_mb()
        checker = workloads.Checker(prepared, golden)
        loop = workloads.scan_loop(workload, prepared, checker, args.seconds, workdir)
        scan_s = min(loop.scan_s, default=0.0)
        facts = None
        if args.trace:
            facts = tracing.traced_run(workload, prepared, checker, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The fastest scans and set-up, not the medians: the shared cores this
    # was tuned on switch between a fast state and a ~1.6x slower one for
    # tens of seconds at a time (README.md, "Noise").
    first = checker.reference
    scan_peak_mb, workers_peak_mb = _vm_hwm_mb(), workers_peak_rss_mb()
    measured = {
        "scan_s": scan_s,
        "rescan_s": min(loop.rescan_s, default=0.0),
        "setup_s": min(prepared.setup_s),
        "peak_rss_mb": max(scan_peak_mb, workers_peak_mb),
        "hits": first.hits if first else 0,
        "extras": first.extras if first else 0,
    }
    if facts is not None:
        layers = tracing.layer_metrics(facts, scan_s)
        layers.update({name: min(v) for name, v in prepared.steps_s.items()})
        layers["training.kernels"] = prepared.kernels
        if not workload.process and layers["trace.coverage"] < 0.95:
            checker.attempted += 1
            checker.failed += 1
            checker.errors.append(
                f"trace: layers cover {layers['trace.coverage']:.1%} of the traced wall"
            )
        measured.update(layers)

    env = environment()
    print(f"workload {workload.name}: {workload.benchmark} scale {scale} "
          f"pair seed {pair_seed}, seed {seed} (layout at {prepared.offset}); "
          f"{'golden record checked' if golden else 'cross-pass checks only'}")
    print(f"scans: {len(loop.scan_s)} cold, {len(loop.rescan_s)} rescans in "
          f"{args.seconds:g} s; set-up x{len(prepared.setup_s)}; median scan "
          f"{workloads.median(loop.scan_s):.4f} s")
    print(f"rss (MiB): {start_rss_mb:.1f} before set-up, set-up peak {setup_peak_rss_mb:.1f}, "
          f"{setup_rss_mb:.1f} after set-up, scan peak {scan_peak_mb:.1f}, "
          f"workers' peak {workers_peak_mb:.1f}")
    for name, unit in declared[0].items():
        print(f"  {name:<24} {measured[name]:>14.4f} {unit}")
    if facts is not None:
        for name, unit in declared[1].items():
            print(f"  {name:<24} {measured[name]:>14.4f} {unit}")
    for error in checker.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"operations: {checker.failed} failed / {checker.attempted} attempted")
    print("environment " + json.dumps(env))

    document = {
        "workload": workload.name,
        "seed": seed,
        "pair_seed": pair_seed,
        "scale": scale,
        "environment": env,
        "outcome": vars(first) if first else None,
        "rss_mb": {"before_setup": start_rss_mb, "setup_peak": setup_peak_rss_mb,
                   "after_setup": setup_rss_mb,
                   "scan_peak": scan_peak_mb, "workers_peak": workers_peak_mb},
        "samples": {"scan_s": loop.scan_s, "rescan_s": loop.rescan_s,
                    "setup_s": prepared.setup_s},
        "metrics": measured,
        "errors": checker.errors,
    }
    if facts is not None:
        document["spans"] = facts["tracer"].document()
    stem = f"{workload.name}-pair{pair_seed}-seed{seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(document, indent=1))

    metrics = {
        name: {"value": measured[name], "unit": unit}
        for name, unit in declared[args.trace].items()
    }
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
