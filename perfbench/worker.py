"""Run one workload in this (fresh) process and print its raw results as JSON.

Started by run.py; not meant to be run by hand. With --trace 0 it runs
untraced passes of the operation list until --seconds have elapsed.
With --trace 1 it runs untraced passes for the first half of --seconds,
then wraps the package's public functions (layers.py) and runs traced
passes for the rest; at least one pass of each. Every pass runs the
same operations on the same inputs. Before the first pass, untimed, it
runs the search-cap probes once and counts the answers proven wrong.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cvdcnet  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def blas_info():
    """BLAS library name, version and the thread count OpenBLAS chose."""
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    bundled = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(bundled.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy; this is the same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": cfg.get("name"), "version": cfg.get("version"), "threads": threads}


def host_info():
    return {
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "convention": cvdcnet.CONVENTION_FINGERPRINT,
    }


def run_pass(ops, record):
    """Time each op, check its output; returns the summed op time."""
    wall = 0.0
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a raising op is a failed op; keep going
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        wall += elapsed
        failure = workloads.Failure(error) if error else op.check(out)
        record(index, op, out, elapsed, failure)
    return wall


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.OP_LISTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if not Path(cvdcnet.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"cvdcnet imported from {cvdcnet.__file__}, not from {SRC}")

    ops, probes = workloads.build(args.workload, args.seed, args.quick)
    latencies = []           # (kind, ms) of every untraced op
    digests = {}             # op index -> sha256 of its byte output, first pass
    counts = {"attempted": 0, "failed": 0}
    failures = []
    known = {"cap_nbar": workloads.KNOWN_CAP_NBAR, "proof_nbar": workloads.PROOF_NBAR,
             "probes": len(probes), "cap_false_negatives": 0, "examples": []}

    def count_failure(op, failure):
        counts["failed"] += 1
        if len(failures) < 20:
            failures.append({"op": op.kind, "reason": failure.reason})

    def record(index, op, out, elapsed, failure, traced=False):
        counts["attempted"] += 1
        if not traced:
            latencies.append((op.kind, elapsed * 1e3))
        if op.digest and failure is None:
            digest = workloads.sha256(out[1] if isinstance(out, tuple) else out)
            if digests.setdefault(index, digest) != digest:
                failure = workloads.Failure(f"{op.kind}: output bytes changed between passes")
        if failure is not None:
            count_failure(op, failure)

    def record_probe(index, op, out, elapsed, failure):
        if failure is not None and failure.proven_false_negative:
            known["cap_false_negatives"] += 1
            if len(known["examples"]) < 3:
                known["examples"].append(f"{op.kind}: {failure.reason}")
        elif failure is not None:  # any other wrong answer is a real failure
            counts["attempted"] += 1
            count_failure(op, failure)

    run_pass(probes, record_probe)
    begin = time.perf_counter()

    def passes(until, walls, rec):
        while not walls or time.perf_counter() - begin < until:
            walls.append(run_pass(ops, rec))

    untraced, traced, layer_totals = [], [], {}
    passes(args.seconds / 2 if args.trace else args.seconds, untraced, record)
    if args.trace:
        trace = layers.LayerTrace().install()
        passes(args.seconds, traced, lambda *a: record(*a, traced=True))
        layer_totals = trace.snapshot()

    result = {
        "host": host_info(),
        "latencies": latencies,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "layers": layer_totals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
        "known_defect": known,
        "excluded": workloads.EXCLUDED,
        **counts,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
