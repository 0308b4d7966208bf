"""cvdcnet benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick

Load model: a closed loop with one caller (a researcher waits for each
answer), one process, no threads of the benchmark's own; BLAS runs at its
default thread count, which is recorded, not pinned.

With --trace 0 the last stdout line carries the end-to-end metrics named
in BENCHMARK.json; with --trace 1 it carries the per-layer metrics from a
run whose package functions are wrapped from outside (layers.py). The
lines before it are a readable report: host, every metric with its unit
and sample count, failures, and the case left out on purpose.

--quick runs every workload at a tiny size, traced and untraced, with
every output check on, and exits 0 only if all checks hold and every
metric is produced.

Queries whose threshold lies beyond the library's search cap are not
timed and not counted in `failed`: they run once per run as probes, and
the answers among them proven wrong are reported as the known defect
(the `known_defect.cap_false_negatives` per-layer metric).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cvdcnet"
DEADLINE_S = 170.0      # every run ends well inside the 180 s limit
SETUP_PROBES = 7

PROBE = "import cvdcnet, sys, time; sys.stdout.write(repr(time.monotonic()))"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup_times(count):
    """Seconds from spawning a fresh interpreter to `import cvdcnet` done.

    Both ends read CLOCK_MONOTONIC, which Linux shares across processes.
    """
    times = []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout) - start)
    return times


def run_worker(workload, seed, seconds, trace, quick, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def source_identity():
    """git sha when run in a git checkout; a digest of src/cvdcnet always."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def end_to_end(raw, setup):
    """(value, unit, samples) for each end-to-end metric.

    op_p99_ms and fail_ratio are printed but not in BENCHMARK.json: p99
    has ten or more samples beyond it only on points, and fail_ratio is
    0 on scan, while the manifest's metrics are reported on every workload.
    """
    ms = sorted(t for _, t in raw["latencies"])
    walls = raw["untraced_wall_s"]
    p99 = statistics.quantiles(ms, n=100, method="inclusive")[98] if len(ms) > 1 else ms[0]
    beyond = sum(t > p99 for t in ms)
    attempted, failed = raw["attempted"], raw["failed"]
    return {
        "setup_s": (statistics.median(setup), "s", f"{len(setup)} processes"),
        "wall_s": (statistics.median(walls), "s", f"{len(walls)} passes"),
        "op_p50_ms": (statistics.median(ms), "ms", f"{len(ms)} ops"),
        "op_p99_ms": (p99, "ms", f"{len(ms)} ops, {beyond} beyond"),
        "fail_ratio": (failed / attempted, "1", f"{failed} failed / {attempted} attempted"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", "1 process"),
    }


def per_layer(raw, manifest):
    """(value, unit, samples) per traced pass for each per-layer metric."""
    passes = len(raw["traced_wall_s"])
    traced_wall = statistics.mean(raw["traced_wall_s"])  # layer values are per-pass means too
    layers = raw["layers"]
    rows = {}
    for metric in manifest["per_layer"]:
        name = metric["name"]
        prefix, _, stat = name.rpartition(".")
        if name == "known_defect.cap_false_negatives":
            known = raw["known_defect"]
            rows[name] = (known["cap_false_negatives"], metric["unit"],
                          f"{known['probes']} probes, once per run")
            continue
        if name == "trace.overhead_s":
            value = (statistics.median(raw["traced_wall_s"])
                     - statistics.median(raw["untraced_wall_s"]))
        elif name == "trace.attributed_pct":
            value = 100.0 * sum(s["self_s"] for s in layers.values()) / passes / traced_wall
        elif prefix in MODULES:
            value = sum(s["self_s"] for key, s in layers.items()
                        if key.startswith(prefix + ".")) / passes
        elif prefix in layers:
            value = layers[prefix].get(stat, 0) / passes
        else:
            raise KeyError(f"per-layer metric {name} is not produced by the trace")
        rows[name] = (value, metric["unit"], f"{passes} traced passes")
    return rows


def report(args, raw, rows, source):
    host, blas = raw["host"], raw["host"]["blas"]
    lines = [
        f"cvdcnet benchmark  workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"host  nproc={host['nproc']} blas={blas['name']} {blas['version']} "
        f"threads={blas['threads']} python={host['python']} numpy={host['numpy']} "
        f"scipy={host['scipy']}",
        f"code  git={source['git_sha'] or 'unknown (not a git checkout)'} "
        f"src_sha256={source['src_sha256'][:16]} convention={host['convention']}",
        "load  closed loop, 1 caller, 1 process, no benchmark threads, BLAS threads unpinned",
        f"{'metric':<52}{'value':>14}  {'unit':<6}samples",
    ]
    for name, (value, unit, samples) in rows.items():
        lines.append(f"{name:<52}{value:>14.6g}  {unit:<6}{samples}")
    if not args.trace:
        kinds = {}
        for kind, ms in raw["latencies"]:
            kinds.setdefault(kind, []).append(ms)
        for kind, values in sorted(kinds.items()):
            lines.append(f"  op {kind:<47}{statistics.median(values):>14.6g}  ms    "
                         f"{len(values)} calls, median")
    for failure in raw["failures"]:
        lines.append(f"  failed {failure['op']}: {failure['reason']}")
    known = raw["known_defect"]
    lines.append(f"known defect  search cap {known['cap_nbar']:g}: "
                 f"{known['cap_false_negatives']} of {known['probes']} probe queries beyond "
                 f"it answered 'no advantage' although delta({known['proof_nbar']:g}) > 0 "
                 f"(untimed, not counted in failed)")
    for example in known["examples"]:
        lines.append(f"  {example}")
    excluded = raw["excluded"]
    lines.append(f"excluded  {excluded['command']}: {excluded['reason']}, "
                 f"estimated {excluded['estimated_bytes'] / 1e9:.2f} GB (not run)")
    print("\n".join(lines))


def measure(args, manifest, deadline):
    """Run one workload; print the report and return the result object."""
    source = source_identity()
    setup = [] if args.trace else setup_times(SETUP_PROBES)
    remaining = deadline - time.monotonic()
    raw = run_worker(args.workload, args.seed, args.seconds, args.trace, args.quick, remaining)
    rows = per_layer(raw, manifest) if args.trace else end_to_end(raw, setup)
    report(args, raw, rows, source)
    names = [m["name"] for m in manifest["per_layer" if args.trace else "end_to_end"]]
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": rows[name][0], "unit": rows[name][1]} for name in names},
    }


def quick(manifest, deadline):
    ok = True
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0, trace=trace,
                                      quick=True)
            result = measure(args, manifest, deadline)
            ok &= result["correct"]
            print(json.dumps(result))
    print("quick:", "all checks hold" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    start = time.monotonic()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    if args.quick:
        return quick(manifest, start + 600.0)
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args, manifest, start + DEADLINE_S)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
