"""vaxcred benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload issue|venue|lifecycle --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured
with nothing wrapped. With ``--trace 1`` the workload runs twice for S/2
seconds each, first plain and then with every layer wrapped in spans, and
the per-layer metrics of BENCHMARK.json are reported. Every operation's
outcome is checked; any wrong outcome or failed post-run check makes the
run exit 1. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record, with the machine it ran on, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5  # set-ups per untraced run; setup_s is their median
FLOOR_SAMPLES = 2000
# printed and recorded, but not in BENCHMARK.json: on `issue` the tail
# follows the host's fsync and thread-scheduling stalls, and on a shared
# 2-vCPU VM it varied too much from run to run to bound
UNBOUNDED = {"op_p99_ms": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("issue", "venue", "lifecycle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- machine record -----------------------------------------------------------


def _fs_type(path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux only)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(registry_dir) -> dict:
    import cryptography

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "registry_fs": _fs_type(registry_dir),
        "commit": _git_commit(),
    }


# -- measurement ----------------------------------------------------------------


def verify_floor_ratio(bench) -> float:
    """One venue check over one raw Ed25519 verify, with nothing wrapped.

    Both are timed FLOOR_SAMPLES times, alternately, on a status-only
    presentation of a level-2 status the workload produced. The raw verify
    is ``Ed25519PublicKey.from_public_bytes(...).verify(...)`` over that
    status's signed bytes, as ``vaxcred.crypto.verify`` calls it. The
    ratio is of the two medians."""
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
    from vaxcred import canonical, verification, wallet

    vk, status = bench.floor_status()
    shown = wallet.Presentation(kind=wallet.PresentationKind.STATUS_ONLY, status=status)
    if isinstance(verification.verify_presentation(vk, shown), verification.Reject):
        raise RuntimeError("the floor status does not verify")
    msg, sig, public = canonical.encode(status.payload.to_wire()), status.signature, vk.sig_bytes
    check, raw = [], []
    clock = time.perf_counter
    for _ in range(FLOOR_SAMPLES):
        t0 = clock()
        verification.verify_presentation(vk, shown)
        t1 = clock()
        Ed25519PublicKey.from_public_bytes(public).verify(sig, msg)
        t2 = clock()
        check.append(t1 - t0)
        raw.append(t2 - t1)
    return statistics.median(check) / statistics.median(raw)


def timed(bench, seconds, begin_op=None):
    """The timed phase, after a full collection of the set-up's garbage.
    The set-up froze its scaffolding out of the collector (see
    workloads.py); the program's own state stays collectable."""
    gc.collect()
    return bench.run(seconds, begin_op)


def run_plain(cls, seed, seconds, workdir):
    """Set up SETUPS times (keeping the last), then run and check."""
    from tracer import percentile

    setup_s = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        bench = cls(seed, seconds, workdir)
        setup_s.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            bench.close()
            del bench
            gc.collect()
    try:
        phase = timed(bench, seconds)
        problems = bench.check(phase)
    finally:
        bench.close()
    lat = phase.latencies_ms
    metrics = {
        "ops_per_s": (phase.ops / phase.elapsed_s, len(lat)),
        "op_p50_ms": (percentile(lat, 0.50), len(lat)),
        "op_p99_ms": (percentile(lat, 0.99), len(lat)),
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return bench, [phase], problems, metrics


def run_traced(cls, seed, seconds, workdir, out_dir, name):
    """Plain half, then traced half; per-layer metrics from the spans."""
    import tracer
    import workloads

    half = seconds / 2
    bench = cls(seed, half, workdir)
    try:
        plain = timed(bench, half)
        problems = bench.check(plain)
    finally:
        bench.close()
    del bench
    gc.collect()
    spans = tracer.Tracer()
    spans.install(extra=[(workloads, "gate_round_trip", "bench.gate_round_trip")])
    try:
        bench = cls(seed, half, workdir)
        phase = timed(bench, half, spans.begin_op)
    finally:
        spans.uninstall()
    try:
        problems += bench.check(phase)
        floor = verify_floor_ratio(bench)
    finally:
        bench.close()
    overhead = (plain.ops / plain.elapsed_s) / (phase.ops / phase.elapsed_s)
    values = tracer.analyse(spans, phase.ops, phase.log_bytes, floor, overhead)
    spans.write(out_dir / f"spans-{name}.tsv")
    metrics = {k: (v, phase.ops) for k, v in values.items()}
    return bench, [plain, phase], problems, metrics


def execute(name, seed, seconds, trace, out_dir=OUT, emit=print):
    """Run one workload; returns (workload object, result line dict)."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out_dir = Path(out_dir)
    workdir = out_dir / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[name]
    if trace:
        bench, phases, problems, measured = run_traced(
            cls, seed, seconds, str(workdir), out_dir, name
        )
    else:
        bench, phases, problems, measured = run_plain(cls, seed, seconds, str(workdir))
    bounded = set(measured) - set(UNBOUNDED)
    if bounded != set(wanted):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(bounded ^ set(wanted))}")
    units = {**UNBOUNDED, **wanted}
    attempted = sum(p.ops for p in phases)
    failed = sum(sum(p.failures.values()) for p in phases)
    outcomes = {}
    for p in phases:
        for (kind, outcome), n in sorted(p.outcomes.items()):
            outcomes[f"{kind}/{outcome}"] = outcomes.get(f"{kind}/{outcome}", 0) + n
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_record(workdir),
        "failed_ratio": failed / max(attempted, 1),
        "outcomes": outcomes,
        "problems": problems,
        "metrics": {
            k: {"value": v, "unit": units[k], "samples": n, "bounded": k in wanted}
            for k, (v, n) in sorted(measured.items())
        },
    }
    (out_dir / f"result-{name}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for key, value in sorted(measured.items()):
        note = "" if key in wanted else ", not bounded"
        emit(f"{name} {key} = {value[0]:.6g} {units[key]} (n={value[1]}{note})")
    emit(f"{name} failed_ratio = {record['failed_ratio']:.6g} ({failed} of {attempted})")
    for problem in problems:
        emit(f"{name} check failed: {problem}")
    emit("machine " + json.dumps(record["machine"], sort_keys=True))
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": measured[k][0], "unit": u} for k, u in sorted(wanted.items())},
    }
    shutil.rmtree(workdir, ignore_errors=True)
    return bench, line


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vaxcred" / "__init__.py").is_file():
        print(f"perfbench: no vaxcred package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _, line = execute(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
