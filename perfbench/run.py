#!/usr/bin/env python3
"""Benchmark of the lowdensity command line, driven in-process.

    python3 perfbench/run.py --workload sweep-fine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

One client, closed loop: one `lowdensity.cli.main(argv)` call at a time, no
pool of our own.  Each round gets fresh inputs generated from the seed and
the round number, so no two timed calls of a run share inputs and a cache
kept across calls cannot pose as a speed-up.  Rounds are started while the
next one is expected to fit in --seconds (at least MIN_ROUNDS).

--trace 0 reports the end-to-end metrics (setup_s, cmd_cal, peak_rss_mb);
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics from the traced ones plus trace.overhead_frac.  The last stdout line
is the JSON result; the full record, provenance and spans go to
.bench_out/ in the checkout.  Run from the checkout root, which must hold
src/lowdensity; the program is imported from there and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"
WORKLOAD_NAMES = ("sweep-fine", "independence-far", "wn-order5", "moments-deep")
MIN_ROUNDS = 3
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout from .git, read without running git (a checkout
    without .git gives "unknown"; src_sha256 still names the code)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lowdensity").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def measure_setup(workload, call, repeats: int) -> list[float]:
    """Seconds to import lowdensity and build the model and symbols, each in
    a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", workload.setup_source(call)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _set_partitions(n: int):
    """Set partitions of 1..n as lists of blocks, built by insertion."""
    if n == 0:
        yield []
        return
    for p in _set_partitions(n - 1):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [n]] + p[i + 1 :]
        yield p + [[n]]


def python_kernel() -> None:
    """About a millisecond of allocation-heavy pure-Python work."""
    for p in _set_partitions(7):
        tuple(sorted(map(tuple, p)))


def calibrator(uses_blas: bool):
    """Returns a function that times a fixed kernel, independent of
    lowdensity, that slows with the host as a workload's calls do: the
    Python kernel, and for workloads that spend much of a call in BLAS the
    geometric mean of it and a complex 256 x 256 matmul."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256)) + 1j

    def timed(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def measure() -> float:
        py = timed(python_kernel)
        return math.sqrt(py * timed(lambda: a @ a)) if uses_blas else py

    return measure


def invoke(cli, call) -> tuple[int, float]:
    """One main(argv) call, timed, with its printout captured; returns
    (exit code, seconds).  A call that raises counts as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(call.argv))
        except Exception:  # the loop must go on; the call is a failure
            rc = -1
            traceback.print_exc()
        dt = time.perf_counter() - t0
    if rc != 0:
        sys.stderr.write(f"call failed (exit {rc}): {' '.join(call.argv)}\n{err.getvalue()[-2000:]}")
    return rc, dt


def check_call(workload, call, rc: int) -> tuple[list[str], float]:
    if rc != 0:
        return [f"exit code {rc}"], float("nan")
    try:
        return workload.check(call)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], float("nan")


def run_workload(workload, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS,
                 min_rounds: int = MIN_ROUNDS) -> dict:
    """Run one workload and return its full record (result, metrics, samples)."""
    from lowdensity import cli
    from tracer import COMPUTED, Tracer

    tmp = TMP_DIR / f"{workload.name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        def round_calls(i):
            return workload.round(random.Random(f"{workload.name}/{seed}/{i}"), tmp, f"r{i}")

        # a warm-up round on inputs of its own, never timed
        warm = round_calls("warm")
        setup = [] if trace else measure_setup(workload, warm[0], setup_repeats)
        for call in warm:
            invoke(cli, call)

        tracer = Tracer() if trace else None
        calibrate = calibrator(workload.uses_blas)
        rounds = []  # (traced, seconds per call, [call ids], kernel seconds just before)
        problems: list[str] = []
        errs = []
        attempted = failed = 0
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            expected = median([r[1] * len(r[2]) for r in rounds]) if rounds else 0.0
            if i >= min_rounds and elapsed + expected > seconds:
                break
            calls = round_calls(i)
            traced = trace and i % 2 == 1
            kernel = calibrate()
            total, ids = 0.0, []
            for j, call in enumerate(calls):
                call_id = (i, j)
                if traced:
                    tracer.begin(call_id)
                    tracer.install()
                try:
                    rc, dt = invoke(cli, call)
                finally:
                    if traced:
                        tracer.uninstall()
                total += dt
                ids.append(call_id)
                found, err = check_call(workload, call, rc)
                if call_id == (0, 0) and not found:
                    # the first input once more, untimed and after its timed
                    # call, so a cache kept across calls cannot speed a sample
                    table = call.out.read_bytes()
                    if invoke(cli, call)[0] != 0 or call.out.read_bytes() != table:
                        found.append("repeating the input gave a different table")
                attempted += 1
                if found:
                    failed += 1
                    problems += [f"round {i} call {j}: {p}" for p in found]
                errs.append(err)
            rounds.append((traced, total / len(calls), ids, kernel))
            i += 1

        untraced = [r[1] for r in rounds if not r[0]]
        kernels = [r[3] for r in rounds if not r[0]]
        measured = [e for e in errs if e == e]  # wn-order5 has no accuracy figure (nan)
        record = {
            "workload": workload.name,
            "trace": int(trace),
            "seconds": seconds,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "err_finest": median(measured) if measured else None,
            "samples": {"cmd_s": untraced, "kernel_s": kernels, "setup_s": setup},
        }
        if not trace:
            record["metrics"] = {
                "setup_s": median(setup),
                "cmd_cal": median([c / k for c, k in zip(untraced, kernels)]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            traced_rounds = [r for r in rounds if r[0]]
            per_round = []
            for _, _, ids, _ in traced_rounds:
                summaries = [tracer.summarize(c) for c in ids]
                per_round.append({k: statistics.fmean(s[k] for s in summaries) for k in summaries[0]})
            layer = {k: median([r[k] for r in per_round]) for k in per_round[0]}
            calibrated = median([r[1] / r[3] for r in traced_rounds]) / median([c / k for c, k in zip(untraced, kernels)])
            layer["trace.overhead_frac"] = calibrated - 1.0
            layer["err_finest"] = record["err_finest"] or 0.0
            record["metrics"] = layer
            record["computed"] = sorted(COMPUTED)
            record["bases"] = {str(c): tracer.bases(c) for _, _, ids, _ in traced_rounds for c in ids}
            record["samples"]["traced_cmd_s"] = [r[1] for r in traced_rounds]
            record["spans_file"] = write_spans(workload.name, seed, tracer)
        return record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def write_spans(name: str, seed: int, tracer) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    fields = ["name", "layer", "parent", "call", "start", "end"]
    with open(path, "w") as fh:
        json.dump({"fields": fields, "spans": [list(s) for s in tracer.spans if s is not None]}, fh)
    return str(path.relative_to(ROOT))


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(record: dict, units: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()},
    }


def print_summary(record: dict, units: dict) -> None:
    computed = set(record.get("computed", ()))
    samples = record["samples"]
    print(f"workload {record['workload']}  trace={record['trace']}  seed={record['provenance']['seed']}")
    for name, u in units.items():
        value = record["metrics"][name]
        note = ""
        if name == "cmd_cal":
            cmd, kernel = samples["cmd_s"], samples["kernel_s"]
            note = (f"  (median of {len(cmd)} rounds of call s / kernel s; call fastest {min(cmd):.6g} s,"
                    f" median {median(cmd):.6g} s; kernel median {median(kernel):.3g} s)")
        elif name == "setup_s":
            note = f"  (median of {len(samples['setup_s'])} fresh interpreters)"
        elif name in computed:
            note = "  (computed)"
        print(f"  {name:<30} {value:>14.6g} {u}{note}")
    print(f"  {'fail_frac':<30} {record['failed'] / max(1, record['attempted']):>14.6g} 1"
          f"  ({record['failed']}/{record['attempted']} calls)")
    if record["err_finest"] is None:
        print(f"  {'err_finest':<30} {'-':>14}    (no reference beyond --assert; the traced metric reads 0)")
    elif "err_finest" not in units:
        print(f"  {'err_finest':<30} {record['err_finest']:>14.6g} 1")
    for p in record["problems"][:10]:
        print(f"  problem: {p}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lowdensity" / "__init__.py").is_file():
        print(f"error: no lowdensity sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # BLAS reads its thread count when numpy loads: at most one per core
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())
    sys.path.insert(0, str(SRC))
    import lowdensity

    if Path(lowdensity.__file__).resolve().parent != (SRC / "lowdensity").resolve():
        print(f"error: lowdensity imported from {lowdensity.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    units = declared_units(bool(args.trace))
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record["provenance"] = provenance(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_summary(record, units)
    print(json.dumps(result_line(record, units)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
