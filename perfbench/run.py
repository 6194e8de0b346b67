"""kmslab benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Run from the root of a checkout (the benchmark imports kmslab from ./src):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 34 --trace 0

Workloads are defined in workloads.py.  The last line of standard output is
a JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it record the environment and a summary (raw pass times, the highest
percentile with ten samples beyond it when a run has that many passes,
error_rate, output digests).

With --trace 0 the metrics are
  wall_s        median time of a timed pass (host-normalised, see below),
  setup_s       median time from spawning a fresh interpreter to being ready
                to start a pass (host-normalised),
  peak_rss_mb   peak resident memory of the benchmark process,
  success_rate  1 - error_rate, the share of verdict requests that returned
                and passed the output checks.
With --trace 1 the run times untraced passes for half of --seconds and
traced passes for the other half, and reports the per-layer metrics of
tracer.py, the tracing overhead and a single-threaded reference pass
(OPENBLAS_NUM_THREADS=1).  Spans are written to .perfbench_out/ when the
run ends.  Exit code 0 on a completed run, 2 when the checkout has no
kmslab sources.

Host normalisation: on a shared VM (measured on 2 vCPUs) the CPU speed
drifts by 20-40 % over tens of seconds, for any program alike, and no
repetition inside one run averages that out.  Each timed sample is
therefore divided by the mean time of a fixed calibration kernel run just
before and just after it, and multiplied by the kernel's nominal time
CAL_REF_S: the result is seconds at a fixed host speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
# nominal time of HostClock's kernel; normalised times are seconds at this host speed
CAL_REF_S = 0.4
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment(nproc):
    """Force KMSLAB_WORKERS unset and cap thread variables at nproc, before numpy loads."""
    os.environ.pop("KMSLAB_WORKERS", None)
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > nproc:
            os.environ[var] = str(nproc)


def _openblas_threads(nproc):
    """Thread count of numpy's OpenBLAS, capped at nproc; None when it cannot be queried."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.restype = ctypes.c_int
            put.argtypes = [ctypes.c_int]
            if get() > nproc:
                put(nproc)
            return get()
    return None


def _llc_bytes():
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def environment(nproc):
    import numpy
    import scipy
    import scipy.fft

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("name"),
        "blas_threads": _openblas_threads(nproc),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        # numpy.fft (pocketfft) has no thread pool
        "fft_threads": {"numpy.fft": 1, "scipy.fft": scipy.fft.get_workers()},
        "llc_bytes": _llc_bytes(),
        "KMSLAB_WORKERS": "unset (forced)",
    }


def setup_probe(workload, cfg_dir):
    """Raw seconds from spawning a fresh interpreter until it is ready to start a pass."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(cfg_dir)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


class HostClock:
    """Times samples against a fixed calibration kernel run between them.

    The kernel mixes what kmslab spends its time on: an interpreter loop,
    n-D FFTs of a 32^3 x 9 field and a batched SVD of small matrices.  It
    holds its own references to the numpy functions, so a traced run's
    wrappers never see it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.field = rng.standard_normal((32, 32, 32, 9))
        self.mats = rng.standard_normal((6000, 12, 9))
        self.fftn, self.ifftn, self.svd = np.fft.fftn, np.fft.ifftn, np.linalg.svd
        self.calibrations = []
        self.calibrate()

    def calibrate(self):
        """Time the kernel once; it becomes the "before" calibration of the next sample."""
        start = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i
        for _ in range(7):
            self.ifftn(self.fftn(self.field, axes=(0, 1, 2)), axes=(0, 1, 2))
        self.svd(self.mats)
        elapsed = time.perf_counter() - start
        self.calibrations.append(elapsed)
        self.last = elapsed
        return elapsed

    def normalise(self, raw_s):
        """Scale a sample that just ended by the calibrations around it."""
        before = self.last
        after = self.calibrate()
        return raw_s * CAL_REF_S / ((before + after) / 2)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, label, message):
        self.failed += 1
        print(f"FAILED {label}: {message}", file=sys.stderr)


def timed_passes(ops, budget, tally, digests, clock, tracer=None, max_passes=None):
    """Run passes of ops until the next one would overrun budget seconds (at least one).

    Only the verdict requests are timed, each one normalised by the
    calibrations just before and after it; output checks run outside the
    timer.  Returns the raw and the host-normalised pass times.
    """
    times, normalised = [], []
    start = time.perf_counter()
    clock.calibrate()
    while True:
        gc.collect()
        raw_pass = norm_pass = 0.0
        for label, run, check in ops:
            if tracer is not None:
                tracer.request = f"pass{len(times)}/{label}"
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                output, error = run(), None
            except Exception:
                output, error = None, traceback.format_exc()
            raw = time.perf_counter() - t0
            raw_pass += raw
            norm_pass += clock.normalise(raw)
            if error is not None:
                tally.fail(label, error)
                continue
            try:
                digest = check(output)
            except workloads.CheckFailed as exc:
                tally.fail(label, str(exc))
                continue
            if digests.setdefault(label, digest) != digest:
                tally.fail(label, "output differs from the first pass")
        times.append(raw_pass)
        normalised.append(norm_pass)
        if max_passes is not None and len(times) >= max_passes:
            break
        if time.perf_counter() - start + statistics.median(times) > budget:
            break
    return times, normalised


def high_percentile(samples):
    """Highest integer percentile with at least 10 samples beyond it, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = -(-q * n // 100)  # nearest rank, ceil(q n / 100)
        if n - rank >= 10:
            return {"p": q, "value": ordered[rank - 1]}
    return None


def reference_pass(args):
    """One set-up and one pass in a child with single-threaded BLAS."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--reference",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"single-threaded reference exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", action="store_true",
        help="one set-up probe and exactly one pass (the single-threaded reference row)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kmslab" / "__init__.py").is_file():
        print(f"no kmslab sources under {SRC}; run from the root of a kmslab checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    prepare_environment(nproc)
    sys.path.insert(0, str(SRC))

    import jsonschema  # noqa: F401  (fail early if the report checks cannot run)

    cfg_dir = OUT / "cfg"
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads.write_configs(cfg_dir)
    schema = json.loads((SRC / "kmslab" / "schemas" / "report.schema.json").read_text())

    clock = HostClock()
    setup_raw, setup_times = [], []
    if not args.trace:
        for _ in range(1 if args.reference else SETUP_PROBES):
            setup_raw.append(setup_probe(args.workload, cfg_dir))
            setup_times.append(clock.normalise(setup_raw[-1]))

    env = environment(nproc)
    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    undo = tracing.instrument(tracer) if tracer else None
    if tracer:
        tracer.request = "setup"
    configs = workloads.setup(args.workload, cfg_dir)
    if undo:
        undo()

    for label, error in workloads.plane_wave_check(configs, args.seed):
        tally.attempted += 1
        if error:
            tally.fail(label, error)

    ops = workloads.operations(args.workload, configs, args.seed, cfg_dir, out_dir, schema)
    digests = {}
    budget = args.seconds / 2 if args.trace else args.seconds
    raw, times = timed_passes(
        ops, budget, tally, digests, clock, max_passes=1 if args.reference else None
    )
    if args.trace:
        undo = tracing.instrument(tracer)
        try:
            traced_raw, traced_times = timed_passes(ops, budget, tally, digests, clock, tracer=tracer)
        finally:
            undo()

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "loop": "closed, 1 client",
        "wall_s": {
            "median": statistics.median(times),
            "high_percentile": high_percentile(times),
            "samples": len(times),
            "raw_passes": raw,
            "raw_median": statistics.median(raw),
        },
        "calibration_s": clock.calibrations,
        "error_rate": {"value": tally.failed / tally.attempted, "unit": "ratio"},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "output_digests": digests,
    }
    if args.trace:
        reference = reference_pass(args)
        tally.attempted += reference["attempted"]
        tally.failed += reference["failed"]
        summary["traced_wall_s"] = {
            "median": statistics.median(traced_times),
            "samples": len(traced_times),
            "raw_median": statistics.median(traced_raw),
        }
        # span times are raw seconds
        metrics = tracing.per_layer_metrics(tracer, len(traced_times))
        metrics["trace.overhead_s"] = (statistics.median(traced_times) - statistics.median(times), "s")
        ref = reference["metrics"]
        metrics["reference.single_thread_wall_s"] = (ref["wall_s"]["value"], "s")
        metrics["reference.single_thread_setup_s"] = (ref["setup_s"]["value"], "s")
        pass_spans = [i for i, s in enumerate(tracer.spans) if str(s.request).startswith("pass")]
        summary["layer_self_s_per_pass"] = {
            layer: t / len(traced_times)
            for layer, t in tracing.layer_self_times(tracer, pass_spans).items()
        }
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "environment": env,
            "summary": summary,
            "spans": [s.to_dict(i) for i, s in enumerate(tracer.spans)],
        }) + "\n")
        summary["spans_file"] = str(trace_path.relative_to(ROOT))
    else:
        summary["setup_s"] = {
            "median": statistics.median(setup_times),
            "samples": setup_times,
            "raw_samples": setup_raw,
        }
        metrics = {
            "wall_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
        }

    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({"summary": summary}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
