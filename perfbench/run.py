"""Run one rmkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload a2c-train --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports rmkit from ``src/`` of the same
checkout and nothing else.  Workloads: a2c-train, ground, learn-machine,
urs-scan (see README.md for why each exists).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are per-layer figures from a traced run, plus the tracing overhead.
The lines before it print every figure by name with its unit, the machine,
and the determinism digest.  A full record, spans included, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# numpy links a threaded OpenBLAS.  One BLAS thread, pinned before numpy is
# loaded, keeps the figures about the program rather than the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("a2c-train", "ground", "learn-machine", "urs-scan")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, rmkit; "
                "print(time.perf_counter() - t0)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    return args


def import_program():
    """Import this checkout's rmkit, or exit with an error if it is missing."""
    package = os.path.join(SRC, "rmkit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: rmkit sources not found at {package}")
    sys.path.insert(0, SRC)
    import rmkit

    if os.path.dirname(os.path.abspath(rmkit.__file__)) != package:
        raise SystemExit(f"error: imported rmkit from {rmkit.__file__}, not {package}")


def import_seconds() -> list[float]:
    """Cold imports of numpy and rmkit, each timed in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        runs.append(float(done.stdout))
    return runs


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info(loadavg) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_start": list(loadavg),
    }


def run_cycles(workload, state, seconds: float, tracer=None):
    """Closed loop of cycles.

    Runs ``workload.min_cycles`` cycles, then more while another cycle of the
    mean length so far still ends within ``seconds``.  With a tracer, every
    cycle runs twice in a row on the same inputs, untraced and then traced,
    so that both see the machine in the same state.

    Returns the untraced samples, the traced samples, and how many untraced
    samples came from the first ``min_cycles`` cycles, which every run of
    the same seed makes.
    """
    samples, traced = [], []
    fixed = 0
    t0 = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t0
        if i >= workload.min_cycles and elapsed * (i + 1) / i > seconds:
            break
        samples.extend(workload.cycle(state, i))
        if tracer is not None:
            tracer.install()
            try:
                with tracer.span("bench.cycle"):
                    traced.extend(workload.cycle(state, i))
            finally:
                tracer.uninstall()
        i += 1
        if i == workload.min_cycles:
            fixed = len(samples)
    return samples, traced, fixed


def check_repeats(samples, fixed: int) -> str:
    """Fail calls whose outputs differ from an earlier call on the same inputs.

    Returns the run's determinism digest over the outputs of the first
    ``fixed`` samples, the part of the run that does not depend on its speed.
    """
    first = {}
    for s in samples:
        if first.setdefault(s.key, s.digest) != s.digest:
            s.ok = False
            s.note += "; output differs from an earlier call with the same inputs"
    keys = sorted({s.key for s in samples[:fixed]})
    text = "\n".join(f"{key} {first[key]}" for key in keys)
    return hashlib.sha256(text.encode()).hexdigest()


def tail(values):
    """(percentile, value) of the highest percentile with ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    import_program()
    import tracing
    import workloads

    machine = machine_info(loadavg)
    imports = import_seconds()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setups)

    record = {"args": vars(args), "machine": machine, "import_runs_s": imports,
              "setup_runs_s": setups}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                workload.setup()
        finally:
            tracer.uninstall()
        reference, traced, fixed = run_cycles(workload, state, args.seconds, tracer)
        samples = reference + traced
        # traced over untraced wall time of the same calls
        overhead = sum(s.seconds for s in traced) / sum(s.seconds for s in reference)
        metrics = tracer.layer_metrics(overhead, workload.rates(reference))
        named = {}
        record["spans"] = tracer.dump()
    else:
        samples, _, fixed = run_cycles(workload, state, args.seconds)
        named = workload.named(samples)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "steps_per_s": {"value": workload.throughput(samples), "unit": "1/s"},
        }

    digest = check_repeats(samples, fixed)
    failed = sum(not s.ok for s in samples)
    record.update(metrics=metrics, named={k: v[:2] for k, v in named.items()}, digest=digest,
                  failed=failed, samples=[vars(s) for s in samples])

    print(f"machine: nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} blas={machine['blas']} "
          f"blas_threads={machine['blas_threads']} loadavg_start={machine['loadavg_start']}")
    for s in samples:
        print(f"call {s.kind} {s.key}: {s.seconds:.4f} s, work {s.work:g}, "
              f"{'ok' if s.ok else 'FAILED'} ({s.note})")
    for name, (value, unit, *rest) in named.items():
        extra = ""
        if rest:
            top = tail(rest[0])
            extra = f" (n={len(rest[0])}" + (f", p{top[0]:.0f} {top[1]:.4f} {unit})" if top else ")")
        print(f"{name} {value:.6g} {unit}{extra}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_share {failed}/{len(samples)} = {failed / len(samples):g}")
    print(f"digest {digest}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(f"record {os.path.relpath(path)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
