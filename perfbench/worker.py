"""One workload in a fresh interpreter; run.py starts it and reads the JSON
object it prints as its last line.

    python3 perfbench/worker.py setup   --workload W --seed N [--quick]
    python3 perfbench/worker.py measure --workload W --seed N --seconds S
                                        --trace 0|1 [--quick] [--inject KIND]

``setup`` times importing transmute and building the workload's inputs.
``measure`` does the same, computes the check references, then runs passes
back to back for about S seconds (at least two).  With ``--trace 1`` every
second pass runs with the layer wrappers installed; the others give the
untraced time that ``trace.overhead_frac`` compares against.

The host-speed sampler of hostspeed.py runs from the first line on, so
every time is reported both raw and host-adjusted by the probes taken
during that same set-up or pass; its numpy probe takes over once set-up
has been timed.
"""
import time

T0 = time.perf_counter()

import hostspeed  # noqa: E402

SAMPLER = hostspeed.Sampler()
SAMPLER.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 2


def _load():
    sys.path.insert(0, str(SRC))
    import transmute
    import workloads

    # never measure an installed copy instead of the checkout's source
    if SRC.resolve() not in Path(transmute.__file__).resolve().parents:
        sys.exit(f"transmute imported from {transmute.__file__}, not from {SRC}")
    return transmute, workloads


def host_probe_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-numpy loop: a host-speed reference that is
    recorded next to the metrics and never used to scale them."""
    import numpy as np

    times = []
    for _ in range(reps):
        a = np.linspace(0.0, 1.0, 100_000)
        t0 = time.perf_counter()
        for _ in range(40):
            a = np.sin(a) * 0.5 + 0.25
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def _environment(transmute) -> dict:
    import numpy
    import scipy

    pins = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "backend": getattr(transmute, "BACKEND", None),
        "TRANSMUTE_THREADS": os.environ.get("TRANSMUTE_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in pins},
    }


def _setup_times() -> dict:
    t1 = time.perf_counter()
    return {"setup_raw_s": t1 - T0, "setup_s": SAMPLER.adjust(T0, t1, t1 - T0)}


def measure(args, transmute, workloads) -> dict:
    from tracing import PER_LAYER, Tracer, layer_metrics

    wl = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    setup = _setup_times()
    SAMPLER.use("numpy")
    probe_before = host_probe_ms()
    wl.prepare(args.inject)

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    tally = workloads.Tally()
    tracer = Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    try:
        while True:
            n_traced = sum(p["layers"] is not None for p in passes)
            traced = tracer is not None and len(passes) > 2 * n_traced
            if traced:
                tracer.spans.clear()
                tracer.install()
            missed_before = tally.missed_root_warnings
            c0, w0 = time.process_time(), time.perf_counter()
            wl.run_pass(tally, workdir, args.inject)
            w1, c1 = time.perf_counter(), time.process_time()
            slowdown = SAMPLER.slowdown(w0, w1)
            layers = None
            if traced:
                tracer.uninstall()
                raw = layer_metrics(tracer.spans, tally.missed_root_warnings - missed_before)
                # span times hold the probes run inside them: scaled, not removed
                layers = {k: v / slowdown if PER_LAYER[k][0] in ("s", "ms", "us") else v
                          for k, v in raw.items()}
            passes.append({
                "wall_raw_s": w1 - w0,
                "cpu_raw_s": c1 - c0,
                "wall_s": SAMPLER.adjust(w0, w1, w1 - w0),
                "cpu_s": SAMPLER.adjust(w0, w1, c1 - c0),
                "slowdown": slowdown,
                "layers": layers,
            })
            typical = statistics.median(p["wall_raw_s"] for p in passes)
            if len(passes) >= MIN_PASSES and w1 - start + typical > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "inject": args.inject,
        "inputs": wl.inputs(),
        **setup,
        "passes": passes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "failures": tally.failures,
        "max_err": tally.max_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_probe_ms": {"before": probe_before, "after": host_probe_ms()},
        "env": _environment(transmute),
    }
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--inject", choices=("ref-shift", "perturb-beta"))
    args = parser.parse_args()

    transmute, workloads = _load()
    if args.mode == "setup":
        workloads.WORKLOADS[args.workload](args.seed, args.quick)
        result = _setup_times()
    else:
        result = measure(args, transmute, workloads)
    SAMPLER.stop()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
