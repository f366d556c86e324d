"""Benchmark of transmute: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload
    python3 perfbench/run.py --selftest                   # quick sizes, fault injection

Run it from anywhere; it imports transmute from the ``src`` directory next
to ``perfbench``.  Workloads (see workloads.py for why each was chosen):
``spectrum-harmonic``, ``kernel-halfint`` and ``verify-const``.

Each run sets up ``SETUP_PROBES`` fresh interpreters that only import
transmute and build the workload's inputs, then one fresh interpreter that
runs passes back to back for S seconds and checks every pass's outputs.
BLAS/OpenMP threads are pinned to one, and TRANSMUTE_THREADS is removed,
so the package runs serially, its default.

Every time in the metrics is in host-adjusted seconds (see hostspeed.py):
the raw time of a set-up or pass, less the sampler's own probes, scaled by
how fast the probes ran during that same interval.  The raw medians are
printed in the lines above the result.

With ``--trace 0`` the metrics are the end-to-end ones: median pass wall
and CPU time, median set-up time, peak RSS of the measuring process, and
the worst error against a reference.  With ``--trace 1`` they are the
per-layer ones of tracing.py.  The failed share of checked operations is
printed as ``fail_ratio`` and carried by ``attempted``/``failed``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give the
pass counts, generated inputs, environment and a host-speed probe.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("spectrum-harmonic", "kernel-halfint", "verify-const")
SETUP_PROBES = 3          # plus the measuring interpreter's own set-up
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "max_err": "1",
}


class BenchError(Exception):
    pass


def _environment() -> dict:
    """One BLAS/OpenMP thread: the workloads are serial and their arrays
    small, and a second thread would tie each pass to the speed of another
    CPU that the host-speed sampler does not see.  A fixed hash seed gives
    every interpreter the same dict and set layouts."""
    env = dict(os.environ)
    env.pop("TRANSMUTE_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _worker(mode: str, workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, env=_environment(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, quick=False, inject=None):
    flags = ["--quick"] if quick else []
    probes = [_worker("setup", workload, seed, *flags)
              for _ in range(1 if quick else SETUP_PROBES)]
    if inject:
        flags += ["--inject", inject]
    res = _worker("measure", workload, seed, "--seconds", str(seconds),
                  "--trace", str(trace), *flags)
    setups = probes + [res]
    untraced = [p for p in res["passes"] if p["layers"] is None]
    traced = [p for p in res["passes"] if p["layers"] is not None]
    med = statistics.median
    res["raw"] = {
        "wall_s": med(p["wall_raw_s"] for p in untraced),
        "cpu_s": med(p["cpu_raw_s"] for p in untraced),
        "setup_s": med(r["setup_raw_s"] for r in setups),
        "slowdown": med(p["slowdown"] for p in res["passes"]),
    }
    res["counts"] = {"untraced passes": len(untraced), "traced passes": len(traced),
                     "set-up samples": len(setups)}
    if trace:
        from tracing import PER_LAYER

        values = {k: med(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        values["trace.overhead_frac"] = (med(p["wall_s"] for p in traced)
                                         / med(p["wall_s"] for p in untraced) - 1.0)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, (unit, _better) in PER_LAYER.items()}
    else:
        values = {
            "wall_s": med(p["wall_s"] for p in untraced),
            "cpu_s": med(p["cpu_s"] for p in untraced),
            "setup_s": med(r["setup_s"] for r in setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "max_err": res["max_err"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    res["metrics"] = metrics
    return res


def _report(res):
    print(f"workload {res['workload']}  seed {res['seed']}  "
          + "  ".join(f"{k} {n}" for k, n in res["counts"].items()))
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':32s} {ratio:.6g} ({res['failed']}/{res['attempted']})")
    for what, n in res["failures"].items():
        print(f"    failed {n}x: {what}")
    print("inputs " + json.dumps(res["inputs"]))
    print("env " + json.dumps(res["env"]))
    print("host_probe_ms " + json.dumps(res["host_probe_ms"]))
    print("raw (not host-adjusted) " + json.dumps(res["raw"]))


def _result_line(results):
    many = len(results) > 1   # --workload all: prefix each metric with its workload
    metrics = {(res["workload"] + ":" if many else "") + name: m
               for res in results for name, m in res["metrics"].items()}
    return {
        "correct": all(r["wrong"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def _expect(ok, message):
    if not ok:
        raise BenchError(f"selftest: {message}")


def selftest():
    """Quick sizes: every metric is emitted with its unit, and injected
    faults raise the failed share."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    _expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
            "BENCHMARK.json names other workloads")

    def ratio(res):
        return res["failed"] / res["attempted"]

    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(workload, 0, 1, trace, quick=True)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            _expect(got == units[trace],
                    f"{workload} --trace {trace} emitted {got}, expected {units[trace]}")
            if trace == 0:
                base = res
        injections = ["ref-shift"] + (["perturb-beta"] if workload == "verify-const" else [])
        for inject in injections:
            res = run_workload(workload, 0, 1, 0, quick=True, inject=inject)
            _expect(ratio(res) > ratio(base),
                    f"{workload}: {inject} left fail_ratio at {ratio(res):.4g}")
            print(f"selftest {workload}: {inject} raises fail_ratio "
                  f"{ratio(base):.4g} -> {ratio(res):.4g}")
    print("selftest passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "transmute" / "__init__.py").is_file():
        print(f"error: no transmute sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.selftest:
            selftest()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        _report(res)
    print(json.dumps(_result_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
