"""Per-layer spans recorded from outside the package.

A span is a timing wrapper installed on the module attribute that a caller
looks up.  ``from .oracle import regular_solution_ode`` binds the function
in the caller's namespace, so the wrapper goes on that binding, for example
``transmute.coeffs.regular_solution_ode``; calls a module makes to its own
functions stay unwrapped.  Each span records name, layer, start, end, its
parent span and a few counts read from the call's arguments or result.
Spans stay in memory; ``layer_metrics`` reduces one pass of them.
"""
from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (caller module, attribute, layer)
TARGETS = [
    ("transmute.coeffs", "regular_solution_ode", "oracle"),
    ("transmute.spectral", "regular_solution_ode", "oracle"),
    ("transmute.validation", "regular_solution_ode", "oracle"),
    ("transmute.coeffs", "compute_beta", "coeffs"),
    ("transmute.spectral", "compute_beta", "coeffs"),
    ("transmute.validation", "compute_beta", "coeffs"),
    ("transmute.cli", "compute_beta", "coeffs"),
    ("transmute.spectral", "u_N", "solution"),
    ("transmute.validation", "integral_triangle", "solution"),
    ("transmute.spectral", "dirichlet_eigenvalues", "spectral"),
    ("transmute.spectral", "oracle_eigenvalues", "spectral"),
    ("transmute.cli", "dirichlet_eigenvalues", "spectral"),
    ("transmute.kernel", "make_kernel_series", "kernel"),
    ("transmute.kernel", "kernel_K", "kernel"),
    ("transmute.kernel", "apply_transmutation", "kernel"),
    ("transmute.cli", "make_kernel_series", "kernel"),
    ("transmute.cli", "kernel_K", "kernel"),
    ("transmute.validation", "make_kernel_series", "kernel"),
    ("transmute.validation", "kernel_K", "kernel"),
    ("transmute.validation", "apply_transmutation", "kernel"),
    ("transmute.validation", "run_validation", "validation"),
    ("transmute.cli", "run_validation", "validation"),
    ("transmute.cli", "main", "cli"),
]

# per_layer metric -> (unit, better); the order is the order of the report
PER_LAYER = {
    "oracle.calls": ("count", "lower"),
    "oracle.self_s": ("s", "lower"),
    "oracle.call_ms.p50": ("ms", "lower"),
    "oracle.call_ms.p90": ("ms", "lower"),
    "oracle.omega_max": ("1", "lower"),
    "oracle.failed": ("count", "lower"),
    "coeffs.fits": ("count", "lower"),
    "coeffs.self_s": ("s", "lower"),
    "coeffs.fit_residual_max": ("1", "lower"),
    "solution.u_N.calls": ("count", "lower"),
    "solution.self_s": ("s", "lower"),
    "solution.u_N_us.p50": ("us", "lower"),
    "solution.u_N_us.p90": ("us", "lower"),
    "spectral.self_s": ("s", "lower"),
    "spectral.evals_per_root": ("ratio", "lower"),
    "spectral.missed_root_warnings": ("count", "lower"),
    "kernel.values": ("count", "higher"),
    "kernel.self_s": ("s", "lower"),
    "validation.checks": ("count", "higher"),
    "validation.checks_failed": ("count", "lower"),
    "validation.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _omega(args, kwargs):
    return abs(float(kwargs["omega"] if "omega" in kwargs else args[1]))


def _result_info(attr, result):
    """Counts a span keeps from its call's result."""
    if attr == "compute_beta":
        return {"residual": result.fit_residual}
    if attr == "dirichlet_eigenvalues":
        return {"roots": len(result.eigenvalues)}
    if attr == "oracle_eigenvalues":
        return {"roots": len(result)}
    if attr == "kernel_K":
        return {"values": int(np.size(result))}
    if attr == "run_validation":
        return {"checks": len(result), "checks_failed": sum(not r.passed for r in result)}
    return None


class Span:
    __slots__ = ("attr", "layer", "parent", "start", "end", "info")

    def __init__(self, attr, layer, parent, start):
        self.attr, self.layer, self.parent, self.start = attr, layer, parent, start
        self.end = start
        self.info = None


class Tracer:
    """Installs the wrappers and keeps the spans of the current pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list = []

    def install(self):
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:   # the caller no longer imports it
                continue
            setattr(module, attr, self._wrap(original, attr, layer))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, attr, layer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(attr, layer, stack[-1] if stack else -1, time.perf_counter())
            if layer == "oracle":
                span.info = {"omega": _omega(args, kwargs)}
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.info = dict(span.info or {}, error=True)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            info = _result_info(attr, result)
            if info:
                span.info = info
            return result

        return traced


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span], missed_root_warnings: int) -> dict:
    """Per-layer metrics of one pass; self time is a span's duration minus
    the durations of its child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    self_s = dict.fromkeys(("oracle", "coeffs", "solution", "spectral",
                            "kernel", "validation", "cli"), 0.0)
    for s, c in zip(spans, child):
        self_s[s.layer] += (s.end - s.start) - c

    def of(attr):
        return [s for s in spans if s.attr == attr]

    oracle = [s for s in spans if s.layer == "oracle"]
    fits = of("compute_beta")
    u_n = of("u_N")
    roots = sum(s.info["roots"] for s in spans if s.layer == "spectral" and s.info)
    # F evaluations: series or oracle calls made directly by a root finder
    f_evals = sum(1 for s in spans if s.layer in ("solution", "oracle")
                  and s.parent >= 0 and spans[s.parent].layer == "spectral")
    validations = [s.info for s in of("run_validation") if s.info]
    return {
        "oracle.calls": len(oracle),
        "oracle.self_s": self_s["oracle"],
        "oracle.call_ms.p50": _percentile([1e3 * (s.end - s.start) for s in oracle], 50),
        "oracle.call_ms.p90": _percentile([1e3 * (s.end - s.start) for s in oracle], 90),
        "oracle.omega_max": max((s.info["omega"] for s in oracle), default=0.0),
        "oracle.failed": sum(1 for s in oracle if s.info.get("error")),
        "coeffs.fits": len(fits),
        "coeffs.self_s": self_s["coeffs"],
        "coeffs.fit_residual_max": max((s.info["residual"] for s in fits if s.info),
                                       default=0.0),
        "solution.u_N.calls": len(u_n),
        "solution.self_s": self_s["solution"],
        "solution.u_N_us.p50": _percentile([1e6 * (s.end - s.start) for s in u_n], 50),
        "solution.u_N_us.p90": _percentile([1e6 * (s.end - s.start) for s in u_n], 90),
        "spectral.self_s": self_s["spectral"],
        "spectral.evals_per_root": f_evals / roots if roots else 0.0,
        "spectral.missed_root_warnings": missed_root_warnings,
        "kernel.values": sum(s.info["values"] for s in of("kernel_K") if s.info),
        "kernel.self_s": self_s["kernel"],
        "validation.checks": sum(v["checks"] for v in validations),
        "validation.checks_failed": sum(v["checks_failed"] for v in validations),
        "validation.self_s": self_s["validation"],
        "cli.self_s": self_s["cli"],
    }
