"""Command line front end.

Four subcommands cover the pipeline end to end:

* ``beta``     -- fit the coefficient table at x = b, write (k, beta_k) CSV.
* ``kernel``   -- tabulate the integral kernel K(x, t) on a grid, write
                  (x, t, K, flag) CSV.
* ``spectrum`` -- solve the Dirichlet eigenvalue problem, write
                  (n, omega, residual, reference, abs_error) CSV; the
                  references are ``spectrum.references``, by default the
                  stored ones of the l=1, q=x^2 problem (``{}``: none).
* ``validate`` -- run the invariant suite and report PASS/FAIL per check.

Configuration comes from an optional JSON file (``--config``) overridden
by individual flags; every run writes the resolved configuration back
into a JSON summary next to the CSV so results are reproducible.  Output
is deterministic: the same configuration and seed produce byte-identical
CSV files.  Both fits (compute_beta's beta_0..beta_M, the weighted fit of
d_0..d_N) solve sample_count(n) = 3(n+1) frequencies.  ``spectrum``, and
``kernel`` at integer l, fit d_0..d_N at each x: they take ``--N``
(default 20) and exit 2 on a fit size M; ``validate`` fits d at S = M from
its beta table's sweep.  A subcommand exits 2 on a flag it does not read.

Exit codes: 0 success, 1 a ``validate`` check failed, 2 malformed input
or a numerical failure (such as spectrum ordinals Sturm's count rejects).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import __version__
from .coeffs import compute_beta, sample_count
from .errors import DomainError, TransmuteError
from .kernel import goursat_diagonal, kernel_K, make_kernel_series
from .oracle import ProblemSetup, make_potential
from .specialfn import is_integer_l
from .spectral import (
    _SERIES_N,
    HARMONIC_L1_EIGENVALUES,
    _fit_series,
    default_fit_size,
    dirichlet_eigenvalues,
)
from .validation import run_validation

__all__ = ["RunConfig", "main"]

_FLOAT_FMT = "%.17g"   # round-trips doubles exactly; keeps CSV deterministic


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Resolved settings for one command invocation.

    Serializes to the nested JSON layout documented in the README
    (sections problem/fit/spectrum/kernel/validate); ``from_dict`` and
    ``to_dict`` are exact inverses so configurations round-trip.
    """

    l: float = 0.0
    b: float = math.pi
    potential: str = "zero"
    M: Optional[int] = None
    N: Optional[int] = None
    count: int = 10
    references: Optional[dict] = None
    nx: int = 12
    nt: int = 33
    t_max_fraction: float = 0.95
    perturb_beta: float = 0.0
    seed: int = 0
    out: str = "."

    def to_dict(self) -> dict:
        refs = None
        if self.references is not None:
            refs = {str(k): float(v) for k, v in sorted(self.references.items())}
        return {
            "problem": {"l": self.l, "b": self.b, "potential": self.potential},
            "fit": {"M": self.M, "N": self.N},
            "spectrum": {"count": self.count, "references": refs},
            "kernel": {
                "nx": self.nx,
                "nt": self.nt,
                "t_max_fraction": self.t_max_fraction,
            },
            "validate": {"perturb_beta": self.perturb_beta},
            "seed": self.seed,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise DomainError("config must be a JSON object")
        layout = cls().to_dict()   # sections map to dicts, top-level keys do not
        hints = get_type_hints(cls)
        flat: dict = {}
        for key, value in data.items():
            if key not in layout:
                raise DomainError(f"unknown config key {key!r}")
            if not isinstance(layout[key], dict):
                flat[key] = _check_type(key, value, hints[key])
                continue
            if not isinstance(value, dict):
                raise DomainError(f"config section {key!r} must be an object")
            extra = set(value) - set(layout[key])
            if extra:
                raise DomainError(
                    f"unknown keys in config section {key!r}: {sorted(extra)}"
                )
            for name, item in value.items():
                flat[name] = _check_type(f"{key}.{name}", item, hints[name])
        refs = flat.get("references")
        if refs is not None:
            try:
                flat["references"] = {int(k): float(v) for k, v in refs.items()}
            except (TypeError, ValueError):
                raise DomainError("spectrum.references must map integer indices "
                                  "to numbers") from None
        cfg = cls(**flat)
        cfg._check_ranges()
        return cfg

    def _check_ranges(self):
        if not (math.isfinite(self.b) and self.b > 0):
            raise DomainError(f"b must be finite and > 0, got {self.b}")
        if not (math.isfinite(self.l) and self.l >= -0.5):
            raise DomainError(f"l must be finite and >= -1/2, got {self.l}")
        if self.count < 0:
            raise DomainError(f"count must be >= 0, got {self.count}")
        if self.M is not None and self.M < 1:
            raise DomainError(f"M must be >= 1, got {self.M}")
        if self.N is not None and self.N < 0:
            raise DomainError(f"N must be >= 0, got {self.N}")
        if self.nx < 1 or self.nt < 2:
            raise DomainError("kernel grid needs nx >= 1 and nt >= 2")
        if not 0.0 < self.t_max_fraction <= 1.0:
            raise DomainError("t_max_fraction must lie in (0, 1]")
        if not math.isfinite(self.perturb_beta):
            raise DomainError(
                f"validate.perturb_beta must be finite, got {self.perturb_beta}"
            )
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


_JSON_TYPE = {int: "an integer", float: "a number", str: "a string",
              dict: "an object"}


def _check_type(where: str, value, hint):
    """The value, if it has its field's JSON type: int fields take no floats
    or booleans, float fields take integers too, only Optional fields null."""
    kinds = get_args(hint) or (hint,)   # Optional[int] -> (int, NoneType)
    if kinds[0] is float:
        kinds += (int,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        null = " or null" if type(None) in kinds else ""
        raise DomainError(f"config {where} must be {_JSON_TYPE[kinds[0]]}{null}, "
                          f"got {json.dumps(value)}")
    return value


def parse_potential(text: str) -> dict:
    """Potential descriptor grammar: zero | poly:c0,c1,... | table:PATH."""
    if text == "zero":
        return {"type": "polynomial", "coefficients": []}
    if text.startswith("poly:"):
        body = text[len("poly:"):]
        coeffs = []
        for i, token in enumerate(body.split(",")):
            try:
                coeffs.append(float(token))
            except ValueError:
                raise DomainError(
                    f"cannot parse potential {text!r}: bad coefficient "
                    f"{token!r} at position {i}"
                ) from None
        return {"type": "polynomial", "coefficients": coeffs}
    if text.startswith("table:"):
        return {"type": "table", "path": text[len("table:"):]}
    raise DomainError(
        f"unrecognized potential {text!r}; expected zero, poly:c0,c1,... "
        "or table:PATH"
    )


def _setup_from_config(cfg: RunConfig) -> ProblemSetup:
    q, _ = make_potential(parse_potential(cfg.potential), cfg.b)
    return ProblemSetup(l=cfg.l, b=cfg.b, q=q)


def _load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError(f"config {path}: invalid JSON ({exc})") from None
    return RunConfig.from_dict(data)


def _merge_args(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    overrides = {}
    for name in ("l", "b", "potential", "M", "N", "count",
                 "nx", "nt", "t_max_fraction", "perturb_beta", "seed", "out"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    cfg = replace(cfg, **overrides)
    cfg._check_ranges()
    return cfg


# ---------------------------------------------------------------------------
# output helpers


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _json_safe(obj):
    if isinstance(obj, np.generic):   # numpy scalars become Python ones
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_summary(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_safe)
        fh.write("\n")


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


# ---------------------------------------------------------------------------
# subcommands


def cmd_beta(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    setup = _setup_from_config(cfg)
    M = cfg.M if cfg.M is not None else default_fit_size(cfg.l)
    table = compute_beta(setup, cfg.b, M)
    out = _out_dir(cfg)

    csv_path = out / "beta.csv"
    _write_csv(csv_path, "k,beta",
               ([str(k), _fmt(v)] for k, v in enumerate(table.beta)))
    max_abs = float(np.max(np.abs(table.beta)))
    summary = {
        "command": "beta",
        "config": cfg.to_dict(),
        "version": __version__,
        "M": M,
        "freq_count_used": sample_count(M),
        "fit_residual": table.fit_residual,
        "sum_beta": table.sum_beta,
        "max_abs_beta": max_abs,
        "sum_over_max": abs(table.sum_beta) / max(max_abs, 1e-300),
        "tolerances": {"sum_over_max_smooth": 1e-7},
        "outputs": [str(csv_path)],
        "runtime_seconds": time.perf_counter() - t0,
    }
    _write_summary(out / "beta_summary.json", summary)
    print(f"wrote {csv_path} (M={M}, residual {table.fit_residual:.3e})")
    return 0


def _kernel_column(setup, cfg, M, x):
    """The series at one x (integer l, M None: the weighted fit of d_0..d_N;
    real l: a size-M beta table), the kernel table's rows there and
    |K_N(x, x) - G(x)|/|G(x)|, None at real l and where G(x) = 0."""
    goursat = goursat_diagonal(setup.q, x)
    if M is None:
        series = _fit_series(setup, _SERIES_N if cfg.N is None else cfg.N, x)
    else:
        table = compute_beta(setup, x, M)
        series = make_kernel_series(table, N=cfg.N, t_max_fraction=cfg.t_max_fraction,
                                    goursat_diag=goursat)
    ts = np.linspace(0.0, x, cfg.nt)
    inside = ts <= series.t_max_fraction * x * (1 + 1e-12)
    rows = [[_fmt(x), _fmt(t), _fmt(k), "ok"]
            for t, k in zip(ts[inside], kernel_K(series, ts[inside]))]
    rows += [[_fmt(x), _fmt(t), "", "near-diagonal"] for t in ts[~inside]]
    residual = None
    if series.mode == "integer-l" and goursat != 0.0:
        residual = abs(kernel_K(series, x) - goursat) / abs(goursat)
    return series, rows, residual


def cmd_kernel(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    if is_integer_l(cfg.l) and cfg.M is not None:
        raise DomainError(f"kernel takes no fit size M at integer l (got {cfg.M}); "
                          "its fit length is the series length, --N")
    M = None if is_integer_l(cfg.l) else cfg.M or default_fit_size(cfg.l)
    setup = _setup_from_config(cfg)
    out = _out_dir(cfg)
    xs = [cfg.b * i / cfg.nx for i in range(1, cfg.nx + 1)]
    columns = [_kernel_column(setup, cfg, M, x) for x in xs]

    csv_path = out / "kernel.csv"
    _write_csv(csv_path, "x,t,K,flag",
               (row for _, rows, _ in columns for row in rows))
    summary = {
        "command": "kernel",
        "config": cfg.to_dict(),
        "version": __version__,
        "mode": columns[-1][0].mode,
        "M": M,
        "grid": {"nx": cfg.nx, "nt": cfg.nt},
        # the cutoff each series used: 1 for integer l, whatever was asked
        "columns": [{"x": x, "N": series.N, "t_max_fraction": series.t_max_fraction,
                     "goursat_residual": residual}
                    for x, (series, _, residual) in zip(xs, columns)],
        "outputs": [str(csv_path)],
        "runtime_seconds": time.perf_counter() - t0,
    }
    _write_summary(out / "kernel_summary.json", summary)
    print(f"wrote {csv_path} ({cfg.nx} x-columns, mode {columns[-1][0].mode})")
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    if cfg.M is not None:
        raise DomainError(f"spectrum takes no fit size M (got {cfg.M}); its fit "
                          "length is the series length, --N")
    setup = _setup_from_config(cfg)
    out = _out_dir(cfg)
    csv_path = out / "spectrum.csv"

    references = cfg.references
    if references is None:
        references = HARMONIC_L1_EIGENVALUES if _is_builtin_problem(cfg) else {}

    if cfg.count == 0:
        _write_csv(csv_path, "n,omega,residual,reference,abs_error", [])
        _write_summary(out / "spectrum_summary.json", {
            "command": "spectrum",
            "config": cfg.to_dict(),
            "version": __version__,
            "count": 0,
            "outputs": [str(csv_path)],
            "runtime_seconds": time.perf_counter() - t0,
        })
        print(f"wrote {csv_path} (empty: count=0)")
        return 0

    report = dirichlet_eigenvalues(setup, cfg.count, N=cfg.N)
    rows, errors = [], []
    for i, (omega, residual) in enumerate(zip(report.eigenvalues, report.residuals), 1):
        ref, cols = references.get(i), ["", ""]
        if ref is not None:
            errors.append(abs(omega - ref))
            cols = [_fmt(ref), _fmt(errors[-1])]
        rows.append([str(i), _fmt(omega), _fmt(residual)] + cols)
    _write_csv(csv_path, "n,omega,residual,reference,abs_error", rows)

    worst = max(errors) if errors else None
    summary = {
        "command": "spectrum",
        "config": cfg.to_dict(),
        "version": __version__,
        "count": cfg.count,
        "N_used": report.N_used,
        "freq_count_used": sample_count(report.N_used),
        "worst_reference_error": worst,
        "tolerances": {"refine_xtol": 1e-12},
        "outputs": [str(csv_path)],
        "runtime_seconds": time.perf_counter() - t0,
    }
    _write_summary(out / "spectrum_summary.json", summary)
    print(f"wrote {csv_path} ({cfg.count} eigenvalues, N={report.N_used})")
    return 0


def _is_builtin_problem(cfg: RunConfig) -> bool:
    """True for l=1, b=pi, q(x)=x^2 -- the problem with stored references."""
    if abs(cfg.l - 1.0) > 1e-12 or abs(cfg.b - math.pi) > 1e-12:
        return False
    try:
        desc = parse_potential(cfg.potential)
    except DomainError:
        return False
    return desc.get("type") == "polynomial" and desc.get("coefficients") == [0.0, 0.0, 1.0]


def cmd_validate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    setup = _setup_from_config(cfg)
    out = _out_dir(cfg)
    results = run_validation(
        setup,
        seed=cfg.seed,
        beta_perturbation=cfg.perturb_beta,
        **({} if cfg.M is None else {"M": cfg.M}),
    )
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:26s} {r.value:.3e}  (tolerance {r.tolerance:.3e})")
    report = {
        "command": "validate",
        "config": cfg.to_dict(),
        "version": __version__,
        "checks": [asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
        "runtime_seconds": time.perf_counter() - t0,
    }
    path = out / "validate_report.json"
    _write_summary(path, report)
    print(f"wrote {path}")
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON configuration file (flags override it)")
    common.add_argument("--l", type=float, help="singular index l >= -1/2")
    common.add_argument("--b", type=float, help="right endpoint of (0, b]")
    common.add_argument("--potential", metavar="SPEC",
                        help="zero | poly:c0,c1,... | table:PATH")
    common.add_argument("--out", metavar="DIR", help="output directory")
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--M", type=int, help="coefficient fit size")
    series = argparse.ArgumentParser(add_help=False)
    series.add_argument("--N", type=int, help="series length (default 20; kernel at "
                                              "real l: a truncation override)")

    parser = argparse.ArgumentParser(
        prog="transmute",
        description="Transmutation kernels, uniform-accuracy solutions and "
                    "Dirichlet spectra of perturbed Bessel equations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("beta", parents=[common, fit],
                   help="fit the coefficient table at x = b")

    p_kernel = sub.add_parser("kernel", parents=[common, fit, series],
                              help="tabulate the integral kernel on a grid")
    p_kernel.add_argument("--nx", type=int, help="number of x columns")
    p_kernel.add_argument("--nt", type=int, help="t samples per column")
    p_kernel.add_argument("--t-max-fraction", dest="t_max_fraction", type=float,
                          help="near-diagonal cutoff for non-integer l")

    p_spec = sub.add_parser("spectrum", parents=[common, series],
                            help="solve the Dirichlet eigenvalue problem")
    p_spec.add_argument("--count", type=int, help="number of eigenvalues")

    p_val = sub.add_parser("validate", parents=[common, fit],
                           help="run the invariant suite")
    p_val.add_argument("--seed", type=int, help="seed for randomized checks")
    p_val.add_argument("--perturb-beta", dest="perturb_beta", type=float,
                       help="fault injection: corrupt one coefficient by this "
                            "fraction of max|beta|")
    return parser


_COMMANDS = {
    "beta": cmd_beta,
    "kernel": cmd_kernel,
    "spectrum": cmd_spectrum,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_args(_load_config(args.config), args)
        return _COMMANDS[args.command](cfg)
    except (TransmuteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
