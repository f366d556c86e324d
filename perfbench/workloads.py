"""The three benchmark workloads: inputs from a seed, one pass, output checks.

Every workload uses b = pi and is a closed loop with one client in one
process: a pass starts only when the previous pass has ended, and no thread
pool is used.  Every pass rebuilds its ProblemSetup and refits; no fitted
table is reused across passes.

Why these three:

* ``spectrum-harmonic`` -- the paper's headline use, the fit at M=25 and
  200 eigenvalues through the CLI.  Dominated by the series path (``u_N``).
* ``kernel-halfint`` -- non-integer l.  Dominated by long oracle solves at
  high omega inside the fit; makes no ``u_N`` call.
* ``verify-const`` -- q == 20, whose spectrum sqrt(n^2 + 20) is exact.  Many
  short, low-omega oracle solves, a root scan over an oracle-based F, and a
  fit over data spanning many decades.

Passes record checked operations in a Tally.  A failed check is counted,
never raised and never dropped.
"""
from __future__ import annotations

import contextlib
import io
import math
import shutil
import warnings
from pathlib import Path

import numpy as np

from transmute import cli, coeffs, kernel, oracle, spectral, validation
from transmute.errors import MissedRootWarning, TransmuteError

B = math.pi
REF_SHIFT = 1e-3        # fault injection: every reference moves by this much
BETA_PERTURBATION = 1e-3  # fault injection: run_validation(beta_perturbation=)

EIGEN_TOL = 1e-6        # eigenvalue against a reference value
SHOOTING_TOL = 1e-10    # oracle_eigenvalues ordinal against the exact value
TRANSMUTATION_TOL = 1e-3  # the validation suite's real-l tolerance


class Tally:
    """Checked operations of a run.

    ``wrong`` counts value checks whose output missed its reference; the
    other failures are status checks (a non-zero exit, a warning, an
    exception).  ``max_err`` is the worst finite error of a value check
    against an external reference; validation checks count as operations
    only, since each compares the program with itself under its own
    tolerance.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.max_err = 0.0
        self.missed_root_warnings = 0
        self.failures: dict[str, int] = {}

    def _fail(self, what):
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1

    def status(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self._fail(what)

    def value(self, err: float, tol: float, what: str, *, reference=True):
        self.attempted += 1
        err = float(err)
        if reference and math.isfinite(err):
            self.max_err = max(self.max_err, err)
        if not err <= tol:
            self.wrong += 1
            self._fail(what)

    def missed_roots(self, caught):
        """One status check per call: did it warn MissedRootWarning?"""
        missed = sum(issubclass(w.category, MissedRootWarning) for w in caught)
        self.missed_root_warnings += missed
        self.status(missed == 0, "MissedRootWarning")

    def missing(self, count: int, what: str):
        """Value checks that could not run because the call producing
        their output failed."""
        for _ in range(count):
            self.value(math.inf, 0.0, what, reference=False)


def _q_poly(coefficients):
    q, _ = oracle.make_potential(
        {"type": "polynomial", "coefficients": list(coefficients)}, B)
    return q


# ---------------------------------------------------------------------------
# spectrum-harmonic


class SpectrumHarmonic:
    name = "spectrum-harmonic"

    def __init__(self, seed: int, quick: bool):
        # nothing is random here: the CLI call is the paper's fixed use case
        self.count = 20 if quick else 200
        self.argv = ["spectrum", "--l", "1", "--potential", "poly:0,0,1",
                     "--count", str(self.count)]
        self.references = {n: v for n, v in spectral.HARMONIC_L1_EIGENVALUES.items()
                           if n <= self.count}
        self.first_csv = None

    def inputs(self) -> dict:
        return {"argv": self.argv}

    def prepare(self, inject):
        shift = REF_SHIFT if inject == "ref-shift" else 0.0
        self.expected = {n: v + shift for n, v in self.references.items()}

    def run_pass(self, tally: Tally, workdir: Path, inject):
        out = workdir / "spectrum"
        shutil.rmtree(out, ignore_errors=True)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = cli.main(self.argv + ["--out", str(out)])
        tally.status(rc == 0, "cli exit code")
        tally.missed_roots(caught)

        path = out / "spectrum.csv"
        if not path.exists():
            tally.missing(len(self.expected), "spectrum.csv missing")
            return
        data = path.read_bytes()
        if self.first_csv is None:
            self.first_csv = data
        else:
            tally.value(0.0 if data == self.first_csv else 1.0, 0.0,
                        "spectrum.csv differs between passes", reference=False)
        rows = {}
        for line in data.decode().splitlines()[1:]:
            n, omega, _residual, _ref, abs_error = line.split(",")
            rows[int(n)] = (float(omega), float(abs_error) if abs_error else math.nan)
        for n, want in self.expected.items():
            if n not in rows:
                tally.missing(1, "eigenvalue row missing")
                continue
            omega, abs_error = rows[n]
            tally.value(abs(omega - want), EIGEN_TOL,
                        "eigenvalue vs HARMONIC_L1_EIGENVALUES")
            # %.17g round-trips, so the column equals |omega - ref| exactly
            tally.value(abs(abs_error - abs(omega - self.references[n])), 0.0,
                        "abs_error column vs |omega - reference|", reference=False)


# ---------------------------------------------------------------------------
# kernel-halfint


class KernelHalfint:
    """l = 0.5, q = x^2, M = 60, columns x in {b/2, b}, as cli._kernel_column.

    Columns below b/2 are left out: there the fit samples omega > 250, past
    the oracle's documented accuracy contract.

    The transmutation check compares apply_transmutation with the oracle at
    x and divides the difference by max_t |y(omega, t)| on [0, x], the scale
    of the operator's own error bound |(T - T_N) y| <= ||K - K_N||_1 sup|y|.
    The suite's divisor, the envelope of u at the single point x, nearly
    vanishes near omega = 2 on x = pi and there inflates the ratio nearly
    tenfold with no change in the absolute error.  Twelve frequencies per
    column keep the worst error from depending on where the seeded draws
    fall.
    """

    name = "kernel-halfint"
    l = 0.5

    def __init__(self, seed: int, quick: bool):
        rng = np.random.default_rng(seed)
        self.M = 30 if quick else spectral.default_fit_size(self.l)
        self.columns = [B] if quick else [B / 2, B]
        self.nt = 33
        self.t_max_fraction = 0.95
        self.omegas = [float(w) for w in np.sort(rng.uniform(1.0, 10.0, 12))]

    def inputs(self) -> dict:
        return {"M": self.M, "columns": self.columns, "nt": self.nt,
                "check_omegas": self.omegas}

    def prepare(self, inject):
        """Oracle references, computed once, outside the timed passes."""
        setup = oracle.ProblemSetup(l=self.l, b=B, q=_q_poly([0, 0, 1]))
        shift = REF_SHIFT if inject == "ref-shift" else 0.0
        self.expected = {}
        for x in self.columns:
            tt = np.linspace(0.0, x, 4001)
            for om in self.omegas:
                u = oracle.regular_solution_ode(setup, om, [x]).u_values[0]
                scale = float(np.max(np.abs(coeffs.unperturbed_term(self.l, om, tt))))
                self.expected[x, om] = (float(u) + shift, scale)

    def run_pass(self, tally: Tally, workdir: Path, inject):
        setup = oracle.ProblemSetup(l=self.l, b=B, q=_q_poly([0, 0, 1]))
        for x in self.columns:
            try:
                table = coeffs.compute_beta(setup, x, self.M)
                series = kernel.make_kernel_series(
                    table, t_max_fraction=self.t_max_fraction,
                    goursat_diag=x ** 3 / 6.0,   # (1/2) int_0^x t^2 dt
                )
                values = [kernel.kernel_K(series, float(t))
                          for t in np.linspace(0.0, x, self.nt)
                          if t <= self.t_max_fraction * x * (1 + 1e-12)]
            except TransmuteError:
                tally.status(False, "TransmuteError in kernel column")
                tally.missing(len(self.omegas), "transmutation check not run")
                continue
            tally.status(all(math.isfinite(v) for v in values),
                         "non-finite kernel value")
            for om in self.omegas:
                want, scale = self.expected[x, om]
                try:
                    got = kernel.apply_transmutation(
                        series, lambda t, om=om: coeffs.unperturbed_term(self.l, om, t),
                        x, omega_hint=om)
                except TransmuteError:
                    tally.missing(1, "TransmuteError in apply_transmutation")
                    continue
                tally.value(abs(got - want) / scale, TRANSMUTATION_TOL,
                            "transmutation check")


# ---------------------------------------------------------------------------
# verify-const


class VerifyConst:
    """l = 0, q == 20: omega_n = sqrt(n^2 + 20) exactly.

    When this workload was defined, the fit left a series error near 1.2e-7
    and the spacing monitor raised a false MissedRootWarning on every call.
    Both are reported, not filtered.
    """

    name = "verify-const"
    Q = 20.0

    def __init__(self, seed: int, quick: bool):
        rng = np.random.default_rng(seed)
        self.count = 12 if quick else 60
        # oracle_eigenvalues scans up to `count` whichever ordinals are
        # asked for, so only the number of polished roots enters the cost
        k = 2 if quick else 4
        self.ordinals = sorted(int(n) for n in
                               rng.choice(np.arange(1, self.count + 1), k, replace=False))
        self.validation_seed = int(rng.integers(0, 2 ** 31 - 1))

    def inputs(self) -> dict:
        return {"count": self.count, "ordinals": self.ordinals,
                "validation_seed": self.validation_seed}

    def prepare(self, inject):
        shift = REF_SHIFT if inject == "ref-shift" else 0.0
        self.exact = {n: math.sqrt(n * n + self.Q) + shift
                      for n in range(1, self.count + 1)}

    def run_pass(self, tally: Tally, workdir: Path, inject):
        setup = oracle.ProblemSetup(l=0.0, b=B, q=_q_poly([self.Q]))

        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = spectral.dirichlet_eigenvalues(setup, self.count)
        except TransmuteError:
            tally.status(False, "TransmuteError in dirichlet_eigenvalues")
            tally.missing(self.count, "eigenvalue not computed")
        else:
            tally.missed_roots(caught)
            for n, omega in enumerate(report.eigenvalues, start=1):
                tally.value(abs(omega - self.exact[n]), EIGEN_TOL,
                            "eigenvalue vs sqrt(n^2+20)")

        try:
            shot = spectral.oracle_eigenvalues(setup, self.count, which=self.ordinals)
        except TransmuteError:
            tally.status(False, "TransmuteError in oracle_eigenvalues")
            tally.missing(len(self.ordinals), "ordinal not computed")
        else:
            for n in self.ordinals:
                tally.value(abs(shot[n] - self.exact[n]), SHOOTING_TOL,
                            "shooting ordinal vs sqrt(n^2+20)")

        perturbation = BETA_PERTURBATION if inject == "perturb-beta" else 0.0
        try:
            results = validation.run_validation(
                setup, seed=self.validation_seed, beta_perturbation=perturbation)
        except TransmuteError:
            tally.status(False, "TransmuteError in run_validation")
            return
        for r in results:
            tally.value(0.0 if r.passed else 1.0, 0.0,
                        f"validation check {r.name}", reference=False)


WORKLOADS = {w.name: w for w in (SpectrumHarmonic, KernelHalfint, VerifyConst)}
