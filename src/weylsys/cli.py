"""Command line front end.

Subcommands: ``compute`` (run a pipeline and write CSV reports),
``verify`` (run pipelines and compare against tolerances; nonzero exit on
failure), ``gn-check`` (kernel moment table: closed forms vs quadrature)
and ``models`` (list the catalog).

Configuration is line-oriented ``key = value`` with dotted section prefixes
(grammar in the README); command line flags override file values.  A flag's
``dest`` is the key it sets, and the model flags, one per catalog parameter
(:data:`MODEL_PARAMETERS`), are generated with their defaults in the help.
Output files are written atomically (write-then-rename) with a comment line
carrying the configuration hash, so identical configurations produce
byte-identical files.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
failure, 3 tolerance failure in verification mode.  A flag the command
does not read (``--pipeline`` or ``-k`` on ``verify``, a model flag on
``gn-check``) is a usage error.  ``python -m weylsys.cli`` and the
``weylsys`` script both start in :func:`entry`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

try:  # hashlib loads OpenSSL's libcrypto, 3.6 MB of peak RSS for one digest
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .errors import ConfigError, UnknownModel, WeylError
from .kernels import (
    check_recovery_angles,
    expansion_b_coefficients,
    kernel_moment_closed,
    kernel_moment_numeric,
)
from .models import (
    DEFAULT_BUDGET,
    MODEL_PARAMETERS,
    TRUSTED_FRACTION,
    TorusModel,
    build_model,
    catalog_names,
    check_model,
)

# The names this module calls from each route module, bound into its globals
# by :func:`_bind` when a command first needs them, so a process imports only
# the routes its command runs.  A name set before (the benchmark's tracer, a
# test's monkeypatch) is kept, and :func:`__getattr__` serves the names to a
# caller that reads them first.  Once no caller patches names here, these can
# become imports inside the functions that call them.
_ROUTES = {
    "coefficients": ("CosphereQuadrature", "weyl_coefficients"),
    "resolvent": ("b_profile", "recover_second_weyl"),
    "torus": ("assemble_and_solve", "build_mollifier", "check_fit_window", "fit_weyl",
              "local_counting_mollified"),
}


def _bind(*modules) -> None:
    for module in modules:
        home = importlib.import_module(f"{__package__}.{module}")
        for name in _ROUTES[module]:
            globals().setdefault(name, getattr(home, name))


def __getattr__(name):
    for module, names in _ROUTES.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

PIPELINES = ("direct", "resolvent", "spectral", "all")

# Caps on the settings that size allocations: the spectral grid holds
# (window width / fit.grid_step) points (420 at K = 40 with the defaults)
# and a cosphere panel holds one eigen-jet per node.
MAX_GRID_POINTS = 10_000
MAX_ANGLES = 65_536


@dataclass
class RunConfig:
    """Validated run configuration with documented defaults."""

    model: str = "dirac"
    model_params: dict = field(default_factory=dict)
    pipeline: str = "direct"
    n_angles: int = 256
    angles: tuple = (math.pi / 4, 3 * math.pi / 4)
    limit_angles: tuple = (0.2, 0.1, 0.05)
    truncation: int = 24
    budget: int = DEFAULT_BUDGET
    mollifier_support: float = 3.0
    mu_lo: float = 3.0
    mu_hi: float = 0.0  # 0 means 0.6 * K
    grid_step: float = 0.05
    x_points: tuple = ((0.0, 0.0), (math.pi / 4, 0.0))
    out_dir: str = "."
    cross_rel_tol: float = 1e-4
    b1_rel_tol: float = 1e-6
    gn_orders: tuple = (2, 3, 4, 5)
    gn_angles: tuple = (
        math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6,
    )

    def fit_window(self) -> tuple[float, float]:
        """(mu_lo, mu_hi): mu_hi is fit.mu_hi, or 0.6 K when 0.

        Validation refuses a fit.mu_hi more than 1e-9 above 0.6 K; one within
        that, such as 10.8 at K = 18 (0.6 * 18 = 10.799999999999999), reads as
        0.6 K, so no grid point passes the trusted edge.
        """
        trusted = TRUSTED_FRACTION * self.truncation
        return self.mu_lo, min(self.mu_hi or trusted, trusted)

    def fit_grid(self) -> np.ndarray:
        """The spectral samples' mu grid: fit.grid_step apart across the fit window."""
        mu_lo, mu_hi = self.fit_window()
        mu = np.arange(mu_lo, mu_hi + self.grid_step / 2, self.grid_step)
        return mu[mu <= mu_hi]  # the last step may pass the window's edge

    def canonical_text(self) -> str:
        """Every setting that shapes the results, model parameters by name;
        the output directory does not."""
        settings = {**vars(self), "model_params": dict(sorted(self.model_params.items()))}
        return "\n".join(f"{key}={settings[key]!r}" for key in sorted(settings)
                         if key != "out_dir")

    def digest(self) -> str:
        """First 16 hex digits of the SHA-256 of :meth:`canonical_text`."""
        return sha256(self.canonical_text().encode()).hexdigest()[:16]


def _parse_list(kind):
    """The parser of a comma-separated list of ``kind`` values: empty pieces
    are skipped, and a list with none left is an error."""
    def parse(text: str) -> tuple:
        values = tuple(kind(piece) for piece in text.split(",") if piece.strip())
        if not values:
            raise ValueError("empty list")
        return values
    return parse


def _parse_points(text: str) -> tuple:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip().strip("()")
        if not chunk:
            continue
        coords = [float(c) for c in chunk.split(",")]
        if len(coords) != 2 or not all(map(math.isfinite, coords)):
            raise ConfigError(f"point {chunk!r} must have two finite coordinates")
        pts.append(tuple(coords))
    if not pts:
        raise ConfigError("empty point list")
    return tuple(pts)


def parse_config_lines(lines) -> dict:
    """Parse the line-oriented ``key = value`` grammar into a flat dict."""
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def _parse_pipeline(text: str) -> str:
    if text not in PIPELINES:
        raise ConfigError(
            f"pipeline must be one of {', '.join(PIPELINES)}, got {text!r}"
        )
    return text


def _parse_float(text: str) -> float:
    # NaN compares false with everything, so a NaN tolerance would pass every
    # check; a NaN or infinite model parameter registers a meaningless model
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# key -> (RunConfig field, parser); a model parameter's value goes to
# RunConfig.model_params under its own name
_SETTINGS = {
    "model.name": ("model", str),
    **{f"model.{param}": ("model_params", _parse_float)
       for defaults in MODEL_PARAMETERS.values() for param in defaults},
    "pipeline": ("pipeline", _parse_pipeline),
    "quadrature.n_angles": ("n_angles", int),
    "angles": ("angles", _parse_list(float)),
    "limit_angles": ("limit_angles", _parse_list(float)),
    "truncation.k": ("truncation", int),
    "truncation.budget": ("budget", int),
    "mollifier.support": ("mollifier_support", _parse_float),
    "fit.mu_lo": ("mu_lo", _parse_float),
    "fit.mu_hi": ("mu_hi", _parse_float),
    "fit.grid_step": ("grid_step", _parse_float),
    "x_points": ("x_points", _parse_points),
    "out": ("out_dir", str),
    "tolerance.cross_rel": ("cross_rel_tol", _parse_float),
    "tolerance.b1_rel": ("b1_rel_tol", _parse_float),
    "gn.orders": ("gn_orders", _parse_list(int)),
    "gn.angles": ("gn_angles", _parse_list(float)),
}


def apply_settings(cfg: RunConfig, settings: dict, command: str = "") -> RunConfig:
    """Apply flat dotted-key settings onto a config and validate it for ``command``."""
    for key, value in settings.items():
        if key not in _SETTINGS:
            if key.startswith("model."):
                raise ConfigError(f"unknown model parameter {key.split('.', 1)[1]!r}")
            raise ConfigError(f"unknown configuration key {key!r}")
        name, parse = _SETTINGS[key]
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        if name == "model_params":
            cfg.model_params[key.split(".", 1)[1]] = parsed
        else:
            setattr(cfg, name, parsed)
    _validate(cfg, command)
    return cfg


def _validate(cfg: RunConfig, command: str = "") -> None:
    try:
        check_model(cfg.model, cfg.model_params)
    except UnknownModel as exc:
        raise ConfigError(str(exc)) from exc
    for phi in (*cfg.angles, *cfg.limit_angles, *cfg.gn_angles):
        if not 0.0 < phi < math.pi:
            raise ConfigError(f"angle {phi} outside (0, pi)")
    for key, angles, method in (("angles", cfg.angles[:2], "two-angle"),
                                ("limit_angles", cfg.limit_angles, "limit")):
        try:
            check_recovery_angles(angles, method)
        except (WeylError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if min(cfg.gn_orders) < 1:
        raise ConfigError("gn.orders entries must be >= 1")
    if cfg.n_angles < 16 or cfg.n_angles % 2 or cfg.n_angles > MAX_ANGLES:
        raise ConfigError(f"quadrature.n_angles must be even and in [16, {MAX_ANGLES}]")
    if cfg.truncation < 8:
        raise ConfigError("truncation.k must be >= 8")
    if cfg.budget < 1:
        raise ConfigError("truncation.budget must be positive")
    if cfg.grid_step <= 0:
        raise ConfigError("fit.grid_step must be positive")
    if cfg.mu_hi < 0:
        raise ConfigError("fit.mu_hi must be positive, or 0 for 0.6 * truncation.k")
    trusted = TRUSTED_FRACTION * cfg.truncation
    if cfg.mu_hi > trusted + 1e-9:  # the slack of fit_weyl's own edge check
        raise ConfigError(
            f"fit.mu_hi {cfg.mu_hi:g} lies above the trusted spectral edge "
            f"0.6 * truncation.k = {trusted:g}"
        )
    # a tolerance at or below 0 fails every check, whatever the deviation
    for key, tol in (("tolerance.cross_rel", cfg.cross_rel_tol),
                     ("tolerance.b1_rel", cfg.b1_rel_tol)):
        if tol <= 0:
            raise ConfigError(f"{key} must be positive")
    mu_lo, mu_hi = cfg.fit_window()
    if mu_lo >= mu_hi:
        raise ConfigError(
            f"empty fit window: fit.mu_lo {mu_lo:g} is not below the upper edge "
            f"{mu_hi:g} (fit.mu_hi, at most 0.6 * truncation.k)"
        )
    if (mu_hi - mu_lo) / cfg.grid_step > MAX_GRID_POINTS:
        raise ConfigError(
            f"fit.grid_step {cfg.grid_step:g} gives more than {MAX_GRID_POINTS} "
            f"grid points on [{mu_lo:g}, {mu_hi:g}]"
        )
    if not 0.0 < cfg.mollifier_support < 2 * math.pi:
        raise ConfigError("mollifier.support must lie in (0, 2 pi)")
    if command == "compute" and cfg.pipeline in ("spectral", "all"):
        _bind("torus")
        try:  # the fit's own window rules depend on the configuration alone
            check_fit_window(cfg.fit_grid(), mu_lo, mu_hi, cfg.mollifier_support)
        except WeylError as exc:
            raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    value = float(value) + 0.0  # normalise -0.0
    return format(value, ".17g")


def _point(x) -> str:
    """A point for the console: four decimals, or four significant digits
    in exponent form from 1e6 on, so a huge coordinate keeps the line short."""
    return "(" + ",".join(f"{c:.4f}" if abs(c) < 1e6 else f"{c:.4e}" for c in x) + ")"


def write_csv(path: str, header: list, rows: list, cfg: RunConfig) -> None:
    """RFC-4180 style CSV with a leading comment line, written atomically
    into an existing directory (:func:`main` makes the output directory)."""
    lines = [f"# config_sha256={cfg.digest()} tool_version={__version__}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    body = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-csv-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_direct(cfg: RunConfig, model: TorusModel, coefficients=None) -> list:
    """Direct pipeline; returns summary lines, writes weyl_coefficients.csv.

    ``coefficients`` holds one :class:`WeylCoefficients` per x point when
    the recovery pipeline has already built the panels; without it every
    x point gets its own panel here.
    """
    if coefficients is None:
        _bind("coefficients")
        lead, sub = model.symbol_fields()
        quad = CosphereQuadrature(n_angles=cfg.n_angles)
        coefficients = [
            weyl_coefficients(lead, sub, np.asarray(pt, dtype=float), quad)
            for pt in cfg.x_points
        ]
    rows = []
    summary = []
    for pt, coeffs in zip(cfg.x_points, coefficients):
        x = np.asarray(pt, dtype=float)
        for sheet, terms in sorted(coeffs.breakdown.items()):
            rows.append(
                [
                    x[0], x[1], sheet,
                    coeffs.a_first_plus, coeffs.a_second_plus,
                    terms.term_sub, terms.term_bracket, terms.term_curvature,
                ]
            )
        summary.append(
            f"direct: x={_point(x)} "
            f"a1+={coeffs.a_first_plus:.8f} a0+={coeffs.a_second_plus:+.8f}"
        )
    write_csv(
        os.path.join(cfg.out_dir, "weyl_coefficients.csv"),
        ["x1", "x2", "sheet", "a1_plus", "a0_plus",
         "term_sub", "term_bracket", "term_curv"],
        rows,
        cfg,
    )
    return summary


def run_resolvent(cfg: RunConfig, model: TorusModel) -> tuple:
    """Recovery pipeline; writes resolvent_recovery.csv.

    Returns (summary lines, per-point (direct coefficients from the same
    panel, two-angle value, limit value), max b1 deviation).
    """
    _bind("coefficients", "resolvent")
    lead, sub = model.symbol_fields()
    quad = CosphereQuadrature(n_angles=cfg.n_angles)
    rows = []
    summary = []
    comparisons = []
    max_b1_dev = 0.0
    for pt in cfg.x_points:
        x = np.asarray(pt, dtype=float)
        # one panel per point: the b profile and the direct coefficients
        prof = b_profile(lead, sub, x, quad)
        two = {phi: prof.b0(phi) for phi in cfg.angles[:2]}
        rec_two = recover_second_weyl(two, "two-angle")
        lim = {phi: prof.b0(phi) for phi in cfg.limit_angles}
        rec_lim = recover_second_weyl(lim, "limit")
        coeffs = prof.coefficients
        for phi in cfg.angles:
            b1_closed, _ = expansion_b_coefficients(
                coeffs.a_first_plus, coeffs.a_first_minus,
                coeffs.a_second_plus, coeffs.a_second_minus, 2, phi,
            )
            b1_val = prof.b1(phi)
            # np.maximum keeps a NaN deviation, which max() may drop
            max_b1_dev = np.maximum(
                max_b1_dev, abs(b1_val - b1_closed) / max(abs(b1_closed), 1e-12)
            )
            rows.append([x[0], x[1], phi, b1_val, prof.b0(phi), rec_two, rec_lim])
        comparisons.append((coeffs, rec_two, rec_lim))
        summary.append(
            f"resolvent: x={_point(x)} "
            f"a0+(two-angle)={rec_two:+.8f} a0+(limit)={rec_lim:+.8f} "
            f"a0+(direct)={coeffs.a_second_plus:+.8f}"
        )
    write_csv(
        os.path.join(cfg.out_dir, "resolvent_recovery.csv"),
        ["x1", "x2", "phi", "b1", "b0",
         "a0_recovered_two_angle", "a0_recovered_limit"],
        rows,
        cfg,
    )
    return summary, comparisons, max_b1_dev


def run_spectral(cfg: RunConfig, model: TorusModel) -> list:
    """Ground-truth pipeline; returns summary lines, writes spectral_fit.csv."""
    _bind("torus")
    moll = build_mollifier(cfg.mollifier_support)
    spectrum = assemble_and_solve(model, cfg.truncation, cfg.x_points, cfg.budget)
    mu_lo, mu_hi = cfg.fit_window()
    mu = cfg.fit_grid()
    rows = []
    summary = []
    for i, x in enumerate(spectrum.x_points):
        samples = local_counting_mollified(spectrum, moll, i, mu, "plus")
        fit = fit_weyl(samples, 2, (mu_lo, mu_hi), mollifier=moll)
        rows.append([x[0], x[1], cfg.truncation, fit.a_leading, fit.a_second,
                     fit.residual_rms])
        summary.append(
            f"spectral: x={_point(x)} K={cfg.truncation} "
            f"a1_fit={fit.a_leading:.8f} a0_fit={fit.a_second:+.8f} "
            f"rms={fit.residual_rms:.2e}"
        )
    write_csv(
        os.path.join(cfg.out_dir, "spectral_fit.csv"),
        ["x1", "x2", "K", "a1_fit", "a0_fit", "residual"],
        rows,
        cfg,
    )
    return summary


def run_gn_check(cfg: RunConfig) -> list:
    """Kernel moment table; returns its summary line, writes gn_check.csv."""
    rows = []
    max_err = 0.0
    for n in cfg.gn_orders:
        for phi in cfg.gn_angles:
            z = complex(math.cos(phi), math.sin(phi))
            for power in (n, n - 1):
                closed = kernel_moment_closed(n, z, power)
                numeric = kernel_moment_numeric(n, z, power)
                err = abs(closed - numeric)
                max_err = max(max_err, err / max(abs(closed), 1e-12))
                rows.append([n, phi, closed, numeric, err])
    write_csv(
        os.path.join(cfg.out_dir, "gn_check.csv"),
        ["n", "phi", "closed", "numeric", "abs_err"],
        rows,
        cfg,
    )
    return [f"gn-check: {len(rows)} cases, max rel err {max_err:.2e}"]


class ToleranceFailure(Exception):
    """Verification comparisons exceeded configured tolerances."""


def run_verify(cfg: RunConfig, model: TorusModel) -> list:
    """Cross-pipeline verification at configured tolerances (NaN fails)."""
    summary, comparisons, max_b1_dev = run_resolvent(cfg, model)
    failures = []
    for coeffs, rec_two, rec_lim in comparisons:
        direct, x = coeffs.a_second_plus, coeffs.x
        scale = max(abs(direct), 1e-12)
        for method, recovered in (("two_angle", rec_two), ("limit", rec_lim)):
            rel = abs(recovered - direct) / scale
            if not rel <= cfg.cross_rel_tol:
                failures.append(
                    f"x={_point(x)} {method} "
                    f"rel dev {rel:.2e} > {cfg.cross_rel_tol:.1e}"
                )
    if not max_b1_dev <= cfg.b1_rel_tol:
        failures.append(f"b1 rel dev {max_b1_dev:.2e} > {cfg.b1_rel_tol:.1e}")
    summary.append(
        f"verify: b1 max rel dev {max_b1_dev:.2e}; "
        f"{len(comparisons) * 2} recovery comparisons"
    )
    if failures:
        raise ToleranceFailure("; ".join(failures))
    summary.append("verify: PASS")
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylsys",
        description="Two-term local spectral asymptotics for first-order systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="run a pipeline and write CSV reports")
    verify = sub.add_parser(
        "verify", help="run cross-pipeline checks; exit 3 on tolerance failure")
    gn_check = sub.add_parser(
        "gn-check", help="kernel moment table: closed forms vs quadrature")
    # each command takes only the flags it reads: verify reads no pipeline or
    # truncation and gn-check no model, so such a flag is a usage error there
    for p in (compute, verify, gn_check):
        p.add_argument("--config", help="path to a key = value configuration file")
        p.add_argument("--out", help="output directory for CSV reports")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override any configuration key",
        )
    for p in (compute, verify):
        p.add_argument("--model", dest="model.name", help="catalog model name")
        for name, defaults in MODEL_PARAMETERS.items():
            for param, default in defaults.items():
                p.add_argument(f"--{param}", dest=f"model.{param}", type=float,
                               help=f"{name} parameter (default {default})")
    compute.add_argument("--pipeline", choices=PIPELINES)
    compute.add_argument("-k", "--truncation", dest="truncation.k", type=int,
                         help="Fourier truncation")
    sub.add_parser("models", help="list the model catalog")
    return parser


def config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    settings: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                settings.update(parse_config_lines(handle))
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    for key, value in vars(args).items():
        if key in _SETTINGS and value is not None:
            settings[key] = str(value)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        settings[key.strip()] = value.strip()
    return apply_settings(cfg, settings, args.command)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after -h
        return 1 if exc.code else 0
    if args.command == "models":
        for name in catalog_names():
            print(name)
        return 0
    try:
        cfg = config_from_args(args)
        try:  # before any pipeline runs, so an unusable directory wastes no run
            os.makedirs(os.path.abspath(cfg.out_dir), exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "gn-check":
            summary = run_gn_check(cfg)
        else:
            # one registration per invocation, shared by every pipeline it runs
            model = build_model(cfg.model, cfg.model_params)
        if args.command == "verify":
            summary = run_verify(cfg, model)
        elif args.command == "compute":
            pipeline = cfg.pipeline
            summary, recovery_lines, shared = [], [], None
            if pipeline in ("resolvent", "all"):
                recovery_lines, comparisons, _ = run_resolvent(cfg, model)
                # "all" reads the direct coefficients off the same panels
                shared = [coeffs for coeffs, _, _ in comparisons]
            if pipeline in ("direct", "all"):
                summary.extend(run_direct(cfg, model, shared))
            summary.extend(recovery_lines)
            if pipeline in ("spectral", "all"):
                summary.extend(run_spectral(cfg, model))
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except WeylError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    header = f"weylsys {__version__} | "
    if args.command != "gn-check":  # gn-check reads no model
        header += f"model={cfg.model} {dict(sorted(cfg.model_params.items()))} | "
    print(f"{header}config {cfg.digest()}")
    for line in summary:
        print(line)
    return 0


def entry() -> int:
    """Process entry of ``python -m weylsys.cli`` and the ``weylsys`` script.

    Freezes the heap of the start-up imports (a command's routes load later,
    at no measured exit cost), so the interpreter's collections, teardown
    included, no longer traverse it, and runs :func:`main`.  ``main`` itself
    never freezes: in-process callers keep normal collection.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
