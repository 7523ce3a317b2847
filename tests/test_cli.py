"""Command line front end: config grammar, exit codes, CSV contracts."""

import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from weylsys import __version__
from weylsys.cli import (
    _SETTINGS,
    RunConfig,
    apply_settings,
    build_parser,
    entry,
    main,
    parse_config_lines,
)
from weylsys.models import MODEL_PARAMETERS
from weylsys.errors import ConfigError
from weylsys.kernels import expansion_b_coefficients


def run_cli(args):
    return main(args)


def test_parse_config_lines():
    lines = [
        "# comment",
        "",
        "model.name = twisted",
        "model.eps = 0.15   # inline comment",
        "angles = 0.5, 1.5",
    ]
    settings = parse_config_lines(lines)
    assert settings == {
        "model.name": "twisted",
        "model.eps": "0.15",
        "angles": "0.5, 1.5",
    }


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config_lines(["just some words"])


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"nonsense.key": "1"})


def test_unknown_model_rejected():
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"model.name": "nosuch"})


def test_angle_range_validated():
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"angles": "0.0, 1.0"})


@pytest.mark.parametrize(
    "setting",
    [
        "quadrature.n_angles=abc",
        "truncation.k=abc",
        "truncation.budget=0",
        "truncation.budget=-3",
        "model.eps=abc",
        "fit.mu_lo=x",
        "gn.orders=x",
        "gn.orders=0",
        "angles=0.5",
        "angles=0.5,0.5",
        "angles=0.5,0.5000001",
        "limit_angles=0.1",
        "limit_angles=0.2,0.2000001",
        "fit.grid_step=nan",
        "fit.grid_step=2",  # 4 grid points in the K = 24 window [3, 14.4]
        "tolerance.cross_rel=nan",
        "model.eps=inf",
        "x_points=(inf,0)",
        "fit.mu_lo=100",
        "fit.mu_hi=2",
        "fit.mu_hi=-5",  # only 0 stands for the automatic edge 0.6 K
        "fit.mu_hi=30",  # above the trusted edge 0.6 K = 14.4
        "fit.grid_step=1e-9",
        "quadrature.n_angles=1000000000",
        "model.b=0.5",
        "gn.orders=,",
    ],
)
def test_malformed_value_is_a_config_error(setting, tmp_path, capsys):
    code = run_cli(["compute", "--model", "twisted", "--pipeline", "all",
                    "--out", str(tmp_path), "--set", setting])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("configuration error")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "key, text, want",
    [("angles", "0.5,,1.0", (0.5, 1.0)),
     ("limit_angles", "0.2,0.1,", (0.2, 0.1)),
     ("gn.orders", "2,3,", (2, 3)),
     ("gn.angles", " ,0.5, 1.5", (0.5, 1.5))],
)
def test_list_keys_skip_empty_pieces(key, text, want):
    # one list rule for every list key: empty pieces are skipped
    field = _SETTINGS[key][0]
    assert getattr(apply_settings(RunConfig(), {key: text}), field) == want


@pytest.mark.parametrize("key", ["angles", "limit_angles", "gn.orders", "gn.angles"])
def test_empty_list_names_its_key(key):
    with pytest.raises(ConfigError, match=f"^{key}: empty list"):
        apply_settings(RunConfig(), {key: " , "})


def test_x_points_parsing():
    cfg = apply_settings(RunConfig(), {"x_points": "(0.0, 0.1); (1.5, 2.5)"})
    assert cfg.x_points == ((0.0, 0.1), (1.5, 2.5))


def test_config_digest_stable():
    a = apply_settings(RunConfig(), {"model.name": "dirac"})
    b = apply_settings(RunConfig(), {"model.name": "dirac"})
    assert a.digest() == b.digest()
    c = apply_settings(RunConfig(), {"model.name": "twisted"})
    assert a.digest() != c.digest()


def test_models_subcommand(capsys):
    assert run_cli(["models"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["dirac", "mass-dirac", "shifted-dirac", "twisted"]


def test_malformed_config_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run_cli(["compute", "--config", str(cfg)]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_ellipticity_violation_exits_two(tmp_path, capsys):
    code = run_cli(
        ["verify", "--model", "twisted", "--eps", "0.9", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "EllipticityViolation" in capsys.readouterr().err


def test_budget_checked_before_allocation(tmp_path, capsys):
    code = run_cli(
        ["compute", "--model", "twisted", "--pipeline", "spectral",
         "-k", "1000000", "--out", str(tmp_path), "--set", "fit.mu_hi=20"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure: BudgetExceeded")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, reason",
    [
        (["--pipeline", "spectral", "-k", "8"], "spans less than a factor 2"),
        (["--pipeline", "spectral", "-k", "9"], "spans less than a factor 2"),
        (["--pipeline", "all", "-k", "8"], "spans less than a factor 2"),
        (["--pipeline", "spectral", "--set", "mollifier.support=0.3"],
         "below the mollifier smearing scale"),
    ],
)
def test_fit_window_rules_are_config_errors(args, reason, tmp_path, capsys):
    # the fit's window rules depend on the configuration alone, so they
    # fail before the model is built, the mollifier made or a block solved
    code = run_cli(["compute", "--model", "twisted", "--out", str(tmp_path), *args])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("configuration error")
    assert reason in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "--pipeline", "direct", "-k", "8"],
        ["verify", "--set", "pipeline=spectral", "--set", "truncation.k=8"],
    ],
)
def test_fit_window_rules_spare_runs_without_a_fit(args, tmp_path):
    assert run_cli([*args, "--model", "twisted", "--out", str(tmp_path)]) == 0


def test_compute_direct_dirac(tmp_path, capsys):
    code = run_cli(
        ["compute", "--model", "dirac", "--pipeline", "direct",
         "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "a1+=0.15915494" in out
    path = tmp_path / "weyl_coefficients.csv"
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "x1,x2,sheet,a1_plus,a0_plus,term_sub,term_bracket,term_curv"
    row = lines[2].split(",")
    assert abs(float(row[3]) - 1.0 / (2.0 * math.pi)) < 1e-12
    assert abs(float(row[4])) < 1e-10


def test_byte_identical_reruns(tmp_path):
    args = ["compute", "--model", "shifted-dirac", "--beta", "0.3",
            "--pipeline", "direct", "--out", str(tmp_path)]
    assert run_cli(args) == 0
    first = (tmp_path / "weyl_coefficients.csv").read_bytes()
    assert run_cli(args) == 0
    second = (tmp_path / "weyl_coefficients.csv").read_bytes()
    assert first == second


def test_output_directory_does_not_change_bytes(tmp_path):
    # the same configuration written to two directories gives the same
    # files, header digest included
    names = ("spectral_fit.csv", "gn_check.csv")
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert run_cli(
            ["compute", "--model", "shifted-dirac", "--beta", "0.3",
             "--pipeline", "spectral", "-k", "12", "--out", out,
             "--set", "x_points=(0.3,0.9)"]
        ) == 0
        assert run_cli(
            ["gn-check", "--out", out, "--set", "gn.orders=2",
             "--set", "gn.angles=0.5"]
        ) == 0
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fit_rel_key_removed():
    # the key was never read; it is now rejected like any unknown key
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"tolerance.fit_rel": "0.1"})


def test_fd_step_key_removed():
    # every catalog model has analytic derivatives, so the step never acted;
    # the key is now rejected like any unknown key
    with pytest.raises(ConfigError):
        apply_settings(RunConfig(), {"quadrature.fd_step": "1e-3"})


def test_one_panel_per_base_point(tmp_path, monkeypatch):
    import numpy as np

    from weylsys import build_model, coefficients, weyl_coefficients

    built = []

    class CountedPanel(coefficients.CospherePanel):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(coefficients, "CospherePanel", CountedPanel)
    lead, sub = build_model("twisted", {"eps": 0.1}).symbol_fields()
    weyl_coefficients(lead, sub, np.array([0.3, 0.0]))
    assert len(built) == 1
    points = ["--set", "x_points=(0.0,0.0);(1.2,0.5)"]
    built.clear()
    assert run_cli(["verify", "--model", "twisted", "--out", str(tmp_path), *points]) == 0
    assert len(built) == 2
    built.clear()
    assert run_cli(["compute", "--model", "twisted", "--pipeline", "direct",
                    "--out", str(tmp_path), *points]) == 0
    assert len(built) == 2
    # the direct coefficients come off the recovery panels, byte for byte
    direct = (tmp_path / "weyl_coefficients.csv").read_bytes()
    built.clear()
    assert run_cli(["compute", "--model", "twisted", "--pipeline", "all",
                    "-k", "12", "--out", str(tmp_path / "all"), *points]) == 0
    assert len(built) == 2
    body = (tmp_path / "all" / "weyl_coefficients.csv").read_bytes()
    assert body.split(b"\n", 1)[1] == direct.split(b"\n", 1)[1]


def test_one_reading_per_sheet(tmp_path, monkeypatch):
    # both branches, the breakdown and the b profile read each sheet of a
    # panel once: two sheets, two second_terms calls per point
    from weylsys import coefficients

    calls = []
    read = coefficients.CospherePanel.second_terms

    def counted(panel, *args):
        calls.append(args)
        return read(panel, *args)

    monkeypatch.setattr(coefficients.CospherePanel, "second_terms", counted)
    points = ["--set", "x_points=(0.0,0.0);(1.2,0.5)"]
    assert run_cli(["verify", "--model", "twisted", "--out", str(tmp_path), *points]) == 0
    assert len(calls) == 4
    calls.clear()
    assert run_cli(["compute", "--model", "twisted", "--pipeline", "all", "-k", "12",
                    "--out", str(tmp_path / "all"), *points]) == 0
    assert len(calls) == 4


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "--bogus"],
        ["compute", "-k", "abc"],
        [],
        ["resolvent", "--model", "twisted"],
        ["compute", "--pipeline", "gn-check"],
        ["compute", "--set", "pipeline=gn-check"],
        # a flag the command does not read would change only config_sha256
        ["verify", "-k", "40"],
        ["verify", "--pipeline", "spectral"],
        ["gn-check", "--model", "twisted"],
        ["gn-check", "--eps", "0.5"],
        ["gn-check", "-k", "40"],
    ],
)
def test_usage_errors_exit_one(args, tmp_path, monkeypatch, capsys):
    # exit 2 is kept for numerical failures
    monkeypatch.chdir(tmp_path)  # the default output directory
    assert run_cli(args) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _subcommand_actions():
    """Each flag-taking subcommand's name and its parser's actions."""
    subcommands = next(a for a in build_parser()._actions if a.dest == "command")
    return [(name, subcommands.choices[name]._actions) for name in ("compute", "verify")]


def test_every_flag_is_its_configuration_key():
    # a flag's dest is the key it sets, so no second table maps one to the other
    for name, actions in _subcommand_actions():
        dests = {a.dest for a in actions} - {"help", "command", "config", "set"}
        assert dests - set(_SETTINGS) == set(), name
        # the model flags: one --<param> per catalog parameter, naming its default
        flags = [a for a in actions if a.dest.startswith("model.") and a.dest != "model.name"]
        assert sorted(flag for a in flags for flag in a.option_strings) == sorted(
            f"--{param}" for defaults in MODEL_PARAMETERS.values() for param in defaults)
        for a in flags:
            param = a.dest.split(".", 1)[1]
            (default,) = [d[param] for d in MODEL_PARAMETERS.values() if param in d]
            assert f"(default {default})" in a.help, a.help


def test_readme_tables_match_the_settings_and_catalog():
    # the configuration-grammar table lists every key, and the model-catalog
    # table every model with its parameters and their defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def first_columns(heading):
        section = readme.split(heading + "\n", 1)[1].split("\n#", 1)[0]
        rows = [line.split("|")[1:3] for line in section.splitlines()
                if line.startswith("| `")]
        return {key.strip().strip("`"): rest.strip() for key, rest in rows}

    assert set(first_columns("### Configuration grammar")) == set(_SETTINGS)
    catalog = {}
    for name, params in first_columns("## Model catalog").items():
        pairs = [] if params == "—" else [p.split() for p in params.split(",")]
        catalog[name] = {p.strip("`"): float(d.strip("()")) for p, d in pairs}
    assert catalog == {name: dict(d) for name, d in MODEL_PARAMETERS.items()}


def test_huge_point_fits_at_its_angle(tmp_path, capsys):
    # a huge x1 is the point whose cos and sin libm gives, the angle
    # atan2(sin x1, cos x1) mod 2 pi: the CLI fits there and exits 0, and
    # the direct route at 1e17 agrees with the direct route at that angle
    def rows(x1, pipeline, name):
        out = tmp_path / f"{pipeline}-{x1!r}"
        code = run_cli(["compute", "--model", "twisted", "--pipeline", pipeline, "-k", "16",
                        "--set", f"x_points=({x1!r},0)", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        return [line.split(",") for line in (out / name).read_text().splitlines()[2:]]

    for x1 in (1e17, 1e308):
        angle = math.atan2(math.sin(x1), math.cos(x1)) % (2.0 * math.pi)
        capsys.readouterr()
        fit = rows(x1, "spectral", "spectral_fit.csv")
        assert float(fit[0][0]) == x1
        # the console shows the huge coordinate in exponent form, on a short line
        line, = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("spectral:")]
        assert len(line) < 120 and f"{x1:.4e}" in line
        assert [row[2:] for row in fit] == [
            row[2:] for row in rows(angle, "spectral", "spectral_fit.csv")]
    angle = math.atan2(math.sin(1e17), math.cos(1e17)) % (2.0 * math.pi)
    direct = rows(1e17, "direct", "weyl_coefficients.csv")
    at_angle = rows(angle, "direct", "weyl_coefficients.csv")
    assert len(direct) == len(at_angle) > 0
    for row, want in zip(direct, at_angle):
        assert all(abs(float(a) - float(b)) <= 1e-12 for a, b in zip(row[2:], want[2:]))


def test_unusable_output_directory_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the output directory is made before any pipeline runs: a path under
    # a plain file is a configuration error, and no spectrum is solved
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")

    def solve(*args, **kwargs):
        raise AssertionError("the spectral run started")

    monkeypatch.setattr("weylsys.cli.assemble_and_solve", solve)
    for args in (["gn-check"],
                 ["compute", "--model", "twisted", "--pipeline", "spectral", "-k", "16"]):
        code = run_cli([*args, "--out", str(afile / "sub")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: cannot create output directory")
    assert afile.read_text() == "not a directory\n"


def test_process_entry_freezes_the_heap_and_main_does_not(monkeypatch, capsys):
    # the console script and `python -m weylsys.cli` start in entry()
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'weylsys = "weylsys.cli:entry"' in pyproject
    frozen = gc.get_freeze_count()
    assert main(["models"]) == 0
    assert gc.get_freeze_count() == frozen
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(True))
    monkeypatch.setattr(sys, "argv", ["weylsys", "models"])
    assert entry() == 0
    assert calls == [True]
    assert "twisted" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert run_cli(["compute", "-h"]) == 0
    assert "--pipeline" in capsys.readouterr().out


def test_spectral_grid_ends_inside_its_window(tmp_path):
    # the window width 11.2 is no multiple of the step 0.25: the last grid
    # step would pass the trusted edge 0.6 K = 14.4
    assert run_cli(
        ["compute", "--model", "twisted", "--pipeline", "spectral", "-k", "24",
         "--out", str(tmp_path), "--set", "fit.grid_step=0.25",
         "--set", "fit.mu_lo=3.2"]
    ) == 0
    assert len((tmp_path / "spectral_fit.csv").read_text().splitlines()) == 4


def test_upper_edge_written_in_decimals_is_the_trusted_edge(tmp_path):
    # 0.6 * 18 rounds to 10.799999999999999, below the 10.8 typed here and the
    # grid's last point 3 + 13 * 0.6
    assert run_cli(
        ["compute", "--model", "twisted", "--pipeline", "spectral", "-k", "18",
         "--out", str(tmp_path), "--set", "fit.mu_hi=10.8",
         "--set", "fit.grid_step=0.6"]
    ) == 0


def test_verify_twisted_passes(tmp_path, capsys):
    code = run_cli(
        ["verify", "--model", "twisted", "--eps", "0.1", "--out", str(tmp_path),
         "--set", "x_points=(0.0,0.0);(1.2,0.0)"]
    )
    assert code == 0
    assert "verify: PASS" in capsys.readouterr().out
    header = (tmp_path / "resolvent_recovery.csv").read_text().splitlines()[1]
    assert header == "x1,x2,phi,b1,b0,a0_recovered_two_angle,a0_recovered_limit"


def test_gn_check_csv(tmp_path, capsys):
    code = run_cli(
        ["gn-check", "--out", str(tmp_path),
         "--set", "gn.orders=2,3", "--set", "gn.angles=0.5,1.5"]
    )
    assert code == 0
    lines = (tmp_path / "gn_check.csv").read_text().splitlines()
    assert lines[1] == "n,phi,closed,numeric,abs_err"
    assert len(lines) == 2 + 2 * 2 * 2  # orders x angles x powers
    for row in lines[2:]:
        assert float(row.split(",")[-1]) < 1e-6


def test_gn_check_header_names_no_model(tmp_path, capsys):
    # gn-check reads no model; the digest is the one its CSV carries
    assert run_cli(["gn-check", "--out", str(tmp_path), "--set", "gn.orders=2"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    digest = (tmp_path / "gn_check.csv").read_text().split()[1].split("=")[1]
    assert header == f"weylsys {__version__} | config {digest}"


def test_gn_check_overflowing_order_fails_without_warnings(tmp_path, capsys):
    # order 200 overflows the kernel's powers: a typed failure, and numpy
    # writes nothing to stderr before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["gn-check", "--out", str(tmp_path), "--set", "gn.orders=200"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure: QuadratureFailure")
    assert "Warning" not in err


@pytest.mark.parametrize(
    "args",
    [["verify", "--model", "twisted"],
     ["compute", "--pipeline", "all", "--model", "twisted", "-k", "16"]],
    ids=["verify", "all"],
)
def test_fits_call_no_lstsq(args, tmp_path, monkeypatch):
    # the limit recovery is a closed-form line and the spectral fit reads its
    # coefficients off the SVD it takes for the errors
    def refuse(*_, **__):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert run_cli(args + ["--out", str(tmp_path)]) == 0


def test_spectral_pipeline_csv(tmp_path):
    code = run_cli(
        ["compute", "--model", "shifted-dirac", "--beta", "0.3",
         "--pipeline", "spectral", "-k", "16", "--out", str(tmp_path),
         "--set", "x_points=(0.3,0.9)"]
    )
    assert code == 0
    lines = (tmp_path / "spectral_fit.csv").read_text().splitlines()
    assert lines[1] == "x1,x2,K,a1_fit,a0_fit,residual"
    row = lines[2].split(",")
    assert row[2] == "16"
    assert abs(float(row[3]) - 1.0 / (2.0 * math.pi)) < 0.02 / (2.0 * math.pi)


def test_tolerance_failure_exits_three(tmp_path, capsys, monkeypatch):
    # a closed-form b1 off by 1e-3 relative fails the default b1 tolerance
    # and exits 3, whatever the roundoff of the b profile at the point
    def skewed(*args):
        b1, b0 = expansion_b_coefficients(*args)
        return b1 * (1.0 + 1e-3), b0

    monkeypatch.setattr("weylsys.cli.expansion_b_coefficients", skewed)
    code = run_cli(["verify", "--model", "twisted", "--eps", "0.1", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "tolerance failure" in err
    assert "b1" in err


@pytest.mark.parametrize(
    "name, patched, checks",
    [("recover_second_weyl", lambda *_: math.nan, ("two_angle", "limit")),
     ("expansion_b_coefficients", lambda *_: (math.nan, 0.0), ("b1",))],
    ids=["recovery", "b1"],
)
def test_nan_deviation_is_a_tolerance_failure(
    name, patched, checks, tmp_path, capsys, monkeypatch
):
    # NaN compares false with every tolerance, so a check must fail closed
    monkeypatch.setattr(f"weylsys.cli.{name}", patched)
    code = run_cli(["verify", "--model", "twisted", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("tolerance failure")
    for check in checks:
        assert f"{check} rel dev nan" in err


# (model, parameter, value, command) -> exit code; every other case exits 2
_HUGE_EXITS = {
    **{("twisted", "eps", "1e308", command): 1
       for command in ("verify", "direct", "resolvent")},
    **{("shifted-dirac", "beta", "1e300", command): 0
       for command in ("verify", "direct", "resolvent")},
}


@pytest.mark.parametrize("command", ["verify", "direct", "resolvent"])
@pytest.mark.parametrize("value", ["1e308", "5e307", "1e300"])
@pytest.mark.parametrize(
    "model, param", [("twisted", "eps"), ("shifted-dirac", "beta"), ("mass-dirac", "b")]
)
def test_huge_parameter_ends_in_a_result_or_one_typed_line(
    model, param, value, command, tmp_path, capsys
):
    # a parameter that overflows a field is a configuration error, a value
    # that overflows on the way is a numerical failure, and numpy warns of
    # neither (the suite turns warnings into errors)
    args = ["verify"] if command == "verify" else ["compute", "--pipeline", command]
    code = run_cli([*args, "--model", model, f"--{param}", value, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == _HUGE_EXITS.get((model, param, value, command), 2)
    if code == 0:
        assert err == ""
        written = out + "".join(p.read_text() for p in tmp_path.glob("*.csv"))
        assert "nan" not in written.lower() and "inf" not in written.lower()
    else:
        assert len(err.splitlines()) == 1
        assert err.startswith("configuration error" if code == 1 else "numerical failure")
    if code == 1:
        assert f"model {model} at {param}=1e+308 overflows a field" in err


def test_huge_shift_reads_its_second_coefficient(tmp_path):
    # shifted-dirac's a0 is -beta / (2 pi) at every point, however large beta
    assert run_cli(["compute", "--model", "shifted-dirac", "--beta", "1e300",
                    "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "weyl_coefficients.csv").read_text().splitlines()[2:]
    for row in rows:
        a0 = float(row.split(",")[4])
        assert a0 == pytest.approx(-1e300 / (2.0 * math.pi), rel=1e-12)


def test_overflowing_panel_names_its_term(tmp_path, capsys):
    # the cosphere sum of the subprincipal term overflows at beta = 5e307
    code = run_cli(["verify", "--model", "shifted-dirac", "--beta", "5e307",
                    "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("numerical failure: QuadratureFailure: "
                   "subprincipal term is not finite\n")


def test_overflowing_band_phase_is_a_numerical_failure(tmp_path, capsys):
    # eigenvalues near 1e308 times the band's nodes overflow the phases
    code = run_cli(["compute", "--model", "shifted-dirac", "--beta", "1e308",
                    "--pipeline", "spectral", "-k", "16", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure: QuadratureFailure: band phases overflow")
    assert len(err.splitlines()) == 1


_START_UP_PROBE = """
import json, sys
from weylsys.cli import main

out = sys.argv[1]
codes = [
    main(["verify", "--model", "twisted", "--out", out,
          "--set", "x_points=(0.4,1.1)"]),
    main(["gn-check", "--out", out]),
]
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
for pipeline in ("spectral", "all"):
    codes.append(main(["compute", "--model", "twisted", "--pipeline", pipeline,
                       "-k", "12", "--out", out, "--set", "x_points=(0.4,1.1)"]))
print(json.dumps({"codes": codes, "before_spectral": loaded,
                  "after_spectral": sorted(m for m in sys.modules
                                           if m.startswith("scipy"))}))
"""


def test_verify_and_gn_check_load_no_scipy(tmp_path):
    # a fresh interpreter: every pipeline runs on numpy alone, the spectral
    # ones (with their mollifier) included
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["before_spectral"] == []
    assert report["after_spectral"] == []


@pytest.mark.parametrize("key", ["tolerance.cross_rel", "tolerance.b1_rel"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_tolerance_at_or_below_zero_is_a_config_error(key, value, tmp_path, capsys):
    # such a tolerance fails every check: a configuration error, not exit 3
    code = run_cli(["verify", "--model", "twisted", "--out", str(tmp_path),
                    "--set", f"{key}={value}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("configuration error") and key in err
    assert list(tmp_path.iterdir()) == []


def run_fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout's sources and
    return the JSON object on its last line of output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_HEAVY_MODULES = """
import json, sys
from weylsys.cli import main

code = main([*sys.argv[2:], "--out", sys.argv[1]])
print(json.dumps({"code": code, "loaded": [
    name for name in ("_hashlib", "concurrent.futures") if name in sys.modules]}))
"""


@pytest.mark.parametrize(
    "args",
    [["gn-check"], ["verify", "--model", "twisted"],
     ["compute", "--pipeline", "spectral", "--model", "twisted", "-k", "16"]],
    ids=["gn-check", "verify", "spectral"],
)
def test_commands_load_neither_openssl_nor_a_futures_pool(args, tmp_path):
    # OpenSSL's libcrypto and concurrent.futures cost 3.6 and 0.6 MB of peak
    # RSS; at K = 16 the spectral run solves three stacks on the pool
    report = run_fresh(_HEAVY_MODULES, str(tmp_path), *args)
    assert report == {"code": 0, "loaded": []}


_ROUTE_MODULES = """
import json, sys
if sys.argv[2:]:
    from weylsys.cli import main
    code = main([*sys.argv[2:], "--out", sys.argv[1]])
else:
    import weylsys
    code = 0
print(json.dumps({"code": code, "loaded": sorted(
    name.split(".")[1] for name in sys.modules if name.startswith("weylsys."))}))
"""


@pytest.mark.parametrize(
    "args, unloaded",
    [([], {"cli", "coefficients", "errors", "kernels", "models", "resolvent", "symbols",
           "torus"}),
     (["gn-check"], {"symbols", "coefficients", "resolvent", "torus"}),
     (["verify", "--model", "twisted"], {"torus"}),
     (["compute", "--pipeline", "spectral", "--model", "twisted", "-k", "16"],
      {"symbols", "coefficients", "resolvent"})],
    ids=["import", "gn-check", "verify", "spectral"],
)
def test_each_command_loads_only_its_route(args, unloaded, tmp_path):
    # a fresh interpreter per case: a bare import of the package loads no
    # submodule, and each command only the modules it runs (numpy itself
    # loads ctypes and threading, so only weylsys modules are checked)
    report = run_fresh(_ROUTE_MODULES, str(tmp_path), *args)
    assert report["code"] == 0
    assert unloaded.isdisjoint(report["loaded"]), report["loaded"]


_NAME_BINDING = """
import importlib, json, sys
import weylsys
import weylsys.cli as cli

calls = []

def replace(name):  # as the benchmark's tracer does: getattr, then setattr
    original = getattr(cli, name)

    def replacement(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    setattr(cli, name, replacement)

for name in ("assemble_and_solve", "weyl_coefficients", "b_profile"):
    replace(name)
out = sys.argv[1]
codes = [cli.main(["compute", "--model", "twisted", "--pipeline", pipeline, "-k", "8",
                   "--set", "fit.mu_lo=2", "--out", out]) for pipeline in ("spectral", "direct")]
codes.append(cli.main(["verify", "--model", "twisted", "--out", out]))
print(json.dumps({
    "codes": codes, "calls": sorted(set(calls)),
    "table": sorted(weylsys._HOMES) == sorted(weylsys.__all__),
    "homes": [name for name, home in weylsys._HOMES.items() if getattr(weylsys, name)
              is not getattr(importlib.import_module(f"weylsys.{home}"), name)],
    "dir": sorted(set(weylsys.__all__) - set(dir(weylsys))),
}))
"""


def test_replaced_route_names_survive_binding(tmp_path):
    # route names read off weylsys.cli before main runs are bound then, and
    # main keeps a replacement set on them; every exported name of the
    # package is the object of its home module, and dir() lists it
    report = run_fresh(_NAME_BINDING, str(tmp_path))
    assert report == {"codes": [0, 0, 0],
                      "calls": ["assemble_and_solve", "b_profile", "weyl_coefficients"],
                      "table": True, "homes": [], "dir": []}


_POLYNOMIAL = """
import json, sys
from weylsys.cli import main

code = main([*sys.argv[2:], "--out", sys.argv[1]])
print(json.dumps({"code": code, "polynomial": "numpy.polynomial" in sys.modules}))
"""


@pytest.mark.parametrize(
    "args",
    [["gn-check"],
     ["compute", "--pipeline", "spectral", "--model", "twisted", "-k", "16"]],
    ids=["gn-check", "spectral"],
)
def test_gauss_rules_leave_numpy_polynomial_unloaded(args, tmp_path):
    # the Gauss-Legendre rules of the kernel moments and the bump step are
    # one Golub-Welsch eigensolve each; numpy.polynomial costs 7 ms to load
    report = run_fresh(_POLYNOMIAL, str(tmp_path), *args)
    assert report == {"code": 0, "polynomial": False}


_DIGEST = """
import json, sys
if sys.argv[1] == "hashlib":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from weylsys.cli import RunConfig

cfg = RunConfig()
print(json.dumps({"text": cfg.canonical_text(), "digest": cfg.digest(),
                  "hashlib": "hashlib" in sys.modules}))
"""


@pytest.mark.parametrize("route", ["built-in", "hashlib"])
def test_config_digest_is_sha256(route):
    # the interpreter's built-in SHA-256, or hashlib's where it is missing,
    # gives the digest hashlib gives
    import hashlib

    report = run_fresh(_DIGEST, route)
    assert report["text"] == RunConfig().canonical_text()
    want = hashlib.sha256(report["text"].encode()).hexdigest()[:16]
    assert report["digest"] == want == RunConfig().digest()
    assert report["hashlib"] == (route == "hashlib")
