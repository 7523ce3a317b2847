"""Correctness checks on the CSVs that the weylsys CLI writes.

Every check compares against an independent computation or a property the
method must have, never against a stored copy of earlier output:

* closed forms of the constant-coefficient models;
* the direct route, computed by the benchmark through the public API;
* the CLI's verification contract (two recovery routes against direct,
  quadrature moments against their closed forms);
* the CLI's determinism contract (same configuration, same bytes).

Each checker returns a list of failure messages; an empty list passes.
`self_test` feeds every checker one right and several wrong inputs.
"""

from __future__ import annotations

import math
import os

TWO_PI = 2.0 * math.pi
A1_CLOSED = 1.0 / TWO_PI

RECOVERY_REL_TOL = 1e-4      # verify's cross_rel tolerance
GN_REL_TOL = 1e-6
CLOSED_DIRECT_TOL = 1e-8     # direct route on constant symbols is exact up to rounding
FIT_A1_REL_TOL = 0.02        # acceptance criterion 6
FIT_A0_REL_TOL = 0.10        # acceptance criterion 6
LADDER_A0_REL_TOL = 0.15     # acceptance criterion 7
# For the models whose a0 is zero, criterion 6's 10% is carried over as an
# absolute bound: 10% of |a0| of shifted-dirac at its criterion beta 0.3.
FIT_A0_ABS_TOL = FIT_A0_REL_TOL * 0.3 / TWO_PI


def read_csv(path: str) -> list:
    """Rows of a weylsys CSV as dicts of strings, skipping the comment line."""
    with open(path, encoding="utf-8") as handle:
        lines = [ln for ln in handle.read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def closed_form_a0(model: tuple) -> float:
    name, params = model
    return -params["beta"] / TWO_PI if name == "shifted-dirac" else 0.0


def _rel(value: float, want: float) -> float:
    return abs(value - want) / max(abs(want), 1e-12)


def _at(points: dict, x1: float, x2: float):
    for (p1, p2), value in points.items():
        if abs(p1 - x1) < 1e-9 and abs(p2 - x2) < 1e-9:
            return value
    raise KeyError((x1, x2))


def check_gn(rows: list) -> list:
    """gn_check.csv: closed-form moments against quadrature."""
    if not rows:
        return ["gn-check wrote no rows"]
    worst = max(
        abs(complex(r["closed"]) - complex(r["numeric"]))
        / max(abs(complex(r["closed"])), 1e-12)
        for r in rows
    )
    if worst >= GN_REL_TOL:
        return [f"gn-check max rel err {worst:.2e} >= {GN_REL_TOL:.0e}"]
    return []


def check_recovery(rows: list, a0_direct: dict) -> list:
    """resolvent_recovery.csv: both recoveries against the direct a0+."""
    if not rows:
        return ["recovery wrote no rows"]
    out = []
    for r in rows:
        want = _at(a0_direct, float(r["x1"]), float(r["x2"]))
        for col in ("a0_recovered_two_angle", "a0_recovered_limit"):
            rel = _rel(float(r[col]), want)
            if rel > RECOVERY_REL_TOL:
                out.append(f"{col} {r[col]} vs direct {want!r}: rel {rel:.2e}")
    return out


def check_ladder(fits: dict, refs: dict) -> list:
    """spectral_fit.csv per K against direct-route a1, a0 at each x.

    fits: K -> rows; refs: (x1, x2) -> (a1, a0).  Returns (K, message)
    pairs, so that a failure is charged to the run at that truncation.
    """
    out = []
    errs = {}
    for k, rows in sorted(fits.items()):
        if len(rows) != len(refs):
            out.append((k, f"K={k}: {len(rows)} fit rows for {len(refs)} points"))
        for r in rows:
            x = (float(r["x1"]), float(r["x2"]))
            a1, a0 = _at(refs, *x)
            rel1 = _rel(float(r["a1_fit"]), a1)
            if rel1 > FIT_A1_REL_TOL:
                out.append((k, f"K={k} x={x}: a1 fit rel {rel1:.2e} > {FIT_A1_REL_TOL}"))
            errs.setdefault(x, {})[k] = abs(float(r["a0_fit"]) - a0)
    k_lo, k_hi = min(fits), max(fits)
    for x, by_k in errs.items():
        a0 = _at(refs, *x)[1]
        if k_hi not in by_k:
            continue
        if k_lo in by_k and k_lo < k_hi and not by_k[k_hi] < by_k[k_lo]:
            out.append((k_hi, f"x={x}: a0 error at K={k_hi} ({by_k[k_hi]:.2e}) "
                              f"not below K={k_lo} ({by_k[k_lo]:.2e})"))
        if by_k[k_hi] / abs(a0) > LADDER_A0_REL_TOL:
            out.append((k_hi, f"x={x}: a0 rel error {by_k[k_hi] / abs(a0):.2e} "
                              f"at K={k_hi}"))
    return out


def check_closed_form(model: tuple, direct: list, recovery: list, fit: list) -> list:
    """`--pipeline all` on a constant-coefficient model against closed forms."""
    a0 = closed_form_a0(model)
    out = []
    if not (direct and recovery and fit):
        return [f"{model[0]}: missing rows"]
    a0_direct = {}
    for r in direct:
        if _rel(float(r["a1_plus"]), A1_CLOSED) > CLOSED_DIRECT_TOL:
            out.append(f"{model[0]}: direct a1+ {r['a1_plus']}")
        if abs(float(r["a0_plus"]) - a0) > CLOSED_DIRECT_TOL:
            out.append(f"{model[0]}: direct a0+ {r['a0_plus']} vs {a0!r}")
        a0_direct[(float(r["x1"]), float(r["x2"]))] = float(r["a0_plus"])
    for r in recovery:
        want = _at(a0_direct, float(r["x1"]), float(r["x2"]))
        for col in ("a0_recovered_two_angle", "a0_recovered_limit"):
            if abs(float(r[col]) - want) > RECOVERY_REL_TOL * max(abs(want), 1e-8):
                out.append(f"{model[0]}: {col} {r[col]} vs direct {want!r}")
    for r in fit:
        rel1 = _rel(float(r["a1_fit"]), A1_CLOSED)
        if rel1 > FIT_A1_REL_TOL:
            out.append(f"{model[0]}: a1 fit rel {rel1:.2e}")
        dev0 = abs(float(r["a0_fit"]) - a0)
        if (a0 and dev0 / abs(a0) > FIT_A0_REL_TOL) or (not a0 and dev0 > FIT_A0_ABS_TOL):
            out.append(f"{model[0]}: a0 fit {r['a0_fit']} vs {a0!r}")
    return out


def csv_bytes(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), "rb") as handle:
                out[name] = handle.read()
    return out


def check_same_bytes(first: dict, again: dict) -> list:
    """Determinism contract: same configuration, byte-identical CSVs."""
    if not first:
        return ["no CSV written"]
    if sorted(first) != sorted(again):
        return [f"CSV sets differ: {sorted(first)} vs {sorted(again)}"]
    return [f"{name} differs between runs" for name in first if first[name] != again[name]]


def self_test() -> list:
    """Show that each checker passes a right input and rejects wrong ones.

    Returns a list of messages, one per checker that misbehaved.
    """
    problems = []

    def expect(label, failures, should_fail):
        if bool(failures) != should_fail:
            problems.append(f"self-test {label}: got {failures or 'pass'}")

    gn = [{"closed": "0.5+2.1j", "numeric": "0.5+2.1000000001j"}]
    expect("gn right", check_gn(gn), False)
    expect("gn wrong", check_gn([{"closed": "0.5+2.1j", "numeric": "0.5+2.1001j"}]), True)

    x = (1.25, 0.5)
    a0 = -0.05
    rec = [{"x1": "1.25", "x2": "0.5", "a0_recovered_two_angle": repr(a0),
            "a0_recovered_limit": repr(a0 * (1 + 1e-9))}]
    expect("recovery right", check_recovery(rec, {x: a0}), False)
    bad = [dict(rec[0], a0_recovered_limit=repr(a0 * (1 + 1e-3)))]
    expect("recovery wrong", check_recovery(bad, {x: a0}), True)

    refs = {x: (0.16, a0)}

    def fit_row(k, a1_fit, a0_fit):
        return {"x1": "1.25", "x2": "0.5", "K": str(k),
                "a1_fit": repr(a1_fit), "a0_fit": repr(a0_fit)}

    ladder = {16: [fit_row(16, 0.1607, -0.058)], 32: [fit_row(32, 0.16001, -0.0502)]}
    expect("ladder right", check_ladder(ladder, refs), False)
    expect("ladder a1 wrong",
           check_ladder({**ladder, 32: [fit_row(32, 0.165, -0.0502)]}, refs), True)
    expect("ladder not converging",
           check_ladder({16: [fit_row(16, 0.16, -0.053)],
                         32: [fit_row(32, 0.16, -0.054)]}, refs), True)
    expect("ladder a0 wrong",
           check_ladder({16: [fit_row(16, 0.16, -0.07)],
                         32: [fit_row(32, 0.16, -0.04)]}, refs), True)

    model = ("shifted-dirac", {"beta": 0.3})
    want0 = closed_form_a0(model)
    direct = [{"x1": "1.25", "x2": "0.5", "a1_plus": repr(A1_CLOSED), "a0_plus": repr(want0)}]
    recov = [{"x1": "1.25", "x2": "0.5", "a0_recovered_two_angle": repr(want0),
              "a0_recovered_limit": repr(want0)}]
    fit = [{"a1_fit": repr(A1_CLOSED * 0.999), "a0_fit": repr(want0 * 0.98)}]
    expect("closed form right", check_closed_form(model, direct, recov, fit), False)
    expect("closed form direct a1 wrong", check_closed_form(
        model, [dict(direct[0], a1_plus=repr(A1_CLOSED * (1 + 1e-6)))], recov, fit), True)
    expect("closed form recovery wrong", check_closed_form(
        model, direct, [dict(recov[0], a0_recovered_limit=repr(want0 * 1.01))], fit), True)
    expect("closed form a0 fit wrong", check_closed_form(
        model, direct, recov, [dict(fit[0], a0_fit=repr(want0 * 1.15))]), True)
    dirac = ("dirac", {})
    zero = [dict(direct[0], a0_plus="0")]
    zero_rec = [dict(recov[0], a0_recovered_two_angle="0", a0_recovered_limit="0")]
    expect("closed form zero a0 right", check_closed_form(
        dirac, zero, zero_rec, [dict(fit[0], a0_fit="0.0002")]), False)
    expect("closed form zero a0 wrong", check_closed_form(
        dirac, zero, zero_rec, [dict(fit[0], a0_fit="0.01")]), True)

    files = {"a.csv": b"# h\nx\n1\n"}
    expect("bytes right", check_same_bytes(files, dict(files)), False)
    expect("bytes wrong", check_same_bytes(files, {"a.csv": b"# h\nx\n2\n"}), True)
    return problems
