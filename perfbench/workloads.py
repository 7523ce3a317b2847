"""Seeded workload definitions for the weylsys CLI benchmark.

A workload is a round of CLI invocations that the benchmark repeats.  The
seed draws the base points x; the program sees only the generated command
line arguments.  Each workload also names the models whose registration
an invocation pays before its first pipeline stage (the set-up probes) and
the base points at which the benchmark computes direct-route reference
values, untimed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TWISTED = ("twisted", {"eps": 0.1})
CLOSED_FORM_MODELS = (
    ("dirac", {}),
    ("shifted-dirac", {"beta": 0.3}),
    ("mass-dirac", {"b": 0.5}),
)
SPECTRAL_LADDER = (16, 40)
# Criterion-6 truncation; the constant-coefficient Galerkin solve splits
# into (2K+1)^2 blocks of size 2, so assembly is interpreter-bound.
CLOSED_FORM_K = 32
# Constant symbols are integrated exactly by any cosphere rule, so the
# closed-form workload uses a coarser rule than the default 256 nodes to
# keep one round of three `--pipeline all` runs within the run budget.
CLOSED_FORM_NODES = 64


@dataclass(frozen=True)
class Invocation:
    """One `weylsys` CLI call: arguments without `--out`, plus what it checks."""

    args: tuple
    kind: str      # "verify", "gn-check", "spectral" or "all"
    model: tuple   # (name, params) or None for gn-check


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    setup_models: tuple   # model built by set-up probe i is setup_models[i % len]
    ref_points: tuple     # base points of the direct-route references
    ref_quantities: tuple  # subset of ("a1", "a0")


def _points(rng: random.Random, count: int) -> tuple:
    two_pi = 2.0 * math.pi
    return tuple(
        (round(rng.uniform(0.0, two_pi), 6), round(rng.uniform(0.0, two_pi), 6))
        for _ in range(count)
    )


def _model_args(model: tuple) -> list:
    name, params = model
    args = ["--model", name]
    for key, value in params.items():
        args += [f"--{key}", repr(value)]
    return args


def _points_arg(points: tuple) -> list:
    return ["--set", "x_points=" + ";".join(f"{x1!r},{x2!r}" for x1, x2 in points)]


def cosphere_twisted(seed: int) -> Workload:
    points = _points(random.Random(seed), 2)
    verify = Invocation(
        ("verify", *_model_args(TWISTED), *_points_arg(points)),
        "verify", TWISTED,
    )
    gn = Invocation(("gn-check",), "gn-check", None)
    return Workload("cosphere-twisted", (verify, gn), (TWISTED,), points, ("a0",))


def spectral_ladder(seed: int) -> Workload:
    points = _points(random.Random(seed), 2)
    invs = tuple(
        Invocation(
            ("compute", "--pipeline", "spectral", *_model_args(TWISTED),
             "-k", str(k), *_points_arg(points)),
            "spectral", TWISTED,
        )
        for k in SPECTRAL_LADDER
    )
    return Workload("spectral-ladder", invs, (TWISTED,), points, ("a1", "a0"))


def closed_form_all(seed: int) -> Workload:
    rng = random.Random(seed)
    invs = []
    for model in CLOSED_FORM_MODELS:
        points = _points(rng, 1)
        invs.append(
            Invocation(
                ("compute", "--pipeline", "all", *_model_args(model),
                 "-k", str(CLOSED_FORM_K),
                 "--set", f"quadrature.n_angles={CLOSED_FORM_NODES}",
                 *_points_arg(points)),
                "all", model,
            )
        )
    return Workload("closed-form-all", tuple(invs), CLOSED_FORM_MODELS, (), ())


WORKLOADS = {
    "cosphere-twisted": cosphere_twisted,
    "spectral-ladder": spectral_ladder,
    "closed-form-all": closed_form_all,
}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
