"""In-process runner for the benchmark's traced mode.

Runs one round of a workload's invocations in this process through
``weylsys.cli.main(argv)``.  With a trace file argument it first installs
span wrappers from this file (the program itself is untouched):

* on the names that ``weylsys.cli``, ``weylsys.coefficients`` and
  ``weylsys.resolvent`` look up at call time, including ``CospherePanel``
  and ``eigen_jet`` in both modules that use them;
* on ``numpy.linalg.eigh`` and ``eigvalsh``, counting calls, matrices and
  the sum of n^3 on the enclosing span; ``eigh`` under Galerkin assembly
  also gets its own span, so Python assembly and LAPACK time separate.

Spans are kept in memory and written out at the end as one JSON file with
fields id, name, start, end, parent and counts.  Without a trace file the
round runs plain; the benchmark compares the two walls for the tracing
overhead.  Every functools cache in weylsys is cleared between
invocations, so each one starts as cold as a separate CLI process would.

usage: python3 perfbench/inproc.py WORKLOAD SEED STAGE_DIR KEEP_DIR [TRACE_FILE]
Invocation i writes to STAGE_DIR/i (the CLI hashes that path into its
CSVs, so it must match the plain round's); the CSVs then move to KEEP_DIR/i.
Prints one JSON line: import_s, wall_s, exit_codes and, when traced, metrics.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import sys
import time
from collections import defaultdict

from workloads import make_workload


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "counts")

    def __init__(self, sid, name, parent, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def at_least(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)


class Recorder:
    """Spans kept in memory; nesting follows the call stack."""

    def __init__(self):
        self.spans = []
        self.stack = []

    @property
    def current(self):
        return self.stack[-1] if self.stack else None

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1].id if self.stack else None
        sp = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(sp)
        self.stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, result)
                return result

        return traced

    def wrap_linalg(self, fn, kind, shape_of):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            sp = self.current
            shape = shape_of(a)
            n = shape[-1]
            mats = math.prod(shape[:-2])
            if sp is not None:
                sp.add(f"{kind}_calls", 1)
                sp.add(f"{kind}_mats", mats)
                sp.add(f"{kind}_n3", mats * n ** 3)
                sp.at_least(f"{kind}_max_n", n)
                if kind == "eigh" and sp.name == "torus.assemble":
                    with self.span("torus.eigsolve"):
                        return fn(a, *args, **kwargs)
            return fn(a, *args, **kwargs)

        return traced

    def dump(self, path, header):
        spans = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({**header, "clock": "time.perf_counter, seconds", "spans": spans},
                      handle)
        os.replace(tmp, path)


def install(rec: Recorder) -> None:
    """Replace the looked-up names with span wrappers."""
    import numpy
    import weylsys.cli as cli
    import weylsys.coefficients as coefficients
    import weylsys.resolvent as resolvent

    def count_samples(sp, fit):
        sp.add("samples", fit.n_samples)

    for module, attr, span_name, on_result in (
        (cli, "write_csv", "cli.write_csv", None),
        (cli, "build_model", "torus.build_model", None),
        (cli, "build_mollifier", "torus.mollifier", None),
        (cli, "assemble_and_solve", "torus.assemble", None),
        (cli, "local_counting_mollified", "torus.counting", None),
        (cli, "fit_weyl", "torus.fit", count_samples),
        (cli, "weyl_coefficients", "coefficients.terms", None),
        (coefficients, "first_weyl", "coefficients.terms", None),
        (coefficients, "second_weyl", "coefficients.terms", None),
        (coefficients, "eigen_jet", "symbols.eigen_jet", None),
        (resolvent, "eigen_jet", "symbols.eigen_jet", None),
        (cli, "b_profile", "resolvent.b_profile", None),
        (cli, "recover_second_weyl", "resolvent.recover", None),
        (cli, "kernel_moment_closed", "kernels.moment", None),
        (cli, "kernel_moment_numeric", "kernels.moment", None),
        (resolvent, "kernel_moment_closed", "kernels.moment", None),
    ):
        setattr(module, attr, rec.wrap(getattr(module, attr), span_name, on_result))

    base = coefficients.CospherePanel

    class TracedPanel(base):
        def __init__(self, *args, **kwargs):
            with rec.span("coefficients.panel") as sp:
                super().__init__(*args, **kwargs)
                sp.add("nodes", len(self.weights))

    coefficients.CospherePanel = TracedPanel
    resolvent.CospherePanel = TracedPanel
    numpy.linalg.eigh = rec.wrap_linalg(numpy.linalg.eigh, "eigh", numpy.shape)
    numpy.linalg.eigvalsh = rec.wrap_linalg(numpy.linalg.eigvalsh, "eigvalsh", numpy.shape)


def layer_metrics(spans: list) -> dict:
    """Per-layer self times (span minus its children) and counts."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    for s in spans:
        self_s[s.name] += (s.end - s.start) - child_time[s.id]
        calls[s.name] += 1
        for key, value in s.counts.items():
            agg = counts[s.name]
            agg[key] = max(agg[key], value) if key.endswith("_max_n") else agg[key] + value
    return {
        "cli.main.s": self_s["cli.main"],
        "cli.write_csv.s": self_s["cli.write_csv"],
        "torus.build_model.s": self_s["torus.build_model"],
        "torus.build_model.eigvalsh_calls": counts["torus.build_model"]["eigvalsh_calls"],
        "symbols.eigen_jet.s": self_s["symbols.eigen_jet"],
        "symbols.eigen_jet.calls": calls["symbols.eigen_jet"],
        "symbols.eigh_calls": counts["symbols.eigen_jet"]["eigh_calls"],
        "coefficients.panel.s": self_s["coefficients.panel"],
        "coefficients.panel.builds": calls["coefficients.panel"],
        "coefficients.panel.nodes": counts["coefficients.panel"]["nodes"],
        "coefficients.terms.s": self_s["coefficients.terms"],
        "resolvent.b_profile.s": self_s["resolvent.b_profile"],
        "resolvent.recover.s": self_s["resolvent.recover"],
        "kernels.moment.s": self_s["kernels.moment"],
        "kernels.moment.calls": calls["kernels.moment"],
        "torus.mollifier.s": self_s["torus.mollifier"],
        "torus.mollifier.builds": calls["torus.mollifier"],
        "torus.assemble.s": self_s["torus.assemble"],
        "torus.eigsolve.s": self_s["torus.eigsolve"],
        "torus.assemble.blocks": counts["torus.assemble"]["eigh_mats"],
        "torus.assemble.max_block": counts["torus.assemble"]["eigh_max_n"],
        "torus.assemble.eigh_n3": counts["torus.assemble"]["eigh_n3"],
        "torus.counting.s": self_s["torus.counting"],
        "torus.fit.s": self_s["torus.fit"],
        "torus.fit.samples": counts["torus.fit"]["samples"],
    }


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "weylsys" or name.startswith("weylsys."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def main() -> None:
    workload_name, seed, stage_dir, keep_dir = sys.argv[1], int(sys.argv[2]), *sys.argv[3:5]
    trace_file = sys.argv[5] if len(sys.argv) > 5 else None
    workload = make_workload(workload_name, seed)
    t0 = time.perf_counter()
    import weylsys.cli

    import_s = time.perf_counter() - t0
    rec = Recorder()
    if trace_file:
        install(rec)
    exit_codes = []
    start = time.perf_counter()
    for i, inv in enumerate(workload.invocations):
        clear_caches()
        stage = os.path.join(stage_dir, str(i))
        argv = [*inv.args, "--out", stage]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                with rec.span("cli.main"):
                    code = weylsys.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        if code:
            sys.stderr.write(sink.getvalue())
        exit_codes.append(code)
        os.makedirs(stage, exist_ok=True)
        os.makedirs(keep_dir, exist_ok=True)
        os.rename(stage, os.path.join(keep_dir, str(i)))
    wall_s = time.perf_counter() - start
    result = {"import_s": import_s, "wall_s": wall_s, "exit_codes": exit_codes}
    if trace_file:
        result["metrics"] = {"cli.import_s": import_s, **layer_metrics(rec.spans)}
        rec.dump(trace_file, {"workload": workload_name, "seed": seed,
                              "import_s": import_s})
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
