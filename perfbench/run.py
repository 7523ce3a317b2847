"""Benchmark of the weylsys command line, one workload per call.

usage (from the root of a weylsys checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: the benchmark starts one `python3 -m
weylsys.cli` subprocess at a time and waits for it.  A round is the
workload's list of invocations (see workloads.py); the run repeats whole
rounds until --seconds have passed, at least one.  Outside the timed loop
it measures set-up with fresh-interpreter probes, computes direct-route
references, and checks every output (checks.py).

--trace 0 reports the end-to-end metrics: setup_s (median of three
probes), wall_s and cpu_s (median over the run's rounds), peak_rss_mb
(highest peak RSS of any invocation).  --trace 1 runs one round in one
process through weylsys.cli.main with span wrappers (inproc.py), one plain
round the same way, and reports the per-layer metrics and trace.overhead_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Work files go to .perfbench/ in
the checkout; the trace file stays there as
.perfbench/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from checks import (
    check_closed_form,
    check_gn,
    check_ladder,
    check_recovery,
    check_same_bytes,
    csv_bytes,
    read_csv,
    self_test,
)
from workloads import WORKLOADS, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench"
SETUP_PROBES = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.main.s": "s",
    "cli.write_csv.s": "s",
    "torus.build_model.s": "s",
    "torus.build_model.eigvalsh_calls": "count",
    "symbols.eigen_jet.s": "s",
    "symbols.eigen_jet.calls": "count",
    "symbols.eigh_calls": "count",
    "coefficients.panel.s": "s",
    "coefficients.panel.builds": "count",
    "coefficients.panel.nodes": "count",
    "coefficients.terms.s": "s",
    "resolvent.b_profile.s": "s",
    "resolvent.recover.s": "s",
    "kernels.moment.s": "s",
    "kernels.moment.calls": "count",
    "torus.mollifier.s": "s",
    "torus.mollifier.builds": "count",
    "torus.assemble.s": "s",
    "torus.eigsolve.s": "s",
    "torus.assemble.blocks": "count",
    "torus.assemble.max_block": "rows",
    "torus.assemble.eigh_n3": "computed-n3",
    "torus.counting.s": "s",
    "torus.fit.s": "s",
    "torus.fit.samples": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed operation)."""


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int


def child_env() -> dict:
    """Children import the checkout's src/ and use at most nproc BLAS threads."""
    env = dict(os.environ)
    env.pop("THREADS", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = nproc
    env["OMP_NUM_THREADS"] = nproc
    return env


def stop(proc: subprocess.Popen) -> None:
    """Kill a child on the way out of an interrupted wait, and reap it."""
    proc.kill()
    proc.wait()


def run_invocation(args: tuple, stage: str, keep: str, env: dict) -> Outcome:
    """One CLI subprocess, timed from spawn to reaping, with its own rusage.

    The CLI hashes its output directory into every CSV, so each invocation
    writes to the same `stage` path in every round and its CSVs are then
    moved to `keep`; same configuration, same bytes.
    """
    os.makedirs(stage)
    os.makedirs(os.path.dirname(keep), exist_ok=True)
    with open(keep + ".log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "weylsys.cli", *args, "--out", stage],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            stop(proc)
            raise
        wall = time.perf_counter() - start
    os.rename(stage, keep)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        with open(keep + ".log", encoding="utf-8", errors="replace") as log:
            sys.stderr.write(f"perfbench: {' '.join(args)} exited {proc.returncode}\n"
                             + log.read()[-2000:])
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode)


def probe(model: tuple, env: dict, log_path: str, points=(), quantities=()) -> tuple:
    """Fresh interpreter: import weylsys, register model.  Returns (setup_s, info)."""
    request = json.dumps({"model": list(model), "points": [list(p) for p in points],
                          "quantities": list(quantities)})
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), request],
            env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        )
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate()
        except BaseException:
            stop(proc)
            raise
    if first.strip() != "ready" or proc.returncode:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {log.read()[-2000:]}")
    return setup_s, json.loads(rest.splitlines()[-1])


def check_round(workload, round_dir: str, refs: dict) -> dict:
    """Correctness failures of one round, keyed by invocation index."""
    failures = {}
    ladder = {}
    for i, inv in enumerate(workload.invocations):
        out = os.path.join(round_dir, str(i))
        try:
            if inv.kind == "verify":
                a0 = {x: ref[1] for x, ref in refs.items()}
                msgs = check_recovery(read_csv(os.path.join(out, "resolvent_recovery.csv")), a0)
            elif inv.kind == "gn-check":
                msgs = check_gn(read_csv(os.path.join(out, "gn_check.csv")))
            elif inv.kind == "all":
                msgs = check_closed_form(
                    inv.model,
                    read_csv(os.path.join(out, "weyl_coefficients.csv")),
                    read_csv(os.path.join(out, "resolvent_recovery.csv")),
                    read_csv(os.path.join(out, "spectral_fit.csv")),
                )
            else:
                k = int(inv.args[inv.args.index("-k") + 1])
                ladder[k] = (i, read_csv(os.path.join(out, "spectral_fit.csv")))
                msgs = []
        except (OSError, KeyError, ValueError, IndexError) as exc:
            msgs = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if msgs:
            failures[i] = msgs
    if ladder:
        try:
            msgs = check_ladder({k: rows for k, (_, rows) in ladder.items()}, refs)
        except (KeyError, ValueError) as exc:
            msgs = [(max(ladder), f"unreadable fit: {type(exc).__name__}: {exc}")]
        for k, msg in msgs:
            failures.setdefault(ladder[k][0], []).append(msg)
    return failures


def reference_map(info: dict) -> dict:
    return {tuple(r["x"]): (r.get("a1"), r.get("a0")) for r in info["refs"]}


def timed_rounds(workload, seconds: int, run_dir: str, env: dict) -> list:
    """Whole rounds until `seconds` have passed, at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        round_dir = os.path.join(run_dir, f"r{len(rounds)}")
        rounds.append([
            run_invocation(inv.args, os.path.join(run_dir, "out", str(i)),
                           os.path.join(round_dir, str(i)), env)
            for i, inv in enumerate(workload.invocations)
        ])
    return rounds


def judge(workload, round_dirs: list, exit_codes: list, refs: dict, repeat=None) -> tuple:
    """Charge exit codes, check failures and byte differences to operations.

    round_dirs[j] holds the CSVs of round j, exit_codes[j] its exit codes;
    every later round's CSVs, and `repeat` (an untimed second run of
    invocation 0), must equal round 0's byte for byte.  Returns (correct,
    attempted, failed).
    """
    failed_ops = set()
    wrong = False
    for j, (round_dir, codes) in enumerate(zip(round_dirs, exit_codes)):
        for i, code in enumerate(codes):
            if code:
                failed_ops.add((j, i))
        for i, msgs in check_round(workload, round_dir, refs).items():
            if (j, i) not in failed_ops:
                wrong = True
                sys.stderr.write(f"perfbench: round {j} invocation {i}: {msgs}\n")
            failed_ops.add((j, i))
    pairs = [(j, i, os.path.join(round_dirs[j], str(i)))
             for j in range(1, len(round_dirs)) for i in range(len(workload.invocations))]
    if repeat:
        pairs.append((0, 0, repeat))
    for j, i, again in pairs:
        if (j, i) in failed_ops or (0, i) in failed_ops:
            continue
        msgs = check_same_bytes(csv_bytes(os.path.join(round_dirs[0], str(i))),
                                csv_bytes(again))
        if msgs:
            wrong = True
            failed_ops.add((j, i))
            sys.stderr.write(f"perfbench: determinism, invocation {i}: {msgs}\n")
    attempted = len(round_dirs) * len(workload.invocations)
    return not wrong, attempted, len(failed_ops)


def run_plain(workload, seconds: int, run_dir: str, env: dict) -> tuple:
    setups = []
    info = None
    for p in range(SETUP_PROBES):
        model = workload.setup_models[p % len(workload.setup_models)]
        extra = (workload.ref_points, workload.ref_quantities) if p == 0 else ()
        setup_s, got = probe(model, env, os.path.join(run_dir, f"probe{p}.log"), *extra)
        setups.append(setup_s)
        info = info or got
    rounds = timed_rounds(workload, seconds, run_dir, env)
    round_dirs = [os.path.join(run_dir, f"r{j}") for j in range(len(rounds))]
    repeat = None
    if len(rounds) == 1:
        # The determinism check needs one configuration written twice.
        repeat = os.path.join(run_dir, "repeat", "0")
        run_invocation(workload.invocations[0].args, os.path.join(run_dir, "out", "0"),
                       repeat, env)
    verdict = judge(workload, round_dirs, [[o.code for o in r] for r in rounds],
                    reference_map(info), repeat)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(o.wall_s for o in r) for r in rounds),
        "cpu_s": statistics.median(sum(o.cpu_s for o in r) for r in rounds),
        "peak_rss_mb": max(o.maxrss_kb for r in rounds for o in r) / 1024.0,
    }
    notes = {"rounds": len(rounds), "setup_samples_s": setups,
             "round_wall_s": [sum(o.wall_s for o in r) for r in rounds],
             "round_cpu_s": [sum(o.cpu_s for o in r) for r in rounds]}
    return verdict, metrics, info["versions"], notes


def run_inproc(workload_name: str, seed: int, run_dir: str, keep: str, env: dict,
               trace_file=None):
    cmd = [sys.executable, os.path.join(HERE, "inproc.py"), workload_name, str(seed),
           os.path.join(run_dir, "out"), keep]
    done = subprocess.run(cmd + ([trace_file] if trace_file else []), env=env,
                          stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode:
        raise BenchError(f"in-process round exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_traced(workload, seed: int, run_dir: str, env: dict) -> tuple:
    model = workload.setup_models[0]
    _, info = probe(model, env, os.path.join(run_dir, "probe0.log"),
                    workload.ref_points, workload.ref_quantities)
    trace_file = os.path.join(WORK_ROOT, f"trace-{workload.name}-seed{seed}.json")
    plain = run_inproc(workload.name, seed, run_dir, os.path.join(run_dir, "r0"), env)
    traced = run_inproc(workload.name, seed, run_dir, os.path.join(run_dir, "r1"), env,
                        trace_file)
    verdict = judge(workload, [os.path.join(run_dir, "r0"), os.path.join(run_dir, "r1")],
                    [plain["exit_codes"], traced["exit_codes"]], reference_map(info))
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    notes = {"plain_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
             "trace_file": trace_file}
    return verdict, metrics, info["versions"], notes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so that the child being waited for is
    # killed and reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "weylsys", "cli.py")):
        print("perfbench: src/weylsys not found; run from the root of a weylsys checkout",
              file=sys.stderr)
        return 2
    problems = self_test()
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    workload = make_workload(args.workload, args.seed)
    env = child_env()
    run_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if args.trace:
            verdict, metrics, versions, notes = run_traced(workload, args.seed, run_dir, env)
            units = PER_LAYER_UNITS
        else:
            verdict, metrics, versions, notes = run_plain(workload, args.seconds, run_dir, env)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct, attempted, failed = verdict
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
        **versions,
    }
    print(f"perfbench: workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"perfbench: environment {json.dumps(environment)}")
    print(f"perfbench: details {json.dumps(notes)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(f"  attempted {attempted}  failed {failed}  correct {correct and not problems}")
    print(json.dumps({
        "correct": correct and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
