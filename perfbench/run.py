"""Conclave benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hhi-bigdata --seed 1 --seconds 30 --trace 0

Workloads are ``hhi-bigdata``, ``credit-hybrid`` and ``service-mix`` (see
``perfbench/workloads.py`` for what each stresses).  Every run goes through
the public API: plans from ``compile_query`` with the default
``CompilationConfig()``, one standing ``open_session`` over mutual TLS with
development certificates, and closed-loop ``QuerySession.submit`` calls.
Inputs and certificates are made before anything is timed.

``--trace 0`` sets a session up five times (the set-up time is the median)
and then measures for ``--seconds``; it reports the end-to-end metrics.
``--trace 1`` measures untraced for half of ``--seconds``, then installs the
span wrappers (``perfbench/tracing.py``) and measures traced for the other
half in a fresh session; it reports the per-layer metrics and the tracing
overhead.  ``--smoke`` shrinks every input to a few hundred rows.

Every query's output is checked against the workload generator's cleartext
reference (``perfbench/checks.py``); on ``hhi-bigdata`` and
``credit-hybrid`` the MPC profile and mesh frame counts must also repeat
exactly and match an in-process ``QueryRunner`` run.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh sessions per untraced run; ``setup_s`` is their median.
SETUPS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["hhi-bigdata", "credit-hybrid", "service-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return parser.parse_args(argv)


def run(args: argparse.Namespace, out=sys.stdout) -> bool:
    """One benchmark run; prints the report and returns whether it was correct."""
    import repro as cc
    from repro.core.config import TransportSecurity

    from perfbench import harness, tracing
    from perfbench.workloads import WORKLOADS

    def emit(line: str) -> None:
        print(line, file=out, flush=True)

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    steal_before = harness.host_steal()
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        security = TransportSecurity.dev(workload.parties, workdir / "certs")
        emit(f"# perfbench {workload.name}: {workload.why}")
        emit("# meta " + json.dumps(
            harness.metadata(ROOT, workload, args.seed, args.seconds, bool(args.trace))))
        if args.trace:
            half = args.seconds / 2
            untraced = harness.run_phase(workload, security, args.seed, half, 1)
            installation = tracing.install()
            try:
                traced = harness.run_phase(
                    workload, security, args.seed, half, 1, installation)
            finally:
                installation.uninstall()
            phases = [untraced, traced]
            metrics = harness.per_layer(traced, untraced)
        else:
            phase = harness.run_phase(workload, security, args.seed, args.seconds, SETUPS)
            phases = [phase]
            metrics = harness.end_to_end(phase)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(f"# host steal: {harness.steal_pct(steal_before, harness.host_steal()):.1f}% "
         "of CPU time during the measured phases")

    problems = [
        f"{s.role}: {s.error}" for phase in phases for s in phase.all_samples if s.error
    ]
    if args.trace and installation.missing:
        # A layer boundary the program renamed would read 0 in its metric.
        problems.append(f"tracing hooks missing from the program: {installation.missing}")
    if workload.in_process is not None:
        # Run after the sessions closed, so its memory stays out of the
        # measured peak RSS (agents fork from this process).
        compiled, inputs = workload.in_process()
        reference = cc.QueryRunner(workload.parties, inputs, None, args.seed).run(compiled)
        for phase in phases:
            problems += harness.exact_count_errors(phase, reference.mpc_profile)
    attempted, failed = harness.error_rate(phases)

    measured = phases[-1]
    # estimated_query_s is the cost model's QueryResult.simulated_seconds:
    # an estimate for the paper's testbed, printed beside the measurement
    # and never reported as a metric.
    for role in dict.fromkeys(s.role for s in measured.samples):
        done = [s for s in measured.completed if s.role == role]
        if done:
            emit(f"# role {role}: queries={len(done)} "
                 f"p50_ms={statistics.median(s.latency_s for s in done) * 1e3:.3f} "
                 f"estimated_query_s={statistics.median(s.estimated_s for s in done):.3f}")
    n = len(measured.completed)
    emit(f"# samples={n}; beyond p{harness.TAIL_PERCENTILE:g}: "
         f"{harness.samples_beyond(n, harness.TAIL_PERCENTILE)} "
         f"(tail resolved: {harness.tail_is_resolved(n)})")
    emit(f"# error_rate={failed / attempted:.6f} ({failed} of {attempted} queries)")
    if args.trace:
        spans, _counts, n = harness.layer_totals(measured)
        emit("# spans per query (ms): name, calls, total, self")
        for name in sorted(spans, key=lambda k: -spans[k][2]):
            count, total, own = spans[name]
            emit(f"#   {name:<28} {count / n:>10.1f} {total / n / 1e6:>12.3f} "
                 f"{own / n / 1e6:>12.3f}")
    for problem in problems[:20]:
        emit(f"# CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        emit(harness.format_metric(name, value, unit))
    correct = not problems
    emit(harness.result_line(correct, attempted, failed, metrics))
    return correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return 0 if run(args) else 1


if __name__ == "__main__":
    sys.exit(main())
