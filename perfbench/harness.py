"""Measurement phases, metric computation and the run metadata header.

A *phase* opens a standing mutual-TLS session one or more times (the set-up
measurement), keeps the last session open, and runs every client of the
workload closed-loop on its own thread until the phase's deadline.  Each
client submits its next query only after the previous one returned.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro as cc
from repro.runtime.service import active_agent_processes

from perfbench import tracing
from perfbench.workloads import Workload, plan_op_counts

#: Tail percentile reported beside the median.
TAIL_PERCENTILE = 90.0
#: A percentile is trustworthy when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


# -- statistics ------------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """The ``p``-th percentile of ``values``, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie beyond the ``p``-th percentile."""
    return count - int(np.ceil(count * p / 100.0))


def tail_is_resolved(count: int, p: float = TAIL_PERCENTILE) -> bool:
    """Whether ``count`` samples put at least ``MIN_TAIL_SAMPLES`` beyond ``p``."""
    return samples_beyond(count, p) >= MIN_TAIL_SAMPLES


# -- process accounting ---------------------------------------------------------------------


_TICKS = os.sysconf("SC_CLK_TCK")


def _agent_pids() -> list[int]:
    return [proc.pid for proc in active_agent_processes()]


def cpu_seconds(pids: list[int]) -> float:
    """User+system CPU of this process and of ``pids`` so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def peak_rss_mb(pids: list[int]) -> float:
    """Summed ``VmHWM`` of this process and of ``pids``, in MB."""
    total_kb = 0
    for pid in ["self", *pids]:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def host_steal() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host so far, from ``/proc/stat``.

    Steal is time a virtual CPU was runnable but the hypervisor ran another
    guest; on a shared host it slows every process of the benchmark.
    """
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    return 100.0 * (after[0] - before[0]) / max(after[1] - before[1], 1)


def wire_totals(wire: dict) -> tuple[int, int]:
    """``(bytes, frames)`` sent over every mesh link of ``session.stats["wire"]``."""
    sent_bytes = sent_frames = 0
    for peers in wire.values():
        for link in peers.values():
            sent_bytes += link["bytes_sent"]
            sent_frames += link["frames_sent"]
    return sent_bytes, sent_frames


# -- phases ----------------------------------------------------------------------------------


@dataclass
class Sample:
    """One submitted query."""

    role: str
    latency_s: float
    error: str | None
    profile: dict = field(default_factory=dict)
    #: The cost model's estimate for the query (report only).
    estimated_s: float = 0.0
    #: Mesh ``(bytes, frames)`` this query sent (single-client phases).
    wire: tuple[int, int] | None = None
    #: Traced phases: the coordinator-side span summary of the submission.
    coordinator: dict | None = None
    #: Traced phases: the agents' per-query span summaries.
    agents: list = field(default_factory=list)


@dataclass
class Phase:
    setup_s: list[float]
    #: Mesh ``(bytes, frames)`` after each fresh session's cold queries.
    cold_wire: list[tuple[int, int]]
    setup_samples: list[Sample]
    samples: list[Sample]
    wall_s: float
    cpu_s: float
    rss_mb: float
    wire: tuple[int, int]
    stats: dict
    queue_wait_ms: tuple[float, float]
    plans: list
    #: Traced phases: spans of threads outside a bucket during set-up and
    #: during the measured window.
    setup_background: dict | None = None
    background: dict | None = None

    @property
    def completed(self) -> list[Sample]:
        return [s for s in self.samples if s.error is None]

    @property
    def all_samples(self) -> list[Sample]:
        return self.setup_samples + self.samples


def _submit(session, client, installation) -> Sample:
    query, inputs = client.next_query()
    bucket = previous = None
    if installation is not None:
        bucket, previous = installation.tracer.open_bucket()
    result = error = None
    start = time.perf_counter_ns()
    try:
        result = session.submit(query, inputs=inputs)
    except Exception as exc:  # noqa: BLE001 - a failed query is a measured outcome
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter_ns()
        if bucket is not None:
            bucket.spans.append(("query", start, end))
            installation.tracer.close_bucket(previous)
    sample = Sample(client.role, (end - start) / 1e9, error)
    if result is not None:
        sample.error = client.check(result)
        sample.profile = dict(result.mpc_profile)
        sample.estimated_s = result.simulated_seconds
    if installation is not None:
        sample.coordinator = bucket.summary()
        sample.agents = installation.take_agent_traces()
    return sample


def _client_loop(session, client, deadline, samples, track_wire, installation) -> None:
    previous = wire_totals(session.stats["wire"]) if track_wire else None
    while time.perf_counter() < deadline:
        sample = _submit(session, client, installation)
        if track_wire:
            now = wire_totals(session.stats["wire"])
            sample.wire = (now[0] - previous[0], now[1] - previous[1])
            previous = now
        samples.append(sample)
        if sample.error is not None and session.closed:
            return


def run_phase(
    workload: Workload,
    security,
    seed: int,
    seconds: float,
    setups: int,
    installation: tracing.Installation | None = None,
) -> Phase:
    """Set up ``setups`` times, then measure closed-loop for ``seconds``."""
    setup_s, cold_wire, setup_samples = [], [], []
    # One compile per phase: relation names carry a process-wide counter, so
    # a recompiled plan may ship a few more bytes, and the fresh sessions'
    # cold queries must send identical bytes.
    clients = workload.clients()
    session = None
    try:
        for attempt in range(setups):
            start = time.perf_counter()
            session = cc.open_session(
                workload.inputs, seed=seed, parties=workload.parties, security=security
            )
            for client in clients:
                setup_samples.append(_submit(session, client, installation))
            setup_s.append(time.perf_counter() - start)
            cold_wire.append(wire_totals(session.stats["wire"]))
            if attempt < setups - 1:
                session.close()
                session = None

        pids = _agent_pids()
        samples: list[Sample] = []
        track_wire = len(clients) == 1
        setup_background = None
        if installation is not None:
            setup_background = installation.tracer.background_summary()
            installation.tracer.reset_background()
        wire0 = wire_totals(session.stats["wire"])
        cpu0 = cpu_seconds(pids)
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(
                target=_client_loop, name=f"client-{client.role}",
                args=(session, client, deadline, samples, track_wire, installation),
            )
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = cpu_seconds(pids) - cpu0
        wire1 = wire_totals(session.stats["wire"])
        histogram = session.metrics.histogram("queue_wait_seconds")
        return Phase(
            setup_s=setup_s,
            cold_wire=cold_wire,
            setup_samples=setup_samples,
            samples=samples,
            wall_s=wall,
            cpu_s=cpu,
            rss_mb=peak_rss_mb(pids),
            wire=(wire1[0] - wire0[0], wire1[1] - wire0[1]),
            stats=session.stats,
            queue_wait_ms=(histogram.percentile(50) * 1e3, histogram.percentile(90) * 1e3),
            plans=[plan for client in clients for plan in client.plans],
            setup_background=setup_background,
            background=(
                installation.tracer.background_summary() if installation is not None else None
            ),
        )
    finally:
        if session is not None:
            session.close()


# -- end-to-end metrics ----------------------------------------------------------------------


def end_to_end(phase: Phase) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of an untraced phase: ``{name: (value, unit)}``."""
    done = phase.completed
    if not done:
        raise RuntimeError("no query completed in the measured phase")
    latencies = [s.latency_s * 1e3 for s in done]
    n = len(done)
    return {
        "setup_s": (statistics.median(phase.setup_s), "s"),
        "query_p50_ms": (statistics.median(latencies), "ms"),
        "query_p90_ms": (percentile(latencies, TAIL_PERCENTILE), "ms"),
        "queries_per_s": (n / phase.wall_s, "1/s"),
        "cpu_ms_per_query": (phase.cpu_s * 1e3 / n, "ms"),
        "peak_rss_mb": (phase.rss_mb, "MB"),
        "wire_bytes_per_query": (phase.wire[0] / n, "bytes"),
        "wire_frames_per_query": (phase.wire[1] / n, "frames"),
    }


def error_rate(phases: list[Phase]) -> tuple[int, int]:
    """``(attempted, failed)`` over every query of ``phases``, set-up included."""
    samples = [s for phase in phases for s in phase.all_samples]
    return len(samples), sum(1 for s in samples if s.error is not None)


def exact_count_errors(phase: Phase, reference_profile: dict) -> list[str]:
    """Transport-accounting drift in a single-client phase.

    Every query's MPC profile must equal the in-process ``QueryRunner``
    profile of the same plan and seed; every measured query must send the
    same number of mesh frames; and the cold first query of every fresh
    session must send the same mesh bytes and frames.  (Bytes of later
    queries grow by a byte per frame whenever the per-link frame sequence
    number needs one more byte, so only fresh sessions repeat them exactly.)
    """
    errors = []
    for sample in phase.all_samples:
        if sample.error is None and sample.profile != reference_profile:
            errors.append(
                f"mpc_profile {sample.profile} differs from the in-process "
                f"reference {reference_profile}"
            )
            break
    frames = sorted({s.wire[1] for s in phase.samples if s.wire is not None})
    if len(frames) > 1:
        errors.append(f"mesh frames per query differ across queries: {frames}")
    if len(set(phase.cold_wire)) > 1:
        errors.append(f"cold-query mesh (bytes, frames) differ across sessions: {phase.cold_wire}")
    return errors


# -- per-layer metrics -----------------------------------------------------------------------

#: Operations with their own per-layer metric: those the three workloads'
#: plans execute (the columnar ``exec`` engine stands in for the row
#: ``cleartext`` engine when it is the default).  Other operations still
#: count toward the layer totals (``cleartext.ms``, ``exec.ms``, ``mpc.ms``).
_CLEARTEXT_OPS = ("ingest", "collect", "filter", "project", "join", "aggregate")
SHOWN_OPS = {
    "cleartext": _CLEARTEXT_OPS,
    "exec": _CLEARTEXT_OPS,
    "mpc": ("ingest", "ingest_remote", "reveal", "concat", "filter", "join",
            "aggregate", "multiply", "divide", "sort_by", "distinct", "limit"),
    "hybrid": tracing.HYBRID_PROTOCOLS,
}


def per_layer_names() -> list[tuple[str, str]]:
    """Per-layer metric names and units, in report order.

    Times are self times (span minus covered child spans) per query, summed
    over the coordinator and every agent, except where a comment says otherwise.
    """
    names = [
        ("compile.ms", "ms"),                 # per compile_query call
        ("compile.mpc_ops", "count"),         # per workload (all its plans)
        ("compile.hybrid_ops", "count"),
        ("gateway.queue_wait_p50_ms", "ms"),  # session histogram
        ("gateway.queue_wait_p90_ms", "ms"),
        ("gateway.rejected", "count"),
        ("service.plan_cache_hit_rate", "ratio"),
        ("service.fingerprint_ms", "ms"),
        ("service.dispatch_ms", "ms"),
        ("service.merge_ms", "ms"),
        ("service.overhead_ms", "ms"),        # coordinator latency - slowest agent.run
        ("agent.run_ms", "ms"),               # inclusive, mean over agents
        ("agent.attributed_pct", "%"),        # share of agent.run in named self times
        ("executor.ms", "ms"),
        ("wire.encode_ms", "ms"),
        ("wire.decode_ms", "ms"),
        ("wire.encoded_mb", "MB"),
        ("mesh.recv_wait_ms", "ms"),
        ("mesh.send_ms", "ms"),
        ("mesh.read_frame_ms", "ms"),
        ("tls.ms", "ms"),
        ("net.recv_block_ms", "ms"),          # reader threads blocked in socket reads
        ("cleartext.ms", "ms"),
        ("cleartext.rows_in", "count"),
    ]
    for layer in ("cleartext", "exec", "mpc"):
        if layer != "cleartext":
            names.append((f"{layer}.ms", "ms"))
        names += [(f"{layer}.{op}.ms", "ms") for op in SHOWN_OPS[layer]]
    names += [
        ("mpc.mul_calls", "count"),           # per agent
        ("mpc.open_calls", "count"),          # per agent
        ("mpc.multiplications", "count"),     # QueryResult.mpc_profile
        ("mpc.comparisons", "count"),
        ("mpc.bytes_sent", "bytes"),
        ("mpc.wire_rounds", "count"),
    ]
    names += [(f"hybrid.{p}.ms", "ms") for p in SHOWN_OPS["hybrid"]]
    names += [
        ("trace.untraced_p50_ms", "ms"),
        ("trace.traced_p50_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
    return names


def layer_totals(phase: Phase) -> tuple[dict, dict, int]:
    """Per-name ``[count, total_ns, self_ns]`` and counters over the measured
    queries (coordinator buckets, coordinator background, every agent), and the number
    of completed queries they cover."""
    spans: dict[str, list[int]] = {}
    counts: dict[str, int] = {}

    def add(summary: dict) -> None:
        tracing.merge_summaries(spans, summary["spans"])
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value

    for sample in phase.completed:
        add(sample.coordinator)
        for agent in sample.agents:
            add(agent["query_thread"])
            add(agent["off_thread"])
    if phase.background is not None:
        add(phase.background)
    return spans, counts, len(phase.completed)


def per_layer(traced: Phase, untraced: Phase) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase: ``{name: (value, unit)}``."""
    spans, counts, n = layer_totals(traced)
    if n == 0:
        raise RuntimeError("no query completed in the traced phase")

    def self_ms(*names: str) -> float:
        return sum(spans.get(name, (0, 0, 0))[2] for name in names) / n / 1e6

    def prefixed_ms(prefix: str) -> float:
        return self_ms(*[name for name in spans if name.startswith(prefix)])

    done = traced.completed
    runs = [a["query_thread"]["spans"]["agent.run"] for s in done for a in s.agents]
    run_total = sum(r[1] for r in runs)
    run_self = sum(r[2] for r in runs)
    overheads = [
        s.latency_s * 1e3 - max(a["query_thread"]["spans"]["agent.run"][1] for a in s.agents) / 1e6
        for s in done if s.agents
    ]
    # Precompiled plans are compiled on the main thread during set-up, so
    # count every compile the phase recorded, set-up included.
    compiles = [s.coordinator["spans"].get("compile") for s in traced.all_samples if s.coordinator]
    for background in (traced.setup_background, traced.background):
        compiles.append((background or {"spans": {}})["spans"].get("compile"))
    compiles = [c for c in compiles if c]
    compile_calls = sum(c[0] for c in compiles)
    mpc_ops = hybrid_ops = 0
    for plan in traced.plans:
        m, h = plan_op_counts(plan)
        mpc_ops += m
        hybrid_ops += h
    agents_per_query = max(1, round(len(runs) / n))
    profile_mean = {
        key: statistics.fmean(s.profile.get(key, 0) for s in done)
        for key in ("multiplications", "comparisons", "bytes_sent", "wire_rounds")
    }
    stats = traced.stats
    untraced_p50 = statistics.median(s.latency_s * 1e3 for s in untraced.completed)
    traced_p50 = statistics.median(s.latency_s * 1e3 for s in done)
    values = {
        "compile.ms": sum(c[1] for c in compiles) / max(compile_calls, 1) / 1e6,
        "compile.mpc_ops": mpc_ops,
        "compile.hybrid_ops": hybrid_ops,
        "gateway.queue_wait_p50_ms": traced.queue_wait_ms[0],
        "gateway.queue_wait_p90_ms": traced.queue_wait_ms[1],
        "gateway.rejected": stats["queries_rejected"],
        "service.plan_cache_hit_rate": stats["plan_cache_hits"] / max(stats["queries"], 1),
        "service.fingerprint_ms": self_ms("service.fingerprint"),
        "service.dispatch_ms": self_ms("service.dispatch"),
        "service.merge_ms": self_ms("service.merge"),
        "service.overhead_ms": statistics.fmean(overheads) if overheads else 0.0,
        "agent.run_ms": run_total / max(len(runs), 1) / 1e6,
        "agent.attributed_pct": 100.0 * (1 - run_self / run_total) if run_total else 0.0,
        "executor.ms": self_ms("executor"),
        "wire.encode_ms": self_ms("wire.encode"),
        "wire.decode_ms": self_ms("wire.decode"),
        "wire.encoded_mb": counts.get("wire.encoded_bytes", 0) / n / 1e6,
        "mesh.recv_wait_ms": self_ms("mesh.recv_wait"),
        "mesh.send_ms": self_ms("mesh.send"),
        "mesh.read_frame_ms": self_ms("mesh.read_frame"),
        "tls.ms": self_ms("tls.send", "tls.recv"),
        "net.recv_block_ms": self_ms("net.recv_block"),
        "cleartext.ms": prefixed_ms("cleartext."),
        "cleartext.rows_in": sum(v for k, v in counts.items() if k.startswith("cleartext.")) / n,
        "exec.ms": prefixed_ms("exec."),
        "mpc.ms": prefixed_ms("mpc."),
        "mpc.mul_calls": spans.get("mpc.mul", (0,))[0] / n / agents_per_query,
        "mpc.open_calls": spans.get("mpc.open", (0,))[0] / n / agents_per_query,
        "mpc.multiplications": profile_mean["multiplications"],
        "mpc.comparisons": profile_mean["comparisons"],
        "mpc.bytes_sent": profile_mean["bytes_sent"],
        "mpc.wire_rounds": profile_mean["wire_rounds"],
        "trace.untraced_p50_ms": untraced_p50,
        "trace.traced_p50_ms": traced_p50,
        "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1),
    }
    for layer, ops in SHOWN_OPS.items():
        for op in ops:
            values[f"{layer}.{op}.ms"] = self_ms(f"{layer}.{op}")
    return {name: (float(values[name]), unit) for name, unit in per_layer_names()}


# -- run metadata ----------------------------------------------------------------------------


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (identifies a checkout without git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    status = _git(root, "status", "--porcelain")
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "start_method": multiprocessing.get_context().get_start_method(),
        "sizes": workload.sizes,
        "config": "CompilationConfig() defaults",
        "transport": "mutual TLS (TransportSecurity.dev)",
    }


def format_metric(name: str, value: float, unit: str) -> str:
    return f"  {name:<30} {value:>16.6f} {unit}"


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    })
