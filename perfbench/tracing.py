"""Per-layer span tracing for the benchmark's traced runs.

The program has no tracer of its own, so the traced run records spans from
the benchmark's side: :func:`install` wraps public functions and methods at
the module attributes the program looks them up through (its import sites),
before ``open_session`` forks the agents.  The agents inherit the wrappers
through the ``fork`` start method, record their spans per query, and ship a
per-query summary back inside the ``PartyAgent.run_query`` result payload;
the coordinator takes it out again in its ``merge_payloads`` wrapper.

A span is ``(name, start_ns, end_ns)`` on one thread.  Spans of one thread
nest properly, so a layer's *self time* is its span's duration minus the
part its direct child spans cover (:func:`summarize`).

Threads route their spans into *buckets*:

* an agent's query thread opens one bucket per ``run_query`` call;
* a mesh reader thread opens one bucket per frame it reads and parks it
  under the frame's query id, so the decode and TLS time spent on a query's
  inbound frames travels with that query;
* an agent's control thread does the same for the query frame it admits;
* a coordinator client thread opens one bucket per submission;
* every other thread records into a per-thread background bucket.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict

#: Payload key under which an agent ships its per-query trace summary.
PAYLOAD_KEY = "perfbench_trace"

#: Operations of the cleartext, columnar and MPC backends that get spans.
BACKEND_OPS = (
    "ingest", "collect", "concat", "project", "filter", "join", "aggregate",
    "multiply", "divide", "arith", "compare", "bool_op", "sort_by",
    "merge_sorted", "distinct", "limit", "enumerate_rows",
)
MPC_OPS = tuple(op for op in BACKEND_OPS if op != "collect") + (
    "ingest_remote", "ingest_shared", "reveal", "reveal_to", "shuffle",
)

#: Hybrid protocols, looked up by the executor at call time.
HYBRID_PROTOCOLS = ("hybrid_join", "hybrid_aggregate", "public_join")


def summarize(spans) -> dict[str, list[int]]:
    """``{name: [count, total_ns, self_ns]}`` for one thread's spans.

    Spans are ``(name, start_ns, end_ns)`` tuples in any order.  A span whose
    interval lies inside another's is its child; a span's self time is its
    duration minus the durations of its direct children.  Ties on the start
    put the longer span first, so it becomes the parent.
    """
    order = sorted(spans, key=lambda s: (s[1], -s[2]))
    covered = [0] * len(order)
    stack: list[int] = []
    for i, (_name, start, end) in enumerate(order):
        # Sorted by start, the stack top contains this span iff it ends no
        # earlier; a top that ends earlier cannot contain any later span.
        while stack and order[stack[-1]][2] < end:
            stack.pop()
        if stack:
            covered[stack[-1]] += end - start
        stack.append(i)
    out: dict[str, list[int]] = {}
    for (name, start, end), child in zip(order, covered):
        row = out.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child
    return out


def merge_summaries(into: dict[str, list[int]], other: dict[str, list[int]]) -> dict:
    """Add ``other``'s per-name ``[count, total_ns, self_ns]`` into ``into``."""
    for name, row in other.items():
        mine = into.setdefault(name, [0, 0, 0])
        for k in range(3):
            mine[k] += row[k]
    return into


class _Bucket:
    """Spans and counters recorded by one thread for one unit of work."""

    __slots__ = ("spans", "counts")

    def __init__(self):
        self.spans: list[tuple[str, int, int]] = []
        self.counts: Counter = Counter()

    def summary(self) -> dict:
        return {"spans": summarize(self.spans), "counts": dict(self.counts)}


class Tracer:
    """Span recorder shared by every wrapper of one traced phase."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._background: list[_Bucket] = []
        #: query id -> buckets recorded off the query thread (mesh readers,
        #: the agent's control thread), waiting for ``run_query`` to finish.
        self._parked: dict[int, list[_Bucket]] = defaultdict(list)

    # -- buckets -----------------------------------------------------------------------

    def _current(self) -> _Bucket:
        bucket = getattr(self._local, "bucket", None)
        if bucket is None:
            bucket = self._local.bucket = _Bucket()
            with self._lock:
                self._background.append(bucket)
        return bucket

    def open_bucket(self) -> tuple[_Bucket, _Bucket | None]:
        """Route this thread's spans into a fresh bucket; returns it and the
        bucket to restore with :meth:`close_bucket`."""
        previous = getattr(self._local, "bucket", None)
        bucket = self._local.bucket = _Bucket()
        return bucket, previous

    def close_bucket(self, previous: _Bucket | None) -> None:
        self._local.bucket = previous

    def park(self, query_id, bucket: _Bucket) -> None:
        if query_id is None:
            return
        with self._lock:
            self._parked[query_id].append(bucket)

    def take_parked(self, query_id) -> list[_Bucket]:
        with self._lock:
            return self._parked.pop(query_id, [])

    def background_summary(self) -> dict:
        """Spans and counters of every thread outside a bucket, merged."""
        spans: dict[str, list[int]] = {}
        counts: Counter = Counter()
        with self._lock:
            buckets = list(self._background)
        for bucket in buckets:
            merge_summaries(spans, summarize(list(bucket.spans)))
            counts.update(bucket.counts)
        return {"spans": spans, "counts": dict(counts)}

    def reset_background(self) -> None:
        """Forget what threads outside a bucket recorded so far."""
        with self._lock:
            buckets = list(self._background)
        for bucket in buckets:
            bucket.spans.clear()
            bucket.counts.clear()

    # -- wrappers ----------------------------------------------------------------------

    def span(self, name: str, fn, *, rows: bool = False):
        """``fn`` wrapped in a span; with ``rows`` it also counts input rows."""
        clock = time.perf_counter_ns
        current = self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                bucket = current()
                bucket.spans.append((name, start, clock()))
                if rows:
                    bucket.counts[f"{name}.rows_in"] += _input_rows(args)

        return traced

    def routed(self, name: str, fn, query_id_of):
        """``fn`` recorded into its own bucket, parked under the query id
        ``query_id_of(result)`` names (``None`` drops it)."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bucket, previous = self.open_bucket()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                bucket.spans.append((name, start, clock()))
                self.close_bucket(previous)
            self.park(query_id_of(result), bucket)
            return result

        return traced


def _input_rows(args) -> int:
    """Rows of the relation handles among a backend call's arguments."""
    rows = 0
    for arg in args[1:]:
        items = arg if isinstance(arg, (list, tuple)) else (arg,)
        for item in items:
            n = getattr(item, "num_rows", None)
            if n is not None:
                rows += int(n)
    return rows


def _mesh_frame_query(frame):
    """Query id of a mesh frame ``(seq, kind, query_id, payload)``."""
    if isinstance(frame, tuple) and len(frame) == 4 and isinstance(frame[2], int):
        return frame[2]
    return None


def _control_frame_query(frame):
    """Query id of an agent control frame ``("query", {...})``."""
    if isinstance(frame, tuple) and len(frame) == 2 and frame[0] == "query":
        job = frame[1]
        if isinstance(job, dict):
            return job.get("query_id")
    return None


class Installation:
    """The wrappers of one traced phase; :meth:`uninstall` restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        #: Hooks whose target the program no longer has (reported, skipped).
        self.missing: list[str] = []
        #: Per-query summaries the coordinator took out of agent payloads, per
        #: client thread, until the client collects them.
        self._agent_traces = threading.local()

    def _patch(self, owner, attr: str, make) -> None:
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)  # only methods the class defines
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take_agent_traces(self) -> list[dict]:
        traces = getattr(self._agent_traces, "value", [])
        self._agent_traces.value = []
        return traces

    # -- the layer map -------------------------------------------------------------------

    def install(self) -> "Installation":
        t = self.tracer
        mod = importlib.import_module
        repro = mod("repro")
        compiler = mod("repro.core.compiler")
        service = mod("repro.runtime.service")
        agent = mod("repro.runtime.agent")
        executor = mod("repro.runtime.executor")
        wire = mod("repro.runtime.wire")
        mesh = mod("repro.runtime.mesh")
        secretshare = mod("repro.mpc.secretshare")

        # core.compiler: the session compiles unplanned queries through the
        # compiler module; the benchmark compiles through the package.
        traced_compile = t.span("compile", compiler.compile_query)
        for owner in (compiler, repro):
            self._patch(owner, "compile_query", lambda _orig: traced_compile)

        # runtime.service (coordinator side)
        self._patch(service, "plan_fingerprint", lambda f: t.span("service.fingerprint", f))
        self._patch(service.AgentPool, "submit", lambda f: t.span("service.dispatch", f))
        self._patch(service, "merge_payloads", self._merge_wrapper)

        # runtime.wire: frame codec at every import site, TLS channel.
        for owner in (wire, service, agent, mesh):
            self._patch(owner, "encode_frame", self._encode_wrapper)
        self._patch(wire, "decode_frame_payload", lambda f: t.span("wire.decode", f))
        self._patch(wire.SecureSocket, "sendall", lambda f: t.span("tls.send", f))
        self._patch(wire.SecureSocket, "recv", lambda f: t.span("tls.recv", f))
        # Blocking read of ciphertext inside ``recv``: time waiting on the
        # network, kept out of the TLS layer's self time.  Only reader
        # threads call it, so it also holds their idle waits for the next
        # frame; it is reported on its own as ``net.recv_block_ms``.
        self._patch(wire.SecureSocket, "_fill", lambda f: t.span("net.recv_block", f))

        # runtime.mesh: per-query channel sends and (blocking) receives; the
        # reader threads' frames are routed to their query.
        for attr in ("send_message", "send_table"):
            self._patch(mesh.MeshChannel, attr, lambda f: t.span("mesh.send", f))
        for attr in ("receive_message", "receive_table"):
            self._patch(mesh.MeshChannel, attr, lambda f: t.span("mesh.recv_wait", f))
        self._patch(mesh, "recv_frame",
                    lambda f: t.routed("mesh.read_frame", f, _mesh_frame_query))

        # runtime.agent: query intake on the control thread, then the query.
        self._patch(agent, "recv_frame",
                    lambda f: t.routed("agent.intake", f, _control_frame_query))
        self._patch(agent.PartyAgent, "run_query", self._run_query_wrapper)
        self._patch(executor.PlanExecutor, "execute", lambda f: t.span("executor", f))

        # cleartext / exec / mpc backends and the hybrid protocols.
        backends = (
            (mod("repro.cleartext.python_engine").PythonBackend, "cleartext", BACKEND_OPS),
            (mod("repro.exec.engine").ColumnarBackend, "exec", BACKEND_OPS),
            (mod("repro.mpc.sharemind").SharemindBackend, "mpc", MPC_OPS),
        )
        for cls, layer, ops in backends:
            for op in ops:
                self._patch(cls, op, lambda f, n=f"{layer}.{op}", r=layer == "cleartext":
                            t.span(n, f, rows=r))
        for name in HYBRID_PROTOCOLS:
            self._patch(executor, name, lambda f, n=f"hybrid.{name}": t.span(n, f))

        # mpc engine primitives: call counts (spans nest inside mpc.<op>).
        self._patch(secretshare.ShareSliceEngine, "mul", lambda f: t.span("mpc.mul", f))
        for attr in ("open", "env_open_many"):
            self._patch(secretshare.ShareSliceEngine, attr, lambda f: t.span("mpc.open", f))
        return self

    def _encode_wrapper(self, fn):
        t = self.tracer
        clock = time.perf_counter_ns
        current = t._current

        @functools.wraps(fn)
        def traced(obj):
            start = clock()
            data = fn(obj)
            bucket = current()
            bucket.spans.append(("wire.encode", start, clock()))
            bucket.counts["wire.encoded_bytes"] += len(data)
            return data

        return traced

    def _run_query_wrapper(self, fn):
        tracer = self.tracer
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(agent_self, query_id, *args, **kwargs):
            bucket, previous = tracer.open_bucket()
            start = clock()
            try:
                payload = fn(agent_self, query_id, *args, **kwargs)
            finally:
                bucket.spans.append(("agent.run", start, clock()))
                tracer.close_bucket(previous)
            off_thread: dict[str, list[int]] = {}
            off_counts: Counter = Counter()
            for parked in tracer.take_parked(query_id):
                merge_summaries(off_thread, summarize(parked.spans))
                off_counts.update(parked.counts)
            payload[PAYLOAD_KEY] = {
                "query_id": query_id,
                "party": agent_self.party,
                "query_thread": bucket.summary(),
                "off_thread": {"spans": off_thread, "counts": dict(off_counts)},
            }
            return payload

        return traced

    def _merge_wrapper(self, fn):
        store = self._agent_traces
        merge = self.tracer.span("service.merge", fn)

        @functools.wraps(fn)
        def traced(compiled, parties, payloads):
            store.value = [p.pop(PAYLOAD_KEY) for p in payloads.values() if PAYLOAD_KEY in p]
            return merge(compiled, parties, payloads)

        return traced


def install() -> Installation:
    """Wrap the program's layer boundaries; undo with ``uninstall()``."""
    installation = Installation(Tracer())
    try:
        return installation.install()
    except BaseException:
        installation.uninstall()
        raise
