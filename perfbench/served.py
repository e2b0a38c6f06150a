"""The served mix: ``repro serve`` as a subprocess on a unix socket,
driven as an open loop (per-layer ``serve.*`` metrics of the traced
``churn-1pct`` run).

One generator (this process) drives a fresh daemon on the seed's graph
over one connection.  Every request has a due time on a fixed schedule
and is sent then, whether or not earlier requests were answered; its
latency runs from the due time to its reply, so a stall in the daemon
also delays every request due during it.  A write is an
``update_batch`` of 20 edge changes (10 deleted, 10 inserted); a read is
``query_colors`` for 64 nodes plus ``query_palette`` for one node, sent
together; there are three reads per write.  The reference-rate phase
gives the served latencies; the rate ladder then finds the sustainable
rate.  A refused (``queue-full``) or unanswered request counts as a
request that missed its latency limit.

The daemon lives in its own directory under ``.perfbench_run/`` and is
shut down (killed if it does not exit) before the run ends.
"""

from __future__ import annotations

import io
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import engine as eng
from common import BenchFailure, Tracer, median, tail
from inputs import ChurnStream, rng_for

SPEC = {"family": "geometric", "n": 20_000, "avg_degree": 10.0}
WRITE_EDGES = 20
READS_PER_WRITE = 3
READ_NODES = 64
REF_RATE = 20.0
"""Writes per second at which the latency metrics are taken (with three
reads per write)."""
LADDER_FACTOR = 1.5
BISECTIONS = 2
CLIMB_STEPS = 6
"""The rate ladder: from the reference rate, climb by x1.5 while the
limits hold (or step down by /1.5 while they fail), at most
``CLIMB_STEPS`` rates, then bisect the bracket twice (geometric
midpoints).  Saturation sat at 110-230 writes/s on a 2-core x86 host
(daemon and generator on one core each), as the host's load changed;
the read tail gives out first."""
REF_SHARE = 0.2
"""The reference-rate phase lasts this share of ``--seconds``."""
STEP_SHARE = 0.07
"""Each further ladder step lasts this share of ``--seconds``."""
WRITE_LIMIT_MS = 250.0
READ_LIMIT_MS = 100.0
WRITE_TAIL_P = 90.0
READ_TAIL_P = 99.0
"""A read's tail is a read that landed on a running apply and waited for
the rest of it.  p99 (~10 of ~1000 reads beyond it) sits near the top of
that wait, so it moves one for one with the apply time; p95 sat lower
in it and moved about twice as much between runs."""
DRAIN_S = 20.0
"""How long after its due time a request may stay unanswered before it
counts as dropped."""


# ----------------------------------------------------------------------
# Daemon and connections
# ----------------------------------------------------------------------
class Conn:
    """One client connection with a thread that files every incoming
    frame under the request id it answers, stamped on arrival."""

    def __init__(self, path: str) -> None:
        from repro.serve.client import ServeClient

        self.client = ServeClient(socket_path=path, timeout=120.0, retries=1)
        self.client.hello()
        self.replies: dict[int, tuple[float, object]] = {}
        self.cv = threading.Condition()
        self.thread: threading.Thread | None = None

    def start(self) -> None:
        self.thread = threading.Thread(target=self._pump, daemon=True)
        self.thread.start()

    def _pump(self) -> None:
        from repro.serve import protocol as wire

        while True:
            try:
                frame = self.client.recv()
            except (OSError, ValueError, wire.ProtocolError):
                frame = None
            now = time.perf_counter()
            with self.cv:
                if frame is None:
                    self.replies[-1] = (now, None)
                    self.cv.notify_all()
                    return
                ids = frame.ids if isinstance(frame, wire.BatchReportFrame) else [frame.id]
                for rid in ids:
                    self.replies[rid] = (now, frame)
                self.cv.notify_all()

    def send(self, data: bytes) -> None:
        self.client.sock.sendall(data)

    def wait(self, ids, deadline: float) -> None:
        with self.cv:
            while not all(i in self.replies for i in ids):
                left = deadline - time.perf_counter()
                if left <= 0 or -1 in self.replies:
                    return
                self.cv.wait(left)

    def rpc(self, frame, timeout: float = 60.0):
        from repro.serve import protocol as wire

        self.send(wire.encode_frame(frame))
        self.wait([frame.id], time.perf_counter() + timeout)
        got = self.replies.get(frame.id)
        if got is None:
            raise BenchFailure(f"no reply to {frame.TYPE}")
        if isinstance(got[1], wire.ErrorFrame):
            raise BenchFailure(f"{frame.TYPE} failed: {got[1].message}")
        return got[1]

    def close(self) -> None:
        self.client.close()
        if self.thread is not None:
            self.thread.join(timeout=10)


class Daemon:
    """A fresh ``repro serve`` with the workload graph loaded."""

    def __init__(self, run_dir: Path, seed: int, graph, cpus: list[int]) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=run_dir))
        self.sock = os.path.relpath(self.dir / "s.sock")
        if len(self.sock) > 100:
            raise BenchFailure(f"socket path too long: {self.sock}")
        env = dict(os.environ)
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.conn: Conn | None = None
        self.stopped = False
        # Clear of the ServeClient's own request ids (hello, load_graph).
        self.next_id = 1_000_000
        self.log = open(self.dir / "daemon.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.sock,
             "--seed", str(seed)],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        if len(cpus) > 1:
            # The daemon runs on the cores the generator does not use.
            os.sched_setaffinity(self.proc.pid, cpus[1:])
        try:
            self._await_socket()
            self.conn = Conn(self.sock)
            self.conn.client.load_graph(graph[0], graph[1])
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.stop()
            raise
        self.conn.start()

    def _await_socket(self) -> None:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchFailure(f"daemon exited with {self.proc.returncode}")
            trial = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                trial.connect(self.sock)
                return
            except OSError:
                time.sleep(0.002)
            finally:
                trial.close()
        raise BenchFailure("daemon did not open its socket")

    def fresh_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def stop(self) -> None:
        """Ask for a clean shutdown; kill if that fails; always reap."""
        from repro.serve import protocol as wire

        if self.stopped:
            return
        self.stopped = True
        try:
            if self.conn is not None and self.proc.poll() is None:
                self.conn.rpc(wire.Shutdown(id=self.fresh_id()), timeout=30)
        except (BenchFailure, OSError):
            pass
        finally:
            if self.conn is not None:
                self.conn.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.log.close()
            shutil.rmtree(self.dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Open-loop phase
# ----------------------------------------------------------------------
def _schedule(d: Daemon, stream, first_write, rate, seconds, rng):
    """Due offsets and pre-encoded frames for one phase at ``rate``:
    writes evenly spaced, each followed within its period by three reads
    at seeded uniform offsets (a fixed schedule, so the share of reads
    that land on a running apply tracks the apply's duration smoothly)."""
    from repro.serve import protocol as wire

    events, encode_us = [], []
    writes = int(round(rate * seconds))
    for k in range(writes):
        wid = d.fresh_id()
        frame = wire.UpdateBatchFrame.from_batch(stream.batch(first_write + k), id=wid)
        t = time.perf_counter()
        data = wire.encode_frame(frame)
        encode_us.append((time.perf_counter() - t) * 1e6)
        events.append((k / rate, "w", [wid], data, first_write + k))
        for offset in np.sort(rng.random(READS_PER_WRITE)):
            cid, pid = d.fresh_id(), d.fresh_id()
            nodes = [int(x) for x in rng.integers(0, stream.n, size=READ_NODES)]
            data = wire.encode_frame(wire.QueryColors(id=cid, nodes=nodes)) + \
                wire.encode_frame(wire.QueryPalette(id=pid, node=int(rng.integers(0, stream.n))))
            events.append(((k + offset) / rate, "r", [cid, pid], data, None))
    events.sort(key=lambda e: e[0])
    return events, encode_us


def _phase(d: Daemon, stream, first_write, rate, seconds, rng) -> dict:
    """Drive one open-loop phase and collect every request's outcome."""
    from repro.serve import protocol as wire

    events, encode_us = _schedule(d, stream, first_write, rate, seconds, rng)
    start = time.perf_counter() + 0.02
    sent = []
    for offset, kind, ids, data, chunk in events:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        t_sent = time.perf_counter()
        d.conn.send(data)
        sent.append((due, t_sent, kind, ids, chunk))
    last_due = start + events[-1][0]
    d.conn.wait([i for *_, ids, _ in sent for i in ids], last_due + DRAIN_S)

    out = {"writes": [], "reads": [], "lag": [], "refused": 0, "dropped": 0,
           "bad_reads": 0, "accepted": [], "refused_chunks": [], "reports": {},
           "queue_wait": [], "encode_us": encode_us, "spans": []}
    for due, t_sent, kind, ids, chunk in sent:
        with d.conn.cv:
            got = [d.conn.replies.get(i) for i in ids]
        out["lag"].append((t_sent - due) * 1e3)
        if any(g is None for g in got):
            out["dropped"] += 1
            continue
        if any(isinstance(f, wire.ErrorFrame) for _, f in got):
            codes = {f.code for _, f in got if isinstance(f, wire.ErrorFrame)}
            if codes != {"queue-full"}:
                raise BenchFailure(f"daemon error {codes}")
            out["refused"] += 1
            if kind == "w":
                out["refused_chunks"].append(chunk)
            continue
        latency = (max(t for t, _ in got) - due) * 1e3
        if kind == "w":
            rep = got[0][1]
            r = rep.report
            if not (r["proper"] and r["complete"] and r["colors_used"] <= r["delta"] + 1):
                raise BenchFailure(f"served batch breaks the invariant: {r}")
            out["writes"].append(latency)
            out["accepted"].append(chunk)
            out["reports"][id(rep)] = rep
            apply_ms = r["seconds"] * 1e3
            lag_ms = (t_sent - due) * 1e3
            out["queue_wait"].append(latency - lag_ms - apply_ms)
            out["spans"].append((due, t_sent, got[0][0], r["seconds"]))
        else:
            colors, palette = got[0][1], got[1][1]
            ok = (colors.proper and colors.complete and len(colors.colors) == READ_NODES
                  and min(colors.colors) >= 0 and palette.color in set(palette.free))
            out["bad_reads"] += not ok
            out["reads"].append(latency)
    out["next_write"] = first_write + sum(1 for e in events if e[1] == "w")
    out["write_frames"] = [e[3] for e in events if e[1] == "w"]
    return out


def _parts(ph: dict) -> dict:
    """The three loads a ladder step is judged on, each as a share of
    its limit: write tail, read tail, and backlog growth (the last third
    of the writes' median latency minus the first third's, against half
    the write limit)."""
    w, r = ph["writes"], ph["reads"]
    if len(w) < 6 or len(r) < 6:
        return {"write": 2.0, "read": 2.0, "growth": 2.0}
    third = len(w) // 3
    return {
        "write": tail(w, WRITE_TAIL_P) / WRITE_LIMIT_MS,
        "read": tail(r, READ_TAIL_P) / READ_LIMIT_MS,
        "growth": (median(w[-third:]) - median(w[:third])) / (WRITE_LIMIT_MS / 2),
    }


def _score(ph: dict) -> float:
    """The largest of the three loads; a refused or unanswered request
    scores at least 2.  A step passes when its score is at most 1."""
    score = max(_parts(ph).values())
    if ph["refused"] or ph["dropped"]:
        score = max(score, 2.0)
    return score


def _climb(d: Daemon, stream, ref_phase, step_s, rng) -> tuple[float, list]:
    """Bracket and bisect the highest rate that meets the limits.

    The reference phase is the first step.  A rate passes if any run of
    it passed.  Returns the sustainable
    rate, interpolated where the score crosses 1 between the highest
    passing and the lowest failing rate run, and every step run."""
    steps = [(REF_RATE, ref_phase, _score(ref_phase))]
    nxt = ref_phase["next_write"]

    def step(rate: float) -> bool:
        """Run one rate; a failing rate is run once more and counts as
        failed only if it fails again (a lone stall is not saturation)."""
        nonlocal nxt
        for _ in range(2):
            ph = _phase(d, stream, nxt, rate, step_s, rng)
            nxt = ph["next_write"]
            steps.append((rate, ph, _score(ph)))
            if steps[-1][2] <= 1.0:
                return True
        return False

    up = steps[0][2] <= 1.0
    rate = REF_RATE
    for _ in range(CLIMB_STEPS):
        rate = rate * LADDER_FACTOR if up else rate / LADDER_FACTOR
        if step(rate) != up:
            break
    for _ in range(BISECTIONS):
        passing = [r for r, _, sc in steps if sc <= 1.0]
        failing = [r for r, _, sc in steps if sc > 1.0 and r not in passing]
        if not passing or not failing or min(failing) < max(passing):
            break
        step((max(passing) * min(failing)) ** 0.5)
    best: dict[float, float] = {}
    for r, _, sc in steps:
        best[r] = min(sc, best.get(r, sc))
    passing = [(r, sc) for r, sc in best.items() if sc <= 1.0]
    if not passing:
        raise BenchFailure("no ladder rate meets the latency limits")
    r_p, s_p = max(passing)
    above = [(r, sc) for r, sc in best.items() if r > r_p]
    if not above:
        return r_p, steps
    r_f, s_f = min(above)
    return r_p + (r_f - r_p) * (1.0 - s_p) / (s_f - s_p), steps


def _verify_final(d: Daemon, stream, ph_list) -> None:
    """The served colouring against the graph all accepted writes make."""
    from repro.analysis.verify import verify_coloring
    from repro.serve import protocol as wire
    from repro.simulator.network import BroadcastNetwork

    applied = max(ph["next_write"] for ph in ph_list)
    skipped = [c for ph in ph_list for c in ph["refused_chunks"]]
    ref = BroadcastNetwork(stream.graph_after(applied, skipped))
    reply = d.conn.rpc(wire.QueryColors(id=d.fresh_id(), nodes=None))
    audit = verify_coloring(ref, np.asarray(reply.colors), ref.delta + 1)
    if not (audit["proper"] and audit["complete"] and audit["within_palette"]):
        raise BenchFailure(f"served colouring fails the audit: {audit}")


def _stats(d: Daemon) -> dict:
    from repro.serve import protocol as wire

    return d.conn.rpc(wire.StatsRequest(id=d.fresh_id())).stats


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _inputs(seed: int, seconds: float):
    """One forward stream long enough for the longest possible ladder."""
    n, deg = SPEC["n"], SPEC["avg_degree"]
    climb = [REF_RATE * LADDER_FACTOR ** k for k in range(1, CLIMB_STEPS + 1)]
    most = REF_SHARE * REF_RATE + 2 * STEP_SHARE * (sum(climb) + BISECTIONS * climb[-1])
    per_daemon = int(max(most, REF_RATE / 2) * seconds) + 8
    needed = per_daemon * WRITE_EDGES / 2
    fraction = 1.3 * needed / (n * deg / 2)
    return ChurnStream(SPEC["family"], n, deg, seed, per_daemon, fraction,
                          chunk_edges=WRITE_EDGES)


def _engine_apply_ms(stream, seed, chunks) -> float:
    """The served writes applied in process, one write per batch: the
    single-process baseline the served latency is compared with."""
    from repro.config import ColoringConfig

    engine, _, _ = eng.setup(stream.initial, ColoringConfig.practical(seed=seed),
                             Tracer(False))
    return median(eng.apply(engine, stream.batch(c), Tracer(False))[1] * 1e3 for c in chunks)


def _trace_writes(tracer, ph) -> None:
    """Spans of each served write: generator lag, the daemon's apply
    (``report.seconds``) and the unattributed remainder (queueing,
    coalescing, transport)."""
    for due, t_sent, t_reply, apply_s in ph["spans"]:
        sp = tracer.record("serve.write", "serve", due, t_reply)
        tracer.record("serve.generator_lag", "serve", due, t_sent, sp)
        tracer.record("dynamic.apply_batch", "dynamic", t_reply - apply_s, t_reply, sp)


def _decode_us(frames) -> float:
    from repro.serve import protocol as wire

    samples = []
    for data in frames:
        t = time.perf_counter()
        wire.read_frame(io.BytesIO(data))
        samples.append((time.perf_counter() - t) * 1e6)
    return median(samples)


def served_layers(seed: int, seconds: float, tracer) -> tuple[dict, dict]:
    """Start a fresh daemon on the seed's graph, run the reference-rate
    phase and the ladder, check the final colouring, and shut it down.
    Returns the ``serve.*`` per-layer values and the record details."""
    stream = _inputs(seed, seconds)
    run_dir = Path.cwd() / ".perfbench_run"
    rng = rng_for(seed, "reads")
    # The sender must get the interpreter back quickly from the reply
    # thread, or its own lateness would read as daemon latency.  On a
    # host with more than one core the generator keeps the first and
    # the daemon gets the rest.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:1])
    d = None
    try:
        d = Daemon(run_dir, seed, stream.initial, cpus)
        ref = _phase(d, stream, 0, REF_RATE, REF_SHARE * seconds, rng)
        max_rate, ladder = _climb(d, stream, ref, STEP_SHARE * seconds, rng)
        stats = _stats(d)
        _verify_final(d, stream, [step for _, step, _ in ladder])
    finally:
        if d is not None:
            d.stop()
        os.sched_setaffinity(0, cpus)
        sys.setswitchinterval(switch)
        try:
            run_dir.rmdir()
        except OSError:
            pass
    bad = ref["refused"] + ref["dropped"] + ref["bad_reads"]
    if bad:
        raise BenchFailure(f"{bad} served requests failed at the reference rate")
    _trace_writes(tracer, ref)
    engine_ms = _engine_apply_ms(stream, seed, ref["accepted"])
    write_p50 = median(ref["writes"])
    values = {
        "serve.setup_s": d.setup_s,
        "serve.write_p50_ms": write_p50,
        "serve.write_tail_ms": tail(ref["writes"], WRITE_TAIL_P),
        "serve.read_p50_ms": median(ref["reads"]),
        "serve.read_tail_ms": tail(ref["reads"], READ_TAIL_P),
        "serve.max_rate_rps": max_rate,
        "serve.engine_apply_ms": engine_ms,
        "serve.overhead_ratio": write_p50 / engine_ms,
        "serve.queue_wait_ms": median(ref["queue_wait"]),
        "serve.encode_us": median(ref["encode_us"]),
        "serve.decode_us": _decode_us(ref["write_frames"]),
        "serve.coalesce_ratio": float(stats.get("coalesce_ratio") or 1.0),
        "serve.queue_high_water": float(stats["queue_depth_high_water"]),
        "serve.rejected": float(stats["rejected_batches"]),
        "serve.generator_lag_ms": tail(ref["lag"], 99.0),
    }
    details = {
        "requests": len(ref["lag"]),
        "reference_rate_wps": REF_RATE,
        "reads_per_write": READS_PER_WRITE,
        "tail_percentiles": {"write": WRITE_TAIL_P, "read": READ_TAIL_P},
        "limits_ms": {"write_tail": WRITE_LIMIT_MS, "read_tail": READ_LIMIT_MS},
        "ladder": [{"rate": round(rate, 3), "writes": len(ph["writes"]),
                    "refused": ph["refused"], "score": round(score, 4),
                    **{k: round(v, 4) for k, v in _parts(ph).items()}}
                   for rate, ph, score in ladder],
    }
    return values, details

