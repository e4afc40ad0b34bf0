"""``service_ra3``: the live lock service, fault-free.

``repro serve`` (n=3, theta=8) runs as a child process.  This process is
the only load generator, with 2 connections (one each to p0 and p1), and
drives three segments with fixed op budgets -- never a wall-clock
deadline, so no acquire is cut off at the end of a run:

* a discarded closed-loop warm-up;
* an **open loop** at one fixed rate well below saturation; each
  request's latency is timed from when it was due, so a stall also
  charges the requests queued behind it;
* a **closed loop** of fixed op budgets, in rounds, with the generator
  and the server sharing one CPU and the generator's pacer ticking
  after every op.

An acquire not granted within ``ACQUIRE_TIMEOUT_S`` is a failed
operation: the connection is dropped (the server then releases on its
behalf) and reopened, and the retry is counted.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HOST = "127.0.0.1"
CONNECTIONS = 2
OPEN_RATE = 200.0  # grants/s; the closed loop saturates at 700-1,100/s here
ACQUIRE_TIMEOUT_S = 5.0
WARMUP_OPS = 100  # per connection
ROUND_OPS = 150  # per connection per closed-loop round
SETUP_SPAWNS = 5
#: Open-loop latencies per chunk of the chunked p50.
CHUNK = 200
#: (open-loop requests, closed-loop rounds) of the companion pass, which
#: reports only grants_per_s, and of the traced run's untraced reference,
#: which reports the latencies (1,000 samples, for a p99).
COMPANION = (0, 12)
TRACE_REFERENCE = (1000, 8)


def budgets(seconds: float) -> tuple[int, int]:
    """The workload's op budgets for a run of ``seconds``: about 0.6 s
    of open loop and 0.7 s of closed loop per second (at least 1,000
    open-loop samples, for a p99, and 12 rounds)."""
    return max(1000, round(OPEN_RATE * seconds * 0.6)), max(
        12, round(2 * seconds)
    )


# -- the server child ---------------------------------------------------------


class Server:
    """One ``repro serve`` child; ``traced`` runs it under serve_traced.py."""

    def __init__(self, run, traced: bool = False):
        self.run = run
        self.dir = run.fresh_dir("service")
        self.verdict_path = self.dir / "verdict.json"
        self.dump_path = self.dir / "trace.json"
        serve = [
            "serve", "--n", "3", "--theta", "8", "--host", HOST,
            "--port", "0", "--verdict-json", str(self.verdict_path),
        ]
        if traced:
            here = Path(__file__).resolve().parent
            cmd = [sys.executable, str(here / "serve_traced.py"),
                   str(self.dump_path), *serve]
        else:
            cmd = [sys.executable, "-m", "repro", *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(run.root / "src"), str(Path(__file__).resolve().parent)]
        )
        self.proc = subprocess.Popen(
            cmd, cwd=run.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        run.children.append(self.proc)
        line = self.proc.stdout.readline()
        run.check(line.startswith("serving"), f"serve did not start: {line!r}")
        self.ports = [int(p) for p in line.split("ports")[1].split(",")]
        for port in self.ports:
            _wait_accepting(port)

    def stop(self) -> dict:
        """SIGINT, reap, and return the stamped verdict (checked)."""
        self.proc.send_signal(signal.SIGINT)
        out, err = self.proc.communicate(timeout=60)
        self.run.check(
            self.proc.returncode == 0,
            f"serve exited {self.proc.returncode}: {out[-400:]} {err[-400:]}",
        )
        verdict = json.loads(self.verdict_path.read_text())
        self.run.check(
            verdict["me1_violations"] == 0 and verdict["me3_violations"] == 0,
            f"service verdict has ME violations: {verdict}",
        )
        return verdict


def _wait_accepting(port: int) -> None:
    deadline = time.perf_counter() + 30
    while True:
        try:
            with socket.create_connection((HOST, port), timeout=1):
                return
        except OSError:
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.005)


# -- the generator ------------------------------------------------------------


class Generator:
    """The load generator's connections and counters."""

    def __init__(self, ports: list[int], pacer):
        self.ports = ports
        self.pacer = pacer
        self.pacing = False
        self.clients: list = []
        self.attempted = 0
        self.granted = 0
        self.failed = 0
        self.retries = 0

    async def connect(self) -> None:
        from repro.service.lockapi import LockClient

        for i in range(CONNECTIONS):
            client = LockClient()
            await client.connect(HOST, self.ports[i % len(self.ports)])
            self.clients.append(client)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def op(self, i: int) -> float | None:
        """Acquire and release on connection ``i``; returns the loop time
        of the grant, or ``None`` if the acquire timed out."""
        from repro.service.lockapi import LockClient

        client = self.clients[i]
        loop = asyncio.get_running_loop()
        self.attempted += 1
        try:
            req = await asyncio.wait_for(client.acquire(), ACQUIRE_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.failed += 1
            self.retries += 1
            await client.close()
            fresh = LockClient()
            await fresh.connect(HOST, self.ports[i % len(self.ports)])
            self.clients[i] = fresh
            return None
        granted = loop.time()
        self.granted += 1
        await client.release(req)
        if self.pacing:
            self.pacer.tick()
        return granted

    async def closed_loop(self, ops: int) -> None:
        async def worker(i: int) -> None:
            for _ in range(ops):
                await self.op(i)

        await asyncio.gather(*(worker(i) for i in range(CONNECTIONS)))

    async def open_loop(self, requests: int, rate: float):
        """``requests`` due at ``rate``/s; returns ``(latencies_ms,
        lags_ms, backlog_end)``."""
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        latencies: list[float] = []
        lags: list[float] = []

        async def worker(i: int) -> None:
            while (due := await queue.get()) is not None:
                granted = await self.op(i)
                if granted is not None:
                    latencies.append((granted - due) * 1e3)

        workers = [
            asyncio.ensure_future(worker(i)) for i in range(CONNECTIONS)
        ]
        start = loop.time() + 0.01
        for k in range(requests):
            due = start + k / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append((loop.time() - due) * 1e3)
            queue.put_nowait(due)
        backlog = queue.qsize()
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        return latencies, lags, backlog


def _pin(server: Server | None, cpus: set[int]) -> None:
    """Set the CPUs of this process and of the server child.

    Closed-loop rounds and set-up spawns run with both on one CPU.  Left
    to the scheduler, closed-loop rounds on 2 vCPUs were bimodal (about
    600 or 1,100 grants/s, by where each process's wake-ups landed); on
    one CPU a round costs the generator's plus the server's CPU per
    grant, which repeats, and the generator's calibration passes run on
    the CPU doing the work.  The open loop runs unpinned: its latency
    spread across runs tripled when pinned.
    """
    if server is not None:
        os.sched_setaffinity(server.proc.pid, cpus)
    os.sched_setaffinity(0, cpus)


def _cpus() -> tuple[set[int], set[int]]:
    """(every CPU this process may use, the one CPU pinned work uses)."""
    cpus = os.sched_getaffinity(0)
    return cpus, {min(cpus)}


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _drive(run, server: Server, open_requests: int, rounds: int) -> dict:
    """Warm-up, open loop, closed-loop rounds against ``server``.  The
    closed-loop rounds run pinned, with the pacer ticking after every op;
    the open loop hosts no passes (they would delay due requests)."""
    gen = Generator(server.ports, run.pacer)
    every, one = _cpus()

    async def main() -> dict:
        await gen.connect()
        try:
            await gen.closed_loop(WARMUP_OPS)
            out: dict = {"closed": []}
            if open_requests:
                out["open"] = await gen.open_loop(open_requests, OPEN_RATE)
            _pin(server, one)
            gen.pacing = True
            for _ in range(rounds):
                with run.pacing() as meter:
                    await gen.closed_loop(ROUND_OPS)
                out["closed"].append(
                    (CONNECTIONS * ROUND_OPS / meter.work_s, meter.pass_s)
                )
            gen.pacing = False
            return out
        finally:
            _pin(server, every)
            await gen.close()

    _pin(server, every)
    out = asyncio.run(main())
    verdict = server.stop()
    run.check(
        verdict["grants"] >= gen.granted,
        f"server counted {verdict['grants']} grants, clients {gen.granted}",
    )
    run.attempted += gen.attempted
    run.failed += gen.failed
    out["gen"] = gen
    out["verdict"] = verdict
    return out


def _report_open(run, out) -> None:
    """Print the open loop's latencies, raw and calibrated by the passes
    of the closed-loop rounds that follow it on the same server.  They
    are per-layer numbers (service.grant_p50_ms, service.grant_p99_ms):
    across runs of the same code their spread reached 0.62 for the p50
    and 1.2 for the p99, calibrated or not, too wide for an end-to-end
    bound."""
    lat, lags, backlog = out["open"]
    pass_s = statistics.median(c for _, c in out["closed"])
    print(f"open loop: {len(lat)} grants at {OPEN_RATE:.0f}/s, generator "
          f"lag p99 {_percentile(lags, 0.99):.3f} ms, backlog at end "
          f"{backlog}")
    for name, value in (
        ("grant_p50_ms", _chunked_p50(lat)),
        ("grant_p99_ms", _percentile(lat, 0.99)),
    ):
        run.observe(name, "ms", value, calib.scale_time(value, pass_s),
                    f"{len(lat)} grants")


def _chunked_p50(latencies: list[float]) -> float:
    """The median of the medians of ``CHUNK``-request chunks, so one
    burst of interference spoils a chunk, not the run."""
    chunks = [latencies[i:i + CHUNK] for i in range(0, len(latencies), CHUNK)]
    return statistics.median(map(statistics.median, chunks))


def measure(run, seed: int, size: str, seconds: float) -> None:
    """End-to-end metrics.  ``seed`` does not enter: the op budgets are
    fixed and the service has no randomness."""
    if size == "full":
        open_requests, rounds = budgets(seconds)
        every, one = _cpus()
        _pin(None, one)  # the spawned servers inherit it
        try:
            server = run.setup(
                lambda: Server(run), SETUP_SPAWNS, discard=Server.stop
            )
        finally:
            _pin(None, every)
    else:
        open_requests, rounds = COMPANION
        server = Server(run)
    out = _drive(run, server, open_requests, rounds)
    if open_requests:
        _report_open(run, out)
    run.rate("grants_per_s", out["closed"], f"{rounds} rounds of "
             f"{CONNECTIONS}x{ROUND_OPS} ops")


def trace(run, seed: int) -> None:
    """Per-layer metrics from a traced server driven closed-loop; the
    overhead compares its rate with an untraced reference server's, whose
    open loop gives the latency tail and the generator's lag."""
    open_requests, rounds = TRACE_REFERENCE
    ref = _drive(run, Server(run), open_requests, rounds)
    server = Server(run, traced=True)
    out = _drive(run, server, 0, rounds)
    ref_rate = statistics.median(r * c for r, c in ref["closed"])
    rate = statistics.median(r * c for r, c in out["closed"])
    run.overhead(ref_rate / rate - 1.0)

    tracer = run.tracer
    dump = json.loads(server.dump_path.read_text())
    tracer.spans.update(dump["spans"])
    verdict, gen = out["verdict"], out["gen"]
    run.simulation_layers(
        tracer, max(dump["steps"], 1), max(tracer.calls("dsl.guard"), 1)
    )
    batch = tracer.total_s("service.node.step_batch")
    run.layer("service.node.step_batch.self_s", "s",
              tracer.self_s("service.node.step_batch"))
    run.layer("service.node.busy_frac", "frac", batch / dump["wall_s"])
    run.layer("service.monitor.self_s", "s", tracer.self_s("service.monitor"))
    run.layer("service.frontend.poll_s", "s",
              tracer.total_s("service.frontend.poll"))
    run.layer("service.wire.frame_s", "s", tracer.total_s("service.wire.frame"))
    run.layer("service.msgs_per_grant", "1/grant",
              verdict["sent"] / max(verdict["grants"], 1))
    run.layer("service.acquire.retries", "count", gen.retries)
    lat, lags, backlog = ref["open"]
    run.layer("service.grant_p50_ms", "ms", _chunked_p50(lat))
    run.layer("service.grant_p99_ms", "ms", _percentile(lat, 0.99))
    run.layer("bench.gen_lag_p99_ms", "ms", _percentile(lags, 0.99))
    run.layer("bench.backlog_end", "count", backlog)
