"""The ``service_mixed`` workload over HTTP.

The server is ``python -m repro.service --jobs 1`` in a subprocess (with
``--jobs 1`` the executor runs in-process, so a traced server sees the
kernel calls).  Load comes from this process over at most two connections
at a time, one request per connection, as the service's own clients talk:
one closed-loop writer POSTs never-seen requests while one reader sends, on
a fixed schedule, repeats of requests stored during warm-up and, at a lower
rate, ``GET /healthz``; every read is timed from the moment it was due.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
from dataclasses import dataclass, field

import layers
from common import (ROOT, WORK, child_env, mean, median, quantile,
                    vm_hwm_mb)
from tracer import clock

#: Facility shapes (tags, zones) per scale.  Every block of requests holds
#: each shape once, in an order drawn from the seed, with fresh request
#: seeds: sizes spread over 50k-1M tags and 8-20 zones (1-3 distinct zone
#: cells), and every seed offers the same work.
LADDER = {"full": ((50_000, 8), (77_000, 10), (118_000, 12), (182_000, 13),
                   (280_000, 15), (430_000, 17), (660_000, 20),
                   (1_000_000, 20)),
          "tiny": ((2_000, 2), (4_000, 3), (8_000, 4), (16_000, 4))}
#: Nominal seconds one block of cold requests takes on the reference
#: machine; a run computes ``round(seconds / BLOCK_SECONDS)`` blocks, so
#: both sides of a comparison do the same work.
BLOCK_SECONDS = {"full": 5.0, "tiny": 0.4}
SETUP_SAMPLES = 3
#: Requests stored before the measured window of ``service_mixed``: the
#: smallest shapes of the ladder, with seeds of their own.
WARM_SET = 4
#: Reader schedule of ``service_mixed``: one read is due every
#: ``READ_PERIOD_S`` (about one per cold request, the most the compute lane
#: serves without a growing backlog); every ``HEALTH_EVERY``-th read is
#: ``GET /healthz``.
READ_PERIOD_S = {"full": 1.0, "tiny": 0.1}
HEALTH_EVERY = 4
#: Responses re-issued and recomputed in-process for the byte-identity check.
IDENTITY_SAMPLE = 2
#: Generator lateness beyond this voids a run (the load was not offered).
LATE_LIMIT_S = 0.5
HTTP_TIMEOUT_S = 60.0


def request_stream(seed: int, label: str, scale: str, blocks: int):
    """``blocks`` blocks of never-seen inventory requests from the seed."""
    rng = random.Random(f"{seed}:{label}")
    for _ in range(blocks):
        shapes = list(LADDER[scale])
        rng.shuffle(shapes)
        for n_tags, zones in shapes:
            yield {"n_tags": n_tags, "zones": zones,
                   "seed": rng.randrange(1, 2 ** 31)}


def blocks_for(seconds: float, scale: str) -> int:
    return max(1, round(seconds / BLOCK_SECONDS[scale]))


def check_response(request: dict, body: bytes) -> str | None:
    """Why ``body`` is not a sane answer to ``request``, or ``None``."""
    try:
        payload = json.loads(body)
        plan, facility, zones = (payload["plan"], payload["facility"],
                                 payload["zones"])
        echoed = payload["request"]
    except (ValueError, KeyError, TypeError) as error:
        return f"unparseable response: {error!r}"
    for name in ("n_tags", "zones", "seed"):
        if echoed.get(name) != request[name]:
            return f"response echoes {name}={echoed.get(name)!r}"
    checks = {
        "schema": payload.get("schema") == "repro-inventory/1",
        "plan.zones": plan["zones"] == request["zones"] == len(zones),
        "plan.distinct_cells": 1 <= plan["distinct_cells"] <= plan["zones"],
        "plan.phases": 1 <= plan["phases"] <= plan["zones"],
        "facility.unique_tags": facility["unique_tags"] == request["n_tags"],
        "zone tags": sum(zone["exclusive_tags"] for zone in zones)
        == request["n_tags"],
        "facility.throughput": math.isfinite(facility["throughput"])
        and facility["throughput"] > 0,
        "facility.read_time_s": facility["read_time_s"] > 0,
    }
    failed = [name for name, ok in checks.items() if not ok]
    return f"insane fields: {', '.join(failed)}" if failed else None


def simulated_slots(body: bytes) -> float:
    """Slots simulated for a response: one cell per distinct zone config."""
    cells = {}
    for zone in json.loads(body)["zones"]:
        signature = (zone["n_tags"], zone["frame_size"],
                     zone["interference_load"])
        cells[signature] = zone["runs"] * zone["total_slots_mean"]
    return sum(cells.values())


def identity_problems(original: bytes, reissued: bytes,
                      recomputed: bytes) -> list[str]:
    """The byte-identity check of one sampled response."""
    problems = []
    if reissued != original:
        problems.append("re-issued request returned different bytes")
    if recomputed != original:
        problems.append("fresh in-process InventoryService.handle returned "
                        "different bytes")
    return problems


def recompute(request: dict) -> bytes:
    """``InventoryService.handle`` on a fresh instance in this process."""
    from repro.service.core import InventoryService, ServiceConfig
    from repro.service.requests import request_from_dict
    return InventoryService(ServiceConfig(jobs=1)).handle(
        request_from_dict(request))


# -- HTTP -------------------------------------------------------------------

@dataclass
class Load:
    """Everything the load generator saw during one server's lifetime."""

    port: int
    in_flight: int = 0
    in_flight_max: int = 0
    records: list[dict] = field(default_factory=list)

    async def exchange(self, method: str, path: str,
                       body: bytes = b"") -> tuple[int, bytes]:
        self.in_flight += 1
        self.in_flight_max = max(self.in_flight_max, self.in_flight)
        try:
            return await asyncio.wait_for(self._exchange(method, path, body),
                                          HTTP_TIMEOUT_S)
        finally:
            self.in_flight -= 1

    async def _exchange(self, method: str, path: str,
                        body: bytes) -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       self.port)
        try:
            head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n")
            writer.write(head.encode("ascii") + body)
            await writer.drain()
            status_line = (await reader.readline()).decode("latin-1")
            status = int(status_line.split()[1])
            length = None
            while True:
                line = (await reader.readline()).decode("latin-1")
                if line in ("\r\n", "\n", ""):
                    break
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            payload = await (reader.readexactly(length) if length is not None
                             else reader.read())
            return status, payload
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def call(self, kind: str, method: str, path: str,
                   request: dict | None = None, due: float | None = None,
                   late: float = 0.0) -> dict:
        """One timed request; the record keeps its bytes and any failure."""
        body = json.dumps(request).encode() if request is not None else b""
        sent = clock()
        record = {"kind": kind, "request": request, "sent": sent,
                  "due": sent if due is None else due, "late": late,
                  "status": None, "body": b"", "error": None}
        try:
            record["status"], record["body"] = await self.exchange(
                method, path, body)
        except (OSError, ValueError, IndexError,
                asyncio.TimeoutError, asyncio.IncompleteReadError) as error:
            record["error"] = f"{type(error).__name__}: {error}"
        record["done"] = clock()
        if record["error"] is None and record["status"] != 200:
            record["error"] = f"HTTP {record['status']}"
        if record["error"] is None and request is not None:
            record["error"] = check_response(request, record["body"])
        if record["error"] is None and kind == "health":
            try:
                if json.loads(record["body"])["status"] != "ok":
                    record["error"] = "healthz status is not ok"
            except (ValueError, KeyError) as error:
                record["error"] = f"healthz body: {error!r}"
        self.records.append(record)
        return record


# -- the server process ------------------------------------------------------

#: Servers started and not yet stopped; :func:`run` stops any left over.
_LIVE: list["Server"] = []


class Server:
    """One ``repro.service`` subprocess with a fresh result-cache file."""

    def __init__(self, name: str, spans_out=None) -> None:
        self.cache_path = WORK / f"{name}-cache.json"
        self.log_path = WORK / f"{name}-stderr.log"
        self.cache_path.unlink(missing_ok=True)
        arguments = ["--jobs", "1", "--port", "0",
                     "--result-cache", str(self.cache_path)]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.service", *arguments]
        else:
            command = [sys.executable,
                       str(ROOT / "perfbench" / "traced_server.py"),
                       str(spans_out), *arguments]
        self.log = open(self.log_path, "wb")
        self.spawned = clock()
        # SIGINT stops the server; a caller started with it ignored (a
        # background shell job) must not pass that on.
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self.log,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        _LIVE.append(self)
        self.port = self._read_port()

    def _read_port(self, timeout: float = 60.0) -> int:
        buffered = b""
        deadline = clock() + timeout
        while b"\n" not in buffered:
            remaining = deadline - clock()
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        max(remaining, 0))
            chunk = os.read(self.process.stdout.fileno(), 4096) \
                if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError("server did not start:\n"
                                   + self.log_path.read_text()[-2000:])
            buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    async def ready(self) -> float:
        """Poll ``/healthz``; seconds from spawn to the first 200."""
        load = Load(self.port)
        deadline = clock() + 60.0
        while clock() < deadline and self.process.poll() is None:
            try:
                status, _ = await load.exchange("GET", "/healthz")
                if status == 200:
                    return clock() - self.spawned
            except OSError:
                pass
            await asyncio.sleep(0.005)
        raise RuntimeError("server never answered /healthz:\n"
                           + self.log_path.read_text()[-2000:])

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def stop(self) -> None:
        """SIGINT (the service saves its cache, the tracer its spans).

        Leaves ``cache_bytes`` and removes the cache file; the stderr log
        stays only if the server wrote to it.
        """
        if self not in _LIVE:
            return
        _LIVE.remove(self)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()
        self.cache_bytes = self.cache_path.stat().st_size \
            if self.cache_path.exists() else 0
        self.cache_path.unlink(missing_ok=True)
        if self.log_path.stat().st_size == 0:
            self.log_path.unlink()


# -- the workload -----------------------------------------------------------

async def _closed_loop(load: Load, stream) -> None:
    for request in stream:
        await load.call("cold", "POST", "/inventory", request)


async def _reader(load: Load, warm: list[dict], start: float,
                  writer: asyncio.Task, scale: str) -> None:
    """Open loop on a fixed schedule while the writer runs, one in flight."""
    free_at = start
    index = 0
    while not writer.done():
        due = start + index * READ_PERIOD_S[scale]
        await asyncio.sleep(max(due - clock(), 0.0))
        if writer.done():
            break
        # Lateness of the generator itself: behind both the schedule and
        # the moment its connection slot came free.
        late = clock() - max(due, free_at)
        if (index + 1) % HEALTH_EVERY == 0:
            await load.call("health", "GET", "/healthz", due=due, late=late)
        else:
            request = warm[index % len(warm)]
            await load.call("warm", "POST", "/inventory", request, due=due,
                            late=late)
        free_at = clock()
        index += 1


async def _session(seed: int, seconds: float, scale: str,
                   server: Server) -> dict:
    """One measured window against ``server`` plus the output checks.

    Request failures stay on their records; ``problems`` lists the rest.
    """
    load = Load(server.port)
    problems: list[str] = []
    stored: dict[int, bytes] = {}
    cold = request_stream(seed, "cold", scale, blocks_for(seconds, scale))
    warm: list[dict] = []
    smallest = sorted(request_stream(seed, "warm", scale, 1),
                      key=lambda request: request["n_tags"])
    for request in smallest[:WARM_SET]:
        record = await load.call("warmup", "POST", "/inventory", request)
        warm.append(request)
        stored[request["seed"]] = record["body"]
    start = clock()
    writer = asyncio.ensure_future(_closed_loop(load, cold))
    await asyncio.gather(writer, _reader(load, warm, start, writer, scale))
    end = max(record["done"] for record in load.records)
    window = [record for record in load.records
              if record["kind"] != "warmup"]
    for record in load.records:
        if record["kind"] == "warm" and record["error"] is None \
                and record["body"] != stored[record["request"]["seed"]]:
            record["error"] = "stored request answered with other bytes"
        if record["kind"] == "cold" and record["error"] is None:
            stored[record["request"]["seed"]] = record["body"]
    posts = [record for record in load.records
             if record["kind"] in ("cold", "warm", "warmup")]
    stats = await load.call("stats", "GET", "/stats")
    served = json.loads(stats["body"])["requests_served"] \
        if stats["error"] is None else None
    if served != len(posts):
        problems.append(f"/stats counts {served} requests served, "
                        f"{len(posts)} were sent")

    done_cold = [record for record in load.records
                 if record["kind"] == "cold" and record["error"] is None]
    rng = random.Random(f"{seed}:identity")
    sample = done_cold[:1] + rng.sample(
        done_cold[1:], min(IDENTITY_SAMPLE - 1, len(done_cold) - 1))
    for record in sample:
        again = await load.call("reissue", "POST", "/inventory",
                                record["request"])
        issues = identity_problems(record["body"], again["body"],
                                   recompute(record["request"]))
        if issues:
            record["error"] = "; ".join(issues)
    return {"load": load, "start": start, "end": end, "window": window,
            "problems": problems}


def _lateness(records: list[dict]) -> list[float]:
    return [record["late"] for record in records if record["kind"] in
            ("warm", "health")]


def _summary(result: dict) -> dict:
    records = result["window"]
    elapsed = result["end"] - result["start"]

    def latencies(kind: str) -> list[float]:
        return [record["done"] - record["due"] for record in records
                if record["kind"] == kind and record["error"] is None]
    cold = [record for record in records
            if record["kind"] == "cold" and record["error"] is None]
    return {"cold": latencies("cold"), "warm": latencies("warm"),
            "health": latencies("health"),
            "cold_per_s": len(cold) / elapsed,
            "slots_per_s": sum(simulated_slots(record["body"])
                               for record in cold) / elapsed}


async def _run(seed: int, seconds: float, trace: bool, scale: str) -> dict:
    WORK.mkdir(exist_ok=True)
    blocks = blocks_for(seconds / 2 if trace else seconds, scale)
    report: dict = {"inputs": {
        "request_seed": seed, "ladder": LADDER[scale],
        "blocks": blocks, "cold_requests": blocks * len(LADDER[scale]),
        "order": [request["n_tags"] for request in
                  request_stream(seed, "cold", scale, 1)]}}
    report["inputs"]["reader"] = {
        "read_period_s": READ_PERIOD_S[scale],
        "health_every": HEALTH_EVERY, "warm_set": WARM_SET}
    if not trace:
        setups = []
        for sample in range(SETUP_SAMPLES):
            server = Server(f"service_mixed-{sample}")
            try:
                setups.append(await server.ready())
            finally:
                if sample < SETUP_SAMPLES - 1:
                    server.stop()
        try:
            result = await _session(seed, seconds, scale, server)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        figures = _summary(result)
        cold = figures["cold"]
        metrics = {
            "setup_s": (median(setups), "s", len(setups)),
            "latency_mean_s": (mean(cold), "s", len(cold)),
            "latency_p75_s": (quantile(cold, 0.75), "s", len(cold)),
            "units_per_s": (figures["cold_per_s"], "1/s", len(cold)),
            "sim_slots_per_s": (figures["slots_per_s"], "slots/s",
                                len(cold)),
            "peak_rss_mb": (rss, "MB", 1),
        }
        late = _lateness(result["window"])
        report["extra"] = {
            "cold_p50_s": (median(cold), "s", len(cold)),
            "cold_p90_s": (quantile(cold, 0.9), "s", len(cold)),
            "warm_p50_s": (median(figures["warm"]), "s",
                           len(figures["warm"])),
            "warm_p99_s": (quantile(figures["warm"], 0.99), "s",
                           len(figures["warm"])),
            "health_p90_s": (quantile(figures["health"], 0.9), "s",
                             len(figures["health"])),
            "loadgen.late_p99_s": (quantile(late, 0.99), "s", len(late)),
        }
    else:
        plain = Server("service_mixed-plain")
        try:
            await plain.ready()
            baseline = await _session(seed, seconds / 2, scale, plain)
        finally:
            plain.stop()
        spans_path = WORK / "spans-service_mixed.json"
        spans_path.unlink(missing_ok=True)
        server = Server("service_mixed-traced", spans_out=spans_path)
        try:
            await server.ready()
            result = await _session(seed, seconds / 2, scale, server)
        finally:
            server.stop()
        dump = json.loads(spans_path.read_text())
        units = len({span["request"] for span in dump["spans"]
                     if span["name"] == "sharding.plan_shards"})
        client = [{"seed": record["request"]["seed"], "sent": record["sent"],
                   "done": record["done"]}
                  for record in result["load"].records
                  if record["request"] is not None]
        values = layers.layer_metrics(dump, units=units,
                                      cache_bytes=server.cache_bytes,
                                      client=client)
        values["loadgen.late_p99_s"] = quantile(
            _lateness(result["window"]), 0.99)
        values["loadgen.in_flight_max"] = float(
            result["load"].in_flight_max)
        values["trace.overhead_frac"] = \
            _summary(baseline)["cold_per_s"] / _summary(result)["cold_per_s"] \
            - 1.0
        values["trace.coverage"] = layers.coverage(
            dump, [(result["start"], result["end"])])
        metrics = {name: (value, None, None)
                   for name, value in values.items()}
        result["problems"] += baseline["problems"]
        result["load"].records += baseline["load"].records
    problems = result["problems"]
    late = [value for value in _lateness(result["window"])
            if value > LATE_LIMIT_S]
    if late:
        problems.append(
            f"load generator ran {max(late):.3f} s late ({len(late)} reads)")
    records = result["load"].records
    errors = [f"{record['kind']} request: {record['error']}"
              for record in records if record["error"] is not None]
    report["problems"] = errors + problems
    return {"attempted": len(records), "failed": len(report["problems"]),
            "metrics": metrics, "report": report}


def run(seed: int, seconds: float, trace: bool, scale: str) -> dict:
    try:
        return asyncio.run(_run(seed, seconds, trace, scale))
    finally:
        for server in list(_LIVE):
            server.stop()
