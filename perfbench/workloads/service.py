"""``service``: the compile daemon under two closed-loop clients.

One ``python -m repro serve`` daemon (process workers, default count) on
a free port, driven from this process by two client threads with one
connection each.  The protocol holds one request per connection, so the
loop is closed: a client sends its next request when the last answer
arrives.  The router is left out; on a 2-CPU box its processes would
compete with the workers.

The timed section is a run of rounds.  In each round both clients first
send their warm requests, then, after a barrier, one cold request each;
a barrier before the next round's warm phase waits for both cold
answers.  So a warm request never shares the two CPUs with a compile:
the warm metrics time the cache-read path, and an allocator change does
not move them (it moves the cold ones).  The host's own load still
reaches the warm tail; the README gives the measurements.

The request kinds:

* warm: keys compiled during set-up, answered from the artifact cache
  without reaching a worker;
* cold: a fresh (program, allocator, k) key, compiled and executed by a
  worker;
* pair: a fresh key that both clients send in the same cold phase.  The
  daemon compiles such a key twice (two misses for one key), which
  ``service.duplicate_compiles`` counts.

No measured traffic mix exists for the service, so the proportions
follow from the metrics the workload reports and are otherwise
assumptions:

* 10 warm requests per cold one (``WARM_PER_ROUND``): p99 needs ten
  times the samples p90 does (1000 against 100), so at this ratio
  ``service.warm.p99_ms`` and ``op_p90_ms`` keep the same number of
  samples beyond them.
* ``MIN_ROUNDS`` = 50 rounds at the least: 50 x 2 clients x 10 warm =
  1000 warm samples, 50 x 2 = 100 cold.  Above that, the rounds scale
  with ``--seconds`` (``ROUNDS_PER_SECOND``, measured).
* one cold phase in 4 is a pair (``PAIR_EVERY``): an assumption.  It
  makes pair requests a quarter of the cold samples, more than the 10%
  beyond p90, so a change in how long a pair waits can move
  ``op_p90_ms``, while three cold phases in four stay ordinary
  compiles that set ``op_p50_ms``.
* keys are made the same way for warm and cold requests: generated
  programs cycling through the small, medium and large sizes with equal
  weight, each under all three allocators at one k.  The warm keys are
  three programs (one per size), so a warm and a cold request differ
  only in whether the key is cached.

The programs are generated from fixed generator seeds, so every seed
sends the same set of keys; the seed decides their order, which keys are
pairs, and which warm key each warm request names.

Every answer is checked: ``ok``, output equal to the reference run made
in-process during set-up, and one ``image_sha256`` per key.

An operation, for the end-to-end latencies ``op_p50_ms`` and
``op_p90_ms``, is a cold request (pairs included): the requests that
run the compiler.  Warm latencies are per-layer metrics
(``service.warm.p50_ms``, ``service.warm.p99_ms``): they follow the
host's CPU steal more than the daemon (see the README).  ``cycles_<a>``
and ``code_bytes`` sum the ``cycles`` and ``image_bytes`` the daemon
answered for each distinct cold key; every seed sends the same keys, so
they are exact.  ``peak_rss_mb`` is the memory the service holds: the
sum of the peak RSS of the daemon and of each worker process, read from
``/proc`` after the timed section.  The sum, not the largest, because
which worker compiles which program changes with the seed.
"""

from __future__ import annotations

import math
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .. import stats
from ..common import Outcome, repeat_setup
from ..metrics import ALLOCATORS, K_VALUES
from ..trace import Tracer

WARM_BASE = 3000
COLD_BASE = 4000
SIZES = ("small", "medium", "large")
CLIENTS = 2
#: Programs behind the warm keys, one per size.
WARM_PROGRAMS = 3
#: Warm requests per client per round, for its one cold request.
WARM_PER_ROUND = 10
#: Every PAIR_EVERY-th round's cold phase is one same-key pair.
PAIR_EVERY = 4
#: The fewest rounds that keep ten samples beyond both tails.
MIN_ROUNDS = max(
    math.ceil(stats.min_samples(99) / (CLIENTS * WARM_PER_ROUND)),
    math.ceil(stats.min_samples(90) / CLIENTS),
)
#: Rounds per second of ``--seconds`` budget: a round took 0.10-0.18 s
#: on a 2-vCPU box, so the timed section lasts about ``--seconds``.
ROUNDS_PER_SECOND = 7
#: Daemon launches in set-up, for the median: each takes about 1 s and
#: five already read steady.
SETUP_REPEATS = 5
#: Seconds to wait for the daemon to start, and to drain on SIGTERM.
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0


@dataclass(frozen=True)
class Key:
    source: str
    allocator: str
    k: int
    program: int  # index into Prepared.references


@dataclass
class Daemon:
    process: subprocess.Popen
    port: int


#: One client's round: its warm keys, then its cold request's kind
#: ("cold" or "pair") and key.
Round = Tuple[List[Key], str, Key]


@dataclass
class Prepared:
    daemon: Optional[Daemon]
    warm: List[Key]
    #: per client: its rounds, in order
    schedules: List[List[Round]]
    references: List[list]
    warm_sha: Dict[Key, str]
    setup_s: float
    distinct_cold: int = 0
    problems: List[str] = field(default_factory=list)


def _program(seed: int, size: str) -> str:
    from repro.testing.generator import random_source

    return random_source(seed, size)


def _reference(source: str) -> list:
    from repro.compiler import compile_source
    from repro.interp.machine import run_program

    return run_program(compile_source(source).reference_image()).output


def start_daemon(root: Path) -> Daemon:
    """Launch ``repro serve`` on a free port (the kernel picks it) and
    wait until it accepts connections."""
    log_dir = root / ".perfbench"
    log_dir.mkdir(exist_ok=True)
    with open(log_dir / "service-daemon.log", "ab") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            stdout=subprocess.PIPE,
            stderr=log,
            start_new_session=True,
        )
    try:
        ready, _, _ = select.select([process.stdout], [], [], START_TIMEOUT_S)
        line = process.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        return Daemon(process, port)
    except BaseException:
        stop_daemon(Daemon(process, 0))
        raise


def stop_daemon(daemon: Daemon) -> None:
    """SIGTERM (the daemon drains and reaps its workers), then SIGKILL the
    whole process group if it has not exited in time."""
    process = daemon.process
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    if process.stdout is not None:
        process.stdout.close()


def _client(port: int):
    from repro.service.client import ServiceClient

    return ServiceClient("127.0.0.1", port, timeout=120.0)


def _compile_payload(key: Key) -> Dict[str, Any]:
    return {"op": "compile", "source": key.source, "allocator": key.allocator, "k": key.k}


def _keys(base: int, programs: int, sources: List[str]) -> List[Key]:
    """Keys for ``programs`` generated programs (seeds ``base + i``,
    sizes in turn), each under every allocator at one k; appends the
    sources to ``sources``."""
    keys = []
    for index in range(programs):
        sources.append(_program(base + index, SIZES[index % len(SIZES)]))
        k = K_VALUES[index % len(K_VALUES)]
        keys += [Key(sources[-1], a, k, len(sources) - 1) for a in ALLOCATORS]
    return keys


def setup(
    root: Path,
    seed: int,
    seconds: float,
    warm_programs: int = WARM_PROGRAMS,
    rounds: Optional[int] = None,
) -> Prepared:
    rng = random.Random(seed)
    if rounds is None:
        rounds = max(MIN_ROUNDS, round(seconds * ROUNDS_PER_SECOND))
    pairs = rounds // PAIR_EVERY
    sources: List[str] = []
    warm = _keys(WARM_BASE, warm_programs, sources)
    # No cold key repeats within a run.
    needed = CLIENTS * (rounds - pairs) + pairs
    cold = _keys(COLD_BASE, math.ceil(needed / len(ALLOCATORS)), sources)[:needed]
    rng.shuffle(cold)
    pair_keys, single_keys = cold[:pairs], cold[pairs:]

    schedules: List[List[Round]] = [[] for _ in range(CLIENTS)]
    for r in range(rounds):
        pair = pair_keys.pop() if r % PAIR_EVERY == PAIR_EVERY - 1 else None
        for client in range(CLIENTS):
            warm_keys = [warm[rng.randrange(len(warm))] for _ in range(WARM_PER_ROUND)]
            if pair is not None:
                schedules[client].append((warm_keys, "pair", pair))
            else:
                schedules[client].append((warm_keys, "cold", single_keys.pop()))

    references = [_reference(source) for source in sources]
    warm_sha: Dict[Key, str] = {}
    problems: List[str] = []

    def launch() -> Daemon:
        daemon = start_daemon(root)
        try:
            with _client(daemon.port) as client:
                for key in warm:
                    sha = client.checked(_compile_payload(key))["image_sha256"]
                    if warm_sha.setdefault(key, sha) != sha:
                        problems.append(
                            f"warm key {key.allocator} k={key.k}:"
                            " image_sha256 changed between daemons"
                        )
        except BaseException:
            stop_daemon(daemon)
            raise
        return daemon

    daemon, setup_s = repeat_setup(SETUP_REPEATS, launch, discard=stop_daemon)
    return Prepared(
        daemon, warm, schedules, references, warm_sha, setup_s,
        distinct_cold=len(cold), problems=problems,
    )


def _drive(
    port: int,
    schedule: List[Round],
    barrier: threading.Barrier,
    results: List[Tuple[str, Key, float, Optional[Dict[str, Any]]]],
    tracer: Optional[Tracer],
    name: str,
    errors: List[str],
) -> None:
    """One closed-loop client, in step with the other at each phase.  A
    failure that stops the client is recorded in ``errors``; its unsent
    requests count as unanswered."""
    from repro.service.client import ServiceError

    try:
        with _client(port) as client:

            def send(kind: str, key: Key, trace: str) -> None:
                with tracer.span("service.request", trace=trace) if tracer else nullcontext():
                    started = time.perf_counter()
                    try:
                        response: Optional[Dict[str, Any]] = client.request(
                            _compile_payload(key)
                        )
                    except ServiceError:
                        response = None  # no answer
                results.append((kind, key, (time.perf_counter() - started) * 1000.0, response))

            for number, (warm_keys, kind, cold_key) in enumerate(schedule):
                barrier.wait()  # the last round's cold requests are answered
                for index, key in enumerate(warm_keys):
                    send("warm", key, f"{name}:{number}:{index}")
                barrier.wait()  # no warm request in flight; a pair leaves together
                send(kind, cold_key, f"{name}:{number}:cold")
    except Exception as err:  # keeps the other client from waiting forever
        errors.append(f"{name} stopped: {type(err).__name__}: {err}")
        barrier.abort()


def _stage_seconds(snapshot: Dict[str, Any], stage: str) -> float:
    return snapshot["stages"].get(stage, {}).get("wall_time_s", 0.0)


def _jobs_done(snapshot: Dict[str, Any]) -> int:
    return sum(w["jobs_done"] for w in snapshot["supervisor"]["workers"])


def _peak_rss_mb(pids: List[int]) -> float:
    """The sum of the peak RSS (``VmHWM``) of ``pids``, in MiB; a process
    that has gone counts 0."""
    total = 0.0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) / 1024.0
    return total


def run(prep: Prepared, tracer: Optional[Tracer] = None) -> Outcome:
    out = Outcome(problems=list(prep.problems))
    port = prep.daemon.port
    with _client(port) as control:
        before = control.stats()
        barrier = threading.Barrier(CLIENTS, timeout=120.0)
        results: List[List[Tuple[str, Key, float, Optional[Dict[str, Any]]]]] = [
            [] for _ in range(CLIENTS)
        ]
        errors: List[str] = []
        threads = [
            threading.Thread(
                target=_drive,
                args=(
                    port, prep.schedules[c], barrier, results[c], tracer, f"client{c}", errors
                ),
            )
            for c in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
        wall = time.perf_counter() - started
        if any(thread.is_alive() for thread in threads):
            out.problem("a client thread did not finish")
        for error in errors:
            out.problem(error)
        after = control.stats()
    pids = [prep.daemon.process.pid] + [
        w["pid"] for w in after["supervisor"]["workers"] if w["pid"] is not None
    ]

    from repro.testing.compare import outputs_equal

    latency: Dict[str, List[float]] = {"warm": [], "cold": []}
    server: Dict[str, List[float]] = {"warm": [], "cold": []}
    overhead: Dict[str, List[float]] = {"warm": [], "cold": []}
    shas: Dict[Key, str] = dict(prep.warm_sha)
    cycles = {allocator: 0 for allocator in ALLOCATORS}
    code_bytes = 0
    fallbacks = 0
    for schedule, client_results in zip(prep.schedules, results):
        scheduled = sum(len(warm_keys) + 1 for warm_keys, _, _ in schedule)
        out.attempted += scheduled
        out.failed += scheduled - len(client_results)
        for kind, key, ms, response in client_results:
            group = "warm" if kind == "warm" else "cold"
            if response is None or not response.get("ok"):
                out.failed += 1
                error = (response or {}).get("error", {"message": "no answer"})
                out.problem(f"{kind} {key.allocator} k={key.k}: {error.get('message')}")
                continue
            latency[group].append(ms)
            server[group].append(response["wall_ms"])
            overhead[group].append(ms - response["wall_ms"])
            if kind == "warm" and response.get("cache") != "hit":
                out.problem(f"warm key {key.allocator} k={key.k} missed the cache")
            if response.get("allocator_used") != key.allocator:
                fallbacks += 1
            sha = response.get("image_sha256")
            if group == "cold" and key not in shas:
                cycles[key.allocator] += response["cycles"]
                code_bytes += response["image_bytes"]
            if shas.setdefault(key, sha) != sha:
                out.failed += 1
                out.problem(f"{key.allocator} k={key.k}: image_sha256 changed for one key")
            elif not outputs_equal(response.get("output"), prep.references[key.program]):
                out.failed += 1
                out.problem(f"{kind} {key.allocator} k={key.k}: output differs from reference")

    out.metrics["setup_s"] = prep.setup_s
    out.metrics["wall_s"] = wall
    out.metrics["peak_rss_mb"] = _peak_rss_mb(pids)
    out.percentiles("op", latency["cold"], 50, 90)
    for allocator, total in cycles.items():
        out.metrics[f"cycles_{allocator}"] = total
    out.metrics["code_bytes"] = code_bytes

    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    restarts = after["supervisor"]["restarts"]
    if restarts:
        out.problem(f"{restarts} worker restarts")
    for group in ("cold", "warm"):
        out.layers[f"service.{group}.server_ms"] = (
            stats.median(server[group]) if server[group] else 0.0
        )
        out.layers[f"service.{group}.overhead_ms"] = (
            stats.median(overhead[group]) if overhead[group] else 0.0
        )
    for p in (50, 99):
        out.layers[f"service.warm.p{p}_ms"] = (
            stats.percentile(latency["warm"], p) if latency["warm"] else 0.0
        )
    out.layers.update(
        {
            "service.cache.hits": hits,
            "service.cache.misses": misses,
            "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.compiles": _jobs_done(after) - _jobs_done(before),
            "service.duplicate_compiles": misses - prep.distinct_cold,
            "service.worker_restarts": restarts,
            "regalloc.fallbacks": fallbacks,
        }
    )
    for stage in ("allocate", "validate", "execute"):
        out.layers[f"service.stage.{stage}_s"] = _stage_seconds(after, stage) - _stage_seconds(
            before, stage
        )
    return out


def check(prep: Prepared, out: Outcome) -> None:
    """Nothing left to check: :func:`run` checks every answer."""


def teardown(prep: Prepared) -> None:
    if prep.daemon is not None:
        stop_daemon(prep.daemon)
        prep.daemon = None
