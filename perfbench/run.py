#!/usr/bin/env python3
"""End-to-end serving benchmark for the Ratatouille recipe server.

Run from the repository root:

    python3 perfbench/run.py --workload web_recipe --seed 1 --seconds 40 --trace 0

Builds the repository's libraries and `ratatouille_cli` from source into
.bench_build/ (perfbench/CMakeLists.txt), makes the served gpt2-medium
checkpoint by seeded training the first time (cached in .bench_build/,
never committed; `--make-checkpoint` remakes it), starts the real
`ratatouille_cli serve` stack, drives one workload against it from this
single process, checks every output, and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics against `serve` with no
benchmark timing inside it. --trace 1 runs the same workload against the
tier chain assembled in one process by `perfbench_tool traced`, whose
timing proxies give the per-layer metrics and a per-request table that
adds up to the client-observed latency. See perfbench/README.md.
"""

import argparse
import asyncio
import ctypes
import json
import math
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "perfbench")
CLI = os.path.join(CMAKE_BUILD, "rt_tools", "ratatouille_cli")
TOOL = os.path.join(CMAKE_BUILD, "perfbench_tool")
MODEL_DIR = os.path.join(BUILD, "model")
RUN_DIR = os.path.join(BUILD, "run")

# The served model: gpt2-medium trained on the seeded synthetic corpus.
CORPUS = ["--model=gpt2-medium", "--recipes=400", "--seed=2022"]
TRAIN_EPOCHS = 3
CHECKPOINT = os.path.join(MODEL_DIR, "gpt2-medium-r400-s2022-e3.ckpt")
DATASET = os.path.join(MODEL_DIR, "dataset.json")

# Load budget: one process, and never more open connections than cores.
CONNECTIONS = max(1, min(4, os.cpu_count() or 1))
MAX_BATCH = 8
SETUPS_PER_RUN = 3

# Latency limits a request must meet to count toward goodput.
TTFT_LIMIT_MS = 300.0
GAP_LIMIT_MS = 100.0
UNARY_LIMIT_MS = 1000.0
BATCH_LIMIT_MS = 10000.0

# bulk_table1: a beam-search request (cycling through the test split)
# is due every BEAM_PERIOD_S on the open-loop connections, which it
# shares with the interactive stream; the greedy Table I rounds get the
# rest of the connection budget. Beams are short: a full-length beam
# stalls the scheduler for 100-300 ms, which made the interactive p90
# land on one side or the other of that stall from run to run (spreads
# of 25-75% over five seeds), while a 24-token beam stalls it ~10 ms.
BEAM_PERIOD_S = 1.0
BEAM_WIDTH = 4
BEAM_MAX_TOKENS = 24
OPEN_LOOP_CONNECTIONS = max(1, CONNECTIONS // 2)

LEGAL_FINISH = {"stop_token", "max_tokens", "context_full"}
DEFAULT_MAX_TOKENS = 256
REPLAYS = 4

WORKLOADS = {
    # Figs. 4-5 path: frontend -> router -> 2 replicas; short prompts,
    # sampled full-length recipes, half page-style unary, half streamed.
    "web_recipe": dict(quant="fp32", replicas=2, entry="frontend", rate=16.0),
    # Long ingredient lists straight to one backend; short greedy
    # completions; exact repeats, shared stems and unshared lists.
    "pantry_prefill": dict(quant="fp32", replicas=1, entry="backend",
                           rate=6.0),
    # Greedy Table I rounds (batch class) on int8 weights beside an
    # open-loop interactive stream and periodic short beam searches.
    "bulk_table1": dict(quant="int8", replicas=1, entry="backend", rate=6.0),
}


# With four or more cores the client runs on the last core and every
# serving process on the others, so the load generator never preempts a
# scheduler thread (measured: it halves the run-to-run spread of
# decode_tok_s and latency_ms.p90 on web_recipe).
PIN = (os.cpu_count() or 1) >= 4
# Serving processes start with address-space randomization off: decode
# speed depends on where the heap lands (identical Table I rounds read
# ~2400 or ~3450 tok/s from one launch to the next with it on, ~3700 to
# 4000 with it off), and that lottery would swamp any change under test.
ADDR_NO_RANDOMIZE = 0x0040000


def server_preexec():
    """Runs in each serving child before exec (see PIN and
    ADDR_NO_RANDOMIZE)."""
    if PIN:
        os.sched_setaffinity(0, set(range(os.cpu_count() - 1)))
    ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(message):
    log("perfbench: " + message)
    sys.exit(1)


# ---------------------------------------------------------------------------
# Build, checkpoint, dataset


def run_checked(cmd, **kwargs):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=REPO, **kwargs)
    if result.returncode != 0:
        die("command failed (%d): %s" % (result.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        die("no src/ next to perfbench/: run from a full checkout")
    if not os.path.isfile(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", CMAKE_BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", CMAKE_BUILD, "-j%d" % CONNECTIONS])


def make_checkpoint(force=False):
    os.makedirs(MODEL_DIR, exist_ok=True)
    if os.path.isfile(CHECKPOINT) and not force:
        return
    tmp = CHECKPOINT + ".tmp"
    if os.path.exists(tmp):
        os.remove(tmp)  # the trainer would resume from a stale file
    log("perfbench: training the served checkpoint (seeded, cached)")
    run_checked([CLI, "train"] + CORPUS +
                ["--epochs=%d" % TRAIN_EPOCHS, "--checkpoint=" + tmp])
    os.replace(tmp, CHECKPOINT)


def load_dataset():
    if not os.path.isfile(DATASET):
        out = subprocess.run([TOOL, "dataset"] + CORPUS[1:], cwd=REPO,
                             stdout=subprocess.PIPE, stderr=sys.stderr)
        if out.returncode != 0:
            die("perfbench_tool dataset failed")
        with open(DATASET + ".tmp", "wb") as f:
            f.write(out.stdout)
        os.replace(DATASET + ".tmp", DATASET)
    with open(DATASET) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Workload inputs (all drawn from --seed)


class Req:
    """One generate request of a workload and what the client saw."""

    def __init__(self, due, body, cls="interactive", ref=-1):
        self.due = due          # seconds after phase start (open loop)
        self.body = body
        self.cls = cls
        self.ref = ref          # test-split index for Table I requests
        self.entry = None
        self.stretch = 0        # which serving launch it went to
        self.t_due = self.t_sent = self.t_done = None
        self.token_times = []
        self.ids = []
        self.indices = []
        self.done = None
        self.status = None
        self.payload = None
        self.error = None

    @property
    def stream(self):
        return bool(self.body.get("stream"))

    @property
    def max_tokens(self):
        return self.body.get("max_tokens", DEFAULT_MAX_TOKENS)


def arrival_times(rng, rate, seconds):
    """A Poisson process of `rate` over [0, seconds), conditioned on its
    expected count: that many uniform arrival times, sorted."""
    count = max(1, int(round(rate * seconds)))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def balanced(rng, kinds, count):
    """`count` labels split as evenly as possible over `kinds`, shuffled:
    every seed gets the same mix, only the order differs."""
    labels = [kinds[i % len(kinds)] for i in range(count)]
    rng.shuffle(labels)
    return labels


def web_recipe_load(rng, names, rate, seconds):
    times = arrival_times(rng, rate, seconds)
    reqs = []
    for due, kind in zip(times, balanced(rng, ("page", "api"), len(times))):
        ingredients = rng.sample(names, rng.randint(2, 8))
        if kind == "page":
            body = {"ingredients": ingredients}  # server defaults
        else:
            body = {"ingredients": ingredients, "stream": True,
                    "temperature": 0.8, "top_k": 10,
                    "seed": rng.randrange(1, 2**31)}
        reqs.append(Req(due, body))
    return reqs


PANTRY_POPULAR = 3      # popular lists, each repeated exactly
PANTRY_LIST_LEN = 50    # ingredients in a popular list
PANTRY_STEMS = 3        # shared leading stems
PANTRY_STEM_LEN = 46    # stem ingredients, then PANTRY_TAIL_LEN unshared
PANTRY_TAIL_LEN = 3
PANTRY_UNSHARED = (12, 24, 36, 48, 60)  # lengths of unshared lists


def pantry_load(rng, names, rate, seconds):
    popular = [rng.sample(names, PANTRY_LIST_LEN)
               for _ in range(PANTRY_POPULAR)]
    stems = [rng.sample(names, PANTRY_STEM_LEN) for _ in range(PANTRY_STEMS)]
    times = arrival_times(rng, rate, seconds)
    kinds = balanced(rng, ("repeat", "stem", "unshared"), len(times))
    lengths = balanced(rng, PANTRY_UNSHARED, len(times))
    reqs = []
    for i, (due, kind) in enumerate(zip(times, kinds)):
        if kind == "repeat":
            ingredients = list(popular[i % PANTRY_POPULAR])
        elif kind == "stem":
            stem = stems[i % PANTRY_STEMS]
            rest = [n for n in names if n not in stem]
            ingredients = stem + rng.sample(rest, PANTRY_TAIL_LEN)
        else:
            ingredients = rng.sample(names, lengths[i])
        body = {"ingredients": ingredients, "stream": True, "greedy": True,
                "max_tokens": 24}
        reqs.append(Req(due, body))
    return reqs


def interactive_stream_load(rng, names, rate, seconds):
    reqs = []
    for due in arrival_times(rng, rate, seconds):
        body = {"ingredients": rng.sample(names, rng.randint(2, 6)),
                "stream": True, "temperature": 0.8, "top_k": 10,
                "max_tokens": 32, "seed": rng.randrange(1, 2**31)}
        reqs.append(Req(due, body))
    return reqs


def table1_round(test, stream):
    """Every held-out test-split ingredient list: batch class, greedy.
    Timed rounds are unary; the one streamed round per run gives the
    token ids the output checks need."""
    return [Req(0.0, {"ingredients": item["ingredients"], "greedy": True,
                      "stream": stream, "priority": "batch"},
                cls="batch", ref=i)
            for i, item in enumerate(test)]


def beam_schedule(test, seconds):
    """Beam-search requests due at a fixed period (the scheduler runs
    them inline, stalling every co-scheduled row)."""
    count = int(seconds / BEAM_PERIOD_S)
    return [Req((k + 0.5) * BEAM_PERIOD_S,
                {"ingredients": test[k % len(test)]["ingredients"],
                 "beam_width": BEAM_WIDTH, "max_tokens": BEAM_MAX_TOKENS,
                 "priority": "batch"},
                cls="batch")
            for k in range(count)]


# ---------------------------------------------------------------------------
# HTTP/1.1 client (one connection per request, Connection: close)


# Token frames are most of what the client reads; their two integer
# fields are taken by pattern (other frames go through json.loads).
TOKEN_INDEX = re.compile(r'"index":(\d+)[,}]')
TOKEN_ID = re.compile(r'"token_id":(\d+)[,}]')


class Client:
    def __init__(self, connections):
        self.sem = asyncio.Semaphore(connections)

    async def http(self, port, method, path, body=None, on_event=None):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            data = b"" if body is None else json.dumps(body).encode()
            head = ("%s %s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
                    "Connection: close\r\n" % (method, path, port))
            if body is not None:
                head += ("Content-Type: application/json\r\n"
                         "Content-Length: %d\r\n" % len(data))
            writer.write(head.encode() + b"\r\n" + data)
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
            if headers.get("transfer-encoding", "").lower() == "chunked":
                parts, pending = [], b""
                while True:
                    size_line = await reader.readline()
                    size = int(size_line.split(b";")[0].strip() or b"0", 16)
                    if size == 0:
                        while (await reader.readline()) not in (b"\r\n",
                                                                 b"\n", b""):
                            pass
                        break
                    chunk = await reader.readexactly(size)
                    await reader.readexactly(2)
                    if on_event is None:
                        parts.append(chunk)
                        continue
                    pending += chunk
                    now = time.monotonic()
                    while b"\n\n" in pending:
                        event, pending = pending.split(b"\n\n", 1)
                        on_event(event.decode(), now)
                payload = b"".join(parts)
            elif "content-length" in headers:
                payload = await reader.readexactly(
                    int(headers["content-length"]))
            else:
                payload = await reader.read()
            return status, payload
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def get_json(self, port, path):
        async with self.sem:
            status, payload = await self.http(port, "GET", path)
        if status != 200:
            raise RuntimeError("GET %s -> %d" % (path, status))
        return json.loads(payload)

    async def generate(self, req, port, t_due, sem=None):
        """Sends one request when a connection is free; times it from
        `t_due` (coordinated omission counted)."""
        req.t_due = t_due
        req.entry = port

        def on_event(text, now):
            if text.startswith("event: token\n"):
                index, token = TOKEN_INDEX.search(text), TOKEN_ID.search(text)
                if index and token:
                    req.token_times.append(now)
                    req.ids.append(int(token.group(1)))
                    req.indices.append(int(index.group(1)))
                    return
            kind, data = None, None
            for line in text.split("\n"):
                if line.startswith("event:"):
                    kind = line[6:].strip()
                elif line.startswith("data:"):
                    data = line[5:].strip()
            if data is None:
                return
            frame = json.loads(data)
            if kind == "token":
                req.token_times.append(now)
                req.ids.append(frame["token_id"])
                req.indices.append(frame["index"])
            elif kind == "done":
                req.done = frame
            else:
                req.error = frame

        async with (sem or self.sem):
            req.t_sent = time.monotonic()
            try:
                status, payload = await self.http(
                    port, "POST", "/v1/generate", req.body,
                    on_event if req.stream else None)
            except (OSError, asyncio.IncompleteReadError, ValueError) as e:
                req.error = repr(e)
                req.t_done = time.monotonic()
                return
        req.t_done = time.monotonic()
        req.status = status
        if status == 200 and not req.stream:
            try:
                req.payload = json.loads(payload)
            except ValueError:
                req.error = "unary body is not JSON"


def request_problem(req):
    """Why a finished request counts as failed or wrong, or None."""
    if req.error is not None:
        return "error: %s" % (req.error,)
    if req.status != 200:
        return "status %s" % req.status
    if req.stream:
        done = req.done
        if done is None:
            return "stream without done frame"
        if done.get("finish_reason") not in LEGAL_FINISH:
            return "finish_reason %r" % done.get("finish_reason")
        n = len(req.ids)
        if req.indices != list(range(n)):
            return "token frame indices not 0..n-1"
        usage = done.get("usage", {})
        if usage.get("completion_tokens") != n or \
                done.get("tokens_generated") != n:
            return "token frames %d != usage %r" % (n, usage)
        if n > req.max_tokens:
            return "max_tokens exceeded"
        return None
    body = req.payload or {}
    if body.get("finish_reason") not in LEGAL_FINISH:
        return "finish_reason %r" % body.get("finish_reason")
    usage = body.get("usage", {})
    if not 0 <= usage.get("completion_tokens", -1) <= req.max_tokens:
        return "usage %r" % usage
    if "recipe" not in body:
        return "no recipe"
    return None


# ---------------------------------------------------------------------------
# Servers


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http_status(port, path, timeout=1.0):
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=timeout) as s:
            s.sendall(("GET %s HTTP/1.1\r\nHost: x\r\nConnection: close"
                       "\r\n\r\n" % path).encode())
            line = s.makefile("rb").readline()
            return int(line.split()[1])
    except (OSError, IndexError, ValueError):
        return None


class Serve:
    """One `ratatouille_cli serve` process tree for a workload."""

    def __init__(self, workload, index):
        self.w = WORKLOADS[workload]
        self.backend_port = free_port()
        self.frontend_port = free_port()
        self.log_path = os.path.join(RUN_DIR, "serve-%d.log" % index)
        cmd = [CLI, "serve"] + CORPUS + [
            "--checkpoint=" + CHECKPOINT,
            "--max-batch=%d" % MAX_BATCH,
            "--replicas=%d" % self.w["replicas"],
            "--quant=" + self.w["quant"],
            "--backend-port=%d" % self.backend_port,
            "--frontend-port=%d" % self.frontend_port,
            "--postmortem-dir=" + os.path.join(RUN_DIR, "postmortem"),
        ]
        self.log = open(self.log_path, "wb")
        self.t_launch = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=REPO, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     start_new_session=True,
                                     preexec_fn=server_preexec)

    @property
    def entry_port(self):
        return (self.frontend_port if self.w["entry"] == "frontend"
                else self.backend_port)

    def wait_ready(self, timeout=120.0):
        """Seconds from launch to the first 200 on the entry tier."""
        while True:
            if http_status(self.entry_port, "/v1/healthz", 0.5) == 200:
                return time.monotonic() - self.t_launch
            if self.proc.poll() is not None:
                die("serve exited early; see " + self.log_path)
            if time.monotonic() - self.t_launch > timeout:
                die("serve not healthy after %.0fs" % timeout)
            time.sleep(0.002)

    def replicas(self):
        """(pid, port) of each process that runs a BackendService."""
        if self.w["replicas"] == 1:
            return [(self.proc.pid, self.backend_port)]
        with open(self.log_path, "r", errors="replace") as f:
            text = f.read()
        found = re.findall(r"replica \d+ pid=(\d+) http://127\.0\.0\.1:(\d+)",
                           text)
        return [(int(pid), int(port)) for pid, port in found]

    def pids(self):
        pids = {self.proc.pid}
        pids.update(pid for pid, _ in self.replicas())
        return sorted(pids)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        # Anything left in the process group (a replica the supervisor
        # did not reap) is killed and waited for.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        self.proc.wait()
        self.log.close()


def vm_hwm_mb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def host_cpu():
    """(steal, total) jiffies of all CPUs from /proc/stat: steal is time a
    virtual CPU wanted to run but the host ran something else."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


# ---------------------------------------------------------------------------
# Statistics


def pct(values, q):
    """Nearest-rank-interpolated percentile (statistics.quantiles style)."""
    values = sorted(values)
    if not values:
        return float("nan")
    if len(values) == 1:
        return values[0]
    pos = (len(values) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def ms(seconds):
    return seconds * 1000.0


def worst_gaps(reqs):
    """Per stream: the largest gap between consecutive token frames, ms."""
    return [ms(max(b - a for a, b in zip(r.token_times, r.token_times[1:])))
            for r in reqs if r.stream and len(r.token_times) > 1]


def tpots(reqs):
    """Per stream: (last token - first token) / (tokens - 1), in ms."""
    return [ms(r.token_times[-1] - r.token_times[0]) /
            (len(r.token_times) - 1)
            for r in reqs if r.stream and len(r.token_times) > 1]


# BLEU, written independently of rt::eval: modified n-gram precision
# with multi-reference clipping, add-epsilon smoothing of zero matches,
# and the brevity penalty against the shortest reference. Tokens are
# runs of non-whitespace in the C locale's sense of whitespace.
WS = re.compile(r"[ \t\n\v\f\r]+")


def words(text):
    return [w for w in WS.split(text) if w]


def ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i:i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def corpus_bleu(candidates, references, max_n=4, epsilon=0.1):
    matches = [0] * max_n
    totals = [0] * max_n
    cand_len = ref_len = 0
    for cand_text, ref_text in zip(candidates, references):
        cand, ref = words(cand_text), words(ref_text)
        for n in range(1, max_n + 1):
            ref_counts = ngram_counts(ref, n)
            for gram, count in ngram_counts(cand, n).items():
                totals[n - 1] += count
                matches[n - 1] += min(count, ref_counts.get(gram, 0))
        cand_len += len(cand)
        ref_len += len(ref)
    if cand_len == 0:
        return 0.0
    log_sum, orders = 0.0, 0
    for n in range(max_n):
        if totals[n] == 0:
            continue
        m = float(matches[n]) if matches[n] else epsilon
        log_sum += math.log(m / totals[n])
        orders += 1
    if orders == 0:
        return 0.0
    brevity = 1.0
    if cand_len < ref_len:
        brevity = math.exp(1.0 - float(ref_len) / cand_len)
    return brevity * math.exp(log_sum / orders)


# ---------------------------------------------------------------------------
# One run


class Run:
    def __init__(self, args):
        self.args = args
        self.name = args.workload
        self.w = WORKLOADS[args.workload]
        self.rng = random.Random("%s/%d" % (args.workload, args.seed))
        self.problems = []
        self.requests = []       # every generate request sent
        self.load = []           # the open-loop phase
        self.rounds = []         # timed Table I rounds: (reqs, seconds)
        self.check_round = []    # the streamed, untimed Table I round

    def problem(self, text):
        if len(self.problems) < 20:
            log("perfbench: CHECK FAILED: " + text)
        self.problems.append(text)

    async def open_loop(self, client, reqs, pick_port, t0, sem=None):
        tasks = []
        for req in reqs:
            delay = t0 + req.due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(
                client.generate(req, pick_port(req), t0 + req.due, sem)))
        await asyncio.gather(*tasks)

    async def closed_loop(self, client, reqs, port, workers, sem=None):
        queue = list(reversed(reqs))

        async def worker():
            while queue:
                req = queue.pop()
                await client.generate(req, port, time.monotonic(), sem)

        await asyncio.gather(*(worker() for _ in range(workers)))

    async def table1(self, client, port, workers, sem=None):
        """One timed Table I round (unary)."""
        reqs = table1_round(self.dataset["test"], stream=False)
        start = time.monotonic()
        await self.closed_loop(client, reqs, port, workers, sem)
        seconds = time.monotonic() - start
        self.rounds.append((reqs, seconds))
        self.requests.extend(reqs)
        return reqs

    async def checks(self, client, port):
        """After the load: the streamed Table I round whose token ids the
        output checks use, then the batch-1 replays."""
        self.check_round = table1_round(self.dataset["test"], stream=True)
        await self.closed_loop(client, self.check_round, port, CONNECTIONS)
        self.requests.extend(self.check_round)
        await self.replay(client, port)

    def make_load(self):
        """The open-loop requests of the whole run (drawn from --seed)."""
        names = self.dataset["ingredients"]
        make = {"web_recipe": web_recipe_load,
                "pantry_prefill": pantry_load,
                "bulk_table1": interactive_stream_load}[self.name]
        self.load = make(self.rng, names, self.w["rate"], self.args.seconds)

    async def drive(self, client, reqs, seconds, pick_port, table1_port):
        """One stretch of the workload: the open-loop requests `reqs`
        (due within `seconds`) plus its Table I rounds."""
        self.requests.extend(reqs)
        t0 = time.monotonic() + 0.05
        if self.name == "bulk_table1":
            # Open-loop traffic (interactive stream and periodic beams)
            # and the Table I rounds (back to back, whole rounds only)
            # split the connection budget.
            beams = beam_schedule(self.dataset["test"], seconds)
            self.requests.extend(beams)
            open_sem = asyncio.Semaphore(OPEN_LOOP_CONNECTIONS)
            batch = max(1, CONNECTIONS - OPEN_LOOP_CONNECTIONS)
            loader = asyncio.ensure_future(self.open_loop(
                client, sorted(reqs + beams, key=lambda r: r.due), pick_port,
                t0, open_sem))
            while True:
                await self.table1(client, table1_port, batch,
                                  asyncio.Semaphore(batch))
                if time.monotonic() - t0 >= seconds:
                    break
            await loader
            return
        await self.open_loop(client, reqs, pick_port, t0)
        await self.table1(client, table1_port, CONNECTIONS)

    async def replay(self, client, port):
        """Replays a seeded sample of streamed requests one at a time
        (batch 1); each must reproduce its token ids."""
        pool = [r for r in self.load if r.stream and r.status == 200]
        sample = random.Random(self.args.seed).sample(
            pool, min(REPLAYS, len(pool)))
        for orig in sample:
            again = Req(0.0, dict(orig.body))
            await client.generate(again, port, time.monotonic())
            self.requests.append(again)
            if again.ids != orig.ids:
                self.problem("replay at batch 1 changed token ids (%s)" %
                             json.dumps(orig.body)[:120])

    def check_outputs(self):
        """Runs perfbench_tool check: argmax re-encode and BLEU."""
        greedy, seen = [], set()
        first_round = self.check_round
        candidates = [r for r in self.requests
                      if r.stream and r.body.get("greedy") and
                      r.status == 200]
        by_key = {}  # identical greedy requests (repeats, rounds) must agree
        for r in candidates:
            key = json.dumps(r.body, sort_keys=True)
            if key in by_key and by_key[key] != r.ids:
                self.problem("greedy request gave two different outputs")
            by_key.setdefault(key, r.ids)
        # Unary Table I answers must match the streamed round's done frame.
        streamed = {r.ref: r.done for r in first_round
                    if request_problem(r) is None}
        for reqs, _ in self.rounds:
            for r in reqs:
                want = streamed.get(r.ref)
                if want is None or request_problem(r) is not None:
                    continue
                got = r.payload
                if (got["recipe"] != want.get("recipe") or
                        got["usage"]["completion_tokens"] !=
                        want["usage"]["completion_tokens"]):
                    self.problem("unary Table I answer %d differs from the "
                                 "streamed one" % r.ref)
        for r in first_round + candidates:
            if not (r.stream and r.body.get("greedy") and r.status == 200):
                continue
            key = json.dumps(r.body, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            greedy.append({"ingredients": r.body["ingredients"],
                           "ids": r.ids,
                           "prompt_tokens": r.done["usage"]["prompt_tokens"],
                           "ref": r.ref if r in first_round else -1})
        path = os.path.join(RUN_DIR, "check-in.json")
        with open(path, "w") as f:
            json.dump({"greedy": greedy}, f)
        out = subprocess.run(
            [TOOL, "check"] + CORPUS[1:] +
            ["--checkpoint=" + CHECKPOINT, "--quant=" + self.w["quant"],
             "--in=" + path], cwd=REPO, stdout=subprocess.PIPE,
            stderr=sys.stderr, text=True)
        if out.returncode != 0:
            self.problem("perfbench_tool check failed")
            return None
        lines = out.stdout.strip().split("\n")
        result = json.loads(lines[-2])
        rt_bleu = float(lines[-1])
        if result["argmax_violations"] or result["prompt_mismatch"]:
            self.problem("argmax re-encode: %d of %d tokens off by more "
                         "than %g logits, %d prompt mismatches" %
                         (result["argmax_violations"],
                          result["argmax_tokens"], result["argmax_margin"],
                          result["prompt_mismatch"]))
        bleu = corpus_bleu(result["bleu"]["candidates"],
                           result["bleu"]["references"])
        if not abs(bleu - rt_bleu) <= 1e-9:
            self.problem("BLEU %.12f != rt::eval %.12f" % (bleu, rt_bleu))
        log("perfbench: argmax re-encode %d tokens: %d exact, %d within "
            "%g (max deficit %.2e); BLEU %.6f (rt::eval %.6f)" %
            (result["argmax_tokens"], result["argmax_exact"],
             result["argmax_within_margin"], result["argmax_margin"],
             result["max_logit_deficit"], bleu, rt_bleu))
        return bleu

    def tally(self):
        attempted = len(self.requests)
        failed = 0
        for req in self.requests:
            why = request_problem(req)
            if why is None:
                continue
            if req.error is not None or req.status != 200:
                failed += 1
                log("perfbench: failed request: %s" % why)
            else:
                self.problem(why)
        return attempted, failed

    def good(self, req):
        if request_problem(req) is not None:
            return False
        latency = ms(req.t_done - req.t_due)
        if req.cls == "batch":
            return latency <= BATCH_LIMIT_MS
        if not req.stream:
            return latency <= UNARY_LIMIT_MS
        if not req.token_times:
            return True
        gaps = [b - a for a, b in zip(req.token_times, req.token_times[1:])]
        return (ms(req.token_times[0] - req.t_due) <= TTFT_LIMIT_MS and
                ms(max(gaps, default=0.0)) <= GAP_LIMIT_MS)

    def latency_metrics(self, reqs):
        """ttft/tpot/gap/latency/goodput over the open-loop requests."""
        ok = [r for r in reqs if request_problem(r) is None]
        streams = [r for r in ok if r.stream and r.token_times]
        ttft = [ms(r.token_times[0] - r.t_due) for r in streams]
        multi = [r for r in streams if len(r.token_times) > 1]
        tpot = tpots(multi)
        latency = [ms(r.t_done - r.t_due) for r in ok]
        # Goodput over the time the open-loop stretches were live.
        span = 0.0
        for k in {r.stretch for r in reqs}:
            part = [r for r in reqs if r.stretch == k]
            span += (max(r.t_done for r in part) -
                     min(r.t_due for r in part))
        lag = [ms(r.t_sent - r.t_due) for r in reqs if r.t_sent]
        log("perfbench: %d open-loop requests (%d streamed); generator "
            "lag p50 %.3f ms, max %.3f ms" %
            (len(reqs), len(streams), pct(lag, 50), max(lag, default=0.0)))
        for name, values in (("ttft", ttft), ("tpot", tpot),
                             ("latency", latency)):
            log("perfbench: %s deciles (ms): %s" % (name, " ".join(
                "%.2f" % pct(values, q) for q in range(10, 100, 10))))
        return {
            "tpot_ms.p50": (pct(tpot, 50), "ms"),
            "latency_ms.p50": (pct(latency, 50), "ms"),
            "goodput_rps": (sum(1 for r in reqs if self.good(r)) / span,
                            "req/s"),
        }

    def table1_metrics(self, bleu):
        rates = []
        for reqs, seconds in self.rounds:
            tokens = sum(len(r.ids) if r.stream else
                         (r.payload or {}).get("usage", {}).get(
                             "completion_tokens", 0)
                         for r in reqs if request_problem(r) is None)
            rates.append(tokens / seconds)
        log("perfbench: Table I rounds: %s tok/s" %
            " ".join("%.0f" % r for r in rates))
        return {"decode_tok_s": (statistics.median(rates), "tok/s"),
                "corpus_bleu": (bleu if bleu is not None else 0.0, "bleu")}

    # -- trace 0 ------------------------------------------------------------

    def run_untraced(self):
        """SETUPS_PER_RUN launches of `serve`; each one's set-up is timed
        and then serves an equal stretch of the run, so one run's figures
        pool several processes (thread placement and heap layout differ
        from launch to launch)."""
        self.make_load()
        steal0, total0 = host_cpu()
        span = self.args.seconds / SETUPS_PER_RUN
        setups, rss = [], []
        for i in range(SETUPS_PER_RUN):
            reqs = [r for r in self.load if i * span <= r.due < (i + 1) * span]
            for r in reqs:
                r.due -= i * span
                r.stretch = i
            server = Serve(self.name, i)
            try:
                setups.append(server.wait_ready())
                self.serve_stretch(server, reqs, span,
                                   last=i == SETUPS_PER_RUN - 1)
                rss.append(sum(vm_hwm_mb(pid) for pid in server.pids()))
            finally:
                server.stop()
        steal1, total1 = host_cpu()
        log("perfbench: host steal %.1f%% of CPU time during the run" %
            (100.0 * (steal1 - steal0) / max(1, total1 - total0)))
        t = os.times()
        log("perfbench: client CPU %.2f s user + %.2f s sys" % (t[0], t[1]))
        attempted, failed = self.tally()
        bleu = self.check_outputs()
        metrics = {"setup_s": (statistics.median(setups), "s")}
        metrics.update(self.latency_metrics(self.load))
        metrics.update(self.table1_metrics(bleu))
        metrics["server_rss_mb"] = (statistics.median(rss), "MB")
        return attempted, failed, metrics

    def serve_stretch(self, server, reqs, seconds, last):
        port = server.entry_port
        before = len(self.requests)

        async def main():
            client = Client(CONNECTIONS)
            await self.drive(client, reqs, seconds, lambda req: port, port)
            if last:
                await self.checks(client, port)
            return await self.counters(client, server)

        counters = asyncio.run(main())
        mine = [r for r in self.requests[before:] if r.status == 200]
        self.check_counters(counters, len(mine),
                            sum(1 for r in mine if r.stream and r.done))

    async def counters(self, client, server):
        out = {"replicas": []}
        for _, port in server.replicas():
            out["replicas"].append(await client.get_json(port, "/v1/metrics"))
        if server.w["replicas"] > 1:
            out["router"] = await client.get_json(server.backend_port,
                                                  "/v1/metrics")
        return out

    def check_counters(self, counters, generate, streams):
        """/v1/metrics success and stream counters against the client's."""
        reps = counters["replicas"]
        ok = sum(m.get("generate_ok", 0) for m in reps)
        started = sum(m.get("streams_started", 0) for m in reps)
        completed = sum(m.get("streams_completed", 0) for m in reps)
        if ok != generate:
            self.problem("replicas generate_ok %d != client %d" %
                         (ok, generate))
        if started != streams or completed != streams:
            self.problem("replica streams started/completed %d/%d != "
                         "client %d" % (started, completed, streams))
        router = counters.get("router")
        if router is not None:
            if router.get("route_ok") != generate:
                self.problem("router route_ok %s != client %d" %
                             (router.get("route_ok"), generate))
            if router.get("streams_relayed") != streams:
                self.problem("router streams_relayed %s != client %d" %
                             (router.get("streams_relayed"), streams))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-checkpoint", action="store_true",
                        help="retrain the served checkpoint and exit")
    args = parser.parse_args()
    if args.workload is None and not args.make_checkpoint:
        parser.error("--workload is required")
    build()
    make_checkpoint(force=args.make_checkpoint)
    if PIN:
        os.sched_setaffinity(0, {os.cpu_count() - 1})
    if args.make_checkpoint:
        return 0
    os.makedirs(RUN_DIR, exist_ok=True)
    run = Run(args)
    run.dataset = load_dataset()
    if args.trace:
        sys.dont_write_bytecode = True
        from traced import run_traced  # perfbench/traced.py
        attempted, failed, metrics = run_traced(run)
    else:
        attempted, failed, metrics = run.run_untraced()
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
