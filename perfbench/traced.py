"""The traced run (--trace 1) of perfbench/run.py.

Drives the workload against `perfbench_tool traced`: the same tier chain
as `serve` (frontend -> router -> backend(s) -> scheduler -> GPT-2),
assembled in one process with timing proxies at each boundary. The
client rotates each open-loop request's entry over the frontend, router
and backend ports, and switches the proxies' timing on and off in
alternating blocks so that the tracing overhead is measured in the same
run. Prints the per-request layer table, then returns the per-layer
metrics.
"""

import asyncio
import json
import os
import re
import statistics
import subprocess
import sys
import time

import run as bench

BLOCK_S = 2.0      # length of one traced / untraced block
ENTRIES = ("frontend", "router", "backend")

# Rows of the per-request table, in timeline order. Each is an interval
# between two timestamps taken at proxies (or the client), so together
# with `unattributed` they add up to the client-observed latency.
ROWS = (
    ("client.wait", "due -> sent: generator lateness, connection budget"),
    ("tiers.inbound", "sent -> GenerateFn: frontend/router relay, "
                      "backend HTTP read, session wait"),
    ("pipeline.prep", "GenerateFn -> DecodeFn: prompt build, BPE encode"),
    ("sched.queue", "DecodeFn -> admission (NewSequenceWithPrefix)"),
    ("gpt2.restore", "own prefix-cache lookup/restore"),
    ("gpt2.prefill", "own PrefillSeq chunks"),
    ("gpt2.publish", "own PublishPrefix"),
    ("gpt2.step", "StepBatch calls that include this row"),
    ("gpt2.co_resident", "other rows' decoder calls while resident"),
    ("stream.on_token", "on_token hooks: BPE decode, SSE enqueue"),
    ("sched.loop", "scheduler thread outside those calls: sampling, "
                   "bookkeeping, inline beam, wake-up"),
    ("pipeline.parse", "DecodeFn return -> GenerateFn return"),
    ("tiers.outbound", "GenerateFn return -> last byte at the client"),
    ("unattributed", "client latency not covered by the rows above"),
)


def rows_for(req, rec):
    """Per-request layer self-times in ms (see ROWS)."""
    s = 1e-9
    gen_enter, gen_exit = rec["gen_enter"] * s, rec["gen_exit"] * s
    dec_enter, dec_exit = rec["decode_enter"] * s, rec["decode_exit"] * s
    admit = rec["admit"] * s if rec["admit"] else dec_exit
    own = {"gpt2.restore": rec["restore_ns"] * s,
           "gpt2.prefill": rec["prefill_ns"] * s,
           "gpt2.publish": rec["publish_ns"] * s,
           "gpt2.step": rec["step_ns"] * s,
           "gpt2.co_resident": max(0.0, rec["other_ns"]) * s,
           "stream.on_token": rec["on_token_ns"] * s}
    out = {"client.wait": req.t_sent - req.t_due,
           "tiers.inbound": gen_enter - req.t_sent,
           "pipeline.prep": dec_enter - gen_enter,
           "sched.queue": admit - dec_enter}
    out.update(own)
    out["sched.loop"] = (dec_exit - admit) - sum(own.values())
    out["pipeline.parse"] = gen_exit - dec_exit
    out["tiers.outbound"] = req.t_done - gen_exit
    latency = req.t_done - req.t_due
    out["unattributed"] = latency - sum(out.values())
    return {k: bench.ms(v) for k, v in out.items()}, bench.ms(latency)


def request_key(body):
    """The join key perfbench_tool traced records for a request."""
    return "%s#%d#%d" % ("|".join(body["ingredients"]), body.get("seed", 0),
                         1 if body.get("stream") else 0)


def histogram_pct(metrics, prefix, q):
    """Percentile from a /v1/metrics latency histogram, interpolated
    linearly inside the bucket (ms)."""
    bounds = metrics.get(prefix + "latency_bucket_le", [])
    counts = metrics.get(prefix + "latency_bucket_count", [])
    total = sum(counts)
    if total == 0:
        return 0.0
    target = total * q / 100.0
    seen, lower = 0, 0.0
    for bound, count in zip(bounds, counts):
        upper = lower if bound == "inf" else float(bound)
        if count and seen + count >= target:
            return 1000.0 * (lower + (upper - lower) * (target - seen) / count)
        seen += count
        lower = upper
    return 1000.0 * lower


def run_traced(run):
    w = run.w
    out_path = os.path.join(bench.RUN_DIR, "traced-out.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    with open(os.path.join(bench.RUN_DIR, "traced.log"), "wb") as log_file:
        t_launch = time.monotonic()
        proc = subprocess.Popen(
            [bench.TOOL, "traced"] + bench.CORPUS[1:] +
            ["--checkpoint=" + bench.CHECKPOINT, "--quant=" + w["quant"],
             "--replicas=%d" % w["replicas"],
             "--max-batch=%d" % bench.MAX_BATCH, "--out=" + out_path],
            cwd=bench.REPO, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=log_file, text=True, preexec_fn=bench.server_preexec)
        try:
            ready = json.loads(proc.stdout.readline())
            ports = {"frontend": ready["frontend"], "router": ready["router"],
                     "backend": ready["backends"]}
            entry = ports["frontend"] if w["entry"] == "frontend" \
                else ports["backend"][0]
            while bench.http_status(entry, "/v1/healthz") != 200:
                time.sleep(0.002)
            spawn_to_healthy = time.monotonic() - t_launch
            toggles, warm, end = asyncio.run(
                drive(run, proc, ports, entry))
        finally:
            if proc.stdin and not proc.stdin.closed:
                proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not os.path.isfile(out_path):
        bench.die("perfbench_tool traced failed")
    with open(out_path) as f:
        out = json.load(f)
    return analyse(run, ports, toggles, warm, end, out, spawn_to_healthy)


async def drive(run, proc, ports, entry):
    toggles = []  # (time, traced?) in the order applied
    counter = [0]

    def pick(req):
        which = ENTRIES[counter[0] % len(ENTRIES)]
        counter[0] += 1
        req.tier = which
        if which == "backend":
            backends = ports["backend"]
            return backends[(counter[0] // len(ENTRIES)) % len(backends)]
        return ports[which]

    def set_trace(on):
        proc.stdin.write("trace %d\n" % (1 if on else 0))
        proc.stdin.flush()
        toggles.append((time.monotonic(), on))

    client = bench.Client(bench.CONNECTIONS)
    warm = {}
    finished = asyncio.Event()

    async def toggler():
        on = True
        set_trace(on)
        first = True
        while not finished.is_set():
            try:
                await asyncio.wait_for(finished.wait(), BLOCK_S)
            except asyncio.TimeoutError:
                pass
            if first:
                for port in ports["backend"]:
                    warm[port] = await client.get_json(port, "/v1/metrics")
                first = False
            on = not on
            set_trace(on)

    task = asyncio.ensure_future(toggler())
    run.make_load()
    await run.drive(client, run.load, run.args.seconds, pick, entry)
    finished.set()
    await task
    set_trace(True)
    await run.checks(client, entry)
    end = {port: await client.get_json(port, "/v1/metrics")
           for port in ports["backend"]}
    set_trace(False)
    return toggles, warm, end


def mode_of(req, toggles):
    """True / False when the request ran wholly inside a traced /
    untraced block, else None."""
    state = None
    for t, on in toggles:
        if t <= req.t_due:
            state = on
        elif t < req.t_done:
            return None
    return state


def analyse(run, ports, toggles, warm, end, out, spawn_to_healthy):
    attempted, failed = run.tally()
    generate = sum(1 for r in run.requests if r.status == 200)
    streams = sum(1 for r in run.requests
                  if r.status == 200 and r.stream and r.done)
    counters = {"replicas": list(end.values())}
    run.check_counters(counters, generate, streams)
    # Frontend and router counters against the requests that entered
    # through them (the frontend relays to the router).
    front = [r for r in run.requests
             if r.entry == ports["frontend"] and r.status == 200]
    routed = [r for r in run.requests
              if r.entry in (ports["frontend"], ports["router"]) and
              r.status == 200]
    front_streams = sum(1 for r in front if r.stream and r.done)
    if out["frontend_streams_relayed"] != front_streams:
        run.problem("frontend streams_relayed %d != client %d" %
                    (out["frontend_streams_relayed"], front_streams))
    if out["router_ok"] != len(routed):
        run.problem("router route_ok %d != client %d" %
                    (out["router_ok"], len(routed)))
    run.check_outputs()
    micro = out["micro"]
    if not micro["kernels_ok"]:
        run.problem("a packed GEMM disagrees with the naive loop")

    # Server records join client requests on what the GenerateFn proxy
    # sees of the request; identical requests (exact repeats) take the
    # earliest unclaimed record entered after the client sent them.
    recs = {}
    for rec in sorted(out["records"], key=lambda r: r["gen_enter"]):
        recs.setdefault(rec["key"], []).append(rec)
    traced, untraced = [], []
    for req in sorted(run.load, key=lambda r: r.t_sent or 0.0):
        if bench.request_problem(req) is not None:
            continue
        mode = mode_of(req, toggles)
        if mode is True:
            pool = recs.get(request_key(req.body), [])
            for i, rec in enumerate(pool):
                if rec["gen_enter"] * 1e-9 >= req.t_sent:
                    traced.append((req, pool.pop(i)))
                    break
        elif mode is False:
            untraced.append(req)
    # Per-request table: every traced open-loop request, by entry tier.
    table = {}
    for req, rec in traced:
        rows, latency = rows_for(req, rec)
        for key in (req.tier, "all"):
            acc = table.setdefault(key, {"n": 0, "latency": 0.0})
            acc["n"] += 1
            acc["latency"] += latency
            for name, value in rows.items():
                acc[name] = acc.get(name, 0.0) + value
    print_table(table)
    bench.log("perfbench: traced run: %d open-loop requests, %d in traced "
              "blocks with a server record, %d in untraced blocks" %
              (len(run.load), len(traced), len(untraced)))

    def p50(values):
        return bench.pct(values, 50) if values else 0.0

    def outside_gen(req, rec):
        return bench.ms((req.t_done - req.t_sent) -
                        (rec["gen_exit"] - rec["gen_enter"]) * 1e-9)

    by_tier = {t: [outside_gen(req, rec) for req, rec in traced
                   if req.tier == t] for t in ENTRIES}
    reps = out["replicas"]

    def total(key):
        return sum(r[key] for r in reps)

    steps_by_m = [sum(r["steps_by_m"][m] for r in reps)
                  for m in range(len(reps[0]["steps_by_m"]))]
    ns_by_m = [sum(r["step_ns_by_m"][m] for r in reps)
               for m in range(len(reps[0]["step_ns_by_m"]))]
    steps = sum(steps_by_m)
    rows = sum(m * c for m, c in enumerate(steps_by_m))
    occupancy = rows / steps if steps else 0.0
    lookups = total("prefix_hits") + total("prefix_misses")
    requests = max(1, total("lookups"))
    queue = [bench.ms((rec["admit"] - rec["decode_enter"]) * 1e-9)
             for _, rec in traced if rec["admit"]]
    prof = out["kernel_profile"]
    tokens = max(1, prof.get("tokens", 0))
    ops = prof.get("ops", {})
    int8 = run.w["quant"] == "int8"
    weight_bytes = micro["step_weight_params"] * (1.0 if int8 else 4.0)
    bytes_per_token = weight_bytes / occupancy if occupancy else 0.0
    gemm_ns = sum(ops.get(k, {}).get("seconds", 0.0) * 1e9
                  for k in ("gemm_packed", "gemm_packed_int8"))
    decoder_ns = sum(ns_by_m) + total("prefill_ns")
    # Tracing overhead: time per output token of the streams in traced
    # blocks against those in untraced blocks of the same run (per-token
    # time is comparable across the workload's request shapes).
    lat_on = bench.tpots([r for r, _ in traced])
    lat_off = bench.tpots(untraced)
    unattributed = [rows_for(req, rec)[0]["unattributed"]
                    for req, rec in traced]
    lag = [bench.ms(r.t_sent - r.t_due) for r in run.load if r.t_sent]
    served = max(1, generate)

    def kernel(op, field):
        return ops.get(op, {}).get(field, 0.0)

    m = {
        "tier.frontend_ms.p50": p50(by_tier["frontend"]) -
        p50(by_tier["router"]),
        "tier.router_ms.p50": p50(by_tier["router"]) - p50(by_tier["backend"]),
        "tier.backend_http_ms.p50": p50(by_tier["backend"]),
        "router.retries": out["router_retries"],
        "backend.session_wait_ms.p90": max(
            histogram_pct(e, "stage_session_acquire_", 90)
            for e in end.values()),
        "pipeline.prep_parse_us": statistics.mean(
            ((rec["gen_exit"] - rec["gen_enter"]) -
             (rec["decode_exit"] - rec["decode_enter"])) / 1000.0
            for _, rec in traced) if traced else 0.0,
        "bpe.encode_us_per_token": micro["bpe_encode_us_per_token"],
        "bpe.decode_us_per_token": micro["bpe_decode_us_per_token"],
        "sched.queue_wait_ms.p50": p50(queue),
        "sched.queue_wait_ms.p90": bench.pct(queue, 90) if queue else 0.0,
        "sched.occupancy_mean": occupancy,
        "sched.overhead_us_per_step": (total("loop_gap_ns") / 1000.0 /
                                       max(1, total("loop_gaps"))),
        "sched.inline_ms_total": total("inline_ns") / 1e6,
        "sched.preemptions": total("preemptions"),
        "sched.shed_unmeetable": total("shed_unmeetable"),
        "gpt2.step_us_per_row": sum(ns_by_m) / 1000.0 / max(1, rows),
        "gpt2.prefill_us_per_token": (total("prefill_ns") / 1000.0 /
                                      max(1, total("prefill_tokens"))),
        "gpt2.restore_us": total("restore_ns") / 1000.0 / requests,
        "gpt2.publish_us": (total("publish_ns") / 1000.0 /
                            max(1, total("publishes"))),
        "gpt2.publishes_per_request": total("publishes") / requests,
        "prefix_cache.hit_ratio": (total("prefix_hits") / lookups
                                   if lookups else 0.0),
        "prefix_cache.lookups": lookups,
        "prefix_cache.restored_token_share": (
            total("restored_tokens") / max(1, total("lookup_prompt_tokens"))),
        "prefix_cache.prompt_tokens": total("lookup_prompt_tokens"),
        "prefix_cache.evictions_per_request": (
            total("prefix_evictions") / lookups if lookups else 0.0),
        "arena.heap_allocs_after_warmup": sum(
            end[p].get("batch_arena_heap_allocs", 0) -
            warm.get(p, end[p]).get("batch_arena_heap_allocs", 0)
            for p in end),
        "kernels.gemm_packed.ns_per_token":
            kernel("gemm_packed", "seconds") * 1e9 / tokens,
        "kernels.gemm_packed.flops_per_token":
            kernel("gemm_packed", "flops") / tokens,
        "kernels.gemm_packed.bytes_per_token":
            0.0 if int8 else bytes_per_token,
        "kernels.gemm_packed_int8.ns_per_token":
            kernel("gemm_packed_int8", "seconds") * 1e9 / tokens,
        "kernels.gemm_packed_int8.flops_per_token":
            kernel("gemm_packed_int8", "flops") / tokens,
        "kernels.gemm_packed_int8.bytes_per_token":
            bytes_per_token if int8 else 0.0,
        "kernels.parallel_for.calls_per_token":
            kernel("parallel_for", "calls") / tokens,
        "kernels.non_gemm_ns_per_token": (decoder_ns - gemm_ns) / tokens,
        "sampler.us_per_token": micro["sampler_us_per_token"],
        "setup.corpus_s": out["setup"]["corpus_s"],
        "setup.bpe_train_s": out["setup"]["bpe_train_s"],
        "setup.checkpoint_load_s": out["setup"]["checkpoint_load_s"],
        "setup.spawn_to_healthy_s": spawn_to_healthy,
        "process.cpu_ms_per_request": out["cpu_s"] * 1000.0 / served,
        "client.ttft_ms.p50": bench.pct(
            [bench.ms(r.token_times[0] - r.t_due) for r in run.load
             if bench.request_problem(r) is None and r.token_times], 50),
        "client.ttft_ms.p90": bench.pct(
            [bench.ms(r.token_times[0] - r.t_due) for r in run.load
             if bench.request_problem(r) is None and r.token_times], 90),
        "client.worst_gap_ms.p90": bench.pct(
            bench.worst_gaps([r for r in run.load
                              if bench.request_problem(r) is None]), 90),
        "client.tpot_ms.p90": bench.pct(
            bench.tpots([r for r in run.load
                         if bench.request_problem(r) is None]), 90),
        "client.latency_ms.p90": bench.pct(
            [bench.ms(r.t_done - r.t_due) for r in run.load
             if bench.request_problem(r) is None], 90),
        "client.lag_ms.p50": bench.pct(lag, 50),
        "client.lag_ms.p90": bench.pct(lag, 90),
        "trace.overhead_pct": ((p50(lat_on) - p50(lat_off)) / p50(lat_off) *
                               100.0 if lat_off and lat_on else 0.0),
        "trace.unattributed_ms.mean": (statistics.mean(unattributed)
                                       if unattributed else 0.0),
        "trace.requests": len(traced),
    }
    for k in range(1, 5):
        m["gpt2.step_us.m%d" % k] = (ns_by_m[k] / 1000.0 / steps_by_m[k]
                                     if steps_by_m[k] else 0.0)
    metrics = {name: (float(value), unit_of(name)) for name, value in m.items()}
    log_kernel_rows(micro)
    return attempted, failed, metrics


def unit_of(name):
    """The unit a per-layer metric's name carries, else its count unit."""
    parts = re.split(r"[._]", name)
    for marker, unit in (("ms", "ms"), ("us", "us"), ("ns", "ns"),
                         ("pct", "%"), ("s", "s")):
        if marker in parts:
            return unit
    return UNITS.get(name, "count")


UNITS = {
    "sched.occupancy_mean": "rows/step",
    "prefix_cache.hit_ratio": "ratio",
    "prefix_cache.restored_token_share": "ratio",
    "kernels.gemm_packed.flops_per_token": "flop",
    "kernels.gemm_packed_int8.flops_per_token": "flop",
    "kernels.gemm_packed.bytes_per_token": "B",
    "kernels.gemm_packed_int8.bytes_per_token": "B",
}


def print_table(table):
    """The per-request layer table: mean ms per request and share of the
    mean client-observed latency, for each entry tier."""
    for key in ("all",) + ENTRIES:
        acc = table.get(key)
        if not acc:
            continue
        n = acc["n"]
        mean_latency = acc["latency"] / n
        print("per-layer self time, %d traced requests entered at %s "
              "(mean client latency %.3f ms)" % (n, key, mean_latency))
        total = 0.0
        for name, what in ROWS:
            value = acc.get(name, 0.0) / n
            total += value
            print("  %-17s %9.3f ms %6.1f%%  %s" %
                  (name, value, 100.0 * value / mean_latency, what))
        print("  %-17s %9.3f ms %6.1f%%" %
              ("sum", total, 100.0 * total / mean_latency))
    sys.stdout.flush()


def log_kernel_rows(micro):
    print("kernel reference rows (packed GEMM vs naive loop; bytes are "
          "computed from tensor sizes)")
    for row in micro["kernel_rows"]:
        print("  %-8s %-4s m=%d k=%-4d n=%-4d %9.0f ns %9.0f flop %9.0f B "
              "err %.1e" % (row["name"], "int8" if row["int8"] else "fp32",
                            row["m"], row["k"], row["n"], row["ns_per_call"],
                            row["flops"], row["bytes"], row["max_rel_err"]))
    sys.stdout.flush()
