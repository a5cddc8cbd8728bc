#!/usr/bin/env python3
"""End-to-end benchmark of the Avis reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 25 --trace 0

builds the measuring program (perfbench/avisbench.ml) under .bench_build/,
runs rounds of the workload until --seconds have passed, checks every
result against perfbench/pins.txt, and prints one JSON object as the last
line of standard output. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics, including each benchmark span's self time.

Other modes:
    --steady N   run one workload N times (seeds --seed.. --seed+N-1) and
                 print each end-to-end metric's median, quartiles and range;
    --report     run every workload once untraced and once traced and
                 print every metric with its unit, failed_frac, and what
                 each per-layer metric should move;
    --pin        rewrite pins.txt from in-process runs of every cell.

Every timing is in calibrated seconds: each stretch of measured time
between two calibration points is multiplied by the yardstick's nominal
slice time over the mean slice time at those two points. Only one process
and one domain of the program are busy at once, all on one CPU.
"""

import argparse
import bisect
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DUNE_DIR = os.path.join(BUILD_DIR, "dune")
EXE = os.path.join(DUNE_DIR, "default", "perfbench", "avisbench.exe")
PINS = os.path.join(HERE, "pins.txt")
NOMINAL_SLICE_MS = 1.5  # Yardstick.nominal_slice_ms
ROUND_LIMIT_S = 150  # a process that runs longer than this has hung
DAEMON_SETUPS = 3  # daemon starts per daemon round, for a steadier setup_s
RUN_LIMIT_S = 170  # stop starting rounds that could end after this

# ---------------------------------------------------------------------------
# Workload inputs. A cell id is firmware/workload/approach/budget/base-seed;
# each has a pinned result digest in pins.txt.

CAMPAIGN_BUDGET = 300
HUNT_CELLS = [f"{fw}/auto-box/{a}/{CAMPAIGN_BUDGET}/1"
              for fw in ("apm", "px4") for a in ("avis", "random")]
RERUN_CELLS = [f"apm/auto-box/{a}/{CAMPAIGN_BUDGET}/1" for a in ("avis", "random")]
DAEMON_BUDGET = 90
DAEMON_CELLS = [
    f"{fw}/{wl}/{a}/{DAEMON_BUDGET}/1"
    for fw, wl, approaches in (
        ("apm", "auto-box", ("avis", "random", "dfs")),
        ("apm", "manual-box", ("bfs", "bfi", "avis")),
        ("px4", "auto-box", ("random", "dfs", "bfs")),
        ("px4", "manual-box", ("bfi", "avis", "random")),
    )
    for a in approaches
]
ALL_CELLS = sorted(set(HUNT_CELLS + RERUN_CELLS + DAEMON_CELLS))

# ---------------------------------------------------------------------------
# Metrics. BENCHMARK.json lists the same names; the rationale for each
# per-layer metric (its layer, the end-to-end metric it should move, and
# on which workload) lives here so the report can print it.

END_TO_END = [
    ("wall_s", "s", "drain time of the measured phase"),
    ("request_p50_s", "s", "median over the cells (hunt, rerun) or live requests "
     "(daemon) of each one's median submit-to-result time"),
    ("peak_rss_mb", "MB", "peak resident memory of the measuring process "
     "(rerun: the rerun process; daemon: daemon or worker)"),
    ("setup_s", "s", "time before the measured phase (hunt: process start; "
     "rerun: cold store fill; daemon: start to first Pong)"),
]

SPANS = [
    "campaign.cell", "campaign.profile", "search.next", "campaign.scenario",
    "search.observe", "campaign.bookkeeping", "client.request",
    "server.accept", "server.cell", "host.calibration",
]

# name, unit, better, layer, moves, on
PER_LAYER = [
    ("campaign.profile_s", "s", "lower", "Campaign", "wall_s, request_p50_s", "daemon most, then hunt"),
    ("campaign.scenario_p50_ms", "ms", "lower", "Campaign/Prefix_cache/Sim", "wall_s", "hunt, rerun"),
    ("campaign.scenario_p95_ms", "ms", "lower", "Campaign/Prefix_cache/Sim", "wall_s", "hunt, rerun"),
    ("campaign.bookkeeping_s", "s", "lower", "Campaign/Checkpoint_store", "wall_s", "rerun (~0 on hunt)"),
    ("campaign.scenarios", "count", "higher", "Campaign", "wall_s, peak_rss_mb", "hunt"),
    ("campaign.findings", "count", "higher", "Campaign", "wall_s, peak_rss_mb", "hunt"),
    ("campaign.minor_mwords", "Mwords", "lower", "Campaign", "wall_s, peak_rss_mb", "hunt"),
    ("campaign.major_gcs", "count", "lower", "Campaign", "wall_s, peak_rss_mb", "hunt"),
    ("search.next_s", "s", "lower", "Sabre/Random_search", "wall_s", "hunt"),
    ("search.observe_s", "s", "lower", "Sabre/Random_search", "wall_s", "hunt"),
    ("prefix_cache.hit_ratio", "ratio", "higher", "Prefix_cache", "wall_s, peak_rss_mb", "hunt"),
    ("prefix_cache.saved_sim_s", "s", "higher", "Prefix_cache", "wall_s, peak_rss_mb", "hunt"),
    ("prefix_cache.evictions", "count", "lower", "Prefix_cache", "wall_s, peak_rss_mb", "hunt"),
    ("prefix_cache.resident_mb", "MB", "lower", "Prefix_cache", "wall_s, peak_rss_mb", "hunt"),
    ("store.hits", "count", "higher", "Checkpoint_store", "wall_s, setup_s (fill)", "rerun"),
    ("store.misses", "count", "lower", "Checkpoint_store", "wall_s, setup_s (fill)", "rerun"),
    ("store.files", "count", "lower", "Checkpoint_store", "wall_s, setup_s (fill)", "rerun"),
    ("store.mb", "MB", "lower", "Checkpoint_store", "wall_s, setup_s (fill)", "rerun"),
    ("sim.stepped_s", "s", "lower", "Sim", "wall_s", "hunt"),
    ("sim.step_rate", "1/s", "higher", "Sim", "wall_s", "hunt"),
    ("server.accept_ms", "ms", "lower", "Hunt_service/Wire", "request_p50_s, wall_s", "daemon"),
    ("server.memo_request_ms", "ms", "lower", "Hunt_service/Run_journal", "request_p50_s, wall_s", "daemon"),
    ("server.cell_overhead_ms", "ms", "lower", "Hunt_service/Worker/Wire", "request_p50_s, wall_s", "daemon"),
    ("server.worker_busy_frac", "ratio", "higher", "Hunt_service/Worker", "request_p50_s, wall_s", "daemon"),
    ("server.live_cells", "count", "higher", "Worker", "request_p50_s, wall_s", "daemon"),
    ("server.memo_served", "count", "higher", "Hunt_service", "request_p50_s, wall_s", "daemon"),
    ("journal.records", "count", "higher", "Run_journal", "request_p50_s, wall_s", "daemon"),
    ("host.raw_wall_s", "s", "lower", "host", "(none)", "all"),
    ("host.calib_slice_ms", "ms", "lower", "host", "(none)", "all"),
    ("host.trace_overhead", "ratio", "lower", "host", "(none)", "all"),
] + [("self." + s + "_s", "s", "lower", "self time of the benchmark span " + s,
      "wall_s", "the workloads that record it") for s in SPANS]

WORKLOADS = ("hunt", "rerun", "daemon")
P95_MIN_SAMPLES = 200  # ten samples beyond the 95th percentile


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def clean_env(**extra):
    """The environment of the program: no AVIS_* or GC settings from the
    caller, so every run sees the defaults."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AVIS_") and k != "OCAMLRUNPARAM"}
    env.update(extra)
    return env


# ---------------------------------------------------------------------------
# Building and running the measuring program.

def build():
    # No shared dune cache, and the compilers' temporary files stay in
    # the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = clean_env(DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", DUNE_DIR,
             "--profile", "release", "./perfbench/avisbench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout[-4000:])
        die("build failed")


class Proc:
    """A child process reaped with wait4, so its peak RSS (including any
    descendants it reaped itself) is known, and killed if it hangs."""

    def __init__(self, args, cwd, env, log, talk=False):
        """With `talk`, the child's stdin and stdout are pipes to us."""
        self.t_spawn = time.monotonic_ns()
        pipe = subprocess.PIPE if talk else None
        self.p = subprocess.Popen(args, cwd=cwd, env=env,
                                  stdin=pipe or subprocess.DEVNULL, stdout=pipe or log,
                                  stderr=log)
        self.status = None
        self.rss_kb = 0
        self.t_end = None

    def wait(self, limit=ROUND_LIMIT_S):
        timer = threading.Timer(limit, self.p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.p.pid, 0)
        finally:
            timer.cancel()
        self.t_end = time.monotonic_ns()
        self.p.returncode = self.status = os.waitstatus_to_exitcode(status)
        self.rss_kb = usage.ru_maxrss
        return self.status

    def stop(self):
        if self.status is None:
            try:
                self.p.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            self.wait(30)


class Yardstick:
    """The calibration points one process ran, as (start_ns, length_ns,
    slice_ns): a point takes `length` of wall time and timed one slice at
    `slice`. A stretch of measured time is rescaled by the nominal slice
    time over the mean slice time of the points on either side of it, so
    each stretch is judged by how fast the machine ran just then."""

    def __init__(self, slices):
        self.starts = [s for s, _, _ in slices]
        self.lens = [n for _, n, _ in slices]
        self.durs = [d for _, _, d in slices]

    def _factor(self, i):
        """The rescaling for the stretch that ends at point i. A stretch
        before the first point or after the last (a process's start-up or
        exit) has one neighbour at most, and one slice is too noisy to
        scale it by, so it takes the median of all the points."""
        if 0 < i < len(self.durs):
            slice_ns = (self.durs[i - 1] + self.durs[i]) / 2
        elif self.durs:
            slice_ns = statistics.median(self.durs)
        else:
            return 1.0
        return NOMINAL_SLICE_MS * 1e6 / slice_ns

    def factor_at(self, t):
        return self._factor(bisect.bisect_left(self.starts, t))

    def seconds(self, a, b):
        """Calibrated seconds in [a, b], leaving out the calibration
        points inside it, which split it into stretches."""
        total, cursor = 0.0, a
        i = bisect.bisect_left(self.starts, a)
        while i < len(self.starts) and self.starts[i] < b:
            total += (self.starts[i] - cursor) * self._factor(i)
            cursor = self.starts[i] + self.lens[i]
            i += 1
        total += (b - cursor) * self._factor(i)
        return total / 1e9

    def raw_seconds(self, a, b):
        inside = sum(n for s, n in zip(self.starts, self.lens) if a <= s < b)
        return (b - a - inside) / 1e9


class Round:
    """What one round measured. Times are calibrated seconds."""

    def __init__(self, traced):
        self.traced = traced
        self.attempted = 0
        self.failures = []
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.requests_s = []   # (cell id, calibrated seconds)
        self.setups_s = []
        self.rss_mb = 0.0
        self.slices_ms = []
        self.digests = {}
        self.scenario_ms = []
        self.layer = {}
        self.self_s = {}
        self.spans = []

    def add(self, key, value):
        self.layer[key] = self.layer.get(key, 0) + value

    def add_spans(self, spans, yard):
        """Each span's self time (its length minus its children's),
        calibrated where the span starts."""
        self.spans += spans
        child = {}
        for s in spans:
            child[s["parent"]] = child.get(s["parent"], 0) + (s["t1"] - s["t0"])
        for s in spans:
            own = (s["t1"] - s["t0"]) - child.get(s["id"], 0)
            self.self_s[s["name"]] = (self.self_s.get(s["name"], 0.0)
                                      + own / 1e9 * yard.factor_at(s["t0"]))


def load(path):
    with open(path) as f:
        return json.load(f)


def fail_on(proc, what, log_path):
    if proc.status != 0:
        try:
            with open(log_path) as f:
                tail = f.read()[-2000:]
        except OSError:
            tail = ""
        raise RuntimeError(f"{what} exited with {proc.status}\n{tail}")


def run_cells(work, name, ids, traced, env):
    """One process running `ids` in-process; returns (proc, its JSON)."""
    out = os.path.join(work, name + ".json")
    log_path = os.path.join(work, name + ".log")
    with open(log_path, "w") as log:
        proc = Proc([EXE, "cells", out, "1" if traced else "0", PINS] + ids, work, env, log)
        proc.wait()
    fail_on(proc, name, log_path)
    return proc, load(out)


def add_cells(r, proc, data):
    """Fold one `cells` process into round `r`: per-cell checks and times,
    and the campaign-side per-layer values when traced."""
    yard = Yardstick(data["slices"])
    r.slices_ms += [d / 1e6 for _, _, d in data["slices"]]
    r.rss_mb = max(r.rss_mb, proc.rss_kb / 1024.0)
    for c in data["cells"]:
        r.attempted += 1
        if not c["ok"]:
            r.failures.append(c["error"])
        r.digests[c["id"]] = c.get("digest")
        cell_s = yard.seconds(c["t0"], c["t1"])
        raw_s = yard.raw_seconds(c["t0"], c["t1"])
        r.wall_s += cell_s
        r.raw_wall_s += raw_s
        r.requests_s.append((c["id"], cell_s))
        if not r.traced:
            continue
        f = cell_s / raw_s  # the cell's mean rescaling, for its summed timers
        scen = [yard.seconds(a, b) for a, b in c["scenarios"]]
        r.scenario_ms += [x * 1e3 for x in scen]
        r.add("campaign.profile_s", yard.seconds(c["t0"], c["t0"] + c["profile_ns"]))
        r.add("campaign.bookkeeping_s", c["bookkeeping_ns"] / 1e9 * f)
        r.add("search.next_s", c["next_ns"] / 1e9 * f)
        r.add("search.observe_s", c["observe_ns"] / 1e9 * f)
        r.add("scenario_s", sum(scen))
        if c["ok"]:
            r.add("campaign.scenarios", c["simulations"])
            r.add("campaign.findings", c["findings"])
            r.add("campaign.minor_mwords", c["minor_words"] / 1e6)
            r.add("campaign.major_gcs", c["major_gcs"])
            r.add("cache_hits", c["cache_hits"])
            r.add("cache_lookups", c["cache_hits"] + c["cache_misses"])
            r.add("prefix_cache.saved_sim_s", c["saved_sim_s"])
            r.add("prefix_cache.evictions", c["evictions"])
            r.add("store.hits", c["store_hits"])
            r.add("store.misses", c["store_misses"])
            # saved_sim_s also counts the clean prefix a fresh process
            # restores from the store, which no budget charged, so on a
            # warm rerun the difference can dip below zero.
            r.add("sim.stepped_s", max(0.0, c["spent_s"] * c["speedup"] - c["saved_sim_s"]))
            r.layer["prefix_cache.resident_mb"] = max(
                r.layer.get("prefix_cache.resident_mb", 0), c["resident_bytes"] / 2**20)
            r.layer["store.mb"] = max(r.layer.get("store.mb", 0), c["store_bytes"] / 2**20)
    if r.traced:
        r.add_spans(data["spans"], yard)


def finish_layers(r):
    """Per-layer values derived from the round's sums."""
    lay = r.layer
    if "cache_lookups" in lay:
        lay["prefix_cache.hit_ratio"] = (
            lay.pop("cache_hits") / lay["cache_lookups"] if lay["cache_lookups"] else 0.0)
        lay.pop("cache_lookups")
    if "scenario_s" in lay:
        scen_s = lay.pop("scenario_s")
        lay["sim.step_rate"] = lay.get("sim.stepped_s", 0) / scen_s if scen_s else 0.0
    return r


# ---------------------------------------------------------------------------
# Workloads. Each round_* function runs one round and returns a Round.

def round_hunt(work, rng, n, traced, ctx):
    """The four cells in a seed-chosen order, each in its own process as
    `avis_cli hunt -a APPROACH -f FIRMWARE -j 1` runs it."""
    r = Round(traced)
    for i, cid in enumerate(rng.sample(HUNT_CELLS, len(HUNT_CELLS))):
        proc, data = run_cells(work, f"hunt{n}-{i}", [cid], traced, clean_env())
        add_cells(r, proc, data)
        r.setups_s.append(Yardstick(data["slices"]).seconds(proc.t_spawn, data["ready_ns"]))
    return finish_layers(r)


def round_rerun(work, rng, n, traced, ctx):
    """Set-up (once per run): fill a fresh store with the cells, cold, in
    one process. Each round then reruns them against that store in a
    fresh process, as a second `avis_cli hunt` would, and must reproduce
    the fill's results exactly."""
    env = clean_env(AVIS_STORE_DIR=ctx["store"])
    r = Round(traced)
    if "fill" not in ctx:
        fill = Round(False)
        proc, data = run_cells(work, "fill", rng.sample(RERUN_CELLS, len(RERUN_CELLS)),
                               False, env)
        add_cells(fill, proc, data)
        ctx["fill"] = fill.digests
        r.setups_s.append(Yardstick(data["slices"]).seconds(proc.t_spawn, proc.t_end))
        r.attempted += fill.attempted
        r.failures += fill.failures
    proc, data = run_cells(work, f"rerun{n}", rng.sample(RERUN_CELLS, len(RERUN_CELLS)),
                           traced, env)
    add_cells(r, proc, data)
    for cid in RERUN_CELLS:
        if r.digests.get(cid) != ctx["fill"].get(cid):
            r.failures.append(f"{cid}: rerun digest {r.digests.get(cid)} differs "
                              f"from the fill's {ctx['fill'].get(cid)}")
    if traced:
        r.layer["store.files"] = sum(len(fs) for _, _, fs in os.walk(ctx["store"]))
    return finish_layers(r)


def daemon_scripts(rng):
    """Two closed-loop scripts over disjoint live cells. Every third
    request repeats one of its connection's earlier requests (chosen by
    the seed), which the daemon must serve from its journal. The live
    cells alternate between the connections in catalogue order, so the
    worker runs the same cells in the same order whatever the seed: its
    peak memory depends on that order."""
    scripts = []
    for own in (DAEMON_CELLS[0::2], DAEMON_CELLS[1::2]):
        script, pending = [], list(own)
        while pending:
            script.append(pending.pop(0))
            if len(script) % 3 == 2:
                script.append(rng.choice(script))
        scripts.append(script)
    return scripts


def round_daemon(work, rng, n, traced, ctx):
    """A fresh daemon and journal; one client process drives two
    connections through their scripts. The client admits one live cell
    at a time and runs its calibration slices between live cells, on the
    CPU the worker runs on. The daemon is started DAEMON_SETUPS times,
    each start timed to its first Pong; the last one serves the round."""
    d = os.path.join(work, f"daemon{n}")
    os.makedirs(d)
    out = os.path.join(d, "client.json")
    a, b = daemon_scripts(rng)
    with open(os.path.join(d, "daemon.log"), "w") as dlog, \
            open(os.path.join(d, "client.log"), "w") as clog:
        client = Proc([EXE, "client", out, "1" if traced else "0", PINS, "d.sock",
                       "journal.jsonl", str(DAEMON_SETUPS), ",".join(a), ",".join(b)],
                      d, clean_env(), clog, talk=True)
        daemon = None
        try:
            answer, spawns = b"ready", []
            for i in range(DAEMON_SETUPS):
                if client.p.stdout.readline().strip() != answer:
                    break
                if daemon:
                    daemon.stop()
                daemon = Proc([EXE, "daemon", "d.sock", "journal.jsonl"], d, clean_env(), dlog)
                spawns.append(daemon.t_spawn)
                client.p.stdin.write(b"%d\n" % daemon.t_spawn)
                client.p.stdin.flush()
                answer = b"pong"
            client.wait()
        finally:
            client.stop()
            if daemon:
                daemon.stop()
    fail_on(client, "client", os.path.join(d, "client.log"))
    data = load(out)
    yard = Yardstick(data["slices"])
    r = Round(traced)
    reqs = data["requests"]
    live = [q for q in reqs if q["live"]]
    memo = [q for q in reqs if not q["live"]]
    r.attempted = len(a) + len(b)
    r.failures = [q["error"] for q in reqs if not q["ok"]]
    if len(reqs) != r.attempted:
        r.failures.append(f"{r.attempted - len(reqs)} request(s) never finished")
    r.slices_ms = [d / 1e6 for _, _, d in data["slices"]]
    r.setups_s = [yard.seconds(t, t + setup) for t, setup in zip(spawns, data["setups_ns"])]
    r.wall_s = yard.seconds(data["start_ns"], data["end_ns"])
    r.raw_wall_s = yard.raw_seconds(data["start_ns"], data["end_ns"])
    r.requests_s = [(q["id"], yard.seconds(q["submit_ns"], q["done_ns"])) for q in live]
    r.rss_mb = daemon.rss_kb / 1024.0
    if traced:
        def ms(x, y):
            return yard.seconds(x, y) * 1e3
        ok_live = [q for q in live if q["ok"]]
        r.layer = {
            "server.accept_ms": median([ms(q["submit_ns"], q["accepted_ns"])
                                        for q in reqs if q["accepted_ns"]]),
            "server.memo_request_ms": median([ms(q["submit_ns"], q["done_ns"]) for q in memo]),
            "server.cell_overhead_ms": median([
                ms(q["submit_ns"], q["cell_ns"])
                - q["elapsed_s"] * 1e3 * yard.factor_at(q["submit_ns"]) for q in ok_live]),
            "server.worker_busy_frac":
                sum(q["elapsed_s"] for q in ok_live) / r.raw_wall_s,
            "server.live_cells": len(live),
            "server.memo_served": len(memo),
            "journal.records": data["journal_records"],
        }
        r.add_spans(data["spans"], yard)
    return r


ROUNDS = {"hunt": round_hunt, "rerun": round_rerun, "daemon": round_daemon}


def run_workload(workload, seed, seconds, traced):
    """Rounds until `seconds` have passed. A traced run makes every third
    round untraced (for host.trace_overhead) and keeps going until its
    scenario percentiles have enough samples."""
    work = os.path.join(BUILD_DIR, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = {"store": os.path.join(work, "store")}
    # Everything runs on one CPU: the daemon's worker and the client's
    # calibration slices must share it, and one busy process never needs
    # two.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rounds = []
    t0 = time.monotonic()
    try:
        while True:
            n = len(rounds)
            rng = random.Random(f"{workload}:{seed}:{n}")
            rounds.append(ROUNDS[workload](work, rng, n, traced and n % 3 != 0, ctx))
            elapsed = time.monotonic() - t0
            if elapsed + 1.5 * elapsed / len(rounds) > RUN_LIMIT_S:
                break
            if elapsed < seconds:
                continue
            if not traced:
                break
            samples = sum(len(r.scenario_ms) for r in rounds if r.traced)
            if n >= 1 and (samples >= P95_MIN_SAMPLES or samples == 0):
                break
        if traced:
            write_trace(workload, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(rounds, traced)


def write_trace(workload, rounds):
    """The traced rounds' spans, and each span's median self time."""
    traced = [r for r in rounds if r.traced]
    with open(os.path.join(BUILD_DIR, f"trace-{workload}.json"), "w") as f:
        json.dump({"self_s": {name: median([r.self_s.get(name, 0.0) for r in traced])
                              for name in SPANS},
                   "rounds": [r.spans for r in traced]}, f)


def request_p50(rounds):
    """The median over cells of each cell's median time. The cells differ
    in length, so pooling their samples would put the median in a gap
    between two cells and make it jump from run to run."""
    by_cell = {}
    for r in rounds:
        for cid, secs in r.requests_s:
            by_cell.setdefault(cid, []).append(secs)
    return median([median(xs) for xs in by_cell.values()])


def summarize(rounds, traced):
    attempted = sum(r.attempted for r in rounds)
    failures = [x for r in rounds for x in r.failures]
    for x in failures[:20]:
        print("perfbench: FAILED " + x, file=sys.stderr)
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update({name: unit for name, unit, *_ in PER_LAYER})
    plain = [r for r in rounds if not r.traced]
    print(f"perfbench: {len(rounds)} round(s), {len(rounds) - len(plain)} traced; "
          f"request_p50_s over {sum(len(r.requests_s) for r in plain)} cell(s) or "
          f"live request(s); setup_s over {sum(len(r.setups_s) for r in rounds)} "
          f"set-up(s); failed {len(failures)}/{attempted}", file=sys.stderr)
    if not traced:
        values = {
            "wall_s": median([r.wall_s for r in plain]),
            "request_p50_s": request_p50(plain),
            "peak_rss_mb": median([r.rss_mb for r in plain]),
            "setup_s": median([x for r in rounds for x in r.setups_s]),
        }
    else:
        tr = [r for r in rounds if r.traced]
        if not tr or not plain:
            raise RuntimeError("no traced and untraced round pair fitted in the time limit")
        values = {name: 0.0 for name, *_ in PER_LAYER}
        for key in tr[0].layer:
            values[key] = median([r.layer.get(key, 0) for r in tr])
        scen = [x for r in tr for x in r.scenario_ms]
        values["campaign.scenario_p50_ms"] = median(scen)
        values["campaign.scenario_p95_ms"] = (
            percentile(scen, 95) if len(scen) >= P95_MIN_SAMPLES else 0.0)
        for s in SPANS:
            values["self." + s + "_s"] = median([r.self_s.get(s, 0.0) for r in tr])
        values["host.raw_wall_s"] = median([r.raw_wall_s for r in plain])
        values["host.calib_slice_ms"] = median([x for r in plain for x in r.slices_ms])
        values["host.trace_overhead"] = (
            median([r.wall_s for r in tr]) / median([r.wall_s for r in plain]))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


# ---------------------------------------------------------------------------
# Developer modes.

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def one_run(workload, seed, seconds, trace):
    r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        die(f"{workload} seed {seed} exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def steady(workload, n, first_seed, seconds):
    seeds = range(first_seed, first_seed + n)
    runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
    bound = bounds()
    print(f"{workload}: {n} runs, seeds {seeds[0]}..{seeds[-1]}, failed "
          f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
    print(f"{'metric':16} {'median':>10} {'q1':>10} {'q3':>10} {'min':>10} {'max':>10}"
          f" {'iqr/med':>8} {'bound':>6}")
    for name, unit, _ in END_TO_END:
        xs = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(xs)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:16} {med:10.4f} {q1:10.4f} {q3:10.4f} {min(xs):10.4f} {max(xs):10.4f}"
              f" {spread:8.2%} {bound.get(name, 0):6}  {unit}")
    print("values: " + json.dumps({name: [r["metrics"][name]["value"] for r in runs]
                                   for name, _, _ in END_TO_END}))


def report(seconds):
    for workload in WORKLOADS:
        plain = one_run(workload, 1, seconds, 0)
        traced = one_run(workload, 1, seconds, 1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        print(f"== {workload}: failed_frac = {failed}/{attempted} = {failed / attempted:.3f}")
        for name, unit, what in END_TO_END:
            print(f"  {name:32} {plain['metrics'][name]['value']:12.4f} {unit:6}  {what}")
        for name, unit, _, layer, moves, on in PER_LAYER:
            print(f"  {name:32} {traced['metrics'][name]['value']:12.4f} {unit:6}"
                  f"  [{layer}] moves {moves} on {on}")


def pin():
    build()
    r = subprocess.run([EXE, "pin"] + ALL_CELLS, cwd=ROOT, env=clean_env(),
                       stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        die("pinning failed")
    with open(PINS, "w") as f:
        f.write(r.stdout)


def check_spec():
    """BENCHMARK.json and this file must name the same metrics."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        die("run from the root of the repository (no BENCHMARK.json here)")
    if [m["name"] for m in spec["end_to_end"]] != [m[0] for m in END_TO_END] or \
            [m["name"] for m in spec["per_layer"]] != [m[0] for m in PER_LAYER]:
        die("BENCHMARK.json and perfbench/run.py list different metrics")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N")
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    # A SIGTERM unwinds like an error, so the daemon is stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    check_spec()
    if args.pin:
        return pin()
    if args.report:
        return report(args.seconds)
    if args.workload is None:
        die("--workload is required")
    if args.steady:
        return steady(args.workload, args.steady, args.seed, args.seconds)
    build()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    except RuntimeError as e:
        die(str(e))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
