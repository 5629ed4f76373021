#!/usr/bin/env python3
"""The repository benchmark: drives the shipped `record` binary on one of
two workloads and prints one JSON result line.

    python3 perfbench/run.py --workload cli_oneshot|dse_sweep
                             --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it builds bin/record_cli.exe
and perfbench/pbtool.exe with dune, then works under .perfbench/ in the
checkout.  --trace 0 measures the end-to-end metrics with no tracing;
--trace 1 runs the layer-by-layer replay (pbtool) and reports the
per-layer metrics.  perfbench/README.md explains the workloads, the
metrics and what each layer metric is expected to move.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import selectors
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import pbstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
RECORD = os.path.join(ROOT, "_build", "default", "bin", "record_cli.exe")
PBTOOL = os.path.join(ROOT, "_build", "default", "perfbench", "pbtool.exe")

NPROC = len(os.sched_getaffinity(0))
TARGETS = ["tic25", "dsp56", "risc32", "asip"]
SETUP_REPS = 15
PROC_TIMEOUT_S = 60

# Kernel/target pairs the bundled machines cannot carry (the asip's four
# address registers).  An Unsupported anywhere else is a failure, so a
# coverage regression cannot lower code_words by dropping a pair.
EXPECTED_UNSUPPORTED = {
    ("n_real_updates", "asip"),
    ("n_complex_updates", "asip"),
    ("iir_biquad_n_sections", "asip"),
}

KERNEL_NAMES = ["real_update", "complex_multiply", "complex_update",
                "n_real_updates", "n_complex_updates", "fir",
                "iir_biquad_one_section", "iir_biquad_n_sections",
                "dot_product", "convolution"]

# The fixed pair set behind code_words and code_cycles: the 37 supported
# Table-1 kernel x bundled-target pairs.
QUALITY_PAIRS = {(k, t) for k in KERNEL_NAMES for t in TARGETS} - EXPECTED_UNSUPPORTED

# Fixed latency limits behind slo_share, one per workload's unit of work.
CLI_LIMIT_MS = 100.0
DSE_LIMIT_S = 4.0

END_TO_END = {
    "cold_ms": "ms", "warm_share": "share", "tail_ms": "ms",
    "throughput_per_s": "1/s", "slo_share": "share",
    "code_words": "words", "code_cycles": "cycles",
    "peak_rss_mb": "MB", "setup_s": "s",
}

PHASES = ["validate", "source-rewrite", "select-emit", "peephole", "modeopt",
          "regalloc", "scratchpack", "layout", "compaction"]

PER_LAYER = (
    [("key.salt_ms", "ms"), ("key.make_us", "us"),
     ("burs.build_ms", "ms"), ("burs.builds", "count"),
     ("burs.states", "count"), ("burs.transitions", "count"),
     ("registry.matcher_for_us", "us"),
     ("dfl.parse_us", "us"), ("dfl.lower_us", "us"),
     ("pipeline.compile_us", "us")]
    + [("phase.%s_us" % p, "us") for p in PHASES]
    + [("sel.variant_nodes", "count"), ("sel.nodes_labelled", "count"),
       ("sel.state_prunes", "count"), ("sel.dag_cuts", "count"),
       ("sel.exh_wins", "count"), ("hashcons.hit_share", "share"),
       ("sim.prepare_us", "us"), ("sim.run_us", "us"),
       ("sim.cycles_per_s", "1/s"),
       ("cache.find_mem_us", "us"), ("cache.find_disk_us", "us"),
       ("cache.store_us", "us"), ("cache.hit_share", "share"),
       ("cache.evictions", "count"), ("cache.uncached_recompiles", "share"),
       ("json.parse_us", "us"), ("protocol.decode_us", "us"),
       ("json.encode_us", "us"),
       ("pool.queue_wait_us.p50", "us"), ("pool.queue_wait_us.p99", "us"),
       ("pool.busy_share", "share"),
       ("dse.sample_us", "us"), ("dse.machine_build_ms", "ms"),
       ("dse.score_ms", "ms"), ("dse.pareto_ms", "ms"),
       ("dse.unsupported_share", "share"),
       ("process.start_exit_ms", "ms"),
       ("trace.attributed_share", "share"), ("trace.overhead_share", "share")]
)


class BenchError(Exception):
    """The benchmark itself cannot run (not a failure of the program)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fresh_dir(*parts):
    path = os.path.join(STATE, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env():
    env = dict(os.environ)
    # Nothing the program or dune writes may land outside the checkout.
    env["XDG_CACHE_HOME"] = os.path.join(STATE, "xdg-cache")
    env["DUNE_CACHE"] = "disabled"
    return env


# ---- processes -----------------------------------------------------------------

def run_proc(argv, timeout=PROC_TIMEOUT_S):
    """Run one process to completion: (exit code, stdout, stderr, wall
    seconds, peak RSS in MB).  The peak is the child's own ru_maxrss,
    taken from wait4, so it is the measured process's VmHWM.  The pipes are
    drained from this thread, so the benchmark never runs more threads than
    the load needs."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=child_env(), cwd=ROOT)
    chunks = {p.stdout: [], p.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            events = sel.select(max(0.0, t0 + timeout - time.perf_counter()))
            if not events:
                p.kill()
                break
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.stdout.close()
    p.stderr.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return (p.returncode, b"".join(chunks[p.stdout]).decode(),
            b"".join(chunks[p.stderr]).decode(), wall, usage.ru_maxrss / 1024.0)


def build():
    """Build the shipped binary and the benchmark's own tool from source."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isfile(os.path.join(ROOT, "bin", "record_cli.ml"))):
        raise BenchError("not a source checkout of the record compiler: %s" % ROOT)
    os.makedirs(STATE, exist_ok=True)
    with open(os.path.join(STATE, "build.log"), "wb") as logf:
        rc = subprocess.call(
            ["dune", "build", "--root", ROOT, "-j", str(NPROC),
             "bin/record_cli.exe", "perfbench/pbtool.exe"],
            stdout=logf, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
            timeout=800)
    if rc != 0 or not os.path.isfile(RECORD) or not os.path.isfile(PBTOOL):
        raise BenchError("build failed, see .perfbench/build.log")


def gen_programs(seed, count, directory):
    os.makedirs(directory, exist_ok=True)
    rc, _, err, _, _ = run_proc([PBTOOL, "gen", "--seed", str(seed),
                                 "--count", str(count), "--dir", directory])
    if rc != 0:
        raise BenchError("pbtool gen failed: " + err.strip())
    with open(os.path.join(directory, "manifest.json")) as f:
        return json.load(f)


def start_probe():
    """One short-lived `record targets` process: program start-up cost."""
    rc, out, _, _, _ = run_proc([RECORD, "targets"])
    if rc != 0 or "tic25" not in out:
        raise BenchError("record targets failed")


def read_text(path):
    """A file's contents, or "" when the program did not write it."""
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def input_flags(inputs):
    flags = []
    for name, values in inputs.items():
        flags += ["-i", "%s=%s" % (name, ",".join(str(v) for v in values))]
    return flags


def outputs_match(got, expected):
    return isinstance(got, dict) and got == expected


class Tally:
    """Attempts and failures; every failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def ok(self):
        self.attempted += 1

    def fail(self, reason):
        self.attempted += 1
        self.failures.append(reason)


def quality(words_cycles):
    """code_words/code_cycles: sums over the fixed QUALITY_PAIRS (tree
    selection, the default), from {(kernel, target): (words, cycles)}.
    Returns (words, cycles, newly supported pairs): a pair outside the set
    that now compiles is reported, not summed, so the sums stay comparable.
    A pair of the set that is missing has already failed its check; its
    absence would lower the sums, so no figure is reported at all."""
    missing = sorted(QUALITY_PAIRS - set(words_cycles))
    if missing:
        raise BenchError("quality set incomplete, missing %s" % missing[:3])
    return (sum(words_cycles[p][0] for p in QUALITY_PAIRS),
            sum(words_cycles[p][1] for p in QUALITY_PAIRS),
            sorted("%s@%s" % p for p in set(words_cycles) - QUALITY_PAIRS))


# ---- workloads -------------------------------------------------------------------

class Workload:
    """A workload keeps its files under .perfbench/<name>.  Each run starts
    from an empty directory and removes it again at the end, outside the
    timed parts; a sync after each makes the next run start with the
    deletions written out rather than under its measurement.  prepare()
    writes the run's inputs, outside the timed set-up, which holds only the
    program's own set-up: a fresh cache directory and one `record targets`
    start-up."""

    name = None

    def prepare(self):
        shutil.rmtree(os.path.join(STATE, self.name), ignore_errors=True)
        os.sync()

    def cleanup(self):
        shutil.rmtree(os.path.join(STATE, self.name), ignore_errors=True)
        os.sync()


# ---- cli_oneshot -----------------------------------------------------------------

class CliOneshot(Workload):
    """A fresh `record compile --json --check` process per program x target,
    twice against one fresh cache directory: a miss, then a disk hit."""

    name = "cli_oneshot"

    def __init__(self, seed, seconds):
        self.seed, self.seconds = seed, seconds
        self.fuzz_count = max(25, int(round(seconds * 3)))

    def prepare(self):
        super().prepare()
        self.manifest = gen_programs(self.seed, self.fuzz_count, fresh_dir(self.name, "progs"))
        progs = ([("kernel", k) for k in self.manifest["kernels"]]
                 + [("fuzz", f) for f in self.manifest["fuzz"]])
        self.pairs = [(kind, p, t) for kind, p in progs for t in TARGETS]
        random.Random(self.seed).shuffle(self.pairs)
        os.sync()

    def setup(self, rep):
        self.cache = fresh_dir(self.name, "rep%d" % rep, "cache")
        start_probe()

    def compile_argv(self, prog, target, tool=None, cache=None):
        if tool is None:
            return ([RECORD, "compile", "--json", "--check", "-t", target]
                    + input_flags(prog["inputs"])
                    + ["--cache-dir", cache or self.cache, prog["file"]])
        return tool + ["--file", prog["file"], "--target", target,
                       "--cache-dir", cache or self.cache] + [
            a for name, values in prog["inputs"].items()
            for a in ("--input", "%s=%s" % (name, ",".join(map(str, values))))]

    def check_one(self, tally, kind, prog, target, rc, out, err, want_cache):
        """Check one compile's outcome; returns (words, cycles) or None."""
        label = "%s@%s" % (prog["name"], target)
        if rc == 1 and err.startswith("record: ") and kind == "kernel" \
                and (prog["name"], target) in EXPECTED_UNSUPPORTED:
            tally.ok()
            return None
        if rc != 0:
            tally.fail("%s: exit %d %s" % (label, rc, err.strip()[:200]))
            return None
        try:
            doc = json.loads(out)
        except ValueError:
            tally.fail("%s: unreadable output" % label)
            return None
        if doc.get("check") is not True or not outputs_match(doc.get("outputs"), prog["expected"]):
            tally.fail("%s: wrong outputs" % label)
        elif doc.get("cache") != want_cache:
            tally.fail("%s: cache %s, expected %s" % (label, doc.get("cache"), want_cache))
        else:
            tally.ok()
            return doc["words"], doc["cycles"]
        return None

    def measure(self):
        tally = Tally()
        miss_ms, hit_ms, warm_share, rss, quality_set = [], [], [], [], {}
        t_end = time.perf_counter() + self.seconds
        kernel_pairs = sum(1 for p in self.pairs if p[0] == "kernel")
        done_kernels = 0
        for kind, prog, target in self.pairs:
            if time.perf_counter() >= t_end and done_kernels == kernel_pairs \
                    and len(miss_ms) >= 100:
                break
            argv = self.compile_argv(prog, target)
            rc, out, err, wall, peak = run_proc(argv)
            first = self.check_one(tally, kind, prog, target, rc, out, err, "miss")
            rc2, out2, err2, wall2, peak2 = run_proc(argv)
            second = self.check_one(tally, kind, prog, target, rc2, out2, err2, "disk-hit")
            if kind == "kernel":
                done_kernels += 1
            if first is not None:
                miss_ms.append(wall * 1000.0)
                rss.append(peak)
                if kind == "kernel":
                    quality_set[(prog["name"], target)] = first
            if second is not None:
                hit_ms.append(wall2 * 1000.0)
                rss.append(peak2)
                if second != first:
                    tally.fail("%s@%s: hit differs from miss" % (prog["name"], target))
                elif first is not None:
                    warm_share.append(wall2 / wall)
        if len(miss_ms) < 100:
            raise BenchError("only %d misses measured" % len(miss_ms))
        words, cycles, newly_supported = quality(quality_set)
        n = len(miss_ms) + len(hit_ms)
        tail = pbstats.tail_percentile(len(miss_ms))
        return tally, {
            "cold_ms": pbstats.median(miss_ms),
            "warm_share": pbstats.median(warm_share),
            "tail_ms": pbstats.percentile(miss_ms, tail),
            "throughput_per_s": n / (sum(miss_ms) + sum(hit_ms)) * 1000.0,
            "slo_share": sum(1 for v in miss_ms if v <= CLI_LIMIT_MS) / len(miss_ms),
            "code_words": words, "code_cycles": cycles,
            "peak_rss_mb": pbstats.median(rss),
        }, {"misses": len(miss_ms), "hits": len(hit_ms), "tail_percentile": tail,
            "warm_ms_p50": pbstats.median(hit_ms),
            "newly_supported": newly_supported}

    def traced(self):
        """pbtool oneshot per program, traced and untraced, each as a miss
        then a disk hit; the process wall time is taken from outside, so
        the part no span covers is process start-up and exit."""
        tally = Tally()
        runs = {"1": [], "0": []}
        processes = []
        t_end = time.perf_counter() + self.seconds
        for i, (kind, prog, target) in enumerate(self.pairs):
            if time.perf_counter() >= t_end and i >= 20:
                break
            for trace in ("1", "0"):
                cache = os.path.join(self.cache, "trace" + trace)
                for want in ("miss", "disk-hit"):
                    out_path = os.path.join(STATE, self.name, "span.json")
                    tool = [PBTOOL, "oneshot", "--record", RECORD, "--req", str(i),
                            "--trace", trace, "--out", out_path]
                    rc, _, err, wall, _ = run_proc(self.compile_argv(prog, target, tool, cache))
                    if rc != 0:
                        tally.fail("pbtool oneshot %s@%s: %s" % (prog["name"], target, err[:200]))
                        continue
                    with open(out_path) as f:
                        res = json.load(f)
                    doc = res["result"]
                    if doc.get("status") == "unsupported":
                        if (prog["name"], target) in EXPECTED_UNSUPPORTED:
                            tally.ok()
                        else:
                            tally.fail("%s@%s unsupported" % (prog["name"], target))
                    elif not (doc.get("check") is True and doc.get("cache") == want
                              and outputs_match(doc.get("outputs"), prog["expected"])):
                        tally.fail("%s@%s: wrong replay result" % (prog["name"], target))
                    else:
                        tally.ok()
                    res["outside_ns"] = int(wall * 1e9)
                    runs[trace].append(res)
                    if trace == "1":
                        processes.append(("%s@%s %s" % (prog["name"], target, want), res))
        traced = runs["1"]
        spans = [s for r in traced for s in r["spans"]]
        outside = sum(r["outside_ns"] for r in traced)
        inside = sum(pbstats.covered({"t0": 0, "t1": 1 << 62}, [
            s for s in r["spans"] if s["name"] != "oneshot"]) for r in traced)
        layers = layer_metrics(spans, merged_counters(traced), units=len(traced))
        layers["trace.attributed_share"] = inside / outside
        layers["process.start_exit_ms"] = (outside - inside) / len(traced) / 1e6
        layers["trace.overhead_share"] = overhead(
            [r["outside_ns"] for r in runs["1"]], [r["outside_ns"] for r in runs["0"]])
        chrome = []
        for pid, (label, r) in enumerate(processes, 1):
            first = min(s["t0"] for s in r["spans"])
            chrome.append((pid, label, r["spans"] + [{
                "id": 0, "parent": -1, "name": "process start/exit (unattributed)",
                "t0": first - (r["outside_ns"] - r["wall_ns"]), "t1": first,
                "req": -1, "dom": 0}]))
        return tally, layers, spans, chrome


# ---- dse_sweep -------------------------------------------------------------------

DSE_SAMPLES = 32

# `record dse` exits 1 with this message, after writing its document, when
# no sampled architecture carries every kernel.  A 32-sample sweep draws
# such an empty front now and then; the oracle still checks every job.
DSE_EMPTY_FRONT = ("record: empty Pareto front (no sampled architecture carries "
                   "the whole workload)")

# The Unsupported a sampled ASIP gives at HEAD: a loop needs more address
# registers than the machine has (Opt.Agu.Too_many_streams).
AGU_LIMIT = re.compile(r"loop over \w+ needs (\d+) address streams \(\+1 counter\), "
                       r"AGU has (\d+) registers$")

# The cache counters `record dse` prints in its text summary.
DSE_CACHE_LINE = re.compile(r"^cache: (\d+) memory hits, (\d+) disk hits, (\d+) misses, "
                            r"(\d+) stores", re.M)


def dse_exit_ok(rc, err, doc_text):
    """True when a `record dse` exit code agrees with its document: 0 with a
    non-empty Pareto front, or 1 with the empty-front message and none."""
    try:
        front = json.loads(doc_text)["pareto"]
    except (ValueError, KeyError, TypeError):
        return False
    if rc == 0:
        return bool(front)
    return rc == 1 and err.strip() == DSE_EMPTY_FRONT and front == []


def arch_cost(p):
    """The documented gate-count model of Dse.Score.arch_cost."""
    return (1000 + 2500 * p["multiplier"] + 800 * p["mac"] + 150 * p["saturation"]
            + 600 * p["accumulators"] + 120 * p["address_regs"] + 40 * p["imm_bits"])


def dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def limit_explains(error, params):
    """True when a kernel's failure on a sampled machine is a limit of that
    machine, as the compiler reports it through Pipeline.Error: a loop with
    more address streams than the machine's own address registers hold,
    register pressure, or a reference the AGU cannot lower.  Simulator
    errors ("exec error: ...", "mode violation: ...") and any other message
    are compiler failures."""
    m = AGU_LIMIT.match(error)
    if m:
        streams, registers = int(m.group(1)), int(m.group(2))
        return registers == int(params["address_regs"]) and streams + 1 > registers
    return error.startswith(("register pressure: ", "Agu.lower: "))


def check_dse_doc(doc, seed):
    """Independent checks of a record-dse-1 document's own arithmetic;
    returns a list of problems (empty when the document is sound)."""
    problems = []
    if doc.get("protocol") != "record-dse-1" or doc.get("seed") != seed \
            or doc.get("samples") != DSE_SAMPLES:
        return ["bad header"]
    archs = doc["architectures"]
    if len(archs) != DSE_SAMPLES:
        problems.append("%d architectures" % len(archs))
    complete = []
    for a in archs:
        kernels = a["kernels"]
        ok = [k for k in kernels if k["status"] == "ok"]
        if [k["kernel"] for k in kernels] != KERNEL_NAMES:
            problems.append("kernels of sample %d" % a["sample"])
        if a["complete"] != (len(ok) == len(kernels)):
            problems.append("complete flag of sample %d" % a["sample"])
        if a["cost"] != arch_cost({k: int(v) for k, v in a["params"].items()}):
            problems.append("cost of sample %d" % a["sample"])
        if a["words"] != sum(k["words"] for k in ok) \
                or a["cycles"] != sum(k["cycles"] for k in ok):
            problems.append("totals of sample %d" % a["sample"])
        if a["complete"]:
            complete.append(a)
    vec = lambda a: (a["words"], a["cycles"], a["cost"])
    front = [a["sample"] for a in complete
             if not any(dominates(vec(b), vec(a)) for b in complete)]
    if [e["sample"] for e in doc["pareto"]] != front:
        problems.append("pareto front differs from the recomputed one")
    if doc["complete_architectures"] != len(complete):
        problems.append("complete_architectures")
    return problems


def check_rows(tally, doc, rows):
    """Every kernel job of a sweep against the oracle's rows (pbtool
    dse-check), one attempt each.  A kernel the document reports ok must
    have simulated to the reference outputs with the reported words and
    cycles.  One it reports failed must not be in the cache (an Unsupported
    is never stored) and must carry a message its machine's limits
    explain."""
    by_key = {(r["sample"], r["kernel"]): r for r in rows}
    for a in doc["architectures"]:
        for k in a["kernels"]:
            label = "dse seed %d sample %d %s" % (doc["seed"], a["sample"], k["kernel"])
            r = by_key.get((a["sample"], k["kernel"]))
            if r is None:
                tally.fail("%s: no oracle row" % label)
            elif k["status"] == "ok":
                if r["status"] != "ok" or not r["outputs_ok"]:
                    tally.fail("%s: wrong outputs (%s)" % (label, r.get("error", r["status"])))
                elif (r["words"], r["cycles"]) != (k["words"], k["cycles"]):
                    tally.fail("%s: words/cycles %d/%d, simulated %d/%d" % (
                        label, k["words"], k["cycles"], r["words"], r["cycles"]))
                else:
                    tally.ok()
            elif r["status"] != "missing" or not limit_explains(k.get("error", ""), a["params"]):
                tally.fail("%s: %s" % (label, k.get("error", "")[:200]))
            else:
                tally.ok()


class DseSweep(Workload):
    """`record dse --seed S --samples 32` against a fresh cache directory,
    cold and then warm on the same directory."""

    name = "dse_sweep"
    QUALITY_JOBS = [{"kernel": k, "target": t} for k in KERNEL_NAMES for t in TARGETS]

    def __init__(self, seed, seconds):
        self.seed, self.seconds = seed, seconds

    def prepare(self):
        super().prepare()
        work = fresh_dir(self.name, "work")
        self.manifest = gen_programs(self.seed, 0, os.path.join(work, "progs"))
        self.jobs_file = os.path.join(work, "jobs.json")
        with open(self.jobs_file, "w") as f:
            json.dump(self.QUALITY_JOBS, f)
        os.sync()

    def setup(self, rep):
        self.base = fresh_dir(self.name, "rep%d" % rep)
        start_probe()

    def sweep_seed(self, k):
        return self.seed * 1000 + k

    def dse_argv(self, s, cache, out):
        return [RECORD, "dse", "--seed", str(s), "--samples", str(DSE_SAMPLES),
                "--cache-dir", cache, "-o", out]

    def check_batch(self, tally, doc):
        """Check a record-batch-1 document of the quality jobs; returns
        quality() of its results."""
        kernels = {k["name"]: k for k in self.manifest["kernels"]}
        got = {}
        for job, r in zip(self.QUALITY_JOBS, doc["results"]):
            pair = (job["kernel"], job["target"])
            if r["status"] == "unsupported" and pair in EXPECTED_UNSUPPORTED:
                tally.ok()
            elif r["status"] == "done" and outputs_match(
                    r["result"]["outputs"], kernels[job["kernel"]]["expected"]):
                tally.ok()
                got[pair] = (r["result"]["words"], r["result"]["cycles"])
            else:
                tally.fail("batch %s@%s: %s" % (pair + (r["status"],)))
        return quality(got)

    def quality_probe(self, tally):
        """The Table-1 kernels on the bundled targets through `record batch`,
        for code_words/code_cycles."""
        rc, out, err, _, _ = run_proc([RECORD, "batch", self.jobs_file, "--json",
                                       "--cache-dir", os.path.join(self.base, "batch-cache")])
        if rc != 0:
            raise BenchError("record batch failed: " + err.strip()[:300])
        return self.check_batch(tally, json.loads(out))

    def check_sweep(self, tally, s, cache, path):
        """The oracle of one sweep, run outside its timed passes: the document's
        own arithmetic, then every kernel job against pbtool dse-check, which
        simulates what the sweep wrote to its cache.  Returns the number of
        compiles the oracle had to run itself (0 when the keys match)."""
        with open(path) as f:
            doc = json.load(f)
        problems = check_dse_doc(doc, s)
        if problems:
            tally.fail("dse seed %d: %s" % (s, "; ".join(problems[:3])))
            return 0
        tally.ok()
        out = os.path.join(self.base, "oracle.json")
        rc, _, err, _, _ = run_proc(
            [PBTOOL, "dse-check", "--record", RECORD, "--seed", str(s),
             "--samples", str(DSE_SAMPLES), "--selection", doc["selection"],
             "--matcher", doc["matcher"], "--cache-dir", cache, "--doc", path,
             "--out", out])
        if rc != 0:
            tally.fail("dse seed %d: pbtool dse-check: %s" % (s, err.strip()[:200]))
            return 0
        with open(out) as f:
            oracle = json.load(f)
        check_rows(tally, doc, oracle["rows"])
        return oracle["compiles"]

    def measure(self):
        tally = Tally()
        words, cycles, newly_supported = self.quality_probe(tally)
        cold, warm, warm_share, rss = [], [], [], []
        t_end = time.perf_counter() + self.seconds
        k, oracle_compiles, complete = 0, 0, []
        while not cold or time.perf_counter() < t_end:
            s = self.sweep_seed(k)
            k += 1
            cache = os.path.join(self.base, "cache%d" % k)
            docs = []
            for label, walls in (("cold", cold), ("warm", warm)):
                out = os.path.join(self.base, "%s%d.json" % (label, k))
                rc, _, err, wall, peak = run_proc(self.dse_argv(s, cache, out))
                text = read_text(out)
                if not dse_exit_ok(rc, err, text):
                    tally.fail("dse seed %d %s: exit %d %s" % (s, label, rc, err.strip()[:200]))
                    continue
                walls.append(wall * 1000.0)
                rss.append(peak)
                docs.append(text)
            if len(docs) == 2 and docs[0] != docs[1]:
                tally.fail("dse seed %d: cold and warm documents differ" % s)
            elif len(docs) == 2:
                warm_share.append(warm[-1] / cold[-1])
                # Checked at once and then deleted, so the sweep's files are
                # dropped before the kernel writes them back under a later
                # sweep's measurement.
                oracle_compiles += self.check_sweep(
                    tally, s, cache, os.path.join(self.base, "cold%d.json" % k))
                complete.append(json.loads(docs[0])["complete_architectures"])
            shutil.rmtree(cache, ignore_errors=True)
            for label in ("cold", "warm"):
                try:
                    os.remove(os.path.join(self.base, "%s%d.json" % (label, k)))
                except OSError:
                    pass
        # Fewer than 100 sweeps leave no percentile above the median with ten
        # samples beyond it, so the tail a run can report is the median.
        tail = pbstats.tail_percentile(len(cold))
        return tally, {
            "cold_ms": pbstats.median(cold),
            "warm_share": pbstats.median(warm_share),
            "tail_ms": pbstats.percentile(cold, tail) if tail else pbstats.median(cold),
            "throughput_per_s": DSE_SAMPLES / pbstats.median(cold) * 1000.0,
            "slo_share": sum(1 for v in cold if v <= DSE_LIMIT_S * 1000.0) / len(cold),
            "code_words": words, "code_cycles": cycles,
            "peak_rss_mb": pbstats.median(rss),
        }, {"sweeps": len(cold), "cold_ms": cold, "warm_ms": warm,
            "complete_architectures": complete, "oracle_compiles": oracle_compiles,
            "newly_supported": newly_supported}

    def traced(self):
        """pbtool dse replays one sweep cold then warm on one directory,
        traced, then the same pair untraced on a fresh directory.  Each
        replayed pass must give the Pareto front of the real `record dse`
        document of the same seed and the cache counters `record dse`
        prints for the same pass, which ties the replay's order of calls to
        the real one.  pbtool batch replays the quality probe, the
        workload's one JSON jobs document, for the JSON and protocol
        layers."""
        tally = Tally()
        out, replies = os.path.join(self.base, "batch.json"), os.path.join(self.base, "replies.json")
        rc, _, err, _, _ = run_proc(
            [PBTOOL, "batch", "--record", RECORD, "--jobs", self.jobs_file, "--cache-dir",
             os.path.join(self.base, "batch-cache"), "--replies", replies,
             "--trace", "1", "--out", out])
        if rc != 0:
            raise BenchError("pbtool batch failed: " + err.strip()[:300])
        with open(replies) as f:
            self.check_batch(tally, json.load(f))
        with open(out) as f:
            batch = json.load(f)
        s = self.sweep_seed(0)
        real_counts = {}
        for label in ("cold", "warm"):
            real = os.path.join(self.base, "real-%s.json" % label)
            rc, text, err, _, _ = run_proc(
                self.dse_argv(s, os.path.join(self.base, "real-cache"), real))
            m = DSE_CACHE_LINE.search(text)
            if not dse_exit_ok(rc, err, read_text(real)) or not m:
                raise BenchError("record dse failed: " + err.strip()[:300])
            real_counts[label] = tuple(int(g) for g in m.groups())
        with open(real) as f:
            doc = json.load(f)
        runs = {}
        for trace in ("1", "0"):
            cache = os.path.join(self.base, "replay-cache" + trace)
            for label in ("cold", "warm"):
                out = os.path.join(self.base, "replay-%s%s.json" % (label, trace))
                rc, _, err, _, _ = run_proc(
                    [PBTOOL, "dse", "--record", RECORD, "--seed", str(s),
                     "--samples", str(DSE_SAMPLES), "--cache-dir", cache,
                     "--trace", trace, "--out", out], timeout=170)
                if rc != 0:
                    raise BenchError("pbtool dse failed: " + err.strip()[:300])
                with open(out) as f:
                    res = json.load(f)
                runs[(trace, label)] = res
                counts = tuple(int(res["counters"].get("cache." + n, 0)) for n in
                               ("memory_hits", "disk_hits", "misses", "stores"))
                if res["pareto"] != [e["sample"] for e in doc["pareto"]] \
                        or res["complete_architectures"] != doc["complete_architectures"]:
                    tally.fail("replay %s: front differs from record dse" % label)
                elif counts != real_counts[label]:
                    tally.fail("replay %s: cache memory/disk hits, misses, stores %s; "
                               "record dse printed %s" % (label, counts, real_counts[label]))
                else:
                    tally.ok()
        traced = [runs[("1", "cold")], runs[("1", "warm")]]
        spans = [sp for r in traced for sp in r["spans"]]
        roots = [sp for sp in spans if sp["name"] == "dse.pass"]
        counters = merged_counters(traced)
        layers = layer_metrics(spans, counters, units=2,
                               wall_ns=sum(r["wall_ns"] for r in traced))
        layers["dse.unsupported_share"] = sum(r["unsupported"] for r in traced) / sum(
            r["jobs"] for r in traced)
        # Every job is queued when the pass starts, so queue waits span the
        # whole pass; only the work itself counts as attributed.
        layers["trace.attributed_share"] = pbstats.attributed_share(
            spans, roots, exclude={"pool.queue_wait"})
        layers["trace.overhead_share"] = overhead(
            [r["wall_ns"] for r in traced],
            [runs[("0", "cold")]["wall_ns"], runs[("0", "warm")]["wall_ns"]])
        batch_layers = layer_metrics(batch["spans"], batch["counters"], units=1)
        for name in ("json.parse_us", "protocol.decode_us"):
            layers[name] = batch_layers[name]
        chrome = [(1, "pbtool dse cold", traced[0]["spans"]),
                  (2, "pbtool dse warm", traced[1]["spans"]),
                  (3, "pbtool batch (quality probe)", batch["spans"])]
        return tally, layers, spans + batch["spans"], chrome


# ---- per-layer metrics -------------------------------------------------------------

def merged_counters(results):
    out = {}
    for r in results:
        for k, v in r["counters"].items():
            out[k] = out.get(k, 0.0) + v
    return out


def overhead(traced_ns, untraced_ns):
    return (sum(traced_ns) - sum(untraced_ns)) / sum(untraced_ns)


def layer_metrics(spans, counters, units, wall_ns=None):
    """Per-layer metrics from the traced replay.  `_us` metrics are the mean
    duration of one call; `_ms` totals and counts are per unit of work (a
    process for cli_oneshot, a pass for dse_sweep); selection counts are per
    pipeline run.  A layer the
    workload does not reach reads 0."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["t1"] - s["t0"])

    def mean_us(name):
        d = by_name.get(name)
        return sum(d) / len(d) / 1e3 if d else 0.0

    def total_ms(name):
        return sum(by_name.get(name, [])) / 1e6 / units

    c = lambda k: counters.get(k, 0.0)
    compiles = c("pipeline.compiles")
    per_compile = lambda k: c(k) / compiles if compiles else 0.0
    m = {
        "key.salt_ms": total_ms("key.salt"),
        "key.make_us": mean_us("key.make"),
        "burs.build_ms": c("burs.build_ms") / units,
        "burs.builds": c("burs.builds") / units,
        "burs.states": c("burs.states") / units,
        "burs.transitions": c("burs.transitions") / units,
        "registry.matcher_for_us": mean_us("registry.matcher_for"),
        "dfl.parse_us": mean_us("dfl.parse"),
        "dfl.lower_us": mean_us("dfl.lower"),
        "pipeline.compile_us": mean_us("pipeline.compile"),
    }
    for p in PHASES:
        m["phase.%s_us" % p] = per_compile("phase.%s_ms" % p) * 1e3
    for k in ("variant_nodes", "nodes_labelled", "state_prunes", "dag_cuts", "exh_wins"):
        m["sel." + k] = per_compile("sel." + k)
    probes = c("hashcons.hits") + c("hashcons.misses")
    m["hashcons.hit_share"] = c("hashcons.hits") / probes if probes else 0.0
    m["sim.prepare_us"] = mean_us("sim.prepare")
    m["sim.run_us"] = mean_us("sim.run")
    run_ns = sum(by_name.get("sim.run", []))
    m["sim.cycles_per_s"] = c("sim.cycles") / (run_ns / 1e9) if run_ns else 0.0
    m["cache.find_mem_us"] = mean_us("cache.find_mem")
    m["cache.find_disk_us"] = mean_us("cache.find_disk")
    m["cache.store_us"] = mean_us("cache.store")
    finds = sum(len(by_name.get(n, [])) for n in
                ("cache.find_mem", "cache.find_disk", "cache.find_miss"))
    hits = len(by_name.get("cache.find_mem", [])) + len(by_name.get("cache.find_disk", []))
    m["cache.hit_share"] = hits / finds if finds else 0.0
    m["cache.evictions"] = c("cache.evictions") / units
    m["cache.uncached_recompiles"] = per_compile("pipeline.uncached_recompiles")
    m["json.parse_us"] = mean_us("json.parse")
    m["protocol.decode_us"] = mean_us("protocol.decode")
    m["json.encode_us"] = mean_us("json.encode")
    waits = by_name.get("pool.queue_wait", [])
    m["pool.queue_wait_us.p50"] = pbstats.percentile(waits, 50) / 1e3 if waits else 0.0
    m["pool.queue_wait_us.p99"] = pbstats.percentile(waits, 99) / 1e3 if waits else 0.0
    domains = c("pool.domains") / max(units, 1)
    m["pool.busy_share"] = (c("pool.busy_ns") / (wall_ns * domains)
                            if wall_ns and domains else 0.0)
    m["dse.sample_us"] = mean_us("dse.sample")
    m["dse.machine_build_ms"] = total_ms("dse.machine_build")
    m["dse.score_ms"] = total_ms("dse.score")
    m["dse.pareto_ms"] = total_ms("dse.pareto")
    m["dse.unsupported_share"] = 0.0
    m["process.start_exit_ms"] = 0.0
    return m


# ---- main ------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (CliOneshot, DseSweep)}


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("bin", "lib"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_facts(args):
    def cmd(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=30).stdout.strip()
        except OSError:
            return ""
    in_git = cmd(["git", "rev-parse", "--show-toplevel"]) == ROOT
    return {
        "nproc": NPROC,
        "git_revision": cmd(["git", "rev-parse", "HEAD"]) if in_git else "not a git checkout",
        "source_sha256": source_digest(),
        "ocaml_version": cmd(["ocamlfind", "ocamlopt", "-version"]) or cmd(["ocaml", "-vnum"]),
        "python_version": platform.python_version(),
        "machine": platform.machine(),
        "record_binary_bytes": os.path.getsize(RECORD),
        "pool_width_default": max(1, NPROC - 1),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        w = WORKLOADS[args.workload](args.seed, args.seconds)
        w.prepare()
        setup_s = []
        try:
            for rep in range(SETUP_REPS if not args.trace else 1):
                t0 = time.perf_counter()
                w.setup(rep)
                setup_s.append(time.perf_counter() - t0)
            os.sync()
            if args.trace:
                tally, metrics, spans, chrome = w.traced()
                # Queue waits overlap each other and the work of other jobs,
                # so they are totalled apart from the self times.
                selfs = pbstats.self_times([s for s in spans if s["name"] != "pool.queue_wait"])
                extra = {
                    "self_time_ms": {k: v / 1e6 for k, v in sorted(
                        selfs.items(), key=lambda kv: -kv[1])},
                    "queue_wait_total_ms": sum(s["t1"] - s["t0"] for s in spans
                                               if s["name"] == "pool.queue_wait") / 1e6,
                }
                trace_path = os.path.join(STATE, "traces", "%s-seed%d.json" % (
                    args.workload, args.seed))
                os.makedirs(os.path.dirname(trace_path), exist_ok=True)
                with open(trace_path, "w") as f:
                    json.dump(pbstats.chrome_trace(chrome), f)
                extra["chrome_trace"] = os.path.relpath(trace_path, ROOT)
                units = dict(PER_LAYER)
            else:
                tally, metrics, extra = w.measure()
                metrics["setup_s"] = pbstats.median(setup_s)
                extra["setup_s_reps"] = setup_s
                units = END_TO_END
        finally:
            w.cleanup()
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(1)
    missing = set(units) - set(metrics)
    if missing:
        log("perfbench: internal error, metrics missing: %s" % sorted(missing))
        sys.exit(1)
    for reason in tally.failures[:20]:
        log("perfbench: FAIL %s" % reason)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(result, workload=args.workload, trace=args.trace,
                  host=host_facts(args), details=extra)
    out_dir = os.path.join(STATE, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"host": record["host"], "details": extra}, default=str))
    print(json.dumps(result))


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    main()
