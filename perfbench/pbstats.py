"""Pure helpers of the benchmark: percentiles and span arithmetic (self
time, attributed share, Chrome trace export).

Everything here is deterministic and free of I/O, so tests/test_perfbench.py
can pin it down on known inputs.
"""

import math


# ---- percentiles ------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it.  p is in (0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile out of range")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values):
    """The middle sample, or the mean of the two middle samples."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def tail_percentile(n):
    """The highest of p99.9, p99 and p90 that leaves at least ten of n
    samples beyond it, or None when not even p90 does (n < 100)."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


# ---- spans ---------------------------------------------------------------------
# A span is a dict with id, parent (0 = none), name, t0, t1 (nanoseconds),
# req and dom.  Children may run on other domains and overlap each other.

def _union_length(intervals):
    total, end = 0, None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total


def covered(span, children):
    """Length of the part of [span] that its children's intervals cover."""
    clipped = [(max(c["t0"], span["t0"]), min(c["t1"], span["t1"]))
               for c in children]
    return _union_length([(a, b) for a, b in clipped if b > a])


def children_of(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def self_times(spans):
    """Self time per span name: each span's duration minus the part its
    children cover, summed over the spans of that name (nanoseconds)."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        own = (s["t1"] - s["t0"]) - covered(s, kids.get(s["id"], []))
        out[s["name"]] = out.get(s["name"], 0) + own
    return out


def attributed_share(spans, roots, exclude=()):
    """Share of the root spans' time that their child spans cover, leaving
    out children named in [exclude] (e.g. queue waits that overlap the
    work of other children)."""
    kids = children_of(s for s in spans if s["name"] not in exclude)
    total = sum(r["t1"] - r["t0"] for r in roots)
    if total <= 0:
        return 0.0
    return sum(covered(r, kids.get(r["id"], [])) for r in roots) / total


def chrome_trace(processes):
    """Chrome trace-event JSON (opens in Perfetto) from a list of
    (pid, label, spans): one complete ("X") event per span, timestamps in
    microseconds, thread = OCaml domain."""
    events = []
    for pid, label, spans in processes:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        for s in spans:
            events.append({
                "name": s["name"], "ph": "X", "pid": pid, "tid": s["dom"],
                "ts": s["t0"] / 1000.0, "dur": (s["t1"] - s["t0"]) / 1000.0,
                "args": {"id": s["id"], "parent": s["parent"], "req": s["req"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
