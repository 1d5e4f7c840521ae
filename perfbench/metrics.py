"""Metric definitions and the statistics rules of the repository benchmark.

The harness (perfbench/harness.cpp) reports raw samples and counts; this
module turns one run's record into the named metrics BENCHMARK.json declares.
Kept free of I/O so perfbench/tests/test_perfbench.py can pin the rules.
"""

import math
import re
import statistics

WORKLOADS = ("road-oneshot", "rmat-oneshot", "serve-hot")

# Metric names: a letter or digit, then letters, digits, '_', '.', '-'.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TAIL_PERCENTILE = 90
TAIL_MIN_BEYOND = 10


class MetricError(ValueError):
    """A metric cannot be reported from this run's samples."""


def nearest_rank(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of all
    samples at or below it. `p` is an integer percent in [1, 100]."""
    if not values:
        raise MetricError("percentile of no samples")
    if not 1 <= p <= 100 or int(p) != p:
        raise MetricError(f"percentile {p} is not an integer in [1, 100]")
    ordered = sorted(values)
    rank = (int(p) * len(ordered) + 99) // 100  # ceil(p * n / 100), exact
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - (int(p) * n + 99) // 100


def tail_reportable(n, p=TAIL_PERCENTILE, need=TAIL_MIN_BEYOND):
    """A percentile is reported only with at least `need` samples beyond it."""
    return n > 0 and samples_beyond(n, p) >= need


def tail(values, p=TAIL_PERCENTILE):
    if not tail_reportable(len(values), p):
        raise MetricError(
            f"p{p} of {len(values)} samples has "
            f"{samples_beyond(len(values), p)} beyond it "
            f"(need {TAIL_MIN_BEYOND})")
    return nearest_rank(values, p)


def _samples(raw, key):
    v = raw["samples"].get(key)
    if not v:
        raise MetricError(f"run reported no '{key}' samples")
    return v


def _value(raw, key):
    if key not in raw["values"]:
        raise MetricError(f"run reported no '{key}' value")
    return raw["values"][key]


def _per_key_median(raw, key):
    # median_low: always one of the deterministic per-seed values, so the
    # metric repeats exactly from run to run.
    v = raw["per_key"].get(key)
    if not v:
        raise MetricError(f"run reported no '{key}' values")
    return statistics.median_low(v)


# (name, unit, better, how to derive it from a harness record)
END_TO_END = [
    ("setup_s", "s", "lower",
     lambda r: statistics.median(_samples(r, "setup_s"))),
    ("peak_rss_mb", "MB", "lower", lambda r: _value(r, "peak_rss_mb")),
    ("estimate_ms_p50", "ms", "lower",
     lambda r: statistics.median(_samples(r, "estimate_ms"))),
    ("sssp_ms_p50", "ms", "lower",
     lambda r: statistics.median(_samples(r, "sssp_ms"))),
    ("sssp_ms_p90", "ms", "lower", lambda r: tail(_samples(r, "sssp_ms"))),
    ("approx_ratio", "ratio", "lower",
     lambda r: _per_key_median(r, "approx_ratio")),
    ("estimate_rounds", "count", "lower",
     lambda r: _per_key_median(r, "estimate_rounds")),
    ("estimate_work", "count", "lower",
     lambda r: _per_key_median(r, "estimate_work")),
    ("sssp_rounds", "count", "lower",
     lambda r: _per_key_median(r, "sssp_rounds")),
    ("sssp_work", "count", "lower",
     lambda r: _per_key_median(r, "sssp_work")),
    ("serve_qps", "req/s", "higher",
     lambda r: _value(r, "ops") / _value(r, "timed_s")),
]


def _layer_ms(key):
    return lambda r: statistics.median(_samples(r, key))


def _layer_value(key):
    return lambda r: _value(r, key)


_LAYER_MS = [
    "graph.open_ms", "exec.adopt_ms", "exec.split_ms", "exec.cold_extra_ms",
    "exec.partition_ms", "core.cluster_ms", "core.quotient_ms",
    "core.qdiam_ms", "sssp.kernel_ms", "mr.pool_extra_ms",
    "mr.partitioned_extra_ms", "serve.render_ms",
]
_LAYER_VALUE_MS = [
    "serve.rtt_single_ms", "serve.overhead_ms", "serve.queue_ms",
    "trace.overhead_ms",
]
_LAYER_COUNTS = [
    "core.cluster_rounds", "core.cluster_messages", "core.cluster_updates",
    "core.sparse_rounds", "core.dense_rounds", "core.stages", "core.clusters",
    "core.quotient_nodes", "core.quotient_edges", "core.quotient_exact",
    "sssp.buckets", "sssp.messages", "sssp.updates", "sssp.sparse_rounds",
    "sssp.dense_rounds", "mr.cross_messages", "mr.cross_bytes",
    "mr.wire_messages", "mr.wire_bytes", "serve.batches",
    "serve.batched_requests",
]

# (name, unit, derive)
PER_LAYER = (
    [(k, "ms", _layer_ms(k)) for k in _LAYER_MS]
    + [(k, "ms", _layer_value(k)) for k in _LAYER_VALUE_MS]
    + [(k, "count", _layer_value(k)) for k in _LAYER_COUNTS]
)


def derive(raw, trace):
    """{name: {"value", "unit"}} for every metric of the pass."""
    table = (
        [(n, u, f) for n, u, f in PER_LAYER]
        if trace
        else [(n, u, f) for n, u, _, f in END_TO_END]
    )
    return {name: {"value": float(f(raw)), "unit": unit}
            for name, unit, f in table}


def failed_frac(attempted, failed):
    """Failed operations over attempted ones (a failed check is a failure)."""
    return failed / attempted if attempted else 1.0
