#!/usr/bin/env python3
"""Compare two BENCH_<name>.json trajectories and print per-kernel deltas.

The gdiam benches (bench/report.hpp) emit machine-readable trajectories:
top-level scalar metadata plus a "rows" array with one object per benchmark
run. This tool diffs a candidate file against a baseline:

  * rows are matched by their "name" field and compared on --field
    (default: real_time) — positive delta = candidate slower;
  * shared numeric top-level fields are reported informationally (mode
    mixes, thread counts, ...), EXCEPT fields whose name contains
    "_speedup": those are tracked A/B ratios (split-vs-branch,
    context reuse, ...) where higher is better, and a drop
    beyond --tolerance is flagged like a row regression;
  * any regression beyond --tolerance is flagged; the exit code is 1
    unless --warn-only is given (CI uses --warn-only so perf drift warns
    without failing the build).

Inside GitHub Actions (GITHUB_ACTIONS=true) regressions are additionally
emitted as ::warning:: workflow annotations.

Example:
  tools/bench_diff.py bench/baseline/BENCH_micro_kernels.json \
      build/BENCH_micro_kernels.json --tolerance 0.15 --warn-only
"""

import argparse
import json
import os
import sys


def load(path):
    """Reads one BENCH_*.json document, exiting with a one-line diagnostic
    (never a traceback) when the file is missing, unreadable, not JSON, or
    JSON of the wrong shape — a missing baseline is an expected state on a
    fresh checkout, not a crash."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        sys.exit(
            f"bench_diff: baseline/candidate file not found: {path}\n"
            "  (run the bench to produce it, e.g. ./bench_micro_kernels, or "
            "commit a baseline under bench/baseline/)"
        )
    except OSError as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"bench_diff: {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        sys.exit(
            f"bench_diff: {path}: expected a JSON object with a 'rows' "
            f"array, got {type(doc).__name__}"
        )
    rows = doc.get("rows", [])
    if not isinstance(rows, list) or any(
        not isinstance(row, dict) for row in rows
    ):
        sys.exit(
            f"bench_diff: {path}: 'rows' must be an array of objects "
            "(one per benchmark run)"
        )
    return doc


def numeric_fields(doc):
    return {
        k: v
        for k, v in doc.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def rows_by_name(doc, field):
    out = {}
    for row in doc.get("rows", []):
        name = row.get("name")
        value = row.get(field)
        if not isinstance(name, str) or not isinstance(value, (int, float)):
            continue
        if isinstance(value, bool):
            continue
        out[name] = float(value)
    return out


def github_warning(message):
    if os.environ.get("GITHUB_ACTIONS") == "true":
        # Annotation lines must be single-line.
        print(f"::warning title=bench_diff::{message.strip()}")


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_<name>.json benchmark trajectories."
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--field",
        default="real_time",
        help="row field to compare (default: real_time)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="relative regression threshold (default: 0.15 = 15%%)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="always exit 0; report regressions as warnings only",
    )
    args = parser.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    base_rows = rows_by_name(base, args.field)
    cand_rows = rows_by_name(cand, args.field)
    shared = sorted(set(base_rows) & set(cand_rows))
    only_base = sorted(set(base_rows) - set(cand_rows))
    only_cand = sorted(set(cand_rows) - set(base_rows))

    print(
        f"bench_diff: {base.get('bench', '?')} — {len(shared)} shared kernels,"
        f" field={args.field}, tolerance={args.tolerance:.0%}"
    )
    regressions = []
    name_w = max((len(n) for n in shared), default=4)
    for name in shared:
        b, c = base_rows[name], cand_rows[name]
        delta = (c - b) / b if b != 0 else float("inf")
        flag = ""
        if delta > args.tolerance:
            flag = "  << REGRESSION"
            regressions.append((name, b, c, delta))
        elif delta < -args.tolerance:
            flag = "  (improved)"
        print(
            f"  {name:<{name_w}}  {b:12.4g} -> {c:12.4g}  {delta:+8.1%}{flag}"
        )
    # A kernel that existed in the baseline but produced no candidate row was
    # deleted, renamed, or crashed — exactly the runs most likely to hide a
    # regression, so they count as regressions rather than footnotes.
    for name in only_base:
        print(
            f"  {name:<{name_w}}  {base_rows[name]:12.4g} -> (missing)"
            "  << REGRESSION"
        )
        regressions.append((name, base_rows[name], float("nan"), float("inf")))
    for name in only_cand:
        print(f"  {name:<{name_w}}  (new)     -> {cand_rows[name]:12.4g}")

    shared_meta = sorted(
        set(numeric_fields(base)) & set(numeric_fields(cand))
    )
    if shared_meta:
        print("  -- top-level metrics (_speedup fields gated, rest informational) --")
        for key in shared_meta:
            b, c = base[key], cand[key]
            delta = (c - b) / b if b else 0.0
            flag = ""
            # Speedup ratios are higher-is-better A/Bs: a drop beyond
            # tolerance means the optimized path lost ground against its
            # baseline even if both kernels' absolute times moved together.
            if "_speedup" in key and delta < -args.tolerance:
                flag = "  << REGRESSION"
                regressions.append((key, float(b), float(c), delta))
            print(
                f"  {key:<{name_w}}  {b:12.4g} -> {c:12.4g}  {delta:+8.1%}{flag}"
            )

    if regressions:
        print(
            f"bench_diff: {len(regressions)} kernel(s) regressed beyond "
            f"{args.tolerance:.0%}:"
        )
        for name, b, c, delta in regressions:
            if c != c:  # NaN: baseline kernel missing from the candidate
                line = f"{name}: {b:.4g} -> missing from candidate"
            else:
                line = f"{name}: {b:.4g} -> {c:.4g} ({delta:+.1%})"
            print(f"  {line}")
            github_warning(f"perf regression {line}")
        if not args.warn_only:
            return 1
    else:
        print("bench_diff: no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
