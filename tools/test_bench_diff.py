#!/usr/bin/env python3
"""Checks for tools/bench_diff.py: clean failure modes and diff semantics.

pytest-style test functions, but runnable without pytest (CI images do not
ship it): `python3 tools/test_bench_diff.py` discovers and runs every test_*
function and exits non-zero on the first failure.

Each test drives bench_diff.py as a subprocess — the contract under test is
the command-line behavior (exit codes, one-line diagnostics instead of
tracebacks), not internals.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def run_diff(*args):
    return subprocess.run(
        [sys.executable, BENCH_DIFF, *args],
        capture_output=True,
        text=True,
        check=False,
    )


def write_json(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        if isinstance(doc, str):
            f.write(doc)
        else:
            json.dump(doc, f)
    return path


def bench_doc(rows, **meta):
    doc = {"bench": "micro_kernels"}
    doc.update(meta)
    doc["rows"] = [
        {"name": name, "real_time": value} for name, value in rows.items()
    ]
    return doc


def test_missing_baseline_exits_cleanly_with_message():
    with tempfile.TemporaryDirectory() as d:
        cand = write_json(d, "cand.json", bench_doc({"BM_X": 1.0}))
        r = run_diff(os.path.join(d, "nonexistent.json"), cand)
        assert r.returncode != 0, "missing baseline must fail"
        assert "not found" in r.stderr, r.stderr
        assert "Traceback" not in r.stderr, r.stderr


def test_malformed_json_exits_cleanly_with_message():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json", "{not json at all")
        cand = write_json(d, "cand.json", bench_doc({"BM_X": 1.0}))
        r = run_diff(base, cand)
        assert r.returncode != 0
        assert "not valid JSON" in r.stderr, r.stderr
        assert "Traceback" not in r.stderr, r.stderr


def test_wrong_shape_exits_cleanly_with_message():
    with tempfile.TemporaryDirectory() as d:
        for doc in ([1, 2, 3], {"rows": "oops"}, {"rows": [1, 2]}):
            base = write_json(d, "base.json", doc)
            cand = write_json(d, "cand.json", bench_doc({"BM_X": 1.0}))
            r = run_diff(base, cand)
            assert r.returncode != 0, f"shape {doc!r} must fail"
            assert "rows" in r.stderr, r.stderr
            assert "Traceback" not in r.stderr, r.stderr


def test_no_regression_exits_zero():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json", bench_doc({"BM_X": 1.0, "BM_Y": 2.0}))
        cand = write_json(d, "cand.json", bench_doc({"BM_X": 1.05, "BM_Y": 1.9}))
        r = run_diff(base, cand, "--tolerance", "0.15")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "no regressions" in r.stdout, r.stdout


def test_regression_detected_and_warn_only_downgrades():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json", bench_doc({"BM_X": 1.0}))
        cand = write_json(d, "cand.json", bench_doc({"BM_X": 2.0}))
        r = run_diff(base, cand, "--tolerance", "0.15")
        assert r.returncode == 1, r.stdout + r.stderr
        assert "REGRESSION" in r.stdout, r.stdout
        r = run_diff(base, cand, "--tolerance", "0.15", "--warn-only")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "REGRESSION" in r.stdout, r.stdout


def test_speedup_metadata_drop_is_gated_but_other_metadata_is_not():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(
            d, "base.json",
            bench_doc({"BM_X": 1.0}, relax_light_split_speedup=2.0,
                      threads=8),
        )
        # threads halves (informational: no flag), the tracked speedup ratio
        # halves too (higher-is-better A/B: flagged as a regression).
        cand = write_json(
            d, "cand.json",
            bench_doc({"BM_X": 1.0}, relax_light_split_speedup=1.0,
                      threads=4),
        )
        r = run_diff(base, cand, "--tolerance", "0.15")
        assert r.returncode == 1, r.stdout + r.stderr
        assert "relax_light_split_speedup: 2 -> 1" in r.stdout, r.stdout
        for line in r.stdout.splitlines():
            if "threads" in line:
                assert "REGRESSION" not in line, r.stdout
        # A speedup ratio going UP is an improvement, never a regression.
        r = run_diff(cand, base, "--tolerance", "0.15")
        assert r.returncode == 0, r.stdout + r.stderr


def test_kernel_missing_from_candidate_counts_as_regression():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json", bench_doc({"BM_X": 1.0, "BM_GONE": 1.0}))
        cand = write_json(d, "cand.json", bench_doc({"BM_X": 1.0}))
        r = run_diff(base, cand, "--tolerance", "0.15")
        assert r.returncode == 1, r.stdout + r.stderr
        assert "missing" in r.stdout, r.stdout


def main():
    tests = [
        (name, fn)
        for name, fn in sorted(globals().items())
        if name.startswith("test_") and callable(fn)
    ]
    for name, fn in tests:
        fn()
        print(f"ok: {name}")
    print(f"test_bench_diff: {len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
