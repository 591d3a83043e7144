"""``GRAFT_BENCH_OPS`` is validated when ``bench.py`` starts."""

import importlib.util
import os
import subprocess
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench.py")


def _load_bench(monkeypatch):
    monkeypatch.delenv("GRAFT_BENCH_OPS", raising=False)
    spec = importlib.util.spec_from_file_location("bench_under_test", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_ops_filter_accepts_known_names(monkeypatch):
    bench = _load_bench(monkeypatch)
    assert bench.ops_filter("") == []
    names = bench.OP_QUERIES[:2]
    assert bench.ops_filter(f" {names[0]},,{names[1]} ") == names


def test_ops_filter_names_every_unknown_entry(monkeypatch):
    bench = _load_bench(monkeypatch)
    with pytest.raises(ValueError, match="nope, also_bad"):
        bench.ops_filter(f"{bench.OP_QUERIES[0]},nope,also_bad")


def test_bench_fails_fast_on_unknown_ops():
    """The run stops at startup, before Ray starts or a corpus is built."""
    env = {**os.environ, "GRAFT_BENCH_OPS": "q1_pricing_summary,not_an_op"}
    proc = subprocess.run(
        [sys.executable, BENCH], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert "not_an_op" in proc.stderr and "q1_pricing_summary" not in proc.stderr.splitlines()[-1]
