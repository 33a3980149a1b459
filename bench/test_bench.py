"""Tests of the benchmark itself: seeded inputs, output checks, and the
metric arithmetic.  Run with ``python -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import run
import worker
import workloads
from rcpotts.polynomials import BivariatePolynomial

ROOT = Path(__file__).resolve().parent.parent


def make(name, seed, tmp_path):
    return workloads.WORKLOADS[name](seed, str(tmp_path))


def corrupt(value):
    """A wrong copy of an item's main output."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):  # far outside any Monte Carlo tolerance
        return value + 1e3 * (1 + abs(value))
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, str):
        return value + "1"
    if isinstance(value, BivariatePolynomial):
        return value + BivariatePolynomial.constant(1)
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:]
    if isinstance(value, dict):
        key = "pass" if "pass" in value else next(iter(value))
        return {**value, key: corrupt(value[key])}
    raise TypeError(f"cannot corrupt {type(value).__name__}")


def test_workload_names_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == tuple(workloads.WORKLOADS) == tuple(w["name"] for w in spec["workloads"])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_fixes_inputs_and_item_count(name, tmp_path):
    tracer = worker.Tracer(name, enabled=False)

    def inputs(seed):
        return [it.inputs for it in make(name, seed, tmp_path).items(tracer)]

    first, again, other = inputs(1), inputs(1), inputs(2)
    assert first == again
    assert other != first
    assert len(other) == len(first)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_fixes_check_outputs(name, tmp_path):
    def outputs():
        tracer = worker.Tracer(name, enabled=False)
        items = make(name, 3, tmp_path).items(tracer)[:3]
        return [worker.run_item(it, tracer)[::2] for it in items]  # (ok, result)

    first = outputs()
    assert all(ok for ok, _ in first)
    assert outputs() == first


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_output_counts_in_fail_ratio(name, tmp_path):
    """The first item of every kind gets a corrupted main output; one item
    stays intact.  Each corrupted item must fail its check."""
    wl = make(name, 5, tmp_path)
    tracer = worker.Tracer(name, enabled=False)
    items, kinds = [], set()
    for it in wl.items(tracer):
        if it.kind in kinds:
            continue
        kinds.add(it.kind)

        def compute(t, inner=it.compute):
            res = inner(t)
            key = next(iter(res))
            return {**res, key: corrupt(res[key])}

        items.append(workloads.Item(it.id, it.kind, it.inputs, compute, it.check))
    intact = make(name, 6, tmp_path).items(tracer)[0]
    wl.items = lambda t: items + [intact]
    stats = worker.run_repeats(wl, 0, tracer)
    assert stats["failed"] == len(items), stats["notes"]
    raw = {**stats, "ess": 0.0, "peak_rss_mb": 1.0}
    assert run.end_to_end(raw)["fail_ratio"] == len(items) / (len(items) + 1)


def test_traced_round_covers_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = worker.Tracer("monte-carlo", enabled=True)
    wl = make("monte-carlo", 1, tmp_path)
    stats = worker.run_repeats(wl, 0, tracer)
    layers = worker.layer_metrics(tracer, sum(stats["repeat_s"]), 1.0)
    raw = {**stats, "ess": 0.0, "peak_rss_mb": 1.0}
    table = run.layer_table({**raw, "layers": layers}, raw)
    assert sorted(table) == sorted(m["name"] for m in spec["per_layer"])
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert set(worker.function_table(tracer, 1.0)) == {s[1] for s in tracer.spans} - {"item"}
    assert table["coupling.calls"] > 0 and table["flows.calls"] > 0 and table["cli.calls"] == 4
    items = {s[0]: s for s in tracer.spans if s[1] == "item"}
    calls = [s for s in tracer.spans if s[1] != "item"]
    assert len(items) == len(stats["latencies"][0])
    assert all(items[s[4]][5] == s[5] for s in calls)  # each call sits in its item


def test_probe_is_scaled_to_the_reference_host():
    worker.probe()
    assert 0.2 < worker.probe() / worker.PROBE_REF_S < 20


def test_setup_is_scaled_by_the_reference_beside_it():
    figures = run.setup_figures([(0.4, 0.2), (0.9, 0.3), (0.5, 0.25)])
    assert figures["setup_s"] == pytest.approx(2 * run.REFERENCE_S)
    assert (figures["raw_setup_s"], figures["reference_s"]) == (0.5, 0.25)


def test_tau_int_follows_autocorrelation():
    rng = np.random.default_rng(0)
    assert workloads.tau_int(rng.random(20000)) == pytest.approx(0.5, abs=0.05)
    rho, x = 0.8, np.zeros(50000)
    noise = rng.normal(size=x.size)
    for i in range(1, x.size):
        x[i] = rho * x[i - 1] + noise[i]
    assert workloads.tau_int(x) == pytest.approx((1 + rho) / (2 * (1 - rho)), rel=0.15)


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(lat)
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert sum(v > value for v in lat) == 10
    assert run.tail([1.0, 2.0])[::2] == (2.0, 0)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "association", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
