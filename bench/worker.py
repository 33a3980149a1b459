"""One workload run in a fresh interpreter.

Imports rcpotts from the checkout's ``src``, builds the workload's seeded
state, then repeats the workload's items within ``--seconds`` and prints one
JSON line of raw measurements for ``run.py``.  Starting a new
interpreter per run keeps rcpotts' process-global caches cold, as they are
for a CLI user.

Usage (normally spawned by run.py):
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --spawned-at MONOTONIC [--setup-only] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# A probe() takes this long on an unloaded 2-vCPU Intel Xeon host with
# Python 3.11.7; reported times are scaled to that host speed.
PROBE_REF_S = 0.00075
PROBE_GAP_S = 0.05
# Host speed drifts within a repeat: an item run is scaled by the probes
# taken within this many seconds of it.
PROBE_WINDOW_S = 0.25
LAYERS = ("families", "graphs", "polynomials", "measures", "coupling", "flows",
          "association", "asymptotics", "cli")


class Tracer:
    """Times the benchmark's calls into rcpotts when enabled, and keeps the
    run's counters either way.

    A span is (id, name, start, end, parent item span, item id, ok, work);
    ``work`` holds computed problem sizes such as {"subsets": 2**m}.  Spans
    stay in memory until ``write_spans``.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.item: tuple | None = None  # (span id, item id) of the running item
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.caches: list = []

    def call(self, fn, *args, name: str | None = None, work=None, **kwargs):
        """Call ``fn``; when tracing, record a span named ``layer.function``.

        ``work`` is a dict of computed sizes, or a function of the result
        returning one."""
        if not self.enabled:
            return fn(*args, **kwargs)
        name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            if callable(work):
                work = work(result) if ok else None
            parent, item = self.item or (None, None)
            self.spans.append((len(self.spans), name, start, end, parent, item, ok, work))

    def begin_item(self, item_id: str) -> None:
        if self.enabled:
            self.item = (len(self.spans), item_id)
            self.spans.append(None)  # placeholder, filled by end_item

    def end_item(self, start: float, end: float, ok: bool) -> None:
        if self.enabled:
            span_id, item_id = self.item
            self.spans[span_id] = (span_id, "item", start, end, None, item_id, ok, None)
            self.item = None

    def tutte_cache(self):
        from rcpotts.polynomials import TutteCache

        cache = TutteCache()
        self.caches.append(cache)
        return cache

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def sample(self, key: str, value: float) -> None:
        self.samples[key].append(value)

    def write_spans(self, path: Path, t0: float) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, item, ok, work in self.spans:
                fh.write(json.dumps({
                    "id": sid, "span": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "workload": self.workload, "item": item,
                    "ok": ok, "work": work,
                }) + "\n")


def run_item(item, tracer: Tracer):
    """Run one item and its check; returns (ok, seconds, result, note)."""
    start = time.perf_counter()
    tracer.begin_item(item.id)
    try:
        result = item.compute(tracer)
        item.check(result)
        ok, note = True, None
    except Exception as exc:  # an item that raises counts as failed; the run goes on
        result, ok, note = None, False, f"{item.kind} {item.id}: {exc!r}"
    end = time.perf_counter()
    tracer.end_item(start, end, ok)
    return ok, end - start, result, note


def probe() -> float:
    """Seconds taken by a fixed pure-Python kernel: the random-cluster weight
    sum over the 2^7 subsets of 7 edges in Fractions, the arithmetic the
    exact layers do.  Its time tracks how fast the shared host runs now."""
    start = time.perf_counter()
    total = Fraction(0)
    p = Fraction(2, 5)
    for a in range(1 << 7):
        k = bin(a).count("1")
        total += p**k * (1 - p) ** (7 - k)
    if total != 1:
        raise ArithmeticError("probe kernel lost exactness")
    return time.perf_counter() - start


def timed_probe() -> tuple[float, float]:
    """(time at the probe's midpoint, probe seconds)."""
    start = time.perf_counter()
    seconds = probe()
    return start + seconds / 2, seconds


def local_factor(probes: list[tuple[float, float]], start: float, end: float) -> float:
    """Host factor of an item run over [start, end]: the mean of the probes
    within PROBE_WINDOW_S of it, or else of the probe either side of it."""
    near = [s for t, s in probes if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
    if not near:
        near = [s for t, s in probes if t < start][-1:] + [s for t, s in probes if t > end][:1]
    return statistics.mean(near) / PROBE_REF_S


def run_repeats(workload, seconds: float, tracer: Tracer) -> dict:
    """Repeat the workload's item list, at least once, while one more repeat
    of average length still fits in ``seconds``.

    Every repeat rebuilds the items from the seed, so it does the same work
    with fresh benchmark-owned caches; building them, and the family
    generation of exact-family, count in the repeat's time.  Between items,
    at most every PROBE_GAP_S, the host is probed.  A repeat's host factor is
    its mean probe time over PROBE_REF_S; an item run's is local_factor.
    Probe time counts nowhere."""
    latencies, item_host, repeat_s, host, notes = [], [], [], [], []
    failed = 0
    t0 = time.perf_counter()
    while True:
        probes = [timed_probe()]
        start = last = time.perf_counter()
        items = workload.items(tracer)
        work = time.perf_counter() - start
        row, spans = [], []
        for item in items:
            ok, dt, _, note = run_item(item, tracer)
            end = time.perf_counter()
            row.append(dt)
            spans.append((end - dt, end))
            work += dt
            if not ok:
                failed += 1
                notes.append(note)
            if end - last >= PROBE_GAP_S:
                probes.append(timed_probe())
                last = time.perf_counter()
        probes.append(timed_probe())
        latencies.append(row)
        item_host.append([local_factor(probes, a, b) for a, b in spans])
        repeat_s.append(work)
        host.append(statistics.mean(s for _, s in probes) / PROBE_REF_S)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(latencies) > seconds:  # another repeat would overrun
            break
    return {
        "t0": t0,
        "elapsed_s": time.perf_counter() - t0,
        "repeat_s": repeat_s,
        "host": host,
        "latencies": latencies,
        "item_host": item_host,
        "kinds": [item.kind for item in items],
        "failed": failed,
        "notes": notes[:5],
    }


def layer_metrics(tracer: Tracer, work_s: float, host: float) -> dict:
    """Per-layer figures from the spans, with times divided by the run's
    host factor.  ``work_s`` is the run's time outside probes.  Rates of
    computed sizes divide by the busy time of the calls that carry that
    size."""
    by_layer = defaultdict(list)
    for span in tracer.spans:
        if span[1] != "item":
            by_layer[span[1].split(".", 1)[0]].append(span)
    out = {}
    for layer in LAYERS:
        spans = by_layer.get(layer, [])
        durations = [(s[3] - s[2]) / host for s in spans]
        busy = sum(durations)
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.calls"] = len(spans)
        out[f"{layer}.call_p50_ms"] = statistics.median(durations) * 1e3 if durations else 0.0
        out[f"{layer}.share"] = busy * host / work_s
        out[f"{layer}.failed"] = sum(1 for s in spans if not s[6])

    def rate(layer: str, key: str) -> float:
        size = busy = 0.0
        for s in by_layer.get(layer, []):
            if s[7] and key in s[7]:
                size += s[7][key]
                busy += (s[3] - s[2]) / host
        return size / busy if busy else 0.0

    hits = sum(c.hits for c in tracer.caches)
    misses = sum(c.misses for c in tracer.caches)
    out.update({
        "families.graphs_per_s": rate("families", "graphs"),
        "polynomials.subsets_per_s": rate("polynomials", "subsets"),
        "polynomials.tutte_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "polynomials.tutte_minors": misses,
        "measures.subsets_per_s": rate("measures", "subsets"),
        "measures.spin_configs_per_s": rate("measures", "spin_configs"),
        "association.checks_per_s": (out["association.calls"] / out["association.busy_s"]
                                     if out["association.busy_s"] else 0.0),
        "association.doc_pairs": sum(s[7]["doc_pairs"] for s in by_layer.get("association", [])
                                     if s[7] and "doc_pairs" in s[7]),
        "coupling.sweeps_per_s": rate("coupling", "sweeps"),
        "coupling.tau_int": statistics.median(tracer.samples["tau_int"]) if tracer.samples["tau_int"] else 0.0,
        "coupling.ess_per_s": tracer.counters["ess"] * host / work_s,
        "flows.samples_per_s": rate("flows", "samples"),
        "flows.compflow_terms_per_s": rate("flows", "compflow_terms"),
        "cli.exit_nonzero": sum(s[7]["nonzero"] for s in by_layer.get("cli", []) if s[7]),
    })
    return out


SIZES = ("graphs", "subsets", "spin_configs", "sweeps", "samples", "compflow_terms")


def function_table(tracer: Tracer, host: float) -> dict:
    """Calls, busy time, median call and computed-size rates of each
    function the benchmark called, with times divided by the host factor."""
    by_name = defaultdict(list)
    for span in tracer.spans:
        if span[1] != "item":
            by_name[span[1]].append(span)
    table = {}
    for name, spans in sorted(by_name.items()):
        durations = [(s[3] - s[2]) / host for s in spans]
        busy = sum(durations)
        work = defaultdict(float)
        for s in spans:
            for key, size in (s[7] or {}).items():
                if key in SIZES:
                    work[key] += size
        table[name] = {
            "calls": len(spans),
            "busy_s": busy,
            "call_p50_ms": statistics.median(durations) * 1e3,
            **{f"{key}_per_s": size / busy for key, size in work.items() if busy},
        }
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true", help="stop at the first timed call")
    ap.add_argument("--spans", help="write the traced run's spans here as JSON lines")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import rcpotts

    if Path(rcpotts.__file__).resolve().parent != (SRC / "rcpotts").resolve():
        print(f"error: imported rcpotts from {rcpotts.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        # time.monotonic is one system-wide clock, shared with the parent
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = Tracer(args.workload, bool(args.trace))
        stats = run_repeats(workload, args.seconds, tracer)
    report = {
        "setup_s": setup_s,
        **{k: v for k, v in stats.items() if k != "t0"},
        "ess": tracer.counters["ess"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        work_s = sum(stats["repeat_s"])
        host = sum(w * h for w, h in zip(stats["repeat_s"], stats["host"])) / work_s
        report["layers"] = layer_metrics(tracer, work_s, host)
        report["functions"] = function_table(tracer, host)
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(Path(args.spans), stats["t0"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
