"""rcpotts benchmark: one command per workload run, or a comparison of two
sets of recorded runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
    python3 bench/run.py --compare A.jsonl B.jsonl

A run starts fresh interpreters (bench/worker.py) from this checkout's
``src``.  With ``--trace 0`` it times the set-up several times, each beside
a reference set-up, runs the
workload untraced and prints every end-to-end metric.  With ``--trace 1`` it
runs the workload untraced and then traced, half the time each, writes the spans to
``bench/out/`` and prints the per-layer table and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only if every item's output was correct.  ``--record FILE`` appends the full
run record, environment stamp included, to a JSON-lines file that
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from worker import LAYERS  # worker.py imports rcpotts only inside main()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
WORKLOADS = ("exact-family", "exact-large", "association", "monte-carlo")
SETUP_RUNS = 7  # set-ups timed per untraced run, each beside a reference set-up
# The reference set-up: a bare interpreter that imports the packages rcpotts
# imports.  It took REFERENCE_S on the unloaded 2-vCPU host; setup_s is the
# median ratio of a set-up to the reference beside it, times REFERENCE_S.
REFERENCE = ("import json, sys, time, numpy, networkx; "
             "print(json.dumps({'setup_s': time.monotonic() - float(sys.argv[1])}))")
REFERENCE_S = 0.23
DEADLINE_S = 170  # a run ends within this, whatever its workers do
TAIL_BEYOND = 10  # item_tail_ms is the highest percentile with this many items beyond it
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str] | None, deadline: float) -> dict:
    """Run one worker process, or the reference set-up when ``args`` is
    None, to completion and parse its JSON line."""
    spawned_at = time.monotonic()
    timeout = deadline - spawned_at
    if timeout <= 0:
        raise WorkerError("no time left before the run's deadline")
    if args is None:
        cmd = [sys.executable, "-c", REFERENCE, repr(spawned_at)]
    else:
        cmd = [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker passed the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, items beyond) at the highest percentile of
    TAIL_LADDER that leaves at least TAIL_BEYOND items beyond it, by nearest
    rank; the maximum when there are too few items.

    A fixed ladder keeps the percentile the same while a run's item count
    moves a little, so the metric does not jump with the number of repeats."""
    lat = sorted(latencies)
    n = len(lat)
    best = (lat[-1], 100.0, 0)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            best = (lat[rank - 1], pct, n - rank)
    return best


def setup_figures(pairs: list[tuple[float, float]]) -> dict:
    """setup_s from (set-up, reference set-up) pairs of seconds, timed one
    right after the other so that both meet the same host speed."""
    return {
        "setup_s": REFERENCE_S * statistics.median(s / r for s, r in pairs),
        "raw_setup_s": statistics.median(s for s, _ in pairs),
        "reference_s": statistics.median(r for _, r in pairs),
    }


def end_to_end(raw: dict) -> dict:
    """Item figures from one worker's raw measurements.  Every time is
    divided by the host factor measured around it (see worker.probe)."""
    rows = raw["latencies"]
    n = len(rows[0])
    scaled = [[dt / h for dt, h in zip(row, hs)] for row, hs in zip(rows, raw["item_host"])]
    per_item = [statistics.median(col) for col in zip(*scaled)]
    # items at their own factors; building the item list at the repeat's
    repeat = [sum(srow) + (w - sum(row)) / h
              for srow, row, w, h in zip(scaled, rows, raw["repeat_s"], raw["host"])]
    tail_s, tail_pct, beyond = tail(per_item)
    item_runs = n * len(rows)
    return {
        "items_per_s": n / statistics.median(repeat),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": raw["peak_rss_mb"],
        # printed, but not end-to-end metrics of BENCHMARK.json: fail_ratio
        # is 0 on correct code and ess_per_s exists on one workload only
        "fail_ratio": raw["failed"] / item_runs,
        "ess_per_s": raw["ess"] / sum(repeat),
        "tail_percentile": tail_pct,
        "tail_items_beyond": beyond,
        "host_factor": statistics.median(raw["host"]),
        "raw_items_per_s": item_runs / sum(raw["repeat_s"]),
    }


def layer_table(traced: dict, untraced: dict) -> dict:
    out = dict(traced["layers"])
    fast = end_to_end(untraced)["items_per_s"]
    slow = end_to_end(traced)["items_per_s"]
    out["bench.items_per_s_untraced"] = fast
    out["bench.items_per_s_traced"] = slow
    out["bench.trace_overhead"] = fast / slow - 1
    shares = sum(v for k, v in traced["layers"].items() if k.endswith(".share"))
    out["bench.unattributed_share"] = 1 - shares
    return out


LAYER_UNITS = {"busy_s": "s", "calls": "count", "call_p50_ms": "ms", "share": "1", "failed": "count"}


def layer_unit(name: str) -> str:
    suffix = name.split(".", 1)[1]
    if suffix in LAYER_UNITS:
        return LAYER_UNITS[suffix]
    if suffix.endswith("_per_s") or suffix.startswith("items_per_s"):
        return "1/s"
    if suffix in ("tutte_minors", "doc_pairs", "exit_nonzero"):
        return "count"
    return "1"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def stamp(args, raw: dict, extra: dict) -> dict:
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "items_per_repeat": len(raw["latencies"][0]),
        "repeats": len(raw["latencies"]),
        **extra,
    }


def run(args) -> int:
    if not (ROOT / "src" / "rcpotts" / "__init__.py").is_file():
        print(f"error: no rcpotts sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace == 0:
            pairs = [(spawn(base + ["--setup-only"], deadline)["setup_s"], spawn(None, deadline)["setup_s"])
                     for _ in range(SETUP_RUNS)]
            raw = spawn(base + ["--trace", "0"], deadline)
            e2e = {**setup_figures(pairs), **end_to_end(raw)}
            metrics = {k: e2e[k] for k in END_TO_END_UNITS}
            units = END_TO_END_UNITS
            extra = {"tail_percentile": e2e["tail_percentile"], "tail_items_beyond": e2e["tail_items_beyond"],
                     "setup_runs": SETUP_RUNS, "host_factor": e2e["host_factor"]}
            runs = [raw]
        else:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            # each half of the run time: untraced, then traced on the same inputs
            half = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds / 2)]
            untraced = spawn(half + ["--trace", "0"], deadline)
            raw = spawn(half + ["--trace", "1", "--spans", str(spans)], deadline)
            metrics = layer_table(raw, untraced)
            units = {k: layer_unit(k) for k in metrics}
            e2e = end_to_end(raw)
            extra = {"spans_file": str(spans.relative_to(ROOT)), "spans": raw["spans"]}
            runs = [untraced, raw]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(row) for r in runs for row in r["latencies"])
    failed = sum(r["failed"] for r in runs)
    st = stamp(args, raw, extra)
    print_report(args, e2e, metrics, units, raw, st)
    for r in runs:
        for note in r["notes"]:
            print(f"failed: {note}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"stamp": st, "result": result, "end_to_end": e2e,
                                 "functions": raw.get("functions")}) + "\n")
    print("stamp " + json.dumps(st))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def print_report(args, e2e: dict, metrics: dict, units: dict, raw: dict, st: dict) -> None:
    reps, n = len(raw["latencies"]), len(raw["latencies"][0])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"{n} items x {reps} repeats in {raw['elapsed_s']:.2f} s; "
          f"host factor {e2e['host_factor']:.3f} (item and call times are divided by host factors)")
    if args.trace == 0:
        rows = [
            ("setup_s", e2e["setup_s"], "s",
             f"{REFERENCE_S} s x median of {SETUP_RUNS} set-ups over the reference's "
             f"({e2e['raw_setup_s']:.4g} s and {e2e['reference_s']:.4g} s unscaled)"),
            ("items_per_s", e2e["items_per_s"], "1/s",
             f"{n} items over the median repeat ({e2e['raw_items_per_s']:.4g} 1/s unscaled)"),
            ("item_p50_ms", e2e["item_p50_ms"], "ms", "median over items of each item's median run"),
            ("item_tail_ms", e2e["item_tail_ms"], "ms",
             f"p{e2e['tail_percentile']:g} of the same, {e2e['tail_items_beyond']} of {n} items beyond"),
            ("fail_ratio", e2e["fail_ratio"], "1", f"{raw['failed']} of {n * reps} item runs failed"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
        ]
        if args.workload == "monte-carlo":
            rows.append(("ess_per_s", e2e["ess_per_s"], "1/s", f"{raw['ess']:.0f} effective samples"))
        for name, value, unit, note in rows:
            print(f"  {name:<14} {value:>14.6g} {unit:<4} {note}")
        return
    print(f"  {'layer':<12} {'busy_s':>9} {'calls':>7} {'call_p50_ms':>12} {'share':>7} {'failed':>6}")
    for layer in LAYERS:
        print(f"  {layer:<12} {metrics[layer + '.busy_s']:>9.3f} {metrics[layer + '.calls']:>7d} "
              f"{metrics[layer + '.call_p50_ms']:>12.4f} {metrics[layer + '.share']:>7.3f} "
              f"{metrics[layer + '.failed']:>6d}")
    print(f"  {'function':<40} {'calls':>7} {'busy_s':>9} {'call_p50_ms':>12}  computed-size rates")
    for name, row in raw["functions"].items():
        rates = "  ".join(f"{k} {v:.4g}" for k, v in row.items() if k.endswith("_per_s"))
        print(f"  {name:<40} {row['calls']:>7d} {row['busy_s']:>9.3f} {row['call_p50_ms']:>12.4f}  {rates}")
    generic = tuple(f".{s}" for s in LAYER_UNITS)
    for name, value in metrics.items():
        if not name.endswith(generic):
            note = " (computed size)" if name in COMPUTED else ""
            print(f"  {name:<36} {value:>14.6g} {units[name]}{note}")
    print(f"  tracing overhead: {metrics['bench.trace_overhead']:+.1%} "
          f"(untraced {metrics['bench.items_per_s_untraced']:.4g} items/s, "
          f"traced {metrics['bench.items_per_s_traced']:.4g} items/s); spans in {st['spans_file']}")


COMPUTED = {"polynomials.subsets_per_s", "measures.subsets_per_s", "measures.spin_configs_per_s",
            "flows.compflow_terms_per_s"}


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(a_path: str, b_path: str) -> int:
    """Per workload: medians of A and B, their delta and the bound of each
    end-to-end metric; then the per-layer medians of the traced runs."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e_spec = {m["name"]: m for m in spec["end_to_end"]}
    layer_spec = {m["name"]: m for m in spec["per_layer"]}
    a, b = load(a_path), load(b_path)
    worse = 0
    for workload in WORKLOADS:
        for trace, names in ((0, e2e_spec), (1, layer_spec)):
            ra = [r for r in a if r["stamp"]["workload"] == workload and r["stamp"]["trace"] == trace]
            rb = [r for r in b if r["stamp"]["workload"] == workload and r["stamp"]["trace"] == trace]
            if not ra or not rb:
                continue
            kind = "end-to-end" if trace == 0 else "per-layer"
            print(f"{workload} {kind}: A {len(ra)} runs, B {len(rb)} runs")
            for name, m in names.items():
                va = [r["result"]["metrics"][name]["value"] for r in ra if name in r["result"]["metrics"]]
                vb = [r["result"]["metrics"][name]["value"] for r in rb if name in r["result"]["metrics"]]
                if not va or not vb:
                    continue
                ma, mb = statistics.median(va), statistics.median(vb)
                delta = (mb - ma) / ma if ma else float("nan") if mb else 0.0
                line = f"  {name:<36} A {ma:>12.6g}  B {mb:>12.6g}  delta {delta:>+8.2%}"
                if "bound" in m:
                    loss = delta if m["better"] == "lower" else -delta
                    verdict = "WORSE" if loss > m["bound"] else "ok"
                    worse += verdict == "WORSE"
                    line += f"  bound {m['bound']:.0%}  {verdict}"
                print(line)
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the run record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two record files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
