"""Command-line entry point.

Exit codes: 0 = success, 1 = usage or resource error, 2 = a mathematical
verification failed (the report carries the witness).  Rationals cross the
boundary as "a/b" strings so exact checks stay exact; floats are reserved
for beta, lambda, and real-q paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from itertools import combinations

from . import __version__
from .graphs import EnumerationCapExceeded, Multigraph, from_json_dict, triangle, cycle
from .polynomials import chromatic_poly, flow_poly, rank_gen_poly, tutte_poly
from .measures import (
    PottsParams,
    RCParams,
    potts_partition,
    rc_partition,
    tutte_rc_identity,
    verify_corr_conn,
    verify_partition_identity,
)
from .coupling import SamplerConfig, estimate_two_point, sw_sample
from .flows import count_flows, flow_correlation_mc, simon_check
from .association import (
    comparison_check,
    conjecture_forest_scan,
    fkg_check,
    negative_association_checks,
    q_to_zero_limit_check,
    ust_feder_mihail_check,
)
from .asymptotics import convergence_report
from .families import graphs_with_few_edges, simple_graphs
from .measures import rc_measure_table


class UsageError(Exception):
    pass


def _frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {s!r}: {exc}")


def _load_graph(path: str) -> Multigraph:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"graph file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed graph JSON in {path}: {exc}")
    try:
        return from_json_dict(data)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid graph in {path}: {exc}")


def _emit(report: dict, out: str | None, fmt: str = "json") -> None:
    if fmt == "csv":
        rows = report.get("rows") or [report]
        keys = sorted({k for r in rows for k in r if not isinstance(r[k], (dict, list))})
        lines = [",".join(keys)]
        for r in rows:
            lines.append(",".join(str(r.get(k, "")) for k in keys))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, indent=2, default=str) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every ``run``:
    parsing leaves it unchanged, and each build would leave several hundred
    objects in reference cycles for the cyclic collector."""
    ap = argparse.ArgumentParser(prog="rcpotts", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        return p

    for name in ("tutte", "rank-gen", "chromatic", "flow-poly"):
        p = add(name, help=f"compute the {name} polynomial of a graph")
        p.add_argument("--graph", required=True)

    p = add("rc-partition", help="exact random-cluster partition function")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", required=True, help='rational, e.g. "1/2"')
    p.add_argument("--q", required=True, help='rational, e.g. "2"')

    p = add("potts-partition", help="Potts partition function (real beta)")
    p.add_argument("--graph", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("sample-sw", help="Swendsen-Wang sampler with two-point estimators")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--sweeps", type=int, default=10000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--observables", default="tau,conn")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, default=1)

    p = add("flow-count", help="brute-force nowhere-zero mod-q flow count")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("flow-corr-mc", help="Monte Carlo flow/correlation ratio")
    p.add_argument("--graph", required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)

    p = add("simon-scan", help="Simon inequality scan over every pair x < z of each connected atlas graph")
    p.add_argument("--p-grid", default="1/4,1/2,3/4")
    p.add_argument("--q-grid", default="1,3/2,2")
    p.add_argument("--max-vertices", type=int, default=5)

    p = add("verify", help="run a verification suite")
    p.add_argument(
        "suite",
        choices=[
            "corrconn", "partition", "tutte-rcm", "fkg", "comparison", "na",
            "q-limits", "ust-na", "forest-conjecture", "all",
        ],
    )
    p.add_argument("--graph", help="single graph; suites default to built-in sweeps")
    p.add_argument("--p", default="1/2")
    p.add_argument("--q", default="2")
    p.add_argument("--max-edges", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)

    p = add("kn", help="complete-graph rate function report")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n", default="4,8,12,14", help="comma-separated n values")

    return ap


def _poly_command(args) -> dict:
    g = _load_graph(args.graph)
    fn = {"tutte": tutte_poly, "rank-gen": rank_gen_poly, "chromatic": chromatic_poly, "flow-poly": flow_poly}
    poly = fn[args.cmd](g)
    return {"command": args.cmd, "graph": args.graph, "polynomial": poly.to_json_dict()}


def _verify_suite(args) -> dict:
    suite = args.suite
    seed = args.seed
    reports = []
    single = [_load_graph(args.graph)] if args.graph else None  # replaces each suite's built-in sweep

    def graphs_for(default_max_edges, atlas=False):  # atlas: the connected simple graphs on 4 vertices
        return single or (simple_graphs(4, connected=True) if atlas
                          else graphs_with_few_edges(min(args.max_edges, default_max_edges), connected=True))

    if suite in ("corrconn", "all"):
        for g in graphs_for(4, atlas=suite == "all"):
            for q in (2, 3):
                reports.append(verify_corr_conn(g, _frac(args.p), q))
    if suite in ("partition", "all"):
        q = _frac(args.q)
        if q.denominator != 1:
            raise UsageError(f"the partition suite needs an integer q, not {args.q!r}")
        for g in graphs_for(4, atlas=suite == "all"):
            reports.append(verify_partition_identity(g, _frac(args.p), int(q)))
    if suite in ("tutte-rcm", "all"):
        for g in graphs_for(4, atlas=True):
            reports.append(tutte_rc_identity(g, _frac(args.p), _frac(args.q)))
    if suite in ("fkg", "all"):
        for g in graphs_for(4):
            reports.append(fkg_check(g, _frac(args.p), _frac(args.q), seed=seed))
    if suite in ("comparison", "all"):
        for g in graphs_for(4):
            reports.append(comparison_check(g, Fraction(1, 2), 1, Fraction(1, 2), 2))
            reports.append(comparison_check(g, Fraction(1, 2), 2, Fraction(1, 4), 2))
    if suite in ("na", "all"):
        for g in graphs_for(4):
            table = rc_measure_table(g, RCParams(_frac(args.p), _frac(args.q)))
            reports.append(negative_association_checks(table, seed=seed))
    if suite in ("q-limits", "all"):
        for g in single or (triangle(), cycle(4)):
            for regime in ("ucs", "ust", "usf"):
                reports.append(q_to_zero_limit_check(g, regime))
    if suite in ("ust-na", "all"):
        for g in graphs_for(5):
            if g.n >= 2:
                reports.append(ust_feder_mihail_check(g))
    if suite in ("forest-conjecture", "all"):
        fam = single or [g for g in graphs_with_few_edges(6, connected=True) if g.n >= 2]
        reports.append(conjecture_forest_scan(fam))

    gating = [r for r in reports if not r.get("informational")]
    return {
        "command": "verify",
        "suite": suite,
        "seed": seed,
        "reports": reports,
        "instances": sum(r.get("instances", 1) for r in reports),
        "pass": all(r["pass"] for r in gating),
    }


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.cmd in ("tutte", "rank-gen", "chromatic", "flow-poly"):
            report = _poly_command(args)
        elif args.cmd == "rc-partition":
            g = _load_graph(args.graph)
            z = rc_partition(g, RCParams(_frac(args.p), _frac(args.q)))
            report = {"command": args.cmd, "p": args.p, "q": args.q, "z_rc": str(z)}
        elif args.cmd == "potts-partition":
            g = _load_graph(args.graph)
            z = potts_partition(g, PottsParams(beta=args.beta, q=args.q))
            report = {"command": args.cmd, "beta": args.beta, "q": args.q, "z_p": z}
        elif args.cmd == "sample-sw":
            g = _load_graph(args.graph)
            cfg = SamplerConfig(seed=args.seed, burn_in=args.burn_in, samples=args.sweeps)
            est = estimate_two_point(
                g, sw_sample(g, args.p, args.q, cfg), args.x, args.y, args.q
            )
            wanted = set(args.observables.split(","))
            report = {
                "command": args.cmd,
                "p": args.p,
                "q": args.q,
                "seed": args.seed,
                "sweeps": args.sweeps,
                "observables": {
                    k: v for k, v in est.items()
                    if k == "n" or any(k.startswith(w) for w in wanted)
                },
            }
        elif args.cmd == "flow-count":
            g = _load_graph(args.graph)
            report = {"command": args.cmd, "q": args.q, "count": count_flows(g, args.q)}
        elif args.cmd == "flow-corr-mc":
            g = _load_graph(args.graph)
            cfg = SamplerConfig(seed=args.seed, samples=args.samples, burn_in=0)
            r = flow_correlation_mc(g, args.lam, args.q, args.x, args.y, cfg)
            report = {"command": args.cmd, "seed": args.seed, **r}
        elif args.cmd == "simon-scan":
            grid = [(p, q) for p in map(_frac, args.p_grid.split(",")) for q in map(_frac, args.q_grid.split(","))]
            reports = [simon_check(g, p, q, x, z) for g in simple_graphs(args.max_vertices, connected=True)
                       for x, z in combinations(range(g.n), 2) for p, q in grid]
            found = [v for r in reports for v in r["violations"]]
            report = {
                "command": args.cmd,
                "instances": sum(r["instances"] for r in reports),
                "violations": found,
                "informational": True,
                "pass": True,
            }
        elif args.cmd == "verify":
            report = _verify_suite(args)
        elif args.cmd == "kn":
            n_list = [int(s) for s in args.n.split(",")]
            report = {"command": "kn", **convergence_report(args.q, args.lam, n_list)}
        else:  # pragma: no cover
            raise UsageError(f"unknown command {args.cmd}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EnumerationCapExceeded as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        _emit(report, args.out, args.format)
    except OSError as exc:
        print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
        return 1
    if report.get("pass") is False:
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
