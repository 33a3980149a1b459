"""The benchmark's four workloads: seeded inputs, the library calls each item
makes, and the checks that decide whether an item's output is correct.

A workload's ``items`` draws from ``random.Random(f"{name}:{seed}")``, so the
seed alone fixes every input, the library receives only the generated values,
and the item count is the same whatever the seed.  An item is one check on one input:
``compute`` makes the public calls through the tracer and returns a dict whose
first entry is the main output; ``check`` raises ``CheckFailed`` when the
output is wrong.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import islice
from typing import Callable

import numpy as np

from rcpotts import (
    association,
    asymptotics,
    cli,
    coupling,
    families,
    flows,
    graphs,
    measures,
    polynomials,
)
from rcpotts.graphs import Multigraph

P_GRID = [F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(3, 4)]
# Tutte evaluation points (x, y) with x != 1, where the rank-generating
# transform needs 1/(x-1).
TUTTE_POINTS = [
    (F(2), F(2)), (F(3), F(1, 3)), (F(1, 2), F(3)), (F(3, 2), F(-1, 2)),
    (F(-1), F(2)), (F(5, 2), F(0)), (F(1, 3), F(5, 4)), (F(4), F(-1)),
]
MC_SIGMAS = 6  # a Monte Carlo estimate passes within this many standard errors


class CheckFailed(Exception):
    """An item's output disagrees with its independent route."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Item:
    id: str
    kind: str
    inputs: str
    compute: Callable
    check: Callable


def random_connected(rng: random.Random, n: int, m: int) -> Multigraph:
    """A connected loopless multigraph: a random spanning tree plus random
    extra edges, parallel ones allowed."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    rng.shuffle(edges)
    return Multigraph(n, tuple(edges))


def dealt(rng: random.Random, values, k: int) -> list:
    """k values dealt from whole shuffled copies of ``values``, so every
    value appears as evenly as k allows."""
    deck = []
    while len(deck) < k:
        deck += rng.sample(list(values), len(values))
    return deck[:k]


def _write_graph(tracer, g: Multigraph, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(tracer.call(graphs.to_json_dict, g), fh)
    return path


def _run_cli(tracer, argv: list[str], out: str):
    """Run one CLI command in process; returns (exit code, report or None)."""
    if os.path.exists(out):
        os.remove(out)
    code = tracer.call(cli.run, argv + ["--out", out], work=lambda c: {"nonzero": int(c != 0)})
    if code != 0 or not os.path.exists(out):
        return code, None
    with open(out) as fh:
        return code, json.load(fh)


def _plain(obj):
    """The report as the CLI's JSON output would carry it."""
    return json.loads(json.dumps(obj, default=str))


def _tutte_rank_item(g: Multigraph, points, cache, shared: dict):
    """Deletion-contraction Tutte polynomial against the rank-generating
    function: T(x, y) = (x-1)^(|V|-1) W(1/(x-1), y-1) on connected graphs."""

    def compute(t):
        w = t.call(polynomials.rank_gen_poly, g, work={"subsets": 1 << g.m})
        tt = t.call(polynomials.tutte_poly, g, cache)
        shared["tutte"] = tt
        return {"tutte": tt, "rank_gen": w}

    def check(res):
        expect(sum(res["rank_gen"].terms.values()) == 1 << g.m, "W(1,1) != 2^|E|")
        for x, y in points:
            lhs = (x - 1) ** (g.n - 1) * res["rank_gen"].evaluate(1 / (x - 1), y - 1)
            expect(lhs == res["tutte"].evaluate(x, y), f"T{(x, y)} != rank-generating transform")

    return compute, check


def _rc_tutte_value(tutte, g: Multigraph, p: F, q: F) -> F:
    """Z_RC through the Tutte polynomial: (u-1)(v-1)^|V| v^-|E| T(u, v)."""
    u, v = 1 + q * (1 - p) / p, 1 + p / (1 - p)
    return (u - 1) * (v - 1) ** g.n * v ** (-g.m) * tutte.evaluate(u, v)


class Workload:
    name = ""

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def tmp(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)

    def items(self, tracer) -> list[Item]:
        raise NotImplementedError


class ExactFamily(Workload):
    """Many small graphs from one generated family; every graph is read by
    several 2^|E| subset sums and the graphs share minors."""

    name = "exact-family"
    FAMILY = (5, 5)  # connected multigraphs with <= 5 vertices, <= 5 edges
    PER_CLASS = 3

    def items(self, tracer):
        """PER_CLASS graphs from every (edges, vertices) class of the family,
        so the mix of sizes is the same for every seed; p is dealt from the
        grid and q alternates between 2 and 3.  The family is generated
        afresh each time, as timed work that is not an item."""
        fam = tracer.call(families.connected_multigraphs_upto, *self.FAMILY,
                          work=lambda f: {"graphs": len(f)})
        strata = {}
        for g in fam:
            if g.m:
                strata.setdefault((g.m, g.n), []).append(g)
        rng = self.rng()
        cache = tracer.tutte_cache()
        drawn = [(rng.choice(strata[key]), 2 + k % 2) for key in sorted(strata) for k in range(self.PER_CLASS)]
        ps = dealt(rng, P_GRID, len(drawn))
        items = []
        for gi, ((g, q), p) in enumerate(zip(drawn, ps)):
            points = rng.sample(TUTTE_POINTS, 3)
            desc = f"{g.n}:{g.edges}:p={p}:q={q}"
            compute, check = _tutte_rank_item(g, points, cache, {})
            items += [
                Item(f"{gi}.tutte-rank", "tutte-rank", f"{desc}:{points}", compute, check),
                Item(f"{gi}.partition", "partition", desc, *self._partition(g, p, q)),
                Item(f"{gi}.tutte-rc", "tutte-rc", desc, *self._tutte_rc(g, p, q, cache)),
                Item(f"{gi}.corr-conn", "corr-conn", desc, *self._corr_conn(g, p, q)),
            ]
        (g, q), p = rng.choice(drawn), rng.choice(P_GRID)
        items.append(Item("cli", "cli-rc-partition", f"{g.n}:{g.edges}:p={p}:q={q}", *self._cli(g, p, q)))
        return items

    @staticmethod
    def _partition(g, p, q):
        def compute(t):
            z = t.call(measures.rc_partition, g, measures.RCParams(p, F(q)), work={"subsets": 1 << g.m})
            mv = t.call(polynomials.multivariate_tutte, g, F(q), [p / (1 - p)] * g.m,
                        work={"subsets": 1 << g.m})
            zp = t.call(measures.potts_partition_exact, g, q, 1 / (1 - p),
                        work={"spin_configs": q ** g.n})
            return {"z_rc": z, "multivariate": mv, "z_potts": zp}

        def check(res):
            scale = (1 - p) ** g.m
            expect(res["z_rc"] == scale * res["multivariate"], "Z_RC != (1-p)^|E| multivariate Tutte")
            expect(res["z_rc"] == scale * res["z_potts"], "Z_RC != (1-p)^|E| Z_P")

        return compute, check

    @staticmethod
    def _tutte_rc(g, p, q, cache):
        def compute(t):
            rep = t.call(measures.tutte_rc_identity, g, p, F(q), cache,
                         work={"subsets": 1 << g.m, "spin_configs": q ** g.n})
            return {"report": rep}

        def check(res):
            rep = res["report"]
            expect(rep["pass"] is True, "tutte_rc_identity failed")
            expect(rep["rc_deviation"] == "0" and rep["potts_deviation"] == "0",
                   "non-zero deviation in the Tutte / random-cluster identity")

        return compute, check

    @staticmethod
    def _corr_conn(g, p, q):
        def compute(t):
            rep = t.call(measures.verify_corr_conn, g, p, q,
                         work={"subsets": g.n * (g.n - 1) << g.m, "spin_configs": g.n ** 2 * q ** g.n})
            return {"report": rep}

        def check(res):
            rep = res["report"]
            expect(rep["pass"] is True and rep["max_abs_deviation"] == "0",
                   "tau != (1-1/q) phi(x<->y)")
            expect(rep["instances"] == g.n ** 2, "not every vertex pair was checked")

        return compute, check

    def _cli(self, g, p, q):
        def compute(t):
            path = _write_graph(t, g, self.tmp("family-graph.json"))
            code, rep = _run_cli(t, ["rc-partition", "--graph", path, "--p", str(p), "--q", str(q)],
                                 self.tmp("family-out.json"))
            z = t.call(measures.rc_partition, g, measures.RCParams(p, F(q)), work={"subsets": 1 << g.m})
            return {"cli_z": rep and rep["z_rc"], "exit": code, "direct": str(z)}

        def check(res):
            expect(res["exit"] == 0, f"rcpotts rc-partition exited {res['exit']}")
            expect(res["cli_z"] == res["direct"], "CLI rc-partition differs from the direct call")

        return compute, check


class ExactLarge(Workload):
    """Few graphs with 13-16 edges: 2^16-subset working sets with no reuse;
    also the only workload that runs asymptotics."""

    name = "exact-large"
    EDGE_COUNTS = (13, 14, 15, 16)
    # p or 1-p per edge count: the exact sums cost the same for either
    P_PAIRS = ((F(1, 3), F(2, 3)), (F(1, 4), F(3, 4)), (F(1, 3), F(2, 3)), (F(2, 5), F(3, 5)))
    VERTICES = 7
    LAMBDAS = (0.5, 1.0, 1.5, 2.5, 3.0, 4.0)  # both sides of lambda_c for q = 2, 3
    KN_LAMBDAS = (0.5, 1.0, 1.5, 2.0, 3.0)  # below the smallest n of the kn report
    KN_SIZES = [4, 8, 12, 14]

    def items(self, tracer):
        """One graph of each edge count on 7 vertices; q alternates between
        the graphs and p is dealt from the grid."""
        rng = self.rng()
        items = []
        graphs_drawn = []
        for gi, (m, p_pair) in enumerate(zip(self.EDGE_COUNTS, self.P_PAIRS)):
            g, p, q = random_connected(rng, self.VERTICES, m), rng.choice(p_pair), 2 + gi % 2
            x, y = rng.sample(range(g.n), 2)
            points = rng.sample(TUTTE_POINTS, 2)
            shared = {}
            graphs_drawn.append((g, p, q, shared))
            desc = f"{g.n}:{g.edges}:p={p}:q={q}"
            compute, check = _tutte_rank_item(g, points, tracer.tutte_cache(), shared)
            items += [
                Item(f"{gi}.tutte-rank", "tutte-rank", f"{desc}:{points}", compute, check),
                Item(f"{gi}.rc-partition", "rc-partition", desc, *self._rc_partition(g, p, q, shared)),
                Item(f"{gi}.connection", "connection", f"{desc}:{x}-{y}",
                     *self._connection(g, p, q, x, y)),
            ]
        for q in (2, 3):
            n = 4 + (q == 2)
            lam_kn = rng.choice([lam for lam in self.KN_LAMBDAS if lam < n])
            lam = rng.choice(self.LAMBDAS)
            shared = {}
            items += [
                Item(f"q{q}.kn-rate", "kn-rate", f"{n}:{lam_kn}:{q}", *self._kn_rate(n, lam_kn, q)),
                Item(f"q{q}.theta", "theta", f"{lam}:{q}", *self._theta(lam, q, shared)),
                Item(f"q{q}.eta", "eta", f"{lam}:{q}", *self._eta(lam, q, shared)),
            ]
        q = rng.choice((2.5, 3.0, 4.0))
        items.append(Item("lambda-c", "lambda-c", f"{q}", *self._lambda_c(q)))
        q, lam = rng.choice((2, 3)), rng.choice(self.KN_LAMBDAS)
        items.append(Item("cli-kn", "cli-kn", f"{q}:{lam}", *self._cli_kn(q, lam)))
        g, p, q, shared = graphs_drawn[0]
        items.append(Item("cli-rc", "cli-rc-partition", f"{g.n}:{g.edges}:p={p}:q={q}",
                          *self._cli_rc(g, p, q, shared)))
        return items

    @staticmethod
    def _rc_partition(g, p, q, shared):
        def compute(t):
            z = t.call(measures.rc_partition, g, measures.RCParams(p, F(q)), work={"subsets": 1 << g.m})
            shared["z_rc"] = z
            return {"z_rc": z}

        def check(res):
            expect(res["z_rc"] == _rc_tutte_value(shared["tutte"], g, p, F(q)),
                   "Z_RC != (u-1)(v-1)^|V| v^-|E| T(u,v)")

        return compute, check

    @staticmethod
    def _connection(g, p, q, x, y):
        def compute(t):
            conn = t.call(measures.rc_connection_prob, g, measures.RCParams(p, F(q)), x, y,
                          work={"subsets": 1 << g.m})
            tau = t.call(measures.potts_two_point_exact, g, q, 1 / (1 - p), x, y,
                         work={"spin_configs": q ** g.n})
            return {"connection": conn, "tau": tau}

        def check(res):
            expect(0 < res["connection"] <= 1, "connection probability outside (0, 1]")
            expect(res["tau"] == (1 - F(1, q)) * res["connection"], "tau != (1-1/q) phi(x<->y)")

        return compute, check

    @staticmethod
    def _kn_rate(n, lam, q):
        """The Potts route of empirical_rate against subset enumeration on K_n."""

        def compute(t):
            rate = t.call(asymptotics.empirical_rate, n, lam, q)
            kn = t.call(graphs.complete, n)
            p = F(lam).limit_denominator(10**9) / n
            z = t.call(measures.rc_partition, kn, measures.RCParams(p, F(q)), work={"subsets": 1 << kn.m})
            return {"rate": rate, "rc_route": (math.log(z.numerator) - math.log(z.denominator)) / n}

        def check(res):
            expect(abs(res["rate"] - res["rc_route"]) <= 1e-12 * max(1.0, abs(res["rc_route"])),
                   "Potts-route rate differs from the subset-enumeration rate")

        return compute, check

    @staticmethod
    def _lambda_c(q):
        def compute(t):
            return {"lambda_c": t.call(asymptotics.lambda_c, q)}

        def check(res):
            want = 2 * (q - 1) / (q - 2) * math.log(q - 1)
            expect(abs(res["lambda_c"] - want) <= 1e-12 * want, "lambda_c != 2(q-1)/(q-2) log(q-1)")

        return compute, check

    @staticmethod
    def _theta(lam, q, shared):
        lam_c = float(q) if q <= 2 else 2 * (q - 1) / (q - 2) * math.log(q - 1)

        def compute(t):
            th = t.call(asymptotics.theta, lam, q)
            shared["theta"] = th
            return {"theta": th}

        def check(res):
            th = res["theta"]
            if lam < lam_c:
                expect(th == 0.0, "theta > 0 below lambda_c")
                return
            expect(0 < th < 1, "theta outside (0, 1) above lambda_c")
            residual = math.exp(-lam * th) - (1 - th) / (1 + (q - 1) * th)
            expect(abs(residual) <= 1e-9, f"theta misses the root equation by {residual:.3e}")

        return compute, check

    @staticmethod
    def _eta(lam, q, shared):
        def compute(t):
            return {"eta": t.call(asymptotics.eta, lam, q)}

        def check(res):
            th = shared["theta"]
            g = -(q - 1) * (2 - th) * math.log1p(-th) - (2 + (q - 1) * th) * math.log1p((q - 1) * th)
            want = g / (2 * q) - (q - 1) * lam / (2 * q) + math.log(q)
            expect(abs(res["eta"] - want) <= 1e-12 * max(1.0, abs(want)), "eta != g(theta)/2q - ...")

        return compute, check

    def _cli_kn(self, q, lam):
        def compute(t):
            code, rep = _run_cli(t, ["kn", "--q", str(q), "--lambda", str(lam),
                                     "--n", ",".join(map(str, self.KN_SIZES))], self.tmp("kn-out.json"))
            direct = t.call(asymptotics.convergence_report, float(q), lam, self.KN_SIZES)
            return {"cli": rep, "exit": code, "direct": _plain({"command": "kn", **direct})}

        def check(res):
            expect(res["exit"] == 0, f"rcpotts kn exited {res['exit']}")
            expect(res["cli"] == res["direct"], "CLI kn report differs from the direct call")

        return compute, check

    def _cli_rc(self, g, p, q, shared):
        def compute(t):
            path = _write_graph(t, g, self.tmp("large-graph.json"))
            code, rep = _run_cli(t, ["rc-partition", "--graph", path, "--p", str(p), "--q", str(q)],
                                 self.tmp("large-out.json"))
            return {"cli_z": rep and rep["z_rc"], "exit": code}

        def check(res):
            expect(res["exit"] == 0, f"rcpotts rc-partition exited {res['exit']}")
            expect(res["cli_z"] == str(shared["z_rc"]), "CLI rc-partition differs from the direct call")

        return compute, check


# Up-sets of the 4-cube: the FKG sweep checks every pair of them.
UPSETS_4 = 168
FKG_FUNCTION_PAIRS = 20


class Association(Workload):
    """FKG, comparison, negative association with disjoint occurrence and
    Feder-Mihail on 4-edge graphs; q = 1 items keep the DOC scan full."""

    name = "association"
    # (vertices, q) per graph of a round; the q = 1 graphs are where BK holds
    # and no witness stops the scan, so the work per round stays steady
    SLOTS = tuple((n, q) for q in (F(1), None) for n in (5, 4, 3, 4, 3))
    DOC_PAIRS = 400
    Q_ABOVE_ONE = (F(3, 2), F(2), F(3))
    CLI_GRAPHS = (
        Multigraph(3, ((0, 1), (1, 2), (0, 2))),
        Multigraph(3, ((0, 1), (0, 1), (1, 2))),
        Multigraph(2, ((0, 1), (0, 1), (0, 1))),
    )

    def items(self, tracer):
        rng = self.rng()
        items = []
        ps = dealt(rng, P_GRID, len(self.SLOTS))
        for gi, (n, q) in enumerate(self.SLOTS):
            g, p, q = random_connected(rng, n, 4), ps[gi], q or rng.choice(self.Q_ABOVE_ONE)
            desc = f"{g.n}:{g.edges}:p={p}:q={q}"
            s = rng.getrandbits(31)
            items += [
                Item(f"{gi}.fkg", "fkg", f"{desc}:{s}", *self._fkg(g, p, q, s)),
                Item(f"{gi}.comparison", "comparison", desc, *self._comparison(g, rng)),
                Item(f"{gi}.na", "na", f"{desc}:{s}", *self._na(g, p, q, s)),
                Item(f"{gi}.ust", "ust", desc, *self._ust(g)),
            ]
        g = rng.choice(self.CLI_GRAPHS)
        p, q, s = rng.choice(P_GRID[2:7]), rng.choice(self.Q_ABOVE_ONE), rng.getrandbits(31)
        items.append(Item(f"cli", "cli-verify-na", f"{g.edges}:p={p}:q={q}:{s}",
                          *self._cli(g, p, q, s)))
        return items

    @staticmethod
    def _fkg(g, p, q, seed):
        def compute(t):
            return {"report": t.call(association.fkg_check, g, p, q,
                                     n_function_pairs=FKG_FUNCTION_PAIRS, seed=seed)}

        def check(res):
            rep = res["report"]
            expect(rep["pass"] is True and not rep["event_violations"] and rep["function_violations"] == 0,
                   "FKG violated at q >= 1")
            expect(rep["instances"] == UPSETS_4 * (UPSETS_4 + 1) // 2 + FKG_FUNCTION_PAIRS,
                   "FKG sweep skipped event pairs")

        return compute, check

    @staticmethod
    def _comparison(g, rng):
        while True:  # draw until a comparison hypothesis applies
            p, p2 = rng.choice(P_GRID), rng.choice(P_GRID)
            q = rng.choice((F(1), F(3, 2), F(2)))
            q2 = q + rng.choice((F(0), F(1, 2), F(1)))
            if p2 <= p or p2 / (q2 * (1 - p2)) >= p / (q * (1 - p)):
                break

        def compute(t):
            return {"report": t.call(association.comparison_check, g, p, q, p2, q2)}

        def check(res):
            rep = res["report"]
            expect(rep["pass"] is True and all(c["pass"] for c in rep["checks"].values()),
                   f"comparison inequality violated at {(p, q, p2, q2)}")

        return compute, check

    def _na(self, g, p, q, seed):
        product_measure = q == 1 or g.m == g.n - 1  # trees give a product measure at any q

        def compute(t):
            table = t.call(measures.rc_measure_table, g, measures.RCParams(p, q), work={"subsets": 1 << g.m})
            rep = t.call(association.negative_association_checks, table, doc_pair_budget=self.DOC_PAIRS,
                         seed=seed, work=lambda rep: {"doc_pairs": rep["doc_pairs_checked"]})
            return {"report": rep}

        def check(res):
            rep = res["report"]
            expect(rep["pass"] is True, "negative-association implication chain broken")
            if product_measure:
                expect(rep["edge_na"] and rep["na"] and rep["disjoint_occurrence"],
                       "a product measure failed NA or the BK inequality")

        return compute, check

    @staticmethod
    def _ust(g):
        def compute(t):
            return {"report": t.call(association.ust_feder_mihail_check, g)}

        def check(res):
            rep = res["report"]
            expect(rep["pass"] is True and rep["mode"] == "full-na", "spanning-tree measure not NA")

        return compute, check

    def _cli(self, g, p, q, seed):
        def compute(t):
            path = _write_graph(t, g, self.tmp("na-graph.json"))
            code, rep = _run_cli(t, ["verify", "na", "--graph", path, "--p", str(p), "--q", str(q),
                                     "--seed", str(seed)], self.tmp("na-out.json"))
            table = t.call(measures.rc_measure_table, g, measures.RCParams(p, q), work={"subsets": 1 << g.m})
            direct = t.call(association.negative_association_checks, table, seed=seed,
                            work=lambda rep: {"doc_pairs": rep["doc_pairs_checked"]})
            return {"cli": rep and rep["reports"], "exit": code, "direct": _plain([direct])}

        def check(res):
            expect(res["exit"] == 0, f"rcpotts verify na exited {res['exit']}")
            expect(res["cli"] == res["direct"], "CLI verify na differs from the direct call")

        return compute, check


def petersen() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, tuple(outer + spokes + inner))


def torus(k: int) -> Multigraph:
    edges = []
    for r in range(k):
        for c in range(k):
            edges += [(k * r + c, k * r + (c + 1) % k), (k * r + c, k * ((r + 1) % k) + c)]
    return Multigraph(k * k, tuple(edges))


def distance(g: Multigraph, x: int, y: int) -> int:
    """Graph distance by breadth-first search; g.n when unreachable."""
    adj = {v: set() for v in range(g.n)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, frontier = {x}, {x}
    for d in range(g.n):
        if y in frontier:
            return d
        frontier = {w for u in frontier for w in adj[u]} - seen
        seen |= frontier
    return g.n


def tau_int(series, c: float = 5.0) -> float:
    """Integrated autocorrelation time with Sokal's automatic window: the
    smallest M with M >= c tau(M), tau(M) = 1/2 + sum_{t=1..M} rho(t).
    An i.i.d. series gives 1/2, so N / (2 tau) is the effective sample size."""
    x = np.asarray(series, dtype=float)
    n = len(x)
    x = x - x.mean()
    var = x.var()
    if n < 2 or var == 0:
        return 0.5
    f = np.fft.rfft(x, 2 * n)
    rho = np.fft.irfft(f * np.conj(f))[1:n] / (n * var)
    taus = 0.5 + np.cumsum(rho)
    window = np.nonzero(np.arange(1, n) >= c * taus)[0]
    return float(taus[window[0]] if len(window) else taus[-1])


def _connected(edges, bonds: int, x: int, y: int, n: int) -> bool:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, (u, v) in enumerate(edges):
        if bonds >> i & 1:
            parent[find(u)] = find(v)
    return find(x) == find(y)


def _take(gen, k: int) -> list:
    return list(islice(gen, k))


class MonteCarlo(Workload):
    """Swendsen-Wang run to a fixed effective sample size, Poisson-flow ratio
    estimators and the truncated partition/flow identity."""

    name = "monte-carlo"
    ESS_TARGET = 1500  # per SW item, on the slower-mixing of its two estimates
    SW_CHUNK = 250
    SW_BURN_IN = 200
    SW_MAX_SWEEPS = 40000
    FLOW_CORR_SAMPLES = 200
    EVEN_SAMPLES = 4000
    FLOW_CONN_SAMPLES = 1500
    COMPFLOW_M_MAX = 12
    CLI_SWEEPS = 1000
    FLOW_CONN_PQ = ((F(1, 2), F(3, 2)), (F(3, 5), F(5, 2)))

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        # SW graphs with their (p, q) items; q = 3 only where the exact
        # Potts reference stays small
        self.sw_graphs = [
            (petersen(), [(0.4, 2), (0.6, 2), (0.4, 3), (0.6, 3)]),
            (torus(3), [(0.4, 2), (0.6, 2), (0.4, 3), (0.6, 3)]),
            (graphs.cycle(12), [(0.4, 2), (0.5, 2), (0.6, 2), (0.5, 2)]),
        ]
        self.flow_graphs = [(graphs.triangle(), 0, 1), (graphs.cycle(4), 0, 2), (graphs.cycle(4), 0, 1)]

    def items(self, tracer):
        """Every estimator twice on every graph it uses, with the parameters
        that set an item's cost (q, and p of SW) dealt evenly, so the seed
        moves the inputs more than the work."""
        rng = self.rng()
        items = []
        combos = [rng.sample(pq, len(pq)) for _, pq in self.sw_graphs]
        for k in range(4):
            for gi, (g, _) in enumerate(self.sw_graphs):
                (p, q), s = combos[gi][k], rng.getrandbits(31)
                x = rng.randrange(g.n)
                # y at distance 1 or 2 from x: the same mix for every seed, and
                # near enough that the connection event is not rare
                y = rng.choice([v for v in range(g.n) if distance(g, x, v) == 1 + k % 2])
                items.append(Item(f"sw{gi}.{k}", "sw", f"{gi}:{p}:{q}:{x}-{y}:{s}", *self._sw(g, p, q, x, y, s)))
        for k in range(2):
            for gi, (g, x, y) in enumerate(self.flow_graphs[:2]):
                for q in (2, 3):
                    lam, s = rng.choice((0.3, 0.5, 0.8)), rng.getrandbits(31)
                    items.append(Item(f"fc{gi}.{q}.{k}", "flow-corr", f"{g.edges}:{lam}:{q}:{s}",
                                      *self._flow_corr(g, lam, q, x, y, s)))
            for gi, (g, x, y) in enumerate(self.flow_graphs):
                lam, s = rng.choice((0.3, 0.5, 0.8)), rng.getrandbits(31)
                items.append(Item(f"even{gi}.{k}", "even-ratio", f"{g.edges}:{lam}:{s}",
                                  *self._even(g, lam, x, y, s)))
                (p, q), s = self.FLOW_CONN_PQ[k], rng.getrandbits(31)
                items.append(Item(f"conn{gi}.{k}", "flow-conn", f"{g.edges}:{p}:{q}:{s}",
                                  *self._flow_conn(g, p, q, x, y, s)))
            for q in (2, 3):
                p = rng.choice((0.3, 0.5))
                items.append(Item(f"compflow.{q}.{k}", "compflow", f"{p}:{q}", *self._compflow(graphs.triangle(), p, q)))
                g, _ = self.sw_graphs[0]
                p, s = rng.choice((0.3, 0.5)), rng.getrandbits(31)
                x, y = rng.sample(range(g.n), 2)
                items.append(Item(f"cli.{q}.{k}", "cli-sample-sw", f"{p}:{q}:{x}-{y}:{s}",
                                  *self._cli(g, p, q, x, y, s)))
        return items

    def _sw(self, g, p, q, x, y, seed):
        """Sample until both indicator series reach the effective sample size
        target, so a sampler that mixes worse needs more sweeps per item."""

        def compute(t):
            cfg = coupling.SamplerConfig(seed=seed, burn_in=self.SW_BURN_IN, samples=self.SW_MAX_SWEEPS)
            gen = coupling.sw_sample(g, p, q, cfg)  # a generator: the sweeps run in _take
            samples, agree, conn = [], [], []
            sweeps = self.SW_BURN_IN
            while len(samples) < self.SW_MAX_SWEEPS:
                chunk = t.call(_take, gen, self.SW_CHUNK, name="coupling.sw_sample",
                               work={"sweeps": sweeps + self.SW_CHUNK})
                sweeps = 0
                samples += chunk
                agree += [float(c.spins[x] == c.spins[y]) for c in chunk]
                conn += [float(_connected(g.edges, c.bonds, x, y, g.n)) for c in chunk]
                taus = (tau_int(agree), tau_int(conn))
                if len(samples) / (2 * max(taus)) >= self.ESS_TARGET:
                    break
            gen.close()
            est = t.call(coupling.estimate_two_point, g, samples, x, y, q)
            ref = t.call(measures.potts_two_point, g, measures.PottsParams(beta=-math.log(1 - p), q=q), x, y,
                         work={"spin_configs": q ** g.n})
            n = len(samples)
            t.add("ess", n / (2 * taus[0]) + n / (2 * taus[1]))
            t.sample("tau_int", max(taus))
            return {"estimate": est, "reference": ref, "tau_int": list(taus)}

        def check(res):
            est, ref = res["estimate"], res["reference"]
            expect(abs(est["tau"] - ref) <= MC_SIGMAS * est["tau_se"], "SW tau estimate off the exact value")
            expect(abs(est["conn"] - ref * q / (q - 1)) <= MC_SIGMAS * est["conn_se"],
                   "SW connection estimate off the exact value")

        return compute, check

    @staticmethod
    def _flow_corr(g, lam, q, x, y, seed):
        def compute(t):
            est = t.call(flows.flow_correlation_mc, g, lam, q, x, y,
                         coupling.SamplerConfig(seed=seed, samples=MonteCarlo.FLOW_CORR_SAMPLES),
                         work={"samples": MonteCarlo.FLOW_CORR_SAMPLES})
            ref = q * t.call(measures.potts_two_point, g, measures.PottsParams(beta=lam * q, q=q), x, y,
                             work={"spin_configs": q ** g.n})
            t.add("ess", est["n"])
            return {"estimate": est, "reference": ref}

        def check(res):
            est = res["estimate"]
            expect(abs(est["estimate"] - res["reference"]) <= MC_SIGMAS * est["se"],
                   "flow/correlation ratio off q tau")

        return compute, check

    @staticmethod
    def _even(g, lam, x, y, seed):
        def compute(t):
            est = t.call(flows.even_ratio_mc, g, lam, x, y,
                         coupling.SamplerConfig(seed=seed, samples=MonteCarlo.EVEN_SAMPLES),
                         work={"samples": MonteCarlo.EVEN_SAMPLES})
            ref = 2 * t.call(measures.potts_two_point, g, measures.PottsParams(beta=2 * lam, q=2), x, y,
                             work={"spin_configs": 2 ** g.n})
            t.add("ess", est["n"])
            return {"estimate": est, "reference": ref}

        def check(res):
            est = res["estimate"]
            expect(abs(est["estimate"] - res["reference"]) <= MC_SIGMAS * est["se"],
                   "even-subgraph ratio off 2 tau")

        return compute, check

    @staticmethod
    def _flow_conn(g, p, q, x, y, seed):
        def compute(t):
            est = t.call(flows.flow_connection_mc, g, float(p), q, x, y,
                         coupling.SamplerConfig(seed=seed, samples=MonteCarlo.FLOW_CONN_SAMPLES),
                         t.tutte_cache(), work={"samples": MonteCarlo.FLOW_CONN_SAMPLES})
            conn = t.call(measures.rc_connection_prob, g, measures.RCParams(p, q), x, y,
                          work={"subsets": 1 << g.m})
            t.add("ess", est["n"])
            return {"estimate": est, "reference": float((q - 1) * conn)}

        def check(res):
            est = res["estimate"]
            expect(abs(est["estimate"] - res["reference"]) <= MC_SIGMAS * est["se"],
                   "flow/connection ratio off (q-1) phi(x<->y)")

        return compute, check

    @staticmethod
    def _compflow(g, p, q):
        m_max = MonteCarlo.COMPFLOW_M_MAX

        def compute(t):
            return {"report": t.call(flows.compflow_identity, g, p, q, m_max=m_max,
                                     work={"compflow_terms": (m_max + 1) ** g.m})}

        def check(res):
            rep = res["report"]
            expect(rep["pass"] is True, "partition/flow identity outside its tail bound")
            expect(rep["deviation"] <= rep["tail_bound"] + 1e-9 * abs(rep["z_rc"]),
                   "partition/flow deviation above the tail bound")

        return compute, check

    def _cli(self, g, p, q, x, y, seed):
        def compute(t):
            path = _write_graph(t, g, self.tmp("sw-graph.json"))
            code, rep = _run_cli(t, ["sample-sw", "--graph", path, "--p", str(p), "--q", str(q),
                                     "--sweeps", str(self.CLI_SWEEPS), "--burn-in", str(self.SW_BURN_IN),
                                     "--seed", str(seed), "--x", str(x), "--y", str(y)],
                                 self.tmp("sw-out.json"))
            cfg = coupling.SamplerConfig(seed=seed, burn_in=self.SW_BURN_IN, samples=self.CLI_SWEEPS)
            gen = coupling.sw_sample(g, p, q, cfg)
            samples = t.call(_take, gen, self.CLI_SWEEPS, name="coupling.sw_sample",
                             work={"sweeps": self.SW_BURN_IN + self.CLI_SWEEPS})
            direct = t.call(coupling.estimate_two_point, g, samples, x, y, q)
            return {"cli": rep and rep["observables"], "exit": code, "direct": _plain(direct)}

        def check(res):
            expect(res["exit"] == 0, f"rcpotts sample-sw exited {res['exit']}")
            expect(res["cli"] == res["direct"], "CLI sample-sw differs from the direct call")

        return compute, check


WORKLOADS = {w.name: w for w in (ExactFamily, ExactLarge, Association, MonteCarlo)}
