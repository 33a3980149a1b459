import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpotts import graphs
from rcpotts.association import uniform_substructure_measure
from rcpotts.asymptotics import _potts_z_complete, _rc_z_complete, empirical_rate
from rcpotts.coupling import (JointConfig, SamplerConfig, estimate_two_point, joint_table, kernel_step_distribution,
                              make_rng)
from rcpotts.families import random_multigraph
from rcpotts.flows import (compflow_identity, count_flows, even_ratio_mc, flow_connection_mc, flow_correlation_mc,
                           simon_check)
from rcpotts.graphs import (
    BUDGET,
    SUBSET_BLOCK_EDGES,
    SUBSET_CROSSOVER,
    EdgeSubsetError,
    EnumerationCapExceeded,
    Multigraph,
    _bridges,
    _contract_edges,
    canonical_key,
    cluster_labels,
    complete,
    component_count,
    contract,
    cycle,
    delete,
    edge_subsets,
    is_even,
    open_clusters,
    path,
    rank_corank,
    spin_configs,
    spin_counts,
    subset_counts,
    triangle,
)
from rcpotts.measures import (MeasureTable, PottsParams, RCParams, potts_two_point, potts_two_point_exact,
                              rc_connection_prob, rc_measure_table)
from rcpotts.polynomials import TutteCache, count_spanning_trees, rank_gen_poly, tutte_from_rank_gen, tutte_poly
from .conftest import agreement_oracle, bfs_component_count, bfs_reachable, seeded_multigraph


@st.composite
def small_graph_and_subset(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 10))
    edges = tuple(
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    )
    g = Multigraph(n, edges)
    a = draw(st.integers(0, (1 << m) - 1)) if m else 0
    return g, a


class TestComponentCount:
    def test_triangle_empty(self):
        assert component_count(triangle(), 0) == 3

    def test_triangle_full(self):
        assert component_count(triangle(), 0b111) == 1

    def test_path_with_isolated_vertex(self):
        g = Multigraph(4, ((0, 1), (1, 2)))
        assert component_count(g, 0b01) == 3

    def test_subset_too_wide_rejected(self):
        with pytest.raises(EdgeSubsetError):
            component_count(triangle(), 0b1111)

    @settings(max_examples=1000, deadline=None)
    @given(small_graph_and_subset())
    def test_matches_bfs_oracle(self, ga):
        g, a = ga
        assert component_count(g, a) == bfs_component_count(g, a)
        labels = open_clusters(g, a)
        for x in range(g.n):
            reach = bfs_reachable(g, a, x)
            assert all((labels[x] == labels[y]) == (y in reach) for y in range(g.n))


def _check_subset_kernel(g: Multigraph):
    masks = []
    for a, k, labels in edge_subsets(g):
        masks.append(a)
        assert k == bfs_component_count(g, a)
        for x in range(g.n):
            reach = bfs_reachable(g, a, x)
            assert all((labels[x] == labels[y]) == (y in reach) for y in range(g.n))
    assert masks == list(range(1 << g.m))


class TestEdgeSubsets:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 7), st.integers(0, 2**32 - 1))
    def test_matches_bfs_oracle(self, n, m, seed):
        # loops, parallel edges and isolated vertices all occur in these draws
        _check_subset_kernel(random_multigraph(n, m, make_rng(seed), loops=True))

    def test_many_vertices(self):
        g = Multigraph(300, ((0, 1), (0, 1), (2, 2)))
        _check_subset_kernel(g)
        assert [k for _, k, _ in edge_subsets(g)] == [300, 299, 299, 299, 300, 299, 299, 299]


def petersen() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, tuple(outer + spokes + inner))


def _check_subset_counts(g: Multigraph, pairs):
    """subset_counts against BFS run on every subset, and its key order
    against the order edge_subsets first meets each key."""
    want, want_hits = Counter(), {pair: Counter() for pair in pairs}
    for a in range(1 << g.m):
        key = (a.bit_count(), bfs_component_count(g, a))
        want[key] += 1
        for x, y in pairs:
            if y in bfs_reachable(g, a, x):
                want_hits[x, y][key] += 1
    counts, hits = subset_counts(g, pairs)
    assert counts == want and hits == want_hits
    assert all(type(c) is int for c in counts.values())
    assert list(counts) == list(dict.fromkeys((a.bit_count(), k) for a, k, _ in edge_subsets(g)))
    assert subset_counts(g)[0] == want


class TestSubsetCounts:
    def test_both_sides_of_the_crossover(self):
        assert SUBSET_CROSSOVER < 14 and SUBSET_BLOCK_EDGES < 13  # m = 13 and 14 run several blocks
        for m in range(15):
            rng = make_rng(m)
            n = int(rng.integers(1, 8))
            g = random_multigraph(n, m, rng, loops=True)  # loops, parallel edges, isolated vertices
            pairs = sorted({(0, n - 1), (n // 2, n // 2)})
            _check_subset_counts(g, pairs)

    def test_isolated_vertices(self):
        g = Multigraph(9, ((0, 1), (1, 2), (2, 0), (0, 1), (3, 4), (4, 4), (2, 3)))
        _check_subset_counts(g, [(0, 4), (0, 8), (5, 6)])

    def test_one_vertex_with_only_loops(self):
        counts, hits = subset_counts(Multigraph(1, ((0, 0),) * 8), [(0, 0)])
        assert counts == hits[0, 0] == Counter({(s, 1): math.comb(8, s) for s in range(9)})

    def test_many_vertices(self):
        # labels above 255 need 16 bits, and 300 labels per subset shrink the block to 2^9 subsets,
        # so these 13 edges walk 4 high edges
        edges = ((256, 299), (299, 298), (0, 1), (257, 258), (258, 256), (1, 299), (2, 2), (3, 4), (4, 299), (5, 5),
                 (0, 3), (257, 299), (1, 298))
        _check_subset_counts(Multigraph(300, edges), [(0, 298), (0, 2), (257, 299)])

    def test_walk_through_many_high_edges(self, monkeypatch):
        """With 1-3 low edges, 6-13-edge multigraphs walk 3-12 high edges.
        The last three are always high: a loop, a parallel copy of (0, 1),
        and (0, 2), whose ends (0, 1) and (1, 2) join in some subsets."""
        for c in (1, 2, 3):
            monkeypatch.setattr(graphs, "SUBSET_BLOCK_EDGES", c)
            for m in range(6, 14):
                rng = make_rng(100 * c + m)
                n = int(rng.integers(3, 8))
                base = random_multigraph(n, m - 5, rng, loops=True)
                g = Multigraph(n, base.edges + ((0, 1), (1, 2), (2, 2), (0, 1), (0, 2)))
                _check_subset_counts(g, [(0, 2), (1, n - 1)])

    @pytest.mark.parametrize("m", [16, 18])
    def test_walk_matches_generator(self, m, monkeypatch):
        """The walk (4 and 6 high edges) and the generator path give the same
        tallies with ``counts`` in the same key order, so the consumers give
        the same values, down to a float sum taken in that order."""
        g = random_multigraph(7, m, make_rng(m), loops=True)  # loops and parallel edges

        def routes():
            counts, hits = subset_counts(g, [(0, 6), (2, 5)])
            return list(counts.items()), hits, list(rank_gen_poly(g).terms.items()), compflow_identity(g, 0.3, 3)

        walk = routes()
        monkeypatch.setattr(graphs, "SUBSET_CROSSOVER", m + 1)
        assert routes() == walk
        monkeypatch.undo()
        assert tutte_from_rank_gen(g) == tutte_poly(g)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, 4)])
    def test_vertex_out_of_range(self, pair, monkeypatch):
        for crossover in (0, 7):  # the blocks, then the generator
            monkeypatch.setattr(graphs, "SUBSET_CROSSOVER", crossover)
            for g in (complete(4), cycle(4)):
                with pytest.raises(ValueError, match="vertex out of range"):
                    subset_counts(g, [(0, 1), pair])

    def test_repeated_pairs(self, monkeypatch):
        for crossover in (0, 7):
            monkeypatch.setattr(graphs, "SUBSET_CROSSOVER", crossover)
            counts, hits = subset_counts(complete(4), [(0, 1), (2, 3), (0, 1)])
            assert list(hits) == [(0, 1), (2, 3)]
            assert (counts, hits) == subset_counts(complete(4), [(0, 1), (2, 3)])

    def test_spanning_trees(self):
        assert count_spanning_trees(petersen()) == 2000
        assert count_spanning_trees(complete(6)) == 1296

    def test_rank_gen_at_one_one(self):
        for g in (petersen(), complete(6), random_multigraph(5, 13, make_rng(3))):
            assert sum(rank_gen_poly(g).terms.values()) == 2**g.m  # W(1,1) = 2^m


def _check_cluster_labels(g: Multigraph, subsets):
    """cluster_labels against BFS: each entry is the least vertex joined to
    its row's vertex by its column's subset."""
    labels = cluster_labels(g, subsets)
    assert labels.shape == (g.n, len(subsets))
    for j, a in enumerate(subsets):
        want = [None] * g.n
        for x in range(g.n):
            if want[x] is None:
                cluster = bfs_reachable(g, a, x)
                for y in cluster:
                    want[y] = x  # x is the least vertex of its cluster
        assert labels[:, j].tolist() == want


class TestClusterLabels:
    @settings(max_examples=300, deadline=None)
    @given(small_graph_and_subset(), st.lists(st.integers(0, (1 << 10) - 1), max_size=12))
    def test_matches_bfs_oracle(self, ga, more):
        g, a = ga
        _check_cluster_labels(g, [a] + [b & g.full_subset() for b in more])

    def test_wide_graphs(self):
        # m > 64 takes several bytes per subset; n >= 256 needs 16-bit labels
        for n, m in [(5, 70), (12, 130), (256, 90), (300, 250)]:
            rng = make_rng(n + m)
            g = random_multigraph(n, m, rng, loops=True)  # loops, parallel edges, isolated vertices
            draws = [int.from_bytes(rng.bytes(m // 8 + 1), "little") for _ in range(40)]
            subsets = [0, g.full_subset()] + [a & b & g.full_subset() for a, b in zip(draws[::2], draws[1::2])]
            _check_cluster_labels(g, subsets)
        assert cluster_labels(Multigraph(300), [0]).dtype.itemsize == 2

    def test_empty_batch_and_no_edges(self):
        assert cluster_labels(triangle(), []).shape == (3, 0)
        assert cluster_labels(Multigraph(3), [0, 0]).tolist() == [[0, 0], [1, 1], [2, 2]]

    def test_subset_too_wide_rejected(self):
        for bad in ([0b1000], [1, -1]):
            with pytest.raises(EdgeSubsetError):
                cluster_labels(triangle(), bad)


def _check_spin_kernel(g: Multigraph, q: int):
    expected = [(s, agreement_oracle(g, s)) for s in product(range(q), repeat=g.n)]
    assert list(spin_configs(g, q)) == expected


class TestSpinConfigs:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 6), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
    def test_matches_agreement_oracle(self, n, m, q, seed):
        g = random_multigraph(n, m, make_rng(seed), loops=True) if n else Multigraph(0)
        _check_spin_kernel(g, q)

    @pytest.mark.parametrize(("n", "m", "q"), [(7, 10, 3), (10, 14, 2), (6, 8, 4)])
    def test_spaces_above_256_configurations(self, n, m, q):
        for seed in range(5):
            _check_spin_kernel(random_multigraph(n, m, make_rng(seed), loops=True), q)

    def test_stream_pinned(self):
        """A SHA-256 over the whole stream of seeded multigraphs with loops,
        parallel edges and isolated vertices, n = 0..8 and q = 1..4: up to
        65,536 configurations each."""
        h = hashlib.sha256()
        for n in range(9):
            for q in range(1, 5):
                rng = random.Random(10 * n + q)
                pairs = [(u, v) for u in range(n) for v in range(u, n)]
                pool = rng.sample(pairs, min(len(pairs), rng.randrange(1, 8)))
                g = Multigraph(n, tuple(rng.choice(pool) for _ in range(rng.randrange(13))) if pool else ())
                h.update(f"{g.n}:{g.edges}:{q}:{list(spin_configs(g, q))};".encode())
        assert h.hexdigest() == "e211311f3005a0d841ded78c95bc7dfbc0c7c5e71dcbe9a6d68dc2e4bf0596b5"

    def test_empty_graph_has_one_configuration(self):
        assert list(spin_configs(Multigraph(0), 3)) == [((), 0)]

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            next(spin_configs(complete(16), 3))


def _spin_tally_oracle(g: Multigraph, q: int, couplings, pairs):
    """Configurations per coupling exponent, in total and per pair where it
    agrees, from ``agreement_oracle`` on every configuration in turn."""
    js = [1] * g.m if couplings is None else couplings
    counts, hits = Counter(), {pair: Counter() for pair in pairs}
    for s in product(range(q), repeat=g.n):
        agree = agreement_oracle(g, s)
        j = sum(js[i] for i in range(g.m) if agree >> i & 1)
        counts[j] += 1
        for (x, y), hit in hits.items():
            if s[x] == s[y]:
                hit[j] += 1
    return counts, hits


def _check_spin_counts(monkeypatch, g: Multigraph, q: int, couplings=None, pairs=()):
    """spin_counts on both sides of the crossover against the oracle, keys
    in the order each tally first meets them."""
    want_counts, want_hits = _spin_tally_oracle(g, q, couplings, pairs)
    for crossover in (0, q**g.n + 1):
        monkeypatch.setattr(graphs, "SPIN_CROSSOVER", crossover)
        counts, hits = spin_counts(g, q, couplings, pairs)
        assert list(counts.items()) == list(want_counts.items())
        assert [(p, list(h.items())) for p, h in hits.items()] == [(p, list(h.items())) for p, h in want_hits.items()]


class TestSpinCounts:
    def test_matches_agreement_oracle(self, monkeypatch):
        """300 seeded multigraphs with loops, parallel edges and isolated
        vertices, with vertex pairs and with nonzero couplings of either sign."""
        rng = random.Random(29)
        for i in range(300):
            g = seeded_multigraph(rng, loops=True)
            q = rng.choice((2, 3, 4))
            while q > 2 and q**g.n > 2000:
                q -= 1
            couplings = [rng.choice((-3, -2, -1, 1, 2, 4)) for _ in g.edges] if i % 3 else None
            pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(rng.randrange(4))] if g.n else []
            _check_spin_counts(monkeypatch, g, q, couplings, pairs)

    def test_no_vertex_and_one_vertex(self, monkeypatch):
        _check_spin_counts(monkeypatch, Multigraph(0), 3)
        _check_spin_counts(monkeypatch, Multigraph(1), 2, pairs=[(0, 0)])
        _check_spin_counts(monkeypatch, Multigraph(1, ((0, 0), (0, 0))), 4, [-2, 3], [(0, 0)])

    @pytest.mark.parametrize("pair", [(0, 3), (-1, 0)])
    def test_vertex_out_of_range(self, pair, monkeypatch):
        for crossover in (0, 28):
            monkeypatch.setattr(graphs, "SPIN_CROSSOVER", crossover)
            with pytest.raises(ValueError, match="vertex out of range"):
                spin_counts(triangle(), 3, pairs=[pair])

    def test_several_blocks(self, monkeypatch):
        """3^10 configurations of C10 take several blocks at the default
        size, and small blocks split seeded graphs at every head digit."""
        _check_spin_counts(monkeypatch, cycle(10), 3, pairs=[(0, 5), (3, 4)])
        monkeypatch.setattr(graphs, "SPIN_BLOCK_ENTRIES", 40)
        rng = random.Random(31)
        for _ in range(40):
            g = seeded_multigraph(rng, loops=True)
            couplings = [rng.choice((-2, -1, 1, 3)) for _ in g.edges]
            _check_spin_counts(monkeypatch, g, 3 if g.n < 7 else 2, couplings, [(0, g.n - 1)] if g.n else [])


def _kernel_step(g: Multigraph, q: int):
    """One exact kernel step from the point mass on all-zero spins, no bonds."""
    point = MeasureTable(("joint", g.n, q, g.m), {JointConfig((0,) * g.n, 0): Fraction(1)})
    return kernel_step_distribution(g, point, Fraction(1, 2), q)


BUNDLE_25 = Multigraph(2, ((0, 1),) * 25)  # 2^25 edge subsets
RC = RCParams(Fraction(1, 3), Fraction(2))

# kernel: (budget kind, input size at, a call on an input of exactly that size,
# a call on an input just above the default limit)
BUDGET_CASES = {
    "edge_subsets": ("subsets", 1 << 7, lambda: list(edge_subsets(cycle(7))),
                     lambda: next(edge_subsets(BUNDLE_25))),
    "subset_counts": ("subsets", 1 << 7, lambda: subset_counts(cycle(7), [(0, 3)]),
                      lambda: subset_counts(BUNDLE_25)),
    "spin_configs": ("spins", 27, lambda: list(spin_configs(triangle(), 3)),
                     lambda: next(spin_configs(Multigraph(15), 3))),  # 3^15 > 10^7 > 3^14
    "spin_counts": ("spins", 27, lambda: spin_counts(triangle(), 3, pairs=[(0, 1)]),
                    lambda: spin_counts(Multigraph(15), 3)),
    "count_flows": ("flows", 8, lambda: count_flows(triangle(), 3),
                    lambda: count_flows(Multigraph(2, ((0, 1),)), 10**8 + 2)),  # 10^8 + 1 values
    "rc_measure_table": ("table", 8, lambda: rc_measure_table(triangle(), RC),
                         lambda: rc_measure_table(Multigraph(2, ((0, 1),) * 21), RC)),
    "joint_table": ("table", 64, lambda: joint_table(triangle(), Fraction(1, 2), 2),
                    lambda: joint_table(path(11), Fraction(1, 2), 2)),  # 2^11 * 2^10
    "kernel_step_distribution": ("table", 64, lambda: _kernel_step(triangle(), 2),
                                 lambda: _kernel_step(path(11), 2)),
    "uniform_substructure_measure": ("table", 8, lambda: uniform_substructure_measure(triangle(), "forest"),
                                     lambda: uniform_substructure_measure(Multigraph(2, ((0, 1),) * 21), "forest")),
}


@pytest.mark.parametrize("kernel", sorted(BUDGET_CASES))
def test_budget(kernel, monkeypatch):
    """Each kernel checks the budget before it enumerates or stores anything:
    it raises just above the default limit, and runs exactly at a lowered one."""
    kind, at, run_at, run_over = BUDGET_CASES[kernel]
    with pytest.raises(EnumerationCapExceeded):
        run_over()
    monkeypatch.setitem(BUDGET, kind, at)
    run_at()
    monkeypatch.setitem(BUDGET, kind, at - 1)
    with pytest.raises(EnumerationCapExceeded):
        run_at()


def test_minors_budget(monkeypatch):
    """One tutte_poly call memoises at most BUDGET["minors"] minors: a graph
    whose deletion-contraction builds k of them runs at k and raises at k - 1."""
    g = complete(5)
    counts = TutteCache()
    t = tutte_poly(g, counts)
    k = counts.misses  # one memo entry per minor computed
    monkeypatch.setitem(BUDGET, "minors", k)
    assert tutte_poly(g) == t
    monkeypatch.setitem(BUDGET, "minors", k - 1)
    with pytest.raises(EnumerationCapExceeded):
        tutte_poly(g)


@pytest.mark.parametrize(("q", "recursion", "terms"), [
    (3, lambda: _potts_z_complete.__wrapped__(6, 3, Fraction(4, 3)), 2 * 7 * 8 // 2),  # (q-1)(n+1)(n+2)/2
    (1.5, lambda: _rc_z_complete(6, Fraction(1, 4), Fraction(3, 2)), 6 * 19 // 2),  # n(3n+1)/2
], ids=["potts", "cluster"])
def test_kn_terms_budget(q, recursion, terms, monkeypatch):
    """Each exact recursion on K_n checks BUDGET["kn_terms"] before it sums:
    empirical_rate at n = 1000 raises at the default, and the recursion runs
    at exactly its term count and raises one below."""
    with pytest.raises(EnumerationCapExceeded):
        empirical_rate(1000, 1.5, q)
    monkeypatch.setitem(BUDGET, "kn_terms", terms)
    recursion()
    monkeypatch.setitem(BUDGET, "kn_terms", terms - 1)
    with pytest.raises(EnumerationCapExceeded):
        recursion()


class TestBridges:
    def test_matches_per_edge_union_find(self):
        """Edge i is a bridge iff the other edges leave its ends apart."""
        rng = random.Random(17)
        seen = Counter()
        for _ in range(600):
            g = seeded_multigraph(rng, loops=False)
            full = g.full_subset()
            expect = [i for i, (u, v) in enumerate(g.edges)
                      if len(set(open_clusters(g, full & ~(1 << i))[x] for x in (u, v))) == 2]
            assert _bridges(g.n, g.edges) == expect, g
            seen[g.n] += 1
            seen["parallel"] += len(set(g.edges)) < g.m
            seen["isolated"] += 0 in g.degrees()
            seen["disconnected"] += component_count(g, full) > 1
        assert all(seen[k] for k in (0, 1, "parallel", "isolated", "disconnected")), seen

    def test_loops_and_parallel_copies(self):
        g = Multigraph(5, ((0, 1), (1, 1), (1, 2), (1, 2), (2, 3), (3, 3)))
        assert _bridges(g.n, g.edges) == [0, 4]


def _contract_oracle(g: Multigraph, e: int) -> Multigraph:
    """The contraction remap spelled out: v merges into u < v, vertices above
    v shift down, and ``Multigraph`` normalises the pairs."""
    u, v = g.edges[e]
    if u == v:
        return Multigraph(g.n, g.edges[:e] + g.edges[e + 1 :])
    remap = lambda x: u if x == v else x - (x > v)
    return Multigraph(g.n - 1, tuple((remap(a), remap(b)) for i, (a, b) in enumerate(g.edges) if i != e))


def test_contract_edges_matches_remap_oracle():
    rng = random.Random(23)
    for _ in range(300):
        g = seeded_multigraph(rng, loops=True)
        for e in range(g.m):
            n, edges = _contract_edges(g.n, g.edges, e)
            assert Multigraph(n, tuple(edges)) == contract(g, e) == _contract_oracle(g, e)
            assert all(a <= b for a, b in edges)


class TestRankCorank:
    def test_triangle_full(self):
        assert rank_corank(triangle(), 0b111) == (2, 1)

    def test_empty_subset(self):
        assert rank_corank(Multigraph(5, ((0, 1), (2, 3))), 0) == (0, 0)

    def test_single_edge(self):
        assert rank_corank(Multigraph(2, ((0, 1),)), 0b1) == (1, 0)

    @settings(max_examples=300, deadline=None)
    @given(small_graph_and_subset())
    def test_rank_plus_corank_is_size(self, ga):
        g, a = ga
        r, c = rank_corank(g, a)
        assert r + c == bin(a).count("1")


class TestDeleteContract:
    def test_delete_triangle_edge_gives_path(self):
        g = delete(triangle(), 0)
        assert g.n == 3 and g.m == 2

    def test_contract_triangle_gives_parallel_pair(self):
        g = contract(triangle(), 0)
        assert g.n == 2
        assert g.edges == ((0, 1), (0, 1))

    def test_contract_loop_is_deletion(self):
        g = Multigraph(1, ((0, 0),))
        assert contract(g, 0) == Multigraph(1, ())

    def test_contract_makes_loop_from_parallel(self):
        g = Multigraph(2, ((0, 1), (0, 1)))
        assert contract(g, 0).edges == ((0, 0),)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            delete(triangle(), 3)
        with pytest.raises(IndexError):
            contract(triangle(), -1)

    def test_disjoint_edges_commute_up_to_key(self):
        g = Multigraph(4, ((0, 1), (2, 3), (1, 2)))
        # edge 1 shifts to position 0 once edge 0 is removed by contraction
        a = contract(delete(g, 1), 0)
        b = delete(contract(g, 0), 0)
        assert canonical_key(a) == canonical_key(b)


class TestCanonicalKey:
    def test_deterministic(self):
        g = triangle()
        assert canonical_key(g) == canonical_key(triangle())

    def test_distinguishes_triangle_from_path(self):
        assert canonical_key(triangle()) != canonical_key(path(3))

    def test_stable_under_recomputation(self):
        g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3)))
        h1 = contract(delete(g, 1), 0)
        h2 = contract(delete(g, 1), 0)
        assert canonical_key(h1) == canonical_key(h2)

    def test_edge_order_irrelevant(self):
        g1 = Multigraph(3, ((0, 1), (1, 2)))
        g2 = Multigraph(3, ((1, 2), (0, 1)))
        assert canonical_key(g1) == canonical_key(g2)


class TestIsEven:
    def test_cycle_even(self):
        assert is_even(cycle(4))

    def test_single_edge_odd(self):
        assert not is_even(Multigraph(2, ((0, 1),)))

    def test_parallel_pair_even(self):
        assert is_even(Multigraph(2, ((0, 1), (0, 1))))

    def test_loop_counts_twice(self):
        assert is_even(Multigraph(1, ((0, 0),)))


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError):
        Multigraph(2, ((0, 2),))


# Every public entry that takes vertices refuses one out of range with the
# same error, the kernels on both sides of their crossovers.
VERTEX_ENTRIES = {
    "rc_connection_prob": lambda g, x: rc_connection_prob(g, RCParams(Fraction(1, 2), Fraction(2)), 0, x),
    "potts_two_point": lambda g, x: potts_two_point(g, PottsParams(beta=1.0, q=2), x, 0),
    "potts_two_point_exact": lambda g, x: potts_two_point_exact(g, 2, Fraction(2), 0, x),
    "estimate_two_point": lambda g, x: estimate_two_point(g, iter(()), 0, x, 2),
    "simon_check": lambda g, x: simon_check(g, Fraction(1, 2), Fraction(2), 0, x),
    "subset_counts": lambda g, x: subset_counts(g, [(0, 1), (0, x)]),
    "spin_counts": lambda g, x: spin_counts(g, 3, pairs=[(0, 1), (x, 0)]),
    "flow_correlation_mc": lambda g, x: flow_correlation_mc(g, 0.5, 3, 0, x, SamplerConfig(samples=10)),
    "flow_connection_mc": lambda g, x: flow_connection_mc(g, 0.5, 3, x, 0, SamplerConfig(samples=10)),
    "even_ratio_mc": lambda g, x: even_ratio_mc(g, 0.5, 0, x, SamplerConfig(samples=10)),
}


@pytest.mark.parametrize("crossover", ["generator", "blocks"])
@pytest.mark.parametrize("entry", sorted(VERTEX_ENTRIES))
@pytest.mark.parametrize("x", [3, -1])
def test_vertex_out_of_range_everywhere(entry, crossover, x, monkeypatch):
    monkeypatch.setattr(graphs, "SUBSET_CROSSOVER", 7 if crossover == "generator" else 0)
    monkeypatch.setattr(graphs, "SPIN_CROSSOVER", 28 if crossover == "generator" else 0)
    with pytest.raises(ValueError, match="^vertex out of range$"):
        VERTEX_ENTRIES[entry](triangle(), x)
