import hashlib
import os
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from rcpotts.families import _atlas, connected_multigraphs_upto, multigraphs, simple_graphs
from rcpotts.graphs import Multigraph

from .conftest import brute_force_multigraphs


@pytest.mark.parametrize("loops", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_multigraphs_match_brute_force(n, loops):
    """Same graphs in the same order as the n!-scan oracle."""
    for max_edges in range(5 if n == 5 else 6):
        for min_edges in sorted({0, 1, max(n - 1, 0)}):
            for connected in (None, True, False):
                args = (n, max_edges, min_edges, loops, connected)
                assert multigraphs(*args) == brute_force_multigraphs(*args), args


@pytest.mark.parametrize("loops", [True, False])
@pytest.mark.parametrize("n, max_edges", [(6, 4), (7, 3)])
def test_multigraphs_match_brute_force_past_five(n, max_edges, loops):
    """Permutation tables of 719 and 5,039 rows over 15 to 28 pair types,
    which no 5-vertex family reaches.  With min_edges = 0 one call holds
    every level up to max_edges; the other caps are tested above."""
    for connected in (None, True, False):
        args = (n, max_edges, 0, loops, connected)
        assert multigraphs(*args) == brute_force_multigraphs(*args), args


@pytest.mark.parametrize(
    "family, digest",
    [
        (lambda: connected_multigraphs_upto(5, 8), "2eb5e55399c7b650774201b8a721ffc255af55e780d3bcc33f2db3f5529731d6"),
        (lambda: connected_multigraphs_upto(5, 6, loops=False), "574f30fe1f7bd9f00ed042c4106192ba0bc43c5187f6e3e83ef22d0efb317dac"),
        (lambda: multigraphs(5, 6, min_edges=0, connected=False), "204238db79f6e79061c611d9fef79f30e921dbc74932dee8f13b7cf65879217a"),
    ],
    ids=["connected-5-8", "connected-5-6-loopless", "disconnected-5-6"],
)
def test_family_output_pinned(family, digest):
    """The graphs and their order, which decides the witness a report shows
    first, are pinned by the SHA-256 of their reprs."""
    assert hashlib.sha256(repr(family()).encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [0, 1, 3])
def test_min_edges_zero_yields_empty_graph(n):
    assert multigraphs(n, 2, min_edges=0)[0] == Multigraph(n, ())


@pytest.mark.parametrize("args, count", [((3, 4), 34), ((4, 5), 114), ((5, 5), 137), ((5, 8), 3300)])
def test_connected_family_counts(args, count):
    assert len(connected_multigraphs_upto(*args)) == count


@pytest.mark.parametrize("args", [(4, 5), (5, 5), (5, 8)])
def test_simple_members_match_atlas(args):
    """The loopless members without parallel edges are the atlas's connected
    simple graphs, class for class per vertex and edge count."""
    simple = Counter(
        (g.n, g.m) for g in connected_multigraphs_upto(*args)
        if all(u != v for u, v in g.edges) and len(set(g.edges)) == g.m
    )
    assert simple == Counter((g.n, g.m) for g in simple_graphs(*args, connected=True))


def test_atlas_table_matches_networkx():
    """The checked-in table is networkx's atlas, graph for graph and in
    order, with each graph's vertices relabelled 0..n-1 in sorted order."""
    nx = pytest.importorskip("networkx")
    expected = []
    for g in nx.graph_atlas_g():
        idx = {v: i for i, v in enumerate(sorted(g.nodes()))}
        expected.append(Multigraph(len(idx), tuple((idx[u], idx[v]) for u, v in g.edges())))
    assert list(_atlas()) == expected


def test_atlas_table_pinned():
    table = resources.files("rcpotts").joinpath("atlas.txt").read_bytes()
    assert hashlib.sha256(table).hexdigest() == "7d7878228dcd01670c0a8ce7ef4ff20ac6776d493d3e599a68716559c1d178a2"


def test_import_does_not_read_atlas():
    code = "import rcpotts, rcpotts.cli; from rcpotts.families import _atlas; assert _atlas.cache_info().misses == 0"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
