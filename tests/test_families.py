from collections import Counter

import pytest

from rcpotts.families import connected_multigraphs_upto, multigraphs, simple_graphs
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
