"""The benchmark's graph generators against networkx, which is independent
of privconn:

    python3 -m pytest bench/test_graphs.py
"""

import random
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import graphs  # noqa: E402


def nx_lambda2(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return float(np.sort(nx.laplacian_spectrum(g))[1])


@pytest.mark.parametrize(
    "family,size",
    [
        ("cycle", 3),
        ("cycle", 200),
        ("path", 2),
        ("path", 150),
        ("grid", 2),
        ("grid", 12),
        ("hypercube", 1),
        ("hypercube", 7),
        ("star", 3),
        ("star", 100),
        ("complete", 2),
        ("complete", 60),
    ],
)
def test_closed_form_lambda2_matches_networkx(family, size):
    n, edges, lambda2 = graphs.FAMILIES[family](size)
    relabeled = graphs.relabel(n, edges, random.Random(size))
    assert len({frozenset(e) for e in relabeled}) == len(relabeled)
    assert all(u != v and 0 <= u < n and 0 <= v < n for u, v in relabeled)
    assert nx_lambda2(n, relabeled) == pytest.approx(lambda2, abs=1e-9)


def test_gnp_is_connected_and_seeded():
    n, edges = graphs.gnp_connected(120, 8.0 / 119, random.Random(3))
    assert (n, edges) == graphs.gnp_connected(120, 8.0 / 119, random.Random(3))
    g = nx.Graph(edges)
    assert g.number_of_nodes() == n and nx.is_connected(g)
    assert nx_lambda2(n, edges) > 0.0


def test_edge_list_text_round_trips():
    n, edges, _ = graphs.grid(4)
    lines = graphs.edge_list_text(n, edges).splitlines()
    assert lines[0] == f"n={n}"
    parsed = nx.parse_edgelist(lines[1:], nodetype=int)
    assert {frozenset(e) for e in parsed.edges} == {frozenset(e) for e in edges}
