"""repro: a reproduction of "Efficient Subgraph Matching on Billion Node Graphs".

The package implements the paper's STwig-based, index-free distributed
subgraph matching algorithm on top of a simulated Trinity-style memory
cloud, with the exact VF2/Ullmann matchers it is checked against.  The
drivers that regenerate the paper's tables and figures, with their index
baselines and cost models, live outside the package in ``benchmarks/paper/``.

Quickstart — :mod:`repro.api` is the documented entry point::

    import repro.api as api

    # any dataset source: a built-in name, an edge-list file (sparse or
    # string IDs are remapped transparently), a DBLP XML dump, or a
    # persistent snapshot directory
    with api.connect("rmat", machines=4, executor="process") as db:
        result = db.query(\"\"\"
            node u L1
            node v L2
            node w L3
            edge u v
            edge v w
            edge w u
        \"\"\", limit=1024)
        print(result.match_count, "matches")   # original dataset IDs

The composable layers underneath (``MemoryCloud`` + ``SubgraphMatcher``,
``QueryService``) remain public for callers that need finer control.  A
graph of one's own is a ``LabeledGraph``, built one way: ``from_arrays``
over endpoint arrays, or ``from_edges`` over a node -> label mapping and an
edge list, which checks its input and calls ``from_arrays``.
"""

from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig, NetworkModel
from repro.core.engine import SubgraphMatcher
from repro.core.planner import MatcherConfig, QueryPlan
from repro.core.result import MatchResult, MatchTable
from repro.errors import ReproError
from repro.graph.labeled_graph import LabeledGraph
from repro.query.parser import parse_query
from repro.query.query_graph import QueryGraph

__version__ = "1.0.0"

__all__ = [
    "LabeledGraph",
    "QueryGraph",
    "parse_query",
    "MemoryCloud",
    "ClusterConfig",
    "NetworkModel",
    "SubgraphMatcher",
    "MatcherConfig",
    "QueryPlan",
    "MatchResult",
    "MatchTable",
    "ReproError",
    "__version__",
]
