"""README's Library block runs, and its comments state what it returns."""

from pathlib import Path

import networkx as nx

from qfactor.extremal import threshold_q
from qfactor.factors import even_factor, strong_tutte_check
from qfactor.harness import CLASSIFICATIONS

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    """The ```python block under README's ``## Library`` heading."""
    text = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return text.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_block_runs_as_its_comments_state():
    code = library_block()
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    g, poly, q = namespace["g"], namespace["poly"], namespace["q"]
    assert q == threshold_q(8, 2) == 12.385164807134505
    assert poly == (-120, 104, -20, 1)
    assert strong_tutte_check(g) == (False, (0, 1))
    # Two 4-cycles, (0 2 1 7) and (3 4 6 5): eight edges, every degree 2.
    factor = nx.Graph(even_factor(g))
    assert factor.number_of_edges() == 8 and set(dict(factor.degree).values()) == {2}
    assert sorted(map(sorted, nx.connected_components(factor))) == [[0, 1, 2, 7], [3, 4, 5, 6]]
    last = code.rsplit("\n", 1)[1]
    assert last.endswith('["classification"]')
    assert eval(last, namespace) in CLASSIFICATIONS
