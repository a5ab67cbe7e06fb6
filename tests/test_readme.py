"""The README's library quick start runs as written."""

import os
import re

from conftest import desk_graph

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    with open(README) as fh:
        text = fh.read()
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text,
                      re.DOTALL)
    assert block, "README has no library quick-start block"
    # a small graph with a core to shave: two bridged 5-cliques, 4 pendants
    edges = desk_graph().edges.tolist()
    (tmp_path / "graph.txt").write_text(
        "".join(f"{u} {v}\n" for u, v in edges))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(block.group(1), README, "exec"), scope)
    assert "most disruptive shell:" in capsys.readouterr().out
    assert scope["result"].embeddings.shape == (14, 10)
