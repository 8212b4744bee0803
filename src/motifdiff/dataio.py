"""Dataset serialization.

JSON Lines, one graph per line: ``{"n": <int>, "edges": [[u, v], ...]}``
with 1-based node indices: n >= 1 and each endpoint an integer in 1..n.
Repeated and reversed edges collapse into one; self-loops, other keys and
hosts past ``HOST_NODE_CAP`` nodes are refused. An optional metadata line
``{"meta": {...}}`` may appear at the top of the file. Parse failures
carry line numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import CapacityError, InputError
from .graphs import Dataset, Graph

# A graph is built from n rows of n bytes; refuse larger hosts before
# allocating them.
HOST_NODE_CAP = 1000


def _parse_graph_line(obj) -> Graph:
    """One graph line's parsed JSON; the caller prefixes errors with the line."""
    if not isinstance(obj, dict) or set(obj) != {"n", "edges"}:
        raise InputError("expected an object with exactly the keys 'n' and 'edges'")
    n = obj["n"]
    edges = obj["edges"]
    if type(n) is not int:
        raise InputError("'n' must be an integer")
    if n > HOST_NODE_CAP:
        raise CapacityError(f"{n} nodes exceeds the host cap of {HOST_NODE_CAP}")
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in edges):
        raise InputError("'edges' must be a list of pairs")
    if n < 1:
        raise InputError("node count must be a positive integer")
    pairs = []
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise InputError(f"edge ({u}, {v}) endpoints must be integers")
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputError(f"edge ({u}, {v}) endpoint out of range 1..{n}")
        if u == v:
            raise InputError(f"self-loop at node {u}")
        pairs.append((u - 1, v - 1))
    return Graph.from_edges(n, pairs)


def read_dataset_lines(lines, source: str = "<stream>") -> Dataset:
    graphs: list[Graph] = []
    metadata: dict = {}
    meta_seen = False
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputError(f"{source}, line {lineno}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise InputError(
                f"{source}, line {lineno}: invalid JSON (nested too deeply)") from None
        if isinstance(obj, dict) and set(obj) == {"meta"}:
            if graphs or meta_seen:
                raise InputError(
                    f"{source}, line {lineno}: metadata line must be first")
            meta_seen = True
            metadata = obj["meta"]
            if not isinstance(metadata, dict):
                raise InputError(f"{source}, line {lineno}: 'meta' must be an object")
            continue
        try:
            graphs.append(_parse_graph_line(obj))
        except (InputError, CapacityError) as exc:
            raise type(exc)(f"{source}: line {lineno}: {exc}") from None
    if not graphs:
        raise InputError(f"{source}: no graphs found")
    return Dataset(graphs=graphs, metadata=metadata)


def read_dataset(path) -> Dataset:
    p = Path(path)
    try:
        with p.open("r", encoding="utf-8") as fh:
            return read_dataset_lines(fh, source=str(p))
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"{p}: not UTF-8 text") from None


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u + 1, v + 1] for u, v in g.edge_list]}


def write_dataset(ds: Dataset, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        if ds.metadata:
            fh.write(json.dumps({"meta": dict(sorted(ds.metadata.items()))},
                                sort_keys=True) + "\n")
        for g in ds.graphs:
            fh.write(json.dumps(graph_to_json_dict(g), sort_keys=True) + "\n")
