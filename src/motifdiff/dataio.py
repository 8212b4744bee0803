"""Dataset serialization.

JSON Lines, one graph per line: ``{"n": <int>, "edges": [[u, v], ...]}``
with 1-based node indices. An optional metadata line ``{"meta": {...}}``
may appear at the top of the file. Parse failures carry line numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import CapacityError, InputError
from .graphs import Dataset, Graph, graph_from_edge_list

# A graph is built from n rows of n bytes; refuse larger hosts before
# allocating them.
HOST_NODE_CAP = 1000


def _parse_graph_line(obj, lineno: int) -> Graph:
    if not isinstance(obj, dict) or set(obj) != {"n", "edges"}:
        raise InputError(
            f"line {lineno}: expected an object with exactly the keys"
            f" 'n' and 'edges'")
    n = obj["n"]
    edges = obj["edges"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"line {lineno}: 'n' must be an integer")
    if n > HOST_NODE_CAP:
        raise CapacityError(
            f"line {lineno}: {n} nodes exceeds the host cap of {HOST_NODE_CAP}")
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in edges):
        raise InputError(f"line {lineno}: 'edges' must be a list of pairs")
    try:
        return graph_from_edge_list(n, [tuple(e) for e in edges])
    except InputError as exc:
        raise InputError(f"line {lineno}: {exc}") from None


def read_dataset_lines(lines, source: str = "<stream>") -> Dataset:
    graphs: list[Graph] = []
    metadata: dict[str, str] = {}
    meta_seen = False
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputError(f"{source}, line {lineno}: invalid JSON ({exc.msg})") from None
        if isinstance(obj, dict) and set(obj) == {"meta"}:
            if graphs or meta_seen:
                raise InputError(
                    f"{source}, line {lineno}: metadata line must be first")
            meta_seen = True
            meta = obj["meta"]
            if not isinstance(meta, dict):
                raise InputError(f"{source}, line {lineno}: 'meta' must be an object")
            metadata = {str(k): str(v) for k, v in meta.items()}
            continue
        try:
            graphs.append(_parse_graph_line(obj, lineno))
        except (InputError, CapacityError) as exc:
            raise type(exc)(f"{source}: {exc}") from None
    if not graphs:
        raise InputError(f"{source}: no graphs found")
    return Dataset(graphs=tuple(graphs), metadata=metadata)


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
