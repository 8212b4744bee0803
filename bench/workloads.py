"""The benchmark's workloads: seeded inputs, CLI sequences and output checks.

Each workload writes its inputs from the run's seed into a work directory,
names the CLI calls that make up one repetition (argv after
``python -m motifdiff``, run with the work directory as cwd, so paths
embedded in the outputs are the same on every repetition), names the
cheapest call of the same kind for the set-up probe, and checks the outputs
of a repetition. The program under test only ever sees the JSONL files
written here.

Independent reference counts come from networkx, never from motifdiff.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

# ---------------------------------------------------------------------------
# graph helpers (networkx side, independent of the program)


def read_jsonl(path) -> list[nx.Graph]:
    """Graphs of a motifdiff JSONL file, as networkx graphs on nodes 1..n."""
    graphs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        if "meta" in obj:
            continue
        g = nx.Graph()
        g.add_nodes_from(range(1, obj["n"] + 1))
        g.add_edges_from(map(tuple, obj["edges"]))
        graphs.append(g)
    return graphs


def write_jsonl(path, graphs: list[nx.Graph], meta: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for g in graphs:
            edges = sorted(tuple(sorted(e)) for e in g.edges())
            fh.write(json.dumps({"n": g.number_of_nodes(),
                                 "edges": [list(e) for e in edges]}) + "\n")


def automorphisms(g: nx.Graph) -> int:
    return sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())


def pattern_graph(name: str) -> nx.Graph:
    """The library pattern `name`, rebuilt from its definition in networkx."""
    kind, sizes = name[0], [int(s) for s in name[1:].split("c") if s]
    if kind == "l":
        return nx.path_graph(sizes[0])
    if len(sizes) == 1:
        return nx.cycle_graph(sizes[0])
    x, y = sizes                       # two cycles sharing the edge 0-1
    g = nx.cycle_graph(x)
    arc = [1] + list(range(x, x + y - 2)) + [0]
    g.add_edges_from(zip(arc, arc[1:]))
    return g


PATTERNS = ("c3", "c4", "c5", "c6", "c7", "c8", "c3c4", "c5c5", "c5c6",
            "c6c6", "l5", "l6", "l7")


def subgraph_count(host: nx.Graph, pattern: nx.Graph, aut: int) -> int:
    embeddings = sum(1 for _ in GraphMatcher(host, pattern)
                     .subgraph_monomorphisms_iter())
    if embeddings % aut:
        raise ValueError(f"{embeddings} embeddings not divisible by {aut}")
    return embeddings // aut


def histogram(values) -> dict[str, int]:
    out: dict[str, int] = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return out


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""
    samples = False      # does it run the diffusion sampler?
    spans: tuple[str, ...] = ()   # spans a traced replay must record

    def prepare(self, work: Path, seed: int, cli) -> None:
        """Write the inputs; `cli(argv)` runs an untimed CLI call."""

    def sequence(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def setup_call(self, seed: int) -> list[str]:
        raise NotImplementedError

    def outputs(self) -> list[str]:
        raise NotImplementedError

    def check(self, work: Path, seed: int, count_fn) -> tuple[list[str], dict]:
        """Failures found in the outputs, plus quality numbers to report."""
        raise NotImplementedError


class EvalDense(Workload):
    # Dense hosts make the subgraph matcher and |Aut| do real work; no
    # diffusion runs, so this isolates the counting/evaluation half.
    name = "eval-dense"
    why = ("eval of all 13 patterns between two dense G(n,m) sets (n 10-12,"
           " density 0.35), isomorphism novelty: matcher and |Aut| bound")
    per_set = 18         # host sizes cycle 10, 11, 12
    spans = ("cli.main", "dataio.read_dataset", "parallel.ordered_map",
             "graphs.automorphism_count", "graphs.canonical_form",
             "counting.count_subgraphs", "counting.matcher",
             "evaluation.evaluate", "evaluation.novelty",
             "schemas.validate_output")

    @staticmethod
    def _dense_set(rng: random.Random, count: int) -> list[nx.Graph]:
        # fixed edge count per n (G(n,m) at density 0.35) keeps the work per
        # graph, and so the run time, the same for every seed
        graphs = []
        for i in range(count):
            n = 10 + i % 3
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            g = nx.Graph()
            g.add_nodes_from(range(1, n + 1))
            g.add_edges_from(rng.sample(pairs, round(0.35 * len(pairs))))
            graphs.append(g)
        return graphs

    def prepare(self, work, seed, cli):
        rng = random.Random(seed)
        for label in ("train", "gen"):
            write_jsonl(work / f"{label}.jsonl", self._dense_set(rng, self.per_set),
                        {"generator": "bench-gnm", "seed": str(seed)})

    def sequence(self, seed):
        return [["eval", "--train", "train.jsonl", "--gen", "gen.jsonl",
                 "--novelty-mode", "isomorphism", "--out", "eval.json"]]

    def setup_call(self, seed):
        return ["eval", "--train", "train.jsonl", "--gen", "gen.jsonl",
                "--patterns", "c3", "--novelty-mode", "size",
                "--out", "setup-eval.json"]

    def outputs(self):
        return ["eval.json"]

    def check(self, work, seed, count_fn):
        failures = []
        report = json.loads((work / "eval.json").read_text())
        sets = {label: read_jsonl(work / f"{label}.jsonl")
                for label in ("train", "gen")}
        if set(report["patterns"]) != set(PATTERNS):
            failures.append(f"eval reported patterns {sorted(report['patterns'])}")
            return failures, {}
        # the program's own per-graph counts (library call, untimed) must
        # reproduce the CLI's histograms exactly ...
        program = {label: count_fn(work / f"{label}.jsonl") for label in sets}
        for name in PATTERNS:
            for label in sets:
                want = histogram(program[label][name])
                got = report["patterns"][name][label].get("counts")
                if got != want:
                    failures.append(f"{name} {label} histogram {got} != {want}")
        # ... and networkx recounts, independently, one seeded pick of each
        # host size from each set
        rng = random.Random(seed + 7919)
        auts = {name: automorphisms(pattern_graph(name)) for name in PATTERNS}
        for label in sets:
            for size in range(3):
                i = rng.randrange(size, self.per_set, 3)
                for name in PATTERNS:
                    ref = subgraph_count(sets[label][i], pattern_graph(name),
                                         auts[name])
                    got = program[label][name][i]
                    if ref != got:
                        failures.append(f"{label}[{i}] {name}: motifdiff {got},"
                                        f" networkx {ref}")
        tvs = [pe["tv"] for pe in report["patterns"].values()]
        return failures, {"tv_max": max(tvs)}


class PipelinePlanted(Workload):
    # The paper's experiment and the README's traffic: plant, sample with
    # the exact score, evaluate. Many cheap reverse steps (V = 12..2,520)
    # and process start-up dominate; counting only sees tiny sparse hosts.
    name = "pipeline-planted"
    why = ("gen-data, exhaustive-score sample (500 steps) and eval for planted"
           " c3..c6 at n=k+1: the paper's experiment, start-up and per-step"
           " overhead bound")
    patterns = ("c3", "c4", "c5", "c6")
    samples = True
    graphs_per_pattern = 10
    num_samples = 8
    steps = 500
    tv_limit = 0.10
    spans = EvalDense.spans + ("dataio.write_dataset", "datagen.plant",
                               "diffusion.oracle_build",
                               "diffusion.reverse_sample")

    def sequence(self, seed):
        calls = []
        for p in self.patterns:
            k = int(p[1:])
            calls.append(["gen-data", "--pattern", p, "--n", str(k + 1),
                          "--count", str(self.graphs_per_pattern),
                          "--seed", str(seed), "--out", f"train-{p}.jsonl"])
            calls.append(["sample", "--train", f"train-{p}.jsonl",
                          "--num-samples", str(self.num_samples),
                          "--steps", str(self.steps), "--perm-policy",
                          "exhaustive", "--seed", str(seed),
                          "--out", f"gen-{p}.jsonl"])
            calls.append(["eval", "--train", f"train-{p}.jsonl",
                          "--gen", f"gen-{p}.jsonl", "--patterns", p,
                          "--out", f"eval-{p}.json"])
        return calls

    def prepare(self, work, seed, cli):
        # the set-up probe samples from the largest planted set
        cli(self.sequence(seed)[-3])

    def setup_call(self, seed):
        p = self.patterns[-1]
        return ["sample", "--train", f"train-{p}.jsonl", "--num-samples", "1",
                "--steps", "10", "--perm-policy", "exhaustive",
                "--seed", str(seed), "--out", "setup-gen.jsonl"]

    def outputs(self):
        return [f"{kind}-{p}.{ext}" for p in self.patterns
                for kind, ext in (("train", "jsonl"), ("gen", "jsonl"),
                                  ("eval", "json"))]

    def check(self, work, seed, count_fn):
        failures = []
        tvs = []
        for p in self.patterns:
            k = int(p[1:])
            pat = pattern_graph(p)
            aut = automorphisms(pat)
            train = read_jsonl(work / f"train-{p}.jsonl")
            if len(train) != self.graphs_per_pattern:
                failures.append(f"train-{p}: {len(train)} graphs")
            # one isomorphism class (the cycle with a pendant node), so the
            # template count V = (k+1)!/|Aut| is the same for every seed
            if any(not nx.is_isomorphic(g, train[0]) for g in train[1:]):
                failures.append(f"train-{p}: more than one isomorphism class")
            for i, g in enumerate(train):
                if g.number_of_nodes() != k + 1 or subgraph_count(g, pat, aut) != 1:
                    failures.append(f"train-{p}[{i}] does not hold exactly one {p}")
            gen = read_jsonl(work / f"gen-{p}.jsonl")
            if len(gen) != self.num_samples or any(
                    g.number_of_nodes() != k + 1 for g in gen):
                failures.append(f"gen-{p}: wrong sample count or size")
            report = json.loads((work / f"eval-{p}.json").read_text())
            tv = report["patterns"][p]["tv"]
            tvs.append(tv)
            if not tv <= self.tv_limit:
                failures.append(f"{p}: tv {tv} > {self.tv_limit}")
        return failures, {"tv_max": max(tvs)}


class SampleWide(Workload):
    # Few expensive reverse steps: a training set with several isomorphism
    # classes makes V large, so oracle construction, template memory and
    # the einsum-bound step dominate. No counting in the timed calls.
    name = "sample-wide"
    why = ("sample from n=8 planted-c4 graphs in 3 asymmetric classes x 2"
           " labelings (V=120,960): oracle build, memory and einsum bound")
    samples = True
    classes = 3
    copies = 2
    num_samples = 4
    steps = 50
    spans = ("cli.main", "dataio.read_dataset", "dataio.write_dataset",
             "parallel.ordered_map", "diffusion.oracle_build",
             "diffusion.reverse_sample")

    def prepare(self, work, seed, cli):
        # planted graphs from gen-data; keep the first `classes` classes with
        # a trivial automorphism group, so V = classes * 8! for every seed,
        # and add relabeled copies so training graphs repeat classes
        rng = random.Random(seed)
        chosen: list[nx.Graph] = []
        for attempt, count in enumerate((60, 240, 960)):
            pool = f"pool{attempt}.jsonl"
            cli(["gen-data", "--pattern", "c4", "--n", "8", "--count",
                 str(count), "--seed", str(seed), "--out", pool])
            for g in read_jsonl(work / pool):
                if len(chosen) == self.classes:
                    break
                if automorphisms(g) == 1 and not any(
                        nx.is_isomorphic(g, h) for h in chosen):
                    chosen.append(g)
            if len(chosen) == self.classes:
                break
            chosen.clear()
        if len(chosen) < self.classes:
            raise RuntimeError("gen-data gave too few asymmetric classes")
        train = []
        for g in chosen:
            train.append(g)
            for _ in range(self.copies - 1):
                labels = list(g.nodes())
                rng.shuffle(labels)
                train.append(nx.relabel_nodes(g, dict(zip(g.nodes(), labels))))
        write_jsonl(work / "train.jsonl", train,
                    {"generator": "bench-classes", "seed": str(seed)})

    def sequence(self, seed):
        return [["sample", "--train", "train.jsonl", "--num-samples",
                 str(self.num_samples), "--steps", str(self.steps),
                 "--perm-policy", "exhaustive", "--seed", str(seed),
                 "--out", "gen.jsonl"]]

    def setup_call(self, seed):
        return ["sample", "--train", "train.jsonl", "--num-samples", "1",
                "--steps", "10", "--perm-policy", "exhaustive",
                "--seed", str(seed), "--out", "setup-gen.jsonl"]

    def outputs(self):
        return ["gen.jsonl"]

    def check(self, work, seed, count_fn):
        gen = read_jsonl(work / "gen.jsonl")
        if len(gen) != self.num_samples or any(
                g.number_of_nodes() != 8 for g in gen):
            return [f"gen.jsonl: {len(gen)} samples or wrong node count"], {}
        # the exact score memorizes the training set: every sample must be
        # isomorphic to one of its classes
        train = read_jsonl(work / "train.jsonl")
        return [f"gen.jsonl[{i}] is in no training class"
                for i, g in enumerate(gen)
                if not any(nx.is_isomorphic(g, h) for h in train)], {}


WORKLOADS = {w.name: w for w in (EvalDense(), PipelinePlanted(), SampleWide())}
