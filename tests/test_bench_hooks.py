"""The benchmark reaches into graphdiv by name: its tracer wraps functions
listed in WRAPPED, its scripts import names and read module attributes, and
its correctness check reads attributes of a fitted encoder and cell. Every
such name must exist, or a benchmark run fails; these tests say which name
is gone without running the benchmark."""

import ast
import glob
import importlib
import importlib.util
import os

import pytest

from graphdiv.attention import train_attention
from graphdiv.divergence import raw_divergence
from graphdiv.encoder import TrainConfig, positive_log_loss, train_encoder
from graphdiv.generators import random_graph

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _bench_module(name):
    """bench/<name>.py, imported under the name bench_<name>."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr, _record", _bench_module("spans").WRAPPED)
def test_traced_function_exists(module_name, attr, _record):
    owner = importlib.import_module(f"graphdiv.{module_name}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"graphdiv.{module_name}.{attr} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def _graphdiv_uses():
    """(script, module, name) for every name a bench script imports from a
    graphdiv module, and every attribute it reads from a graphdiv module it
    imported, found by parsing the scripts."""
    uses = set()
    for path in sorted(glob.glob(os.path.join(BENCH, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        script, modules = os.path.basename(path), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphdiv"):
                for alias in node.names:
                    uses.add((script, node.module, alias.name))
                    if node.module == "graphdiv":  # may be a module: its reads are checked too
                        modules[alias.asname or alias.name] = f"graphdiv.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("graphdiv.") and alias.asname:
                        modules[alias.asname] = alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                uses.add((script, modules[node.value.id], node.attr))
    return sorted(uses)


def test_bench_reads_graphdiv_names():
    # the parse must see what the benchmark is known to read, or the
    # parametrized check below would pass vacuously
    uses = {(module, name) for _, module, name in _graphdiv_uses()}
    assert {("graphdiv.divergence", "train_source_encoders"),
            ("graphdiv.evaluation", "FoldPlan"), ("graphdiv.encoder", "TrainConfig"),
            ("graphdiv.graphs", "Graph")} <= uses


@pytest.mark.parametrize("script, module, name", _graphdiv_uses(),
                         ids=lambda v: v.replace("graphdiv.", ""))
def test_bench_name_exists(script, module, name):
    assert hasattr(importlib.import_module(module), name), \
        f"bench/{script} reads {module}.{name}, which is gone"


def test_check_round_reads_a_fitted_encoder_and_cell():
    # bench/run.py check_round refits a cell alone and recomputes its table
    # value with bench/refs.py from exactly these attributes
    refs = _bench_module("refs")
    cfg = TrainConfig(embed_dim=3, encoding_epochs=20, scoring_epochs=20, rng_seed=1)
    enc = train_encoder(random_graph(5, 0.5, 1), cfg, graph_id=0)
    target = random_graph(6, 0.5, 2)
    ae = train_attention(enc, target, cfg, target_graph_id=1, restarts=2)
    logits = refs.encoder_logits(enc.embedding, [(l.weight, l.bias) for l in enc.hidden],
                                 (enc.output.weight, enc.output.bias))
    own = refs.self_log_loss(logits, enc.graph.edges)
    value = refs.augmented_log_loss(ae.attention.forward, ae.attention.reverse,
                                    logits, target.edges) - own
    assert value == raw_divergence([ae])[0] - positive_log_loss([enc])[0]
