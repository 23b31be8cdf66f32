"""Command-line pipeline: encode, embed, classify, cluster, attention.

Each command takes only the options it reads. --dataset is read as a TU
dataset when it names a directory and as a JSON dataset otherwise. Every run
writes a JSON summary embedding its configuration (the command's training
options, defaults for the fields it does not take), its hash, and the seed;
classify and cluster add the `#` lines of the embeddings they read
("embeddings_comments"), so any output can be traced back to the exact
invocation and the run that made its inputs. All file writes go
through write-temp-then-rename.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

from .attention import argmax_alignment, attention_matrix, train_attention
from .divergence import (distance_matrix, embed_all, matrix_csv, symmetrize,
                         table_from_csv, table_to_csv, train_source_encoders, unit_rows)
from .encoder import ENCODER_FIELDS, TrainConfig, load_encoder, save_encoder
from .evaluation import (classify_cv, cut_clusters, hier_cluster,
                         make_fold_plan, purity, sample_sources)
from .graphs import atomic_write, load_dataset_json
from .nn import TrainingFault
from .tu import load_tu_dataset

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# every package input error (DatasetIngestionError, GraphError, ...) is a ValueError
_INPUT_ERRORS = (ValueError, FileNotFoundError, NotADirectoryError, IsADirectoryError)


class CliInputError(ValueError):
    pass


def _config_line(cfg):
    """The `#` line heading the CSV of a command that trains: its config."""
    return f"# config_hash={cfg.hash()} seed={cfg.rng_seed}\n"


def _read_csv_table(path):
    """The embeddings table at path, and its `#` lines, which name the run
    that wrote it; classify and cluster head their CSVs with them."""
    try:
        with open(path) as f:
            lines = f.readlines()
        return (table_from_csv("".join(line for line in lines if not line.startswith("#"))),
                "".join(line.rstrip("\n") + "\n" for line in lines if line.startswith("#")))
    except ValueError as exc:  # not UTF-8, or not an embeddings table
        raise CliInputError(f"{path}: {exc}") from None


def _write_summary(path, command, cfg, extra):
    payload = {"command": command, "config": asdict(cfg), "config_hash": cfg.hash(),
               "seed": cfg.rng_seed, **extra}
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _dataset_of(args, table):
    """The --dataset, whose graphs 0..n-1 the --embeddings table's rows must
    be in order, as embed writes them: rows are matched to graphs by position."""
    dataset = load_dataset(args.dataset)
    n, ids = len(dataset.graphs), table.target_ids
    k = next((k for k, tid in enumerate(ids) if tid != str(k)), len(ids))
    if k < min(len(ids), n):
        raise CliInputError(f"{args.embeddings}: data row {k + 1} is graph {ids[k]}, not {k}: "
                            f"rows must be the dataset's graphs 0..{n - 1} in order")
    if len(ids) != n:
        raise CliInputError(f"{args.embeddings}: {len(ids)} rows for the dataset's {n} graphs")
    return dataset


def load_dataset(path):
    if not os.path.exists(path):
        raise CliInputError(f"dataset path does not exist: {path}")
    return load_tu_dataset(path) if os.path.isdir(path) else load_dataset_json(path)


# training flag -> the TrainConfig field it sets, which gives its type and default
_TRAIN_FLAGS = {"--seed": "rng_seed", "--embed-dim": "embed_dim",
                "--encoder-layers": "encoder_layers", "--lr": "learning_rate",
                "--encoding-epochs": "encoding_epochs", "--scoring-epochs": "scoring_epochs",
                "--node-reg": "node_reg_coef", "--edge-reg": "edge_reg_coef"}


def build_config(args):
    """The command's training options over TrainConfig's defaults."""
    return TrainConfig(**{f: v for f, v in vars(args).items() if f in _TRAIN_FLAGS.values()})


def _encoder_path(out, cfg, idx):
    return os.path.join(out, f"encoder_{cfg.encoder_hash()}_g{idx}.json")


def _ensure_encoders(graphs, idxs, cfg, out, workers=1):
    """Encoders for the dataset graphs at idxs. A checkpoint is reused when it
    loads at this CHECKPOINT_VERSION, was written for this encoder config, is
    trained and its graph has the digest of the dataset's graph; the rest
    are trained, one stack per node count in parallel, each saved over its
    old file as its stack finishes, so a diverged encoder (which raises once
    every stack is done) costs no other its checkpoint. Returns (encoders in
    idxs order, number trained)."""
    encoders = {}
    for idx in idxs:
        try:
            enc = load_encoder(_encoder_path(out, cfg, idx), cfg)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            continue  # absent or unreadable: trained below, and the file (re)written
        if enc.trained and enc.graph.digest == graphs[idx].digest:
            encoders[idx] = enc
    missing = [idx for idx in idxs if idx not in encoders]
    trained = train_source_encoders(
        [graphs[idx] for idx in missing], cfg, source_ids=missing, workers=workers,
        save=lambda enc: save_encoder(enc, cfg, _encoder_path(out, cfg, enc.graph_id)))
    encoders.update(zip(missing, trained))
    return [encoders[idx] for idx in idxs], len(missing)


def _parse_sources(spec, num_graphs):
    parts = spec.split(":")
    if spec == "all":
        return list(range(num_graphs))
    if len(parts) == 3 and parts[0] == "sample":
        try:
            fraction, seed = float(parts[1]), int(parts[2])
        except ValueError:
            raise CliInputError(f"bad number in --sources spec {spec!r}") from None
        return sample_sources(num_graphs, fraction, seed)
    raise CliInputError(f"bad --sources spec {spec!r}; use all or sample:<fraction>:<seed>")


# Each command returns (CSV file name or None, CSV text, summary fields);
# main writes both files.

def cmd_encode(args, cfg):
    dataset = load_dataset(args.dataset)
    _, trained = _ensure_encoders(dataset.graphs, range(len(dataset.graphs)), cfg, args.out,
                                  workers=args.workers)
    return None, None, {"graphs": len(dataset.graphs), "trained": trained,
                        "skipped": len(dataset.graphs) - trained}


def cmd_embed(args, cfg):
    dataset = load_dataset(args.dataset)
    src_idx = _parse_sources(args.sources, len(dataset.graphs))
    if args.symmetric and len(src_idx) != len(dataset.graphs):
        raise CliInputError("--symmetric needs every graph as a source (--sources all)")
    encoders, _ = _ensure_encoders(dataset.graphs, src_idx, cfg, args.out, workers=args.workers)
    table = embed_all([dataset.graphs[i] for i in src_idx], dataset.graphs, cfg,
                      source_ids=src_idx, target_ids=list(range(len(dataset.graphs))),
                      workers=args.workers, encoders=encoders, restarts=args.restarts,
                      cell_dir=os.path.join(args.out, "cells"))
    if args.symmetric:
        table = symmetrize(table)
    return "embeddings.csv", _config_line(cfg) + table_to_csv(table), {
        "sources": src_idx, "targets": len(dataset.graphs), "symmetric": bool(args.symmetric),
        "cell_errors": {f"{t},{s}": msg for (t, s), msg in table.errors.items()}}


def cmd_classify(args, cfg):
    table, comments = _read_csv_table(args.embeddings)
    dataset = _dataset_of(args, table)
    plan = make_fold_plan(dataset.graph_classes, fold_count=args.folds, rng_seed=cfg.rng_seed)
    result = classify_cv(table, dataset.graph_classes, plan)
    body = comments + "fold,accuracy,knn_accuracy\n" + "".join(
        f"{i},{a!r},{k!r}\n" for i, a, k in
        zip(result.fold_ids, result.fold_accuracies, result.knn_fold_accuracies))
    return "accuracy.csv", body, {
        "mean_accuracy": result.mean, "std_accuracy": result.std,
        "knn_mean_accuracy": result.knn_mean, "knn_std_accuracy": result.knn_std,
        "skipped_folds": result.skipped_folds, "folds": args.folds,
        "embeddings_comments": comments}


def cmd_cluster(args, cfg):
    table, comments = _read_csv_table(args.embeddings)
    classes = _dataset_of(args, table).graph_classes
    values = table.values if args.raw_rows else unit_rows(table.values)
    dist = distance_matrix(values)
    dendro = hier_cluster(dist)
    extra = {"merges": [[int(a), int(b), float(h)] for a, b, h in dendro.merges],
             "leaf_ids": list(table.target_ids), "embeddings_comments": comments}
    if args.clusters:
        assignments = cut_clusters(dendro, args.clusters)
        extra["assignments"] = assignments.tolist()
        extra["purity"] = purity(assignments, classes)
    body = matrix_csv("graph_id", table.target_ids, table.target_ids, dist)
    return "distances.csv", comments + body, extra


def cmd_attention(args, cfg):
    dataset = load_dataset(args.dataset)
    n = len(dataset.graphs)
    if not (0 <= args.source_index < n and 0 <= args.target_index < n):
        raise CliInputError(f"graph indices must be in 0..{n - 1}")
    (source,), _ = _ensure_encoders(dataset.graphs, [args.source_index], cfg, args.out)
    ae = train_attention(source, dataset.graphs[args.target_index], cfg,
                         target_graph_id=args.target_index, restarts=args.restarts)
    m = attention_matrix(ae.attention)  # rows = source nodes, cols = target nodes
    body = matrix_csv("source_node", [f"t{j}" for j in range(m.shape[1])],
                      [f"s{i}" for i in range(m.shape[0])], m)
    return "attention.csv", _config_line(cfg) + body, {
        "source_index": args.source_index, "target_index": args.target_index,
        "argmax_alignment": [int(v) for v in argmax_alignment(ae)]}


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser():
    parser = argparse.ArgumentParser(prog="graphdiv",
                                     description="Pairwise-divergence graph embeddings")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {"--workers": dict(type=int, default=_usable_cpus()),
              "--restarts": dict(type=int, default=3,
                                 help="attention fits per pair; best training loss wins"),
              "--embeddings": dict(required=True, help="embeddings.csv from embed")}

    def command(name, func, summary, fields, *flags):
        """A subcommand taking --dataset, --out, the training flags of fields and flags."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--dataset", required=True, help="TU dataset directory or JSON file")
        p.add_argument("--out", required=True, help="output directory")
        for flag, field in _TRAIN_FLAGS.items():
            if field in fields:
                default = getattr(TrainConfig(), field)
                p.add_argument(flag, dest=field, type=type(default), default=default)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func)
        return p

    command("encode", cmd_encode, "train one encoder checkpoint per graph", ENCODER_FIELDS,
            "--workers")

    p = command("embed", cmd_embed, "build the divergence embedding table",
                _TRAIN_FLAGS.values(), "--workers", "--restarts")
    p.add_argument("--sources", default="all", help="all or sample:<fraction>:<seed>")
    p.add_argument("--symmetric", action="store_true")

    p = command("classify", cmd_classify, "cross-validated accuracy on embeddings",
                ("rng_seed",), "--embeddings")
    p.add_argument("--folds", type=int, default=10)

    p = command("cluster", cmd_cluster, "hierarchical clustering of embeddings", (),
                "--embeddings")
    p.add_argument("--clusters", type=int, default=0, help="cut height in cluster count")
    p.add_argument("--raw-rows", action="store_true",
                   help="cluster raw divergence rows instead of unit-normalized ones")

    p = command("attention", cmd_attention, "dump the alignment for one graph pair",
                _TRAIN_FLAGS.values(), "--restarts")
    p.add_argument("--source-index", type=int, required=True)
    p.add_argument("--target-index", type=int, required=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        # for the commands that take them, before anything is loaded, trained or written
        for name in ("restarts", "workers"):
            if getattr(args, name, 1) < 1:
                raise CliInputError(f"--{name} must be >= 1")
        csv_name, text, extra = args.func(args, cfg)
        if csv_name:
            atomic_write(os.path.join(args.out, csv_name), text)
        _write_summary(os.path.join(args.out, f"{args.command}_summary.json"), args.command,
                       cfg, extra)
        return EXIT_OK
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingFault, OSError) as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
