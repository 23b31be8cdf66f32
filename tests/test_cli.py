import json
import os
import re

import numpy as np
import pytest

from graphdiv.attention import attention_matrix, train_attention
from graphdiv.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_config, build_parser, main
from graphdiv.divergence import distance_matrix, matrix_csv, table_from_csv
from graphdiv.encoder import TrainConfig, load_encoder
from graphdiv.generators import make_barbell, random_graph
from graphdiv.graphs import Graph, GraphDataset, save_dataset_json


@pytest.fixture
def dataset_file(tmp_path):
    graphs = [random_graph(5, 0.3, s) for s in range(3)] + \
             [random_graph(5, 0.7, s) for s in range(3, 6)]
    ds = GraphDataset(graphs, [0, 0, 0, 1, 1, 1])
    path = tmp_path / "ds.json"
    save_dataset_json(ds, path)
    return str(path)


def fast(*extra):
    return ["--format", "json", "--embed-dim", "4", "--encoding-epochs", "30",
            "--scoring-epochs", "30", "--workers", "1", "--restarts", "1"] + list(extra)


def test_encode_caches_checkpoints(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    args = ["encode", "--dataset", dataset_file, "--out", out] + fast()
    assert main(args) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        first = json.load(f)
    assert first["trained"] == 6 and first["skipped"] == 0
    assert main(args) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        second = json.load(f)
    assert second["trained"] == 0 and second["skipped"] == 6
    assert main(args + ["--force"]) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        assert json.load(f)["trained"] == 6


def test_encoder_checkpoints_ignore_scoring_fields(tmp_path, dataset_file):
    # scoring epochs and label penalties do not enter an encoder fit, so a
    # change to them reuses the checkpoints instead of training a second set
    out = str(tmp_path / "out")
    args = ["encode", "--dataset", dataset_file, "--out", out] + fast()
    assert main(args) == EXIT_OK
    names = sorted(os.listdir(out))
    assert main(args + ["--scoring-epochs", "5", "--node-reg", "0", "--edge-reg", "2"]) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        assert json.load(f)["trained"] == 0
    assert sorted(os.listdir(out)) == names
    assert main(args + ["--encoding-epochs", "5"]) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        assert json.load(f)["trained"] == 6


def test_encode_exits_runtime_on_diverged_encoder(tmp_path, dataset_file, monkeypatch, capsys):
    import graphdiv.encoder as encoder

    build = encoder.build_encoder

    def poisoned(graph, cfg, graph_id=0):
        enc = build(graph, cfg, graph_id=graph_id)
        if graph_id in (1, 4):
            enc.embedding[0, 0] = np.nan
        return enc

    monkeypatch.setattr(encoder, "build_encoder", poisoned)
    out = str(tmp_path / "out")
    assert main(["encode", "--dataset", dataset_file, "--out", out] + fast()) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "runtime fault: loss diverged (non-finite) at epoch 0 for graph id(s) [1, 4]\n")


def test_diverged_encoder_keeps_the_clean_checkpoints(tmp_path, monkeypatch, capsys):
    # graph 1 diverges in the 6-node stack; every other encoder, of either
    # node count, is saved with the bits of a clean run before the exit, and
    # a rerun without the fault trains graph 1 alone
    import graphdiv.encoder as encoder

    graphs = [random_graph(n, 0.5, s) for s, n in enumerate((5, 6, 5, 6, 5, 6))]
    dataset_file = str(tmp_path / "ds.json")
    save_dataset_json(GraphDataset(graphs, [0, 1, 0, 1, 0, 1]), dataset_file)
    args = lambda out: ["encode", "--dataset", dataset_file, "--out", str(out)] + fast()
    checkpoints = lambda out: {p.name: p.read_bytes() for p in out.iterdir()
                               if p.name.startswith("encoder_")}
    assert main(args(tmp_path / "clean")) == EXIT_OK
    clean = checkpoints(tmp_path / "clean")
    build = encoder.build_encoder

    def poisoned(graph, cfg, graph_id=0):
        enc = build(graph, cfg, graph_id=graph_id)
        if graph_id == 1:
            enc.embedding[0, 0] = np.nan
        return enc

    out = tmp_path / "out"
    with monkeypatch.context() as m:
        m.setattr(encoder, "build_encoder", poisoned)
        assert main(args(out)) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "runtime fault: loss diverged (non-finite) at epoch 0 for graph id(s) [1]\n")
    assert checkpoints(out) == {k: v for k, v in clean.items() if not k.endswith("_g1.json")}
    assert main(args(out)) == EXIT_OK
    with open(out / "encode_summary.json") as f:
        assert json.load(f)["trained"] == 1
    assert checkpoints(out) == clean


def test_attention_exits_runtime_on_diverged_fit(tmp_path, dataset_file, monkeypatch, capsys):
    import graphdiv.attention as att

    real = att.attention_loss_and_grads

    def diverged(problem, params):
        losses, grads = real(problem, params)
        return np.full_like(losses, np.nan), grads

    monkeypatch.setattr(att, "attention_loss_and_grads", diverged)
    out = str(tmp_path / "out")
    assert main(["attention", "--dataset", dataset_file, "--out", out,
                 "--source-index", "0", "--target-index", "2"] + fast()) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "runtime fault: loss diverged (non-finite) at epoch 0 for graph id(s) [2]\n")


def test_encode_retrains_corrupted_checkpoint(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    args = ["encode", "--dataset", dataset_file, "--out", out] + fast()
    assert main(args) == EXIT_OK
    ckpt = next(p for p in sorted(os.listdir(out)) if p.startswith("encoder_"))
    with open(os.path.join(out, ckpt), "w") as f:
        f.write("{garbage")
    assert main(args) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        assert json.load(f)["trained"] == 1


def _untrained(text):
    ckpt = json.loads(text)
    ckpt["meta"]["trained"] = False
    return json.dumps(ckpt).encode()


@pytest.mark.parametrize("corrupt", [lambda text: b"[1, 2]", lambda text: b"\xff\xfe{", _untrained],
                         ids=["not-an-object", "not-utf8", "untrained"])
def test_embed_retrains_unusable_checkpoint(tmp_path, dataset_file, corrupt):
    # a checkpoint that is unreadable or not a trained encoder counts as
    # absent: it is retrained and overwritten with the bytes of a clean run
    out = tmp_path / "out"
    args = ["--dataset", dataset_file, "--out", str(out)] + fast()
    assert main(["encode"] + args) == EXIT_OK
    ckpt = out / next(p for p in sorted(os.listdir(out)) if p.startswith("encoder_"))
    clean = ckpt.read_bytes()
    ckpt.write_bytes(corrupt(clean.decode()))
    assert main(["embed"] + args) == EXIT_OK
    assert ckpt.read_bytes() == clean


def test_encode_workers_write_identical_checkpoints(tmp_path):
    # missing encoders train in parallel, one stack per node count (two
    # stacks of 2 here); checkpoints and counts do not move
    graphs = [random_graph(n, 0.5, s) for s, n in enumerate((5, 5, 6, 7, 6, 8))]
    dataset_file = str(tmp_path / "ds.json")
    save_dataset_json(GraphDataset(graphs, [0, 0, 0, 1, 1, 1]), dataset_file)
    runs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        args = ["encode", "--dataset", dataset_file, "--out", str(out)] + fast()
        args[args.index("--workers") + 1] = workers
        assert main(args) == EXIT_OK
        # keep one checkpoint, so the rerun counts a mix of reused and trained
        ckpt = sorted(p for p in os.listdir(out) if p.startswith("encoder_"))
        for name in ckpt[1:]:
            os.remove(out / name)
        assert main(args) == EXIT_OK
        with open(out / "encode_summary.json") as f:
            summary = json.load(f)
        runs[workers] = ({name: (out / name).read_bytes() for name in ckpt},
                         summary["trained"], summary["skipped"])
    assert runs["1"] == runs["2"]
    assert runs["1"][1:] == (5, 1)


def test_embed_output_and_idempotence(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    args = ["embed", "--dataset", dataset_file, "--out", out] + fast()
    assert main(args) == EXIT_OK
    path = os.path.join(out, "embeddings.csv")
    with open(path) as f:
        text1 = f.read()
    assert text1.startswith("# config_hash=")
    header = text1.splitlines()[1]
    assert header == "graph_id,0,1,2,3,4,5"
    assert len(text1.splitlines()) == 8  # comment + header + 6 rows
    # rerun reuses cached cells and reproduces the file byte for byte
    assert main(args) == EXIT_OK
    with open(path) as f:
        assert f.read() == text1


def test_embed_sampled_sources(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    args = ["embed", "--dataset", dataset_file, "--out", out,
            "--sources", "sample:0.5:7"] + fast()
    assert main(args) == EXIT_OK
    with open(os.path.join(out, "embed_summary.json")) as f:
        summary = json.load(f)
    assert len(summary["sources"]) == 3
    with open(os.path.join(out, "embeddings.csv")) as f:
        header = f.read().splitlines()[1]
    assert header.count(",") == 3  # graph_id + 3 source columns


def test_classify_pipeline(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    assert main(["embed", "--dataset", dataset_file, "--out", out] + fast()) == EXIT_OK
    emb = os.path.join(out, "embeddings.csv")
    assert main(["classify", "--dataset", dataset_file, "--out", out,
                 "--embeddings", emb, "--folds", "3"] + fast()) == EXIT_OK
    with open(os.path.join(out, "classify_summary.json")) as f:
        summary = json.load(f)
    assert 0.0 <= summary["mean_accuracy"] <= 1.0
    with open(os.path.join(out, "accuracy.csv")) as f:
        lines = f.read().splitlines()
    assert lines[1] == "fold,accuracy,knn_accuracy"
    assert len(lines) == 2 + 3


def test_classify_writes_fold_ids(tmp_path):
    # the single-member class sits in fold 0, whose training split then holds
    # one class: fold 0 is skipped and the rows keep the ids 1-4
    ds = GraphDataset([random_graph(5, 0.5, s) for s in range(10)], [0] * 9 + [1])
    save_dataset_json(ds, tmp_path / "ds.json")
    values = np.random.default_rng(0).normal(size=(10, 2)).tolist()
    emb = tmp_path / "emb.csv"
    emb.write_text("graph_id,0,1\n" + "".join(f"{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(values)))
    out = str(tmp_path / "out")
    assert main(["classify", "--dataset", str(tmp_path / "ds.json"), "--out", out,
                 "--embeddings", str(emb), "--folds", "5"] + fast()) == EXIT_OK
    with open(os.path.join(out, "classify_summary.json")) as f:
        assert json.load(f)["skipped_folds"] == [0]
    with open(os.path.join(out, "accuracy.csv")) as f:
        rows = f.read().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]


def test_classify_rejects_mismatched_embeddings(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    emb = tmp_path / "bad.csv"
    emb.write_text("graph_id,0\n0,1.0\n")
    assert main(["classify", "--dataset", dataset_file, "--out", out,
                 "--embeddings", str(emb)] + fast()) == EXIT_USAGE


def test_cluster_pipeline(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    assert main(["embed", "--dataset", dataset_file, "--out", out,
                 "--symmetric"] + fast()) == EXIT_OK
    emb = os.path.join(out, "embeddings.csv")
    assert main(["cluster", "--dataset", dataset_file, "--out", out,
                 "--embeddings", emb, "--clusters", "2"] + fast()) == EXIT_OK
    with open(os.path.join(out, "cluster_summary.json")) as f:
        summary = json.load(f)
    assert len(summary["merges"]) == 5
    assert len(summary["assignments"]) == 6
    assert 0.0 <= summary["purity"] <= 1.0
    assert os.path.isfile(os.path.join(out, "distances.csv"))


def test_attention_identity_on_labeled_barbell(tmp_path):
    ds = GraphDataset([make_barbell(5, labeled=True)], [0])
    path = tmp_path / "bar.json"
    save_dataset_json(ds, path)
    out = str(tmp_path / "out")
    code = main(["attention", "--dataset", str(path), "--out", out,
                 "--source-index", "0", "--target-index", "0",
                 "--format", "json", "--embed-dim", "8", "--lr", "5e-2",
                 "--encoding-epochs", "300", "--scoring-epochs", "800",
                 "--restarts", "3"])
    assert code == EXIT_OK
    with open(os.path.join(out, "attention_summary.json")) as f:
        summary = json.load(f)
    align = summary["argmax_alignment"]
    assert sum(1 for u, v in enumerate(align) if u == v) >= 8
    with open(os.path.join(out, "attention.csv")) as f:
        lines = f.read().splitlines()
    assert lines[1].startswith("source_node,t0")
    # softmax columns of the dumped matrix sum to 1
    cols = [list(map(float, l.split(",")[1:])) for l in lines[2:]]
    assert np.allclose(np.sum(cols, axis=0), 1.0, atol=1e-9)


def test_attention_csv_format(tmp_path):
    # header t0..t6 over the 7 target nodes, one row s0..s4 per source node,
    # and every value reads back to the bits of the fitted alignment
    ds = GraphDataset([random_graph(5, 0.5, 1), random_graph(7, 0.5, 2)], [0, 1])
    path = str(tmp_path / "ds.json")
    save_dataset_json(ds, path)
    out = str(tmp_path / "out")
    argv = ["attention", "--dataset", path, "--out", out,
            "--source-index", "0", "--target-index", "1"] + fast()
    assert main(argv) == EXIT_OK
    args = build_parser().parse_args(argv)
    cfg = build_config(args)
    source = load_encoder(os.path.join(out, f"encoder_{cfg.encoder_hash()}_g0.json"))
    ae = train_attention(source, ds.graphs[1], cfg, target_graph_id=1, restarts=args.restarts)
    with open(os.path.join(out, "attention.csv")) as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "source_node," + ",".join(f"t{j}" for j in range(7))
    rows = [line.split(",") for line in lines[2:]]
    assert [row[0] for row in rows] == [f"s{i}" for i in range(5)]
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    assert values.tobytes() == attention_matrix(ae.attention).tobytes()


def test_attention_index_bounds(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    assert main(["attention", "--dataset", dataset_file, "--out", out,
                 "--source-index", "0", "--target-index", "9"] + fast()) == EXIT_USAGE


def test_missing_dataset_is_usage_error(tmp_path):
    out = str(tmp_path / "out")
    assert main(["encode", "--dataset", str(tmp_path / "nope.json"),
                 "--out", out] + fast()) == EXIT_USAGE


def test_directory_for_a_file_is_usage_error(tmp_path, dataset_file, capsys):
    # a directory where a file belongs (a json dataset, --embeddings) exits 2
    # naming the path, as a file where a TU directory belongs already did
    assert main(["encode", "--dataset", str(tmp_path), "--out", str(tmp_path / "out")]
                + fast()) == EXIT_USAGE
    assert str(tmp_path) in capsys.readouterr().err
    assert main(["cluster", "--dataset", dataset_file, "--out", str(tmp_path / "out"),
                 "--embeddings", str(tmp_path)] + fast()) == EXIT_USAGE
    assert str(tmp_path) in capsys.readouterr().err


def test_malformed_json_dataset_names_its_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"graphs": [{')
    assert main(["encode", "--dataset", str(path), "--out", str(tmp_path / "out")]
                + fast()) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("text", ["graph_id,0,1\n0,0.0,1.0\n1,abc,0.5\n",
                                  "graph_id,0,1\n0,0.0,1.0\n1,0.5\n",
                                  "# config_hash=x seed=0\n", "graph_id,0,1\n"],
                         ids=["not-a-float", "ragged", "empty", "header-only"])
def test_malformed_embeddings_name_their_file(tmp_path, dataset_file, capsys, text):
    emb = tmp_path / "emb.csv"
    emb.write_text(text)
    assert main(["cluster", "--dataset", dataset_file, "--out", str(tmp_path / "out"),
                 "--embeddings", str(emb)] + fast()) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {emb}: ")


def test_bad_sources_spec(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    assert main(["embed", "--dataset", dataset_file, "--out", out,
                 "--sources", "half"] + fast()) == EXIT_USAGE


@pytest.mark.parametrize("spec", ["sample:x:1", "sample:0.5:y"])
def test_malformed_sample_number_names_the_spec(tmp_path, dataset_file, capsys, spec):
    # a bad number once printed only "could not convert string to float: 'x'"
    assert main(["embed", "--dataset", dataset_file, "--out", str(tmp_path / "out"),
                 "--sources", spec] + fast()) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: bad number in --sources spec {spec!r}\n"


@pytest.mark.parametrize("flag", ["--lr", "--node-reg", "--edge-reg"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_training_value_is_usage_error(tmp_path, dataset_file, capsys, flag, value):
    # NaN and inf once passed the config checks: --node-reg nan trained with
    # the penalty off, --node-reg inf gave an all-NaN table, and --lr nan
    # exited 1 as a runtime fault
    out = tmp_path / "out"
    assert main(["embed", "--dataset", dataset_file, "--out", str(out)]
                + fast(flag, value)) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_no_training_flags_give_the_default_config():
    args = build_parser().parse_args(["embed", "--dataset", "ds.json", "--out", "out"])
    assert build_config(args) == TrainConfig()


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _labeled_dataset(path, first_labels):
    """Three labeled 4-node paths; graph 0 takes first_labels, the others use
    node labels 0-2, so the dataset's vocabulary has three labels."""
    edges = [(0, 1), (1, 2), (2, 3)]
    graphs = [Graph(4, edges, node_labels=first_labels),
              Graph(4, edges, node_labels=[0, 1, 2, 1]),
              Graph(4, edges, node_labels=[2, 2, 0, 1])]
    save_dataset_json(GraphDataset(graphs, [0, 1, 1]), path)


def test_encode_then_embed_keeps_dataset_vocabulary(tmp_path):
    # graph 0 lacks the top label; its checkpoint must not narrow the
    # vocabulary the pair penalties compare
    path = tmp_path / "labeled.json"
    _labeled_dataset(path, [0, 1, 0, 1])
    out = str(tmp_path / "out")
    base = ["--dataset", str(path), "--out", out] + fast()
    assert main(["encode"] + base) == EXIT_OK
    assert main(["embed"] + base) == EXIT_OK
    assert main(["attention", "--source-index", "0", "--target-index", "1"] + base) == EXIT_OK
    with open(os.path.join(out, "embed_summary.json")) as f:
        assert json.load(f)["cell_errors"] == {}


def test_encode_retrains_checkpoint_of_changed_graph(tmp_path):
    path = tmp_path / "labeled.json"
    out = str(tmp_path / "out")
    args = ["encode", "--dataset", str(path), "--out", out] + fast()
    _labeled_dataset(path, [0, 1, 0, 1])
    assert main(args) == EXIT_OK
    _labeled_dataset(path, [1, 1, 0, 0])  # graph 0 changes, graphs 1-2 do not
    assert main(args) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        summary = json.load(f)
    assert summary["trained"] == 1 and summary["skipped"] == 2


def test_encode_ignores_stale_temp_path(tmp_path, dataset_file):
    # a leftover at the checkpoint's old fixed temp name must not block a write
    out = tmp_path / "out"
    args = ["encode", "--dataset", dataset_file, "--out", str(out)] + fast()
    assert main(args) == EXIT_OK
    ckpt = next(p for p in sorted(os.listdir(out)) if p.startswith("encoder_"))
    os.remove(out / ckpt)
    os.mkdir(out / (ckpt + ".tmp"))
    assert main(args) == EXIT_OK
    assert os.path.isfile(out / ckpt)
    assert not [p for p in os.listdir(out) if p.endswith(".tmp") and p != ckpt + ".tmp"]


def test_symmetric_needs_every_source(tmp_path, dataset_file):
    # rejected before any encoder is trained or any cell is written
    out = tmp_path / "out"
    assert main(["embed", "--dataset", dataset_file, "--out", str(out),
                 "--sources", "sample:0.5:7", "--symmetric"] + fast()) == EXIT_USAGE
    assert not out.exists()


def test_cluster_raw_rows(tmp_path, dataset_file):
    out = tmp_path / "out"
    assert main(["embed", "--dataset", dataset_file, "--out", str(out)] + fast()) == EXIT_OK
    emb = str(out / "embeddings.csv")
    assert main(["cluster", "--dataset", dataset_file, "--out", str(out),
                 "--embeddings", emb, "--raw-rows"] + fast()) == EXIT_OK
    with open(emb) as f:
        table = table_from_csv("".join(l for l in f if not l.startswith("#")))
    with open(out / "distances.csv") as f:
        text = f.read()
    assert text.split("\n", 1)[1] == matrix_csv("graph_id", table.target_ids, table.target_ids,
                                                 distance_matrix(table.values))


_COMMON_KEYS = {"command", "config", "config_hash", "seed"}
_ENCODERS = {f"encoder_H_g{i}.json" for i in range(6)}
# per command: extra arguments, the files it writes to a fresh --out (config
# hash replaced by H) and the keys of its summary
CONTRACT = {
    "encode": ([], _ENCODERS | {"encode_summary.json"},
               {"graphs", "trained", "skipped"}),
    "embed": ([], _ENCODERS | {"embeddings.csv", "embed_summary.json"}
              | {f"cells/cell_H_r1_t{t}_s{s}.json" for t in range(6) for s in range(6)},
              {"sources", "targets", "symmetric", "cell_errors"}),
    "classify": (["--embeddings", "EMB", "--folds", "3"], {"accuracy.csv", "classify_summary.json"},
                 {"mean_accuracy", "std_accuracy", "knn_mean_accuracy", "knn_std_accuracy",
                  "skipped_folds", "folds"}),
    "cluster": (["--embeddings", "EMB", "--clusters", "2"], {"distances.csv", "cluster_summary.json"},
                {"merges", "leaf_ids", "assignments", "purity"}),
    "attention": (["--source-index", "1", "--target-index", "4"],
                  {"encoder_H_g1.json", "attention.csv", "attention_summary.json"},
                  {"source_index", "target_index", "argmax_alignment"}),
}


@pytest.mark.parametrize("command", sorted(CONTRACT))
def test_command_outputs_contract(tmp_path, dataset_file, command):
    extra, files, keys = CONTRACT[command]
    emb = tmp_path / "emb.csv"
    emb.write_text("# config_hash=x seed=0\ngraph_id,0,1\n" + "".join(
        f"{i},{float(i % 3)!r},{float(i // 3)!r}\n" for i in range(6)))
    out = tmp_path / "out"
    args = [str(emb) if a == "EMB" else a for a in extra]
    assert main([command, "--dataset", dataset_file, "--out", str(out)] + fast() + args) == EXIT_OK
    written = {re.sub(r"_[0-9a-f]{12}_", "_H_", os.path.relpath(os.path.join(root, name), out))
               for root, _, names in os.walk(out) for name in names}
    assert written == files
    with open(out / f"{command}_summary.json") as f:
        assert set(json.load(f)) == _COMMON_KEYS | keys
