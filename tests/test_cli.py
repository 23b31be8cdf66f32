import argparse
import json
import os
import re
import shutil

import numpy as np
import pytest

from graphdiv.attention import attention_matrix, train_attention
from graphdiv.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_config, build_parser, main
from graphdiv.divergence import CELL_FORMAT, distance_matrix, matrix_csv, table_from_csv
from graphdiv.encoder import TrainConfig, load_encoder, save_encoder
from graphdiv.generators import make_barbell, make_ring, make_star, random_graph
from graphdiv.graphs import Graph, GraphDataset, save_dataset_json
from graphdiv.tu import save_tu_dataset


@pytest.fixture
def dataset_file(tmp_path):
    graphs = [random_graph(5, 0.3, s) for s in range(3)] + \
             [random_graph(5, 0.7, s) for s in range(3, 6)]
    ds = GraphDataset(graphs, [0, 0, 0, 1, 1, 1])
    path = tmp_path / "ds.json"
    save_dataset_json(ds, path)
    return str(path)


FAST = {"--embed-dim": "4", "--encoding-epochs": "30", "--scoring-epochs": "30",
        "--workers": "1", "--restarts": "1"}


def subparsers():
    """graphdiv's command parsers by command name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def options(command):
    """The option strings a graphdiv command takes, --help aside."""
    return {s for a in subparsers()[command]._actions for s in a.option_strings} - {"-h", "--help"}


def fast(command, *extra):
    """The quick settings among the options command takes, then extra."""
    taken = options(command)
    return [s for flag, value in FAST.items() if flag in taken for s in (flag, value)] + list(extra)


def test_encode_caches_checkpoints(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    args = ["encode", "--dataset", dataset_file, "--out", out] + fast("encode")
    assert main(args) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        first = json.load(f)
    assert first["trained"] == 6 and first["skipped"] == 0
    assert main(args) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        second = json.load(f)
    assert second["trained"] == 0 and second["skipped"] == 6
    # a deleted checkpoint is trained again, alone, to the same bytes
    ckpt = os.path.join(out, sorted(p for p in os.listdir(out) if p.startswith("encoder_"))[3])
    with open(ckpt, "rb") as f:
        saved = f.read()
    os.remove(ckpt)
    assert main(args) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        third = json.load(f)
    assert third["trained"] == 1 and third["skipped"] == 5
    with open(ckpt, "rb") as f:
        assert f.read() == saved


def test_encoder_checkpoints_ignore_scoring_fields(tmp_path, dataset_file):
    # scoring epochs and label penalties do not enter an encoder fit, so an
    # embed with other values of them reuses encode's checkpoints instead of
    # training a second set
    out = tmp_path / "out"
    args = ["--dataset", dataset_file, "--out", str(out)]
    assert main(["encode"] + args + fast("encode")) == EXIT_OK
    checkpoints = lambda: {p.name: p.read_bytes() for p in out.iterdir()
                           if p.name.startswith("encoder_")}
    encoded = checkpoints()
    assert main(["embed"] + args + fast("embed", "--scoring-epochs", "5", "--node-reg", "0",
                                        "--edge-reg", "2")) == EXIT_OK
    assert checkpoints() == encoded
    assert main(["encode"] + args + fast("encode", "--encoding-epochs", "5")) == EXIT_OK
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
    assert main(["encode", "--dataset", dataset_file, "--out", out]
                + fast("encode")) == EXIT_RUNTIME
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
    args = lambda out: ["encode", "--dataset", dataset_file, "--out", str(out)] + fast("encode")
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

    def diverged(problem, params, loss):
        losses, grads = real(problem, params, loss)
        return np.full_like(losses, np.nan) if loss else None, grads

    monkeypatch.setattr(att, "attention_loss_and_grads", diverged)
    out = str(tmp_path / "out")
    assert main(["attention", "--dataset", dataset_file, "--out", out,
                 "--source-index", "0", "--target-index", "2"] + fast("attention")) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "runtime fault: loss diverged (non-finite) at epoch 0 for graph id(s) [2]\n")


def test_encode_retrains_corrupted_checkpoint(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    args = ["encode", "--dataset", dataset_file, "--out", out] + fast("encode")
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
    args = ["--dataset", dataset_file, "--out", str(out)]
    assert main(["encode"] + args + fast("encode")) == EXIT_OK
    ckpt = out / next(p for p in sorted(os.listdir(out)) if p.startswith("encoder_"))
    clean = ckpt.read_bytes()
    ckpt.write_bytes(corrupt(clean.decode()))
    assert main(["embed"] + args + fast("embed")) == EXIT_OK
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
        args = ["encode", "--dataset", dataset_file, "--out", str(out)] + fast("encode")
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
    args = ["embed", "--dataset", dataset_file, "--out", out] + fast("embed")
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
            "--sources", "sample:0.5:7"] + fast("embed")
    assert main(args) == EXIT_OK
    with open(os.path.join(out, "embed_summary.json")) as f:
        summary = json.load(f)
    assert len(summary["sources"]) == 3
    with open(os.path.join(out, "embeddings.csv")) as f:
        header = f.read().splitlines()[1]
    assert header.count(",") == 3  # graph_id + 3 source columns


def test_classify_pipeline(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    assert main(["embed", "--dataset", dataset_file, "--out", out] + fast("embed")) == EXIT_OK
    emb = os.path.join(out, "embeddings.csv")
    assert main(["classify", "--dataset", dataset_file, "--out", out,
                 "--embeddings", emb, "--folds", "3"]) == EXIT_OK
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
                 "--embeddings", str(emb), "--folds", "5"]) == EXIT_OK
    with open(os.path.join(out, "classify_summary.json")) as f:
        assert json.load(f)["skipped_folds"] == [0]
    with open(os.path.join(out, "accuracy.csv")) as f:
        lines = f.read().splitlines()
    rows = lines[lines.index("fold,accuracy,knn_accuracy") + 1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]


def test_classify_rejects_mismatched_embeddings(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    emb = tmp_path / "bad.csv"
    emb.write_text("graph_id,0\n0,1.0\n")
    assert main(["classify", "--dataset", dataset_file, "--out", out,
                 "--embeddings", str(emb)]) == EXIT_USAGE


def _permuted_rows_case(tmp_path, order):
    """An 8-graph JSON dataset, two classes of ring-like and star-like graphs,
    and an embeddings CSV whose rows carry the graphs' own embeddings under
    the given row id order."""
    graphs = [make_ring(6 + i) for i in range(4)] + [make_star(6 + i) for i in range(4)]
    save_dataset_json(GraphDataset(graphs, [0] * 4 + [1] * 4), tmp_path / "ds.json")
    emb = tmp_path / "emb.csv"
    emb.write_text("graph_id,0,1\n" + "".join(
        f"{i},{float(i >= 4)!r},{0.01 * i!r}\n" for i in order))
    return str(tmp_path / "ds.json"), str(emb)


@pytest.mark.parametrize("command, extra", [("classify", ["--folds", "2"]),
                                            ("cluster", ["--clusters", "2"]), ("cluster", [])])
def test_permuted_embedding_rows_are_rejected(tmp_path, capsys, command, extra):
    # rows in id order 0, 4, 1, 5, ... were matched to graphs by position:
    # classify exited 0 with accuracy 0.5 (1.0 in order) and cluster with
    # purity 0.625 (0.875 in order); without --clusters, cluster did not
    # check its rows at all
    ds, emb = _permuted_rows_case(tmp_path, [0, 4, 1, 5, 2, 6, 3, 7])
    out = tmp_path / "out"
    argv = [command, "--dataset", ds, "--out", str(out), "--embeddings", emb] + extra
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {emb}: data row 2 is graph 4, not 1")
    assert not out.exists()
    _permuted_rows_case(tmp_path, range(8))
    assert main(argv) == EXIT_OK


def test_cluster_pipeline(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    assert main(["embed", "--dataset", dataset_file, "--out", out,
                 "--symmetric"] + fast("embed")) == EXIT_OK
    emb = os.path.join(out, "embeddings.csv")
    assert main(["cluster", "--dataset", dataset_file, "--out", out,
                 "--embeddings", emb, "--clusters", "2"]) == EXIT_OK
    with open(os.path.join(out, "cluster_summary.json")) as f:
        summary = json.load(f)
    assert len(summary["merges"]) == 5
    assert len(summary["assignments"]) == 6
    assert 0.0 <= summary["purity"] <= 1.0
    assert os.path.isfile(os.path.join(out, "distances.csv"))


def test_classify_and_cluster_csvs_name_their_embeddings(tmp_path, dataset_file):
    # both once wrote a config line of their own options (accuracy.csv and
    # distances.csv read "# config_hash=4171e6d48ded seed=0" whatever the
    # embeddings were), so neither output named the embeddings it read
    out = tmp_path / "out"
    base = ["--dataset", dataset_file, "--out", str(out)]
    emb = ["--embeddings", str(out / "embeddings.csv")]
    assert main(["embed"] + base + fast("embed", "--seed", "3")) == EXIT_OK
    assert main(["classify"] + base + emb + ["--folds", "3"]) == EXIT_OK
    assert main(["cluster"] + base + emb) == EXIT_OK
    first = {name: (out / name).read_text().splitlines()[0]
             for name in ("embeddings.csv", "accuracy.csv", "distances.csv")}
    assert first["embeddings.csv"].endswith(" seed=3")
    assert set(first.values()) == {first["embeddings.csv"]}


def test_classify_and_cluster_summaries_name_their_embeddings(tmp_path, dataset_file):
    # both summaries once held only their own command's config (cluster's
    # config_hash read 4171e6d48ded, the defaults, for any embeddings)
    out = tmp_path / "out"
    base = ["--dataset", dataset_file, "--out", str(out)]
    emb = ["--embeddings", str(out / "embeddings.csv")]
    assert main(["embed"] + base + fast("embed", "--seed", "3")) == EXIT_OK
    assert main(["classify"] + base + emb + ["--folds", "3"]) == EXIT_OK
    assert main(["cluster"] + base + emb) == EXIT_OK
    line = (out / "embeddings.csv").read_text().splitlines()[0]
    assert line.startswith("# config_hash=")
    for command in ("classify", "cluster"):
        with open(out / f"{command}_summary.json") as f:
            assert json.load(f)["embeddings_comments"] == line + "\n", command


def test_attention_identity_on_labeled_barbell(tmp_path):
    ds = GraphDataset([make_barbell(5, labeled=True)], [0])
    path = tmp_path / "bar.json"
    save_dataset_json(ds, path)
    out = str(tmp_path / "out")
    code = main(["attention", "--dataset", str(path), "--out", out,
                 "--source-index", "0", "--target-index", "0",
                 "--embed-dim", "8", "--lr", "5e-2",
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
            "--source-index", "0", "--target-index", "1"] + fast("attention")
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
                 "--source-index", "0", "--target-index", "9"] + fast("attention")) == EXIT_USAGE


def test_missing_dataset_is_usage_error(tmp_path, capsys):
    # cluster once read --dataset only with --clusters: without it, a missing
    # dataset exited 0 and wrote distances.csv
    out, missing = tmp_path / "out", str(tmp_path / "nope.json")
    emb = tmp_path / "emb.csv"
    emb.write_text("graph_id,0\n0,1.0\n")
    for argv in (["encode"] + fast("encode"), ["cluster", "--embeddings", str(emb)]):
        assert main(argv + ["--dataset", missing, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: dataset path does not exist: {missing}\n"
        assert not out.exists()


def test_directory_for_a_file_is_usage_error(tmp_path, dataset_file, capsys):
    # a directory that holds no TU dataset, and a directory where the
    # --embeddings file belongs, exit 2 naming the path
    assert main(["encode", "--dataset", str(tmp_path), "--out", str(tmp_path / "out")]
                + fast("encode")) == EXIT_USAGE
    assert str(tmp_path) in capsys.readouterr().err
    assert main(["cluster", "--dataset", dataset_file, "--out", str(tmp_path / "out"),
                 "--embeddings", str(tmp_path)]) == EXIT_USAGE
    assert str(tmp_path) in capsys.readouterr().err


def test_malformed_json_dataset_names_its_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"graphs": [{')
    assert main(["encode", "--dataset", str(path), "--out", str(tmp_path / "out")]
                + fast("encode")) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("text", ["graph_id,0,1\n0,0.0,1.0\n1,abc,0.5\n",
                                  "graph_id,0,1\n0,0.0,1.0\n1,0.5\n",
                                  "# config_hash=x seed=0\n", "graph_id,0,1\n"],
                         ids=["not-a-float", "ragged", "empty", "header-only"])
def test_malformed_embeddings_name_their_file(tmp_path, dataset_file, capsys, text):
    emb = tmp_path / "emb.csv"
    emb.write_text(text)
    assert main(["cluster", "--dataset", dataset_file, "--out", str(tmp_path / "out"),
                 "--embeddings", str(emb)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {emb}: ")


def test_bad_sources_spec(tmp_path, dataset_file):
    out = str(tmp_path / "out")
    assert main(["embed", "--dataset", dataset_file, "--out", out,
                 "--sources", "half"] + fast("embed")) == EXIT_USAGE


@pytest.mark.parametrize("spec", ["sample:x:1", "sample:0.5:y"])
def test_malformed_sample_number_names_the_spec(tmp_path, dataset_file, capsys, spec):
    # a bad number once printed only "could not convert string to float: 'x'"
    assert main(["embed", "--dataset", dataset_file, "--out", str(tmp_path / "out"),
                 "--sources", spec] + fast("embed")) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: bad number in --sources spec {spec!r}\n"


@pytest.mark.parametrize("flag", ["--lr", "--node-reg", "--edge-reg"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_training_value_is_usage_error(tmp_path, dataset_file, capsys, flag, value):
    # NaN and inf once passed the config checks: --node-reg nan trained with
    # the penalty off, --node-reg inf gave an all-NaN table, and --lr nan
    # exited 1 as a runtime fault
    out = tmp_path / "out"
    assert main(["embed", "--dataset", dataset_file, "--out", str(out)]
                + fast("embed", flag, value)) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["embed"],
                                     ["attention", "--source-index", "0", "--target-index", "1"]],
                         ids=["embed", "attention"])
def test_restarts_below_one_is_usage_error_before_any_work(tmp_path, dataset_file, capsys,
                                                             command):
    # embed once trained and saved every encoder and made cells/ before it
    # exited 2, and attention trained its source encoder first
    out = tmp_path / "out"
    assert main(command[:1] + ["--dataset", dataset_file, "--out", str(out)] + command[1:]
                + fast(command[0], "--restarts", "0")) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --restarts must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error_before_any_work(tmp_path, dataset_file, capsys,
                                                          workers):
    # embed once exited 0 and ran serially
    out = tmp_path / "out"
    for command in ("encode", "embed"):
        assert main([command, "--dataset", dataset_file, "--out", str(out)]
                    + fast(command, "--workers", workers)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --workers must be >= 1\n"
        assert not out.exists()


def test_no_training_flags_give_the_default_config():
    for argv in (["encode"], ["embed"], ["classify", "--embeddings", "e.csv"],
                 ["cluster", "--embeddings", "e.csv"],
                 ["attention", "--source-index", "0", "--target-index", "1"]):
        args = build_parser().parse_args(argv + ["--dataset", "ds.json", "--out", "out"])
        assert build_config(args) == TrainConfig()


def test_workers_default_is_the_cpus_this_process_may_run_on(monkeypatch):
    # the default was os.cpu_count(), which ignores the affinity mask: under
    # taskset -c 0 on a 2-CPU host, embed started 2 workers on 1 CPU
    parse = lambda command: build_parser().parse_args([command, "--dataset", "d", "--out", "o"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parse("encode").workers == parse("embed").workers == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parse("embed").workers == (os.cpu_count() or 1)


TRAIN_OPTIONS = {"--seed", "--embed-dim", "--encoder-layers", "--lr", "--encoding-epochs",
                 "--scoring-epochs", "--node-reg", "--edge-reg"}
# each command takes --dataset, --out and only the other options it reads
OPTION_SETS = {
    "encode": {"--dataset", "--out", "--workers", "--seed", "--embed-dim",
               "--encoder-layers", "--lr", "--encoding-epochs"},
    "embed": {"--dataset", "--out", "--workers", "--restarts", "--sources",
              "--symmetric"} | TRAIN_OPTIONS,
    "classify": {"--dataset", "--out", "--seed", "--embeddings", "--folds"},
    "cluster": {"--dataset", "--out", "--embeddings", "--clusters", "--raw-rows"},
    "attention": {"--dataset", "--out", "--restarts", "--source-index",
                  "--target-index"} | TRAIN_OPTIONS,
}


def test_each_command_takes_only_the_options_it_reads(tmp_path, dataset_file, capsys):
    # every command once took the same 14 shared options, 79 in all: classify
    # --lr 0.5 exited 0 and wrote a config hash of its own into accuracy.csv.
    # --force is gone too: the caches' keys decide what is fresh
    assert set(subparsers()) == set(OPTION_SETS)
    assert {command: options(command) for command in OPTION_SETS} == OPTION_SETS
    assert sum(map(len, OPTION_SETS.values())) == 45
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--dataset", dataset_file, "--out", str(out), "--force"] + fast("embed"))
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --force" in capsys.readouterr().err
    assert not out.exists()
    emb = tmp_path / "emb.csv"
    emb.write_text("graph_id,0\n" + "".join(f"{i},{float(i)!r}\n" for i in range(6)))
    argv = ["classify", "--dataset", dataset_file, "--out", str(out), "--embeddings", str(emb),
            "--folds", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--lr", "0.5"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --lr 0.5" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == EXIT_OK


def test_every_command_reads_a_tu_directory(tmp_path):
    # a directory is read as a TU dataset and a file as JSON: one labeled
    # corpus saved both ways gives the same bytes in every file that encode,
    # embed, classify, cluster and attention write, embeddings.csv among them
    graphs = [random_graph(6, 0.5, s) for s in range(6)]
    graphs = [Graph(6, g.edges, node_labels=[(u + s) % 3 for u in range(6)],
                    edge_labels=[(k + s) % 2 for k in range(g.edge_count)])
              for s, g in enumerate(graphs)]
    ds = GraphDataset(graphs, [0, 1] * 3)
    save_tu_dataset(ds, tmp_path / "tu")
    save_dataset_json(ds, tmp_path / "ds.json")
    written = []
    for path in (tmp_path / "tu", tmp_path / "ds.json"):
        out = tmp_path / f"out-{path.name}"
        base = ["--dataset", str(path), "--out", str(out)]
        emb = ["--embeddings", str(out / "embeddings.csv")]
        for argv in (["encode"] + base + fast("encode"), ["embed"] + base + fast("embed"),
                     ["classify"] + base + emb + ["--folds", "3"],
                     ["cluster"] + base + emb + ["--clusters", "2"],
                     ["attention"] + base + fast("attention", "--source-index", "0",
                                                 "--target-index", "3")):
            assert main(argv) == EXIT_OK
        written.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                        if p.is_file()})
    assert len(written[0]) == 6 + 36 + 9  # encoders, cells, 5 summaries, 4 CSVs
    assert written[0] == written[1]


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
    base = ["--dataset", str(path), "--out", out]
    assert main(["encode"] + base + fast("encode")) == EXIT_OK
    assert main(["embed"] + base + fast("embed")) == EXIT_OK
    assert main(["attention", "--source-index", "0", "--target-index", "1"] + base
                + fast("attention")) == EXIT_OK
    with open(os.path.join(out, "embed_summary.json")) as f:
        assert json.load(f)["cell_errors"] == {}


def test_encode_retrains_checkpoint_of_changed_graph(tmp_path):
    path = tmp_path / "labeled.json"
    out = str(tmp_path / "out")
    args = ["encode", "--dataset", str(path), "--out", out] + fast("encode")
    _labeled_dataset(path, [0, 1, 0, 1])
    assert main(args) == EXIT_OK
    _labeled_dataset(path, [1, 1, 0, 0])  # graph 0 changes, graphs 1-2 do not
    assert main(args) == EXIT_OK
    with open(os.path.join(out, "encode_summary.json")) as f:
        summary = json.load(f)
    assert summary["trained"] == 1 and summary["skipped"] == 2


def test_embed_rescores_the_cells_of_a_changed_graph(tmp_path):
    # after graph 1 changed from ring7 to star7, an embed into the same --out
    # retrained graph 1's encoder but reused its cells: row 1 read
    # 7.221, 11.361, -0.905 where a fresh --out gives 3.242, 8.859, -2.628
    path = tmp_path / "ds.json"

    def embed(graphs, out):
        save_dataset_json(GraphDataset(graphs, [0, 1, 0]), path)
        assert main(["embed", "--dataset", str(path), "--out", str(tmp_path / out)]
                    + fast("embed", "--embed-dim", "8")) == EXIT_OK
        return (tmp_path / out / "embeddings.csv").read_bytes()

    embed([make_ring(6), make_ring(7), make_ring(8)], "shared")
    changed = [make_ring(6), make_star(7), make_ring(8)]
    assert embed(changed, "shared") == embed(changed, "fresh")


def test_embed_rescores_the_column_of_a_rewritten_checkpoint(tmp_path, dataset_file):
    # a checkpoint rewritten with one param changed (and a valid checksum)
    # loads as another encoder of the same graph; its cells were keyed by the
    # graph, so a warm embed kept the column scored with the old encoder
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    argv = lambda o: ["embed", "--dataset", dataset_file, "--out", str(o)] + fast("embed")
    assert main(argv(out)) == EXIT_OK
    cfg = build_config(build_parser().parse_args(argv(out)))
    ckpt = out / f"encoder_{cfg.encoder_hash()}_g2.json"
    enc = load_encoder(ckpt)
    enc.params["output.bias"] += 0.5
    save_encoder(enc, cfg, ckpt)
    fresh.mkdir()
    shutil.copy(ckpt, fresh / ckpt.name)
    stat = lambda: {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in (out / "cells").iterdir()}
    before = stat()
    assert main(argv(out)) == EXIT_OK
    after = stat()
    assert {name for name in before if after[name] != before[name]} == {
        name for name in before if name.endswith("_s2.json")}
    assert main(argv(fresh)) == EXIT_OK
    files = lambda o: {p.relative_to(o): p.read_bytes() for p in o.rglob("*") if p.is_file()}
    assert len(files(out)) == 6 + 36 + 2
    assert files(out) == files(fresh)


def test_embed_retrains_a_checkpoint_with_a_transposed_shape(tmp_path, dataset_file):
    # the checksum covers the values, not the shapes: a checkpoint whose
    # embedding shape was transposed, values and checksum untouched, loaded,
    # and embed exited 2 at the encoder's first forward
    out = tmp_path / "out"
    argv = ["embed", "--dataset", dataset_file, "--out", str(out)] + fast("embed")
    assert main(argv) == EXIT_OK
    cfg = build_config(build_parser().parse_args(argv))
    ckpt = out / f"encoder_{cfg.encoder_hash()}_g1.json"
    clean, table = ckpt.read_bytes(), (out / "embeddings.csv").read_bytes()
    damaged = json.loads(clean)
    assert damaged["shapes"]["embedding"] == [5, 4]
    damaged["shapes"]["embedding"] = [4, 5]
    ckpt.write_text(json.dumps(damaged))
    assert main(argv) == EXIT_OK
    assert ckpt.read_bytes() == clean
    assert (out / "embeddings.csv").read_bytes() == table


def test_embed_rescores_cells_of_an_older_cell_format(tmp_path, dataset_file):
    # cell records of format 1 (float64 attention fits) under the keys this
    # run reads: each is scored again and rewritten, none of their values
    # reaches the table
    out = tmp_path / "out"
    args = ["embed", "--dataset", dataset_file, "--out", str(out)] + fast("embed")
    assert main(args) == EXIT_OK
    fresh = (out / "embeddings.csv").read_bytes()
    cells = sorted((out / "cells").iterdir())
    records = {p: json.loads(p.read_text()) for p in cells}
    assert len(cells) == 36
    assert all(r["digest"].startswith(f"{CELL_FORMAT}:") for r in records.values())
    for p, r in records.items():
        p.write_text(json.dumps(dict(r, raw=r["raw"] + 1.0, digest="1" + r["digest"][1:])))
    assert main(args) == EXIT_OK
    assert (out / "embeddings.csv").read_bytes() == fresh
    assert {p: json.loads(p.read_text()) for p in cells} == records


def test_embed_ignores_the_order_of_json_edges(tmp_path):
    # each graph's edges listed in reverse embed to the same bytes; JSON edge
    # labels once went to the edge of their sorted rank, so the reversed file
    # loaded other graphs
    graphs = [random_graph(6, 0.5, s) for s in range(3)]
    graphs = [Graph(6, g.edges, node_labels=[u % 2 for u in range(6)],
                    edge_labels=[(k * k) % 3 for k in range(g.edge_count)])
              for g in graphs]
    path = tmp_path / "sorted.json"
    save_dataset_json(GraphDataset(graphs, [0, 1, 0]), path)
    d = json.loads(path.read_text())
    for gd in d["graphs"]:
        gd["edges"].reverse()
    (tmp_path / "reversed.json").write_text(json.dumps(d))
    tables = []
    for name in ("sorted", "reversed"):
        out = tmp_path / f"out-{name}"
        assert main(["embed", "--dataset", str(tmp_path / f"{name}.json"), "--out", str(out)]
                    + fast("embed")) == EXIT_OK
        tables.append((out / "embeddings.csv").read_bytes())
    assert tables[0] == tables[1]


def _dataset_with(tmp_path, graph):
    """A JSON dataset of a clean graph 0 and the given graph 1."""
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"graphs": [{"nodes": 2, "edges": [[0, 1]]}, graph],
                                "classes": [0, 1]}))
    return path


def _encode_error(tmp_path, capsys, graph):
    """(exit code, stderr) of an encode run on _dataset_with(graph)."""
    path = _dataset_with(tmp_path, graph)
    code = main(["encode", "--dataset", str(path), "--out", str(tmp_path / "out")] + fast("encode"))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("graph", [{"nodes": 2.5, "edges": [[2, 0]]},
                                   {"nodes": 2, "edges": [[0, 1]], "node_labels": [0, 1.9]}],
                         ids=["node-count", "node-label"])
def test_json_non_integer_is_usage_error(tmp_path, capsys, graph):
    # a node count of 2.5 once built a 2-node graph with an edge to node 2,
    # and encode died with an IndexError traceback; a label 1.9 became 1
    code, err = _encode_error(tmp_path, capsys, graph)
    assert code == EXIT_USAGE and "must be an integer" in err


def test_json_edge_with_two_labels_is_usage_error(tmp_path, capsys):
    # the last label once won, where the TU loader raised
    code, err = _encode_error(tmp_path, capsys, {"nodes": 3, "edges": [[0, 1], [1, 2]],
                                                 "edge_labels": [[0, 1, 0], [1, 2, 1], [1, 0, 2]]})
    assert code == EXIT_USAGE and "conflicting labels for edge (1, 0)" in err


@pytest.mark.parametrize("graph, message", [
    ({"nodes": 2, "edges": [[1, 1]]}, "self-loop on node 1"),
    ({"nodes": 2, "edges": [[0, 1]], "edge_labels": [[0, 1]]},
     "not enough values to unpack (expected 3, got 2)"),
    ({"nodes": 2, "edges": [], "node_labels": 5}, "'int' object is not iterable"),
    ({"nodes": 3, "edges": [[0, 1]], "edge_labels": [[0, 1, 0], [0, 2, 5], [7, 9, 1]]},
     "edge_labels entry [0, 2, 5] is not an edge"),
], ids=["self-loop", "short-label-entry", "labels-not-a-list", "label-of-no-edge"])
def test_json_graph_error_names_file_and_graph(tmp_path, capsys, graph, message):
    # these once read "error: self-loop on node 1", "error: not enough values
    # to unpack ..." and "error: ...: dataset JSON missing required field:
    # 'int' object is not iterable"; the stray label entries were dropped
    code, err = _encode_error(tmp_path, capsys, graph)
    assert (code, err) == (EXIT_USAGE, f"error: {tmp_path / 'ds.json'}: graph 1: {message}\n")


def test_encode_ignores_stale_temp_path(tmp_path, dataset_file):
    # a leftover at the checkpoint's old fixed temp name must not block a write
    out = tmp_path / "out"
    args = ["encode", "--dataset", dataset_file, "--out", str(out)] + fast("encode")
    assert main(args) == EXIT_OK
    ckpt = next(p for p in sorted(os.listdir(out)) if p.startswith("encoder_"))
    os.remove(out / ckpt)
    os.mkdir(out / (ckpt + ".tmp"))
    assert main(args) == EXIT_OK
    assert os.path.isfile(out / ckpt)
    assert not [p for p in os.listdir(out) if p.endswith(".tmp") and p != ckpt + ".tmp"]


def test_empty_source_graph_is_named_before_any_training(tmp_path, capsys):
    # graph 1 has no nodes: encode once trained and saved g0, g2 and g3 before
    # it failed with an error that named no graph
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"graphs": [{"nodes": 3, "edges": [[0, 1], [1, 2]]},
                                           {"nodes": 0, "edges": []},
                                           {"nodes": 3, "edges": [[0, 2]]},
                                           {"nodes": 4, "edges": [[0, 1], [2, 3]]}],
                                "classes": [0, 1, 0, 1]}))
    out = tmp_path / "out"
    assert main(["encode", "--dataset", str(path), "--out", str(out)]
                + fast("encode")) == EXIT_USAGE
    assert capsys.readouterr().err == "error: source graph 1 is empty: an encoder needs a node\n"
    assert not out.exists()


def test_symmetric_needs_every_source(tmp_path, dataset_file):
    # rejected before any encoder is trained or any cell is written
    out = tmp_path / "out"
    assert main(["embed", "--dataset", dataset_file, "--out", str(out),
                 "--sources", "sample:0.5:7", "--symmetric"] + fast("embed")) == EXIT_USAGE
    assert not out.exists()


def test_cluster_raw_rows(tmp_path, dataset_file):
    out = tmp_path / "out"
    assert main(["embed", "--dataset", dataset_file, "--out", str(out)] + fast("embed")) == EXIT_OK
    emb = str(out / "embeddings.csv")
    assert main(["cluster", "--dataset", dataset_file, "--out", str(out),
                 "--embeddings", emb, "--raw-rows"]) == EXIT_OK
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
                  "skipped_folds", "folds", "embeddings_comments"}),
    "cluster": (["--embeddings", "EMB", "--clusters", "2"], {"distances.csv", "cluster_summary.json"},
                {"merges", "leaf_ids", "assignments", "purity", "embeddings_comments"}),
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
    assert main([command, "--dataset", dataset_file, "--out", str(out)]
                + fast(command) + args) == EXIT_OK
    written = {re.sub(r"_[0-9a-f]{12}_", "_H_", os.path.relpath(os.path.join(root, name), out))
               for root, _, names in os.walk(out) for name in names}
    assert written == files
    with open(out / f"{command}_summary.json") as f:
        assert set(json.load(f)) == _COMMON_KEYS | keys
