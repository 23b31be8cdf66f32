"""End-to-end and per-layer benchmark of the graphdiv pipeline.

    python3 bench/run.py --workload tu-labeled --seed 1 --seconds 40 --trace 0

Writes the workload's corpus, shuffled by --seed, in TU format, then repeats
the library pipeline on it (load, encoder training, cold and warm
embed_all, classify_cv, clustering) in whole rounds until the next round
would end after --seconds. With --trace 0 it reports the end-to-end
metrics, medians over rounds, measured with nothing wrapped and workers =
nproc. With --trace 1 it reports the per-layer metrics from rounds run with
workers = 1 under bench/spans.py, and writes its spans to bench/out/. Every
run checks the pipeline's outputs (see check_round) and prints, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"},
counting scored cells.
See bench/README.md for the workloads and what each metric should move.
"""

import os

# one BLAS thread per process, before numpy loads; pool workers inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isfile(os.path.join(SRC, "graphdiv", "__init__.py")):
    sys.exit(f"error: graphdiv sources not found in {SRC}; run from a checkout of the repository")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from graphdiv import attention, divergence, evaluation, tu  # noqa: E402
from graphdiv.encoder import TrainConfig  # noqa: E402

import corpora  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402

LABELED_SIZES = (10, 12, 15, 17, 19, 21, 22, 28)   # per class; mean 18
ACCURACY_MARGIN = 0.2      # hinge accuracy must beat the majority-class rate by this
PURITY_MIN = 0.8           # acceptance criterion 4
CHECKED_CELLS = 3          # cells refitted alone per run
REPEAT_S = 0.5


@dataclass(frozen=True)
class Workload:
    corpus: object         # () -> (GraphDataset, ids 0..m-1)
    scoring_epochs: int
    restarts: int
    sources: int           # sampled source count; 0 = every graph is a source
    folds: int
    clusters: int
    check_purity: bool = False


# The corpora are fixed and the seed only shuffles them (corpora.shuffled):
# every cell, and so every quality figure, is the same for every seed, and
# the work per run is too. Fresh draws of these corpora move class separation
# by 15% (tu-labeled) and by 2x (families), and the hinge accuracy on three
# sampled sources of 240 graphs between 0.57 and 0.88, which no bound or
# accuracy margin could absorb.
CORPUS_SEED = 0
WORKLOADS = {
    "tu-labeled": Workload(lambda: corpora.labeled_corpus(LABELED_SIZES, CORPUS_SEED),
                           scoring_epochs=60, restarts=2, sources=0, folds=4, clusters=2),
    "families": Workload(lambda: corpora.families_corpus(3),
                         scoring_epochs=60, restarts=2, sources=0, folds=3, clusters=6,
                         check_purity=True),
    "sampled-corpus": Workload(lambda: corpora.labeled_corpus(LABELED_SIZES * 12, CORPUS_SEED),
                               scoring_epochs=30, restarts=1, sources=5, folds=10, clusters=2),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
LABEL_MATRICES = ("graphs.node_label_onehot", "graphs.edge_attr_matrix",
                  "graphs.neighborhood_attr_matrix")


def nproc():
    return len(os.sched_getaffinity(0))


def child_cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cell_files(cell_dir):
    """name -> (inode, mtime, size): a cell written again shows as changed."""
    out = {}
    for entry in os.scandir(cell_dir):
        st = entry.stat()
        out[entry.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


class Run:
    """One workload on one seed: the corpus on disk, the fixed settings, and
    the outputs of the first round, which later rounds must reproduce."""

    def __init__(self, name, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.w = WORKLOADS[name]
        self.dataset, self.ids = corpora.shuffled(self.w.corpus(), seed)
        self.tu_dir = os.path.join(workdir, "tu")
        tu.save_tu_dataset(self.dataset, self.tu_dir, name="BENCH")
        self.cfg = TrainConfig(rng_seed=0, learning_rate=5e-2,
                               scoring_epochs=self.w.scoring_epochs)
        # sources and folds are drawn over graph ids, so they do not move
        # with the shuffle
        m = len(self.dataset)
        position = {gid: p for p, gid in enumerate(self.ids)}
        if self.w.sources:
            self.source_idx = [position[g] for g in
                               evaluation.sample_sources(m, self.w.sources / m, CORPUS_SEED)]
        else:
            self.source_idx = list(range(m))
        classes_by_id = [c for _, c in sorted(zip(self.ids, self.dataset.graph_classes))]
        plan = evaluation.make_fold_plan(classes_by_id, fold_count=self.w.folds, rng_seed=0)
        self.plan = evaluation.FoldPlan(plan.fold_count, plan.assignments[self.ids],
                                        plan.stratified, plan.rng_seed)
        self.cells = m * len(self.source_idx)
        self.first = None
        self.faults = []
        self.quality = None

    def pipeline(self, workers, repeat=False, cold_only=False):
        """One pass over the pipeline; returns (stage seconds, outputs).

        With repeat, each stage after the cold embed is timed as the mean of
        back-to-back calls (see timed); a repeated warm embed_all still
        reuses every cell.
        """
        cell_dir = tempfile.mkdtemp(prefix="cells-", dir=self.workdir)
        try:
            source_ids = [self.ids[i] for i in self.source_idx]
            t0 = time.perf_counter()
            ds = tu.load_tu_dataset(self.tu_dir)
            sources = [ds.graphs[i] for i in self.source_idx]
            encoders = divergence.train_source_encoders(sources, self.cfg,
                                                        source_ids=source_ids, workers=workers)
            t1 = time.perf_counter()
            cpu0 = child_cpu_seconds()
            t2 = time.perf_counter()
            embed = lambda: divergence.embed_all(
                sources, ds.graphs, self.cfg, source_ids=source_ids, target_ids=self.ids,
                workers=workers, cell_dir=cell_dir, encoders=encoders, restarts=self.w.restarts)
            cold = embed()
            t3 = time.perf_counter()
            times = {"setup_s": t1 - t0, "cold_s": t3 - t2,
                     "core_utilisation": (child_cpu_seconds() - cpu0) / ((t3 - t2) * workers)}
            out = {"dataset": ds, "encoders": encoders, "cold": cold}
            if cold_only:
                return times, out
            before = cell_files(cell_dir)
            times["resume_s"], warm = timed(embed, repeat)
            after = cell_files(cell_dir)
        finally:
            shutil.rmtree(cell_dir)
        times["classify_s"], cv = timed(
            lambda: evaluation.classify_cv(cold, ds.graph_classes, self.plan), repeat)

        def cluster():
            dist = divergence.distance_matrix(divergence.unit_rows(cold.values))
            dendrogram = evaluation.hier_cluster(dist)
            return dist, dendrogram, evaluation.cut_clusters(dendrogram, self.w.clusters)

        times["cluster_s"], (dist, dendrogram, assignments) = timed(cluster, repeat)
        times["pipeline_s"] = times["setup_s"] + times["cold_s"] + times["classify_s"] + times["cluster_s"]
        out.update(warm=warm, cv=cv, dist=dist, dendrogram=dendrogram, assignments=assignments,
                   written_by_cold=len(before),
                   written_by_warm=sum(1 for k, v in after.items() if before.get(k) != v))
        return times, out

    def failed_cells(self, table):
        bad = ~np.isfinite(table.values)
        for ti, si in table.errors:
            bad[ti, si] = True
        return bad

    def check_round(self, out):
        """Check one round's outputs; later rounds must equal the first."""
        if self.first is not None:
            same = (np.array_equal(out["cold"].values, self.first["cold"].values, equal_nan=True)
                    and np.array_equal(out["assignments"], self.first["assignments"]))
            if not same:
                self.faults.append("a later round's table or clusters differ from the first round's")
            return
        self.first = out
        fault = self.faults.append
        ds, cold, warm = out["dataset"], out["cold"], out["warm"]
        gen = self.dataset

        if (ds.graphs != gen.graphs or list(ds.graph_classes) != list(gen.graph_classes)
                or (ds.node_vocab and ds.node_vocab.size) != (gen.node_vocab and gen.node_vocab.size)
                or (ds.edge_vocab and ds.edge_vocab.size) != (gen.edge_vocab and gen.edge_vocab.size)):
            fault("the loaded TU dataset differs from the generated corpus")

        bad = self.failed_cells(cold)
        ok = ~bad
        raw = cold.values + cold.self_losses[None, :]
        if not np.all(np.isfinite(cold.self_losses)) or not np.all(raw[ok] >= 0):
            fault("a raw divergence (value + source self-loss) is negative or not finite")

        rng = np.random.default_rng(self.seed)
        picks = rng.choice(self.cells, size=min(CHECKED_CELLS, self.cells), replace=False)
        for flat in picks:
            ti, si = divmod(int(flat), len(self.source_idx))
            if bad[ti, si]:
                continue
            enc, target = out["encoders"][si], ds.graphs[ti]
            ae = attention.train_attention(enc, target, self.cfg,
                                           target_graph_id=self.ids[ti], restarts=self.w.restarts)
            logits = refs.encoder_logits(enc.embedding,
                                         [(l.weight, l.bias) for l in enc.hidden],
                                         (enc.output.weight, enc.output.bias))
            own = refs.self_log_loss(logits, enc.graph.edges)
            value = refs.augmented_log_loss(ae.attention.forward, ae.attention.reverse,
                                            logits, target.edges) - own
            if own != cold.self_losses[si] or value != cold.values[ti, si]:
                fault(f"cell ({ti}, {si}) refitted alone gives {value!r}, "
                      f"the table holds {cold.values[ti, si]!r}")

        if (out["written_by_warm"] or out["written_by_cold"] != self.cells
                or not np.array_equal(warm.values, cold.values, equal_nan=True)
                or not np.array_equal(warm.self_losses, cold.self_losses)
                or warm.errors != cold.errors):
            fault("the warm embed_all did not reuse every cell bit for bit")

        x = divergence.unit_rows(cold.values)
        if not np.allclose(out["dist"], refs.pairwise_sq_dist(x), rtol=0, atol=1e-9):
            fault("distance_matrix disagrees with the broadcast reference")
        linkage = refs.average_linkage_fault(out["dist"], out["dendrogram"].merges)
        if linkage:
            fault(f"hier_cluster: {linkage}")

        classes = np.asarray(gen.graph_classes)
        majority = np.bincount(classes).max() / len(classes)
        score = evaluation.purity(out["assignments"], classes)
        if not out["cv"].mean >= majority + ACCURACY_MARGIN:
            fault(f"hinge accuracy {out['cv'].mean:.3f} does not beat the majority rate "
                  f"{majority:.3f} by {ACCURACY_MARGIN}")
        if self.w.check_purity and score < PURITY_MIN:
            fault(f"purity {score:.3f} < {PURITY_MIN} at {self.w.clusters} clusters")
        out["class_separation"] = refs.class_separation(x, classes)
        self.quality = {"hinge_accuracy": out["cv"].mean, "knn_accuracy": out["cv"].knn_mean,
                        "majority_rate": majority, "purity": score}


def timed(fn, repeat):
    """(seconds, result) of fn. With repeat, fn runs back to back until the
    calls add up to REPEAT_S and the seconds are their mean: a stage of a few
    milliseconds, timed once, mostly measures how busy the machine was in
    that instant."""
    total, calls = 0.0, 0
    while True:
        t = time.perf_counter()
        result = fn()
        total += time.perf_counter() - t
        calls += 1
        if not repeat or total >= REPEAT_S:
            return total / calls, result


def rounds_until(deadline_s, start, run_round):
    """Run whole rounds while the next one, as long as the last, ends in time."""
    while True:
        t = time.perf_counter()
        run_round()
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > deadline_s:
            return


def end_to_end(run, seconds):
    rows = []
    attempted = failed = 0
    workers = nproc()

    def one_round():
        nonlocal attempted, failed
        times, out = run.pipeline(workers, repeat=True)
        attempted += run.cells
        failed += int(run.failed_cells(out["cold"]).sum())
        run.check_round(out)
        times["cells_per_s"] = run.cells / times["cold_s"]
        rows.append(times)

    rounds_until(seconds, time.perf_counter(), one_round)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {k: statistics.median(r[k] for r in rows) for k in END_TO_END_UNITS
               if k not in ("peak_rss_mb", "class_separation")}
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    metrics["class_separation"] = run.first["class_separation"]
    return metrics, END_TO_END_UNITS, attempted, failed, {"rounds": rows}


def per_layer(run, seconds):
    start = time.perf_counter()
    # core utilisation needs the pool, so it comes from one untraced cold embed
    times, out = run.pipeline(nproc(), cold_only=True)
    utilisation = times["core_utilisation"]
    tracer = spans.Tracer()
    rows = []
    attempted, failed = run.cells, int(run.failed_cells(out["cold"]).sum())

    def one_round():
        nonlocal attempted, failed
        tracer.reset_totals(len(rows))
        with tracer:
            _, out = run.pipeline(1)
        attempted += run.cells
        failed += int(run.failed_cells(out["cold"]).sum())
        run.check_round(out)
        t = tracer
        epochs = t.calls("attention.attention_loss_and_grads")
        encoders = t.calls("encoder.train_encoder")
        rows.append({
            "tu.load_s": t.seconds("tu.load_tu_dataset"),
            "graphs.adjacency_calls": t.calls("graphs.Graph.adjacency_matrix"),
            "graphs.adjacency_s": t.seconds("graphs.Graph.adjacency_matrix"),
            "graphs.label_matrix_s": sum(t.seconds(n) for n in LABEL_MATRICES),
            "nn.adam_step_calls": t.calls("nn.adam_step"),
            "nn.adam_step_s": t.seconds("nn.adam_step"),
            "encoder.train_s": t.seconds("encoder.train_encoder"),
            "encoder.epoch_us": 1e6 * t.seconds("encoder.train_encoder")
                                / max(1, encoders * run.cfg.encoding_epochs),
            "attention.fits": t.calls("attention.train_attention"),
            "attention.epochs": epochs,
            "attention.epoch_us": 1e6 * t.seconds("attention.train_attention") / max(1, epochs),
            "attention.loss_and_grads_s": t.self_seconds("attention.attention_loss_and_grads"),
            "attention.fit_self_s": t.self_seconds("attention.train_attention"),
            "divergence.cells_computed": out["written_by_cold"] + out["written_by_warm"],
            "divergence.cells_reused": out["written_by_cold"] - out["written_by_warm"],
            "divergence.raw_divergence_s": t.seconds("divergence.raw_divergence"),
            "divergence.embed_self_s": t.self_seconds("divergence.embed_all"),
            "divergence.distance_matrix_s": t.seconds("divergence.distance_matrix"),
            "divergence.core_utilisation": utilisation,
            "evaluation.classify_cv_s": t.seconds("evaluation.classify_cv"),
            "evaluation.hinge_fit_s": t.seconds("evaluation.HingeClassifier.fit"),
            "evaluation.hier_cluster_s": t.seconds("evaluation.hier_cluster"),
        })

    rounds_until(seconds, start, one_round)
    metrics = {k: statistics.median(r[k] for r in rows) for k in PER_LAYER_UNITS}
    return metrics, PER_LAYER_UNITS, attempted, failed, {"rounds": rows, **tracer.dump()}


def environment():
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": nproc(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        run = Run(args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, units, attempted, failed, detail = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir)

    env = environment()
    for fault in run.faults:
        print(f"FAULT: {fault}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    result = {"correct": not run.faults, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "faults": run.faults,
              "cells_per_round": run.cells, "quality": run.quality, **result, **detail}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
