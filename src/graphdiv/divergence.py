"""Divergence scores, the pairwise embedding table, and distance matrices.

Row j of the table is the embedding of target graph j: its normalized
divergence against every source graph. Cells are independent jobs, each
seeded from (source id, target id, base seed). Pending cells are grouped by
(source size, target size), where a size is a node count with the kinds of
labels carried, and each group is fitted as stacked problems, one pool task
per stack. One task builder (_tasks) shapes the pool work for both stages:
it cuts a group into near-equal stacks of at most ceil(items / workers)
items and MAX_STACK_ELEMENTS elements, and submits the heaviest first. A
cell's bits do not depend on its stack, so results are the same at any worker
count or resume point; cells resume from records keyed by encoder and target digest.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

import numpy as np

from .attention import augmented_probs, stack_key, train_attentions
from .encoder import fit_encoders, positive_log_loss
from .graphs import atomic_write, edge_pair_sum
from .nn import raise_faults


@dataclass
class DivergenceTable:
    source_ids: list
    target_ids: list
    values: np.ndarray          # M x N, row j = embedding of target j
    self_losses: np.ndarray     # N, positive self log-loss of each source encoder
    errors: dict = field(default_factory=dict)  # (target_idx, source_idx) -> message


def raw_divergence(fitted):
    """Positive-edge log-loss of each target under its augmented encoder, for
    fitted cells of one shape scored in one batched forward pass.

    -sum log p(u, v) over both orientations of every target edge; nonnegative
    because the predictions are probabilities. A cell scores as it would alone.
    """
    forward = np.stack([ae.attention.forward for ae in fitted])
    reverse = np.stack([ae.attention.reverse for ae in fitted])
    *_, probs = augmented_probs(forward, reverse, np.stack([ae.source_probs for ae in fitted]))
    p = np.maximum(probs, 1e-300)
    # 0.0 - s, not -s, so a zero sum (an edgeless target) scores +0.0
    return [0.0 - edge_pair_sum(ae.target_graph, np.log, q) for ae, q in zip(fitted, p)]


def distance_matrix(embeddings):
    """Pairwise squared Euclidean distances between embedding rows."""
    x = np.asarray(embeddings, dtype=float)
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    d = np.maximum(d, 0.0)
    # clear float residue so exact symmetry/zero-diagonal checks hold downstream
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def unit_rows(embeddings):
    """Scale each embedding row to unit norm (zero rows pass through).

    Raw divergences grow with the target graph's size, so distances between
    raw rows mostly measure size; unit rows compare the divergence profile
    shape instead, which is what family clustering needs.
    """
    x = np.asarray(embeddings, dtype=float)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 0, norms, 1.0)


def _score_chunk(jobs, cfg, restarts):
    """Score a stack of (ti, si, source encoder, target, target id) jobs,
    whose sources share a node count and label kinds and whose targets do
    too, as one stacked fit. A cell that goes non-finite faults alone; the
    faulted cells are fitted again as one stack under target ids
    '<tid>#retry' (fresh seeds, each cell the bits of its lone retry), and a
    cell that faults twice is recorded as failed with both faults; the rest
    are scored in one raw_divergence call. Other errors are a caller's
    mistake and raise."""
    tis, sis, encoders, targets, target_ids = zip(*jobs)
    fitted = train_attentions(encoders, targets, cfg, target_ids, restarts)
    redo = [c for c, ae in enumerate(fitted) if ae.fault]
    retried = redo and train_attentions([encoders[c] for c in redo], [targets[c] for c in redo],
                                        cfg, [f"{target_ids[c]}#retry" for c in redo], restarts)
    for c, ae in zip(redo, retried):
        ae.fault = ae.fault and f"{fitted[c].fault}; retry: {ae.fault}"
        fitted[c] = ae
    clean = [ae for ae in fitted if not ae.fault]
    raws = iter(raw_divergence(clean) if clean else [])
    return [(ti, si, float("nan") if ae.fault else next(raws), ae.fault)
            for ti, si, ae in zip(tis, sis, fitted)]


# Largest stack a pool task builds, in elements of one stacked array: slices x
# n_S x n_T for attention fits, slices x n^2 for encoders. Per-slice fit time
# is flat from about 10k elements up to this size and grows past it at
# n = 49 (the curve is in CHANGES.md); it also bounds a stack's memory.
MAX_STACK_ELEMENTS = 50_000


def _tasks(groups, weight, workers):
    """Pool tasks from groups of items that can share a stack, heaviest first.

    weight(item) is the elements one item adds to a stack. Each group is cut
    into near-equal pieces, as few as keep every piece within
    ceil(items / workers) items and MAX_STACK_ELEMENTS elements (one item
    may exceed the latter alone). An item's bits do not depend on its stack,
    so the split is exact.
    """
    cap = -(-sum(len(items) for items in groups) // workers)
    pieces = []
    for items in groups:
        n, w = len(items), weight(items[0])
        k = min(n, max(-(-n // cap), -(-n * w // MAX_STACK_ELEMENTS)))
        pieces += [items[i * n // k:(i + 1) * n // k] for i in range(k)]
    return sorted(pieces, key=lambda piece: -len(piece) * weight(piece[0]))


def _completed(fn, tasks, workers):
    """Yield (index, fn(*task)) for each task as soon as it finishes, on a
    pool of min(workers, tasks) processes (a fork pool starts them all at
    once) when both exceed 1; on an error, unstarted tasks are cancelled."""
    if workers <= 1 or len(tasks) <= 1:
        yield from enumerate(fn(*task) for task in tasks)
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as ex:
        futures = {ex.submit(fn, *task): i for i, task in enumerate(tasks)}
        try:
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:
            for future in futures:
                future.cancel()


# bytes asked of each os.read of a cell file. A cell file is about 230 bytes,
# so one read takes it whole; a shorter read ends the file (one cut short is
# scored again). Every read allocates the whole request, so it stays small.
CELL_READ_BYTES = 4096
# cell record version, the first part of a record's digest; bumped by every
# change that moves a cell's bits (test_divergence pins them), so no run
# serves cells of other numerics. That pin trains its encoders, so a change to
# encoder training bumps CHECKPOINT_VERSION too. 2: attention fits in float32.
# 3: the fit's S holds no subnormal. 4: the fit's softmax shifts each slice
# once and sums by matmul, and the label penalties are one term per side
CELL_FORMAT = 4


def _read_cell(path):
    """The cell record at path, read through one raw descriptor until a read
    comes back short, decoded as UTF-8 JSON; raises OSError or ValueError."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, CELL_READ_BYTES)]
        while len(chunks[-1]) == CELL_READ_BYTES:
            chunks.append(os.read(fd, CELL_READ_BYTES))
    finally:
        os.close(fd)
    return json.loads(b"".join(chunks).decode())


def _checked_ids(workers, restarts, *sides):
    """The ids of each (side, ids, graphs) of sides, 0..len(graphs) - 1 where
    ids is None, once workers and restarts are at least 1 and there is one id
    per graph; raises ValueError otherwise, before any work."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    checked = []
    for side, ids, graphs in sides:
        ids = list(range(len(graphs))) if ids is None else ids
        if len(ids) != len(graphs):
            raise ValueError(f"{len(ids)} {side} ids for {len(graphs)} {side}s")
        checked.append(ids)
    return checked


def train_source_encoders(sources, cfg, source_ids=None, workers=1, save=None):
    """Stage 1: one encoder per source graph, returned in input order.

    Sources with the same node count train as one stacked fit
    (encoder.fit_encoders), split by _tasks into pool tasks of at most
    ceil(sources / workers) graphs, heaviest (about G n^2) first. A slice's
    bits do not depend on its stack or on the order, so the encoders are the
    same at any worker count. save(encoder), if given, is called for each
    encoder whose slice stayed finite as soon as its task finishes; after
    every task, one nn.TrainingFault names every diverged source id. Ids of
    the wrong length, an empty source or workers < 1 raise ValueError before
    any fit.
    """
    [source_ids] = _checked_ids(workers, 1, ("source", source_ids, sources))
    empty = [sid for sid, graph in zip(source_ids, sources) if graph.node_count == 0]
    if empty:
        raise ValueError(f"source graph {empty[0]} is empty: an encoder needs a node")
    groups = {}
    for i, graph in enumerate(sources):
        groups.setdefault(graph.node_count, []).append(i)
    pieces = _tasks(list(groups.values()), lambda i: sources[i].node_count ** 2, workers)
    tasks = [([sources[i] for i in idx], cfg, [source_ids[i] for i in idx]) for idx in pieces]
    encoders = [None] * len(sources)
    for k, encs in _completed(fit_encoders, tasks, workers):
        for i, enc in zip(pieces[k], encs):
            encoders[i] = enc
            if save is not None and not enc.fault:
                save(enc)
    return raise_faults(encoders)


def embed_all(sources, targets, cfg, *, source_ids=None, target_ids=None,
              workers=1, cell_dir=None, encoders=None, restarts=3):
    """Train N source encoders, then score all M x N pairs.

    Deterministic given ids and cfg.rng_seed; a failing cell is retried once
    and otherwise recorded in table.errors (value NaN) without aborting the
    rest. With cell_dir set, cells are persisted as each stacked task finishes
    and reused under the same CELL_FORMAT, source encoder and target digests.
    Each cell keeps the best of `restarts` attention fits (non-convex). Given
    `encoders`, encoders[i] must encode a graph of sources[i]'s digest; else ValueError.
    """
    if not sources or not targets:
        raise ValueError("sources and targets must be nonempty")
    source_ids, target_ids = _checked_ids(
        workers, restarts, ("source", source_ids, sources), ("target", target_ids, targets))
    for side, ids in (("source", source_ids), ("target", target_ids)):
        named = [f"{i}" for i in ids]  # as a cell file names them
        if len(set(named)) != len(named):
            repeated = sorted({i for i in named if named.count(i) > 1})
            raise ValueError(f"repeated {side} ids {repeated}: each names its own cell file")

    if encoders is None:
        encoders = train_source_encoders(sources, cfg, source_ids=source_ids, workers=workers)
    else:
        wrong = [sid for sid, e, g in zip(source_ids, encoders, sources)
                 if e.graph.digest != g.digest]
        if len(encoders) != len(sources) or wrong:
            raise ValueError(f"{len(encoders)} encoders for {len(sources)} sources, of another "
                             f"graph for sources {wrong}: need one per source, of its graph")
    self_losses = np.array(positive_log_loss(encoders))

    values = np.full((len(targets), len(sources)), np.nan)
    errors = {}

    done = set()
    if cell_dir is not None:
        os.makedirs(cell_dir, exist_ok=True)
        # path prefix shared by every cell of this config and restart count;
        # a cell's file is f"{prefix}_t{target id}_s{source id}.json"
        prefix = os.path.join(cell_dir, f"cell_{cfg.hash()}_r{restarts}")
        keys = [f"{CELL_FORMAT}:{encoder.digest}:" for encoder in encoders]
        for ti, (tid, target) in enumerate(zip(target_ids, targets)):
            for si, sid in enumerate(source_ids):
                try:
                    cell = _read_cell(f"{prefix}_t{tid}_s{sid}.json")
                    if cell["digest"] != keys[si] + target.digest:
                        continue  # another encoder's or graph's record: rescored below
                    values[ti, si] = cell["raw"] - self_losses[si]
                except (OSError, ValueError, KeyError, TypeError):
                    continue  # absent or unreadable: scored below, and the file (re)written
                if cell.get("error"):
                    errors[(ti, si)] = cell["error"]
                done.add((ti, si))

    # pending cells grouped by (source size, target size); a group trains as
    # stacks of at most ceil(pending / workers) cells and MAX_STACK_ELEMENTS
    # elements
    groups = {}
    for si, encoder in enumerate(encoders):
        for ti, target in enumerate(targets):
            if (ti, si) not in done:
                groups.setdefault((stack_key(encoder.graph), stack_key(target)), []).append(
                    (ti, si, encoder, target, target_ids[ti]))
    pieces = _tasks(list(groups.values()),
                    lambda job: restarts * job[2].node_count * job[3].node_count, workers)
    chunks = [(jobs, cfg, restarts) for jobs in pieces]

    for _, chunk_result in _completed(_score_chunk, chunks, workers):
        for ti, si, raw, err in chunk_result:
            # normalized: zero for a source on itself, and allowed to go negative
            values[ti, si] = raw - self_losses[si]
            if err is not None:
                errors[(ti, si)] = err
            if cell_dir is not None:
                atomic_write(f"{prefix}_t{target_ids[ti]}_s{source_ids[si]}.json", json.dumps(
                    {"source_id": source_ids[si], "target_id": target_ids[ti], "raw": raw,
                     "error": err, "digest": keys[si] + targets[ti].digest}))

    return DivergenceTable(list(source_ids), list(target_ids), values, self_losses, errors)


def symmetrize(table):
    """D(S,T) = D(T||S) + D(S||T); requires sources == targets."""
    if list(table.source_ids) != list(table.target_ids):
        raise ValueError("symmetric divergence needs sources == targets")
    sym = table.values + table.values.T
    return DivergenceTable(list(table.source_ids), list(table.target_ids), sym,
                           table.self_losses.copy(), dict(table.errors))


# --- CSV output --------------------------------------------------------------

def matrix_csv(corner, column_ids, row_ids, values):
    """Header `corner,<column ids>`, then `<row id>,<repr(float(v)) ...>` rows."""
    lines = [f"{corner}," + ",".join(str(c) for c in column_ids)]
    for rid, row in zip(row_ids, values):
        lines.append(f"{rid}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def table_to_csv(table):
    """Embeddings CSV: header of source ids, one row per target graph."""
    return matrix_csv("graph_id", table.source_ids, table.target_ids, table.values)


def table_from_csv(text):
    """The table of a table_to_csv text; raises ValueError if it is not one."""
    lines = [l for l in text.strip().splitlines() if l]
    if len(lines) < 2:
        raise ValueError("needs a header row and at least one data row")
    source_ids = lines[0].split(",")[1:]
    target_ids, rows = [], []
    for k, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != len(source_ids) + 1:
            raise ValueError(f"data row {k} has {len(parts) - 1} values, "
                             f"the header {len(source_ids)} sources")
        target_ids.append(parts[0])
        rows.append([float(x) for x in parts[1:]])
    values = np.array(rows)
    return DivergenceTable(source_ids, target_ids, values, np.full(len(source_ids), np.nan))
