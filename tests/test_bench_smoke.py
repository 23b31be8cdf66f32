"""One short round of the benchmark on each of its workloads, and one traced
round, whose per-epoch Adam count pins how the fits are stacked.

The benchmark imports the package's API and checks that a second round and
an independent refit reproduce the first round's outputs bit for bit; this
runs it on a copy of bench/ so that nothing lands in the repository's
bench/out/. The all-pairs workloads fit cells of several same-size sources
in one stack, so the benchmark's alone-refit check covers cross-source
stacks; sampled-corpus runs classify_cv over 10 folds in two stacked hinge
fits (training splits of two sizes) against the benchmark's accuracy check.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_round(tmp_path, workload, trace):
    """The result line of one benchmark round of `workload`, traced or not."""
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "0", "--trace", str(trace)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["tu-labeled", "families", "sampled-corpus"])
def test_bench_round_is_correct(tmp_path, workload):
    bench_round(tmp_path, workload, trace=0)


def test_traced_round_takes_one_adam_step_per_stacked_epoch(tmp_path):
    # tu-labeled at one worker: 8 encoder stacks (one per node count) x 300
    # epochs, and 64 cell stacks (one per source and target node count) x 60.
    # Each of the 16 encoder fits builds one adjacency, and each cell stack
    # builds one per distinct target (2) and each label matrix once per
    # distinct source and target (2 + 2), the neighbourhood one per label
    # kind. The tracer sees a builder only when it is called through the
    # module name it patches.
    metrics = bench_round(tmp_path, "tu-labeled", trace=1)["metrics"]
    assert metrics["nn.adam_step_calls"]["value"] == 8 * 300 + 64 * 60 == 6240
    assert metrics["graphs.adjacency_calls"]["value"] == 16 + 64 * 2 == 144
    assert metrics["graphs.label_matrix_s"]["value"] > 0
    with open(tmp_path / "bench" / "out" / "tu-labeled-seed0-trace1.json") as f:
        aggregates = json.load(f)["aggregates"]
    calls = {}
    for _, name, count, *_ in aggregates:
        calls[name] = calls.get(name, 0) + count
    assert [calls.get(f"graphs.{name}") for name in
            ("node_label_onehot", "edge_attr_matrix", "neighborhood_attr_matrix")] == [
        64 * 4, 64 * 4, 2 * 64 * 4]
