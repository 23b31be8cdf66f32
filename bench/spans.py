"""Spans around calls into graphdiv's public functions, recorded from outside.

The tracer replaces each wrapped function, wherever a graphdiv module holds
a reference to it, by a timing wrapper, and puts the originals back when it
is removed; the program's source is not touched. Calls made once per fit or
per cell are recorded as spans (name, parent span, start, end, self time).
Calls made once per training epoch are too many to keep one by one: they are
aggregated, per name, into the nearest recorded ancestor span. Self time is
a call's duration minus the time covered by its wrapped children.
"""

import importlib
import sys
import time

# (module, attribute, recorded as a span; False = aggregated per epoch)
WRAPPED = (
    ("tu", "load_tu_dataset", True),
    ("graphs", "Graph.adjacency_matrix", False),
    ("graphs", "node_label_onehot", False),
    ("graphs", "edge_attr_matrix", False),
    ("graphs", "neighborhood_attr_matrix", False),
    ("nn", "adam_step", False),
    ("encoder", "train_encoder", True),
    ("attention", "train_attention", True),
    ("attention", "attention_loss_and_grads", False),
    ("divergence", "train_source_encoders", True),
    ("divergence", "embed_all", True),
    ("divergence", "raw_divergence", True),
    ("divergence", "unit_rows", True),
    ("divergence", "distance_matrix", True),
    ("evaluation", "classify_cv", True),
    ("evaluation", "HingeClassifier.fit", True),
    ("evaluation", "hier_cluster", True),
    ("evaluation", "cut_clusters", True),
)


class Tracer:
    """Collects spans while installed; `totals` holds, per span name, the
    [calls, seconds, self seconds] since the last `reset_totals`."""

    def __init__(self):
        self.spans = []      # [id, parent id, name, round, start, end, self seconds]
        self.aggregated = {}  # (parent span id, name) -> [calls, seconds, self seconds]
        self.totals = {}
        self.round = 0
        self._stack = []     # per active call: [child seconds, id of its span or nearest span]
        self._next_id = 0
        self._origin = time.perf_counter()
        self._patched = []   # (owner, attribute, original)

    def reset_totals(self, round_index):
        self.round = round_index
        self.totals = {}

    def _wrap(self, name, fn, record):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent_span = stack[-1][1] if stack else None
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent_span
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                tot = self.totals.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += dur
                tot[2] += own
                if record:
                    self.spans.append([span_id, parent_span, name, self.round,
                                       start - self._origin, end - self._origin, own])
                else:
                    agg = self.aggregated.setdefault((parent_span, name), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += own

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "graphdiv" or n.startswith("graphdiv.")]
        for module_name, attr, record in WRAPPED:
            module = importlib.import_module(f"graphdiv.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patched.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original, record))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, record)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def calls(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def dump(self):
        """Spans and per-epoch aggregates, JSON-ready."""
        return {
            "span_fields": ["id", "parent", "name", "round", "start_s", "end_s", "self_s"],
            "spans": sorted(self.spans, key=lambda s: s[4]),
            "aggregate_fields": ["parent", "name", "calls", "seconds", "self_s"],
            "aggregates": [[p, n] + v for (p, n), v in self.aggregated.items()],
        }
