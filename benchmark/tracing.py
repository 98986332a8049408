"""Per-layer tracing, installed from outside the package.

The tracer replaces public functions and methods of dynforest's modules
with wrappers that record one span per call: name, start, end and the
span that was open when it started.  Spans stay in memory in compact
arrays and are written out once, when the run ends.  A layer's self time
is its span's duration minus the durations of the wrapped calls it made;
the program is single-threaded, so spans nest exactly.

A target that a refactor has removed is reported as absent and counted
as zero; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from array import array

import numpy as np

# (metric prefix, module under dynforest, attribute path in that module)
TARGETS = (
    ("forest.train", "forest", "Forest.train"),
    ("forest.predict", "forest", "Forest.predict"),
    ("forest.predict_many", "forest", "Forest.predict_many"),
    ("forest.add", "forest", "Forest.add"),
    ("forest.delete", "forest", "Forest.delete"),
    ("forest.unlearn_batch", "forest", "Forest.unlearn_batch"),
    ("forest.flush", "forest", "Forest.flush"),
    ("tree.build", "tree", "Tree.build"),
    ("tree.prefix_counts", "tree", "prefix_counts"),
    ("tree.sample_thresholds", "tree", "sample_thresholds"),
    ("criterion.score_matrix", "criterion", "score_matrix"),
    ("tree.query", "tree", "Tree.query"),
    ("tree.query_many", "tree", "Tree.query_many"),
    ("tree.add", "tree", "Tree.add"),
    ("tree.delete", "tree", "Tree.delete"),
    ("tree.delete_group", "tree", "Tree.delete_group"),
    ("tree.flush", "tree", "Tree.flush"),
    ("tree.rebuild_node", "tree", "Tree.rebuild_node"),
    ("data.add", "data", "Dataset.add"),
    ("data.tombstone", "data", "Dataset.tombstone"),
    ("data.dataset_from_arrays", "data", "dataset_from_arrays"),
    ("snapshot.save", "snapshot", "save"),
    ("snapshot.load", "snapshot", "load"),
)

# Wrapped calls whose non-None return value is a newly tagged node.
TAGGING = ("tree.add", "tree.delete")

# Modules whose allocations mem.<module>_bytes reports.
MEM_MODULES = ("tree", "data", "forest")
MEM_FRAMES = 4  # deep enough to pass numpy's Python-level wrappers


class Tracer:
    def __init__(self):
        self.enabled = True
        self.names = [name for name, _, _ in TARGETS]
        self.absent = []
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.tagging_calls = 0
        self.tagged_returns = 0
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._stack = []  # [span index, time covered by child spans]
        self._installed = []

    # -- installation -------------------------------------------------

    def install(self, package="dynforest"):
        for index, (name, module, path) in enumerate(TARGETS):
            owner = importlib.import_module("%s.%s" % (package, module))
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(index, raw.__func__))
            else:
                new = self._wrap(index, raw)
            setattr(owner, attr, new)
            self._installed.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def _wrap(self, index, fn):
        name = self.names[index]
        counts_tags = name in TAGGING
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = len(self._span_start)
            self._span_name.append(index)
            self._span_parent.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf()
            self._span_start.append(start)
            self._span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self._span_end[span] = end
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if counts_tags:
                self.tagging_calls += 1
                self.tagged_returns += result is not None
            return result

        return traced

    # -- results --------------------------------------------------------

    def layer_metrics(self):
        """<name>.calls and <name>.self_s for every target."""
        out = {}
        for name in self.names:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_s[name], "s")
        return out

    def tag_rate(self):
        return self.tagged_returns / self.tagging_calls if self.tagging_calls else 0.0

    def write(self, stem, extra):
        """Spans to <stem>.npz, names and `extra` to <stem>.json."""
        np.savez(stem + ".npz",
                 name=np.frombuffer(self._span_name, np.int32),
                 start=np.frombuffer(self._span_start, np.float64),
                 end=np.frombuffer(self._span_end, np.float64),
                 parent=np.frombuffer(self._span_parent, np.int32))
        doc = dict(extra, span_names=self.names, absent=self.absent,
                   n_spans=len(self._span_start))
        with open(stem + ".json", "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


def allocated_bytes_by_module(fn, package="dynforest"):
    """Run fn under tracemalloc; return (fn's result, {module: bytes}).

    Each live allocation is charged to the innermost frame inside the
    package, so memory that numpy allocates on a module's behalf counts
    for that module.
    """
    marker = "/%s/" % package
    tracemalloc.start(MEM_FRAMES)
    try:
        result = fn()
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    by_module = dict.fromkeys(MEM_MODULES, 0)
    for stat in snap.statistics("traceback"):
        for frame in reversed(stat.traceback):  # innermost first
            if marker in frame.filename:
                module = frame.filename.rsplit("/", 1)[-1][:-3]
                if module in by_module:
                    by_module[module] += stat.size
                break
    return result, by_module
