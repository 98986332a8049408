"""dynforest: randomized forests with exact sample unlearning.

Samples land in a fixed random subset of trees (occupancy subsampling),
deletions and additions patch cached path statistics, and subtree
rebuilds are deferred behind lazy tags until a query needs them.  The
aim is a model distributed identically to one retrained from scratch on
the updated data; the current protocol misses it, because a tagged node
redraws the candidates whose scores decided to tag it
(tests/test_exactness.py records the bias; see ROADMAP item 1).
"""

from .audit import AuditReport, Violation
from .criterion import SplitCounts, entropy, gini, score_matrix
from .data import (Column, Dataset, ParseError, Schema, SchemaError,
                   dataset_from_arrays, load_csv, load_schema, save_schema,
                   train_test_split)
from .forest import Forest, ForestParams, distribute, subsample_count
from .metrics import accuracy, auc_roc, evaluate, headline_metric
from .oracle import (AttributeSlot, auc_pairs, forest_audit, naive_retrain,
                     occupancy_check, prefix_counts, score_candidates, sortmerge_best_split)
from .snapshot import SnapshotError, load, save
from .stream import LatencyRecord, Request, generate_stream, parse_request, replay
from .synth import make_arrays, make_dataset, synthetic_schema
from .tree import GridPool, Node, Telemetry, Tree, TreeParams, audit_tree, build_tree

__version__ = "0.1.0"

__all__ = [
    "AttributeSlot", "AuditReport", "Column", "Dataset", "Forest",
    "ForestParams", "GridPool", "LatencyRecord", "Node", "ParseError", "Request",
    "Schema", "SchemaError", "SnapshotError", "SplitCounts", "Telemetry",
    "Tree", "TreeParams", "Violation", "accuracy", "auc_pairs", "auc_roc",
    "audit_tree", "build_tree", "dataset_from_arrays", "distribute",
    "entropy", "evaluate", "forest_audit", "generate_stream", "gini",
    "headline_metric", "load", "load_csv", "load_schema", "make_arrays",
    "make_dataset", "naive_retrain", "occupancy_check", "parse_request",
    "prefix_counts", "replay", "save", "save_schema",
    "score_candidates", "score_matrix", "sortmerge_best_split",
    "subsample_count", "synthetic_schema", "train_test_split",
]
