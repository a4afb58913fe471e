"""Test-side reference for node assembly: the dense per-plan layout.

Before encodings referenced the (F) rows they read, ``MTMLFQO._encode``
copied every node's content vector, structural features and
tree-position row into two dense arrays per plan —
``features`` ``(L, node_feature_dim)`` and ``tree_encodings``
``(L, d_model)`` — and ``forward_batch`` copied each plan's two arrays
into the zero-padded batch, one call per item.  This module is that
code, with the content vectors computed afresh (no cache).

Not production code: the tests require ``forward_batch``'s Trans_Share
inputs (features, tree encodings and padding mask) to equal these byte
for byte.
"""

import numpy as np

import repro.nn as nn
from repro.core.serializer import serialize_plan
from repro.nn.positional import tree_path_encoding


def dense_content(model, featurizer, node) -> np.ndarray:
    """A node's ``(d_model,)`` content vector, uncached."""
    d = model.config.d_model
    with nn.no_grad():
        if node.is_scan:
            return np.array(featurizer.encode_filter(node.filter).data.reshape(d))
        ids = []
        for predicate in node.join_predicates:
            ids.append(featurizer.predicates.column_index[(predicate.left, predicate.left_column)] + 1)
            ids.append(featurizer.predicates.column_index[(predicate.right, predicate.right_column)] + 1)
        vectors = featurizer.column_embedding(np.asarray(ids, dtype=np.int64))
    content = np.zeros(d, dtype=np.float64)
    content[: d // 2] = vectors.data.mean(axis=0)
    return content


def dense_encoding(model, featurizer, labeled) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """``(features, tree_encodings, leaf_positions)`` of one plan."""
    config = model.config
    nodes, positions = serialize_plan(labeled.plan)
    features = np.zeros((len(nodes), config.node_feature_dim), dtype=np.float64)
    tree_enc = np.zeros((len(nodes), config.d_model), dtype=np.float64)
    leaf_positions: dict[str, int] = {}
    for index, (node, position) in enumerate(zip(nodes, positions)):
        features[index, : config.d_model] = dense_content(model, featurizer, node)
        features[index, config.d_model:] = model._node_extra_features(node, featurizer, position.depth)
        tree_enc[index] = tree_path_encoding(position, config.d_model)
        if node.is_scan:
            leaf_positions[node.table] = index
    return features, tree_enc, leaf_positions


def dense_batch(model, db_name, items) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(batch, trees, pad_mask)``: the Trans_Share inputs of ``items``."""
    featurizer = model.featurizer_for(db_name)
    encodings = [dense_encoding(model, featurizer, item) for item in items]
    max_len = max(features.shape[0] for features, _, _ in encodings)
    batch = np.zeros((len(items), max_len, model.config.node_feature_dim), dtype=np.float64)
    trees = np.zeros((len(items), max_len, model.config.d_model), dtype=np.float64)
    pad_mask = np.ones((len(items), max_len), dtype=bool)
    for i, (features, tree_enc, _) in enumerate(encodings):
        batch[i, : features.shape[0]] = features
        trees[i, : features.shape[0]] = tree_enc
        pad_mask[i, : features.shape[0]] = False
    return batch, trees, pad_mask
