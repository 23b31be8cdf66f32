"""Unsupervised graph embeddings from pairwise structural divergences.

Pipeline: train a neighbor-prediction encoder per source graph, align every
target graph onto each source with a trainable cross-graph attention pair,
score the alignment as a divergence, and use the per-source divergences as
the target graph's embedding.
"""

from .graphs import (Graph, GraphDataset, GraphError, GraphFormatError,
                     LabelVocabulary, edge_attr_matrix, load_dataset_json,
                     neighborhood_attr_matrix, node_label_onehot,
                     save_dataset_json)
from .tu import DatasetIngestionError, load_tu_dataset, save_tu_dataset
from .generators import (karate_club, make_barbell, make_grid, make_ring,
                         make_star, mutate_family, random_graph)
from .encoder import (SourceEncoder, TrainConfig, TrainingFault,
                      positive_log_loss, train_encoder)
from .attention import (AttentionPair, AugmentedEncoder, argmax_alignment,
                        train_attention)
from .divergence import DivergenceTable, embed_all, raw_divergence
from .evaluation import (FoldPlan, classify_cv, cut_clusters, hier_cluster,
                         make_fold_plan, purity, sampling_study)

__version__ = "0.1.0"
