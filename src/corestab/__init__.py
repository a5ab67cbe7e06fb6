"""Stability of degenerate-core graph embeddings.

Measure how the pairwise-distance distribution of degenerate-core embeddings
drifts as peripheral k-shells are shaved off and the remainder is re-embedded,
and train embeddings that pin core proximities to their isolated-core values.
"""

__version__ = "0.1.0"

from .embed import EmbedSpec, embed_graph, laplacian_eigenmaps, line1_embed
from .evaluation import (EvalScores, LinkPredSplit, evaluate, make_split,
                         score_pairs, stability_error_distribution)
from .graph import (CorenessMap, Graph, SubgraphFeatures, core_completeness,
                    core_decomposition, load_edge_list, subgraph_features)
from .regress import RegressionFit, RegressionSample, collect_samples, ols_fit
from .share import (ShareReport, emd_1d, max_instability_shell,
                    pairwise_distribution, run_share)
from .stable import (StableConfig, StableResult, instability_penalty,
                     isolated_core_embedding, le_base_gradient,
                     stability_gradient, stable_train)
from .synth import GenSpec, desk_graph, generate
