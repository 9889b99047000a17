"""Hypergraph diffusion: operator calculus, stable integrators, and a
semi-supervised node-classification training harness."""

__version__ = "0.1.0"

from . import (
    diagnostics,
    errors,
    hypergraph,
    model,
    modulation,
    operators,
    solvers,
    synth,
    train,
)
from .hypergraph import (
    Dataset,
    Degrees,
    Hypergraph,
    PairIndex,
    dataset_to_json,
    degrees,
    hypergraph_to_json,
    hypergraph_to_text,
    pair_index,
    parse_dataset,
    parse_document,
    parse_hypergraph,
)
from .modulation import (
    AttentionParams,
    ModulationWeights,
    edge_features,
    normalize_modulation,
    uniform_modulation,
)
from .operators import (
    HypergraphOperators,
    divergence_apply,
    gradient_apply,
    laplacian_apply,
    laplacian_matrix,
    scaled_gradient_matrix,
)
from .solvers import (
    AdaptiveSpec,
    SolverSpec,
    Trajectory,
    integrate,
    integrate_adaptive,
    integrate_multistep,
    rhs,
    step_explicit_euler,
    step_implicit_euler,
    step_rk4,
)
from .model import ModelParams, forward, loss_and_gradients
from .synth import generate_sbm, perturb_features, perturb_structure
from .train import (
    AdamState,
    MetricsReport,
    SplitMasks,
    TrainConfig,
    adam_step,
    depth_sweep,
    make_splits,
    noise_sweep,
    standardize_features,
    train_and_evaluate,
)
