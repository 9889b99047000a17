"""Exception types shared across the package.

Validation errors carry enough context to name the offending edge, node,
or value in CLI reports.
"""


class HndError(Exception):
    """Base class for all package-specific errors."""


class MalformedDocument(HndError):
    """Hypergraph/dataset document does not conform to the expected format."""


class DegenerateEdge(HndError):
    """Hyperedge with fewer than two members or duplicate members."""


class NonPositiveWeight(HndError):
    """Hyperedge weight is zero, negative, or not finite."""


class NodeIdOutOfRange(HndError):
    """Hyperedge references a node id outside [0, n)."""


class IsolatedNode(HndError):
    """A node belongs to no hyperedge, so its degree would be zero."""


class ShapeMismatch(HndError):
    """Signal or parameter shape is inconsistent with the hypergraph."""


class InvalidAlpha(HndError):
    """Synthetic-generator minority count outside [1, edge_size/2]."""


class EdgeSizeExceedsClass(HndError):
    """Requested hyperedge size larger than one class of nodes."""


class InvalidRate(HndError):
    """Noise rate outside [0, 1]."""


class ResultingIsolatedNode(HndError):
    """Structure perturbation orphaned a node; retry with a new seed."""


class NoConvergence(HndError):
    """Iterative solve hit its iteration cap.

    Attributes
    ----------
    residual : float
        Residual norm at the final iterate.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = float(residual)


class StepUnderflow(HndError):
    """Adaptive integrator cannot satisfy the tolerance above tau_min."""


class TooFewSteps(HndError):
    """Multistep integrator needs at least four steps."""


class TooLarge(HndError):
    """Dense materialization would exceed the allowed element count."""


class InvalidRatios(HndError):
    """Split ratios are negative, do not sum to one, or leave a set empty."""


class UnsupportedSchemeForTraining(HndError):
    """Training differentiates explicit Euler only; other schemes are inference-only."""
