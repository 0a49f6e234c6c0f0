"""Exception types raised by validation gates across the package.

Each error the command line reports carries its exit code as the class
constant `exit_code`: 2 input validation, 3 numerical precondition, 4
topological obstruction, 5 invariant indeterminacy.  Errors without one
(`MixedGridError`, `MissingPrimitive`) are programming errors that no input
should provoke, and propagate with a traceback.
"""


class VortexLinkError(Exception):
    """Base class for all package errors."""
    exit_code = None


class MixedGridError(VortexLinkError):
    """Fields living on different grids were combined."""


class NonzeroHarmonicPart(VortexLinkError):
    """Inversion input has a harmonic (constant) component; project first."""
    exit_code = 3


class NotDivergenceFree(VortexLinkError):
    """A vector field failed the spectral divergence test."""
    exit_code = 3


class NonzeroMean(VortexLinkError):
    """An inversion input has a nonzero component mean."""
    exit_code = 3


class ObstructedPotential(VortexLinkError):
    """mu2 has a harmonic part on the torus; no scalar potential exists."""
    exit_code = 3


class CurvesIntersect(VortexLinkError):
    """Curves are too close for the Gauss kernel quadrature."""
    exit_code = 3


class DegenerateProjection(VortexLinkError):
    """Projection direction produced tangencies, near-parallel crossings or
    coincident crossing points; the caller should retry with a perturbed
    direction."""
    exit_code = 3


class TubeTooThin(VortexLinkError):
    """Tube radius below 3 grid spacings; the mollifier is unresolvable."""
    exit_code = 3


class TubeOverlap(VortexLinkError):
    """Tubes of distinct components intersect."""
    exit_code = 3


class NotPlanar(VortexLinkError):
    """A planar curve (flat Seifert disc) was required."""
    exit_code = 3


class ObstructedClass(VortexLinkError):
    """A meridian period exceeds the gate: the cohomology class is nonzero
    and the Massey step is undefined.  `interval` names the index tuple
    whose primitive was being solved, when the hierarchy raised it."""
    exit_code = 4

    def __init__(self, message, periods=None):
        super().__init__(message)
        self.periods = periods or {}
        self.interval = None


class NoConvergence(VortexLinkError):
    """Iterative solve hit its iteration cap above tolerance."""
    exit_code = 3


class MissingPrimitive(VortexLinkError):
    """A Massey step requires a primitive that was not solved."""


class InconsistentDiagram(VortexLinkError):
    """Link-diagram incidence data is inconsistent."""
    exit_code = 2


class IndeterminateInvariant(VortexLinkError):
    """A lower-order Milnor invariant is nonzero, so the requested one is
    defined only modulo it; carries the offending sub-index."""
    exit_code = 5

    def __init__(self, message, sub_index=None):
        super().__init__(message)
        self.sub_index = tuple(sub_index) if sub_index is not None else None


class SceneError(VortexLinkError):
    """An input document (scene, diagram or config), or a value in one,
    failed validation: malformed JSON, a key the command does not read, a
    wrong type, or a value or geometry the pipeline cannot represent."""
    exit_code = 2
