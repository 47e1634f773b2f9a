"""Cyclic configurations of planar polygonal linkages and their Morse data.

The package enumerates every configuration of a closed linkage whose
vertices lie on a circle (the critical points of the signed area on the
pinned moduli space), evaluates closed-form sign rules for the Hessian
determinant and the Morse index, verifies both against a numerical
constrained-Hessian oracle, and explores sign dynamics under deformations on
a fixed circle.
"""

from .errors import (
    DegenerateCircleError,
    InconsistentDescriptorError,
    InvalidConfigurationError,
    InvalidLinkageError,
    LinkmorseError,
    NonGenericPathError,
)
from .geometry import (
    CircleFit,
    Configuration,
    Linkage,
    OrientationString,
    fit_circle,
    signed_area,
)
from .solver import (
    CyclicConfiguration,
    CyclicDescriptor,
    CyclicTable,
    DegeneracyFlags,
    enumerate_cyclic,
)
from .morse import closed_form
from .deform import (
    AngularPath,
    Event,
    LemmaReport,
    PathSnapshot,
    check_lemmas,
    deform,
    detect_events,
    vertex_angles,
)
from .analysis import (
    AnalysisTable,
    ConfigurationAnalysis,
    analyze_linkage,
    index_summary,
    verify_enumeration,
)

__version__ = "0.1.0"
