"""Exact-arithmetic workbench for Temperley-Lieb planar algebra towers."""

from .diagrams import Colour, Diagram, ZERO_MINUS, ZERO_PLUS, catalan, enumerate_diagrams
from .elements import Element, jones_projection, random_element, tl_sum
from .errors import (ColourMismatchError, InternalError, LevelMismatchError,
                     ModeMismatchError, ParseError, PlanarAlgebraError,
                     PreconditionError, ValidationError)
from .scalars import Ring, Scalar
from .tangles import Tangle, evaluate, parse, standard_tangle, substitute, validate
from .tower import GradedElement, bullet, cond_expect, dagger, dot_action, include, \
    inner_product, phi, psi, random_graded, sharp, trace_Tr, trace_tk

__version__ = "0.1.0"

__all__ = [
    "Colour", "Diagram", "ZERO_MINUS", "ZERO_PLUS", "catalan", "enumerate_diagrams",
    "Element", "jones_projection", "random_element", "tl_sum",
    "Ring", "Scalar",
    "Tangle", "evaluate", "parse", "standard_tangle", "substitute", "validate",
    "GradedElement", "bullet", "cond_expect", "dagger", "dot_action", "include",
    "inner_product", "phi", "psi", "random_graded", "sharp", "trace_Tr", "trace_tk",
    "PlanarAlgebraError", "ModeMismatchError", "ColourMismatchError",
    "LevelMismatchError", "PreconditionError", "ValidationError", "ParseError",
    "InternalError",
    "__version__",
]
