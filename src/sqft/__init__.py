"""Signed quadrangulated surfaces, suture curve systems, and the GF(2)
tensor calculus of their gluing moves."""

from .surface import (
    InvariantSummary, SquareComplex, ValidationReport, VertexClass,
    boundary_structure, canonical_form, glue, invariants, unglue,
    validate_complex,
)
from .quad import (
    CollapseRecord, RibbonGraph, SlideRecord, collapse_slack_square,
    diagonal_slide, dual_graph, find_collapsible_square, tighten,
)
from .sutures import (
    CurveSystem, basic_system, bypass_surgery, bypass_triples, finger_push,
    normalize, transport_glue, validate_sutures,
)
from .regions import (
    Region, RegionDecomposition, euler_class, is_confining, is_trivial,
)
from .tensor import (
    DigitalOp, GradingTriple, LinearMap, Z2Tensor, apply_annihilate,
    apply_create, compose, grading, is_homogeneous, slide_map,
)
from .engine import (
    CreateSquare, Factorization, Fold, Glue, MorphismScript, Zip,
    annihilation_as_fold, apply_script_to_sutures, compile_script,
    fold_operator, morphism_operator, suture_element,
)
from .routing import slide_sutures, transport_collapse

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
