"""Exact stratification of null cones of rational representations.

A problem is a reduced root system, a rational Weyl-invariant positive
definite form, and a finite set of weights with multiplicities.  The package
enumerates the candidate linear forms, decides which of them cut out a
stratum, and assembles dimensions and supports of the resulting
stratification, all in exact rational arithmetic.
"""

from .candidates import (
    Candidate,
    enumerate_candidates,
)
from .engine import (
    CandidateDecision,
    NullconeSummary,
    SignedTree,
    StratumReport,
    build_tree,
    restrict,
    stratify,
)
from .oracle import (
    OracleReport,
    check_rank2_law,
    compare_with_naive,
    invariance_harness,
    naive_candidates,
)
from .ratgeom import (
    GramSpace,
    InputError,
    InvariantError,
    ResourceError,
)
from .report import (
    from_json_text,
    to_json_text,
    to_text,
)
from .rootdata import (
    Problem,
    ValidatedProblem,
    ValidationError,
    catalog,
    direct_sum,
    parse_catalog_spec,
    validate,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "CandidateDecision",
    "GramSpace",
    "InputError",
    "InvariantError",
    "NullconeSummary",
    "OracleReport",
    "Problem",
    "ResourceError",
    "SignedTree",
    "StratumReport",
    "ValidatedProblem",
    "ValidationError",
    "build_tree",
    "catalog",
    "check_rank2_law",
    "compare_with_naive",
    "direct_sum",
    "enumerate_candidates",
    "from_json_text",
    "invariance_harness",
    "naive_candidates",
    "parse_catalog_spec",
    "render_svg",
    "restrict",
    "stratify",
    "to_json_text",
    "to_text",
    "validate",
]
