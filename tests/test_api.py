"""The package's public surface: `nullcone.__all__` is pinned here, and the
README documents every name in it."""

from pathlib import Path

import nullcone

SURFACE = [
    "Candidate",
    "CandidateDecision",
    "GramSpace",
    "InputError",
    "InvariantError",
    "NullconeSummary",
    "OracleReport",
    "Problem",
    "ResourceError",
    "RootSystem",
    "SignedTree",
    "StratumReport",
    "ValidatedProblem",
    "ValidationError",
    "WeightSystem",
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


def test_public_surface_is_pinned_and_documented():
    assert sorted(nullcone.__all__) == SURFACE
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name in SURFACE:
        assert getattr(nullcone, name) is not None
        assert f"`{name}`" in readme, name
