import dataclasses
import itertools
import json
import pytest

from nullcone.cli import main
from nullcone.engine import stratify
from nullcone.ratgeom import InputError, ResourceError, make_space, parse_vector
from nullcone.rootdata import (
    Problem,
    ValidationError,
    catalog,
    direct_sum,
    orbit_closure,
    parse_catalog_spec,
    problem_from_json,
    problem_to_json,
    problem_violations,
    reflect,
    validate,
)


class TestReflections:
    def setup_method(self):
        self.space = make_space([[2, -1], [-1, 2]])

    def test_root_goes_to_negative(self):
        alpha = parse_vector([1, 0])
        assert reflect(self.space, alpha, alpha) == parse_vector([-1, 0])

    def test_orthogonal_fixed(self):
        alpha = parse_vector([1, 0])
        v = parse_vector([1, 2])  # <alpha, v> = 2 - 2 = 0
        assert reflect(self.space, alpha, v) == v

    def test_involution(self):
        alpha = parse_vector([0, 1])
        v = parse_vector([3, "5/7"])
        assert reflect(self.space, alpha, reflect(self.space, alpha, v)) == v


class TestOrbits:
    def test_a2_root_orbit(self):
        problem = validate(catalog("adjoint", ["a2"]))
        orbit = problem.orbit(parse_vector([1, 0]))
        assert len(orbit) == 6
        assert set(orbit) == set(problem.roots)

    def test_g2_orbit_sizes(self):
        problem = validate(catalog("g2-adjoint"))
        assert len(problem.orbit(parse_vector([5, 1]))) == 12
        assert len(problem.orbit(parse_vector([1, 1]))) == 6

    def test_cap(self):
        problem = validate(catalog("g2-adjoint"))
        with pytest.raises(ResourceError):
            orbit_closure(problem.space, problem.roots, parse_vector([5, 1]), 7)

    def test_orbit_deterministic(self):
        problem = validate(catalog("adjoint", ["b2"]))
        v = parse_vector([1, 1])
        assert problem.orbit(v) == problem.orbit(v)


def _valid_problem():
    return catalog("adjoint", ["a2"])


class TestValidation:
    def test_catalog_instances_validate(self):
        for spec in ("adjoint:a1", "adjoint:b2", "g2-adjoint", "sl3-forms:3",
                     "sl2-forms:2,5", "gl2-ex3:3,2", "torus:1,2"):
            validated = validate(parse_catalog_spec(spec))
            assert validated.total_dim >= 1

    def test_sorted_and_deduped(self):
        problem = validate(_valid_problem())
        assert list(problem.roots) == sorted(problem.roots)
        assert list(problem.weights) == sorted(problem.weights)
        assert len(set(problem.roots)) == len(problem.roots)

    def test_root_not_negation_closed(self):
        base = _valid_problem()
        roots = tuple(r for r in base.roots if r != parse_vector([1, 0]))
        bad = dataclasses.replace(base, roots=roots)
        assert any("negation" in v or "-" in v for v in problem_violations(bad))
        with pytest.raises(ValidationError):
            validate(bad)

    def test_zero_root(self):
        base = _valid_problem()
        roots = base.roots + (parse_vector([0, 0]),)
        with pytest.raises(ValidationError):
            validate(dataclasses.replace(base, roots=roots))

    def test_non_reduced_roots(self):
        base = _valid_problem()
        doubled = [parse_vector([2, 0]), parse_vector([-2, 0])]
        roots = base.roots + tuple(doubled)
        with pytest.raises(ValidationError):
            validate(dataclasses.replace(base, roots=roots))

    def test_empty_weights(self):
        base = _valid_problem()
        with pytest.raises(ValidationError):
            validate(dataclasses.replace(base, weights=()))

    def test_bad_multiplicity(self):
        base = _valid_problem()
        entries = tuple((v, 0) for v, _ in base.weights)
        with pytest.raises(ValidationError):
            validate(dataclasses.replace(base, weights=entries))

    def test_weights_not_reflection_closed(self):
        base = _valid_problem()
        entries = tuple((v, m) for v, m in base.weights if v != parse_vector([1, 1]))
        bad = dataclasses.replace(base, weights=entries)
        messages = problem_violations(bad)
        assert any("weight" in v for v in messages)
        with pytest.raises(ValidationError):
            validate(bad)

    def test_duplicate_root(self):
        # counted twice, the roots of a1 would give one stratum of dim 3
        base = catalog("adjoint", ["a1"])
        bad = dataclasses.replace(base, roots=base.roots * 2)
        assert problem_violations(bad) == ["duplicate root [-1]", "duplicate root [1]"]
        with pytest.raises(ValidationError):
            validate(bad)

    def test_reflection_leaves_weight_denominator(self):
        # the reflection in (-1, -2) takes (1, 0) to (3/5, -4/5)
        space = make_space([[1, 0], [0, 1]])
        alpha = parse_vector([-1, -2])
        assert reflect(space, alpha, parse_vector([1, 0])) == parse_vector(["3/5", "-4/5"])
        bad = Problem.of(space, [[1, 2], [-1, -2]], [([1, 0], 1)])
        assert problem_violations(bad) == [
            "the reflection in root [-1, -2] does not preserve the weight multiset"]

    def test_validation_error_carries_all_violations(self):
        base = _valid_problem()
        bad = dataclasses.replace(
            base,
            roots=(parse_vector([0, 0]),),
            weights=())
        with pytest.raises(ValidationError) as err:
            validate(bad)
        assert len(err.value.violations) >= 2

    @pytest.mark.parametrize("roots, weight, message", [
        ([[1, 2]], [1, 0], "root set is not closed under negation: missing [-1, -2]"),
        ([[1, 2], [-1, -2]], [1, 0], "the reflection in root [-1, -2] does not preserve"),
        ([], ["1/2"], 'weight ["1/2"] has length 1, expected 2'),
        ([["1/2", 0]], [1, 0], 'root set is not closed under negation: missing ["-1/2", 0]'),
    ], ids=["negation", "reflection", "fraction-weight", "fraction-root"])
    def test_violations_print_vectors_as_json(self, roots, weight, message, capsys,
                                              tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rank": 2, "gram": [[1, 0], [0, 1]], "roots": roots,
                                    "weights": [{"v": weight, "mult": 1}]}))
        assert main(["stratify", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Fraction(" not in err and "'" not in err

    def test_repeated_entries_in_a_file(self, capsys, tmp_path):
        # a repeated root is an error; a repeated weight adds its multiplicities
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({"rank": 1, "gram": [[1]], "roots": [[2], [-2], [2]],
                                    "weights": [{"v": [0], "mult": 1}]}))
        assert main(["stratify", str(path)]) == 1
        assert capsys.readouterr().err == "error: duplicate root [2]\n"
        twice = problem_from_json({"rank": 1, "gram": [[1]],
                                   "weights": [{"v": [1]}, {"v": [1], "mult": 1}]})
        assert validate(twice).weights == ((parse_vector([1]), 2),)

    def test_explicit_generators_rejected(self, capsys, tmp_path):
        # W is always the group the root reflections generate
        data = problem_to_json(_valid_problem())
        data["weyl"] = {"generators": [[[1, 0], [0, 1]]]}
        path = tmp_path / "generators.json"
        path.write_text(json.dumps(data))
        assert main(["stratify", str(path)]) == 1
        assert "from_roots" in capsys.readouterr().err

    def test_sl3_on_c3_plus_its_dual(self):
        # the group the generators named used to change this answer: the
        # identity alone gave 12 strata, the reflections and -I gave 2
        forms = parse_catalog_spec("sl3-forms:1")
        weights = [(v, 1) for v in ([1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1])]
        summary = stratify(Problem.of(forms.space, forms.roots, weights))
        assert [s.dim for s in summary.strata] == [5, 3, 3]


# a valid rank-1 problem file, and the values each of its keys is set to in
# turn; only gram [[5]] and roots [] leave it valid
RANK_1 = {"rank": 1, "gram": [[1]], "roots": [[2], [-2]],
          "weights": [{"v": [1], "mult": 1}, {"v": [-1], "mult": 1}],
          "weyl": {"mode": "from_roots"}}
MALFORMED = (5, "x", None, True, [], {}, [5], ["x"], [None], [[]], [{}], [[5]], [["x"]],
             [[None]], [[1, 2]], [{"v": 5}], [{"v": [1], "mult": [1]}],
             [{"v": [1], "mult": None}], [{"v": "1"}], -1, 0, 2)


class TestJson:
    def test_round_trip(self):
        problem = catalog("gl2-ex3", ["2", "-1"])
        data = problem_to_json(problem)
        back = problem_from_json(data)
        assert validate(back).weights == validate(problem).weights
        assert problem_to_json(back) == data

    def test_missing_key(self):
        data = problem_to_json(_valid_problem())
        del data["gram"]
        with pytest.raises(InputError):
            problem_from_json(data)

    def test_unknown_weyl_mode(self):
        data = problem_to_json(_valid_problem())
        data["weyl"] = {"mode": "full-group"}
        with pytest.raises(InputError):
            problem_from_json(data)

    def test_float_weight_rejected(self):
        data = problem_to_json(_valid_problem())
        data["weights"][0]["v"] = [0.5, 1]
        with pytest.raises(InputError):
            problem_from_json(data)

    @pytest.mark.parametrize("value", MALFORMED, ids=json.dumps)
    @pytest.mark.parametrize("key", list(RANK_1))
    def test_malformed_file_never_crashes(self, key, value, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**RANK_1, key: value}))
        valid = (key, value) in (("gram", [[5]]), ("roots", []))
        assert main(["stratify", str(path)]) == (0 if valid else 1)
        assert valid or capsys.readouterr().err.startswith("error: ")

    def test_string_vector_rejected(self):
        for bad in ("12", 12):
            data = problem_to_json(_valid_problem())
            data["weights"][0]["v"] = bad
            with pytest.raises(InputError, match="not a vector"):
                problem_from_json(data)


class TestCatalog:
    def test_sl2_forms_weights(self):
        problem = validate(catalog("sl2-forms", [2, 3, 3, 4, 5]))
        assert len(problem.weights) == 11
        assert problem.total_dim == 22
        mults = dict(problem.weights)
        assert mults[parse_vector([0])] == 2
        assert mults[parse_vector([1])] == 3
        assert mults[parse_vector([5])] == 1
        assert set(problem.roots) == {parse_vector([2]), parse_vector([-2])}

    def test_sl3_forms_weights(self):
        problem = validate(catalog("sl3-forms", [4]))
        assert len(problem.weights) == 15
        assert all(m == 1 for _, m in problem.weights)
        assert len(problem.roots) == 6

    def test_adjoint_zero_multiplicity(self):
        problem = validate(catalog("adjoint", ["b2"]))
        mults = dict(problem.weights)
        assert mults[parse_vector([0, 0])] == 2
        assert problem.total_dim == 10  # dim so(5)

    def test_g2_adjoint(self):
        problem = validate(catalog("g2-adjoint"))
        assert len(problem.roots) == 12
        assert problem.total_dim == 14

    def test_gl2_ex3_guards(self):
        with pytest.raises(InputError):
            catalog("gl2-ex3", ["1", "1"])  # a^2 > b^2 fails
        with pytest.raises(InputError):
            catalog("gl2-ex3", ["0", "0"])
        with pytest.raises(InputError):
            catalog("gl2-ex3", ["2"])

    def test_unknown_name(self):
        with pytest.raises(InputError):
            catalog("so5-spin")

    def test_direct_sum_shape(self):
        problem = validate(parse_catalog_spec("direct-sum:sl2-forms:2+sl2-forms:3"))
        assert problem.rank == 2
        assert len(problem.roots) == 4
        assert problem.total_dim == 3 + 4

    def test_torus_spec(self):
        problem = validate(parse_catalog_spec("torus:1,0|0,1|1,1"))
        assert problem.rank == 2
        assert len(problem.roots) == 0
        assert len(problem.weights) == 3
        # spaces around a spec's numbers are the spec's, not the rationals'
        assert parse_catalog_spec("torus: 1, 0|0 ,1|1,1 ") == parse_catalog_spec(
            "torus:1,0|0,1|1,1")

    def test_bad_specs(self):
        for text in ("direct-sum:sl2-forms:2", "sl3-forms:1,2", "adjoint:",
                     "gl2-ex3:1,2"):
            with pytest.raises(InputError):
                parse_catalog_spec(text)


DIRECT_SUM_PARTS = ("torus:1,0|0,1|1,1", "sl2-forms:2,3", "adjoint:a1", "adjoint:a2",
                    "adjoint:b2", "g2-adjoint", "gl2-ex3:2,1", "gl2-ex3:2,-1", "gl2-ex3:2,0")


@pytest.mark.parametrize("first, second", itertools.combinations(DIRECT_SUM_PARTS, 2))
def test_direct_sum_law(first, second, summary_of):
    """dim N(V1 + V2) = dim N(V1) + dim N(V2), and the null cone of the sum
    is all of it exactly when each part's null cone is all of that part."""
    whole = stratify(direct_sum(parse_catalog_spec(first), parse_catalog_spec(second)))
    parts = summary_of(first), summary_of(second)
    assert whole.dim_nullcone == sum(part.dim_nullcone for part in parts)
    assert whole.equals_V == all(part.equals_V for part in parts)
