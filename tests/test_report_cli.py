import dataclasses
import hashlib
import json
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nullcone import cli, engine, oracle, rootdata
from nullcone.cli import load_problem, main
from nullcone.engine import stratify
from nullcone.oracle import OracleReport, random_problem
from nullcone.ratgeom import InputError, parse_vector
from nullcone.report import (
    candidates_text,
    fmt_vec,
    from_json_dict,
    from_json_text,
    to_json_text,
    to_text,
    tree_text,
)
from nullcone.rootdata import catalog, parse_catalog_spec, problem_to_json
from nullcone.svg import render_svg

from conftest import CATALOG_SPECS

ROOT = Path(__file__).resolve().parents[1]
QUBITS3 = ROOT / "bench" / "problems" / "qubits3.json"


def _summary(spec, **kw):
    return stratify(parse_catalog_spec(spec), **kw)


class TestJsonReport:
    def test_round_trip_bytes(self):
        summaries = [_summary(spec) for spec in (
            "g2-adjoint", "sl2-forms:2,3", "torus:1,0|0,1|1,1", "gl2-ex3:2,1")]
        summaries += [stratify(random_problem(random.Random(1))),
                      stratify(load_problem(str(QUBITS3)))]
        texts = [to_json_text(summary) for summary in summaries]
        assert '"1/3"' in texts[3]  # "p/q" entries
        assert '"candidates": [],' in texts[4]  # random:1 has no candidates
        for text in texts:
            assert json.dumps(json.loads(text), indent=2) + "\n" == text
            assert json.dumps(from_json_text(text), indent=2) + "\n" == text

    def test_writer_checks_each_leaf(self):
        """The writer formats ints and Fractions itself; any other leaf goes
        through its check, which raises or gives the bytes the engine's
        values give."""
        summary = _summary("gl2-ex3:2,1")
        first = summary.strata[0]
        assert first.l == (0, Fraction(1, 2))

        def with_first(**fields):
            return dataclasses.replace(
                summary, strata=(dataclasses.replace(first, **fields), *summary.strata[1:]))

        decision = summary.decisions[0]
        tree = dataclasses.replace(decision.tree, plus="yes")
        bad_tree = dataclasses.replace(
            summary, decisions=(dataclasses.replace(decision, tree=tree), *summary.decisions[1:]))
        for bad, message in ((with_first(dim=True), "must be an integer"),
                             (with_first(support_v_l=(-1,)), "must be an index"),
                             (with_first(support_v_l=(True,)), "must be an integer"),
                             (with_first(l="12"), "not a vector"),
                             (with_first(l=(True, Fraction(1, 2))), "not a rational: True"),
                             (with_first(l=(0, 0.5)), "floats are not accepted"),
                             (with_first(generic_rep=((0, 3),)), "must be a string"),
                             (dataclasses.replace(summary, dim_nullcone=True),
                              "must be an integer"),
                             (bad_tree, "must be a boolean")):
            with pytest.raises(InputError, match=message):
                to_json_text(bad)
        text = to_json_text(summary)
        for l in (("0", "1/2"), (0, Fraction(1, 2)), [Fraction(0), Fraction(1, 2)]):
            assert to_json_text(with_first(l=l)) == text

    def test_deterministic(self):
        one = to_json_text(_summary("adjoint:b2"))
        two = to_json_text(_summary("adjoint:b2"))
        assert one == two

    def test_schema_keys(self):
        data = json.loads(to_json_text(_summary("gl2-ex3:2,1")))
        assert list(data) == ["candidates", "strata", "nullcone"]
        assert list(data["candidates"][0]) == ["l", "M", "stratifying", "tree"]
        assert list(data["strata"][0]) == [
            "l", "dim", "open_in_V", "support_V_l", "support_V_l_plus",
            "levi_roots", "parabolic_roots", "generic_rep"]
        assert list(data["nullcone"]) == ["dim", "equals_V", "max_components"]

    def test_parse_errors(self):
        good = json.loads(to_json_text(_summary("gl2-ex3:2,1")))

        def broken(mutate):
            data = json.loads(json.dumps(good))
            mutate(data)
            with pytest.raises(InputError):
                from_json_dict(data)

        broken(lambda d: d.pop("nullcone"))
        broken(lambda d: d["candidates"][0].pop("M"))
        broken(lambda d: d["candidates"][0]["tree"].update(sign="*"))
        broken(lambda d: d["strata"][0].update(dim="big"))
        broken(lambda d: d["strata"][0].update(open_in_V=1))
        broken(lambda d: d["strata"][0]["generic_rep"][0].update(symbol=3))
        broken(lambda d: d["nullcone"].update(max_components=[0.5]))

    def test_fields_checked_against_each_other(self):
        good = json.loads(to_json_text(_summary("gl2-ex3:2,1")))
        assert from_json_dict(good) == good

        def broken(mutate, message):
            data = json.loads(json.dumps(good))
            mutate(data)
            with pytest.raises(InputError, match=message):
                from_json_dict(data)

        def flip(d):
            d["candidates"][0]["stratifying"] = not d["candidates"][0]["stratifying"]

        broken(flip, "stratifying disagrees with its tree.s sign")
        for index in (2, 99):
            broken(lambda d: d["nullcone"].update(max_components=[index]),
                   "outside the 2 strata")
        broken(lambda d: d["strata"][0].update(support_V_l=[-5]), "must be an index")
        for key in ("support_V_l_plus", "levi_roots", "parabolic_roots"):
            broken(lambda d: d["strata"][0].update({key: [-1]}), "must be an index")
        broken(lambda d: d["candidates"][0].update(M=[-1]), "must be an index")
        broken(lambda d: d["nullcone"].update(max_components=[-1]), "must be an index")
        broken(lambda d: d["strata"][0]["generic_rep"][0].update(weight_index=-1),
               "must be an index")

    def test_vector_must_be_a_list(self):
        good = json.loads(to_json_text(_summary("gl2-ex3:2,1")))
        for bad_l in ("12", 12, {"1": 2}):
            for record in ("candidates", "strata"):
                data = json.loads(json.dumps(good))
                data[record][0]["l"] = bad_l
                with pytest.raises(InputError, match="not a vector"):
                    from_json_text(json.dumps(data))

    def test_float_literal_rejected(self):
        with pytest.raises(InputError):
            from_json_text('{"candidates": [], "strata": [], '
                           '"nullcone": {"dim": 0.5, "equals_V": false, '
                           '"max_components": []}}')


class TestTextReport:
    def test_to_text_content(self):
        text = to_text(_summary("g2-adjoint"))
        assert "problem: rank 2, 12 roots, 13 distinct weights, total dim 14" in text
        assert "excluded" in text
        assert "null cone: dim 12, equals V: no" in text
        assert "algebraically independent" in text
        assert "x2" in text  # the zero weight carries multiplicity 2

    def test_candidates_text_counts(self):
        text = candidates_text(_summary("adjoint:a1"))
        assert "roots<0: 1" in text
        assert "weights<1: 2" in text
        assert "stratifying" in text
        assert text.endswith(
            "candidates:\n"
            "  [0] l=(-1/2)  M=[0]  roots<0: 1  weights<1: 2  stratifying\n")

    def test_fmt_vec(self):
        assert fmt_vec(parse_vector(["1/2", -1])) == "(1/2, -1)"

    def test_tree_text_indents(self):
        summary = _summary("gl2-ex3:2,1")
        trees = {d.candidate.l: d.tree for d in summary.decisions}
        text = tree_text(trees[parse_vector(["1/3", "1/3"])])
        lines = text.splitlines()
        assert lines[0] == "[-] l=(1/3, 1/3)"
        assert lines[1] == "    [+] l=(-1, 1)"

    def test_empty_candidates(self):
        text = to_text(_summary("torus:0,0"))
        assert "(none)" in text
        assert "null cone: dim 0" in text


class TestSvg:
    def test_rank2_solid_and_dashed(self):
        svg = render_svg(_summary("g2-adjoint"))
        assert svg.startswith("<svg")
        assert svg.count("stroke-dasharray") == 2  # two excluded candidates
        assert svg.count('stroke="#1f4fa0"') == 4  # four stratifying lines

    def test_rank1(self):
        svg = render_svg(_summary("sl2-forms:2,3,3,4,5"))
        assert svg.count('stroke="#1f4fa0"') == 5
        assert "x3" in svg  # multiplicity label

    def test_rank3_rejected(self):
        with pytest.raises(InputError):
            render_svg(_summary("torus:1,0,0|0,1,0|0,0,1"))

    def test_float_formatting(self):
        svg = render_svg(_summary("gl2-ex3:2,-1"))
        assert re.search(r'-?\d+\.\d{4}"', svg)
        assert not re.search(r"\d\.\d{5,}", svg)

    def test_deterministic(self):
        assert render_svg(_summary("adjoint:b2")) == render_svg(_summary("adjoint:b2"))

    def test_catalog_bytes_pinned(self):
        # sha256 of the SVG of every catalog spec, ranks 1 and 2 alike
        pinned = {
            "torus:1,0|0,1|1,1":
                "b8ac48693ceeefdca5fd988813b8cd5f8bf93d2302aff55c2216ea3be5bb45aa",
            "sl2-forms:2,3,3,4,5":
                "7d354661e752076209a79fe8ead430742c0b0852c1b9f29eed9550e011053afa",
            "sl3-forms:4":
                "74e2f429a348fa9b3b3c0f22168bf809e65f15eac2ca3d2c7b53457c6e75fc3e",
            "adjoint:a1":
                "42b76233191f069409801329761e5878dca01804e82cf0f9cce8cfcd20e9d9fa",
            "adjoint:a2":
                "6054df87e85aaf270a93ac03c29c3ec3f5d3b2ccebf9ca8e66c2d5e24aa8dc76",
            "adjoint:b2":
                "adc84931a7055e03dd579f61e255f61a9e706b3df169fccb1ce78dbd84db5dc9",
            "g2-adjoint":
                "6395b2180a064e657ddcd659a5b246f9431a2ccb807f916e995c0d31ab920ef5",
            "gl2-ex3:2,1":
                "e54db23ccce79a00f2a00ce9fa7cc1c0fd3ac4329934b2c24af1bdaed57165d9",
            "gl2-ex3:2,-1":
                "a0c01ea5c40a9cc94ce695c9e2b3f13959b6c2206a0e85cd33ed48805b0bc820",
            "gl2-ex3:2,0":
                "07950e6cea24a116281232aed906dbd5100b4e3005a1c44f01c4d201a85896bc",
            "direct-sum:sl2-forms:2+sl2-forms:3":
                "59d088cf5cc1df74a1dc800354a7b434339ff17bdd37c3414527a9d4998daaaf",
        }
        assert set(pinned) == set(CATALOG_SPECS)
        assert {spec: hashlib.sha256(render_svg(_summary(spec)).encode("utf-8")).hexdigest()
                for spec in CATALOG_SPECS} == pinned
        # one sha256 over the SVGs of the rank <= 2 random problems, in order
        combined, drawn = hashlib.sha256(), 0
        for seed in range(300):
            summary = stratify(random_problem(random.Random(seed)))
            if summary.problem.rank <= 2:
                combined.update(render_svg(summary).encode("utf-8"))
                drawn += 1
        assert drawn == 200
        assert combined.hexdigest() == (
            "a9dde881d983970ab482fe52fbe192e36615c25d512ea71b5cd900d4a86cff8e")


class TestCli:
    def test_stratify_stdout(self, capsys):
        assert main(["stratify", "adjoint:a2"]) == 0
        out = capsys.readouterr().out
        assert "null cone: dim 6" in out

    def test_json_and_svg_outputs(self, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        svg_path = tmp_path / "out.svg"
        code = main(["stratify", "gl2-ex3:2,-1",
                     "--json", str(json_path), "--svg", str(svg_path)])
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data["nullcone"]["dim"] == 3
        assert svg_path.read_text().startswith("<svg")

    def test_svg_of_rank3_refused_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # the rank check runs before `stratify`: no report, no file written
        def unreachable(*args, **kwargs):
            raise AssertionError("stratify ran")

        monkeypatch.setattr(cli, "stratify", unreachable)
        json_path, svg_path = tmp_path / "o.json", tmp_path / "o.svg"
        code = main(["stratify", "adjoint:a3", "--json", str(json_path), "--svg", str(svg_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: SVG output is only available for rank <= 2 "
                                  "problems, got rank 3\n")
        assert list(tmp_path.iterdir()) == []

    def test_json_deterministic_across_runs(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["stratify", "g2-adjoint", "--json", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_candidates_command(self, capsys):
        assert main(["candidates", "g2-adjoint"]) == 0
        out = capsys.readouterr().out
        assert out.count("excluded") == 2

    def test_tree_command(self, capsys):
        assert main(["tree", "gl2-ex3:2,1"]) == 0
        out = capsys.readouterr().out
        assert "[-] l=(1/3, 1/3)" in out

    def test_fast_flag_rejected(self, capsys):
        assert main(["stratify", "g2-adjoint", "--fast"]) == 1
        assert "unrecognized arguments: --fast" in capsys.readouterr().err

    def test_catalog_list(self, capsys):
        assert main(["catalog-list"]) == 0
        out = capsys.readouterr().out
        assert "sl2-forms" in out and "direct-sum" in out

    def test_verify_command(self, capsys):
        assert main(["verify", "adjoint:a2"]) == 0
        out = capsys.readouterr().out
        assert "agree" in out and "rank-2 law consistent" in out

    def test_stratify_with_verify_flag(self, capsys):
        assert main(["stratify", "gl2-ex3:2,1", "--verify"]) == 0
        assert "verify:" in capsys.readouterr().out

    def test_verify_mismatch_exit_code(self, capsys, monkeypatch):
        import nullcone.cli as cli_module
        fake = OracleReport(False, [(parse_vector([1]), "engine")], [])
        monkeypatch.setattr(cli_module, "compare_with_naive",
                            lambda *a, **k: fake)
        assert main(["verify", "adjoint:a1"]) == 3

    def test_invariant_error_exit_code(self, capsys, monkeypatch):
        import nullcone.cli as cli_module
        from nullcone.ratgeom import InvariantError

        def broken(*args, **kwargs):
            raise InvariantError("node has 2 plus children")

        monkeypatch.setattr(cli_module, "stratify", broken)
        assert main(["stratify", "adjoint:a1"]) == 4
        assert "error: node has 2 plus children" in capsys.readouterr().err

    def test_file_input_matches_spec_input(self, tmp_path, capsys):
        problem = catalog("adjoint", ["b2"])
        path = tmp_path / "b2.json"
        path.write_text(json.dumps(problem_to_json(problem)))
        assert main(["stratify", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert main(["stratify", "adjoint:b2"]) == 0
        assert from_file == capsys.readouterr().out

    def test_input_error_codes(self, capsys, tmp_path):
        assert main(["stratify"]) == 1  # missing input
        assert main(["catalog-list", "extra"]) == 1
        assert main(["candidates", "adjoint:a2", "--json", "x.json"]) == 1
        assert main(["frobnicate", "adjoint:a2"]) == 1  # bad command
        capsys.readouterr()
        # a missing .json file is not read as a catalog spec
        assert main(["stratify", "no/such/file.json"]) == 1
        assert capsys.readouterr().err == "error: no/such/file.json: no such file\n"
        assert main(["stratify", "adjoint:a2", "--orbit-cap", "0"]) == 1
        assert main(["stratify", "adjoint:a2", "--orbit-cap", "x"]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"rank": 1')
        assert main(["stratify", str(bad)]) == 1

    @pytest.mark.parametrize("argv", [
        ["candidates", "adjoint:a1", "--json", "p"],
        ["tree", "adjoint:a1", "--svg", "p"],
        ["tree", "adjoint:a1", "--verify"],
        ["verify", "adjoint:a1", "--verify"],
        ["catalog-list", "--no-dedup"],
        ["catalog-list", "extra"],
    ], ids=" ".join)
    def test_argument_of_another_command_refused(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: unrecognized arguments: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["stratify", "adjoint:a2", "--svg", "", "--json", ""], "--svg"),
        (["stratify", "adjoint:a2", "--json", ""], "--json"),
        (["stratify", "adjoint:a3", "--svg", ""], "--svg"),
    ])
    def test_empty_output_path_refused(self, argv, flag, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: argument {flag}: empty path\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, own_flags", [("stratify", True), ("tree", False)])
    def test_help_lists_the_command_flags(self, command, own_flags, capsys):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert "--no-dedup" in out
        assert [flag in out for flag in ("--json", "--svg", "--verify")] == [own_flags] * 3

    def test_readme_command_lines(self, capsys, tmp_path, monkeypatch):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.splitlines()
        assert lines and all(line.startswith("nullcone ") for line in lines)
        monkeypatch.chdir(tmp_path)
        for line in lines:
            assert main(shlex.split(line)[1:]) == 0, line

    def test_directory_input_exits_1(self, capsys, tmp_path):
        assert main(["stratify", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")

    def test_non_utf8_input_exits_1(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"rank": 1, "name": "\u00e9"}'.encode("latin-1"))
        assert main(["stratify", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("flag", ["--json", "--svg"])
    def test_unwritable_output_exits_1(self, flag, capsys, tmp_path):
        target = tmp_path / "missing" / "out"
        assert main(["stratify", "adjoint:a1", flag, str(target)]) == 1
        assert f"error: {target}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--json", "--svg"])
    @pytest.mark.parametrize("target, reason", [
        ("missing/out", "No such file or directory"),
        (".", "Is a directory"),
        ("file/out", "Not a directory"),
    ])
    def test_unwritable_output_refused_before_solve(self, flag, target, reason, capsys,
                                                    tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        assert main(["stratify", "adjoint:a2", flag, target]) == 1
        assert capsys.readouterr() == ("", f"error: {target}: {reason}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("spec, message", [
        ("torus:", "torus needs at least one weight vector"),
        ("torus: ", "torus needs at least one weight vector"),
        ("torus:|", "torus weight vectors must not be empty"),
        ("torus:1,0||0,1", "torus weight vectors must not be empty"),
        ("torus:1,0|", "torus weight vectors must not be empty"),
    ])
    def test_empty_torus_spec(self, spec, message, capsys):
        assert main(["stratify", spec]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        ("torus:1,,0|0,1", "not a rational: ''"),
        ("sl2-forms:2,,3", "sl2-forms degree must be an integer, got ''"),
        ("gl2-ex3:2,,1", "gl2-ex3 takes exactly 2 parameter(s), got 3"),
        ("adjoint:b2,", "adjoint takes exactly 1 parameter(s), got 2"),
    ])
    def test_empty_spec_parameter(self, spec, message, capsys):
        # an empty entry is an error, not an absent one
        assert main(["stratify", spec]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("spec", ["sl2-forms:x", "sl3-forms:1.5"])
    def test_malformed_catalog_integer(self, spec, capsys):
        assert main(["stratify", spec]) == 1
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("rank", "x"), ("mult", "x"), ("weyl", [])], ids=["rank", "mult", "weyl"])
    def test_malformed_problem_file(self, key, value, capsys, tmp_path):
        data = problem_to_json(catalog("adjoint", ["a2"]))
        if key == "mult":
            data["weights"][0]["mult"] = value
        else:
            data[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert main(["stratify", str(path)]) == 1
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.5", "1e3", "1_0", " 1 "])
    def test_loose_rational_string_in_problem_file(self, value, capsys, tmp_path):
        data = problem_to_json(catalog("torus", [[1, 0]]))
        data["weights"][0]["v"] = [value, 0]
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(data))
        assert main(["stratify", str(path)]) == 1
        assert "not a rational" in capsys.readouterr().err

    def test_validation_error_lists_violations(self, capsys, tmp_path):
        problem = catalog("adjoint", ["a2"])
        data = problem_to_json(problem)
        data["weights"] = data["weights"][:-1]  # break reflection closure
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["stratify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_resource_error_code(self, capsys):
        # adjoint b3 has 19 distinct weights, beyond the naive oracle's 16
        assert main(["verify", "adjoint:b3"]) == 2
        assert "exceed the naive-subset bound 16" in capsys.readouterr().err

    def test_verify_past_the_bound_refused_before_solve(self, capsys, tmp_path,
                                                        monkeypatch):
        # the bound is decided before the solve: no report, no output file
        monkeypatch.chdir(tmp_path)
        assert main(["stratify", "adjoint:b3", "--verify", "--json", "out.json"]) == 2
        assert capsys.readouterr() == (
            "", "error: 19 distinct weights exceed the naive-subset bound 16\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["stratify", "gl2-ex3:2,1", "--verify"],
                                      ["verify", "gl2-ex3:2,1"]])
    def test_problem_validated_once(self, argv, capsys, monkeypatch):
        calls = []
        solves = []
        violations = rootdata.problem_violations

        def counting(problem):
            calls.append(problem)
            return violations(problem)

        def counting_solves(*args, **kwargs):
            solves.append(args)
            return stratify(*args, **kwargs)

        monkeypatch.setattr(rootdata, "problem_violations", counting)
        # the rank-2 law reads the one summary; patched under every name
        # `engine.stratify` is looked up by
        for module in (engine, cli, oracle):
            monkeypatch.setattr(module, "stratify", counting_solves)
        assert main(argv) == 0
        assert len(calls) == 1
        assert len(solves) == 1

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "nullcone", "catalog-list"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "g2-adjoint" in result.stdout
