"""Serialization of stratification results.

The JSON layout is index-based: weights and roots are referred to by their
position in the validated problem's canonical (sorted) orderings, and the
null-cone block refers to strata by position in the strata list.  Key order
is fixed so equal summaries serialize to identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from .engine import CandidateDecision, NullconeSummary, SignedTree, StratumReport
from .ratgeom import InputError, Q, Vec, parse_vector, vector_to_json

# ---------------------------------------------------------------------------
# the JSON layout
#
# A record is a tuple of fields (key, kind).  `kind` is a record, a
# one-element list [kind] for a list of that kind, or a check: a function of
# the value and where it sits that returns the value's JSON form or raises
# InputError.  The tables are the schema `_parse` reads; `to_json_text` writes
# each record directly, in the same key order, and takes exactly what the
# checks take.  The golden tests parse every pinned report back through them.


def _vector(value: Any, where: str) -> list:
    try:
        return vector_to_json(parse_vector(value))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _exactly(kind: type, name: str):
    """The check that a value's type is `kind` itself, so a bool is no int."""
    def check(value: Any, where: str) -> Any:
        if type(value) is not kind:
            raise InputError(f"{where} must be {name}, got {value!r}")
        return value
    return check


def _sign(value: Any, where: str) -> str:
    if value not in ("+", "-"):
        raise InputError(f"{where} must be '+' or '-', got {value!r}")
    return value


_int = _exactly(int, "an integer")
_bool = _exactly(bool, "a boolean")
_str = _exactly(str, "a string")


def _index(value: Any, where: str) -> int:
    if _int(value, where) < 0:
        raise InputError(f"{where} must be an index (>= 0), got {value}")
    return value


_TREES: list = []  # a tree node's children are tree nodes
_TREE = (("l", _vector), ("sign", _sign), ("children", _TREES))
_TREES.append(_TREE)

_CANDIDATE = (("l", _vector), ("M", [_index]), ("stratifying", _bool), ("tree", _TREE))

_GENERIC_REP_TERM = (("weight_index", _index), ("symbol", _str))

_STRATUM = (
    ("l", _vector),
    ("dim", _int),
    ("open_in_V", _bool),
    ("support_V_l", [_index]),
    ("support_V_l_plus", [_index]),
    ("levi_roots", [_index]),
    ("parabolic_roots", [_index]),
    ("generic_rep", [_GENERIC_REP_TERM]),
)

_NULLCONE = (("dim", _int), ("equals_V", _bool), ("max_components", [_index]))

_SUMMARY = (("candidates", [_CANDIDATE]), ("strata", [_STRATUM]), ("nullcone", _NULLCONE))


def _parse(kind: Any, value: Any, where: str) -> Any:
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise InputError(f"{where} must be a list")
        return [_parse(kind[0], item, where) for item in value]
    if isinstance(kind, tuple):
        if not isinstance(value, dict):
            raise InputError(f"{where} must be an object")
        for key, _ in kind:
            if key not in value:
                raise InputError(f"{where} missing key {key!r}")
        return {key: _parse(sub, value[key], f"{where}.{key}") for key, sub in kind}
    return kind(value, where)


def _json_list(items: list[str], pad: str) -> str:
    """A list at indent `pad` as `json.dumps(..., indent=2)` writes it."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _json_vector(v: Any, pad: str) -> str:
    """A vector as `_vector` forms it.  A tuple or list of ints and
    Fractions, which is what the engine makes, is written directly; any
    other value goes whole through `_vector`, which forms it or raises."""
    if type(v) in (tuple, list):
        for x in v:
            if type(x) is not Q and type(x) is not int:
                break
        else:
            return _json_list([str(x.numerator) if x.denominator == 1
                               else f'"{x.numerator}/{x.denominator}"' for x in v], pad)
    return _json_list([json.dumps(form) for form in _vector(v, "")], pad)


def _json_indices(values: Any, pad: str) -> str:
    for i in values:
        if type(i) is not int or i < 0:
            _index(i, "")  # raises
    return _json_list([*map(str, values)], pad)


def _json_bool(value: Any) -> str:
    return "true" if _bool(value, "") else "false"


def _json_tree(node: SignedTree, pad: str) -> str:
    inner = pad + "  "
    return (f'{{\n{inner}"l": {_json_vector(node.l, inner)},\n'
            f'{inner}"sign": {encode_basestring_ascii(_sign(node.sign, ""))},\n'
            f'{inner}"children": '
            f'{_json_list([_json_tree(child, inner + "  ") for child in node.children], inner)}'
            f'\n{pad}}}')


def _json_candidate(decision: CandidateDecision) -> str:
    cand = decision.candidate
    return ('{\n'
            f'      "l": {_json_vector(cand.l, "      ")},\n'
            f'      "M": {_json_indices(cand.levels.on, "      ")},\n'
            f'      "stratifying": {_json_bool(decision.stratifying)},\n'
            f'      "tree": {_json_tree(decision.tree, "      ")}\n'
            '    }')


def _json_term(term: tuple[int, str]) -> str:
    return ('{\n'
            f'          "weight_index": {_index(term[0], "")},\n'
            f'          "symbol": {encode_basestring_ascii(_str(term[1], ""))}\n'
            '        }')


def _json_stratum(s: StratumReport) -> str:
    return ('{\n'
            f'      "l": {_json_vector(s.l, "      ")},\n'
            f'      "dim": {_int(s.dim, "")},\n'
            f'      "open_in_V": {_json_bool(s.open_in_V)},\n'
            f'      "support_V_l": {_json_indices(s.support_v_l, "      ")},\n'
            f'      "support_V_l_plus": {_json_indices(s.support_v_l_plus, "      ")},\n'
            f'      "levi_roots": {_json_indices(s.levi_root_indices, "      ")},\n'
            f'      "parabolic_roots": {_json_indices(s.parabolic_root_indices, "      ")},\n'
            f'      "generic_rep": {_json_list([*map(_json_term, s.generic_rep)], "      ")}\n'
            '    }')


def to_json_text(summary: NullconeSummary) -> str:
    """The bytes `json.dumps(..., indent=2)` gives for the layout, plus a
    newline, written one record at a time with each value checked."""
    return ('{\n'
            f'  "candidates": {_json_list([*map(_json_candidate, summary.decisions)], "  ")},\n'
            f'  "strata": {_json_list([*map(_json_stratum, summary.strata)], "  ")},\n'
            '  "nullcone": {\n'
            f'    "dim": {_int(summary.dim_nullcone, "")},\n'
            f'    "equals_V": {_json_bool(summary.equals_V)},\n'
            f'    "max_components": {_json_indices(summary.max_component_indices, "    ")}\n'
            '  }\n'
            '}\n')


def from_json_dict(obj: Any) -> dict[str, Any]:
    """The checked report: every key of the layout, in its order, each value
    in canonical form; unknown keys are dropped.  `json.dumps(..., indent=2)`
    of it reproduces `to_json_text` of the summary it was written from.
    Across fields, each candidate's verdict must match the sign of its
    tree's root, and each top-stratum index must point into the strata."""
    report = _parse(_SUMMARY, obj, "summary")
    for i, cand in enumerate(report["candidates"]):
        if cand["stratifying"] != (cand["tree"]["sign"] == "+"):
            raise InputError(f"summary.candidates[{i}]: stratifying disagrees "
                             "with its tree's sign")
    count = len(report["strata"])
    if any(i >= count for i in report["nullcone"]["max_components"]):
        raise InputError("summary.nullcone.max_components: an index is outside "
                         f"the {count} strata")
    return report


def from_json_text(text: str) -> dict[str, Any]:
    try:
        obj = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return from_json_dict(obj)


def _reject_float(token: str):
    raise InputError(f"floating point literal {token!r} not accepted; "
                     "write rationals as \"p/q\" strings")


# ---------------------------------------------------------------------------
# text rendering

def fmt_vec(v: Vec) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def tree_text(tree: SignedTree, indent: int = 0) -> str:
    lines = [" " * (4 * indent) + f"[{tree.sign}] l={fmt_vec(tree.l)}"]
    for child in tree.children:
        lines.append(tree_text(child, indent + 1))
    return "\n".join(lines)


def _candidate_lines(summary: NullconeSummary, counts: bool) -> list[str]:
    """The problem, then its candidates; with `counts`, each candidate's
    member set and counting-bound counts too."""
    problem = summary.problem
    lines = [
        f"problem: rank {problem.rank}, {len(problem.roots)} roots, "
        f"{len(problem.weights)} distinct weights, total dim {problem.total_dim}",
        "weights:",
    ]
    for i, (v, mult) in enumerate(problem.weights):
        suffix = f"  x{mult}" if mult != 1 else ""
        lines.append(f"  [{i}] {fmt_vec(v)}{suffix}")
    if problem.roots:
        lines.append("roots:")
        for i, alpha in enumerate(problem.roots):
            lines.append(f"  [{i}] {fmt_vec(alpha)}")
    lines.append("candidates:")
    if not summary.decisions:
        lines.append("  (none)")
    for i, decision in enumerate(summary.decisions):
        cand = decision.candidate
        detail = (f"M={list(cand.levels.on)}  "
                  f"roots<0: {len(cand.levels.roots_negative)}  "
                  f"weights<1: {cand.levels.mult_below}  ") if counts else ""
        verdict = "stratifying" if decision.stratifying else "excluded"
        lines.append(f"  [{i}] l={fmt_vec(cand.l)}  {detail}{verdict}")
    return lines


def candidates_text(summary: NullconeSummary) -> str:
    return "\n".join(_candidate_lines(summary, counts=True)) + "\n"


def _generic_rep_text(stratum: StratumReport) -> str:
    if not stratum.generic_rep:
        return "0"
    return " + ".join(f"{sym}*w[{i}]" for i, sym in stratum.generic_rep)


def to_text(summary: NullconeSummary) -> str:
    lines = _candidate_lines(summary, counts=False)
    lines.append("strata (decreasing dimension):")
    if not summary.strata:
        lines.append("  (none)")
    for i, stratum in enumerate(summary.strata):
        openness = "yes" if stratum.open_in_V else "no"
        lines.append(f"  [{i}] l={fmt_vec(stratum.l)}  dim {stratum.dim}  "
                     f"open in V: {openness}")
        lines.append(f"      support V_l: {list(stratum.support_v_l)}")
        lines.append(f"      support V_l+: {list(stratum.support_v_l_plus)}")
        lines.append(f"      Levi roots: {list(stratum.levi_root_indices)}")
        lines.append(f"      parabolic roots: {list(stratum.parabolic_root_indices)}")
        lines.append(f"      generic point: {_generic_rep_text(stratum)}")
    if summary.strata:
        lines.append("  (coefficients c_k stand for scalars chosen algebraically "
                     "independent over Q)")
    equals = "yes" if summary.equals_V else "no"
    components = list(summary.max_component_indices)
    lines.append(f"null cone: dim {summary.dim_nullcone}, equals V: {equals}, "
                 f"top-dimensional strata: {components}")
    return "\n".join(lines) + "\n"
