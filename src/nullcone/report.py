"""Serialization of stratification results.

The JSON layout is index-based: weights and roots are referred to by their
position in the validated problem's canonical (sorted) orderings, and the
null-cone block refers to strata by position in the strata list.  Key order
is fixed so equal summaries serialize to identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Any

from .engine import NullconeSummary, SignedTree, StratumReport
from .ratgeom import InputError, Vec, parse_vector, vector_to_json

# ---------------------------------------------------------------------------
# the JSON layout, written once
#
# A record is a tuple of fields (key, get, kind).  `get` reads the field from
# the object the engine made.  `kind` is a record, a one-element list [kind]
# for a list of that kind, or a check: a function of the value and where it
# sits that returns the value's JSON form or raises InputError.  `_write` and
# `_parse` walk the same tables, so the two cannot drift apart.


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
_TREE = (
    ("l", attrgetter("l"), _vector),
    ("sign", attrgetter("sign"), _sign),
    ("children", attrgetter("children"), _TREES),
)
_TREES.append(_TREE)

_CANDIDATE = (
    ("l", attrgetter("candidate.l"), _vector),
    ("M", attrgetter("candidate.levels.on"), [_index]),
    ("stratifying", attrgetter("stratifying"), _bool),
    ("tree", attrgetter("tree"), _TREE),
)

_GENERIC_REP_TERM = (
    ("weight_index", itemgetter(0), _index),
    ("symbol", itemgetter(1), _str),
)

_STRATUM = (
    ("l", attrgetter("l"), _vector),
    ("dim", attrgetter("dim"), _int),
    ("open_in_V", attrgetter("open_in_V"), _bool),
    ("support_V_l", attrgetter("support_v_l"), [_index]),
    ("support_V_l_plus", attrgetter("support_v_l_plus"), [_index]),
    ("levi_roots", attrgetter("levi_root_indices"), [_index]),
    ("parabolic_roots", attrgetter("parabolic_root_indices"), [_index]),
    ("generic_rep", attrgetter("generic_rep"), [_GENERIC_REP_TERM]),
)

_NULLCONE = (
    ("dim", attrgetter("dim_nullcone"), _int),
    ("equals_V", attrgetter("equals_V"), _bool),
    ("max_components", attrgetter("max_component_indices"), [_index]),
)

_SUMMARY = (
    ("candidates", attrgetter("decisions"), [_CANDIDATE]),
    ("strata", attrgetter("strata"), [_STRATUM]),
    ("nullcone", lambda summary: summary, _NULLCONE),
)


def _parse(kind: Any, value: Any, where: str) -> Any:
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise InputError(f"{where} must be a list")
        return [_parse(kind[0], item, where) for item in value]
    if isinstance(kind, tuple):
        if not isinstance(value, dict):
            raise InputError(f"{where} must be an object")
        for key, _, _ in kind:
            if key not in value:
                raise InputError(f"{where} missing key {key!r}")
        return {key: _parse(sub, value[key], f"{where}.{key}") for key, _, sub in kind}
    return kind(value, where)


def _leaf(form: Any, pad: str) -> str:
    """`json.dumps(form, indent=2)` of a check's form, at indent `pad`."""
    if type(form) is str:
        return encode_basestring_ascii(form)
    if type(form) is not list:
        return "true" if form is True else "false" if form is False else str(form)
    inner = pad + "  "
    return (f"[\n{inner}" + f",\n{inner}".join([_leaf(x, inner) for x in form])
            + f"\n{pad}]") if form else "[]"


def _write(kind: Any, value: Any, pad: str, out: list[str]) -> list[str]:
    """Append `json.dumps(..., indent=2)` of `value` laid out by `kind` to
    `out`, and return `out`."""
    inner = pad + "  "
    if callable(kind):
        out.append(_leaf(kind(value, ""), pad))
    elif isinstance(kind, tuple):
        for i, (key, get, sub) in enumerate(kind):
            out.append(f"{',' if i else '{'}\n{inner}{encode_basestring_ascii(key)}: ")
            _write(sub, get(value), inner, out)
        out.append(f"\n{pad}}}")
    elif callable(kind[0]):
        out.append(_leaf([kind[0](item, "") for item in value], pad))
    else:
        for i, item in enumerate(value):
            out.append(f"{',' if i else '['}\n{inner}")
            _write(kind[0], item, inner, out)
        out.append(f"\n{pad}]" if value else "[]")
    return out


def to_json_text(summary: NullconeSummary) -> str:
    return "".join(_write(_SUMMARY, summary, "", [])) + "\n"


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
