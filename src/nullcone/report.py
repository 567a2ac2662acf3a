"""Serialization of stratification results.

The JSON layout is index-based: weights and roots are referred to by their
position in the validated problem's canonical (sorted) orderings, and the
null-cone block refers to strata by position in the strata list.  Key order
is fixed so equal summaries serialize to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

from .engine import NullconeSummary, SignedTree, StratumReport
from .ratgeom import InputError, Vec, parse_vector, vector_to_json


def tree_to_json(tree: SignedTree) -> dict[str, Any]:
    return {
        "l": vector_to_json(tree.l),
        "sign": tree.sign,
        "children": [tree_to_json(child) for child in tree.children],
    }


def tree_from_json(obj: Any) -> SignedTree:
    if not isinstance(obj, dict):
        raise InputError("tree node must be an object")
    for key in ("l", "sign", "children"):
        if key not in obj:
            raise InputError(f"tree node missing key {key!r}")
    sign = obj["sign"]
    if sign not in ("+", "-"):
        raise InputError(f"tree sign must be '+' or '-', got {sign!r}")
    children = obj["children"]
    if not isinstance(children, list):
        raise InputError("tree children must be a list")
    return SignedTree(parse_vector(obj["l"]),
                      tuple(tree_from_json(c) for c in children),
                      sign == "+")


def _index_list(indices) -> list[int]:
    return [int(i) for i in indices]


def _schema_dict(candidates: Iterable[tuple[Vec, tuple[int, ...], bool, SignedTree]],
                 strata: Iterable[StratumReport], dim_nullcone: int,
                 equals_V: bool, max_components: tuple[int, ...]) -> dict[str, Any]:
    """The JSON layout; each candidate is (l, member indices, stratifying, tree)."""
    return {
        "candidates": [{
            "l": vector_to_json(l),
            "M": _index_list(members),
            "stratifying": stratifying,
            "tree": tree_to_json(tree),
        } for l, members, stratifying, tree in candidates],
        "strata": [{
            "l": vector_to_json(s.l),
            "dim": s.dim,
            "open_in_V": s.open_in_V,
            "support_V_l": _index_list(s.support_v_l),
            "support_V_l_plus": _index_list(s.support_v_l_plus),
            "levi_roots": _index_list(s.levi_root_indices),
            "parabolic_roots": _index_list(s.parabolic_root_indices),
            "generic_rep": [{"weight_index": i, "symbol": sym}
                            for i, sym in s.generic_rep],
        } for s in strata],
        "nullcone": {
            "dim": dim_nullcone,
            "equals_V": equals_V,
            "max_components": _index_list(max_components),
        },
    }


def to_json_dict(summary: NullconeSummary) -> dict[str, Any]:
    return _schema_dict(
        ((d.candidate.l, d.candidate.member_indices, d.stratifying, d.tree)
         for d in summary.decisions),
        summary.strata, summary.dim_nullcone, summary.equals_V,
        summary.max_component_indices)


def to_json_text(summary: NullconeSummary) -> str:
    return json.dumps(to_json_dict(summary), indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing the schema back

@dataclass(frozen=True)
class ParsedCandidate:
    l: Vec
    member_indices: tuple[int, ...]
    stratifying: bool
    tree: SignedTree


@dataclass(frozen=True)
class ParsedSummary:
    candidates: tuple[ParsedCandidate, ...]
    strata: tuple[StratumReport, ...]
    dim_nullcone: int
    equals_V: bool
    max_component_indices: tuple[int, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return _schema_dict(
            ((c.l, c.member_indices, c.stratifying, c.tree) for c in self.candidates),
            self.strata, self.dim_nullcone, self.equals_V, self.max_component_indices)


def _need(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    if key not in obj:
        raise InputError(f"{where} missing key {key!r}")
    return obj[key]


def _parse_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where} must be an integer, got {value!r}")
    return value


def _parse_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise InputError(f"{where} must be a boolean, got {value!r}")
    return value


def _parse_indices(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise InputError(f"{where} must be a list")
    return tuple(_parse_int(x, where) for x in value)


def from_json_dict(obj: Any) -> ParsedSummary:
    raw_candidates = _need(obj, "candidates", "summary")
    raw_strata = _need(obj, "strata", "summary")
    raw_nullcone = _need(obj, "nullcone", "summary")
    if not isinstance(raw_candidates, list) or not isinstance(raw_strata, list):
        raise InputError("candidates and strata must be lists")
    candidates = []
    for c in raw_candidates:
        candidates.append(ParsedCandidate(
            parse_vector(_need(c, "l", "candidate")),
            _parse_indices(_need(c, "M", "candidate"), "candidate M"),
            _parse_bool(_need(c, "stratifying", "candidate"), "stratifying"),
            tree_from_json(_need(c, "tree", "candidate")),
        ))
    strata = []
    for s in raw_strata:
        raw_rep = _need(s, "generic_rep", "stratum")
        if not isinstance(raw_rep, list):
            raise InputError("generic_rep must be a list")
        rep = []
        for term in raw_rep:
            index = _parse_int(_need(term, "weight_index", "generic_rep term"),
                               "weight_index")
            symbol = _need(term, "symbol", "generic_rep term")
            if not isinstance(symbol, str):
                raise InputError(f"symbol must be a string, got {symbol!r}")
            rep.append((index, symbol))
        strata.append(StratumReport(
            parse_vector(_need(s, "l", "stratum")),
            _parse_int(_need(s, "dim", "stratum"), "dim"),
            _parse_bool(_need(s, "open_in_V", "stratum"), "open_in_V"),
            _parse_indices(_need(s, "support_V_l", "stratum"), "support_V_l"),
            _parse_indices(_need(s, "support_V_l_plus", "stratum"), "support_V_l_plus"),
            _parse_indices(_need(s, "levi_roots", "stratum"), "levi_roots"),
            _parse_indices(_need(s, "parabolic_roots", "stratum"), "parabolic_roots"),
            tuple(rep),
        ))
    return ParsedSummary(
        tuple(candidates),
        tuple(strata),
        _parse_int(_need(raw_nullcone, "dim", "nullcone"), "nullcone dim"),
        _parse_bool(_need(raw_nullcone, "equals_V", "nullcone"), "equals_V"),
        _parse_indices(_need(raw_nullcone, "max_components", "nullcone"),
                       "max_components"),
    )


def from_json_text(text: str) -> ParsedSummary:
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
        detail = (f"M={list(cand.member_indices)}  roots<0: {cand.roots_negative}  "
                  f"weights<1: {cand.weights_below}  ") if counts else ""
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
