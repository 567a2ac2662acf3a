"""Command line entry point.

    nullcone stratify sl2-forms:2,3 --json out.json
    nullcone candidates examples.json
    nullcone tree g2-adjoint
    nullcone verify adjoint:b2
    nullcone catalog-list

The input argument is a path to a problem JSON file if such a file exists,
otherwise it is parsed as a catalog spec.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import NullconeSummary, stratify
from .oracle import check_rank2_law, compare_with_naive
from .ratgeom import InputError, InvariantError, ResourceError
from .report import (
    _reject_float,
    candidates_text,
    fmt_vec,
    to_json_text,
    to_text,
    tree_text,
)
from .rootdata import (
    CATALOG,
    Problem,
    ValidatedProblem,
    ValidationError,
    parse_catalog_spec,
    problem_from_json,
    validate,
)
from .svg import check_drawable, render_svg

_EXIT_CODES = {InputError: 1, ResourceError: 2, InvariantError: 4}


class _ArgumentParser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad usage; route it through the normal
    # input-error path so the exit code stays 1 (subparsers share this class)
    def error(self, message: str):
        raise InputError(message)


def _output_path(text: str) -> str:
    """Refuse, before the solve, a path whose write is sure to fail.  The
    error names no argument, so it reads as the failed write would."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentError(None, f"{text}: {os.strerror(errno.EISDIR)}")
    if not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        raise argparse.ArgumentError(None, f"{text}: {os.strerror(code)}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nullcone",
        description="Stratify the null cone of a rational representation.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("stratify", "candidates", "tree", "verify"):
        command = commands.add_parser(name)
        command.add_argument("input", help="problem JSON file or catalog spec")
        if name == "stratify":
            command.add_argument("--json", dest="json_path", metavar="PATH", type=_output_path,
                                 help="write the stratification summary as JSON")
            command.add_argument("--svg", dest="svg_path", metavar="PATH", type=_output_path,
                                 help="write a picture (rank <= 2 only)")
            command.add_argument("--verify", action="store_true",
                                 help="cross-check the output against the naive oracle")
        command.add_argument("--no-dedup", action="store_true",
                             help="list every candidate instead of one per Weyl orbit")
    commands.add_parser("catalog-list")
    return parser


def load_problem(text: str) -> Problem:
    path = Path(text)
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"), parse_float=_reject_float)
        except json.JSONDecodeError as exc:
            raise InputError(f"{text}: invalid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"{text}: {getattr(exc, 'strerror', None) or exc}") from exc
        return problem_from_json(data)
    if text.endswith(".json"):
        raise InputError(f"{text}: no such file")
    return parse_catalog_spec(text)


def _catalog_list() -> int:
    width = max(len(row[1]) for row in CATALOG)
    for _, example, blurb, _, _ in CATALOG:
        print(f"{example.ljust(width)}  {blurb}")
    return 0


def _run_verification(problem: ValidatedProblem, dedup: bool,
                      summary: Optional[NullconeSummary] = None) -> int:
    """Print the oracle's and the rank-2 law's verdicts; return the exit code."""
    report = compare_with_naive(problem, dedup=dedup)
    ok = report.candidate_set_match
    if ok:
        print("verify: candidate sets agree")
    for l, side in report.mismatches:
        source = "subset engine" if side == "engine" else "naive scan"
        print(f"verify: l={fmt_vec(l)} found only by the {source}")
    if problem.rank == 2:
        law = check_rank2_law(summary or problem)
        for line in law:
            print(f"verify: {line}")
        if not law:
            print("verify: rank-2 law consistent")
        ok = ok and not law
    return 0 if ok else 3


def _run(args: argparse.Namespace) -> int:
    if args.command == "catalog-list":
        return _catalog_list()
    problem = validate(load_problem(args.input))
    dedup = not args.no_dedup
    if args.command == "verify":
        return _run_verification(problem, dedup)
    if args.command == "stratify" and args.svg_path is not None:
        check_drawable(problem.rank)

    summary = stratify(problem, dedup=dedup)

    if args.command == "candidates":
        sys.stdout.write(candidates_text(summary))
        return 0
    if args.command == "tree":
        for decision in summary.decisions:
            print(tree_text(decision.tree))
        return 0

    sys.stdout.write(to_text(summary))
    for path, render in ((args.json_path, to_json_text), (args.svg_path, render_svg)):
        if path is not None:
            try:
                Path(path).write_text(render(summary))
            except OSError as exc:
                raise InputError(f"{path}: {exc.strerror or exc}") from exc
    return _run_verification(problem, dedup, summary) if args.verify else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 1
    except (InputError, ResourceError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    raise SystemExit(main())
