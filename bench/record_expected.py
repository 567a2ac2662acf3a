"""Write `expected.json`: the report digests every benchmark check compares to.

    PYTHONPATH=src python3 bench/record_expected.py

Run it only at a commit whose report bytes are known to be right; the
benchmark then holds every later commit to exactly those bytes.  It records
sha256 digests of `to_json_text` and `to_text` for the catalog specs,
sl3-forms:6, the qubit problem files and a pool of seeded random problems
(`random_problem(random.Random(i))` for i < POOL).  For each
pool problem it also records the op times the workloads bin the pool by:
`solve_s` for a solve and `verify_s` for one `compare_with_naive`.  Host
speed drifts over seconds, so each is the median over three sweeps of the
whole pool rather than over three calls in a row; `compare_with_naive`
calls of a second or more are timed in the first sweep only.  The named
problems' solve times are recorded the same way (`named_solve_s`).  These
times only select problems and set how often a run repeats each one
(verify's cap `run.VERIFY_MAX_S`, the bins, `run.repeated`); a run never
compares against them.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import run

# the pool the workloads draw their random problems from, cut into bins by
# run.select
POOL = 600

NAMED = ([f"spec:{spec}" for spec in run.CATALOG_SPECS + ("sl3-forms:6",)]
         + [f"file:{path.name}" for path in sorted(run.PROBLEMS.glob("*.json"))])


def digests(nc, problem) -> dict:
    summary = nc.engine.stratify(problem)
    return {part: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for part, text in (("json", nc.report.to_json_text(summary)),
                               ("text", nc.report.to_text(summary)))}


def named_solve_s(nc) -> dict[str, float]:
    """Each named problem's solve time, the median over three sweeps."""
    problems = {key: run.load(nc, key) for key in NAMED}
    times = {key: [] for key in NAMED}
    for _ in range(3):
        for key, problem in problems.items():
            start = time.perf_counter()
            digests(nc, problem)
            times[key].append(time.perf_counter() - start)
    return {key: float(f"{statistics.median(t):.4g}") for key, t in times.items()}


def main() -> None:
    nc = run.import_nullcone()
    out = {"recorded_at": run.git_sha(), "src_sha256": run.src_sha256(),
           "digests": {}, "random": []}
    for key in NAMED:
        out["digests"][key] = digests(nc, run.load(nc, key))
    problems = [run.load(nc, f"random:{i}") for i in range(POOL)]
    solve = [[] for _ in problems]
    verify = [[] for _ in problems]
    for sweep in range(3):
        for i, problem in enumerate(problems):
            start = time.perf_counter()
            out["digests"][f"random:{i}"] = digests(nc, problem)
            solve[i].append(time.perf_counter() - start)
            if sweep == 0 or verify[i][0] < 1.0:
                start = time.perf_counter()
                nc.oracle.compare_with_naive(problem)
                verify[i].append(time.perf_counter() - start)
    for i in range(POOL):
        out["random"].append({
            "seed": i,
            "solve_s": float(f"{statistics.median(solve[i]):.4g}"),
            "verify_s": float(f"{statistics.median(verify[i]):.4g}")})
    out["named_solve_s"] = named_solve_s(nc)
    (run.BENCH / "expected.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
