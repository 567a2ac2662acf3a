"""Golden report bytes: every refactor must keep them exactly.

`bench/expected.json` records sha256 digests of `to_json_text` and `to_text`
for named problems and a pool of seeded random problems.  This test
recomputes every one of them and reads the file without changing it.  It
also parses each JSON report back through the layout tables: the writer lays
out its records by hand, so a key it adds, drops or reorders shows here.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from nullcone.cli import load_problem
from nullcone.engine import stratify
from nullcone.oracle import random_problem
from nullcone.report import from_json_text, to_json_text, to_text

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = json.loads((BENCH / "expected.json").read_text())["digests"]


def _problem(key):
    kind, _, name = key.partition(":")
    if kind == "spec":
        return load_problem(name)
    if kind == "file":
        return load_problem(str(BENCH / "problems" / name))
    return random_problem(random.Random(int(name)))


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", list(DIGESTS))
def test_report_bytes_match_record(key):
    summary = stratify(_problem(key))
    text = to_json_text(summary)
    assert {"json": _sha256(text), "text": _sha256(to_text(summary))} == DIGESTS[key]
    assert json.dumps(from_json_text(text), indent=2) + "\n" == text
