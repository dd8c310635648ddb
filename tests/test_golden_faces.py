"""``weights`` and ``degenerate`` output pinned for the small catalog entries.

``golden/faces.txt`` holds, for every catalog entry (and family sample)
with at most ``MAX_CONSTANTS`` nonzero structure constants, the
``--format kv weights`` output and the ``--format kv degenerate`` output
at the default budget and at ``--budget 5``.  A change to a weight
vector, the order of the face candidates, a face's separating alpha, the
niceness of a face or the budget count shows up here as a diff.

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden_faces.py > tests/golden/faces.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from nilcone.catalog import catalog_get
from test_golden_kernels import CASES, _cli

GOLDEN = Path(__file__).with_name("golden") / "faces.txt"
MAX_CONSTANTS = 8
SMALL = [c for c in CASES if len(catalog_get(c[1], **c[2]).keys()) <= MAX_CONSTANTS]


def section(label: str, id_: str, params: dict) -> str:
    spec = [id_] + [f"--param={k}={v}" for k, v in params.items()]
    return "".join([
        f"=== {label}\n",
        "--- weights\n", _cli("weights", *spec),
        "--- degenerate\n", _cli("degenerate", *spec),
        "--- degenerate --budget 5\n", _cli("--budget", "5", "degenerate", *spec),
    ])


def _golden_sections() -> dict[str, str]:
    chunks = GOLDEN.read_text().split("=== ")[1:]
    return {chunk.split("\n", 1)[0]: "=== " + chunk for chunk in chunks}


@pytest.mark.parametrize("label,id_,params", SMALL, ids=[c[0] for c in SMALL])
def test_face_output_is_pinned(label, id_, params):
    assert section(label, id_, params) == _golden_sections()[label]


if __name__ == "__main__":
    print("".join(section(*c) for c in SMALL), end="")
