"""``nilcone check`` output pinned for the whole catalog.

``golden/check.txt`` holds, for every catalog entry and every family at
``FAMILY_SAMPLES``, the ``--format kv check`` output: the Jacobi verdict,
nilpotency, the lower central series dimensions, the nilpotency class and
the dimension of the center.  A change to the Jacobi, central-series or
center kernels that alters one of these shows up here as a diff.

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden_check.py > tests/golden/check.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from test_golden_kernels import CASES, _cli

GOLDEN = Path(__file__).with_name("golden") / "check.txt"


def section(label: str, id_: str, params: dict) -> str:
    spec = [id_] + [f"--param={k}={v}" for k, v in params.items()]
    return f"=== {label}\n" + _cli("check", *spec)


def _golden_sections() -> dict[str, str]:
    chunks = GOLDEN.read_text().split("=== ")[1:]
    return {chunk.split("\n", 1)[0]: "=== " + chunk for chunk in chunks}


@pytest.mark.parametrize("label,id_,params", CASES, ids=[c[0] for c in CASES])
def test_check_output_is_pinned(label, id_, params):
    assert section(label, id_, params) == _golden_sections()[label]


if __name__ == "__main__":
    print("".join(section(*c) for c in CASES), end="")
