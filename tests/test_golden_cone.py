"""``cone`` output and algebra certificates pinned for the whole catalog.

``golden/cone.txt`` holds, for every catalog entry and every family at
``FAMILY_SAMPLES``, the ``--format kv cone`` output (the projected
certificate cone's inequalities) and the serialized ``certify_nilradical``
verdict.  A change to a simplex pivot, a Fourier-Motzkin row, the order in
which the algebra-level search tries a positive derivation, the sink LP
and one torus LP per nice face, or a certificate coefficient shows up
here as a diff.

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden_cone.py > tests/golden/cone.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from nilcone.catalog import catalog_get
from nilcone.certifier import certify_nilradical
from test_golden import _verdict
from test_golden_kernels import CASES, _cli

GOLDEN = Path(__file__).with_name("golden") / "cone.txt"


def section(label: str, id_: str, params: dict) -> str:
    spec = [id_] + [f"--param={k}={v}" for k, v in params.items()]
    mu = catalog_get(id_, **params)
    return "".join([
        f"=== {label}\n",
        "--- cone\n", _cli("cone", *spec),
        "--- nilradical\n", _verdict(mu, certify_nilradical(mu)),
    ])


def _golden_sections() -> dict[str, str]:
    chunks = GOLDEN.read_text().split("=== ")[1:]
    return {chunk.split("\n", 1)[0]: "=== " + chunk for chunk in chunks}


@pytest.mark.parametrize("label,id_,params", CASES, ids=[c[0] for c in CASES])
def test_cone_output_is_pinned(label, id_, params):
    assert section(label, id_, params) == _golden_sections()[label]


if __name__ == "__main__":
    print("".join(section(*c) for c in CASES), end="")
