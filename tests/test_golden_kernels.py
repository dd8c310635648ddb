"""Derivation, Engel-flag and moment-map output pinned for the whole catalog.

``golden/kernels.txt`` holds, for every catalog entry and every family at
``FAMILY_SAMPLES``, the ``--format kv der`` output (Der(mu), the Engel
decision and its witness stage), the ``--format kv momentmap`` output and
the obstruction of ``certify_nilradical`` (which prints the Engel flag
dimensions).  A change to either closed-form kernel that alters a single
rational shows up here as a diff.

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden_kernels.py > tests/golden/kernels.txt``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from nilcone.catalog import FAMILY_SAMPLES, catalog_entry, catalog_get, catalog_list
from nilcone.certifier import certify_nilradical
from nilcone.cli import main

GOLDEN = Path(__file__).with_name("golden") / "kernels.txt"


def _cases() -> list[tuple[str, str, dict]]:
    cases = []
    for id_, _, _ in catalog_list():
        if catalog_entry(id_).params:
            cases += [(f"{id_}(t={t})", id_, {"t": t}) for t in FAMILY_SAMPLES]
        else:
            cases.append((id_, id_, {}))
    return cases


CASES = _cases()


def _cli(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["--format", "kv", *argv])
    return buf.getvalue()


def section(label: str, id_: str, params: dict) -> str:
    spec = [id_] + [f"--param={k}={v}" for k, v in params.items()]
    return "".join([
        f"=== {label}\n",
        "--- der\n", _cli("der", *spec),
        "--- momentmap\n", _cli("momentmap", *spec),
        "--- obstruction\n", f"{certify_nilradical(catalog_get(id_, **params)).obstruction}\n",
    ])


def _golden_sections() -> dict[str, str]:
    chunks = GOLDEN.read_text().split("=== ")[1:]
    return {chunk.split("\n", 1)[0]: "=== " + chunk for chunk in chunks}


@pytest.mark.parametrize("label,id_,params", CASES, ids=[c[0] for c in CASES])
def test_kernel_output_is_pinned(label, id_, params):
    assert section(label, id_, params) == _golden_sections()[label]


if __name__ == "__main__":
    print("".join(section(*c) for c in CASES), end="")
