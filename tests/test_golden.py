"""Serialized certificates and ``cone`` output pinned for the fast catalog entries.

``golden/fast_catalog.txt`` holds, per entry, the serialized certificate of
``certify_nilradical``, of ``certify_derivation`` on each listed derivation
with positive trace, and the ``--format kv cone`` output.  Any change to a
simplex pivot, a certificate coefficient, a face alpha or a cone inequality
shows up here as a diff.

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden.py > tests/golden/fast_catalog.txt``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from nilcone.catalog import catalog_entry
from nilcone.certifier import certify_derivation, certify_nilradical, serialize_certificate
from nilcone.cli import main

FAST = (
    "heis3", "n4nice", "n4nonice", "n5nonice",
    "dim7-alg1", "dim7-alg2", "dim7-alg3", "dim7-alg4", "ex9",
)
GOLDEN = Path(__file__).with_name("golden") / "fast_catalog.txt"


def _verdict(mu, verdict) -> str:
    text = f"status {verdict.status}\nnotes {verdict.notes}\n"
    if verdict.certificate is not None:
        text += serialize_certificate(mu, verdict.certificate)
    return text


def section(id_: str) -> str:
    entry = catalog_entry(id_)
    mu = entry.bracket()
    parts = [f"=== {id_}\n", "--- nilradical\n", _verdict(mu, certify_nilradical(mu))]
    for i, d in enumerate(entry.derivations):
        if sum(d) > 0:
            parts += [f"--- derivation.{i}\n", _verdict(mu, certify_derivation(mu, d))]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["--format", "kv", "cone", id_])
    parts += ["--- cone\n", buf.getvalue()]
    return "".join(parts)


def _golden_sections() -> dict[str, str]:
    chunks = GOLDEN.read_text().split("=== ")[1:]
    return {chunk.split("\n", 1)[0]: "=== " + chunk for chunk in chunks}


@pytest.mark.parametrize("id_", FAST)
def test_fast_catalog_output_is_pinned(id_):
    assert section(id_) == _golden_sections()[id_]


if __name__ == "__main__":
    print("".join(section(i) for i in FAST), end="")
