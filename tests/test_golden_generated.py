"""``certify_nilradical`` pinned on generated families at size.

``golden/generated.txt`` holds, for each algebra below and for the same
algebra under one fixed relabelling of its basis, the status, the notes
and the serialized certificate of ``certify_nilradical``:

- Vergne's filiform m_0(n), n = 4..20;
- the free 2-step nilpotent algebra on 3 to 5 generators;
- the Heisenberg algebras H_5, H_7 and H_9;
- direct sums of 2 to 4 copies of heis3, n4nice and n5nonice;
- the bracket [e1, e3] = e5, [e2, e3] = e4, [e3, e4] = e5 (dim 5), whose
  torus LP finds ``2 1 1 2 3``, and its four-fold sum (dim 20).

A change to a verdict, a derivation, a slack or a certificate coefficient
on any of them shows up here as a diff.

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden_generated.py > tests/golden/generated.txt``.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from nilcone.catalog import catalog_get
from nilcone.certifier import certify_nilradical
from nilcone.liecore import LieBracket
from nilcone.linalg import ONE
from test_golden import _verdict
from test_liecore import direct_sum

GOLDEN = Path(__file__).with_name("golden") / "generated.txt"

# the torus is 2-dimensional, and the generator-ones derivation, 1 at
# e1, e2, e3 and d_k = d_i + d_j from the first constant into e4 and e5,
# is (1, 1, 1, 2, 2), which breaks [e3, e4] = e5
LP_BRACKET = LieBracket(5, {(1, 3, 5): ONE, (2, 3, 4): ONE, (3, 4, 5): ONE})


def filiform(n: int) -> LieBracket:
    """m_0(n): [e_1, e_i] = e_{i+1} for 2 <= i < n."""
    return LieBracket(n, {(1, i, i + 1): ONE for i in range(2, n)})


def free_two_step(k: int) -> LieBracket:
    """The free 2-step algebra on k generators: [e_i, e_j] = e_{ij}, in lexicographic order."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    return LieBracket(k + len(pairs), {(i, j, k + 1 + m): ONE for m, (i, j) in enumerate(pairs)})


def heisenberg(k: int) -> LieBracket:
    """H_{2k+1}: [e_i, e_{k+i}] = e_{2k+1}."""
    return LieBracket(2 * k + 1, {(i, k + i, 2 * k + 1): ONE for i in range(1, k + 1)})


def _cases() -> list[tuple[str, LieBracket]]:
    cases = [(f"m0({n})", filiform(n)) for n in range(4, 21)]
    cases += [(f"free2({k})", free_two_step(k)) for k in (3, 4, 5)]
    cases += [(f"H{2 * k + 1}", heisenberg(k)) for k in (2, 3, 4)]
    for id_ in ("heis3", "n4nice", "n5nonice"):
        cases += [(f"{id_}^{r}", direct_sum([catalog_get(id_)] * r)) for r in (2, 3, 4)]
    cases += [("lp5", LP_BRACKET), ("lp5^4", direct_sum([LP_BRACKET] * 4))]
    return cases


def relabelling(n: int) -> list[int]:
    """A fixed permutation of 1..n: e_i is renamed e_p[i-1]."""
    p = list(range(1, n + 1))
    random.Random(n).shuffle(p)
    return p


def relabelled(mu: LieBracket) -> LieBracket:
    p = relabelling(mu.dim)
    return LieBracket(mu.dim, {(p[i - 1], p[j - 1], p[k - 1]): v
                               for (i, j, k), v in mu.constants.items()})


CASES = _cases()


def section(label: str, mu: LieBracket) -> str:
    moved = relabelled(mu)
    return "".join([
        f"=== {label}\n",
        "--- nilradical\n", _verdict(mu, certify_nilradical(mu)),
        "--- relabelled nilradical\n", _verdict(moved, certify_nilradical(moved)),
    ])


def _golden_sections() -> dict[str, str]:
    chunks = GOLDEN.read_text().split("=== ")[1:]
    return {chunk.split("\n", 1)[0]: "=== " + chunk for chunk in chunks}


@pytest.mark.parametrize("label,mu", CASES, ids=[c[0] for c in CASES])
def test_generated_nilradical_is_pinned(label, mu):
    assert section(label, mu) == _golden_sections()[label]


if __name__ == "__main__":
    print("".join(section(*c) for c in CASES), end="")
