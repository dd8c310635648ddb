from fractions import Fraction as F

import pytest

from nilcone.errors import ParseError
from nilcone.liecore import (
    LieBracket,
    center,
    check_jacobi,
    emit_bracket,
    is_nice_basis,
    is_nilpotent,
    lower_central_series,
    parse_bracket,
)

from test_linalg import bracket, mat_inv, mat_vec


def act(g, mu: LieBracket) -> LieBracket:
    """Oracle: the basis change g . mu := g mu(g^{-1} ., g^{-1} .)."""
    n = mu.dim
    ginv = mat_inv(g)
    cols = [tuple(ginv[r][i] for r in range(n)) for i in range(n)]
    new = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = mat_vec(g, bracket(mu, cols[i - 1], cols[j - 1]))
            for k in range(1, n + 1):
                if w[k - 1]:
                    new[(i, j, k)] = w[k - 1]
    return LieBracket(n, new)


def direct_sum(parts) -> LieBracket:
    """The direct sum of brackets, each summand's basis after the previous ones."""
    constants, offset = {}, 0
    for p in parts:
        for (i, j, k), v in p.constants.items():
            constants[(i + offset, j + offset, k + offset)] = v
        offset += p.dim
    return LieBracket(offset, constants)


HEIS = LieBracket(3, {(1, 2, 3): F(1)})
N4NICE = LieBracket(4, {(1, 2, 3): F(1), (1, 3, 4): F(1)})
N4NONICE = LieBracket(4, {(1, 2, 3): F(1), (1, 2, 4): F(1), (1, 3, 4): F(1)})


def test_parse_roundtrip():
    text = "dim 3\nbracket 1 2 3 1\n"
    mu = parse_bracket(text)
    assert mu == HEIS
    assert emit_bracket(mu) == text


def test_parse_orientation_flip():
    mu = parse_bracket("dim 3\nbracket 2 1 3 -1\n")
    assert mu == HEIS


def test_parse_comments_and_blanks():
    mu = parse_bracket("# heisenberg\n\ndim 3\n  bracket 1 2 3 1\n")
    assert mu == HEIS


@pytest.mark.parametrize("text", [
    "bracket 1 2 3 1",               # missing dim
    "dim 3\ndim 3",                  # repeated dim
    "dim 0",                         # bad dimension
    "dim 3\nbracket 1 2 3",          # short line
    "dim 3\nbracket 1 1 3 1",        # i == j
    "dim 3\nbracket 1 2 4 1",        # out of range
    "dim 3\nbracket 1 2 3 0",        # zero coefficient
    "dim 3\nbracket 1 2 3 1\nbracket 1 2 3 2",   # duplicate
    "dim 3\nbracket 1 2 3 1\nbracket 2 1 3 1",   # conflicting orientation
    "dim 3\nbracket 1 2 3 x",        # bad rational
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_bracket(text)


def test_signed_lookup():
    assert HEIS.c(1, 2, 3) == 1
    assert HEIS.c(2, 1, 3) == -1
    assert HEIS.c(1, 1, 3) == 0


def test_bracket_bilinear():
    x, y = (F(2), F(0), F(0)), (F(0), F(3), F(0))
    assert bracket(HEIS, x, y) == (F(0), F(0), F(6))
    assert bracket(HEIS, y, x) == (F(0), F(0), F(-6))


def test_jacobi_holds():
    assert check_jacobi(N4NICE) == (True, None)


def test_jacobi_violation_reported():
    # [[e1,e2],e4] = [e3,e4] = e5 but the cyclic partners vanish
    bad = LieBracket(5, {(1, 2, 3): F(1), (3, 4, 5): F(1)})
    ok, triple = check_jacobi(bad)
    assert not ok and triple == (1, 2, 4)


def test_jacobi_least_violator_in_dim_400():
    # the chain (396, 397) -> 398, (398, 399) -> 400 breaks Jacobi on (396, 397, 399)
    bad = LieBracket(400, {(396, 397, 398): F(1), (398, 399, 400): F(1)})
    assert check_jacobi(bad) == (False, (396, 397, 399))


def test_lower_central_series_heis():
    lcs = lower_central_series(HEIS)
    assert lcs.dims == (3, 1)
    assert lcs.terminates
    assert lcs.nilpotency_class == 2


def test_non_nilpotent_detected():
    # sl2-like relations are not nilpotent
    sl2 = LieBracket(3, {(1, 2, 2): F(2), (1, 3, 3): F(-2), (2, 3, 1): F(1)})
    assert check_jacobi(sl2)[0]
    assert not is_nilpotent(sl2)


def test_center():
    z = center(N4NICE)
    assert len(z) == 1
    assert z[0] == {3: 1}


def test_abelian_center_is_everything():
    ab = LieBracket(3, {})
    assert len(center(ab)) == 3


def test_constants_are_read_only():
    raw = {(1, 2, 3): F(1)}
    mu = LieBracket(3, raw)
    before = hash(mu)
    with pytest.raises(TypeError):
        mu.constants[(1, 2, 3)] = F(2)
    raw[(1, 2, 3)] = F(2)  # the bracket keeps its own copy
    assert mu == HEIS and hash(mu) == before


def test_diagonal_act():
    mu = HEIS.diagonal_act((F(2), F(3), F(5)))
    assert mu.constants[(1, 2, 3)] == F(5, 6)


def test_act_by_permutation_matrix():
    # swap e1 and e2: [e2, e1] = e3 flips the sign
    g = ((F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1)))
    assert act(g, HEIS).constants[(1, 2, 3)] == F(-1)


def test_act_invariance_of_jacobi():
    g = ((F(1), F(1), F(0), F(0)),
         (F(0), F(1), F(0), F(0)),
         (F(0), F(0), F(1), F(2)),
         (F(0), F(0), F(0), F(1)))
    moved = act(g, N4NONICE)
    assert check_jacobi(moved)[0]
    assert is_nilpotent(moved)


def test_nice_basis():
    assert is_nice_basis(HEIS.keys())
    assert is_nice_basis(N4NICE.keys())
    assert not is_nice_basis(N4NONICE.keys())


def test_nice_rejects_shared_target_with_common_index():
    # [e1,e2] and [e1,e3] both hit e4 and share index 1
    mu = LieBracket(4, {(1, 2, 4): F(1), (1, 3, 4): F(1)})
    assert not is_nice_basis(mu.keys())


def test_nice_allows_disjoint_shared_target():
    mu = LieBracket(5, {(1, 2, 5): F(1), (3, 4, 5): F(1)})
    assert is_nice_basis(mu.keys())
