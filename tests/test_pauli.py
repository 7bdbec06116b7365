"""Word tests: actions on kets, composed actions, and the text form.

The oracle for composition is applying one word and then the other to
every basis ket.
"""

import pytest

from reference import PauliWord, apply_word, word_str

X1 = PauliWord.from_exponents(1, x_exps={0: 1})
Z1 = PauliWord.from_exponents(1, z_exps={0: 1})


def compose_on_ket(w1, w2, ket):
    """Oracle: apply w2 then w1, accumulating phases."""
    t2, mid = apply_word(w2, ket)
    t1, out = apply_word(w1, mid)
    return (t1 + t2) % 4, out


def test_x_cycles_digits():
    assert apply_word(X1, (3,)) == (0, (0,))
    assert apply_word(X1, (0,)) == (0, (1,))


def test_z_phases_digits():
    assert apply_word(Z1, (1,)) == (1, (1,))
    assert apply_word(Z1, (3,)) == (3, (3,))


def test_two_site_shift():
    word = PauliWord.from_exponents(2, x_exps={0: 1, 1: 3})
    assert apply_word(word, (0, 0)) == (0, (1, 3))


def test_site_count_mismatch():
    with pytest.raises(ValueError):
        apply_word(X1, (0, 0))


def test_zx_commutation_derived_exhaustively():
    # Oracle first: compare Z(X|k>) with X(Z|k>) on all four kets; the
    # phase offset must be the constant i.
    for k in range(4):
        t_zx, ket_zx = compose_on_ket(Z1, X1, (k,))
        t_xz, ket_xz = compose_on_ket(X1, Z1, (k,))
        assert ket_zx == ket_xz
        assert (t_zx - t_xz) % 4 == 1


def test_x2z2_squares_to_identity():
    w = PauliWord(0, ((2, 2),))
    # Oracle: exhaustively apply twice to the four kets.
    for k in range(4):
        t, ket = compose_on_ket(w, w, (k,))
        assert (t, ket) == (0, (k,))


def test_word_str_examples():
    assert word_str(PauliWord.from_exponents(4, x_exps={2: 1, 3: 3})) == "X3*X4^3"
    assert (
        word_str(PauliWord.from_exponents(4, z_exps={j: 1 for j in range(4)}))
        == "Z1*Z2*Z3*Z4"
    )
    assert word_str(PauliWord.from_exponents(2)) == "I"
    assert word_str(PauliWord(2, ((1, 0), (0, 0)))) == "i^2*X1"


def test_exponents_are_reduced_on_construction():
    word = PauliWord(5, ((4, 7), (-1, 2)))
    assert word.phase == 1
    assert word.sites == ((0, 3), (3, 2))
