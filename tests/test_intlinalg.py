import random

import pytest

from quadlift import (IntMatrix, determinant, kernel_basis, smith_normal_form,
                      solve_integer)
from oracles import (box_solve, laplace_determinant, link_boundary_matrix,
                     minors_gcd, random_matrix)


def check_decomposition(a):
    dec = smith_normal_form(a)
    assert dec.U * a * dec.V == dec.D
    assert abs(determinant(dec.U)) == 1
    assert abs(determinant(dec.V)) == 1
    facs = dec.invariant_factors
    assert all(f > 0 for f in facs)
    for i in range(len(facs) - 1):
        assert facs[i + 1] % facs[i] == 0
    # D is diagonal
    for i, row in enumerate(dec.D.rows):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return dec


def test_smith_zero_matrix():
    dec = smith_normal_form(IntMatrix.zeros(3, 4))
    assert dec.invariant_factors == ()
    assert dec.U == IntMatrix.identity(3)
    assert dec.V == IntMatrix.identity(4)


def test_smith_identity():
    for n in (1, 2, 5):
        dec = check_decomposition(IntMatrix.identity(n))
        assert dec.invariant_factors == (1,) * n


def test_smith_worked_example():
    # gcd of entries 2; gcd of 2x2 minors |16-24| = 8, so factors (2, 4)
    dec = check_decomposition(IntMatrix([[2, 4], [6, 8]]))
    assert dec.invariant_factors == (2, 4)


def test_smith_gcd_of_minors_random():
    rng = random.Random(99)
    for _ in range(100):
        rows = random_matrix(rng, 5, 5)
        a = IntMatrix(rows)
        dec = check_decomposition(a)
        product = 1
        for k in range(1, min(a.nrows, a.ncols) + 1):
            g = minors_gcd(rows, k)
            product = product * (dec.invariant_factors[k - 1]
                                 if k <= len(dec.invariant_factors) else 0)
            assert g == product


def test_solve_identity():
    res = solve_integer(IntMatrix.identity(4), [3, -1, 0, 7])
    assert res.ok and res.solution == [3, -1, 0, 7]


def test_solve_parity_obstruction():
    res = solve_integer(IntMatrix([[2]]), [3])
    assert not res.ok
    assert res.reason == "no integer solution"


def test_solve_rational_obstruction():
    res = solve_integer(IntMatrix([[1], [1]]), [1, 2])
    assert not res.ok
    assert res.reason == "no rational solution"


def test_solve_link_boundary_zero(double_tet):
    a = link_boundary_matrix(double_tet, double_tet.links[0])
    assert (a.nrows, a.ncols) == (3, 2)
    res = solve_integer(a, [0, 0, 0])
    assert res.ok and res.solution == [0, 0]
    basis = kernel_basis(a)
    assert len(basis) == 1 and basis[0] in ([1, 1], [-1, -1])


def test_solve_remultiplication_random():
    rng = random.Random(7)
    for _ in range(200):
        rows = random_matrix(rng, 4, 6)
        a = IntMatrix(rows)
        x0 = [rng.randint(-2, 2) for _ in range(a.ncols)]
        b = a.mul_vec(x0)
        res = solve_integer(a, b)
        assert res.ok
        assert a.mul_vec(res.solution) == b


def test_solve_agrees_with_box_search():
    # box-solvable implies the solver succeeds; on instances built with an
    # in-box solution the agreement is an iff (solutions can otherwise all
    # lie outside the box)
    rng = random.Random(4242)
    for trial in range(100):
        rows = random_matrix(rng, 4, 6, lo=-3, hi=3)
        a = IntMatrix(rows)
        constructed = trial % 2 == 0
        if constructed:
            x0 = [rng.randint(-2, 2) for _ in range(a.ncols)]
            b = a.mul_vec(x0)
        else:
            b = [rng.randint(-4, 4) for _ in range(a.nrows)]
        res = solve_integer(a, b)
        found = box_solve(rows, b)
        if found is not None:
            assert res.ok
        if constructed:
            assert res.ok and found is not None
        if res.ok:
            assert a.mul_vec(res.solution) == b


def test_permuted_solve_paths_agree():
    rng = random.Random(11)
    for _ in range(50):
        rows = random_matrix(rng, 4, 5)
        a = IntMatrix(rows)
        x0 = [rng.randint(-2, 2) for _ in range(a.ncols)]
        b = a.mul_vec(x0)
        ro = list(range(a.nrows))
        co = list(range(a.ncols))
        rng.shuffle(ro)
        rng.shuffle(co)
        res = solve_integer(a, b, row_order=ro, col_order=co)
        assert res.ok
        assert a.mul_vec(res.solution) == b


def test_single_sided_permutation_orders():
    a = IntMatrix([[2, 0, 1], [0, 3, 1]])
    b = [4, 6]
    for kwargs in ({"row_order": [1, 0]}, {"col_order": [2, 0, 1]},
                   {"row_order": [1, 0], "col_order": [1, 2, 0]}):
        res = solve_integer(a, b, **kwargs)
        assert res.ok
        assert a.mul_vec(res.solution) == b


def test_kernel_basis_zero_and_row():
    assert kernel_basis(IntMatrix.zeros(2, 3)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    basis = kernel_basis(IntMatrix([[1, 1]]))
    assert len(basis) == 1
    assert basis[0] in ([1, -1], [-1, 1])


def test_kernel_vectors_annihilate():
    rng = random.Random(13)
    for _ in range(50):
        rows = random_matrix(rng, 3, 5)
        a = IntMatrix(rows)
        for v in kernel_basis(a):
            assert not any(a.mul_vec(v))


def test_determinant_matches_laplace():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert determinant(IntMatrix(rows)) == laplace_determinant(rows)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]).mul_vec([1, 2, 3])
    with pytest.raises(ValueError):
        determinant(IntMatrix([[1, 2]]))
