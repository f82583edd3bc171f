import itertools
import math

import numpy as np
import pytest
import scipy.sparse

from conftest import kwise_basis_csr_reference, kwise_rows_reference, product_pmf
from kwrob import AnonymousReserve, build_polytope, minimize_revenue


def _random_tables(rng):
    n = int(rng.integers(1, 6))
    tables = []
    for _ in range(n):
        m = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(m))
        if m > 2 and rng.random() < 0.2:  # a zero-mass point is dropped
            w[int(rng.integers(m))] = 0.0
            w /= w.sum()
        tables.append((sorted(rng.uniform(0.0, 10.0, size=m).tolist()), w.tolist()))
    return tables, int(rng.integers(1, n + 1))


class TestBasisAgainstReference:
    def test_random_shapes(self, rng):
        for _ in range(40):
            tables, k = _random_tables(rng)
            poly = build_polytope(tables, k)
            shape = tuple(len(s) for s in poly.supports)
            A_ref, b_ref = kwise_rows_reference(shape, poly.masses, k)
            assert scipy.sparse.issparse(poly.A) and scipy.sparse.issparse(poly.A_red)
            assert np.array_equal(poly.A.toarray(), A_ref)
            assert np.array_equal(poly.b, b_ref)
            # the basis has full row rank, equal to the family's and to the
            # closed form 1 + sum_{1 <= |S| <= k} prod_{i in S} (m_i - 1)
            basis = poly.A_red.toarray()
            closed = 1 + sum(
                math.prod(shape[i] - 1 for i in subset)
                for size in range(1, k + 1)
                for subset in itertools.combinations(range(len(shape)), size)
            )
            rank = np.linalg.matrix_rank(A_ref)
            assert basis.shape[0] == np.linalg.matrix_rank(basis) == rank == closed
            # any point of the basis meets the whole family
            x_lsq = np.linalg.lstsq(basis, poly.b_red, rcond=None)[0]
            for x in (product_pmf(poly), x_lsq):
                assert np.max(np.abs(poly.A @ x - poly.b)) < 1e-10

    def test_basis_is_the_direct_build(self, rng):
        # the basis is taken as a row subset of the full family; the solver
        # must get exactly the matrix and right-hand side of a direct build
        for _ in range(40):
            tables, k = _random_tables(rng)
            poly = build_polytope(tables, k)
            shape = tuple(len(s) for s in poly.supports)
            indptr, indices, data, b_red = kwise_basis_csr_reference(shape, poly.masses, k)
            assert np.array_equal(poly.A_red.indptr, indptr) and poly.A_red.indptr.dtype == indptr.dtype
            assert np.array_equal(poly.A_red.indices, indices) and poly.A_red.indices.dtype == indices.dtype
            assert np.array_equal(poly.A_red.data, data)
            assert np.array_equal(poly.b_red, b_red)
            assert poly.A_red.shape == (indptr.size - 1, poly.n_cells)

    def test_all_bidders_degenerate(self):
        poly = build_polytope([([2.0], [1.0]), ([0.0, 3.0], [0.0, 1.0])], 2)
        assert poly.supports == [[2.0], [3.0]] and poly.shape == (1, 1) and poly.n_cells == 1
        assert poly.A.toarray().tolist() == poly.A_red.toarray().tolist() == [[1.0]]
        assert poly.b.tolist() == poly.b_red.tolist() == [1.0]
        sol = minimize_revenue(poly, AnonymousReserve(1.0))
        assert sol.objective == pytest.approx(2.0, abs=1e-12)  # second-highest value
        assert sol.table.supports == ((2.0,), (3.0,))
