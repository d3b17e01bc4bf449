"""Independent reference routes for the tests: a Weyl element as the integer
matrix of its word in simple-root coordinates."""

from shiftlab.liealg import mat_vec


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def weyl_matrix(rs, word):
    """The product of the simple-reflection matrices along ``word``."""
    n = rs.rank
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        # sigma_i(mu) = mu - (mu, alpha_i^vee) alpha_i changes coordinate i only
        m = mat_mul(m, tuple(tuple(int(k == j) - (rs.cartan[i][j] if k == i else 0)
                                   for j in range(n)) for k in range(n)))
    return m


def matrix_length(rs, m):
    """Number of positive roots the matrix sends to negative ones."""
    return sum(any(x < 0 for x in mat_vec(m, root)) for root in rs.positive_roots)
