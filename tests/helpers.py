"""Conversions between full-size scipy matrices and the free-block CSR
operators that the solvers take."""

import scipy.sparse as sp

from expctrl.fem import CSR


def free_block(mesh, A):
    """The free-block operator of a full-size matrix: the CSR of its
    rows and columns off the boundary."""
    free = ~mesh.boundary
    return CSR.of(A.tocsr()[free][:, free])


def scipy_csr(op):
    """A scipy CSR matrix on copies of a CSR operator's arrays, so that
    in-place scipy methods leave the operator alone."""
    return sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape,
                         copy=True)
