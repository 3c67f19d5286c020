"""``graphs.csr_product`` against scipy's own ``@``.

The product calls the compiled kernels that scipy's ``@`` dispatches to,
with the same arguments, so every result must equal scipy's bit for bit,
plain and transposed, whatever the operand's shape or memory layout.
"""

import importlib.machinery
import importlib.util

import numpy as np
import pytest
import scipy.sparse as sp

from transgap import graphs
from transgap.graphs import csr_product


def block(rows, cols, seed):
    """A random nonnegative CSR block with about a third of its entries
    stored and its first and last rows empty."""
    rng = np.random.default_rng(seed)
    dense = rng.random((rows, cols)) * (rng.random((rows, cols)) < 0.35)
    dense[[0, -1]] = 0.0
    a = sp.csr_array(dense)
    return a, (a.indptr.astype(np.int64), a.indices.astype(np.int64),
               a.data, a.shape)


def operands(n, seed):
    """Operands with n rows: 1-D, (n, 1), widths 2 and 64, and slices that
    are not C-contiguous."""
    rng = np.random.default_rng(seed)
    wide = rng.normal(size=(2 * n, 130))
    return {"vector": wide[:n, 0].copy(), "column": wide[:n, :1].copy(),
            "width 2": wide[:n, :2].copy(), "width 64": wide[:n, :64].copy(),
            "strided vector": wide[::2, 3], "strided rows": wide[::2, :64],
            "strided columns": wide[:n, 1::2], "fortran": np.asfortranarray(
                wide[:n, :5])}


@pytest.mark.parametrize("shape", [(30, 30), (17, 40), (40, 17), (1, 9)])
@pytest.mark.parametrize("transpose", [False, True])
def test_bits_equal_scipy_product(shape, transpose):
    a, link = block(*shape, seed=sum(shape))
    oracle = a.T if transpose else a
    for name, m in operands(oracle.shape[1], seed=shape[0]).items():
        got = csr_product(*link, m, transpose=transpose)
        want = oracle @ m
        assert got.shape == want.shape, name
        assert got.dtype == np.float64, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("rows", [16, 18, 0])
def test_operand_of_the_wrong_length(transpose, rows):
    _, link = block(17, 17, seed=0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        csr_product(*link, np.ones((rows, 3)), transpose=transpose)
    with pytest.raises(ValueError, match="dimension mismatch"):
        csr_product(*link, np.ones(rows), transpose=transpose)


def test_operand_of_three_axes():
    _, link = block(17, 17, seed=0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        csr_product(*link, np.ones((17, 2, 2)))


@pytest.fixture
def fresh_kernels():
    graphs._sparsetools.cache_clear()
    yield
    graphs._sparsetools.cache_clear()


def test_kernels_load_from_their_file(fresh_kernels):
    module = graphs._sparsetools()
    assert module.__spec__.loader.__class__ is (
        importlib.machinery.ExtensionFileLoader)
    assert module.__file__.endswith(
        tuple("_sparsetools" + s
              for s in importlib.machinery.EXTENSION_SUFFIXES))
    assert graphs._sparsetools() is module


@pytest.mark.parametrize("hide", ["package", "file"])
def test_fallback_import(hide, fresh_kernels, monkeypatch):
    # without scipy's location, or with no kernel file there, the kernels
    # come from scipy.sparse's own import
    if hide == "package":
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    else:
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                            [".missing"])
    from scipy.sparse import _sparsetools

    assert graphs._sparsetools() is _sparsetools
    a, link = block(12, 9, seed=4)
    m = np.random.default_rng(4).normal(size=(9, 3))
    assert np.array_equal(csr_product(*link, m), a @ m)
