"""Hermitian assembly from one length-ordered gather equals the per-group algorithm bit for bit.

``compute_hermitians`` gathers ``[θ_v | r_uv]`` once with the rows in
rating-count order and writes each run's ``Gᵀ G[:, :, :f]`` product
straight into its rows' places in ``A`` and ``B``.
``_reference_compute_hermitians`` keeps the algorithm it replaced (one
up-front gather, a second gather per row length, scatters into
zero-filled A and B, and a strided λ pass) as the oracle, and every
comparison is of the int64 bits.

OpenBLAS splits a product above roughly 10⁶ multiply-adds across its
threads by output shape, and the two algorithms hand it transposed output
shapes.  The in-process property therefore keeps products below that
size; ``test_long_rows_match_under_one_blas_thread`` covers long rows and
large ``f`` in a child process pinned to one BLAS thread, as the
end-to-end benchmark runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.reduction import numeric_reduce
from repro.core.hermitian import batch_solve, compute_hermitians
from repro.sparse.csr import CSRMatrix

ROOT = Path(__file__).resolve().parents[1]


def _reference_compute_hermitians(r, theta, lam, row_start=0, row_stop=None, weighted=True):
    """The per-group assembly that the one-gather version replaced."""
    theta = np.asarray(theta, dtype=np.float64)
    row_stop = r.shape[0] if row_stop is None else row_stop
    f = theta.shape[1]
    rows = row_stop - row_start
    lo, hi = r.indptr[row_start], r.indptr[row_stop]
    cols = r.indices[lo:hi]
    vals = r.data[lo:hi]
    indptr = r.indptr[row_start : row_stop + 1] - lo
    gathered = np.empty((hi - lo, f + 1), dtype=np.float64)
    gathered[:, :f] = theta[cols]
    gathered[:, f] = vals
    counts = np.diff(indptr)
    a = np.zeros((rows, f, f), dtype=np.float64)
    b = np.zeros((rows, f), dtype=np.float64)
    order = np.argsort(counts, kind="stable")
    lengths = counts[order]
    starts = np.flatnonzero(np.diff(lengths, prepend=0))
    for lo_k, hi_k in zip(starts, np.append(starts[1:], rows)):
        sel = order[lo_k:hi_k]
        g = gathered[indptr[sel, None] + np.arange(lengths[lo_k])]
        ab = np.matmul(g[:, :, :f].transpose(0, 2, 1), g)
        a[sel] = ab[:, :, :f]
        b[sel] = ab[:, :, f]
    diagonal = a.reshape(rows, f * f)[:, :: f + 1]
    diagonal += lam * counts[:, None] if weighted else lam
    return a, b


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.int64)


def _csr(gen: np.random.Generator, counts: np.ndarray, n: int) -> CSRMatrix:
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    nnz = int(indptr[-1])
    return CSRMatrix((counts.size, n), indptr, gen.integers(0, n, size=nnz), gen.normal(size=nnz))


@st.composite
def assembly_cases(draw):
    """A CSR matrix, Θ, a row sub-range, λ and the λ weighting.

    Row lengths: all zero (zero nnz), mixed with empty rows, one shared
    length, many distinct lengths, or short rows plus one long row.
    """
    f = draw(st.integers(1, 40))
    m = draw(st.integers(0, 30))
    n = draw(st.integers(1, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["zero", "mixed", "same", "many", "long"]))
    if shape == "zero":
        counts = np.zeros(m, dtype=np.int64)
    elif shape == "mixed":
        counts = gen.integers(0, 6, size=m)
    elif shape == "same":
        counts = np.full(m, gen.integers(1, 9))
    elif shape == "many":
        counts = gen.permutation(m) + gen.integers(0, 2, size=m)
    else:
        counts = gen.integers(0, 3, size=m)
        if m:
            counts[gen.integers(m)] = 300
    r = _csr(gen, counts, n)
    theta = gen.normal(size=(n, f))
    row_start = draw(st.integers(0, m))
    row_stop = draw(st.integers(row_start, m))
    lam = draw(st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
    return r, theta, lam, row_start, row_stop, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(assembly_cases())
def test_one_gather_matches_the_per_group_reference_bit_for_bit(case):
    r, theta, lam, row_start, row_stop, weighted = case
    a, b = compute_hermitians(r, theta, lam, row_start, row_stop, weighted=weighted)
    want_a, want_b = _reference_compute_hermitians(r, theta, lam, row_start, row_stop, weighted=weighted)
    assert a.shape == want_a.shape and b.shape == want_b.shape
    assert np.array_equal(_bits(a), _bits(want_a))
    assert np.array_equal(_bits(b), _bits(want_b))


@settings(max_examples=60, deadline=None)
@given(assembly_cases())
def test_a_and_b_are_separate_contiguous_arrays(case):
    r, theta, lam, row_start, row_stop, weighted = case
    a, b = compute_hermitians(r, theta, lam, row_start, row_stop, weighted=weighted)
    assert a.flags.c_contiguous and b.flags.c_contiguous
    assert not np.shares_memory(a, b)


@settings(max_examples=60, deadline=None)
@given(assembly_cases(), st.integers(0, 2**32 - 1))
def test_solve_and_reduce_give_the_reference_bits(case, seed):
    """What the ALS passes do with A and B next is bitwise the reference's."""
    r, theta, lam, row_start, row_stop, weighted = case
    other = np.random.default_rng(seed).normal(size=theta.shape)
    got = [compute_hermitians(r, t, lam, row_start, row_stop, weighted=weighted) for t in (theta, other)]
    want = [_reference_compute_hermitians(r, t, lam, row_start, row_stop, weighted=weighted) for t in (theta, other)]
    assert np.array_equal(_bits(batch_solve(*got[0])), _bits(batch_solve(*want[0])))
    for part in (0, 1):
        assert np.array_equal(_bits(numeric_reduce([g[part] for g in got])), _bits(numeric_reduce([w[part] for w in want])))


def _long_row_mismatches() -> int:
    """Cases, over long rows and large ``f``, where the two assemblies differ in any bit."""
    gen = np.random.default_rng(7)
    mismatches = 0
    for f in (16, 32, 40, 64, 100):
        for counts in ([255, 255, 0, 255], [700, 3, 700], [1000, 1000], [0, 670, 671, 669, 670, 12]):
            r = _csr(gen, np.array(counts), 50)
            theta = gen.normal(size=(50, f))
            for weighted in (True, False):
                got = compute_hermitians(r, theta, 0.05, weighted=weighted)
                want = _reference_compute_hermitians(r, theta, 0.05, weighted=weighted)
                mismatches += not all(np.array_equal(_bits(x), _bits(y)) for x, y in zip(got, want))
    return mismatches


def test_long_rows_match_under_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])
    code = "from tests.test_hermitian_one_gather import _long_row_mismatches; print(_long_row_mismatches())"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "0"


class TestHostileInput:
    """Bad Θ shapes and λ values raise ``ValueError`` instead of failing late or solving silently."""

    def _r(self):
        return _csr(np.random.default_rng(0), np.array([2, 0, 3]), 4)

    @pytest.mark.parametrize("shape", [(4,), (4, 3, 2)], ids=["1-D", "3-D"])
    def test_theta_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            compute_hermitians(self._r(), np.ones(shape), 0.1)

    @pytest.mark.parametrize("lam", [-1.0, -1e-12, float("nan"), float("inf"), -float("inf")])
    def test_lambda_must_be_finite_and_non_negative(self, lam):
        with pytest.raises(ValueError, match="lam"):
            compute_hermitians(self._r(), np.ones((4, 3)), lam)

    def test_zero_lambda_stays_allowed(self):
        a, b = compute_hermitians(self._r(), np.ones((4, 3)), 0.0)
        assert a.shape == (3, 3, 3) and b.shape == (3, 3)
