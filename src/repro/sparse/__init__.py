"""From-scratch sparse-matrix substrate used throughout the cuMF reproduction.

The paper stores the rating matrix ``R`` in Compressed Sparse Row (CSR)
format on the GPU (and CSC for the update-Θ pass).  We implement the three
classic coordinate-compressed layouts on top of plain NumPy arrays rather
than relying on :mod:`scipy.sparse`, because the reproduction needs direct
access to the raw ``indptr`` / ``indices`` / ``data`` buffers to drive the
simulated-GPU traffic accounting and the grid partitioner.

Public classes
--------------
``COOMatrix``
    Coordinate (triplet) layout; the interchange/builder format.
``CSRMatrix``
    Compressed sparse row; used for the update-X pass (row gathers).
``CSCMatrix``
    Compressed sparse column; used for the update-Θ pass (column gathers).

Partitioning helpers (:mod:`repro.sparse.partition`) compute even
partition bounds and the ``p × q`` grid split of Algorithm 3 (SU-ALS);
:mod:`repro.sparse.ops` holds the sampled residual the metrics and the
SGD/CCD baselines share.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.partition import (
    GridPartition,
    Partition1D,
    grid_partition,
    partition_bounds,
)
from repro.sparse.ops import sampled_residual

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "Partition1D",
    "GridPartition",
    "partition_bounds",
    "grid_partition",
    "sampled_residual",
]
