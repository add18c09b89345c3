"""Dataset substrate: registry of paper workloads + synthetic generators.

The paper evaluates on three public datasets (Netflix, YahooMusic,
Hugewiki) and three synthesised industry-scale workloads (SparkALS,
Factorbird, Facebook — Table 5).  None of the public datasets can be
downloaded in this offline reproduction, so :mod:`repro.datasets.synthetic`
generates rating matrices with the same structural knobs the ALS / SGD
convergence behaviour depends on: a low-rank ground truth, additive noise,
and power-law (skewed) user/item activity.  The registry records the
full-scale characteristics for the analytical experiments and provides
consistently scaled-down versions for the ones that actually factorize.
:mod:`repro.datasets.split` holds out test ratings and
:mod:`repro.datasets.io` persists a rating matrix as ``.npz``.
"""

from repro.datasets.registry import (
    CUMF_LARGEST,
    DATASETS,
    FACEBOOK,
    FACTORBIRD,
    HUGEWIKI,
    NETFLIX,
    SPARKALS,
    YAHOOMUSIC,
    DatasetSpec,
    get_dataset,
)
from repro.datasets.synthetic import (
    SyntheticRatings,
    generate_ratings,
    powerlaw_weights,
)
from repro.datasets.split import train_test_split
from repro.datasets.io import load_ratings_npz, save_ratings_npz

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "NETFLIX",
    "YAHOOMUSIC",
    "HUGEWIKI",
    "SPARKALS",
    "FACTORBIRD",
    "FACEBOOK",
    "CUMF_LARGEST",
    "get_dataset",
    "SyntheticRatings",
    "generate_ratings",
    "powerlaw_weights",
    "train_test_split",
    "save_ratings_npz",
    "load_ratings_npz",
]
