#!/usr/bin/env python
"""Regenerate the paper's headline tables: Table 1 (cost) and Figure 11.

Everything here is analytical (no numerics): the cuMF side comes from
SU-ALS's own update graphs sized by each dataset and run on the simulated
GPUs, the baselines from the cluster model, and
the dollars from the AWS / Softlayer prices quoted in the paper.

Run:  python examples/cost_comparison.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import figure11_rows, table1_rows, reduction_rows
from repro.experiments.common import format_table


def main() -> None:
    print("=== Table 1: speed and cost of cuMF (1 machine, 4 GPUs) vs distributed CPU systems ===")
    print(format_table(table1_rows()))
    print("\npaper reference: 6-10x speed, 1-3% cost (33-100x cost efficiency)")

    print("\n=== Figure 11: per-iteration time on very large data sets ===")
    print(format_table(figure11_rows()))

    print("\n=== Section 4.2: parallel reduction ablation ===")
    print(format_table(reduction_rows()))


if __name__ == "__main__":
    main()
