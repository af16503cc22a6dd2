"""Regenerate ``reference.json``, the table the output checks compare with.

Usage, from the repository root: PYTHONPATH=src python3 benchmark/make_reference.py

- ``ber``: bit errors of each receiver and bits per Eb/N0 on the fixed
  check set, from 16 times the check's calls per point, with noise
  draws the check does not use.
- ``fingerprint``: strided LLRs of the checkpointed receiver on the fixed
  check grids, per network configuration.

Run it only when the link model itself changes on purpose, and say why in
the change that commits the new table.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from telempose import rx_neural  # noqa: E402

CALLS_PER_POINT = 16 * workloads.CHECK_CALLS_PER_POINT
FIRST_CALL = 1000


def main():
    errors, bits, finite = workloads.ber_counts(CALLS_PER_POINT, FIRST_CALL)
    if not finite:
        sys.exit("non-finite LLRs while building the BER reference")
    fingerprints = {}
    for net in (workloads.PAPER_NET, workloads.TINY_NET):
        cfg = rx_neural.NeuralRxConfig(**net)
        fingerprints[cfg.describe()] = workloads.fingerprint(workloads.shipped_receiver(cfg))
    table = {
        "ber": {"ebn0_db": list(workloads.EBN0_DB), "calls_per_point": CALLS_PER_POINT,
                "bits": bits, "ls": {"errors": errors["ls"]},
                "perfect": {"errors": errors["perfect"]}},
        "fingerprint": fingerprints,
    }
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
