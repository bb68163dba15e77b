"""One SHA-256 over every engine's answer: a check that a change moved no
answer.

Runs ``RiskSession(yet, portfolio, n_workers=2).run_all()`` over
``build_portfolio_workload(32, 2000, 250, 2, 2000, 20000, seed=3)`` and
hashes each engine's per-layer YLT losses (``ylt_by_layer[*].losses``),
engines in registry order and layers in result order, into one digest.
Two checkouts that print the same hex agree bit for bit on every engine
and layer.

    python3 benchmarks/answer_hash.py
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from repro.bench.workloads import build_portfolio_workload  # noqa: E402
from repro.session import RiskSession  # noqa: E402


def answer_hash() -> str:
    wl = build_portfolio_workload(32, 2000, 250, 2, 2000, 20000, seed=3)
    h = hashlib.sha256()
    with RiskSession(wl.yet, wl.portfolio, n_workers=2) as session:
        for result in session.run_all().values():
            for ylt in result.ylt_by_layer.values():
                h.update(ylt.losses.tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    print(answer_hash())
