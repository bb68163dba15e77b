"""Premium sensitivities to layer terms (finite differences).

The underwriting workflow the real-time pricer enables (§II) is not one
quote but a *gradient*: how does the technical premium move if the
attachment rises a million, the limit stretches, the share changes?
This module computes one-sided finite-difference sensitivities of any
layer statistic to each financial term, re-running the engine per bump —
cheap precisely because the engine is fast, which is the paper's point.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

from repro.core.engines import Engine
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.tables import YetTable, YltTable
from repro.errors import AnalysisError

__all__ = ["term_sensitivities", "expected_loss_fn"]

#: Terms a bump can be applied to.
_BUMPABLE = ("occ_retention", "occ_limit", "agg_retention", "agg_limit",
             "participation")


def expected_loss_fn(ylt: YltTable) -> float:
    """Default statistic: the layer's expected annual loss."""
    return ylt.mean()


def term_sensitivities(
    layer: Layer,
    yet: YetTable,
    statistic: Callable[[YltTable], float] = expected_loss_fn,
    bump_fraction: float = 0.05,
    engine: str | Engine = "vectorized",
    terms: tuple[str, ...] = _BUMPABLE,
    *,
    session=None,
) -> dict[str, float]:
    """d(statistic)/d(term) per unit of term, by one-sided differences.

    Each named term is bumped by ``bump_fraction`` of its value (absolute
    bump of the layer's mean retained loss scale when the base value is
    zero or infinite), the engine re-runs, and the slope is reported.

    Returns ``{term: slope}``; a negative slope on ``occ_retention``
    (raising the attachment cheapens the layer) is the sanity check.

    The sweep runs on a :class:`~repro.session.RiskSession`: the one
    passed as ``session`` (over this ``yet``), or a private one closed on
    return.  ``engine`` resolves through :meth:`RiskSession.engine
    <repro.session.RiskSession.engine>` — a name or ``"auto"`` is the
    session's warm engine, so every bump reuses one staged substrate;
    an :class:`~repro.core.engines.Engine` instance is used as-is and
    keeps its own lifecycle.
    """
    if not (0.0 < bump_fraction < 1.0):
        raise AnalysisError("bump_fraction must lie in (0, 1)")
    if session is None:
        from repro.session import RiskSession

        with RiskSession(yet) as private:
            return term_sensitivities(layer, yet, statistic, bump_fraction,
                                      engine, terms, session=private)
    session.check_yet(yet, "sweep")
    eng = session.engine(engine)

    def run(l: Layer) -> float:
        res = eng.run(Portfolio([l]), yet)
        return statistic(res.ylt_by_layer[l.layer_id])

    base_value = run(layer)
    base_terms = layer.terms
    # A characteristic money scale for zero/inf bases.
    scale = max(base_terms.occ_retention, 1.0)

    out = {}
    for name in terms:
        if name not in _BUMPABLE:
            raise AnalysisError(
                f"unknown term {name!r}; bumpable: {_BUMPABLE}"
            )
        current = getattr(base_terms, name)
        if name == "participation":
            bump = -bump_fraction * current  # stay within (0, 1]
        elif math.isinf(current) or current == 0.0:
            bump = bump_fraction * scale
        else:
            bump = bump_fraction * current
        bumped_value = current + bump
        if math.isinf(current):
            # Bumping an unlimited term means *introducing* a cap near
            # the observed losses; skip instead of inventing one.
            out[name] = 0.0
            continue
        bumped_terms = dataclasses.replace(
            base_terms, **{name: bumped_value}
        )
        bumped_layer = Layer(layer.layer_id, layer.elts, bumped_terms,
                             weights=layer.weights)
        out[name] = (run(bumped_layer) - base_value) / bump
    return out
