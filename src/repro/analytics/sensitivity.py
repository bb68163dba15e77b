"""Premium sensitivities to layer terms (finite differences).

The underwriting workflow the real-time pricer enables (§II) is not one
quote but a *gradient*: how does the technical premium move if the
attachment rises a million, the limit stretches, the share changes?
This module computes one-sided finite-difference sensitivities of any
layer statistic to each financial term, pricing every bump beside the
base layer in one run — cheap precisely because the engine is fast,
which is the paper's point.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

from repro.core.engines import Engine
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.tables import YltTable
from repro.errors import AnalysisError

__all__ = ["term_sensitivities", "expected_loss_fn"]

#: Terms a bump can be applied to.
_BUMPABLE = ("occ_retention", "occ_limit", "agg_retention", "agg_limit",
             "participation")


def expected_loss_fn(ylt: YltTable) -> float:
    """Default statistic: the layer's expected annual loss."""
    return ylt.mean()


def term_sensitivities(
    session,
    layer: Layer,
    statistic: Callable[[YltTable], float] = expected_loss_fn,
    bump_fraction: float = 0.05,
    engine: str | Engine = "vectorized",
    terms: tuple[str, ...] = _BUMPABLE,
) -> dict[str, float]:
    """d(statistic)/d(term) per unit of term, by one-sided differences.

    Each named term is bumped by ``bump_fraction`` of its value (absolute
    bump of the layer's mean retained loss scale when the base value is
    zero or infinite), and the slope is reported.

    Returns ``{term: slope}``; a negative slope on ``occ_retention``
    (raising the attachment cheapens the layer) is the sanity check.

    The sweep prices the base layer and every finite bump as one
    portfolio (layer ids ``0..k``) in a single run over the
    :class:`~repro.session.RiskSession`'s YET.  The rows read one book,
    and there are too few of them for a tail group, so every row prices
    on lanes, where a row's answer depends on the row alone: each slope
    is the one separate runs would give.  ``engine`` resolves through
    :meth:`RiskSession.engine <repro.session.RiskSession.engine>` — a
    name or ``"auto"`` is the session's warm engine; an
    :class:`~repro.core.engines.Engine` instance is used as-is, on the
    dispatcher it rides.
    """
    if not (0.0 < bump_fraction < 1.0):
        raise AnalysisError("bump_fraction must lie in (0, 1)")
    base_terms = layer.terms
    # A characteristic money scale for zero/inf bases.
    scale = max(base_terms.occ_retention, 1.0)

    bumps: dict[str, float] = {}
    for name in terms:
        if name not in _BUMPABLE:
            raise AnalysisError(
                f"unknown term {name!r}; bumpable: {_BUMPABLE}"
            )
        current = getattr(base_terms, name)
        if math.isinf(current):
            # Bumping an unlimited term means *introducing* a cap near
            # the observed losses; skip instead of inventing one.
            continue
        if name == "participation":
            bumps[name] = -bump_fraction * current  # stay within (0, 1]
        elif current == 0.0:
            bumps[name] = bump_fraction * scale
        else:
            bumps[name] = bump_fraction * current
    variants = [Layer(0, layer.elts, base_terms, weights=layer.weights)]
    for name, bump in bumps.items():
        bumped_terms = dataclasses.replace(
            base_terms, **{name: getattr(base_terms, name) + bump}
        )
        variants.append(Layer(len(variants), layer.elts, bumped_terms,
                              weights=layer.weights))
    res = session.engine(engine).run(Portfolio(variants), session.yet)
    values = [statistic(res.ylt_by_layer[i]) for i in range(len(variants))]
    slopes = {name: (values[i] - values[0]) / bump
              for i, (name, bump) in enumerate(bumps.items(), start=1)}
    return {name: slopes.get(name, 0.0) for name in terms}
