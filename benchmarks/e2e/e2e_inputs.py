"""Seeded inputs and the independent reference answers.

Everything a workload prices is generated here from ``--seed`` with
``repro.bench.workloads`` and then held as *plain columns*: every set-up
cycle rebuilds fresh ``YetTable``/``Layer``/``Portfolio`` objects over
them, so no cached fingerprint, offsets, lookup, digest or kernel
survives from one cycle to the next.

One build serves all four workloads: the 32-layer portfolio of distinct
books is the aggregate workloads' input, and the quote workloads price
``n_candidates`` term variations over the book of its first layer
against the same YET.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.bench.workloads import build_portfolio_workload
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.tables import YET_SCHEMA, EltTable, YetTable
from repro.core.terms import LayerTerms
from repro.data.columnar import ColumnTable

#: Premium loadings of the sessions the benchmark builds (the defaults).
VOLATILITY_LOADING, TAIL_LOADING = 0.25, 0.02

#: The tolerance of every reference comparison (the library-wide bar).
RTOL, ATOL = 1e-9, 1e-6

_MEAN_LOSS = 5e5

SHAPES = {
    # ~500k occurrences over a 20,000-event catalogue: 16M lanes per
    # aggregate request, the shape BENCH_e13/e14/e18 were recorded on.
    "base": dict(n_layers=32, n_trials=2_000, mean_events_per_trial=250.0,
                 elts_per_layer=2, elt_rows=2_000, catalog_events=20_000,
                 n_candidates=512, cache_entries=256),
    # Same structure (32 distinct books, 32-row tail groups, a cache the
    # rotating candidates overflow) at a size the tier-1 smoke can afford.
    # Kept dense (~40 loss occurrences per trial): on sparse trials annual
    # losses tie at an occurrence limit and TVaR flips on their last ulp.
    "tiny": dict(n_layers=32, n_trials=200, mean_events_per_trial=80.0,
                 elts_per_layer=2, elt_rows=600, catalog_events=2_000,
                 n_candidates=128, cache_entries=64),
}

#: Candidates per burst taken from the fixed hot set / from the rotation.
HOT, COLD = 32, 32


@dataclass
class Inputs:
    """The generated columns of one seed, plus fresh-object builders."""

    seed: int
    shape: dict
    n_trials: int
    yet_cols: dict
    books: list          # per layer: list of (event_ids, mean_losses, sigmas)
    book_terms: list     # per layer: LayerTerms
    cand_terms: list     # per candidate: LayerTerms
    _ref_cache: dict = field(default_factory=dict, repr=False)

    # -- fresh objects (what a set-up cycle pays for) -----------------------

    def fresh_yet(self) -> YetTable:
        return YetTable(ColumnTable.from_arrays(YET_SCHEMA, **self.yet_cols),
                        self.n_trials)

    def _fresh_elts(self, book: int) -> list:
        return [EltTable.from_arrays(ids, losses, sigmas,
                                     contract_id=book * 100 + i)
                for i, (ids, losses, sigmas) in enumerate(self.books[book])]

    def fresh_portfolio(self) -> Portfolio:
        return Portfolio([Layer(i, self._fresh_elts(i), terms)
                          for i, terms in enumerate(self.book_terms)])

    def fresh_candidates(self) -> list:
        elts = self._fresh_elts(0)
        return [Layer(1000 + i, elts, terms)
                for i, terms in enumerate(self.cand_terms)]

    def burst(self, candidates: list, i: int) -> tuple[list, list]:
        """Burst ``i``: the hot set plus the next ``COLD`` of the rotation.

        Returns ``(candidate indices, layers)``.
        """
        n_cold = len(candidates) - HOT
        idx = list(range(HOT)) + [HOT + (i * COLD + j) % n_cold
                                  for j in range(COLD)]
        return idx, [candidates[k] for k in idx]

    def digest(self) -> str:
        """Content hash of every generated column (reproducibility proof)."""
        h = hashlib.blake2b(digest_size=16)
        for name in ("trial", "seq", "event_id"):
            h.update(np.ascontiguousarray(self.yet_cols[name]).data)
        for book in self.books:
            for arrays in book:
                for a in arrays:
                    h.update(np.ascontiguousarray(a).data)
        for terms in (*self.book_terms, *self.cand_terms):
            h.update(repr(terms).encode())
        return h.hexdigest()

    # -- independent reference ---------------------------------------------

    def _reference(self, book: int, terms: LayerTerms,
                   trial_stop: int | None = None) -> np.ndarray:
        """Plain-NumPy YLT of one layer: merged table → gather →
        occurrence terms → ``bincount`` → aggregate terms.  Shares no
        code with the library's kernel."""
        trials, events = self.yet_cols["trial"], self.yet_cols["event_id"]
        n_trials = self.n_trials
        if trial_stop is not None:
            keep = np.searchsorted(trials, trial_stop)
            trials, events, n_trials = trials[:keep], events[:keep], trial_stop
        table = np.zeros(self.shape["catalog_events"])
        for ids, losses, _ in self.books[book]:
            table[ids] += losses
        occ = np.clip(table[events] - terms.occ_retention, 0.0, terms.occ_limit)
        annual = np.bincount(trials, weights=occ, minlength=n_trials)
        return (np.clip(annual - terms.agg_retention, 0.0, terms.agg_limit)
                * terms.participation)

    def reference_layer(self, book: int, trial_stop: int | None = None):
        key = ("layer", book, trial_stop)
        if key not in self._ref_cache:
            self._ref_cache[key] = self._reference(
                book, self.book_terms[book], trial_stop)
        return self._ref_cache[key]

    def reference_quote(self, candidate: int) -> dict:
        """The premium decomposition of the candidate's reference YLT.

        TVaR averages the trials at or above VaR, and trials whose only
        retained occurrence sits at the occurrence limit tie there to
        the last ulp — so which of them a path includes is not a
        property of its correctness.  The reference therefore gives the
        tail load as the interval between "all ties in" and "all out".
        """
        key = ("quote", candidate)
        if key not in self._ref_cache:
            terms = self.cand_terms[candidate]
            ylt = self._reference(0, terms)
            var = float(np.quantile(ylt, 0.99))
            eps = ATOL + RTOL * abs(var)
            tails = [float(t.mean()) if t.size else float(ylt.max())
                     for t in (ylt[ylt >= var - eps], ylt[ylt > var + eps])]
            self._ref_cache[key] = dict(
                expected=float(ylt.mean()),
                vol_load=VOLATILITY_LOADING * float(ylt.std(ddof=1)),
                tail_lo=TAIL_LOADING * min(tails),
                tail_hi=TAIL_LOADING * max(tails),
                occ_limit=terms.occ_limit,
            )
        return self._ref_cache[key]

    def quote_matches(self, candidate: int, quote) -> bool:
        ref = self.reference_quote(candidate)
        tol = ATOL + RTOL * abs(ref["tail_hi"])
        return (close_to(quote.expected_loss, ref["expected"])
                and close_to(quote.volatility_load, ref["vol_load"])
                and ref["tail_lo"] - tol <= quote.tail_load <= ref["tail_hi"] + tol
                and close_to(quote.premium, quote.expected_loss
                             + quote.volatility_load + quote.tail_load)
                and close_to(quote.rate_on_line,
                             quote.premium / ref["occ_limit"]))


def build_inputs(seed: int, shape: str = "base") -> Inputs:
    spec = SHAPES[shape]
    wl = build_portfolio_workload(
        n_layers=spec["n_layers"], n_trials=spec["n_trials"],
        mean_events_per_trial=spec["mean_events_per_trial"],
        elts_per_layer=spec["elts_per_layer"], elt_rows=spec["elt_rows"],
        catalog_events=spec["catalog_events"], seed=seed,
    )
    table = wl.yet.table
    rng = np.random.default_rng([seed, 0xC0DE])
    # Occurrence retentions stay below 8 mean losses so that, at a few
    # hundred occurrences per trial, every candidate row passes the
    # kernel's shifted-clip error bound and factors to clip(g, lo, hi):
    # a same-book stack of >= 16 of them is a tail group.
    cand_terms = [
        LayerTerms(
            occ_retention=rng.uniform(1.0, 8.0) * _MEAN_LOSS,
            occ_limit=rng.uniform(20.0, 60.0) * _MEAN_LOSS,
            agg_retention=rng.uniform(4.0, 12.0) * _MEAN_LOSS,
            agg_limit=rng.uniform(1000.0, 3000.0) * _MEAN_LOSS,
            participation=rng.uniform(0.5, 0.9),
        )
        for _ in range(spec["n_candidates"])
    ]
    return Inputs(
        seed=seed, shape=dict(spec), n_trials=wl.yet.n_trials,
        yet_cols={name: np.array(table[name])
                  for name in ("trial", "seq", "event_id")},
        books=[[(np.array(e.event_ids), np.array(e.mean_losses),
                 np.array(e.sigmas)) for e in layer.elts]
               for layer in wl.portfolio],
        book_terms=[layer.terms for layer in wl.portfolio],
        cand_terms=cand_terms,
    )


def quote_fields(quote) -> tuple:
    """The latency-free fields of a ``PricingQuote``."""
    return (quote.expected_loss, quote.volatility_load, quote.tail_load,
            quote.premium, quote.rate_on_line)


def close_to(value, reference) -> bool:
    return bool(np.allclose(value, reference, rtol=RTOL, atol=ATOL,
                            equal_nan=True))
