"""Portfolios: the full book of layers a reinsurer prices together.

"A reinsurer typically may have tens of thousands of contracts and are
interested in quantifying the risk across their whole portfolio" (§II).
A :class:`Portfolio` is an ordered collection of layers with unique ids;
the portfolio YLT is the trial-aligned sum of the per-layer YLTs, which
is exact because every layer is driven by the *same* YET — this is the
whole point of pre-simulating one consistent set of trial years.
"""

from __future__ import annotations

from repro.core.layer import Layer
from repro.errors import ConfigurationError

__all__ = ["Portfolio"]


class Portfolio:
    """An ordered, id-unique collection of reinsurance layers."""

    __slots__ = ("layers", "_kernel")

    def __init__(self, layers) -> None:
        layers = tuple(layers)
        if not layers:
            raise ConfigurationError("a portfolio needs at least one layer")
        for layer in layers:
            if not isinstance(layer, Layer):
                raise ConfigurationError(f"expected Layer, got {type(layer).__name__}")
        ids = [l.layer_id for l in layers]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate layer ids: {ids}")
        self.layers = layers
        self._kernel = None

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def layer_ids(self) -> tuple[int, ...]:
        return tuple(l.layer_id for l in self.layers)

    @property
    def n_elts(self) -> int:
        return sum(l.n_elts for l in self.layers)

    def kernel(self):
        """The fused :class:`~repro.core.kernels.PortfolioKernel`.

        Precomputed once so repeated engine runs over the same portfolio
        skip the stacking work.  The cached kernel remembers the layers'
        lookups it was stacked from, so the documented
        :meth:`Layer.invalidate_lookup` mutation flow transparently
        rebuilds the kernel on next use instead of serving stale arrays.
        """
        lookups = tuple(layer.lookup() for layer in self.layers)
        if self._kernel is not None:
            kernel, built_from = self._kernel
            if all(a is b for a, b in zip(lookups, built_from)):
                return kernel
        from repro.core.kernels import PortfolioKernel

        kernel = PortfolioKernel.from_layers(self.layers)
        self._kernel = (kernel, lookups)
        return kernel

    def invalidate_kernels(self) -> None:
        """Drop the cached kernel and the layers' lookups (after mutating a
        layer's ELTs in place; equivalent to invalidating every layer)."""
        self._kernel = None
        for layer in self.layers:
            layer.invalidate_lookup()

    def layer(self, layer_id: int) -> Layer:
        for l in self.layers:
            if l.layer_id == layer_id:
                return l
        raise ConfigurationError(f"no layer {layer_id} in portfolio")

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)
