"""Batched RC thermal dynamics: N buildings advanced in one array program.

The scalar :class:`~repro.building.thermal.RCNetwork` advances one
building's zone temperatures with a cached matrix-exponential propagator.
:class:`BatchRCNetwork` stacks N such networks — padded to the widest
zone count — so a whole fleet advances in a single batched ``matmul``:

    T'[n] = decay[n] @ T[n] + gain[n] @ forcing[n]        for all n at once

The per-network propagators are taken **from the scalar networks' own
caches**, so a batched step reproduces the scalar update to floating-point
round-off (the parity guarantee the vector environment tests rely on).
Zones beyond a network's true width are masked: their capacitance is 1,
all conductances and heat inputs are 0, and their propagator rows are 0,
so padded temperatures stay identically 0 forever.

Fleet state is stored structure-of-arrays (columnar ``capacitance``,
``ua_ambient``, ``zone_mask``) and the step arithmetic routes through a
pluggable :class:`~repro.backend.ArrayBackend` selected at construction.
The default numpy backend's operations are the numpy functions
themselves, so the default path stays bit-identical to the direct
expression; a jit-capable backend (e.g. jax) compiles the same kernel.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import List, Sequence, Tuple

import numpy as np

from repro.backend import ArrayBackend, BackendSpec, get_backend
from repro.building.thermal import RCNetwork
from repro.hvac.kernel import propagate
from repro.utils.validation import check_positive

#: Distinct step lengths whose stacked propagators are kept resident.
#: Each entry costs two ``(n_envs, z, z)`` arrays, so for 10k-building
#: fleets a runaway set of dt values would otherwise hold gigabytes.
PROPAGATOR_CACHE_SIZE = 4


class BatchRCNetwork:
    """N independent RC networks stepped as stacked arrays.

    Parameters
    ----------
    networks:
        The scalar per-building networks.  Each must have a non-singular
        dynamics matrix (every zone coupled to ambient through some path)
        — the same condition under which the scalar step uses its exact
        propagator rather than the Euler fallback.
    backend:
        Array-compute backend (name, instance, or ``None`` for the
        default numpy backend) executing the batched step arithmetic.
    cache_size:
        Maximum distinct ``dt`` values whose stacked propagators stay
        cached (least-recently-used eviction).  The overwhelmingly common
        single-dt case is served by a dedicated fast path and never pays
        for the bookkeeping.
    """

    def __init__(
        self,
        networks: Sequence[RCNetwork],
        *,
        backend: BackendSpec = None,
        cache_size: int = PROPAGATOR_CACHE_SIZE,
    ) -> None:
        if not networks:
            raise ValueError("need at least one network")
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        for k, net in enumerate(networks):
            if net._m_inverse is None:
                raise ValueError(
                    f"network {k} has a singular dynamics matrix (a zone is "
                    "isolated from ambient); batched stepping requires the "
                    "exact-propagator path"
                )
        self.networks: List[RCNetwork] = list(networks)
        self.n_envs = len(networks)
        self.max_zones = max(net.n_zones for net in networks)
        self.backend: ArrayBackend = get_backend(backend)

        n, z = self.n_envs, self.max_zones
        self.n_zones = np.array([net.n_zones for net in networks], dtype=int)
        self.zone_mask = np.zeros((n, z), dtype=bool)
        self.capacitance = np.ones((n, z))
        self.ua_ambient = np.zeros((n, z))
        for k, net in enumerate(networks):
            m = net.n_zones
            self.zone_mask[k, :m] = True
            self.capacitance[k, :m] = net.capacitance
            self.ua_ambient[k, :m] = net.ua_ambient

        b = self.backend
        # Columns live on the backend; numpy's asarray is a no-copy view.
        self._cap_col = b.asarray(self.capacitance)
        self._ua_col = b.asarray(self.ua_ambient)
        self._step_core = b.jit(functools.partial(propagate, b))

        self._cache_size = int(cache_size)
        self._propagator_cache: OrderedDict[
            float, Tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()
        # Single-dt fast path: the control loop steps with one dt for the
        # whole run, so the lookup must cost one tuple compare, not an
        # OrderedDict move_to_end.
        self._last_dt: float | None = None
        self._last_props: Tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------ propagators
    def _build_propagators(self, key: float) -> Tuple[np.ndarray, np.ndarray]:
        n, z = self.n_envs, self.max_zones
        decay = np.zeros((n, z, z))
        gain = np.zeros((n, z, z))
        for k, net in enumerate(self.networks):
            m = net.n_zones
            d, g = net._propagator(key)
            decay[k, :m, :m] = d
            gain[k, :m, :m] = g
        b = self.backend
        return b.asarray(decay), b.asarray(gain)

    def _propagators(self, dt_seconds: float) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked, zero-padded ``(decay, gain)`` for a step length.

        Cached per distinct ``dt`` with LRU eviction (see ``cache_size``);
        repeated calls with the same ``dt`` return the identical pair.
        """
        key = float(dt_seconds)
        if key == self._last_dt:
            return self._last_props  # type: ignore[return-value]
        cache = self._propagator_cache
        if key in cache:
            cache.move_to_end(key)
            props = cache[key]
        else:
            props = self._build_propagators(key)
            cache[key] = props
            while len(cache) > self._cache_size:
                cache.popitem(last=False)
        self._last_dt = key
        self._last_props = props
        return props

    # ---------------------------------------------------------------- stepping
    def step(
        self,
        temps: np.ndarray,
        temp_out: np.ndarray,
        heat_w: np.ndarray,
        dt_seconds: float,
    ) -> np.ndarray:
        """Advance all N networks one control step.

        Parameters
        ----------
        temps:
            Zone temperatures, shape ``(n_envs, max_zones)`` (padded
            entries are ignored and returned as 0).
        temp_out:
            Per-network ambient temperature, shape ``(n_envs,)``.
        heat_w:
            Per-zone heat input (solar + internal + HVAC), shape
            ``(n_envs, max_zones)``; padded entries must be 0.
        dt_seconds:
            Step length (inputs zero-order held, as in the scalar step).
        """
        check_positive("dt_seconds", dt_seconds)
        temps = np.asarray(temps, dtype=np.float64)
        temp_out = np.asarray(temp_out, dtype=np.float64)
        heat_w = np.asarray(heat_w, dtype=np.float64)
        shape = (self.n_envs, self.max_zones)
        if temps.shape != shape or heat_w.shape != shape:
            raise ValueError(
                f"temps and heat_w must have shape {shape}, "
                f"got {temps.shape} and {heat_w.shape}"
            )
        if temp_out.shape != (self.n_envs,):
            raise ValueError(
                f"temp_out must have shape ({self.n_envs},), got {temp_out.shape}"
            )
        decay, gain = self._propagators(dt_seconds)
        b = self.backend
        out = self._step_core(
            decay,
            gain,
            b.asarray(temps),
            b.asarray(temp_out),
            b.asarray(heat_w),
            self._cap_col,
            self._ua_col,
        )
        return b.to_numpy(out)

    def __repr__(self) -> str:
        return (
            f"BatchRCNetwork(n_envs={self.n_envs}, max_zones={self.max_zones}, "
            f"backend={self.backend.name!r})"
        )
