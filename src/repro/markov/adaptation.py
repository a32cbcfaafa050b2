"""Forward-backward adaptation of a-priori Markov chains (Algorithm 2).

This is the paper's central machinery (Section 5.2): given an object's
a-priori chain ``M^o(t)`` and its observations ``Θ^o``, two Bayesian sweeps
produce the a-posteriori, time-inhomogeneous transition model

``F^o_ij(t) = P(o(t+1) = s_j | o(t) = s_i, Θ^o)``

conditioned on *all* observations — past, present and future.  Sampling
from ``F`` yields only trajectories consistent with every observation
(versus an exponential rejection rate for naive Monte-Carlo, Section 5.1).

Observations are certain, so both sweeps factorise at every fix and the
unit of work is the *segment* between two consecutive fixes.
:func:`derive_segments` (for ingest and :func:`adapt_many`) groups segments
by gap and by the matrices they walk, and runs Algorithm 2 over each group
as one stacked CSR sweep per tic offset
(:func:`_sweep`) — all state vectors stay on their active support, so cost
scales with diamond width, not ``|S|``, and with the number of groups, not
the number of segments.  ``F(t)`` leaves the kernel as per-tic CSR arrays
(:class:`Segment`), which :func:`~repro.markov.compiled.compile_model`
flattens into one :class:`~repro.markov.compiled.ModelTables` record per
stretch without a per-row step.  On the native backend one C call per
group (:func:`_native_sweep`, :func:`repro.markov.native.adapt_sweep`)
derives the same records, byte for byte, and lays out their tables as it
goes, so they arrive compiled; the numpy :func:`_sweep` stays the
fallback and the byte reference.  The ``state -> (next_states, probs)`` row
dictionaries and :class:`~repro.markov.distributions.SparseDistribution`
marginals are views materialised on demand for the exact oracle, the
reference sampler and the tests.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import native as native_tier
from .chain import TransitionModel
from .compiled import CompiledModel, ModelTables, compile_models
from .distributions import SparseDistribution

__all__ = [
    "ObservationContradictionError",
    "Segment",
    "Records",
    "AdaptedModel",
    "adapt_model",
    "adapt_many",
    "derive_segments",
    "compiled_views",
]

RowDist = tuple[np.ndarray, np.ndarray]
#: One tic of ``F``: CSR rows ``(support, indptr, next_states, probs)``.
Layer = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class ObservationContradictionError(ValueError):
    """Observations are unreachable under the a-priori chain.

    Algorithm 2 requires non-contradicting observations (Section 5.2.1): an
    observed state with zero forward probability means the chain's support
    cannot explain the data.
    """


@dataclass(eq=False)
class Segment:
    """Derived state of one inter-observation stretch of an adapted model.

    The unit of reuse on the write path: everything here is a pure function
    of :attr:`key` and the chain, so a model adapted after one more fix
    shares the records of every stretch the fix did not touch.  A record
    owns its arrays (cut out of the batch that derived it), so a retired
    stretch frees its memory whatever became of its batch peers.

    Attributes
    ----------
    key:
        ``(t0, s0, t1, s1)`` — the bounding fixes; ``s1`` is ``None`` for
        the open cone past the last observation (``extend_to``).
    layers:
        ``F(t)`` for ``t0 <= t < t1`` as CSR rows over the posterior
        support at ``t``: ``(support, indptr, next_states, probs)``.
    posterior:
        Posterior marginals ``(states, probs)`` for ``t0 <= t <= t1``;
        ``posterior[k][0]`` *is* ``layers[k][0]``.
    forward:
        Forward marginals ``(states, probs)`` for ``t0 < t <= t1``.
    compiled:
        The :class:`~repro.markov.compiled.ModelTables` of these tics once
        :func:`~repro.markov.compiled.compile_model` has flattened them —
        carried along with the record, so they are flattened once.
    """

    key: tuple[int, int | None, int, int | None]
    layers: list[Layer]
    posterior: list[RowDist]
    forward: list[RowDist]
    compiled: ModelTables | None = field(default=None, repr=False)

    # The views below exist for the exact oracle, the reference sampler of
    # ``tests/oracles/``, the Fig. 12 ablation and the tests; nothing on
    # the tick path asks.
    @cached_property
    def transitions(self) -> dict[int, dict[int, RowDist]]:
        """``F(t)`` as ``state -> (next_states, probs)`` row dictionaries."""
        return {
            self.key[0] + k: {
                state: (next_states[lo:hi], probs[lo:hi])
                for state, lo, hi in zip(
                    support.tolist(), indptr[:-1].tolist(), indptr[1:].tolist()
                )
            }
            for k, (support, indptr, next_states, probs) in enumerate(self.layers)
        }

    @cached_property
    def posteriors(self) -> dict[int, SparseDistribution]:
        return {
            t: SparseDistribution(*dist)
            for t, dist in enumerate(self.posterior, start=self.key[0])
        }

    @cached_property
    def forwards(self) -> dict[int, SparseDistribution]:
        return {
            t: SparseDistribution(*dist)
            for t, dist in enumerate(self.forward, start=self.key[0] + 1)
        }


class Records(NamedTuple):
    """Records derived under ``chain`` that no model holds yet (an object's,
    from ingest): a donor to :func:`adapt_many` like a model."""

    chain: TransitionModel
    segments: tuple[Segment, ...]


class _Merged(Mapping):
    """One kind of the records' views (``"transitions"`` / ``"posteriors"`` /
    ``"forwards"``) as a single read-only ``dict`` over the model's span,
    merged when first asked for.  Plain attributes, no closure: shard views
    pickle their objects, models included."""

    __slots__ = ("_segments", "_name", "_first_fix", "_dict")

    def __init__(
        self,
        segments: tuple[Segment, ...],
        name: str,
        first_fix: tuple[int, int] | None = None,
    ) -> None:
        self._segments, self._name, self._first_fix = segments, name, first_fix
        self._dict: dict | None = None

    def _built(self) -> dict:
        if self._dict is None:
            out = {}
            if self._first_fix is not None:  # the one tic no record covers
                out[self._first_fix[0]] = SparseDistribution.point(self._first_fix[1])
            for seg in self._segments:
                out.update(getattr(seg, self._name))
            self._dict = out
        return self._dict

    def __getitem__(self, key):
        return self._built()[key]

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())


@dataclass
class AdaptedModel:
    """The a-posteriori model of one object.

    Attributes
    ----------
    t_first, t_last:
        Time span covered (first and last observation times).  Outside this
        span the object's position is undefined — the paper only reasons
        about trajectories between first and last observation.
    transitions:
        ``transitions[t][s]`` is the conditional distribution of the state
        at ``t+1`` given state ``s`` at ``t`` and all observations (matrix
        ``F(t)`` of Algorithm 2), stored as ``(next_states, probs)`` rows.
    posteriors:
        ``P(o(t) = · | Θ^o)`` for every ``t`` in the span.
    forwards:
        ``P(o(t) = · | past observations up to t)`` — the forward-phase
        marginals, kept for the "forward-only" ablation of Fig. 12.
    """

    t_first: int
    t_last: int
    transitions: dict[int, dict[int, RowDist]]
    posteriors: dict[int, SparseDistribution]
    forwards: dict[int, SparseDistribution]
    observation_times: tuple[int, ...] = field(default=())
    #: The chain the model was adapted under and its per-stretch records
    #: (set by :func:`adapt_many`, whose three mappings above are built from
    #: the records on first use).  A hand-assembled model has neither.
    chain: TransitionModel | None = field(
        default=None, init=False, repr=False, compare=False
    )
    segments: tuple[Segment, ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    _compiled: CompiledModel | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def compiled(self) -> CompiledModel:
        """The flattened sampling view of ``F`` (built lazily, then cached)."""
        return compiled_views([self])[0]

    def stretches(self) -> tuple[Segment, ...]:
        """The records :func:`~repro.markov.compiled.compile_models` flattens, in time order.

        :attr:`segments` — or, for a hand-assembled model, its row
        dictionaries packed into one anonymous stretch (the key of no real
        stretch matches it, so it is never carried over).
        """
        if self.segments or self.t_first == self.t_last:
            return self.segments
        layers = []
        for t in range(self.t_first, self.t_last):
            rows = self.transitions[t]
            support = np.array(sorted(rows), dtype=np.intp)
            if not np.array_equal(support, self.posteriors[t].states):
                raise ValueError(
                    "adapted model is inconsistent: transition rows at time "
                    f"{t} do not match the posterior support"
                )
            parts = [rows[state] for state in support.tolist()]
            indptr = np.zeros(support.size + 1, dtype=np.intp)
            np.cumsum([next_states.size for next_states, _ in parts], out=indptr[1:])
            layers.append(
                (
                    support,
                    indptr,
                    np.concatenate([p[0] for p in parts]).astype(np.intp, copy=False),
                    np.concatenate([p[1] for p in parts]),
                )
            )
        tics = range(self.t_first, self.t_last + 1)
        key = (self.t_first, None, self.t_last, None)
        posterior = [(d.states, d.probs) for d in (self.posteriors[t] for t in tics)]
        forward = [(d.states, d.probs) for d in (self.forwards[t] for t in tics[1:])]
        return (Segment(key, layers, posterior, forward),)

    def covers(self, t: int) -> bool:
        """Whether the object's uncertain trajectory is defined at ``t``."""
        return self.t_first <= t <= self.t_last

    def posterior(self, t: int) -> SparseDistribution:
        """Marginal a-posteriori state distribution at ``t``."""
        if not self.covers(t):
            raise KeyError(f"time {t} outside adapted span [{self.t_first}, {self.t_last}]")
        return self.posteriors[t]

    def forward_marginal(self, t: int) -> SparseDistribution:
        """Forward-phase marginal (conditioned on past observations only)."""
        if not self.covers(t):
            raise KeyError(f"time {t} outside adapted span [{self.t_first}, {self.t_last}]")
        return self.forwards[t]

    def transition_row(self, t: int, state: int) -> RowDist:
        """Posterior transition distribution from ``state`` at ``t`` to ``t+1``."""
        return self.transitions[t][state]

    # ------------------------------------------------------------------
    def sample_paths(
        self,
        rng: np.random.Generator,
        n: int,
        t_start: int | None = None,
        t_end: int | None = None,
        start_states: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw ``n`` trajectories over ``[t_start, t_end]`` from ``F``.

        Every returned trajectory is consistent with all observations; the
        rows are i.i.d. samples of the a-posteriori stochastic process.
        Returns an ``(n, t_end - t_start + 1)`` integer array of states.

        Samples through the flattened :attr:`compiled` view — one
        vectorized inverse-CDF transform per timestep, one
        ``rng.random(n)`` per timestep; the row-dict walk over
        :attr:`transitions` that consumes the stream identically is its
        byte oracle (``tests.oracles.reference_sample_paths``), and the
        engine's arena draws (numpy or C) are bit-identical to it.

        ``start_states`` resumes ``n`` previously sampled paths from their
        known states at ``t_start``: the initial variate is *not* consumed
        and the first output column echoes ``start_states``.  Sampling
        ``[a, m]`` and then resuming over ``[m, b]`` from the same generator
        therefore consumes the stream exactly like one draw of ``[a, b]``
        — forward extension of cached worlds stays
        bit-identical to one-shot sampling.
        """
        a = self.t_first if t_start is None else int(t_start)
        b = self.t_last if t_end is None else int(t_end)
        if a > b:
            raise ValueError(f"empty sampling window [{a}, {b}]")
        if not (self.covers(a) and self.covers(b)):
            raise KeyError(
                f"window [{a}, {b}] outside adapted span [{self.t_first}, {self.t_last}]"
            )
        return self.compiled.sample_paths(rng, n, a, b, start_states=start_states)

    def expected_positions(self, coords: np.ndarray) -> dict[int, np.ndarray]:
        """Posterior-mean position per timestep (diagnostics/examples)."""
        out = {}
        for t in range(self.t_first, self.t_last + 1):
            dist = self.posteriors[t]
            out[t] = dist.probs @ coords[dist.states]
        return out


def compiled_views(models: Sequence[AdaptedModel]) -> list[CompiledModel]:
    """Every model's :attr:`AdaptedModel.compiled`: the views not built yet
    are built together, in one :func:`~repro.markov.compiled.compile_models`
    pass over every stretch none of them has compiled."""
    pending = list({id(m): m for m in models if m._compiled is None}.values())
    for model, compiled in zip(pending, compile_models(pending)):
        model._compiled = compiled
    return [model._compiled for model in models]


def adapt_model(
    chain: TransitionModel,
    observations: list[tuple[int, int]],
    extend_to: int | None = None,
    donor: AdaptedModel | Records | None = None,
) -> AdaptedModel:
    """Run Algorithm 2 for one object — the single-request case of
    :func:`adapt_many`, raising what that returns as the request's error.

    Parameters
    ----------
    chain:
        The object's a-priori transition model ``M^o(t)``.
    observations:
        ``(time, state)`` pairs; must be time-sorted with distinct times
        and at least one entry.  The locations of observations are certain
        (Section 3.1).
    extend_to:
        Optionally extend the model past the last observation up to this
        time using the unconditioned a-priori chain (there is no future
        evidence to incorporate) — e.g. Example 1 of the paper, where all
        uncertainty lies *after* the single observation per object.
    donor:
        A model adapted earlier under the same ``chain`` object (typically
        the one a newly ingested fix replaced), or :class:`Records` derived
        under it.  Segments whose bounding fixes are unchanged are
        carried over from it — shared, not copied, and byte-identical to
        recomputing them; a donor of another chain is ignored.

    Returns
    -------
    AdaptedModel
        The a-posteriori transition matrices ``F(t)``, posterior and
        forward marginals.

    Raises
    ------
    ObservationContradictionError
        When an observation has zero probability under the chain given the
        preceding observations.
    """
    (model,) = adapt_many([(chain, observations, extend_to, donor)])
    if isinstance(model, ValueError):
        raise model
    return model


def adapt_many(
    requests: Sequence[
        tuple[TransitionModel, list[tuple[int, int]], int | None, AdaptedModel | Records | None]
    ],
    native: bool = False,
) -> list[AdaptedModel | ValueError]:
    """Run Algorithm 2 for many objects at once.

    Each request is ``(chain, observations, extend_to, donor)`` as in
    :func:`adapt_model`.  Observations are certain, so both sweeps
    factorise at every fix: the forward marginal collapses to a point there
    and the posterior at an observation tic is exactly ``([θ], [1.0])``.
    ``F(t)`` between two consecutive fixes is therefore a pure function of
    that pair and the chain, and a model is assembled from one
    :class:`Segment` per pair.  The segments no donor supplies are pooled
    over all requests and derived by one :func:`derive_segments` call: one
    homogeneous chain forms one group per gap length, inhomogeneous or
    per-object chains simply form smaller ones, and with ``native`` (an
    engine on the native backend) the C sweep also lays out every derived
    stretch's :class:`~repro.markov.compiled.ModelTables`, so a later
    :func:`~repro.markov.compiled.compile_models` finds them compiled.
    Both give the same bytes.

    Returns one entry per request, in order: the model, or the error that
    :func:`adapt_model` raises for it.  A request fails alone (its earliest
    contradicting segment is the one reported); its batch peers get their
    models.
    """
    plans: list[tuple | ValueError] = []
    pending: list[tuple[TransitionModel, tuple]] = []  # no donor supplies these
    slots: list[tuple[list, int]] = []
    for chain, observations, extend_to, donor in requests:
        obs = [(int(t), int(s)) for t, s in observations]
        try:
            _check_observations(chain, obs)
        except ValueError as exc:
            plans.append(exc)
            continue
        keys = [(*first, *second) for first, second in zip(obs, obs[1:])]
        if extend_to is not None and int(extend_to) > obs[-1][0]:
            keys.append((*obs[-1], int(extend_to), None))
        carried: dict[tuple, Segment] = (
            {seg.key: seg for seg in donor.segments}
            if donor is not None and donor.chain is chain
            else {}
        )
        segments = [carried.get(key) for key in keys]
        for slot, key in enumerate(keys):
            if segments[slot] is None:
                pending.append((chain, key))
                slots.append((segments, slot))
        plans.append((chain, obs, segments))
    for (segments, slot), segment in zip(slots, derive_segments(pending, native)):
        segments[slot] = segment

    models: list[AdaptedModel | ValueError] = []
    for plan in plans:
        if isinstance(plan, ValueError):
            models.append(plan)
            continue
        chain, obs, segments = plan
        # Segments are in time order, so the earliest contradiction is the
        # one reported — carried-over segments have none.
        error = next((seg for seg in segments if isinstance(seg, ValueError)), None)
        models.append(error or _assemble(chain, obs, tuple(segments)))
    return models


def derive_segments(
    pending: Sequence[tuple[TransitionModel, tuple[int, int, int, int | None]]],
    native: bool = False,
) -> list[Segment | ObservationContradictionError]:
    """Each ``(chain, key)`` segment's record (or error), in order: one
    :func:`_sweep` (with ``native``, one C call that also compiles) per
    group of segments walking the same ``chain.csr_arrays(t)``."""
    groups: dict[tuple, tuple[tuple, int, list[int]]] = {}
    spans: dict[tuple, tuple] = {}  # the matrices of each (chain, t0, t1), looked up once
    for i, (chain, key) in enumerate(pending):
        span = (id(chain), key[0], key[2])
        if span not in spans:
            spans[span] = tuple(chain.csr_arrays(t) for t in range(key[0], key[2]))
        mats = spans[span]
        groups.setdefault(tuple(map(id, mats)), (mats, chain.n_states, []))[2].append(i)
    sweep = _native_sweep if native else _sweep
    derived: list = [None] * len(pending)
    for mats, n_states, members in groups.values():
        for i, segment in zip(members, sweep(mats, n_states, [pending[i][1] for i in members])):
            derived[i] = segment
    return derived


def _check_observations(chain: TransitionModel, obs: list[tuple[int, int]]) -> None:
    if not obs:
        raise ValueError("need at least one observation")
    times = [t for t, _ in obs]
    if sorted(set(times)) != times:
        raise ValueError("observation times must be strictly increasing")
    for _, state in obs:
        if not 0 <= state < chain.n_states:
            raise ValueError(f"observed state {state} outside state space")


def _no_successors(state: int, t: int) -> ObservationContradictionError:
    return ObservationContradictionError(f"state {state} has no successors at time {t}")


def _dies_out(t: int) -> ObservationContradictionError:
    return ObservationContradictionError(
        f"chain support dies out at time {t} before reaching the next observation"
    )


def _unreached(t: int, state: int) -> ObservationContradictionError:
    return ObservationContradictionError(
        f"observation (t={t}, state={state}) has zero probability "
        "under the a-priori chain given earlier observations"
    )


def _point(state: int) -> RowDist:
    return np.array([state], dtype=np.intp), np.ones(1)


def _assemble(
    chain: TransitionModel, obs: list[tuple[int, int]], segments: tuple[Segment, ...]
) -> AdaptedModel:
    """The model over ``segments``; its mappings merge the records' views."""
    model = AdaptedModel(
        t_first=obs[0][0],
        t_last=segments[-1].key[2] if segments else obs[0][0],
        transitions=_Merged(segments, "transitions"),
        posteriors=_Merged(segments, "posteriors", None if segments else obs[0]),
        forwards=_Merged(segments, "forwards", obs[0]),
        observation_times=tuple(t for t, _ in obs),
    )
    model.chain, model.segments = chain, segments
    return model


# ----------------------------------------------------------------------
# the batched kernel
# ----------------------------------------------------------------------
def _gather_rows(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries of the CSR rows ``rows``, laid end to end (the gather of
    ``trajectory.diamonds._frontier_step``, with what the sweep needs on top).

    Returns their positions, the index into ``rows`` each one came from, and
    the cumulative row sizes (``rows.size + 1`` offsets into the positions).
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    positions = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts)
    return positions, np.repeat(np.arange(rows.size), counts), offsets


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort order of ``keys``, the distinct keys and where each one's
    run starts in the sorted order (``distinct.size + 1`` offsets)."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    return order, keys[starts], np.append(starts, keys.size)


def _unstack(
    keys: np.ndarray, n: int, n_states: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sorted ``segment · |S| + state`` keys as ``(segment, state)`` columns,
    each segment's slice of them (``n + 1`` offsets) and the slice sizes."""
    seg = keys // n_states
    offsets = np.searchsorted(seg, np.arange(n + 1))
    return seg, keys - seg * n_states, offsets, np.diff(offsets)


def _slice_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``values[offsets[i]:offsets[i + 1]].sum()`` for every slice.

    One ``ndarray.sum()`` each, on purpose: these are Algorithm 2's
    normalisers, and ``np.add.reduceat`` adds in another order (``x0 +
    pairwise(x[1:])`` instead of ``pairwise(x)``) — bitwise different from
    three addends on.
    """
    bounds = offsets.tolist()
    return np.array([np.add.reduce(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


#: ``ndarray.sum()`` adds fewer than this many numbers strictly left to
#: right; from here on numpy's unrolled pairwise summation takes over.
_PAIRWISE_MIN = 8


def _row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """:func:`_slice_sums` for many narrow rows.

    Rows below :data:`_PAIRWISE_MIN` entries are summed left to right by
    ``ndarray.sum()``, which a zero-padded ``(width, rows)`` block reduced
    along its first axis reproduces bit for bit (``x + 0.0 == x``); only
    wider rows — none on a chain of out-degree 7 — are summed one by one.
    """
    widths = np.diff(offsets)
    wide = np.flatnonzero(widths >= _PAIRWISE_MIN)
    rows = np.repeat(np.arange(widths.size), widths)
    depth = np.arange(values.size) - offsets[rows]
    if wide.size:
        narrow = depth < _PAIRWISE_MIN - 1
        rows, depth, values_in = rows[narrow], depth[narrow], values[narrow]
    else:
        values_in = values
    block = np.zeros((int(depth.max()) + 1 if depth.size else 0, widths.size))
    block[depth, rows] = values_in
    sums = np.add.reduce(block, axis=0)
    for row in wide.tolist():
        sums[row] = np.add.reduce(values[offsets[row] : offsets[row + 1]])
    return sums


def _sweep(
    mats: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...],
    n_states: int,
    keys: list[tuple[int, int, int, int | None]],
) -> list[Segment | ObservationContradictionError]:
    """Algorithm 2 over many segments that walk the same matrices.

    ``mats[k]`` is the CSR triple applied between tic offsets ``k`` and
    ``k + 1`` of every segment in ``keys`` (all of one gap).  The segments'
    sparse state vectors are stacked into one array sorted by ``segment ·
    |S| + state``, so each tic offset costs one gather of successor runs,
    one stable sort and one ``np.add.reduceat`` for the whole group instead
    of a scipy row-slice / multiply / ``tocsc`` per segment.  Open cones
    (``s1 is None``) are the forward half of the same sweep.

    Every number is produced by the same additions in the same order as a
    segment-at-a-time pass (scipy's column sums *are* ``reduceat``; the
    normalisers go through :func:`_slice_sums` / :func:`_row_sums`), so the
    result is bit-identical whatever the batch.  A segment whose support
    dies out or whose closing fix has zero forward probability leaves the
    sweep; its entry of the result is the error.
    """
    n, gap = len(keys), len(mats)
    t0 = [key[0] for key in keys]
    closed = np.array([key[3] is not None for key in keys])
    has_cones = not closed.all()
    s1 = np.array([key[3] if key[3] is not None else -1 for key in keys], dtype=np.intp)
    errors: dict[int, ObservationContradictionError] = {}
    alive = np.ones(n, dtype=bool)

    def fail(segment: int, error: ObservationContradictionError) -> None:
        if alive[segment]:  # the first contradiction of a segment is the one reported
            alive[segment] = False
            errors[segment] = error

    # ------------------------------------------------------------------
    # Forward phase (Algorithm 2, lines 2-10): propagate with the a-priori
    # chain from the certain starts, recording the time-reversed matrices
    # R(t), and condition on the closing observations when they are reached.
    # ------------------------------------------------------------------
    seg_offsets = np.arange(n + 1)
    seg = seg_offsets[:-1]
    state = np.array([key[1] for key in keys], dtype=np.intp)
    prob = np.ones(n)
    forward: list[tuple] = []  # per tic offset: segment offsets, support, probs, chain rows
    reverse: list[tuple] = []  # R(t0 + k + 1): run keys, run offsets, prev states, probs
    for k, (indptr, indices, data) in enumerate(mats):
        pos, src, row_offsets = _gather_rows(indptr, state)
        nxt, val = indices[pos], data[pos]
        forward.append((seg_offsets, state, prob, row_offsets, nxt, val))
        # With no future evidence a cone's F(t) is the chain's own rows over
        # the support — so an empty one is a dead end.
        if has_cones:
            for i in np.flatnonzero(~closed[seg] & (np.diff(row_offsets) == 0)).tolist():
                fail(seg[i], _no_successors(state[i], t0[seg[i]] + k))

        # X'(t) of Algorithm 2, stacked: the joint probabilities
        # P(o(t-1) = prev, o(t) = state | past) of every segment, grouped by
        # (segment, state) with prev ascending inside each group.
        order, run_keys, run_offsets = _runs(seg[src] * n_states + nxt)
        joint = (val * prob[src])[order]
        prev = state[src[order]]
        col_sums = np.add.reduceat(joint, run_offsets[:-1]) if joint.size else joint
        active = col_sums > 0
        if not active.all():  # explicitly stored zeros
            keep = np.repeat(active, np.diff(run_offsets))
            joint, prev = joint[keep], prev[keep]
            widths = np.diff(run_offsets)[active]
            run_keys, col_sums = run_keys[active], col_sums[active]
            run_offsets = np.zeros(widths.size + 1, dtype=np.intp)
            np.cumsum(widths, out=run_offsets[1:])
        reverse.append(
            (run_keys, run_offsets, prev, joint / np.repeat(col_sums, np.diff(run_offsets)))
        )

        seg, state, seg_offsets, sizes = _unstack(run_keys, n, n_states)
        prob = col_sums / np.repeat(_slice_sums(col_sums, seg_offsets), sizes)
        for b in np.flatnonzero(sizes == 0).tolist():
            fail(b, _dies_out(t0[b] + k + 1))
        if k == gap - 1:
            ends = np.flatnonzero(closed)
            reached = np.isin(ends * n_states + s1[ends], run_keys[prob > 0.0])
            for b in ends[~reached].tolist():
                fail(b, _unreached(t0[b] + k + 1, s1[b]))
        stays = alive[seg]
        if not stays.all():
            seg, state, prob = seg[stays], state[stays], prob[stays]
            seg_offsets = np.searchsorted(seg, np.arange(n + 1))
        if seg.size == 0:
            break
    else:
        forward.append((seg_offsets, state, prob))

    # ------------------------------------------------------------------
    # Backward phase (lines 12-16): traverse time backwards through R(t)
    # from the certain ends, producing the a-posteriori transitions F(t)
    # and posterior marginals.
    # ------------------------------------------------------------------
    seg = np.flatnonzero(closed & alive)
    state, prob = s1[seg], np.ones(seg.size)
    backward: list[tuple] = [()] * gap
    for k in reversed(range(gap if seg.size else 0)):
        run_keys, run_offsets, prev, r_probs = reverse[k]
        runs = np.searchsorted(run_keys, seg * n_states + state)
        pos, src, _ = _gather_rows(run_offsets, runs)
        order, row_keys, row_offsets = _runs(seg[src] * n_states + prev[pos])
        mass = (r_probs[pos] * prob[src])[order]
        next_states = state[src[order]]
        totals = _row_sums(mass, row_offsets)

        seg, state, seg_offsets, sizes = _unstack(row_keys, n, n_states)
        prob = totals / np.repeat(_slice_sums(totals, seg_offsets), sizes)
        backward[k] = (
            seg_offsets, state, prob, row_offsets, next_states,
            mass / np.repeat(totals, np.diff(row_offsets)),
        )

    return [
        errors[b]
        if b in errors
        else _adapt_segment(keys[b], b, backward if closed[b] else forward, forward)
        for b in range(n)
    ]


def _adapt_segment(
    key: tuple, b: int, rows: list[tuple], forward: list[tuple]
) -> Segment:
    """Segment ``b`` of a finished :func:`_sweep`, cut out as its own record.

    ``rows`` holds, per tic offset, the stacked CSR of ``F`` with its
    posterior marginal — the backward phase's output, or for an open cone
    the forward phase's chain rows and marginals.  The arrays are copied so
    that the record owns them.
    """
    gap = key[2] - key[0]
    layers: list[Layer] = []
    posterior: list[RowDist] = []
    for seg_offsets, state, prob, row_offsets, next_states, probs in rows[:gap]:
        lo, hi = seg_offsets[b], seg_offsets[b + 1]
        indptr = row_offsets[lo : hi + 1] - row_offsets[lo]
        entries = slice(row_offsets[lo], row_offsets[hi])
        support = state[lo:hi].copy()
        layers.append((support, indptr, next_states[entries].copy(), probs[entries].copy()))
        posterior.append((support, prob[lo:hi].copy()))
    marginals = [
        (state[offsets[b] : offsets[b + 1]].copy(), prob[offsets[b] : offsets[b + 1]].copy())
        for offsets, state, prob, *_ in forward[1:]
    ]
    if key[3] is None:
        # No future evidence: the posterior is the forward marginal.
        return Segment(key, layers, posterior + marginals[-1:], marginals)
    end = _point(key[3])
    return Segment(key, layers, posterior + [end], marginals[:-1] + [end])


def _native_sweep(
    mats: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...],
    n_states: int,
    keys: list[tuple[int, int, int, int | None]],
) -> list[Segment | ObservationContradictionError]:
    """:func:`_sweep` in one C call (:func:`repro.markov.native.adapt_sweep`),
    which also lays out each derived stretch's tables: the same records,
    errors and bytes, each record cut out by :func:`_cut_segment`."""
    s0 = np.array([key[1] for key in keys], dtype=np.intp)
    s1 = np.array([-1 if key[3] is None else key[3] for key in keys], dtype=np.intp)
    out = native_tier.adapt_sweep(mats, n_states, s0, s1)
    gap = len(mats)
    derived: list[Segment | ObservationContradictionError] = []
    for key, code, (k, state), sizes, lo, hi, compiled in zip(
        keys, out.status.tolist(), out.detail.tolist(), out.sizes.tolist(),
        out.offsets.tolist(), out.offsets[1:].tolist(), out.compiled.tolist(),
    ):
        if code == 1:
            derived.append(_no_successors(state, key[0] + k))
        elif code == 2:
            derived.append(_dies_out(key[0] + k + 1))
        elif code == 3:
            derived.append(_unreached(key[0] + k + 1, key[3]))
        else:
            ints = out.ints[lo[0] : hi[0]].copy()
            floats = out.floats[lo[1] : hi[1]].copy()
            derived.append(_cut_segment(key, gap, *sizes, ints, floats, compiled))
    return derived


def _cut_segment(
    key: tuple, gap: int, rows: int, entries: int, fwd: int,
    ints: np.ndarray, floats: np.ndarray, compiled: bool,
) -> Segment:
    """One record of a native sweep from its own two buffers (its part of
    the sweep's int64 and float64 streams, copied): every array of the
    record and of its tables is a view of them — the tables' ``states``
    are the posterior supports themselves."""
    # The kernel's layout: int64 states | layer_ptr | next_states | fstates
    # | row0 | eptr | fptr | indptr | next, float64 post | probs | fprobs |
    # init_cdf | cdf.
    i1 = rows
    i2 = i1 + rows + gap
    i3 = i2 + entries
    i4 = i3 + fwd
    i5 = i4 + 3 * (gap + 1)
    i6 = i5 + rows + 1
    states, layer_ptr, next_states, fstates = ints[:i1], ints[i1:i2], ints[i2:i3], ints[i3:i4]
    row0, indptr = ints[i4 : i4 + gap + 1], ints[i5:i6]
    tics = ints[i4:i5].tolist()
    tic_rows, tic_entries, fptr = tics[: gap + 1], tics[gap + 1 : 2 * gap + 2], tics[2 * gap + 2 :]
    f1 = rows
    f2 = f1 + entries
    f3 = f2 + fwd
    f4 = f3 + rows
    post, probs, fprobs, init_cdf = floats[:f1], floats[f1:f2], floats[f2:f3], floats[f3:f4]
    layers: list[Layer] = []
    posterior: list[RowDist] = []
    for k in range(gap):
        a, z = tic_rows[k], tic_rows[k + 1]
        support = states[a:z]
        entries_k = slice(tic_entries[k], tic_entries[k + 1])
        layers.append(
            (support, layer_ptr[a + k : z + k + 1], next_states[entries_k], probs[entries_k])
        )
        posterior.append((support, post[a:z]))
    marginals = [
        (fstates[fptr[k] : fptr[k + 1]], fprobs[fptr[k] : fptr[k + 1]])
        for k in range(gap if key[3] is None else gap - 1)
    ]
    if key[3] is None:
        # No future evidence: the posterior is the forward marginal.
        segment = Segment(key, layers, posterior + marginals[-1:], marginals)
    else:
        end = _point(key[3])
        segment = Segment(key, layers, posterior + [end], marginals + [end])
    if compiled:
        segment.compiled = ModelTables(row0, states, init_cdf, floats[f4:], indptr, ints[i6:])
    return segment
