"""Compiled sampling backend: vectorized a-posteriori path drawing.

The forward-backward adaptation (Algorithm 2) emits the a-posteriori
transition matrices ``F(t)`` as per-tic CSR rows over the posterior support
(:class:`~repro.markov.adaptation.Segment`).  Sampling those row by row is
slow — the reference sampler loops over ``np.unique`` of the current state
vector in Python at every timestep — so this module turns each timestep
into inverse-CDF arrays at *compile* time: drawing ``n`` paths then costs
one ``rng.random(n)`` plus one gather-and-count per timestep, with zero
Python-level per-state loops, and compiling itself has no per-row step.

A transition draw is the reference sampler's pick at every row width: the
count of the row's *raw* CDF entries ``<= u``, over per-row CDFs padded to
one ``(rows, width)`` matrix with ``+inf`` (never counted).  Cumulative
sums are taken per row — one ``np.cumsum`` along the rows of a zero-padded
matrix, which adds the same numbers in the same order as the reference
sampler's ``np.cumsum`` of each row — so for one seed the compiled and
reference backends consume the RNG stream identically and return
*identical* paths (see ``tests/markov/test_compiled.py``).

:func:`compile_model` compiles an adapted (a-posteriori) model;
:class:`CompiledMatrix` is the same layer over every row of a raw
a-priori transition matrix, for the TS1/TS2 rejection baselines of
:mod:`repro.markov.sampling`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .adaptation import AdaptedModel, Segment

__all__ = [
    "CompiledLayer",
    "CompiledModel",
    "CompiledMatrix",
    "compile_model",
    "take_tics",
]


def take_tics(paths: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Columns ``offsets`` (sorted) of an ``(n, width)`` path matrix.

    Every sampler hands its paths out as the transpose of a tic-major
    ``(width, n)`` buffer — the world axis is the unit-stride one — and
    this keeps it so: a contiguous run is a view, anything else one row
    gather of the buffer.  ``paths[:, offsets]`` may answer world-major
    (numpy allocates in C order), which every later per-tic pass over the
    worlds would pay for.
    """
    if offsets[-1] - offsets[0] + 1 == offsets.size:
        return paths[:, offsets[0] : offsets[0] + offsets.size]
    return paths.T[offsets].T


class CompiledLayer:
    """One timestep of a compiled model: ``F(t)`` as inverse-CDF arrays.

    Built from the CSR rows of ``F(t)`` over ``support``.  Successor
    entries are pre-mapped to *row indices of the next layer's support*
    (``local_next``), so propagation never binary-searches states back into
    a support array.

    A draw counts the row's raw CDF entries ``<= u`` — exactly
    ``searchsorted(cdf, u, "right")`` clipped to the row, as in the
    reference sampler, so paths stay bit-identical per seed — at every
    row width: per-row CDFs padded to an ``(m, width)`` matrix with
    ``inf``, one 2-d gather and one vectorized compare-and-sum.
    """

    __slots__ = (
        "support",
        "indptr",
        "local_next",
        "entry_rows",
        "cdf_flat",
        "cdf_dense",
        "next_flat",
        "width",
        "_ones",
    )

    def __init__(
        self,
        support: np.ndarray,
        indptr: np.ndarray,
        local_next: np.ndarray,
        probs: np.ndarray,
    ) -> None:
        self.support = support
        self.indptr = indptr
        self.local_next = local_next
        row_sizes = np.diff(indptr)
        m = support.size
        #: Entries of the widest row (the padded width of :attr:`cdf_dense`).
        self.width = width = int(row_sizes.max()) if m else 0
        #: Local row index of every CSR entry.
        self.entry_rows = rows = np.repeat(np.arange(m, dtype=np.intp), row_sizes)
        offsets = np.arange(rows.size, dtype=np.intp) - indptr[rows]
        # Every row's np.cumsum at once: zeros after a row's last entry leave
        # its running sum untouched, so the floats are the reference
        # sampler's CDF bit for bit — backend parity for a fixed seed.
        cdf = np.zeros((m, width))
        cdf[rows, offsets] = probs
        np.cumsum(cdf, axis=1, out=cdf)
        #: Raw per-row CDFs in CSR form: the sampling arena packs many
        #: objects' layers into one table with *global* row offsets.
        self.cdf_flat = cdf[rows, offsets]
        # cdf_dense pads rows with +inf (never counted); next_flat has one
        # extra column holding the row's last successor so the float
        # boundary case u >= cdf[-1] needs no clip (it lands there, which
        # is exactly the reference sampler's clipped pick).
        cdf[np.arange(width) >= row_sizes[:, None]] = np.inf
        self.cdf_dense = cdf
        # Empty rows (a raw matrix may have them) are never drawn from.
        last = local_next[indptr[1:] - 1] if local_next.size else np.zeros(m, np.intp)
        next_pad = np.repeat(last, width + 1).reshape(m, width + 1)
        next_pad[rows, offsets] = local_next
        self.next_flat = next_pad.ravel()
        self._ones = np.ones(width)

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draw of one successor *row of the next layer* per sample.

        ``rows`` holds each sample's local row index into :attr:`support`;
        ``u`` its uniform variate.  The pick is the count of row-CDF entries
        ``<= u`` — identical to ``searchsorted(cdf, u, "right")`` clipped to
        the row, hence bit-compatible with the reference sampler.
        """
        counts = (np.take(self.cdf_dense, rows, axis=0) <= u[:, None]) @ self._ones
        picks = rows * (self.width + 1) + counts.astype(np.intp)
        return np.take(self.next_flat, picks)


class CompiledModel:
    """Flattened view of an :class:`~repro.markov.adaptation.AdaptedModel`.

    Sampling only — marginals, transitions and diagnostics stay on the
    owning adapted model.  Build via :func:`compile_model` (or lazily through
    ``AdaptedModel.compiled``).
    """

    __slots__ = ("t_first", "t_last", "_layers", "_initials", "_max_state")

    def __init__(
        self,
        t_first: int,
        t_last: int,
        layers: dict[int, CompiledLayer],
        initials: dict[int, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self.t_first = int(t_first)
        self.t_last = int(t_last)
        self._layers = layers
        self._initials = initials
        self._max_state: int | None = None

    # ------------------------------------------------------------------
    def covers(self, t: int) -> bool:
        return self.t_first <= t <= self.t_last

    def layer(self, t: int) -> CompiledLayer:
        """The compiled transition ``F(t)`` (from ``t`` to ``t+1``)."""
        return self._layers[t]

    def initial_table(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """``(support_states, cdf)`` of the posterior marginal at ``t``.

        The inverse-CDF table a window-anchored draw starts from; the
        sampling arena concatenates these across objects to fuse the
        initial draws of a whole candidate set.
        """
        return self._initials[t]

    def support_at(self, t: int) -> np.ndarray:
        """Global state ids of the posterior support at ``t`` (sorted)."""
        return self._initials[t][0]

    @property
    def max_state(self) -> int:
        """Largest state id in any posterior support (cached on first use).

        The sampling arena picks its packed states dtype from this at
        registration; caching the O(span) scan here keeps churny ingest
        streams (discard + re-ensure per observation) from rescanning
        every timestep on each registration.
        """
        if self._max_state is None:
            self._max_state = max(
                int(self._initials[t][0][-1])
                for t in range(self.t_first, self.t_last + 1)
            )
        return self._max_state

    def rows_of_states(self, t: int, states: np.ndarray) -> np.ndarray:
        """Map global state ids to local support rows at ``t`` (validated)."""
        return self._rows_of_states(t, states)

    def _draw_initial_rows(
        self, rng: np.random.Generator, n: int, t: int
    ) -> np.ndarray:
        """Initial draw as local support-row indices (the sampling currency)."""
        states, cdf = self._initials[t]
        picks = np.searchsorted(cdf, rng.random(n), side="right")
        return np.minimum(picks, states.size - 1)

    def _rows_of_states(self, t: int, states: np.ndarray) -> np.ndarray:
        """Map global state ids to local support rows at ``t`` (validated)."""
        support = self._initials[t][0]
        rows = np.searchsorted(support, states)
        bad = rows >= support.size
        bad |= support[np.minimum(rows, support.size - 1)] != states
        if bad.any():
            raise ValueError(
                f"start state {int(states[bad][0])} outside the posterior "
                f"support at time {t}"
            )
        return rows

    def sample_paths(
        self,
        rng: np.random.Generator,
        n: int,
        t_start: int | None = None,
        t_end: int | None = None,
        start_states: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized equivalent of ``AdaptedModel.sample_paths``.

        Returns an ``(n, t_end - t_start + 1)`` integer array of states;
        every row is a trajectory consistent with all observations.

        Samples are propagated as local support-row indices and written into
        a tic-major buffer (contiguous writes); the two together are what
        keep the per-timestep cost at a handful of array operations.  The
        result is that buffer's transpose — a view whose *world* axis is
        the contiguous one, the order refinement reads it in.

        ``start_states`` resumes ``n`` previously sampled paths whose states
        at ``t_start`` are given: no initial variate is consumed and the
        first output column echoes ``start_states``, so a draw of
        ``[a, m]`` followed by a resume over ``[m, b]`` consumes the RNG
        stream *exactly* like a one-shot draw of ``[a, b]`` — grown and
        one-shot worlds are bit-identical (the world cache's forward-
        extension contract).
        """
        a = self.t_first if t_start is None else int(t_start)
        b = self.t_last if t_end is None else int(t_end)
        if a > b:
            raise ValueError(f"empty sampling window [{a}, {b}]")
        if not (self.covers(a) and self.covers(b)):
            raise KeyError(
                f"window [{a}, {b}] outside adapted span [{self.t_first}, {self.t_last}]"
            )
        buf = np.empty((b - a + 1, n), dtype=np.intp)
        if start_states is None:
            rows = self._draw_initial_rows(rng, n, a)
        else:
            start_states = np.asarray(start_states, dtype=np.intp)
            if start_states.shape != (n,):
                raise ValueError(
                    f"start_states must have shape ({n},), got {start_states.shape}"
                )
            rows = self._rows_of_states(a, start_states)
        buf[0] = self._initials[a][0][rows]
        # One fill for every transition block: the same doubles, in stream
        # order, as one rng.random(n) per tic — and a parked lazy handle
        # seeds once per extension instead of once per tic.
        u = rng.random((b - a) * n).reshape(b - a, n)
        for offset, t in enumerate(range(a, b)):
            rows = self._layers[t].draw(rows, u[offset])
            buf[offset + 1] = self._initials[t + 1][0][rows]
        return buf.T


def _initial_table(dist: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    states, probs = dist
    return states, np.cumsum(probs)


def _compile_stretch(seg: "Segment") -> tuple[dict, dict]:
    """Layers and initial tables of one stretch, for the tics ``t0 <= t < t1``."""
    layers, initials = {}, {}
    for t, ((support, indptr, next_states, probs), (next_support, _)) in enumerate(
        zip(seg.layers, seg.posterior[1:]), start=seg.key[0]
    ):
        empty = np.flatnonzero(indptr[1:] == indptr[:-1])
        if empty.size:
            raise ValueError(
                f"adapted model is inconsistent: state {int(support[empty[0]])} has "
                "an empty transition row (sampling it would be undefined)"
            )
        local_next = np.searchsorted(next_support, next_states)
        if not np.array_equal(
            next_support[np.minimum(local_next, next_support.size - 1)], next_states
        ):
            raise ValueError(
                "adapted model is inconsistent: a transition targets a state "
                "outside the next timestep's posterior support"
            )
        layers[t] = CompiledLayer(support, indptr, local_next, probs)
        initials[t] = _initial_table(seg.posterior[t - seg.key[0]])
    return layers, initials


def compile_model(model: "AdaptedModel") -> CompiledModel:
    """Compile an adapted model's ``F(t)`` rows into flat sampling arrays.

    One-time cost linear in the number of transition entries of the
    stretches not compiled before — the flat arrays live on the model's
    :class:`~repro.markov.adaptation.Segment` records, so stretches carried
    over from an earlier model arrive compiled; every subsequent
    ``sample_paths`` call is fully vectorized.
    """
    layers: dict[int, CompiledLayer] = {}
    initials: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    segments = model.stretches()
    for seg in segments:
        if seg.compiled is None:
            seg.compiled = _compile_stretch(seg)
        layers.update(seg.compiled[0])
        initials.update(seg.compiled[1])
    if segments:
        initials[model.t_last] = _initial_table(segments[-1].posterior[-1])
    else:
        last = model.posteriors[model.t_last]
        initials[model.t_last] = _initial_table((last.states, last.probs))
    return CompiledModel(model.t_first, model.t_last, layers, initials)


class CompiledMatrix(CompiledLayer):
    """A :class:`CompiledLayer` over every row of one a-priori transition
    matrix: the support is every state and the successors are global
    state ids, so a draw maps states to next states directly and the
    TS1/TS2 rejection baselines roll thousands of a-priori walks per
    timestep with the one draw arithmetic.  Obtain cached instances
    through ``TransitionModel.compiled_step``.
    """

    __slots__ = ()

    def __init__(self, matrix: sparse.spmatrix) -> None:
        csr = sparse.csr_matrix(matrix)
        super().__init__(
            np.arange(csr.shape[0]),
            csr.indptr.astype(np.intp),
            csr.indices.astype(np.intp),
            csr.data.astype(float),
        )

    def draw(
        self, states: np.ndarray, u: np.ndarray, t: int | None = None
    ) -> np.ndarray:
        """One transition step for every walk in ``states`` at once."""
        dead = self.indptr[states] == self.indptr[states + 1]
        if dead.any():
            where = f" at time {t}" if t is not None else ""
            raise ValueError(
                f"state {int(np.asarray(states)[dead][0])} has no successors{where}"
            )
        return super().draw(states, u)
