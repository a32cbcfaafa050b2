"""Compiled sampling backend: vectorized a-posteriori path drawing.

The forward-backward adaptation (Algorithm 2) emits the a-posteriori
transition matrices ``F(t)`` as per-tic CSR rows over the posterior support
(:class:`~repro.markov.adaptation.Segment`).  Sampling those row by row is
slow — the reference sampler loops over ``np.unique`` of the current state
vector in Python at every timestep — so this module turns each timestep
into inverse-CDF arrays at *compile* time: drawing ``n`` paths then costs
one ``rng.random(n)`` plus one gather-and-count per timestep, with zero
Python-level per-state loops, and compiling itself has no per-row step.

Compiling a stretch also lays it out for the C sweep
(:mod:`repro.markov.native`): one flat :class:`ModelTables` record whose
rows are the posterior supports of every tic, tic after tic, with the
transition rows as CSR and successors as rows of the same record.  The
stretch's layers view its supports and CDFs; a model's tables are its
stretches' concatenated, and its initial tables view those.

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

from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from scipy import sparse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .adaptation import AdaptedModel, Segment

__all__ = [
    "CompiledLayer",
    "CompiledModel",
    "CompiledMatrix",
    "ModelTables",
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


def _row_cdfs(indptr: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The raw CDF of every CSR row, in CSR order.

    Every row's ``np.cumsum`` at once: zeros after a row's last entry of a
    zero-padded matrix leave its running sum untouched, so the floats are
    the reference sampler's CDF bit for bit — backend parity for a fixed
    seed — whatever width the rows are padded to.
    """
    sizes = np.diff(indptr)
    rows = np.repeat(np.arange(sizes.size, dtype=np.intp), sizes)
    offsets = np.arange(rows.size, dtype=np.intp) - indptr[rows]
    dense = np.zeros((sizes.size, int(sizes.max())))
    dense[rows, offsets] = probs
    np.cumsum(dense, axis=1, out=dense)
    return dense[rows, offsets]


class ModelTables(NamedTuple):
    """A compiled model (or one stretch of it) as the C sweep reads it.

    Rows are the posterior support entries of every tic, tic after tic:
    ``row0[i]`` is the first row of tic ``t_first + i`` and ``row0[-1]``
    the row count.  ``states`` and ``init_cdf`` give each row's state id
    and its tic's initial inverse-CDF entry.  ``cdf`` / ``indptr`` are the
    raw CDF rows of ``F(t)`` as CSR over the rows of every tic but the
    last, and ``next`` holds each of those rows' successors as rows of the
    next tic plus one trailing copy of its last successor (the boundary
    case ``u >= cdf[-1]`` lands there without a clip), so entry ``k`` of
    row ``g`` is ``next[indptr[g] + g + k]``.  A stretch's last tic
    targets the rows just past its own, where the next stretch begins.
    """

    row0: np.ndarray
    states: np.ndarray
    init_cdf: np.ndarray
    cdf: np.ndarray
    indptr: np.ndarray
    next: np.ndarray


def _concat_tables(
    parts: list[ModelTables], last: tuple[np.ndarray, np.ndarray]
) -> ModelTables:
    """A model's tables: its stretches' end to end, then its last tic."""
    row0, indptr, succ = [], [], []
    rows = entries = 0
    for p in parts:
        row0.append(p.row0[:-1] + rows)
        indptr.append(p.indptr[:-1] + entries)
        succ.append(p.next + rows)
        rows += p.states.size
        entries += p.cdf.size
    row0.append(np.array([rows, rows + last[0].size], dtype=np.intp))
    indptr.append(np.array([entries], dtype=np.intp))
    return ModelTables(
        row0=np.concatenate(row0),
        states=np.concatenate([p.states for p in parts] + [last[0]]),
        init_cdf=np.concatenate([p.init_cdf for p in parts] + [last[1]]),
        cdf=np.concatenate([p.cdf for p in parts]) if parts else np.empty(0),
        indptr=np.concatenate(indptr),
        next=np.concatenate(succ) if parts else np.empty(0, dtype=np.intp),
    )


class CompiledLayer:
    """One timestep of a compiled model: ``F(t)`` as inverse-CDF arrays.

    Built from the CSR rows of ``F(t)`` over ``support`` and their raw
    CDFs (``cdf_flat``).  Successor entries are pre-mapped to *row indices
    of the next layer's support* (``local_next``), so propagation never
    binary-searches states back into a support array.

    A draw counts the row's raw CDF entries ``<= u`` — exactly
    ``searchsorted(cdf, u, "right")`` clipped to the row, as in the
    reference sampler, so paths stay bit-identical per seed — at every
    row width: per-row CDFs padded to an ``(m, width)`` matrix with
    ``inf``, one 2-d gather and one vectorized compare-and-sum.  Those
    padded tables are built on first use: the C sweep never reads them.
    """

    __slots__ = ("support", "indptr", "local_next", "cdf_flat", "_padded")

    def __init__(
        self,
        support: np.ndarray,
        indptr: np.ndarray,
        local_next: np.ndarray,
        cdf_flat: np.ndarray,
    ) -> None:
        self.support = support
        self.indptr = indptr
        self.local_next = local_next
        #: Raw per-row CDFs in CSR form: the numpy arena packs many
        #: objects' layers into one table with *global* row offsets.
        self.cdf_flat = cdf_flat
        self._padded: tuple | None = None

    width = property(lambda self: self._pad()[0], doc="Entries of the widest row.")
    entry_rows = property(lambda self: self._pad()[1], doc="Row index of every CSR entry.")
    cdf_dense = property(lambda self: self._pad()[2], doc="Row CDFs padded with +inf.")
    next_flat = property(lambda self: self._pad()[3], doc="Successors padded to width + 1.")

    def _pad(self) -> tuple:
        if self._padded is None:
            indptr, local_next = self.indptr, self.local_next
            row_sizes = np.diff(indptr)
            m = self.support.size
            width = int(row_sizes.max()) if m else 0
            rows = np.repeat(np.arange(m, dtype=np.intp), row_sizes)
            offsets = np.arange(rows.size, dtype=np.intp) - indptr[rows]
            # cdf_dense pads rows with +inf (never counted); next_flat has
            # one extra column holding the row's last successor so the float
            # boundary case u >= cdf[-1] needs no clip (it lands there, which
            # is exactly the reference sampler's clipped pick).  Empty rows
            # (a raw matrix may have them) are never drawn from.
            cdf = np.full((m, width), np.inf)
            cdf[rows, offsets] = self.cdf_flat
            last = local_next[indptr[1:] - 1] if local_next.size else np.zeros(m, np.intp)
            next_pad = np.repeat(last, width + 1).reshape(m, width + 1)
            next_pad[rows, offsets] = local_next
            self._padded = (width, rows, cdf, next_pad.ravel(), np.ones(width))
        return self._padded

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draw of one successor *row of the next layer* per sample.

        ``rows`` holds each sample's local row index into :attr:`support`;
        ``u`` its uniform variate.  The pick is the count of row-CDF entries
        ``<= u`` — identical to ``searchsorted(cdf, u, "right")`` clipped to
        the row, hence bit-compatible with the reference sampler.
        """
        width, _, cdf_dense, next_flat, ones = self._pad()
        counts = (np.take(cdf_dense, rows, axis=0) <= u[:, None]) @ ones
        picks = rows * (width + 1) + counts.astype(np.intp)
        return np.take(next_flat, picks)


class CompiledModel:
    """Flattened view of an :class:`~repro.markov.adaptation.AdaptedModel`.

    Sampling only — marginals, transitions and diagnostics stay on the
    owning adapted model.  Build via :func:`compile_model` (or lazily through
    ``AdaptedModel.compiled``).
    """

    __slots__ = (
        "t_first", "t_last", "_layers", "_parts", "_last", "_tables", "_max_state",
    )

    def __init__(
        self,
        t_first: int,
        t_last: int,
        layers: dict[int, CompiledLayer],
        parts: list[ModelTables],
        last: tuple[np.ndarray, np.ndarray],
    ) -> None:
        self.t_first = int(t_first)
        self.t_last = int(t_last)
        self._layers = layers
        self._parts, self._last = parts, last
        self._tables: ModelTables | None = None
        self._max_state: int | None = None

    # ------------------------------------------------------------------
    @property
    def tables(self) -> ModelTables:
        """The whole model as one :class:`ModelTables` (``row0`` indexed by
        ``t - t_first``): its stretches' tables end to end, then the initial
        table of ``t_last``, concatenated on first use and cached — the
        layout the C sweep reads."""
        if self._tables is None:
            self._tables = _concat_tables(self._parts, self._last)
        return self._tables

    def covers(self, t: int) -> bool:
        return self.t_first <= t <= self.t_last

    def layer(self, t: int) -> CompiledLayer:
        """The compiled transition ``F(t)`` (from ``t`` to ``t+1``)."""
        return self._layers[t]

    def initial_table(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """``(support_states, cdf)`` of the posterior marginal at ``t``:
        the inverse-CDF table a window-anchored draw starts from (views of
        :attr:`tables`)."""
        row0, states, init_cdf = self.tables[:3]
        lo, hi = row0[t - self.t_first], row0[t - self.t_first + 1]
        return states[lo:hi], init_cdf[lo:hi]

    def support_at(self, t: int) -> np.ndarray:
        """Global state ids of the posterior support at ``t`` (sorted)."""
        return self.initial_table(t)[0]

    @property
    def max_state(self) -> int:
        """Largest state id in any posterior support (cached: the sampling
        arena picks its packed states dtype from this at every
        registration, and churny streams re-register per observation)."""
        if self._max_state is None:
            self._max_state = int(self.tables.states.max())
        return self._max_state

    def rows_of_states(self, t: int, states: np.ndarray) -> np.ndarray:
        """Map global state ids to local support rows at ``t`` (validated)."""
        support = self.support_at(t)
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
            support, cdf = self.initial_table(a)
            rows = np.searchsorted(cdf, rng.random(n), side="right")
            np.minimum(rows, support.size - 1, out=rows)
        else:
            start_states = np.asarray(start_states, dtype=np.intp)
            if start_states.shape != (n,):
                raise ValueError(
                    f"start_states must have shape ({n},), got {start_states.shape}"
                )
            rows = self.rows_of_states(a, start_states)
        buf[0] = self.support_at(a)[rows]
        # One fill for every transition block: the same doubles, in stream
        # order, as one rng.random(n) per tic — and a parked lazy handle
        # seeds once per extension instead of once per tic.
        u = rng.random((b - a) * n).reshape(b - a, n)
        for offset, t in enumerate(range(a, b)):
            rows = self._layers[t].draw(rows, u[offset])
            buf[offset + 1] = self.support_at(t + 1)[rows]
        return buf.T


def _compile_stretch(seg: "Segment") -> tuple[dict, ModelTables]:
    """Layers and :class:`ModelTables` of one stretch, for the tics
    ``t0 <= t < t1``; the layers' supports and CDFs are views of the
    tables."""
    local = []
    for (support, indptr, next_states, _), (next_support, _) in zip(
        seg.layers, seg.posterior[1:]
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
        local.append(local_next)
    row0 = np.zeros(len(seg.layers) + 1, dtype=np.intp)
    np.cumsum([layer[0].size for layer in seg.layers], out=row0[1:])
    states = np.concatenate([layer[0] for layer in seg.layers])
    indptr = np.zeros(states.size + 1, dtype=np.intp)
    np.cumsum(np.concatenate([np.diff(layer[1]) for layer in seg.layers]), out=indptr[1:])
    cdf = _row_cdfs(indptr, np.concatenate([layer[3] for layer in seg.layers]))
    successors = np.concatenate([rows + base for rows, base in zip(local, row0[1:])])
    ends = indptr[1:]
    tables = ModelTables(
        row0, states, np.concatenate([np.cumsum(probs) for _, probs in seg.posterior[:-1]]),
        cdf, indptr, np.insert(successors, ends, successors[ends - 1]),
    )
    layers = {
        seg.key[0] + k: CompiledLayer(
            states[row0[k] : row0[k + 1]], layer[1], local_next,
            cdf[indptr[row0[k]] : indptr[row0[k + 1]]],
        )
        for k, (layer, local_next) in enumerate(zip(seg.layers, local))
    }
    return layers, tables


def compile_model(model: "AdaptedModel") -> CompiledModel:
    """Compile an adapted model's ``F(t)`` rows into flat sampling arrays.

    One-time cost linear in the number of transition entries of the
    stretches not compiled before — the flat arrays live on the model's
    :class:`~repro.markov.adaptation.Segment` records, so stretches carried
    over from an earlier model arrive compiled; every subsequent
    ``sample_paths`` call is fully vectorized.
    """
    layers: dict[int, CompiledLayer] = {}
    segments = model.stretches()
    for seg in segments:
        if seg.compiled is None:
            seg.compiled = _compile_stretch(seg)
        layers.update(seg.compiled[0])
    if segments:
        states, probs = segments[-1].posterior[-1]
    else:
        last = model.posteriors[model.t_last]
        states, probs = last.states, last.probs
    return CompiledModel(
        model.t_first, model.t_last, layers, [seg.compiled[1] for seg in segments],
        (states, np.cumsum(probs)),
    )


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
        indptr = csr.indptr.astype(np.intp)
        super().__init__(
            np.arange(csr.shape[0]),
            indptr,
            csr.indices.astype(np.intp),
            _row_cdfs(indptr, csr.data.astype(float)),
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
