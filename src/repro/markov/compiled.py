"""Compiled sampling backend: vectorized a-posteriori path drawing.

The forward-backward adaptation (Algorithm 2) emits the a-posteriori
transition matrices ``F(t)`` as per-tic CSR rows over the posterior support
(:class:`~repro.markov.adaptation.Segment`).  Sampling those row by row is
slow — the reference sampler loops over ``np.unique`` of the current state
vector in Python at every timestep — so this module turns each timestep
into inverse-CDF arrays at *compile* time: drawing ``n`` paths then costs
one ``rng.random(n)`` plus one gather-and-count per timestep, with zero
Python-level per-state loops, and compiling itself has no per-row step.

A compiled model is one flat :class:`ModelTables` record — the only form
any sampler reads: its rows are the posterior supports of every tic, tic
after tic, with the transition rows as CSR and successors as rows of the
same record.  Each stretch compiles to its own record
(``Segment.compiled``); a model's tables are its stretches' concatenated.
The C sweep (:mod:`repro.markov.native`), the numpy arena's fused step
tables (:mod:`repro.markov.arena`) and :meth:`CompiledModel.sample_paths`
all carry cursors over those rows.

A transition draw is the reference sampler's pick at every row width: the
count of the row's *raw* CDF entries ``<= u``, over per-row CDFs padded to
one ``(rows, width)`` matrix with ``+inf`` (never counted).  Cumulative
sums are taken per row — one ``np.cumsum`` along the rows of a zero-padded
matrix, which adds the same numbers in the same order as the reference
sampler's ``np.cumsum`` of each row — so for one seed the compiled and
reference backends consume the RNG stream identically and return
*identical* paths (see ``tests/markov/test_compiled.py``).

:func:`compile_models` compiles adapted (a-posteriori) models — every
stretch a batch has not compiled yet in one vectorised pass, each
stretch's record cut out of it — and :func:`compile_model` is its
one-model call.  Stretches derived in the native tier
(``adapt_many(..., native=True)``) arrive with their records laid out by
the C sweep, byte for byte what :func:`_compile_stretches` makes, so on
a native engine this pass only concatenates;
:class:`CompiledMatrix` is the same draw over every row of a raw
a-priori transition matrix, for the TS1/TS2 rejection baselines of
:mod:`repro.markov.sampling`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np
from scipy import sparse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .adaptation import AdaptedModel, Segment

__all__ = [
    "CompiledModel",
    "CompiledMatrix",
    "ModelTables",
    "as_integers",
    "check_draw",
    "compile_model",
    "compile_models",
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


def as_integers(name: str, values) -> np.ndarray:
    """``values`` as an ``intp`` array: integers (numpy's too) and
    integral finite floats pass; a fractional, non-finite or out-of-range
    value is a ``ValueError`` and a non-number a ``TypeError`` — refused,
    never truncated (the vectorised form of the observation rule)."""
    arr = np.asarray(values)
    if arr.dtype.kind in "biu":
        return arr.astype(np.intp, copy=False)
    if arr.dtype.kind == "f":
        bad = ~(np.abs(arr) < 2.0**63) | (arr != np.floor(arr))
        if not bad.any():
            return arr.astype(np.intp)
        raise ValueError(f"{name} must be integers, got {arr[bad].flat[0].item()!r}")
    raise TypeError(f"{name} must be integers, got {arr.dtype.name} values")


def check_draw(n, start_states=None) -> tuple[int, np.ndarray | None]:
    """The argument check of every sampler entry point: ``n`` as an
    ``int >= 1`` and ``start_states`` (when given) as ``(n,)`` state ids."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    if start_states is not None:
        start_states = as_integers("start_states", start_states)
        if start_states.shape != (n,):
            raise ValueError(
                f"start_states must have shape ({n},), got {start_states.shape}"
            )
    return n, start_states


#: Cells of one zero-padded block :func:`_row_cdfs` takes cumulative sums
#: in — it works through longer row sets in runs, bounding the scratch a
#: whole-tick (or whole-database) compile pass allocates.
_CDF_BLOCK = 1 << 20


def _row_cdfs(indptr: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The raw CDF of every CSR row, in CSR order.

    Every row's ``np.cumsum`` at once: zeros after a row's last entry of a
    zero-padded matrix leave its running sum untouched, so the floats are
    the reference sampler's CDF bit for bit — backend parity for a fixed
    seed — whatever width the rows are padded to, and however many rows
    share one padded block.
    """
    sizes = np.diff(indptr)
    out = np.empty(probs.size)
    step = max(1, _CDF_BLOCK // max(int(sizes.max(initial=0)), 1))
    for r0 in range(0, sizes.size, step):
        part = sizes[r0 : r0 + step]
        e0, e1 = indptr[r0], indptr[r0 + part.size]
        rows = np.repeat(np.arange(part.size, dtype=np.intp), part)
        offsets = np.arange(e1 - e0, dtype=np.intp) - (indptr[r0 : r0 + part.size] - e0)[rows]
        dense = np.zeros((part.size, int(part.max(initial=0))))
        dense[rows, offsets] = probs[e0:e1]
        np.cumsum(dense, axis=1, out=dense)
        out[e0:e1] = dense[rows, offsets]
    return out


def _with_trailing(indptr: np.ndarray, successors: np.ndarray) -> np.ndarray:
    """CSR successors with one trailing copy of each row's last entry, so
    entry ``k`` of row ``g`` is ``out[indptr[g] + g + k]`` and the boundary
    case ``u >= cdf[-1]`` (``k`` = the row's size) lands there without a
    clip.  An empty row's trailing entry is never drawn."""
    ends = indptr[1:]
    last = successors[ends - 1] if successors.size else np.zeros(ends.size, np.intp)
    return np.insert(successors, ends, last)


def _pad_cdf(indptr: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The CSR rows' raw CDFs as one ``(rows, width)`` matrix padded with
    ``+inf`` — the table :func:`_draw` counts in."""
    sizes = np.diff(indptr)
    rows = np.repeat(np.arange(sizes.size, dtype=np.intp), sizes)
    padded = np.full((sizes.size, int(sizes.max(initial=0))), np.inf)
    padded[rows, np.arange(rows.size, dtype=np.intp) - indptr[rows]] = cdf
    return padded


def _draw(
    padded: np.ndarray, indptr: np.ndarray, successors: np.ndarray,
    rows: np.ndarray, u: np.ndarray,
) -> np.ndarray:
    """One inverse-CDF step from CSR row ``rows[i]`` per sample.

    The pick is the count of the row's raw CDF entries ``<= u`` — exactly
    ``searchsorted(cdf, u, "right")`` clipped to the row, as in the
    reference sampler, so paths stay bit-identical per seed — over the
    ``+inf``-padded ``padded`` table, then that entry of the row in
    ``successors`` (:func:`_with_trailing`'s layout).
    """
    counts = (np.take(padded, rows, axis=0) <= u[:, None]) @ np.ones(padded.shape[1])
    return np.take(successors, indptr[rows] + rows + counts.astype(np.intp))


class ModelTables(NamedTuple):
    """A compiled model (or one stretch of it): the form every sampler reads.

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


class CompiledModel:
    """Flattened view of an :class:`~repro.markov.adaptation.AdaptedModel`.

    Sampling only — marginals, transitions and diagnostics stay on the
    owning adapted model.  Build via :func:`compile_model` (or lazily through
    ``AdaptedModel.compiled``).  Everything it holds is plain numpy, so a
    model pickles with the database object that owns it.
    """

    __slots__ = (
        "t_first", "t_last", "_parts", "_last", "_tables", "_max_state", "_padded",
    )

    def __init__(
        self,
        t_first: int,
        t_last: int,
        parts: list[ModelTables],
        last: tuple[np.ndarray, np.ndarray],
    ) -> None:
        self.t_first = int(t_first)
        self.t_last = int(t_last)
        self._parts, self._last = parts, last
        self._tables: ModelTables | None = None
        self._max_state: int | None = None
        self._padded: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def tables(self) -> ModelTables:
        """The whole model as one :class:`ModelTables` (``row0`` indexed by
        ``t - t_first``): its stretches' tables end to end, then the initial
        table of ``t_last``, concatenated on first use and cached."""
        if self._tables is None:
            self._tables = _concat_tables(self._parts, self._last)
        return self._tables

    def covers(self, t: int) -> bool:
        return self.t_first <= t <= self.t_last

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

        The C sweep's loop in numpy: samples carry cursors over the rows
        of :attr:`tables` (a transition lands on a row of the next tic), and
        each tic's states are gathered into a tic-major buffer (contiguous
        writes).  The result is that buffer's transpose — a view whose
        *world* axis is the contiguous one, the order refinement reads it
        in.  The ``+inf``-padded CDF table the draws count in is built on
        the first numpy draw and cached.

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
        n, start_states = check_draw(n, start_states)
        tables = self.tables
        buf = np.empty((b - a + 1, n), dtype=np.intp)
        if start_states is None:
            _, cdf = self.initial_table(a)
            rows = np.searchsorted(cdf, rng.random(n), side="right")
            np.minimum(rows, cdf.size - 1, out=rows)
        else:
            rows = self.rows_of_states(a, start_states)
        rows += tables.row0[a - self.t_first]
        buf[0] = tables.states[rows]
        # One fill for every transition block: the same doubles, in stream
        # order, as one rng.random(n) per tic — and a parked lazy handle
        # seeds once per extension instead of once per tic.
        u = rng.random((b - a) * n).reshape(b - a, n)
        if b > a and self._padded is None:
            self._padded = _pad_cdf(tables.indptr, tables.cdf)
        for offset in range(b - a):
            rows = _draw(self._padded, tables.indptr, tables.next, rows, u[offset])
            buf[offset + 1] = tables.states[rows]
        return buf.T


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """``[0, cumsum(sizes)...]``: where each of consecutive runs starts."""
    out = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=out[1:])
    return out


def _compile_stretches(stretches: Sequence["Segment"]) -> list[ModelTables]:
    """The :class:`ModelTables` of many stretches, in one vectorised pass.

    Every stretch's tics ``t0 <= t < t1`` are laid end to end — one row per
    posterior support entry, one CSR entry per transition — so each table
    is one array operation over all of them: one :func:`_row_cdfs` for the
    transition rows and one for the initial CDFs (a tic's support is one
    row), one successor ``searchsorted`` keyed by stretch-tic, and one
    :func:`_with_trailing`.  Each stretch's record is then cut out of the
    batch (copies: a record owns its arrays).  Raises the first
    inconsistency a stretch-by-stretch, tic-by-tic compile would meet.
    """
    layers = [layer for seg in stretches for layer in seg.layers]
    firsts = _offsets(np.array([len(seg.layers) for seg in stretches], dtype=np.intp))
    n_rows = np.array([layer[0].size for layer in layers], dtype=np.intp)
    row_at = _offsets(n_rows)  # each tic's first row
    states = np.concatenate([layer[0] for layer in layers])
    # Every row's entry count: one diff over the tics' CSR pointers laid
    # end to end, less the steps that cross from one tic into the next.
    pointers = np.concatenate([layer[1] for layer in layers])
    sizes = np.delete(np.diff(pointers), row_at[1:-1] + np.arange(len(layers) - 1))
    indptr = _offsets(sizes)
    tic_of_row = np.repeat(np.arange(len(layers), dtype=np.intp), n_rows)
    # Each transition's successor as a row of the next tic's support: one
    # search over every tic's next support, keyed by stretch-tic.
    targets = [dist[0] for seg in stretches for dist in seg.posterior[1:]]
    next_states = np.concatenate([layer[2] for layer in layers])
    support = np.concatenate(targets)
    every = np.concatenate([support, next_states])
    lo = int(every.min())
    span = int(every.max()) - lo + 1
    target_at = _offsets(np.array([t.size for t in targets], dtype=np.intp))
    tic_of_entry = np.repeat(tic_of_row, sizes)
    keys = np.repeat(np.arange(len(layers), dtype=np.intp), np.diff(target_at)) * span
    keys += support - lo
    wanted = tic_of_entry * span + (next_states - lo)
    found = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    outside = keys[found] != wanted
    empty = sizes == 0
    first_empty = tic_of_row[np.argmax(empty)] if empty.any() else len(layers)
    first_outside = tic_of_entry[np.argmax(outside)] if outside.any() else len(layers)
    if first_empty < len(layers) and first_empty <= first_outside:
        raise ValueError(
            f"adapted model is inconsistent: state {int(states[np.argmax(empty)])} has "
            "an empty transition row (sampling it would be undefined)"
        )
    if first_outside < len(layers):
        raise ValueError(
            "adapted model is inconsistent: a transition targets a state "
            "outside the next timestep's posterior support"
        )
    # The successor's row within its stretch: its index in the next tic's
    # support plus that tic's first row, counted from the stretch's first.
    stretch_row0 = np.repeat(row_at[firsts[:-1]], np.diff(firsts))
    successors = found - target_at[tic_of_entry]
    successors += (row_at[1:] - stretch_row0)[tic_of_entry]
    init_cdf = _row_cdfs(
        row_at, np.concatenate([dist[1] for seg in stretches for dist in seg.posterior[:-1]])
    )
    cdf = _row_cdfs(indptr, np.concatenate([layer[3] for layer in layers]))
    succ = _with_trailing(indptr, successors)
    out = []
    for a, b in zip(firsts[:-1], firsts[1:]):
        r0, r1 = row_at[a], row_at[b]
        e0, e1 = indptr[r0], indptr[r1]
        out.append(
            ModelTables(
                row_at[a : b + 1] - r0,
                states[r0:r1].copy(),
                init_cdf[r0:r1].copy(),
                cdf[e0:e1].copy(),
                indptr[r0 : r1 + 1] - e0,
                succ[e0 + r0 : e1 + r1].copy(),
            )
        )
    return out


def compile_models(models: Sequence["AdaptedModel"]) -> list[CompiledModel]:
    """Compile adapted models' ``F(t)`` rows into flat sampling arrays.

    One-time cost linear in the number of transition entries of the
    stretches not compiled before, all of them in one
    :func:`_compile_stretches` pass — the flat arrays live on the models'
    :class:`~repro.markov.adaptation.Segment` records, so stretches carried
    over from an earlier model, or derived in the native tier, arrive
    compiled; every subsequent ``sample_paths`` call is fully vectorized.
    """
    stretches = [model.stretches() for model in models]
    pending = list(
        {id(seg): seg for segs in stretches for seg in segs if seg.compiled is None}.values()
    )
    if pending:
        for seg, tables in zip(pending, _compile_stretches(pending)):
            seg.compiled = tables
    compiled = []
    for model, segments in zip(models, stretches):
        if segments:
            states, probs = segments[-1].posterior[-1]
        else:
            last = model.posteriors[model.t_last]
            states, probs = last.states, last.probs
        compiled.append(
            CompiledModel(
                model.t_first, model.t_last, [seg.compiled for seg in segments],
                (states, np.cumsum(probs)),
            )
        )
    return compiled


def compile_model(model: "AdaptedModel") -> CompiledModel:
    """One adapted model's :func:`compile_models`."""
    return compile_models([model])[0]


class CompiledMatrix:
    """One a-priori transition matrix in the compiled models' draw layout:
    every state's row as a raw CDF, successors as global state ids, so a
    draw maps states to next states directly and the TS1/TS2 rejection
    baselines roll thousands of a-priori walks per timestep with the one
    draw arithmetic (:func:`_draw`).  Obtain cached instances through
    ``TransitionModel.compiled_step``.
    """

    __slots__ = ("indptr", "next", "_padded")

    def __init__(self, matrix: sparse.spmatrix) -> None:
        csr = sparse.csr_matrix(matrix)
        self.indptr = csr.indptr.astype(np.intp)
        self.next = _with_trailing(self.indptr, csr.indices.astype(np.intp))
        self._padded = _pad_cdf(self.indptr, _row_cdfs(self.indptr, csr.data.astype(float)))

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
        return _draw(self._padded, self.indptr, self.next, states, u)
