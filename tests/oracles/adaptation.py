"""Algorithm 2 and its compiled tables, the way they were first written.

:func:`reference_adapt` is the whole-lifespan forward/backward sweep (one
scipy product per object and tic) the batched ``adapt_many`` kernel
replaced; :func:`reference_tables` a model's tables built row by row, as
the per-row builder ``compile_model`` replaced did; :func:`fresh_twin` a database rebuilt from final observation
lists, so nothing in it was carried over from a predecessor.  The
``same_*`` helpers compare down to dtype and bytes.
"""

from __future__ import annotations

import numpy as np

from repro.markov.compiled import ModelTables
from repro.markov.distributions import SparseDistribution
from repro.trajectory.database import TrajectoryDatabase


def reference_adapt(chain, observations, extend_to=None):
    """Algorithm 2 as one forward and one backward sweep over the whole
    lifespan (the pre-segment implementation), returning the three dicts."""
    obs_by_time = dict(observations)
    times = sorted(obs_by_time)
    t_first, t_last = times[0], times[-1]
    forwards, reverse = {}, {}
    current = SparseDistribution.point(obs_by_time[t_first])
    forwards[t_first] = current
    for t in range(t_first + 1, t_last + 1):
        rows = chain.matrix_at(t - 1)[current.states]
        joint = rows.multiply(current.probs[:, None]).tocsc()
        col_sums = np.asarray(joint.sum(axis=0)).ravel()
        active = np.flatnonzero(col_sums > 0)
        rows_of_t = {}
        for i in active:
            lo, hi = joint.indptr[i], joint.indptr[i + 1]
            prev_states = current.states[joint.indices[lo:hi]]
            probs = joint.data[lo:hi] / col_sums[i]
            order = np.argsort(prev_states, kind="stable")
            rows_of_t[int(i)] = (prev_states[order], probs[order])
        reverse[t] = rows_of_t
        current = SparseDistribution(active, col_sums[active] / col_sums[active].sum())
        if t in obs_by_time:
            assert current.probability_of(obs_by_time[t]) > 0.0
            current = SparseDistribution.point(obs_by_time[t])
        forwards[t] = current
    posteriors = {t_last: SparseDistribution.point(obs_by_time[t_last])}
    transitions = {}
    for t in range(t_last - 1, t_first - 1, -1):
        nxt = posteriors[t + 1]
        prev_parts, next_parts, mass_parts = [], [], []
        for k, p_k in zip(nxt.states, nxt.probs):
            prev_states, r_probs = reverse[t + 1][int(k)]
            prev_parts.append(prev_states)
            next_parts.append(np.full(prev_states.shape, k, dtype=np.intp))
            mass_parts.append(r_probs * p_k)
        prev_all = np.concatenate(prev_parts)
        order = np.argsort(prev_all, kind="stable")
        prev_all = prev_all[order]
        next_all = np.concatenate(next_parts)[order]
        mass_all = np.concatenate(mass_parts)[order]
        uniq, starts = np.unique(prev_all, return_index=True)
        bounds = np.append(starts, prev_all.size)
        rows_fwd, totals = {}, np.empty(uniq.shape)
        for idx, state in enumerate(uniq):
            mass = mass_all[bounds[idx] : bounds[idx + 1]]
            totals[idx] = mass.sum()
            rows_fwd[int(state)] = (
                next_all[bounds[idx] : bounds[idx + 1]].copy(),
                mass / totals[idx],
            )
        transitions[t] = rows_fwd
        posteriors[t] = SparseDistribution(uniq, totals / totals.sum())
    if extend_to is not None and extend_to > t_last:
        current = posteriors[t_last]
        for t in range(t_last, extend_to):
            matrix = chain.matrix_at(t)
            transitions[t] = {
                int(s): (
                    matrix.getrow(int(s)).indices.astype(np.intp),
                    matrix.getrow(int(s)).data.copy(),
                )
                for s in current.states
            }
            current = current.propagate(matrix)
            posteriors[t + 1] = forwards[t + 1] = current
    return transitions, posteriors, forwards


def fresh_twin(db: TrajectoryDatabase) -> TrajectoryDatabase:
    """The same objects, built in one go from their final observation lists."""
    twin = TrajectoryDatabase(db.space, db.chain)
    for obj in db:
        twin.add_object(
            obj.object_id,
            obj.observations.as_pairs(),
            chain=obj.chain,
            extend_to=obj.extend_to,
        )
    return twin


def reference_tables(transitions, posteriors):
    """A model's :class:`~repro.markov.compiled.ModelTables`, built row by
    row from its ``F(t)`` row dictionaries and posterior marginals (the
    pre-kernel builder, laid out as every compiled sampler reads it)."""
    tics = sorted(posteriors)
    row0 = np.cumsum([0] + [posteriors[t].states.size for t in tics])
    cdfs, sizes, successors = [np.empty(0)], [], [np.empty(0, dtype=np.intp)]
    for i, t in enumerate(tics[:-1]):
        next_support = posteriors[t + 1].states
        for state in posteriors[t].states:
            next_states, probs = transitions[t][int(state)]
            cdfs.append(np.cumsum(probs))
            sizes.append(next_states.size)
            rows = np.searchsorted(next_support, next_states) + row0[i + 1]
            successors.append(np.append(rows, rows[-1]))  # + the trailing entry
    return ModelTables(
        row0=row0.astype(np.intp),
        states=np.concatenate([posteriors[t].states for t in tics]),
        init_cdf=np.concatenate([np.cumsum(posteriors[t].probs) for t in tics]),
        cdf=np.concatenate(cdfs),
        indptr=np.cumsum([0] + sizes).astype(np.intp),
        next=np.concatenate(successors).astype(np.intp),
    )


# ----------------------------------------------------------------------
# byte-level comparison helpers
# ----------------------------------------------------------------------
def same_array(a, b, context):
    if a is None or b is None:
        assert a is b, context
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, (context, a.dtype, b.dtype)
    assert a.tobytes() == b.tobytes(), context


def same_distributions(a: dict, b: dict, context):
    assert sorted(a) == sorted(b), context
    for t in a:
        same_array(a[t].states, b[t].states, (*context, t, "states"))
        same_array(a[t].probs, b[t].probs, (*context, t, "probs"))


def same_transitions(a: dict, b: dict, context):
    assert sorted(a) == sorted(b), context
    for t in a:
        assert list(a[t]) == list(b[t]), (*context, t)
        for state in a[t]:
            for x, y in zip(a[t][state], b[t][state]):
                same_array(x, y, (*context, t, state))


def same_tables(a, b, context):
    for name, x, y in zip(ModelTables._fields, a, b):
        same_array(x, y, (*context, name))


def same_compiled(a, b, context):
    assert (a.t_first, a.t_last) == (b.t_first, b.t_last), context
    assert a.max_state == b.max_state, context
    for t in range(a.t_first, a.t_last + 1):
        for x, y in zip(a.initial_table(t), b.initial_table(t)):
            same_array(x, y, (*context, t, "initial"))
    same_tables(a.tables, b.tables, context)


def same_model(live, fresh, context):
    assert (live.t_first, live.t_last) == (fresh.t_first, fresh.t_last), context
    assert live.observation_times == fresh.observation_times, context
    same_transitions(live.transitions, fresh.transitions, (*context, "F"))
    same_distributions(live.posteriors, fresh.posteriors, (*context, "posterior"))
    same_distributions(live.forwards, fresh.forwards, (*context, "forward"))
    same_compiled(live.compiled, fresh.compiled, (*context, "compiled"))
