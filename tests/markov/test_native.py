"""Native (C) kernel tier suite: byte-identity, seeding, fallback.

The tier's contract (see :mod:`repro.markov.native`) has three layers,
each pinned here:

* **arena lockstep** — ``sample_paths_arena(..., native=True)`` is
  byte-identical to the numpy arena for every request shape the engine
  produces (fresh, resumed, mixed windows with gaps, wide rows), with both
  real Generators and the tier's :class:`~repro.markov.native.LazySeededRng`
  handles;
* **C seeding** — the in-kernel SeedSequence/PCG64 port draws exactly
  numpy's uniforms for arbitrary entropy, resume offsets and batch
  shapes, and a materialized lazy handle parks on the identical stream;
* **selection** — ``backend="native"`` engines match ``"compiled"``
  bit for bit end to end (distance tensors, batch queries, sharded
  serving), ``REPRO_DISABLE_NATIVE`` degrades to the numpy paths with a
  descriptive error only on explicit selection, and unknown backends
  fail fast.

Everything except the fallback subprocess tests skips cleanly when the
tier cannot load, so the suite passes with and without a C toolchain.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.markov import native
from repro.markov.adaptation import adapt_model
from repro.markov.arena import ArenaRequest, SamplingArena, sample_paths_arena
from repro.markov.chain import MarkovChain
from tests.conftest import make_random_world
from tests.oracles import loop_distance_tensor, reference_tables, same_tables

pytestmark = pytest.mark.native

requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native tier unavailable ({native.unavailable_reason()})",
)


def _make_adapted(n_states, span, obs_every, seed, dense=False):
    """One adapted model from a chain walk; ``dense=True`` yields rows
    as wide as the state space."""
    r = np.random.default_rng(seed)
    mat = r.uniform(size=(n_states, n_states))
    if not dense:
        mask = r.uniform(size=(n_states, n_states)) < (6.0 / n_states)
        np.fill_diagonal(mask, True)
        mat = mat * mask
    mat /= mat.sum(axis=1, keepdims=True)
    chain = MarkovChain(sparse.csr_matrix(mat))
    walk = [int(r.integers(n_states))]
    for _ in range(span):
        nxt, probs = chain.successors(walk[-1], 0)
        walk.append(int(r.choice(nxt, p=probs)))
    obs = [(t, walk[t]) for t in range(0, span + 1, obs_every)]
    return adapt_model(chain, obs)


def _make_model(*args, **kwargs):
    return _make_adapted(*args, **kwargs).compiled


#: Narrow models plus one dense one whose rows are wider than 64 entries —
#: the shapes that exercise every branch of the C sweep.
MODEL_SHAPES = [(60, 16, 4, s, False) for s in range(4)] + [
    (80, 12, 6, 99, True),
    (60, 16, 8, 7, False),
]


@pytest.fixture(scope="module")
def models():
    return [_make_model(*shape) for shape in MODEL_SHAPES]


def _arena(models, c_sweep=False):
    arena = SamplingArena(native=c_sweep)
    for i, m in enumerate(models):
        arena.ensure(f"m{i}", m)
    return arena


def _lazy_rng(seed, words=6):
    ent = np.random.default_rng(seed).integers(
        0, 2**32, size=words, dtype=np.uint32
    )
    return native.LazySeededRng(ent)


def _real_rng(seed, words=6):
    ent = np.random.default_rng(seed).integers(
        0, 2**32, size=words, dtype=np.uint32
    )
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(ent)))


@requires_native
class TestArenaLockstep:
    """native=True draws are byte-identical to the numpy arena."""

    def _lockstep(self, models, requests_f, n):
        native_out = sample_paths_arena(_arena(models, c_sweep=True), requests_f(), n)
        numpy_out = sample_paths_arena(_arena(models), requests_f(), n)
        for got, ref in zip(native_out, numpy_out):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("rng_factory", [_lazy_rng, _real_rng],
                             ids=["lazy", "real"])
    def test_fresh_full_windows(self, models, rng_factory):
        def requests():
            return [
                ArenaRequest(f"m{i}", 0, models[i].t_last, rng_factory(100 + i))
                for i in range(len(models))
            ]

        self._lockstep(models, requests, 32)

    def test_lazy_handles_draw_the_real_generator_streams(self, models):
        """A LazySeededRng batch samples exactly what eagerly constructed
        Generators over the same entropy would — the handle is pure
        deferral, not a different stream."""
        def reqs(factory):
            return [
                ArenaRequest(f"m{i}", 0, models[i].t_last, factory(100 + i))
                for i in range(len(models))
            ]

        arena = _arena(models, c_sweep=True)
        via_lazy = sample_paths_arena(arena, reqs(_lazy_rng), 32)
        via_real = sample_paths_arena(arena, reqs(_real_rng), 32)
        for a, b in zip(via_lazy, via_real):
            np.testing.assert_array_equal(a, b)

    def test_mixed_windows_gaps_and_wide_rows(self, models):
        assert max(np.diff(m.tables.indptr).max() for m in models) > 64

        def requests():
            return [
                ArenaRequest("m0", 2, 9, _lazy_rng(7)),
                ArenaRequest("m3", 11, 15, _lazy_rng(8)),
                ArenaRequest("m4", 0, 8, _lazy_rng(9)),  # dense model
                ArenaRequest("m1", 5, 12, _lazy_rng(10)),
            ]

        self._lockstep(models, requests, 48)

    @pytest.mark.parametrize("rng_factory", [_lazy_rng, _real_rng],
                             ids=["lazy", "real"])
    def test_resumed_draws(self, models, rng_factory):
        """Draw a head, then extend from its last column with the parked
        generators — native and numpy agree on both halves."""

        def draw(native_flag):
            arena = _arena(models, c_sweep=native_flag)
            reqs = [
                ArenaRequest(f"m{i}", 0, 8, rng_factory(200 + i))
                for i in range(len(models))
            ]
            first = sample_paths_arena(arena, reqs, 16)
            reqs2 = [
                ArenaRequest(
                    f"m{i}", 8, models[i].t_last, reqs[i].rng,
                    start_states=first[i][:, -1],
                )
                for i in range(len(models))
            ]
            second = sample_paths_arena(arena, reqs2, 16)
            return first + second

        for got, ref in zip(draw(True), draw(False)):
            np.testing.assert_array_equal(got, ref)

    def test_resume_after_materializing_one_handle(self, models):
        """Touching one lazy handle between draws (forcing a real
        Generator) must not change anyone's streams — the batch merely
        loses the all-lazy fast path."""

        def draw(poke):
            arena = _arena(models, c_sweep=True)
            reqs = [
                ArenaRequest(f"m{i}", 0, 8, _lazy_rng(200 + i))
                for i in range(len(models))
            ]
            first = sample_paths_arena(arena, reqs, 16)
            if poke:
                _ = reqs[2].rng.bit_generator  # materializes the handle
            reqs2 = [
                ArenaRequest(
                    f"m{i}", 8, models[i].t_last, reqs[i].rng,
                    start_states=first[i][:, -1],
                )
                for i in range(len(models))
            ]
            second = sample_paths_arena(arena, reqs2, 16)
            return first + second

        for got, ref in zip(draw(poke=True), draw(poke=False)):
            np.testing.assert_array_equal(got, ref)


@requires_native
class TestNativeSeeding:
    """The C SeedSequence/PCG64 port against numpy itself."""

    def test_seed_fill_selfcheck_passes(self):
        assert native.seed_fill_ready()

    def test_randomized_seed_fill_parity(self):
        if not native.seed_fill_ready():
            pytest.skip("C seeder disabled by self-check")
        ffi, lib = native._module.ffi, native._module.lib
        rng = np.random.default_rng(99)
        for _ in range(50):
            n_words = int(rng.integers(1, 12))
            ent = rng.integers(0, 2**32, size=n_words, dtype=np.uint32)
            consumed = int(rng.integers(0, 5000))
            count = int(rng.integers(1, 64))
            gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(ent))
            )
            ref = gen.random(consumed + count)[consumed:]
            got = np.empty(count)
            lib.repro_seed_fill(
                ffi.from_buffer("uint32_t[]", ent),
                n_words,
                1,
                ffi.from_buffer(
                    "int64_t[]", np.array([consumed], dtype=np.intp)
                ),
                ffi.from_buffer(
                    "int64_t[]", np.array([count], dtype=np.intp)
                ),
                ffi.from_buffer("double[]", got, require_writable=True),
                count,
            )
            np.testing.assert_array_equal(
                ref, got, err_msg=f"{n_words=} {consumed=} {count=}"
            )

    def test_batched_seed_fill_parity(self):
        if not native.seed_fill_ready():
            pytest.skip("C seeder disabled by self-check")
        ffi, lib = native._module.ffi, native._module.lib
        rng = np.random.default_rng(5)
        n_req, n_words, count = 5, 7, 33
        ents = rng.integers(0, 2**32, size=(n_req, n_words), dtype=np.uint32)
        consumed = rng.integers(0, 100, size=n_req).astype(np.intp)
        counts = np.full(n_req, count, dtype=np.intp)
        out = np.empty((n_req, count))
        lib.repro_seed_fill(
            ffi.from_buffer("uint32_t[]", ents.reshape(-1)),
            n_words,
            n_req,
            ffi.from_buffer("int64_t[]", consumed),
            ffi.from_buffer("int64_t[]", counts),
            ffi.from_buffer(
                "double[]", out.reshape(-1), require_writable=True
            ),
            count,
        )
        for r in range(n_req):
            gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(ents[r]))
            )
            ref = gen.random(int(consumed[r]) + count)[int(consumed[r]):]
            np.testing.assert_array_equal(ref, out[r], err_msg=f"request {r}")

    def test_lazy_rng_materializes_on_the_parked_stream(self):
        """After the sweep bumps ``consumed``, any other consumer sees a
        Generator advanced exactly past the natively drawn doubles."""
        ent = np.random.default_rng(1).integers(
            0, 2**32, size=7, dtype=np.uint32
        )
        lazy = native.LazySeededRng(ent.copy())
        lazy.consumed = 77
        got = lazy.random(10)
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(ent)))
        gen.random(77)
        np.testing.assert_array_equal(got, gen.random(10))


def _parity_db():
    db, _ = make_random_world(
        seed=17, n_states=40, n_objects=8, span=14, obs_every=4
    )
    return db


@requires_native
class TestEngineParity:
    """backend="native" engines are bit-identical to backend="compiled"."""

    def test_distance_tensor_matrix(self):
        """Shared-world partial windows, forward extension, fresh epochs
        and direct (per-call) draws, on both backends and against the
        per-object loop oracle."""
        db = _parity_db()
        ids = sorted(db.object_ids)
        q = Query.from_point([5.0, 5.0])
        times, part = np.arange(2, 13), np.arange(2, 8)

        shared, direct = {}, {}
        for backend in ("compiled", "native"):
            eng = QueryEngine(db, n_samples=64, seed=12, backend=backend)
            with eng.held_batch():
                eng.new_draw_epoch()
                t1 = eng.distance_tensor(ids, q, part)  # partial window
                t2 = eng.distance_tensor(ids, q, times)  # forward extension
                np.testing.assert_array_equal(t2, loop_distance_tensor(eng, ids, q, times))
                eng.new_draw_epoch()
                t3 = eng.distance_tensor(ids, q, times)
            shared[backend] = (t1, t2, t3)

            direct_eng = QueryEngine(db, n_samples=64, seed=12, backend=backend)
            direct[backend] = direct_eng.distance_tensor(ids, q, times)
            np.testing.assert_array_equal(
                direct[backend], loop_distance_tensor(direct_eng, ids, q, times)
            )

        for got, want in zip(shared["native"], shared["compiled"]):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(direct["native"], direct["compiled"])

    def test_batch_results_identical(self):
        db = _parity_db()
        q = Query.from_point([5.0, 5.0])
        requests = [
            QueryRequest(q, tuple(range(3, 9)), "forall", 0.05),
            QueryRequest(q, tuple(range(5, 11)), "exists", 0.1),
        ]
        results = {}
        for backend in ("compiled", "native"):
            eng = QueryEngine(db, n_samples=64, seed=12, backend=backend)
            results[backend] = eng.evaluate_many(requests)
        for ra, rb in zip(results["compiled"], results["native"]):
            # Everything but wall-clock stage timings must match exactly.
            assert ra.probabilities == rb.probabilities
            assert ra.results == rb.results
            assert ra.candidates == rb.candidates
            assert ra.influencers == rb.influencers
            assert ra.report.sampled_objects == rb.report.sampled_objects

    def test_bulk_rng_handles_match_eager_generators(self):
        """A native engine's per-object RNGs are LazySeededRng handles;
        their streams equal eagerly seeded Generators over their entropy."""
        if not native.seed_fill_ready():
            pytest.skip("the C seeder failed its self-check")
        db = _parity_db()
        eng = QueryEngine(db, n_samples=16, seed=3, backend="native")
        eng.new_draw_epoch()
        oid = sorted(db.object_ids)[0]
        handle = eng._object_rng(oid, round_=2)
        assert type(handle) is native.LazySeededRng
        eager = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(handle.entropy))
        )
        np.testing.assert_array_equal(handle.random(16), eager.random(16))

    def test_one_dirty_object_redraws_in_c_seeding_no_generator(self, monkeypatch):
        """A monitor tick that redraws one dirty object draws it in the C
        sweep like any other batch — never through the per-object
        sampler — from a lazy handle: no ``SeedSequence`` is built
        anywhere in the tick."""
        from repro.markov.adaptation import AdaptedModel
        from repro.stream import AddObservation
        from repro.stream.monitor import ContinuousMonitor

        if not native.seed_fill_ready():
            pytest.skip("the C seeder failed its self-check")
        db = _parity_db()
        eng = QueryEngine(db, n_samples=32, seed=3, backend="native")
        monitor = ContinuousMonitor(eng)
        monitor.subscribe(
            QueryRequest(Query.from_point([5.0, 5.0]), tuple(range(2, 10)), "forall", 0.1)
        )
        monitor.tick()
        oid = sorted(db.object_ids)[0]
        t = next(t for t in range(2, 10) if db.get(oid).observations.state_at(t) is None)
        state = int(db.get(oid).adapted.posterior(t).states[0])

        seeded, per_object = [], []
        real_seed_sequence = np.random.SeedSequence
        real_sample_paths = AdaptedModel.sample_paths

        def counting_seed_sequence(*args, **kwargs):
            seeded.append(args)
            return real_seed_sequence(*args, **kwargs)

        def counting_sample_paths(self, *args, **kwargs):
            per_object.append(args)
            return real_sample_paths(self, *args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
        monkeypatch.setattr(AdaptedModel, "sample_paths", counting_sample_paths)
        report = monitor.tick([AddObservation(oid, t, state)])
        assert report.reuse["sampler_calls"] >= 1
        assert per_object == []
        assert seeded == []

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_serve_lockstep(self, n_shards):
        """Sharded serving on the native backend matches the unsharded
        compiled monitor byte for byte."""
        from repro.serve import ServeCoordinator
        from repro.stream.monitor import ContinuousMonitor
        from tests.serve.conftest import (
            SEED,
            assert_reports_identical,
            event_script,
            standard_subscriptions,
            twin_db,
        )

        db_a, db_b = twin_db(), twin_db()
        monitor = ContinuousMonitor(
            QueryEngine(db_a, n_samples=120, seed=SEED, backend="compiled")
        )
        with ServeCoordinator(
            db_b,
            n_shards=n_shards,
            seed=SEED,
            mode="inline",
            n_samples=120,
            backend="native",
        ) as coord:
            for name, request in standard_subscriptions():
                monitor.subscribe(request, name=name)
                coord.subscribe(request, name=name)
            for t, (ev_a, ev_b) in enumerate(
                zip(event_script(db_a), event_script(db_b))
            ):
                assert_reports_identical(
                    monitor.tick(ev_a),
                    coord.tick(ev_b),
                    context=("native", n_shards, t),
                )


class TestEntropyTemplate:
    """The engine's pre-coerced uint32 entropy templates — the words a
    :class:`LazySeededRng` carries into C — seed exactly the streams of
    the equivalent python-int SeedSequence list (no tier required)."""

    def test_template_matches_python_int_seeding(self):
        db = _parity_db()
        eng = QueryEngine(db, n_samples=8, seed=5)
        eng.new_draw_epoch()
        eng.new_draw_epoch()
        oid = sorted(db.object_ids)[0]
        ent = eng._object_entropy(oid, 2)
        assert ent is not None and ent.dtype == np.dtype(np.uint32)
        via_template = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(ent))
        ).random(8)
        template, n_limbs = eng._rng_tags[oid]
        tags = [int(t) for t in template[n_limbs + 2 :]]
        via_ints = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence(
                    [eng._world_entropy, eng._draw_epoch, 2, *tags]
                )
            )
        ).random(8)
        np.testing.assert_array_equal(via_template, via_ints)
        np.testing.assert_array_equal(
            eng._object_rng(oid, 2).random(8), via_template
        )

    def test_huge_round_falls_back_to_python_int_seeding(self):
        """Rounds past the single-limb slot can't be patched into the
        template; the slow path must produce the same documented stream."""
        db = _parity_db()
        eng = QueryEngine(db, n_samples=8, seed=5)
        oid = sorted(db.object_ids)[0]
        big = 2**40
        assert eng._object_entropy(oid, big) is None
        got = eng._object_rng(oid, big).random(8)
        template, n_limbs = eng._rng_tags[oid]
        tags = [int(t) for t in template[n_limbs + 2 :]]
        ref = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence(
                    [eng._world_entropy, eng._draw_epoch, big, *tags]
                )
            )
        ).random(8)
        np.testing.assert_array_equal(got, ref)

    def test_compiled_backend_handles_are_real_generators(self):
        db = _parity_db()
        eng = QueryEngine(db, n_samples=8, seed=5, backend="compiled")
        oid = sorted(db.object_ids)[0]
        handle = eng._object_rng(oid)
        assert isinstance(handle, np.random.Generator)


class TestDefaultAndLayout:
    """The default resolves to the C sweep wherever it loads; the C sweep
    reads each model's own tables; parked handles copy and pickle."""

    def test_default_backend_resolves_once(self):
        eng = QueryEngine(_parity_db(), n_samples=8, seed=5)
        assert eng.backend == ("native" if native.available() else "compiled")

    def test_coordinator_shards_receive_the_resolved_backend(self):
        from repro.serve import ServeCoordinator

        with ServeCoordinator(
            _parity_db(), n_shards=2, seed=5, mode="inline", n_samples=8
        ) as coord:
            assert coord._config_for(0).engine_kwargs["backend"] == coord.engine.backend
            for shard in range(2):
                assert coord._transport.worker(shard).engine.backend == coord.engine.backend

    def test_model_tables_are_the_reference_tables(self):
        """What every sampler reads of a model is its tables, laid out from
        the ``F(t)`` row dictionaries: every tic's support and initial CDF,
        the CSR CDFs, and the successors as model rows with one trailing
        entry per row."""
        for shape in MODEL_SHAPES:
            adapted = _make_adapted(*shape)
            want = reference_tables(adapted.transitions, adapted.posteriors)
            same_tables(adapted.compiled.tables, want, shape)

    @requires_native
    @pytest.mark.parametrize(
        "dup",
        [copy.deepcopy, lambda db: pickle.loads(pickle.dumps(db))],
        ids=["deepcopy", "pickle"],
    )
    def test_natively_queried_databases_copy_and_pickle(self, dup):
        """The C sweep's checked model structs live on the engine's arena,
        not on the models the database's objects carry: a database a native
        engine has drawn from still copies and pickles (the process
        transport ships shard views), and its clone draws the same worlds."""
        db = _parity_db()
        ids, q, times = sorted(db.object_ids), Query.from_point([5.0, 5.0]), np.arange(2, 13)
        first = QueryEngine(db, n_samples=32, seed=12, backend="native")
        drawn = first.distance_tensor(ids, q, times)
        clone = dup(db)
        again = QueryEngine(clone, n_samples=32, seed=12, backend="native")
        np.testing.assert_array_equal(again.distance_tensor(ids, q, times), drawn)

    @pytest.mark.parametrize("materialized", [False, True])
    @pytest.mark.parametrize(
        "dup",
        [copy.copy, copy.deepcopy, lambda h: pickle.loads(pickle.dumps(h))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_parked_handle_copies_continue_the_stream(self, dup, materialized):
        ent = np.random.default_rng(4).integers(0, 2**32, size=6, dtype=np.uint32)
        handle = native.LazySeededRng(ent, consumed=40)
        if materialized:
            _ = handle.bit_generator
        twin = dup(handle)
        eager = np.random.Generator(np.random.PCG64(np.random.SeedSequence(ent)))
        eager.random(40)
        want = eager.random(16)
        np.testing.assert_array_equal(twin.random(16), want)
        if not (materialized and dup is copy.copy):  # shares the bit generator
            np.testing.assert_array_equal(handle.random(16), want)

    @requires_native
    def test_fleet_monitor_materializes_no_handle(self, monkeypatch):
        """Sliding windows extend cached segments every tick, some through
        the per-object path: every parked handle draws in C."""
        from tests.stream.test_batched_adaptation import _fleet

        if not native.seed_fill_ready():
            pytest.skip("C seeder disabled by self-check")
        made = []
        materialize = native.LazySeededRng._materialize
        monkeypatch.setattr(
            native.LazySeededRng,
            "_materialize",
            lambda self: made.append(1) or materialize(self),
        )
        monitor, batches = _fleet()
        assert monitor.engine.backend == "native"
        for batch in batches:
            monitor.tick(batch)
        assert made == []

    def test_disabled_tier_resolves_to_compiled_with_equal_results(self):
        code = """
import hashlib
import numpy as np
from tests.conftest import make_random_world
from repro.core.evaluator import QueryEngine
from repro.core.queries import Query
db, _ = make_random_world(seed=17, n_states=40, n_objects=8, span=14, obs_every=4)
eng = QueryEngine(db, n_samples=16, seed=0)
t = eng.distance_tensor(sorted(db.object_ids), Query.from_point([5.0, 5.0]), np.arange(2, 8))
print(eng.backend, hashlib.sha256(np.ascontiguousarray(t).tobytes()).hexdigest())
"""
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ, REPRO_DISABLE_NATIVE="1")
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=root
        )
        assert proc.returncode == 0, proc.stderr
        db = _parity_db()
        eng = QueryEngine(db, n_samples=16, seed=0, backend="compiled")
        t = eng.distance_tensor(
            sorted(db.object_ids), Query.from_point([5.0, 5.0]), np.arange(2, 8)
        )
        want = hashlib.sha256(np.ascontiguousarray(t).tobytes()).hexdigest()
        assert proc.stdout.split() == ["compiled", want]


class TestSelectionAndFallback:
    """Backend selection and graceful degradation (no tier required)."""

    def test_unknown_backend_raises(self):
        db = _parity_db()
        with pytest.raises(ValueError, match="unknown sampling backend"):
            QueryEngine(db, backend="cuda")

    def test_disabled_tier_degrades_gracefully(self):
        """With REPRO_DISABLE_NATIVE=1 the tier reports unavailable,
        explicit selection raises a descriptive error, and the default
        compiled path keeps serving."""
        code = """
import numpy as np
from repro.markov import native
assert native.available() is False
assert "REPRO_DISABLE_NATIVE" in (native.unavailable_reason() or "")
try:
    native.require_native()
except RuntimeError as exc:
    msg = str(exc)
    assert "backend=\\"native\\"" in msg and "pip install" in msg, msg
else:
    raise AssertionError("require_native() did not raise")

from tests.conftest import make_random_world
from repro.core.evaluator import QueryEngine
from repro.core.queries import Query
db, _ = make_random_world(seed=17, n_states=40, n_objects=8, span=14, obs_every=4)
try:
    QueryEngine(db, backend="native")
except RuntimeError:
    pass
else:
    raise AssertionError('backend="native" did not raise when disabled')
eng = QueryEngine(db, n_samples=16, seed=0)
ids = sorted(db.object_ids)
tensor = eng.distance_tensor(ids, Query.from_point([5.0, 5.0]), np.arange(2, 8))
assert tensor.shape == (16, len(ids), 6)
print("fallback-ok")
"""
        env = dict(os.environ, REPRO_DISABLE_NATIVE="1")
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout
