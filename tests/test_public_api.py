"""Tests for the top-level package surface."""

import importlib
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from tests.conftest import make_paper_example_db


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.7.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_key_classes_importable_from_root(self):
        from repro import (
            AdaptedModel,
            MarkovChain,
            Query,
            QueryEngine,
            Rect,
            SparseDistribution,
            StateSpace,
            Trajectory,
            TrajectoryDatabase,
            USTTree,
            UncertainObject,
        )

        assert QueryEngine and TrajectoryDatabase  # imported fine

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core.apriori",
            "repro.core.bounds",
            "repro.core.evaluator",
            "repro.core.exact",
            "repro.core.knn",
            "repro.core.queries",
            "repro.core.results",
            "repro.core.snapshot",
            "repro.markov.adaptation",
            "repro.markov.chain",
            "repro.markov.distributions",
            "repro.markov.sampling",
            "repro.trajectory.database",
            "repro.trajectory.diamonds",
            "repro.trajectory.nn",
            "repro.trajectory.observation",
            "repro.trajectory.trajectory",
            "repro.spatial.geometry",
            "repro.spatial.ust_tree",
            "repro.statespace.base",
            "repro.statespace.generator",
            "repro.statespace.grid",
            "repro.statespace.network",
            "repro.stream.ingest",
            "repro.stream.monitor",
            "repro.stream.scheduler",
            "repro.serve.coordinator",
            "repro.serve.engine",
            "repro.serve.protocol",
            "repro.serve.sharding",
            "repro.serve.transport",
            "repro.serve.worker",
            "repro.data.io",
            "repro.data.synthetic",
            "repro.data.taxi",
            "repro.analysis.calibration",
            "repro.analysis.effectiveness",
            "repro.analysis.hoeffding",
            "repro.satreduction.ksat",
            "repro.satreduction.reduction",
            "repro.experiments.config",
            "repro.experiments.figures",
            "repro.experiments.report",
            "repro.experiments.results",
            "repro.experiments.runner",
        ],
    )
    def test_every_module_imports(self, module):
        assert importlib.import_module(module) is not None

    @pytest.mark.parametrize(
        "module",
        ["repro.core.evaluator", "repro.markov.adaptation", "repro.spatial.ust_tree"],
    )
    def test_public_functions_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} missing module docstring"
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if callable(obj):
                assert obj.__doc__, f"{module}.{name} missing docstring"


class TestEngineOptionCount:
    """The engine's option space is pinned: one switch and a backend.

    Every ablation mode that used to be a constructor flag is an oracle
    under ``tests/oracles/`` — a function a test calls, not something an
    operator can set — and world sharing is a batch's (``held_batch`` /
    ``evaluate_many``), not an engine's.
    """

    REMOVED = (
        "fused", "incremental", "window_restrict", "prune_vectorized", "refine_per_tic",
        "reuse_worlds",
    )

    def test_query_engine_signature(self):
        params = list(inspect.signature(repro.QueryEngine.__init__).parameters)
        assert params == [
            "self", "db", "n_samples", "seed", "rng", "use_pruning", "ust_tree",
            "backend", "refine_cache_size", "tracer", "metrics", "slow_log",
        ]

    @pytest.mark.parametrize("option", REMOVED)
    def test_removed_options_are_type_errors(self, option):
        with pytest.raises(TypeError, match=option):
            repro.QueryEngine(make_paper_example_db(), **{option: False})

    def test_reference_backend_is_gone(self):
        with pytest.raises(ValueError, match="unknown sampling backend"):
            repro.QueryEngine(make_paper_example_db(), backend="reference")

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_coordinator_rejects_them_before_any_worker_starts(self, mode, monkeypatch):
        from repro.serve import coordinator

        def no_transport(*args, **kwargs):
            raise AssertionError("a transport was built for a rejected option")

        monkeypatch.setattr(coordinator, "InlineTransport", no_transport)
        monkeypatch.setattr(coordinator, "ProcessTransport", no_transport)
        with pytest.raises(TypeError, match="incremental"):
            repro.ServeCoordinator(
                make_paper_example_db(), seed=1, mode=mode, incremental=False
            )

    def test_prune_takes_no_boolean(self):
        for name, param in inspect.signature(repro.USTTree.prune).parameters.items():
            assert not isinstance(param.default, bool), name
        assert list(inspect.signature(repro.USTTree.prune).parameters) == [
            "self", "q_coords", "times", "k",
        ]
        assert list(inspect.signature(repro.USTTree.__init__).parameters) == ["self", "db"]

    def test_oracle_code_left_the_package(self):
        import repro.spatial

        for name in ("RStarTree", "SegmentKey"):
            assert name not in repro.__all__ and not hasattr(repro, name)
            assert name not in repro.spatial.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.spatial.rstar")

    def test_no_trace_of_the_removed_modes_in_src(self):
        """The acceptance grep of the PR that removed them, kept as a test."""
        pattern = re.compile(
            r"self\.(fused|incremental|window_restrict|prune_vectorized|refine_per_tic)"
            r"|engine\.incremental|vectorized=|backend=\"reference\"|batch_query"
            r"|RStarTree|SegmentKey|\b_by_object|rstar"  # not ``estimator_by_object``
            # ... and of the five spellings of a refinement block (PR 24).
            r"|_cached_states_block|_cached_distance_tensor|_predict_columns"
            r"|_staged_key|PrefetchWorlds"
            # ... and of the invalidation and warm-up rounds of their own.
            r"|SyncShard|WarmWorlds"
            # ... and of the shared-memory gather and the threaded fan-out.
            r"|uses_shm|shm_name|shm_offset|_open_shm|SharedMemory|asyncio"
            r"|ThreadPoolExecutor|roundtrip_seconds"
            # ... and of the float-offset wide-row draw.
            r"|_DENSE_WIDTH_LIMIT|is_wide|wide_aug|wide_pos|layer\.aug"
            # ... and of the second counting truth: registry mirrors, loose
            # counters beside them, optional-registry guards, the serve
            # tier's second absorption path and the offset-CDF draw.
            r"|bind_metrics|table_build_counter|_m_(hits|partial|misses)|_shard_counters"
            r"|Reply\(counters|metrics is (not )?None(?! else MetricsRegistry)|\baug\b"
            # ... and of the C sweep's fused step tables.
            r"|sup_base|repro_step\b|_step_struct|_check_step|init_native"
            # ... and of the per-tic layer objects and the arena's layout
            # bookkeeping (a compiled model is its ModelTables alone).
            r"|CompiledLayer|local_next|\.layer\(|_layers\b|cdf_flat|next_flat|entry_rows"
            r"|cdf_dense|object_index|_order_counter|_pos_counter|\.pos\b|replace_stages"
        )
        src = Path(repro.__file__).parent
        hits = [
            f"{path.relative_to(src)}:{n}: {line.strip()}"
            for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert hits == []
        # The engine draws through the arena alone: the numpy sweep's size
        # selection is the arena's business.
        core = [path.name for path in (src / "core").rglob("*.py")
                if "FUSED_DRAW_THRESHOLD" in path.read_text()]
        assert core == []

    def test_arena_registration_takes_no_order(self):
        from repro.markov.arena import SamplingArena

        params = list(inspect.signature(SamplingArena.ensure).parameters)
        assert params == ["self", "object_id", "model"]

    def test_samplers_take_no_destination_buffers(self):
        from repro.markov import native
        from repro.markov.arena import sample_paths_arena

        for fn in (sample_paths_arena, native.draw_arena):
            assert "out" not in inspect.signature(fn).parameters, fn.__name__


class TestRefinementSeam:
    """A refinement block is one record, filled by one method, patched by
    one cache; the serve tier replaces that seam and nothing else."""

    SEAM = {"_fill_blocks", "fetch_worlds", "sync_mutations"}

    def test_sharded_engine_overrides_only_the_seam(self):
        from repro.serve.engine import ShardedQueryEngine

        overridden = {
            name
            for name in set(vars(ShardedQueryEngine)) & set(vars(repro.QueryEngine))
            if not (name.startswith("__") and name.endswith("__"))
        }
        assert overridden == self.SEAM

    def test_worker_reads_no_engine_private(self):
        import ast

        import repro.serve.worker as worker

        tree = ast.parse(Path(worker.__file__).read_text())
        private = [
            f"line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and "engine" in ast.unparse(node.value)
        ]
        assert private == []

    def test_one_function_decides_refine_cache_staleness(self):
        src = Path(repro.__file__).parent
        callers = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if "changed_since(entry" in path.read_text()
        ]
        assert callers == ["core/refine.py"]
        assert (src / "core/refine.py").read_text().count("changed_since(") == 1

    def test_wire_job_is_the_refine_job(self):
        from repro.core.refine import RefineJob
        from repro.serve.protocol import ComputeJob

        assert issubclass(ComputeJob, RefineJob)

    @given(
        kind=st.sampled_from(["dist", "states"]),
        coords=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
        times=st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
        ids=st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True),
        n=st.integers(1, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_job_key_is_the_content(self, kind, coords, times, ids, n):
        import numpy as np

        from repro.core.refine import RefineJob

        def job(kind=kind, coords=coords, times=times, ids=ids, n=n):
            table = None if kind == "states" else np.tile(np.array(coords), (len(times), 1))
            return RefineJob(kind, table, np.array(sorted(times), dtype=np.intp), tuple(ids), n)

        assert job().key == job().key and hash(job().key) == hash(job().key)
        others = [
            job(kind="states" if kind == "dist" else "dist"),
            job(times=[t + 1 for t in times]),
            job(ids=[*ids, "e"]),
            job(n=n + 1),
        ]
        if kind == "dist":
            others.append(job(coords=[coords[0] + 1.0, coords[1]]))
        assert all(other.key != job().key for other in others)
        assert job().columns([0]).key == job(ids=ids[:1]).key
