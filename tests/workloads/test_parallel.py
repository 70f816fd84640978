"""Tests for the parallel batch engine and the content-addressed run cache.

The trust layer of ``repro.parallel``: serial/parallel equivalence, cache
round-trips, and Hypothesis property tests of the cache-key function.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.export import profile_to_dict
from repro.parallel import (
    CellSpec,
    EngineStats,
    RunCache,
    cache_key,
    canonical_json,
    derive_cell_seed,
    execute_cell,
    graph_key_material,
    model_fingerprints,
    run_grid,
    trace_key_material,
)
from repro.workloads import WorkloadSpec
from repro.workloads.graphalytics import run_suite

GRID = (("graph500", "pr"), ("graph500", "bfs"))


def _profile_dicts(result):
    return [profile_to_dict(e.profile) for e in result]


# ---------------------------------------------------------------------- #
# Serial vs parallel equivalence
# ---------------------------------------------------------------------- #


class TestEquivalence:
    def test_parallel_suite_matches_serial_bit_identical(self):
        """jobs=4 must produce byte-for-byte the profiles of jobs=1."""
        serial = run_suite(preset="tiny", grid=GRID, characterize=True, jobs=1)
        parallel = run_suite(preset="tiny", grid=GRID, characterize=True, jobs=4)
        assert [e.spec for e in serial] == [e.spec for e in parallel]
        for a, b in zip(serial, parallel):
            assert a.makespan == b.makespan
            assert a.processing_time == b.processing_time
            assert a.evps == b.evps
            assert a.n_iterations == b.n_iterations
        sd, pd = _profile_dicts(serial), _profile_dicts(parallel)
        for a, b in zip(sd, pd):
            assert a == b  # exact, not approx: same code path, same seeds
        # JSON round-trip equality too — nothing non-serializable sneaks in.
        assert json.dumps(sd, sort_keys=True) == json.dumps(pd, sort_keys=True)

    def test_parallel_with_cache_matches_serial_with_cache(self, tmp_path):
        serial = run_suite(
            preset="tiny", grid=GRID, characterize=True, jobs=1,
            cache_dir=tmp_path / "a",
        )
        parallel = run_suite(
            preset="tiny", grid=GRID, characterize=True, jobs=4,
            cache_dir=tmp_path / "b",
        )
        for a, b in zip(_profile_dicts(serial), _profile_dicts(parallel)):
            assert a == b

    def test_run_grid_preserves_input_order(self):
        cells = [
            CellSpec(WorkloadSpec(system, "graph500", alg, preset="tiny"))
            for system in ("giraph", "powergraph")
            for alg in ("pr", "bfs", "wcc")
        ]
        results, _ = run_grid(cells, jobs=4)
        assert [r.spec for r in results] == [c.spec for c in cells]

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_grid([], jobs=0)


# ---------------------------------------------------------------------- #
# Cache round-trips
# ---------------------------------------------------------------------- #


class TestRunCache:
    def test_cold_then_warm_equal_profiles_and_full_hits(self, tmp_path):
        """Cold run populates; warm run replays with >= 90% hits, equal output."""
        cache = tmp_path / "cache"
        cold = run_suite(preset="tiny", grid=GRID, characterize=True, jobs=2,
                         cache_dir=cache)
        warm = run_suite(preset="tiny", grid=GRID, characterize=True, jobs=2,
                         cache_dir=cache)
        assert cold.stats.cache_hits == 0
        assert cold.stats.executed == len(cold.entries)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(warm.entries)
        assert warm.stats.hit_rate >= 0.9  # the acceptance threshold
        for a, b in zip(_profile_dicts(cold), _profile_dicts(warm)):
            assert a == b
        for a, b in zip(cold, warm):
            assert a.makespan == b.makespan
            assert a.evps == b.evps

    def test_cache_payload_is_archive_format(self, tmp_path):
        cell = CellSpec(WorkloadSpec("giraph", "graph500", "pr", preset="tiny"))
        result = execute_cell(cell, tmp_path)
        payload = RunCache(tmp_path).path_for(result.key)
        for name in ("events.jsonl", "monitoring.csv", "models.json",
                     "meta.json", "cell.json"):
            assert (payload / name).is_file(), name
        # The payload is a valid archive: offline analysis works on it.
        from repro.workloads.archive import characterize_archive

        profile = characterize_archive(payload)
        assert profile.makespan == pytest.approx(result.makespan)

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
    def test_cold_cell_samples_its_monitoring_once_per_interval(
        self, cached, tmp_path, monkeypatch
    ):
        """The archive's monitoring.csv and the profile share one 0.4 s sample."""
        from repro.cluster.metrics import MetricsRecorder
        from repro.workloads.archive import load_run

        intervals = []
        sample = MetricsRecorder.sample

        def counting(self, interval, *args, **kwargs):
            intervals.append(interval)
            return sample(self, interval, *args, **kwargs)

        monkeypatch.setattr(MetricsRecorder, "sample", counting)
        cell = CellSpec(WorkloadSpec("giraph", "graph500", "pr", preset="tiny"),
                        characterize=True)
        result = execute_cell(cell, tmp_path if cached else None)
        assert sorted(intervals) == ([0.05, 0.4] if cached else [0.4])
        if cached:
            # The archive holds the measurements the profile used.
            archived = load_run(RunCache(tmp_path).path_for(result.key))[1]
            used = result.profile.resource_trace
            assert archived.measured_resources() == used.measured_resources()
            for name in used.measured_resources():
                assert archived.measurements(name) == used.measurements(name)

    def test_truncated_payload_is_a_miss(self, tmp_path):
        cell = CellSpec(WorkloadSpec("giraph", "graph500", "pr", preset="tiny"))
        result = execute_cell(cell, tmp_path)
        cache = RunCache(tmp_path)
        # Simulate a crashed writer: completeness marker missing.
        (cache.path_for(result.key) / "cell.json").unlink()
        assert not cache.has(result.key)
        again = execute_cell(cell, tmp_path)
        assert not again.cached
        assert cache.has(result.key)

    def test_no_cache_dir_writes_nothing(self, tmp_path):
        cell = CellSpec(WorkloadSpec("giraph", "graph500", "pr", preset="tiny"))
        execute_cell(cell, None)
        assert list(tmp_path.iterdir()) == []

    def test_distinct_cells_get_distinct_payloads(self, tmp_path):
        cells = [
            CellSpec(WorkloadSpec("giraph", "graph500", alg, preset="tiny"))
            for alg in ("pr", "bfs")
        ]
        results, _ = run_grid(cells, cache_dir=tmp_path)
        assert results[0].key != results[1].key
        assert len(RunCache(tmp_path)) == 2

    def test_seed_change_invalidates(self, tmp_path):
        a = execute_cell(
            CellSpec(WorkloadSpec("giraph", "graph500", "pr", preset="tiny", seed=0)),
            tmp_path,
        )
        b = execute_cell(
            CellSpec(WorkloadSpec("giraph", "graph500", "pr", preset="tiny", seed=1)),
            tmp_path,
        )
        assert a.key != b.key
        assert not b.cached

    def test_stats_summary_readable(self):
        stats = EngineStats(n_cells=4, executed=1, cache_hits=3, jobs=2,
                            wall_clock=1.0, cell_seconds=2.0)
        s = stats.summary()
        assert "4 cells" in s and "3 cache hits" in s and "2.0x" in s
        assert stats.hit_rate == pytest.approx(0.75)

    def test_stats_summary_reports_layers_when_cache_used(self):
        stats = EngineStats(n_cells=2, executed=1, cache_hits=1,
                            graph_hits=1, graph_misses=1,
                            trace_hits=1, trace_misses=1)
        assert "graph 1h/1m" in stats.summary()
        assert "trace 1h/1m" in stats.summary()
        doc = stats.to_dict()
        assert doc["graph_hits"] == 1 and doc["trace_misses"] == 1


# ---------------------------------------------------------------------- #
# Layered sub-artifact caches (graph / trace)
# ---------------------------------------------------------------------- #


class TestLayeredCache:
    def test_graph_layer_shared_across_systems_and_algorithms(self, tmp_path):
        """One (dataset, preset) generates exactly once across the sweep."""
        cells = [
            CellSpec(WorkloadSpec(system, "graph500", alg, preset="tiny"))
            for system in ("giraph", "powergraph")
            for alg in ("pr", "bfs")
        ]
        _, stats = run_grid(cells, cache_dir=tmp_path)
        assert stats.graph_misses == 1  # first cell generates
        assert stats.graph_hits == len(cells) - 1  # the rest replay it
        assert stats.trace_misses == len(cells)
        assert RunCache(tmp_path).count("graph") == 1

    def test_downstream_knobs_share_one_trace(self, tmp_path):
        """Cells differing only in analysis options simulate exactly once."""
        spec = WorkloadSpec("giraph", "graph500", "pr", preset="tiny")
        variants = [
            CellSpec(spec),
            CellSpec(spec, characterize=True),
            CellSpec(spec, characterize=True, live=True),
        ]
        results, stats = run_grid(variants, cache_dir=tmp_path)
        assert stats.trace_misses == 1 and stats.trace_hits == len(variants) - 1
        assert stats.graph_misses == 1 and stats.graph_hits == 0
        cache = RunCache(tmp_path)
        assert cache.count("trace") == 1 and cache.count("graph") == 1
        assert len({r.key for r in results}) == 1  # all back one payload

    def test_trace_key_excludes_downstream_knobs_only(self):
        spec = WorkloadSpec("giraph", "graph500", "pr", preset="tiny", seed=3)
        base = cache_key(trace_key_material(CellSpec(spec)))
        assert base == cache_key(trace_key_material(CellSpec(spec, characterize=True)))
        assert base == cache_key(
            trace_key_material(CellSpec(spec, characterize=True, live=True))
        )
        upstream = [
            WorkloadSpec("powergraph", "graph500", "pr", preset="tiny", seed=3),
            WorkloadSpec("giraph", "datagen", "pr", preset="tiny", seed=3),
            WorkloadSpec("giraph", "graph500", "bfs", preset="tiny", seed=3),
            WorkloadSpec("giraph", "graph500", "pr", preset="small", seed=3),
            WorkloadSpec("giraph", "graph500", "pr", preset="tiny", seed=4),
        ]
        keys = [cache_key(trace_key_material(CellSpec(s))) for s in upstream]
        assert base not in keys and len(set(keys)) == len(keys)

    def test_graph_key_ignores_simulation_seed_and_system(self):
        a = WorkloadSpec("giraph", "graph500", "pr", preset="tiny", seed=0)
        b = WorkloadSpec("powergraph", "graph500", "bfs", preset="tiny", seed=9)
        assert graph_key_material(a) == graph_key_material(b)
        c = WorkloadSpec("giraph", "graph500", "pr", preset="small", seed=0)
        d = WorkloadSpec("giraph", "datagen", "pr", preset="tiny", seed=0)
        assert graph_key_material(c) != graph_key_material(a)
        assert graph_key_material(d) != graph_key_material(a)

    def test_graph_payload_round_trips_exact_arrays(self, tmp_path):
        import numpy as np

        from repro.parallel import _load_graph_payload
        from repro.workloads.datasets import get_dataset

        spec = WorkloadSpec("giraph", "graph500", "pr", preset="tiny")
        execute_cell(CellSpec(spec), tmp_path)
        cache = RunCache(tmp_path)
        gkey = cache_key(graph_key_material(spec))
        assert cache.has(gkey, "graph")
        loaded = _load_graph_payload(cache.path_for(gkey, "graph"))
        generated = get_dataset("graph500").graph("tiny")
        assert loaded.n_vertices == generated.n_vertices
        assert np.array_equal(loaded.edges()[0], generated.edges()[0])
        assert np.array_equal(loaded.edges()[1], generated.edges()[1])
        assert np.array_equal(loaded.indptr, generated.indptr)

    def test_truncated_graph_payload_is_a_miss_and_heals(self, tmp_path):
        spec = WorkloadSpec("giraph", "graph500", "pr", preset="tiny")
        execute_cell(CellSpec(spec), tmp_path)
        cache = RunCache(tmp_path)
        gkey = cache_key(graph_key_material(spec))
        (cache.path_for(gkey, "graph") / "graph.json").unlink()
        assert not cache.has(gkey, "graph")
        # A different cell on the same dataset regenerates and republishes.
        result = execute_cell(
            CellSpec(WorkloadSpec("giraph", "graph500", "bfs", preset="tiny")),
            tmp_path,
        )
        assert result.graph_hit is False
        assert cache.has(gkey, "graph")

    def test_unknown_layer_rejected(self, tmp_path):
        cache = RunCache(tmp_path)
        with pytest.raises(ValueError):
            cache.has("00" * 32, "nope")

    def test_layer_counters_reach_the_tracer(self, tmp_path):
        from repro import obs

        tracer = obs.install()
        try:
            cells = [
                CellSpec(WorkloadSpec("giraph", "graph500", alg, preset="tiny"))
                for alg in ("pr", "bfs")
            ]
            run_grid(cells, cache_dir=tmp_path)
            run_grid(cells, cache_dir=tmp_path)
            totals = tracer.counter_totals()
        finally:
            obs.uninstall()
        assert totals["cache.graph.miss"] == 1.0
        assert totals["cache.graph.hit"] == 1.0
        assert totals["cache.trace.miss"] == 2.0
        assert totals["cache.trace.hit"] == 2.0
        assert "cache.hit" not in totals and "cache.miss" not in totals

    def test_warm_path_profiles_bit_identical_across_layers(self, tmp_path):
        """The layered warm path preserves the bit-identity guarantee."""
        cell = CellSpec(
            WorkloadSpec("powergraph", "graph500", "cdlp", preset="tiny"),
            characterize=True,
        )
        cold = execute_cell(cell, tmp_path)
        warm = execute_cell(cell, tmp_path)
        assert warm.cached and warm.trace_hit is True and warm.graph_hit is None
        assert profile_to_dict(cold.profile) == profile_to_dict(warm.profile)


# ---------------------------------------------------------------------- #
# Cache-key properties (Hypothesis)
# ---------------------------------------------------------------------- #

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_MATERIAL = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(
        _SCALARS,
        st.lists(_SCALARS, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=8), _SCALARS, max_size=4),
    ),
    min_size=1,
    max_size=6,
)


def _reorder(obj, reverse):
    """Deep-copy ``obj`` with every dict's insertion order flipped."""
    if isinstance(obj, dict):
        items = list(obj.items())
        if reverse:
            items = items[::-1]
        return {k: _reorder(v, reverse) for k, v in items}
    if isinstance(obj, list):
        return [_reorder(v, reverse) for v in obj]
    return obj


class TestCacheKeyProperties:
    @settings(max_examples=50, deadline=None)
    @given(material=_MATERIAL)
    def test_deterministic(self, material):
        assert cache_key(material) == cache_key(material)

    @settings(max_examples=50, deadline=None)
    @given(material=_MATERIAL)
    def test_insensitive_to_dict_order(self, material):
        assert cache_key(material) == cache_key(_reorder(material, reverse=True))

    @settings(max_examples=50, deadline=None)
    @given(material=_MATERIAL, key=st.text(min_size=1, max_size=10))
    def test_sensitive_to_any_field_change(self, material, key):
        mutated = dict(material)
        mutated[key] = ("sentinel", material.get(key))
        # json canonicalization maps tuples to lists; ensure real change:
        if canonical_json(mutated) == canonical_json(material):
            return
        assert cache_key(mutated) != cache_key(material)

    def test_tuples_and_lists_canonicalize_equal(self):
        assert canonical_json({"a": (1, 2)}) == canonical_json({"a": [1, 2]})

    @settings(max_examples=30, deadline=None)
    @given(
        system=st.sampled_from(("giraph", "powergraph", "sparklike")),
        dataset=st.sampled_from(("graph500", "datagen")),
        algorithm=st.sampled_from(("pr", "bfs", "wcc", "cdlp")),
        preset=st.sampled_from(("tiny", "small")),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_cell_material_deterministic_and_complete(
        self, system, dataset, algorithm, preset, seed
    ):
        spec = WorkloadSpec(system, dataset, algorithm, preset=preset, seed=seed)
        cell = CellSpec(spec)
        material = trace_key_material(cell)
        assert cache_key(material) == cache_key(trace_key_material(cell))
        # Every identity-bearing input is present in the material.
        assert material["graph"] == cache_key(graph_key_material(spec))
        assert graph_key_material(spec)["dataset"]["name"] == dataset
        assert material["preset"] == preset
        assert material["system"]["name"] == system
        assert material["algorithm"] == algorithm
        assert material["seed"] == seed
        assert set(material["models"]) == {
            "execution_model", "resource_model", "rules"
        }

    def test_cell_key_changes_with_each_spec_field(self):
        base = CellSpec(WorkloadSpec("giraph", "graph500", "pr", preset="tiny", seed=0))
        variants = [
            CellSpec(WorkloadSpec("powergraph", "graph500", "pr", preset="tiny", seed=0)),
            CellSpec(WorkloadSpec("giraph", "datagen", "pr", preset="tiny", seed=0)),
            CellSpec(WorkloadSpec("giraph", "graph500", "bfs", preset="tiny", seed=0)),
            CellSpec(WorkloadSpec("giraph", "graph500", "pr", preset="small", seed=0)),
            CellSpec(WorkloadSpec("giraph", "graph500", "pr", preset="tiny", seed=7)),
        ]
        base_key = cache_key(trace_key_material(base))
        keys = [cache_key(trace_key_material(v)) for v in variants]
        assert base_key not in keys
        assert len(set(keys)) == len(keys)

    def test_analysis_options_do_not_change_the_key(self):
        """One payload serves every analysis variant (characterize/live)."""
        spec = WorkloadSpec("giraph", "graph500", "pr", preset="tiny")
        k1 = cache_key(trace_key_material(CellSpec(spec, characterize=False)))
        k2 = cache_key(trace_key_material(CellSpec(spec, characterize=True, live=True)))
        assert k1 == k2

    def test_model_fingerprints_track_config(self):
        """Editing a rule-bearing config constant re-fingerprints the models."""
        from repro.systems import GiraphConfig

        a = model_fingerprints("giraph", GiraphConfig())
        b = model_fingerprints("giraph", GiraphConfig(threads_per_machine=8))
        assert a != b
        assert a == model_fingerprints("giraph", GiraphConfig())


class TestDerivedSeeds:
    def test_deterministic_and_label_sensitive(self):
        a = derive_cell_seed(0, "giraph/graph500/pr/tiny")
        assert a == derive_cell_seed(0, "giraph/graph500/pr/tiny")
        assert a != derive_cell_seed(1, "giraph/graph500/pr/tiny")
        assert a != derive_cell_seed(0, "giraph/graph500/bfs/tiny")
        assert 0 <= a < 2**32
