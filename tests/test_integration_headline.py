"""Integration tests checking the paper's headline qualitative results.

These are scaled-down versions of the paper's experiments (smaller files so
the test suite stays fast) asserting the *shape* of the results:

* the cacheless simulator grossly overestimates I/O times, the page cache
  model stays close to the calibrated reference (Exp 1, Exp 4);
* concurrent write times plateau once the page cache saturates with dirty
  data (Exp 2);
* NFS reads benefit from the server read cache while writethrough writes do
  not (Exp 3);
* repeated reads of a cached file cost memory bandwidth, not disk bandwidth.
"""

import pytest

from repro.experiments.exp1_single import exp1_errors, exp1_mean_errors
from repro.experiments.exp4_nighres import exp4_errors, exp4_mean_errors
from repro.experiments.metrics import error_reduction_factor
from repro.snapshot import run_experiment
from repro.units import GB, MB


CHUNK = 100 * MB


class TestHeadlineErrorReduction:
    def test_exp1_page_cache_reduces_error_by_a_large_factor(self):
        errors = exp1_errors(2 * GB, chunk_size=CHUNK)
        means = exp1_mean_errors(errors)
        factor = error_reduction_factor(
            errors["wrench"].values(), errors["wrench-cache"].values()
        )
        assert means["wrench-cache"] < 100.0
        assert means["wrench"] > 300.0
        assert factor > 3.0

    def test_exp4_nighres_error_reduction(self):
        errors = exp4_errors(chunk_size=50 * MB)
        means = exp4_mean_errors(errors)
        assert means["wrench-cache"] < means["wrench"] / 3.0

    def test_first_read_is_accurate_for_all_simulators(self):
        errors = exp1_errors(2 * GB, chunk_size=CHUNK)
        for simulator in ("wrench", "wrench-cache", "pysim"):
            assert errors[simulator]["Read 1"] < 25.0


class TestCacheBehaviourShape:
    def test_cached_rereads_use_memory_bandwidth(self):
        run = run_experiment("exp1", simulator="wrench-cache",
                             file_size=2 * GB, chunk_size=CHUNK,
                             trace_interval=None)
        # Read 2 re-reads the file written by task 1 (fully cached); it must
        # be much faster than the initial, fully-uncached Read 1.
        assert run.durations["Read 2"] < run.durations["Read 1"] / 3.0

    def test_cacheless_rereads_do_not_benefit(self):
        run = run_experiment("exp1", simulator="wrench", file_size=2 * GB,
                             chunk_size=CHUNK, trace_interval=None)
        assert run.durations["Read 2"] == pytest.approx(run.durations["Read 1"],
                                                        rel=0.05)

    def test_exp1_memory_profile_consistency(self):
        run = run_experiment("exp1", simulator="wrench-cache",
                             file_size=2 * GB, chunk_size=CHUNK,
                             trace_interval=1.0)
        assert run.memory_trace, "memory profile must be sampled"
        for snapshot in run.memory_trace:
            assert snapshot.cached <= snapshot.total + 1e-6
            assert snapshot.dirty <= snapshot.cached + 1e-6
            assert snapshot.used == pytest.approx(
                snapshot.cached + snapshot.anonymous, rel=1e-6, abs=1e-3
            )
            # Dirty data stays below the dirty ratio threshold.
            assert snapshot.dirty <= snapshot.dirty_threshold * 1.01

    def test_exp1_cache_contents_track_files(self):
        run = run_experiment("exp1", simulator="wrench-cache",
                             file_size=2 * GB, chunk_size=CHUNK,
                             trace_interval=None)
        contents = run.cache_contents_per_operation()
        # After Read 1, file1 is fully cached (it fits in memory).
        assert contents["Read 1"].get("file1", 0.0) == pytest.approx(2 * GB, rel=0.01)
        # After Write 3, file4 is present in the cache.
        assert contents["Write 3"].get("file4", 0.0) > 0


class TestConcurrencyShape:
    def test_write_time_plateau_under_dirty_saturation(self):
        """Write times jump once aggregate dirty data exceeds the threshold."""
        few = run_experiment("exp2", simulator="wrench-cache", n_apps=2,
                             input_size=1 * GB, chunk_size=CHUNK)
        # 2 apps x 1 GB of writes per task stays below the dirty threshold
        # (20 % of 250 GiB), so writes happen at memory bandwidth.
        per_write_few = few.write_time / 3  # three writes per app
        assert per_write_few < 2.0

        many = run_experiment("exp2", simulator="wrench-cache", n_apps=24,
                              input_size=1 * GB, chunk_size=CHUNK)
        assert many.write_time > few.write_time

    def test_cacheless_times_grow_linearly_with_apps(self):
        one = run_experiment("exp2", simulator="wrench", n_apps=1,
                             input_size=1 * GB, chunk_size=CHUNK)
        four = run_experiment("exp2", simulator="wrench", n_apps=4,
                              input_size=1 * GB, chunk_size=CHUNK)
        assert four.read_time == pytest.approx(4 * one.read_time, rel=0.2)

    def test_page_cache_model_beats_cacheless_under_concurrency(self):
        cached = run_experiment("exp2", simulator="wrench-cache", n_apps=8,
                                input_size=1 * GB, chunk_size=CHUNK)
        cacheless = run_experiment("exp2", simulator="wrench", n_apps=8,
                                   input_size=1 * GB, chunk_size=CHUNK)
        assert cached.read_time < cacheless.read_time
        assert cached.makespan < cacheless.makespan


class TestNFSShape:
    def test_nfs_reads_benefit_from_server_cache_but_writes_do_not(self):
        cached = run_experiment("exp2", simulator="wrench-cache", n_apps=4,
                                input_size=1 * GB, chunk_size=CHUNK, nfs=True)
        cacheless = run_experiment("exp2", simulator="wrench", n_apps=4,
                                   input_size=1 * GB, chunk_size=CHUNK,
                                   nfs=True)
        # Reads: the server read cache helps the page-cache simulator.
        assert cached.read_time < cacheless.read_time
        # Writes: writethrough keeps both simulators at disk bandwidth, so
        # the page cache model brings no significant benefit.
        assert cached.write_time == pytest.approx(cacheless.write_time, rel=0.35)

    def test_nfs_reference_agrees_better_with_cache_model(self):
        reference = run_experiment("exp2", simulator="real", n_apps=4,
                                   input_size=1 * GB, chunk_size=CHUNK,
                                   nfs=True)
        cached = run_experiment("exp2", simulator="wrench-cache", n_apps=4,
                                input_size=1 * GB, chunk_size=CHUNK, nfs=True)
        cacheless = run_experiment("exp2", simulator="wrench", n_apps=4,
                                   input_size=1 * GB, chunk_size=CHUNK,
                                   nfs=True)
        cache_error = abs(cached.read_time - reference.read_time)
        cacheless_error = abs(cacheless.read_time - reference.read_time)
        assert cache_error < cacheless_error
