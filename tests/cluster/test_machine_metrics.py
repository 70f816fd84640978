"""Tests for machines, metrics recording, and the monitoring agent."""

import io

import numpy as np
import pytest

from repro.cluster import Cluster, MetricsRecorder, MonitoringAgent
from repro.cluster.monitor import read_monitoring_csv, write_monitoring_csv
from repro.core.timeline import TimeGrid


class TestMetricsRecorder:
    def test_rate_on_grid(self):
        rec = MetricsRecorder()
        rec.record("cpu@m0", 0.0, 2.0, 1.0)
        rec.record("cpu@m0", 1.0, 2.0, 1.0)  # second thread
        grid = TimeGrid(0.0, 1.0, 3)
        np.testing.assert_allclose(rec.rate_on_grid("cpu@m0", grid), [1.0, 2.0, 0.0])

    def test_partial_slice_average(self):
        rec = MetricsRecorder()
        rec.record("cpu", 0.5, 1.0, 2.0)
        grid = TimeGrid(0.0, 1.0, 1)
        # 2.0 over half the slice averages to 1.0.
        np.testing.assert_allclose(rec.rate_on_grid("cpu", grid), [1.0])

    def test_unknown_resource_zero(self):
        rec = MetricsRecorder()
        grid = TimeGrid(0.0, 1.0, 2)
        np.testing.assert_allclose(rec.rate_on_grid("ghost", grid), [0.0, 0.0])

    def test_validation(self):
        rec = MetricsRecorder()
        with pytest.raises(ValueError):
            rec.record("cpu", 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rec.record("cpu", 0.0, 1.0, -1.0)

    def test_t_end(self):
        rec = MetricsRecorder()
        assert rec.t_end == 0.0
        rec.record("cpu", 0.0, 3.5, 1.0)
        rec.record("net", 1.0, 2.0, 1.0)
        assert rec.t_end == 3.5

    def test_sample_produces_window_averages(self):
        rec = MetricsRecorder()
        rec.record("cpu", 0.0, 1.0, 4.0)  # busy first second only
        trace = rec.sample(2.0, t_end=4.0)
        ms = trace.measurements("cpu")
        assert len(ms) == 2
        assert ms[0].value == pytest.approx(2.0)  # 4.0 averaged over 2s
        assert ms[1].value == pytest.approx(0.0)

    def test_sample_conserves_consumption(self):
        rec = MetricsRecorder()
        rec.record("cpu", 0.3, 2.7, 3.0)
        trace = rec.sample(0.5, t_end=3.0)
        assert trace.total_consumption("cpu") == pytest.approx(2.4 * 3.0)

    def test_sample_validation(self):
        rec = MetricsRecorder()
        with pytest.raises(ValueError):
            rec.sample(0.0)
        with pytest.raises(ValueError):
            rec.sample(1.0, drop_rate=1.0)
        with pytest.raises(ValueError):
            rec.sample(1.0, jitter=-0.1)

    def test_sample_with_jitter_deterministic_and_bounded(self):
        rec = MetricsRecorder()
        rec.record("cpu", 0.0, 4.0, 2.0)
        a = rec.sample(1.0, jitter=0.1, seed=3)
        b = rec.sample(1.0, jitter=0.1, seed=3)
        va = [m.value for m in a.measurements("cpu")]
        vb = [m.value for m in b.measurements("cpu")]
        assert va == vb
        assert all(1.8 - 1e-9 <= v <= 2.2 + 1e-9 for v in va)

    def test_sample_with_drop_rate_loses_windows(self):
        rec = MetricsRecorder()
        rec.record("cpu", 0.0, 50.0, 1.0)
        full = rec.sample(1.0)
        lossy = rec.sample(1.0, drop_rate=0.5, seed=1)
        assert 0 < len(lossy.measurements("cpu")) < len(full.measurements("cpu"))

    def test_upsampling_tolerates_dropped_windows(self):
        """Pipeline robustness: missing windows leave gaps, no crash."""
        from repro.core.demand import estimate_demand
        from repro.core.resources import ResourceModel
        from repro.core.rules import RuleMatrix
        from repro.core.traces import ExecutionTrace
        from repro.core.upsample import upsample

        rec = MetricsRecorder()
        rec.record("cpu", 0.0, 10.0, 2.0)
        lossy = rec.sample(1.0, drop_rate=0.3, seed=2)
        resources = ResourceModel("r")
        resources.add_consumable("cpu", 4.0)
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 10.0)
        grid = TimeGrid(0.0, 0.5, 20)
        demand = estimate_demand(trace, resources, RuleMatrix(), grid)
        up = upsample(lossy, demand, grid)
        assert (up["cpu"].coverage < 1.0).any()
        assert (up["cpu"].rate >= 0).all()

    def test_sample_empty_recorder(self):
        trace = MetricsRecorder().sample(1.0)
        assert trace.measured_resources() == []

    def test_idle_tail_windows_sample_exactly_zero(self):
        """Regression: idle windows after non-integer rates used to read -2.2e-16.

        The negative residue made ``sample`` raise a bare ValueError (a
        measurement must be >= 0), so such runs could not be archived.
        """
        rec = MetricsRecorder()
        for t0, rate in ((0.0, 0.1), (1.0, 0.1), (2.0, 1.1)):
            rec.record("cpu@m0", t0, t0 + 3.0, rate)
        trace = rec.sample(1.0, t_end=8.0)
        values = [m.value for m in trace.measurements("cpu@m0")]
        assert values[5:] == [0.0, 0.0, 0.0]
        assert min(values) >= 0.0


class TestMachine:
    def test_work_records_cpu(self):
        cluster = Cluster(1, n_cores=4)
        m = cluster[0]

        def proc():
            yield m.work(2.0)

        cluster.sim.process(proc())
        cluster.sim.run()
        grid = TimeGrid(0.0, 1.0, 2)
        np.testing.assert_allclose(cluster.recorder.rate_on_grid("cpu@m0", grid), [1.0, 1.0])

    def test_send_fifo_serialization(self):
        cluster = Cluster(1, net_bandwidth=100.0)
        m = cluster[0]
        done = []

        def sender():
            yield m.send(100.0)  # 1s
            done.append(cluster.sim.now)
            yield m.send(200.0)  # 2s more
            done.append(cluster.sim.now)

        cluster.sim.process(sender())
        cluster.sim.run()
        assert done == [1.0, 3.0]

    def test_concurrent_sends_queue(self):
        cluster = Cluster(1, net_bandwidth=100.0)
        m = cluster[0]
        done = []

        def sender(tag):
            yield m.send(100.0)
            done.append((tag, cluster.sim.now))

        cluster.sim.process(sender("a"))
        cluster.sim.process(sender("b"))
        cluster.sim.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_nic_usage_recorded_at_line_rate(self):
        cluster = Cluster(1, net_bandwidth=100.0)
        m = cluster[0]

        def sender():
            yield m.send(50.0)

        cluster.sim.process(sender())
        cluster.sim.run()
        grid = TimeGrid(0.0, 0.5, 2)
        np.testing.assert_allclose(
            cluster.recorder.rate_on_grid("net@m0", grid), [100.0, 0.0]
        )

    def test_zero_byte_send_completes_immediately(self):
        cluster = Cluster(1)
        m = cluster[0]
        done = []

        def sender():
            yield m.send(0.0)
            done.append(cluster.sim.now)

        cluster.sim.process(sender())
        cluster.sim.run()
        assert done == [0.0]

    def test_nic_backlog(self):
        cluster = Cluster(1, net_bandwidth=100.0)
        m = cluster[0]
        m.send(300.0)
        assert m.nic_backlog() == pytest.approx(3.0)

    def test_validation(self):
        cluster = Cluster(1)
        with pytest.raises(ValueError):
            cluster[0].work(-1.0)
        with pytest.raises(ValueError):
            cluster[0].send(-5.0)
        with pytest.raises(ValueError):
            Cluster(0)
        with pytest.raises(ValueError):
            Cluster(1, n_cores=0)


class TestMonitoringAgent:
    def test_collect(self):
        cluster = Cluster(1)
        cluster.recorder.record("cpu@m0", 0.0, 1.0, 2.0)
        agent = MonitoringAgent(cluster.recorder, interval=0.5)
        trace = agent.collect()
        assert len(trace.measurements("cpu@m0")) == 2

    def test_csv_round_trip(self):
        rec = MetricsRecorder()
        rec.record("cpu@m0", 0.0, 2.0, 1.5)
        rec.record("net@m0", 0.5, 1.0, 100.0)
        trace = rec.sample(1.0, t_end=2.0)
        buf = io.StringIO()
        write_monitoring_csv(trace, buf)
        buf.seek(0)
        back = read_monitoring_csv(buf)
        assert set(back.measured_resources()) == {"cpu@m0", "net@m0"}
        for res in back.measured_resources():
            got = [(m.t_start, m.t_end, m.value) for m in back.measurements(res)]
            want = [(m.t_start, m.t_end, m.value) for m in trace.measurements(res)]
            assert got == pytest.approx(want)

    def test_csv_file_round_trip(self, tmp_path):
        rec = MetricsRecorder()
        rec.record("cpu@m0", 0.0, 1.0, 1.0)
        agent = MonitoringAgent(rec, interval=0.5)
        path = tmp_path / "monitoring.csv"
        agent.collect_to_csv(path)
        back = read_monitoring_csv(path)
        assert back.total_consumption("cpu@m0") == pytest.approx(1.0)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_monitoring_csv(io.StringIO("a,b,c\n"))

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            MonitoringAgent(MetricsRecorder(), interval=0.0)

    def test_agent_imperfections_forwarded(self):
        rec = MetricsRecorder()
        rec.record("cpu@m0", 0.0, 20.0, 2.0)
        clean = MonitoringAgent(rec, interval=1.0).collect()
        lossy = MonitoringAgent(rec, interval=1.0, drop_rate=0.5, seed=1).collect()
        assert len(lossy.measurements("cpu@m0")) < len(clean.measurements("cpu@m0"))
        jittered = MonitoringAgent(rec, interval=1.0, jitter=0.2, seed=2).collect()
        values = {m.value for m in jittered.measurements("cpu@m0")}
        assert values != {2.0}
