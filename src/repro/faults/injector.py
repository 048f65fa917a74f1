"""Seeded fault injection over a running cluster simulation.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into discrete-event processes:

* a crash/repair loop per faulty node — exponential up/down times from the
  node's own seeded stream; a crash goes through
  :meth:`~repro.scheduler.cluster.ClusterScheduler.fail_node` (kill + flow
  abort), then, once the interrupted tasks have unwound, drops the node's
  page cache;
* a straggler window per slow node — CPU speed and channel bandwidths are
  multiplied down, then restored to the exact recorded originals;
* a join/drain/leave process per burstable node (drain-before-leave).

All processes are side processes: the simulation still terminates on
workflow completion (``env.run(until=completion)``), the injector never
keeps it alive.
"""

from __future__ import annotations

from typing import Dict, List

from repro.des.environment import Environment
from repro.errors import ConfigurationError
from repro.faults.plan import ALL_NODES, FaultPlan, NodeFaultSpec, \
    StragglerSpec, ElasticNodeSpec
from repro.rng import DeterministicRNG, derive_seed


class FaultInjector:
    """Drives the faults of one plan against one cluster scheduler."""

    def __init__(self, env: Environment, scheduler, plan: FaultPlan):
        self.env = env
        self.scheduler = scheduler
        self.plan = plan
        #: The injector's simulation processes (for introspection/tests).
        self.processes: List[object] = []
        #: Original rates of currently slowed nodes, for exact restore.
        self._slowed: Dict[str, dict] = {}
        #: Live per-stream generators, keyed by stream (``"crash:node3"``).
        #: Kept on the injector (not just in process closures) so snapshot
        #: capture can record each stream's seed and position.
        self.rngs: Dict[str, DeterministicRNG] = {}

    # ----------------------------------------------------------------- setup
    def start(self) -> List[object]:
        """Create the plan's processes; apply initial elastic state.

        Must be called before the environment runs (the not-yet-joined
        burstable nodes are put in the draining state synchronously, so
        the scheduler's first dispatch pass already excludes them).
        A zero plan starts nothing and leaves the scheduler untouched.
        """
        if self.plan.is_zero:
            return self.processes
        scheduler = self.scheduler
        scheduler.fault_mode = True
        names = [node.name for node in scheduler.nodes]

        for spec in self.plan.node_faults:
            for name in self._expand(spec.node, names):
                self.processes.append(self.env.process(
                    self._crash_loop(spec, name, self._stream(f"crash:{name}")),
                    name=f"fault:crash:{name}",
                ))
        for spec in self.plan.stragglers:
            for name in self._expand(spec.node, names):
                self.processes.append(self.env.process(
                    self._straggler(spec, name,
                                    self._stream(f"straggler:{name}")),
                    name=f"fault:straggler:{name}",
                ))
        for spec in self.plan.elastic:
            if spec.node not in names:
                raise ConfigurationError(
                    f"elastic spec names unknown node {spec.node!r}; "
                    f"scheduler nodes: {names}"
                )
            if spec.join_time > 0:
                # Held out of the cluster until it joins; set silently
                # (before any event runs) rather than via drain_node so
                # no spurious drain instant is recorded at t=0.
                scheduler.node(spec.node).draining = True
            self.processes.append(self.env.process(
                self._elastic(spec, spec.node),
                name=f"fault:elastic:{spec.node}",
            ))
        return self.processes

    def _stream(self, key: str) -> DeterministicRNG:
        """Create (and register) the seeded generator of one fault stream."""
        rng = DeterministicRNG(derive_seed(self.plan.seed, key))
        self.rngs[key] = rng
        return rng

    @staticmethod
    def _expand(pattern: str, names: List[str]) -> List[str]:
        if pattern == ALL_NODES:
            return list(names)
        if pattern not in names:
            raise ConfigurationError(
                f"fault spec names unknown node {pattern!r}; "
                f"scheduler nodes: {names}"
            )
        return [pattern]

    # -------------------------------------------------------------- processes
    def _crash_loop(self, spec: NodeFaultSpec, name: str,
                    rng: DeterministicRNG):
        """Crash/repair lifecycle of one node; simulation process.

        Leave wins every race with an elastic departure: once the node
        has left the cluster the rest of its crash/repair stream is
        discarded — in particular a repair pending for a node that
        crashed while draining never restores it.
        """
        if spec.first_failure_after > 0:
            yield self.env.timeout(spec.first_failure_after)
        failures = 0
        while spec.max_failures is None or failures < spec.max_failures:
            yield self.env.timeout(rng.exponential(1.0 / spec.mtbf))
            node = self.scheduler.node(name)
            if node.left:
                return
            if not node.up:
                continue
            self.scheduler.fail_node(name)
            failures += 1
            # Let the victims' interrupts unwind (their rollbacks release
            # anonymous memory and delete partial outputs) before dropping
            # the page cache, so the memory accounting is settled when the
            # cache is invalidated.
            yield self.env.timeout(0)
            manager = node.host.memory_manager
            if manager is not None:
                manager.invalidate_all()
            if spec.mttr > 0:
                yield self.env.timeout(rng.exponential(1.0 / spec.mttr))
            else:
                yield self.env.timeout(0)
            if node.left:
                return
            self.scheduler.restore_node(name)

    def _straggler(self, spec: StragglerSpec, name: str,
                   rng: DeterministicRNG):
        """Slowdown window(s) of one node; simulation process."""
        delay = spec.start
        if spec.max_delay > 0:
            delay += rng.uniform(0.0, spec.max_delay)
        if delay > 0:
            yield self.env.timeout(delay)
        while True:
            self._apply_slowdown(name, spec)
            if spec.duration is None:
                return
            yield self.env.timeout(spec.duration)
            self._restore_rates(name)
            if spec.period is None:
                return
            yield self.env.timeout(spec.period - spec.duration)

    def _elastic(self, spec: ElasticNodeSpec, name: str):
        """Join/drain/leave lifecycle of one burstable node."""
        if spec.join_time > 0:
            yield self.env.timeout(spec.join_time)
            self.scheduler.undrain_node(name)
        if spec.leave_time is None:
            return
        yield self.env.timeout(spec.leave_time - spec.join_time)
        self.scheduler.drain_node(name)
        node = self.scheduler.node(name)
        while node.running:
            yield self.env.timeout(spec.drain_poll)
        self.scheduler.leave_node(name)

    # ------------------------------------------------------------- slowdowns
    def _apply_slowdown(self, name: str, spec: StragglerSpec) -> None:
        if name in self._slowed:
            return  # another straggler window already slows this node
        host = self.scheduler.node(name).host
        originals = {"cpu": host.cpu.speed, "channels": []}
        if spec.compute_factor < 1.0:
            host.cpu.set_speed(host.cpu.speed * spec.compute_factor)
        if spec.io_factor < 1.0:
            for channel in host.channels():
                originals["channels"].append((channel, channel.bandwidth))
                channel.set_bandwidth(channel.bandwidth * spec.io_factor)
        self._slowed[name] = originals
        observer = self.env.observer
        if observer is not None:
            observer.instant(
                f"slow:{name}", "fault", "scheduler", self.env.now,
                {"node": name, "compute_factor": spec.compute_factor,
                 "io_factor": spec.io_factor},
            )
            observer.registry.counter("faults.straggler_windows").inc()

    def _restore_rates(self, name: str) -> None:
        originals = self._slowed.pop(name, None)
        if originals is None:
            return
        host = self.scheduler.node(name).host
        host.cpu.set_speed(originals["cpu"])
        for channel, bandwidth in originals["channels"]:
            channel.set_bandwidth(bandwidth)
        observer = self.env.observer
        if observer is not None:
            observer.instant(
                f"recover:{name}", "fault", "scheduler", self.env.now,
                {"node": name},
            )
