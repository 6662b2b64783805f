"""The benchmark's workloads.

Each workload turns a seed into inputs, builds a fresh scenario from them
(:meth:`Workload.setup`), runs it until the trace is settled
(:meth:`Workload.settle`), reaches a verdict (:meth:`Workload.verdict`) and
says which verdicts it expected.  The program is driven only through its
public entry points: ``ConstraintManager``/``Scenario``, the experiment
builders, ``UpdateStream``/``notification_stream``,
``CMShell.ingest_batch``, ``verify`` and ``validate_trace``.

Every sim workload replays the same inputs in every round, so its counts,
verdicts and virtual-time latencies are functions of the seed alone.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field

import repro.analysis
import repro.core.trace
from repro.cm import ConstraintManager, Scenario
from repro.cm.verify import verify
from repro.core.dsl import parse_rule
from repro.core.events import EventKind
from repro.core.timebase import seconds, to_seconds
from repro.experiments.common import build_salary_scenario
from repro.experiments.e10_scale import build_federation
from repro.workloads import UpdateStream
from repro.workloads.generators import notification_stream

APPENDIX_A = "appendix-a valid"


@dataclass
class Verdict:
    """Verdicts reached on one round, each with the one expected."""

    #: name -> (observed, expected)
    checks: dict[str, tuple[object, object]] = field(default_factory=dict)
    #: Problems that are not verdicts (lint errors), reported as failures
    #: of the benchmark's own output check.
    notes: list[str] = field(default_factory=list)

    @property
    def mismatches(self) -> list[str]:
        return [
            f"{name}: got {observed!r}, expected {expected!r}"
            for name, (observed, expected) in self.checks.items()
            if observed != expected
        ]

    def signature(self) -> tuple:
        return tuple(sorted((k, v[0]) for k, v in self.checks.items()))


@dataclass
class State:
    """One built scenario and what the workload needs to read it back."""

    cm: ConstraintManager
    until: int
    stream: UpdateStream | None = None
    shell: object = None


class Workload:
    """A named input set.  Subclasses fill in the hooks."""

    name = ""
    #: Whether every round of one seed must produce the same trace.
    DETERMINISTIC = True
    #: Whether the settle phase waits on a wall clock rather than the CPU.
    PACED = False
    #: Set-up-only builds made before each round, so ``setup_s`` averages
    #: many set-ups spread over the whole run even when few rounds fit in it.
    SETUP_REPEATS = 4
    #: Times an untraced round's verdict is reached; ``verdict_s`` is their
    #: mean.
    VERDICT_REPEATS = 1

    def __init__(self, seed: int, run_seconds: float, scale: float = 1.0):
        self.seed = seed
        self.run_seconds = run_seconds
        self.scale = scale

    # -- hooks ----------------------------------------------------------------

    def setup(self) -> State:
        raise NotImplementedError

    def settle(self, state: State, tracer) -> int:
        """Run to the horizon, then read the trace so it is settled."""
        state.cm.run(until=state.until)
        with tracer.span("trace.flush"):
            return len(state.cm.scenario.trace.events)

    def verdict(self, state: State) -> Verdict:
        """``verify(cm)``: lint, issued guarantees, Appendix-A validity."""
        report = verify(state.cm)
        result = Verdict()
        for name, guarantee in report.guarantee_reports.items():
            result.checks[name] = (guarantee.valid, True)
        result.checks[APPENDIX_A] = (report.trace_ok, True)
        if not report.lint_ok:
            result.notes.append("lint reported errors")
        if report.silent_gaps:
            result.notes.append(f"silent gaps: {report.silent_gaps}")
        return result

    def propagation(self, state: State) -> list[float]:
        """Virtual seconds from each input's due time to the write it caused."""
        raise NotImplementedError

    def lag_ms(self, state: State) -> list[float]:
        """Wall milliseconds each input ran after its due time (wire only)."""
        return []

    def counts(self, state: State) -> dict[str, float]:
        """Program-side counters read after the round."""
        cm = state.cm
        trace = cm.scenario.trace
        total = cm.stats()["total"]
        groups: dict[tuple[str, str], int] = {}
        generated = 0
        for event in trace.generated_events:
            generated += 1
            if event.rule is not None and event.trigger is not None:
                key = (event.trigger.site, event.site)
                groups[key] = groups.get(key, 0) + 1
        counts = {
            "scheduler.callbacks": getattr(cm.scenario.sim, "events_processed", 0),
            "shell.events": total["events_processed"],
            "shell.candidates": total["candidates_considered"],
            "shell.fired": total["rules_fired"],
            "trace.events": len(trace),
            "validate.generated": generated,
            "validate.max_pair_group": max(groups.values(), default=0),
        }
        channel_stats = getattr(cm.scenario.network, "channel_stats", None)
        if channel_stats is not None:
            stats = channel_stats().values()
            counts["runtime.frames"] = sum(s["frames_seen"] for s in stats)
            counts["runtime.coalesced"] = sum(s["frames_coalesced"] for s in stats)
        return counts

    def close(self, state: State) -> None:
        state.cm.scenario.shutdown()
        state.cm.close()


def _stream_writes(state: State) -> list[tuple[object, int]]:
    """Each spontaneous write of the state's stream with its due tick.

    The stream's callbacks run in schedule order, so the n-th ``Ws`` on its
    family is the n-th scheduled update.
    """
    family = state.stream.family
    writes = [
        event
        for event in state.cm.scenario.trace.events_of_kind(EventKind.SPONTANEOUS_WRITE)
        if event.desc.item.name == family
    ]
    return list(zip(writes, state.stream.schedule))


def _provenance_latencies(state: State, families) -> list[float]:
    """Target writes traced back through provenance to a stream input."""
    due = {(event.site, event.seq): tick for event, tick in _stream_writes(state)}
    latencies = []
    for event in state.cm.scenario.trace.events_of_kind(EventKind.WRITE):
        if event.desc.item.name not in families:
            continue
        origin = event
        while origin.trigger is not None:
            origin = origin.trigger
        start = due.get((origin.site, origin.seq))
        if start is not None:
            latencies.append(to_seconds(event.time - start))
    return latencies


def _duration_for(seed: int, family: str, rate: float, updates: int) -> int:
    """A duration after which an ``UpdateStream`` on ``family`` has made
    exactly ``updates`` updates: midway between the last and the next.

    A fixed count, not a Poisson one, because the validator's cost grows
    with the square of it and would otherwise vary with the seed.
    """
    probe = UpdateStream(
        ConstraintManager(Scenario(seed=seed)),
        family,
        None,
        rate=rate,
        duration=seconds(4 * (updates + 10) / rate),
    )
    return (probe.schedule[updates - 1] + probe.schedule[updates]) // 2


def _phone(stream, key):
    return f"555-{stream.rng.randint(1000, 9999)}"


class Fanout(Workload):
    """E10 federation: one relational hub, 16 relational replicas."""

    name = "fanout"
    REPLICAS = 16
    KEYS = 25
    #: At 4 updates/s the hub's notify lane queues bursts, and the p99
    #: latency of 240 updates varies with the seed by 0.11-0.19 of its
    #: median; at 2 it varies by 0.04-0.07.
    RATE = 2.0
    #: Updates per round, about 120 virtual seconds at RATE.
    UPDATES = 240
    TAIL = 10.0

    def __init__(self, seed: int, run_seconds: float, scale: float = 1.0):
        super().__init__(seed, run_seconds, scale)
        updates = max(1, int(self.UPDATES * scale))
        self.duration = _duration_for(seed, "phone0", self.RATE, updates)

    def setup(self) -> State:
        cm, __ = build_federation(self.REPLICAS, self.seed)
        stream = UpdateStream(
            cm,
            "phone0",
            [f"p{i}" for i in range(self.KEYS)],
            rate=self.RATE,
            duration=self.duration,
            value_model=_phone,
        )
        return State(cm, self.duration + seconds(self.TAIL), stream)

    def propagation(self, state: State) -> list[float]:
        families = {f"phone{i}" for i in range(1, self.REPLICAS + 1)}
        return _provenance_latencies(state, families)


class Polling(Workload):
    """The salary scenario under the catalog's polling strategy."""

    name = "polling"
    KEYS = 40
    RATE = 8.0
    PERIOD = 5.0
    DURATION = 150.0
    TAIL = 10.0

    def setup(self) -> State:
        salary = build_salary_scenario(
            "polling", seed=self.seed, polling_period=self.PERIOD
        )
        duration = self.DURATION * self.scale
        stream = UpdateStream(
            salary.cm,
            "salary1",
            [f"e{i}" for i in range(self.KEYS)],
            rate=self.RATE,
            duration=seconds(duration),
        )
        return State(salary.cm, seconds(duration + self.TAIL), stream)

    def propagation(self, state: State) -> list[float]:
        """From each update's due time until a poll that read it (or a
        newer value) has written the copy: ``R.seq > Ws.seq``."""
        trace = state.cm.scenario.trace
        polled: dict[tuple, tuple[list[int], list[int]]] = {}
        for event in trace.events_of_kind(EventKind.WRITE):
            if event.desc.item.name != "salary2":
                continue
            read = event.trigger.trigger  # W <- WR <- R
            seqs, times = polled.setdefault(event.desc.item.args, ([], []))
            seqs.append(read.seq)
            times.append(event.time)
        latencies = []
        for event, due in _stream_writes(state):
            seqs, times = polled.get(event.desc.item.args, ((), ()))
            index = bisect.bisect_right(seqs, event.seq)
            if index < len(times):
                latencies.append(to_seconds(times[index] - due))
        return latencies


class Ingest(Workload):
    """One shell fed pre-generated notifications in blocks of 256."""

    name = "ingest"
    FAMILIES = 64
    KEYS = 16
    FIRING = 16
    EVENTS = 8192
    BLOCK = 256
    #: Notification arrivals per virtual second; a block is ingested when
    #: its last notification is due.
    RATE = 1024.0

    def __init__(self, seed: int, run_seconds: float, scale: float = 1.0):
        super().__init__(seed, run_seconds, scale)
        count = max(self.BLOCK, int(self.EVENTS * scale))
        self.descs = notification_stream(
            [f"fam{i}" for i in range(self.FAMILIES)], self.KEYS, count, seed=seed
        )
        arrivals = random.Random(seed)
        due, now = [], 0.0
        for _ in self.descs:
            now += arrivals.expovariate(self.RATE)
            due.append(seconds(now))
        self.due = due
        firing = {f"fam{i}" for i in range(self.FIRING)}
        self.expected_fired = sum(d.item.name in firing for d in self.descs)

    def setup(self) -> State:
        cm = ConstraintManager(Scenario(seed=self.seed))
        cm.add_site("bench")
        shell = cm.shell("bench")
        for i in range(self.FIRING):
            shell.install(
                parse_rule(f"N(fam{i}(n), b) -> [1] W(cache{i}(n), b)", name=f"r{i}")
            )
        sim = cm.scenario.sim
        for start in range(0, len(self.descs), self.BLOCK):
            block = self.descs[start : start + self.BLOCK]
            ready = self.due[start + len(block) - 1]
            sim.at(ready, _ingester(shell, block))
        return State(cm, self.due[-1] + seconds(1), shell=shell)

    def verdict(self, state: State) -> Verdict:
        """Lint plus ``validate_trace`` over the hand-installed rules."""
        # No source provides the fam* families: the notifications enter
        # through ingest_batch, so CM104 is expected here.
        lint = repro.analysis.lint_manager(state.cm, suppress=("CM104",))
        violations = repro.core.trace.validate_trace(
            state.cm.scenario.trace, state.shell.rules
        )
        result = Verdict()
        result.checks[APPENDIX_A] = (not violations, True)
        result.checks["shell.fired"] = (state.shell.rules_fired, self.expected_fired)
        if lint.errors:
            result.notes.append("lint reported errors")
        return result

    def propagation(self, state: State) -> list[float]:
        """From each notification's due time to the cache write it caused."""
        trace = state.cm.scenario.trace
        notes = trace.events_of_kind(EventKind.NOTIFY)
        due = {(e.site, e.seq): d for e, d in zip(notes, self.due)}
        return [
            to_seconds(event.time - due[(event.trigger.site, event.trigger.seq)])
            for event in trace.events_of_kind(EventKind.WRITE)
        ]


def _ingester(shell, block):
    return lambda: shell.ingest_batch(block)


class Wire(Workload):
    """The salary propagation scenario over loopback sockets."""

    name = "wire"
    DETERMINISTIC = False
    PACED = True
    #: A run has only three wall-paced rounds, so each round sets up and
    #: reaches its verdict (over the same settled trace) more often.
    SETUP_REPEATS = 16
    VERDICT_REPEATS = 12
    KEYS = 20
    #: At 12 updates/s the sim's own queueing tail makes the p99 of 1000
    #: propagations vary with the seed by 0.15; at 4 it varies by 0.08.
    RATE = 4.0
    #: Virtual seconds per wall second: 1000 updates take about 6.3 s.
    TIME_SCALE = 40.0
    UPDATES = 1000
    TAIL = 5.0

    def __init__(self, seed: int, run_seconds: float, scale: float = 1.0):
        super().__init__(seed, run_seconds, scale)
        updates = max(1, int(self.UPDATES * scale))
        self.duration = _duration_for(seed, "salary1", self.RATE, updates)
        # The expected verdicts: the sim's on the same seed and inputs.
        state = self._build("sim")
        try:
            state.cm.run(until=state.until)
            self.expected = {
                name: report.valid
                for name, report in state.cm.check_guarantees().items()
            }
        finally:
            self.close(state)

    def _build(self, runtime) -> State:
        salary = build_salary_scenario("propagation", seed=self.seed, runtime=runtime)
        stream = UpdateStream(
            salary.cm,
            "salary1",
            [f"e{i}" for i in range(self.KEYS)],
            rate=self.RATE,
            duration=self.duration,
        )
        return State(salary.cm, self.duration + seconds(self.TAIL), stream)

    def setup(self) -> State:
        from repro.runtime import AsyncRuntime

        return self._build(AsyncRuntime(time_scale=self.TIME_SCALE))

    def verdict(self, state: State) -> Verdict:
        result = super().verdict(state)
        expected = self.expected
        for name, (observed, __) in list(result.checks.items()):
            if name != APPENDIX_A:
                result.checks[name] = (observed, expected.get(name))
        for name in expected.keys() - result.checks.keys():
            result.checks[name] = (None, expected[name])
        return result

    def propagation(self, state: State) -> list[float]:
        return _provenance_latencies(state, {"salary2"})

    def lag_ms(self, state: State) -> list[float]:
        return [
            (event.time - due) / 1000.0 / self.TIME_SCALE
            for event, due in _stream_writes(state)
        ]


WORKLOADS = {cls.name: cls for cls in (Fanout, Polling, Ingest, Wire)}
