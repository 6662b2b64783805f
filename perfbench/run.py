"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 10 --trace 0

Run from the repository root.  The workload is replayed in rounds until
``--seconds`` have passed; each round builds a fresh scenario (setup),
runs it until its trace is settled, and reaches a verdict.  Timings are
means over the rounds, rescaled to a reference host speed (speed.py).
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced rounds alternate and the per-layer ledger is printed.  Every round's verdicts are checked against
the workload's expected verdicts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (verdicts checked), ``failed`` (verdicts that
differ from the expected ones) and ``metrics``.  A fuller record, with the
host's CPU count and Python version, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field

from ledger import LAYERS, LayerTracer, self_times
from speed import REFERENCE_S, loop_times
from stats import TooFewSamples, median, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Rounds a run makes at least, however long they take.
MIN_ROUNDS = 3

@dataclass
class RoundResult:
    setup_s: float
    settle_s: float
    verdict_s: float
    events: int
    checked: int
    mismatches: list[str]
    notes: list[str]
    signature: tuple
    propagation: list[float]
    lag_ms: list[float]
    counts: dict = field(default_factory=dict)
    #: layer -> (calls, self ns); traced rounds only.
    layers: dict = field(default_factory=dict)
    #: Set-up-only builds made just before the round.
    setups: list[float] = field(default_factory=list)
    #: Speed-loop times (speed.py) measured before the set-ups, between
    #: settle and verdict, and after the verdict.
    loops_before: list[float] = field(default_factory=list)
    loops_between: list[float] = field(default_factory=list)
    loops_after: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """The traced window: settle plus verdict."""
        return self.settle_s + self.verdict_s


def run_round(workload, tracer, traced: bool) -> RoundResult:
    gc.collect()
    started = time.perf_counter()
    state = workload.setup()
    setup_s = time.perf_counter() - started
    try:
        tracer.reset()
        tracer.active = traced
        started = time.perf_counter()
        events = workload.settle(state, tracer)
        settle_s = time.perf_counter() - started
        loops_between = loop_times()
        # A traced round reaches its verdict once, so its spans cover
        # exactly the traced window.  Repeated verdicts each follow speed
        # loops, which rescale them as the ones before the first do.
        repeats = 1 if traced else workload.VERDICT_REPEATS
        verdict_s = 0.0
        for index in range(repeats):
            if index:
                loops_between += loop_times()
            started = time.perf_counter()
            verdict = workload.verdict(state)
            verdict_s += time.perf_counter() - started
        verdict_s /= repeats
        tracer.active = False
        loops_after = loop_times()
        counts = workload.counts(state)
        counts.update(tracer.counts)
        return RoundResult(
            setup_s=setup_s,
            settle_s=settle_s,
            verdict_s=verdict_s,
            events=events,
            checked=len(verdict.checks),
            mismatches=verdict.mismatches,
            notes=verdict.notes,
            signature=verdict.signature(),
            propagation=workload.propagation(state),
            lag_ms=workload.lag_ms(state),
            counts=counts,
            layers=self_times(tracer.spans) if traced else {},
            loops_between=loops_between,
            loops_after=loops_after,
        )
    finally:
        tracer.active = False
        workload.close(state)


def setup_only(workload) -> float:
    gc.collect()
    started = time.perf_counter()
    state = workload.setup()
    elapsed = time.perf_counter() - started
    workload.close(state)
    return elapsed


def measured_round(workload, tracer, traced: bool) -> RoundResult:
    """Speed loops, set-up-only builds, then one round."""
    loops = loop_times()
    setups = [setup_only(workload) for _ in range(workload.SETUP_REPEATS)]
    result = run_round(workload, tracer, traced)
    result.loops_before = loops
    result.setups = setups + [result.setup_s]
    return result


def run_rounds(workload, run_seconds: float, trace: bool, tracer):
    """Replay the workload until ``run_seconds`` have passed.

    Returns (untraced rounds, traced rounds).
    """
    # The first build in a process pays one-time imports (the wire
    # runtime's modules, the DSL parser); users do not pay them per set-up.
    setup_only(workload)
    plain: list[RoundResult] = []
    traced: list[RoundResult] = []
    started = time.perf_counter()
    while True:
        plain.append(measured_round(workload, tracer, traced=False))
        if trace:
            with tracer.installed():
                traced.append(measured_round(workload, tracer, traced=True))
        enough = len(plain) >= MIN_ROUNDS
        if enough and time.perf_counter() - started >= run_seconds:
            break
    return plain, traced


def speed_scale(*loop_sets) -> float:
    """Reference speed over the host's mean speed in the given loops."""
    loops = [t for loop_set in loop_sets for t in loop_set]
    return REFERENCE_S / (sum(loops) / len(loops))


def timings(workload, rounds, rescale: bool = True) -> dict[str, float]:
    """Means over the rounds, rescaled to the reference speed (speed.py).

    The host flips between speed states within seconds, so a median over
    rounds jumps between the states while a mean moves with the share of
    time spent in each.  Each phase is rescaled by the speed loops run on
    both sides of it, pooled over the run, which saw the same share.  A
    paced settle phase (the wire runtime's) lasts as long as the wall
    clock says, so it is not rescaled.
    """

    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    before = [t for r in rounds for t in r.loops_before]
    between = [t for r in rounds for t in r.loops_between]
    after = [t for r in rounds for t in r.loops_after]
    setup_scale = settle_scale = verdict_scale = 1.0
    if rescale:
        setup_scale = speed_scale(before)
        settle_scale = 1.0 if workload.PACED else speed_scale(before, between)
        verdict_scale = speed_scale(between, after)
    events = rounds[0].events
    settle = mean(r.settle_s for r in rounds) * settle_scale
    verdict = mean(r.verdict_s for r in rounds) * verdict_scale
    return {
        "setup_s": mean(s for r in rounds for s in r.setups) * setup_scale,
        "settled_eps": events / settle,
        "verdict_s": verdict,
        "to_verdict_eps": events / (settle + verdict),
    }


TIMING_UNITS = {
    "setup_s": "s",
    "settled_eps": "events/s",
    "verdict_s": "s",
    "to_verdict_eps": "events/s",
}


def pooled(workload, rounds, attribute: str) -> list[float]:
    """Latency samples of the run.

    A deterministic workload's rounds repeat the same samples, so one
    round's are taken.  The wire workload's rounds repeat the inputs but
    not the wall-clock timing, so theirs pool.
    """
    if workload.DETERMINISTIC:
        return getattr(rounds[0], attribute)
    return [sample for r in rounds for sample in getattr(r, attribute)]


def end_to_end(workload, rounds, problems) -> dict:
    rescaled = timings(workload, rounds)
    metrics = {name: (value, TIMING_UNITS[name]) for name, value in rescaled.items()}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "MB",
    )
    samples = pooled(workload, rounds, "propagation")
    for name, fraction in (("propagation_p50_s", 0.50), ("propagation_p99_s", 0.99)):
        try:
            value, __ = percentile(samples, fraction)
        except TooFewSamples as error:
            problems.append(f"{name}: {error}")
            value = 0.0
        metrics[name] = (value, "s")
    return metrics


COUNTS = (
    "translator.writes",
    "translator.reads",
    "translator.notifications",
    "scheduler.callbacks",
    "network.messages",
    "shell.events",
    "shell.candidates",
    "shell.fired",
    "trace.events",
    "validate.generated",
    "validate.max_pair_group",
    "runtime.frames",
    "runtime.coalesced",
)


def per_layer(workload, plain, traced, problems) -> dict:
    """Per-round means of the traced rounds' ledgers."""
    n = len(traced)
    wall = sum(r.wall_s for r in traced) / n
    metrics: dict[str, tuple[float, str]] = {}
    attributed = 0.0
    for layer in LAYERS:
        calls = sum(r.layers.get(layer, (0, 0))[0] for r in traced) / n
        self_s = sum(r.layers.get(layer, (0, 0))[1] for r in traced) / n / 1e9
        attributed += self_s
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / wall, "ratio")
    for name in COUNTS:
        metrics[name] = (sum(r.counts.get(name, 0) for r in traced) / n, "count")
    candidates = metrics["shell.candidates"][0]
    metrics["shell.fire_ratio"] = (
        metrics["shell.fired"][0] / candidates if candidates else 0.0,
        "ratio",
    )
    lags = pooled(workload, traced, "lag_ms")
    lag_p99 = 0.0
    if lags:
        try:
            lag_p99, __ = percentile(lags, 0.99)
        except TooFewSamples as error:
            problems.append(f"runtime.lag_ms_p99: {error}")
    metrics["runtime.lag_ms_p99"] = (lag_p99, "ms")
    metrics["unattributed.self_s"] = (wall - attributed, "s")
    metrics["unattributed.share"] = ((wall - attributed) / wall, "ratio")
    metrics["traced_wall_s"] = (wall, "s")
    metrics["tracing_overhead"] = (
        median([r.wall_s for r in traced]) - median([r.wall_s for r in plain]),
        "s",
    )
    return metrics


def check_rounds(workload, rounds, problems) -> None:
    """Sim workloads replay the same inputs: every round must agree."""
    if not workload.DETERMINISTIC:
        return
    first = rounds[0]
    for index, other in enumerate(rounds[1:], start=1):
        if (other.events, other.signature, other.propagation) != (
            first.events,
            first.signature,
            first.propagation,
        ):
            problems.append(f"round {index} differs from round 0 on the same inputs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(have: {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    tracer = LayerTracer()
    plain, traced = run_rounds(workload, args.seconds, bool(args.trace), tracer)

    rounds = plain + traced
    problems: list[str] = []
    check_rounds(workload, rounds, problems)
    attempted = sum(r.checked for r in rounds)
    mismatches = [m for r in rounds for m in r.mismatches]
    problems += sorted({note for r in rounds for note in r.notes})
    if args.trace:
        metrics = per_layer(workload, plain, traced, problems)
    else:
        metrics = end_to_end(workload, plain, problems)

    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "events_per_round": plain[0].events,
        "propagation_samples": len(pooled(workload, plain, "propagation")),
        "speed": round(
            speed_scale(*(r.loops_before + r.loops_between + r.loops_after for r in rounds)),
            4,
        ),
    }
    print(" ".join(f"{key}={value}" for key, value in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    share = len(mismatches) / attempted if attempted else 0.0
    print(
        f"  {'verdict_mismatch_share':28s} {share:14.6g} ratio "
        f"({len(mismatches)} of {attempted} verdicts)"
    )
    for line in sorted(set(mismatches)) + problems:
        print(f"  problem: {line}", file=sys.stderr)

    result = {
        "correct": not mismatches and not problems,
        "attempted": attempted,
        "failed": len(mismatches),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}.trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as out:
        record = dict(env, verdict_mismatch_share=share, problems=problems)
        if not args.trace:
            record["unscaled"] = timings(workload, plain, rescale=False)
        json.dump(dict(record, result=result), out, indent=2)
    if traced:
        tracer.write_spans(stem + ".spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
