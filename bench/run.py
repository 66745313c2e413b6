"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload refute-cap --seed 1 --seconds 40 --trace 0

The workload runs whole rounds for as long as another round, as long as the
last one, still ends within ``--seconds``; then every answer is checked
(``checks.py``). The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
  ``wall_s`` and ``cpu_s`` (a round's calls, each timed against a fixed loop
  run next to it, median over rounds), ``setup_s`` (fresh interpreters that
  import bipmoore and build the inputs, timed the same way) and
  ``peak_rss_mb`` (this process plus its largest worker);
* ``--trace 1`` reports the per-layer metrics: rounds alternate between
  traced and untraced, and a few extra calls give the shard balance, the
  parallel speed-up, the pool start cost and the cold import of the CLI.
  Layers the workload never calls are timed on a small fixed probe; a line
  ``from_probe: ...`` above the result names those metrics.

A copy of the result, with every round's figures, goes to ``bench/out/``,
and the spans of a traced run go there too.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (after the path set-up above)
from spans import Tracer, median_metrics, round_metrics  # noqa: E402

OUT = BENCH / "out"
SETUP_PROBES = 12
POOL_PROBES = 5
IMPORT_PROBES = 5
#: Time of ``workloads.loop_seconds`` when the reference host (2 cores,
#: Python 3.11.7) runs at its fast speed. Times are reported as multiples of
#: the loop's time next to them, scaled by this, so they read as seconds on
#: that host at that speed.
LOOP_REF_S = 0.0015


def timed_round(workload, inputs, answer_sets: dict):
    """Run one round; keep its answers in ``answer_sets`` under their JSON text,
    once per distinct text, so that memory does not grow with the rounds.

    Returns that text, the round's wall and CPU time, and each call's wall and
    CPU time in units of the loop timed around it: the mean of the loop just
    before the call and the one just before the next call, or after the round.
    """
    workloads.CALL_TIMES.clear()
    c0, t0 = workloads.cpu_seconds(), time.perf_counter()
    results = workload.round(inputs)
    t1, c1 = time.perf_counter(), workloads.cpu_seconds()
    loops = [c[2] for c in workloads.CALL_TIMES] + [workloads.loop_seconds()]
    calls = []
    for k, (wall, cpu, _) in enumerate(workloads.CALL_TIMES):
        yardstick = (loops[k] + loops[k + 1]) / 2
        calls.append((wall / yardstick, cpu / yardstick))
    answers = workload.answers(inputs, results)
    key = json.dumps(answers, sort_keys=True)
    answer_sets.setdefault(key, answers)
    return key, t1 - t0, c1 - c0, calls


def scaled_round(rounds) -> tuple[float, float]:
    """Wall and CPU time of a round: for each call, the median over rounds of
    its time in loop units, summed and scaled by ``LOOP_REF_S``.

    The host's speed changes in phases of seconds to minutes, by up to 1.7
    times, and whole runs can fall in a slow phase. A call and the loop timed
    next to it slow down together, so their ratio holds steadier than either.
    The rounds compared are those with the most common answers, which made
    the same calls in the same order.
    """
    key = Counter(r[0] for r in rounds).most_common(1)[0][0]
    calls = [r[3] for r in rounds if r[0] == key]
    return tuple(
        LOOP_REF_S * sum(statistics.median(c[k][i] for c in calls) for k in range(len(calls[0])))
        for i in (0, 1)
    )


def setup_seconds(name: str, seed: int) -> float:
    """Time from a fresh interpreter to bipmoore imported and inputs built,
    in units of the loop timed just before and just after it."""
    before = workloads.loop_seconds()
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "workloads.py"), name, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        sys.exit(f"bench: set-up probe failed with code {child.returncode}")
    return elapsed / ((before + workloads.loop_seconds()) / 2)


def cli_import_seconds() -> float:
    """Median cold import time of ``bipmoore.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import bipmoore.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code, str(workloads.SRC)],
            capture_output=True, text=True, check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def pool_start_seconds() -> float:
    """Median extra wall time of two workers over one on a tiny search (d=5, m=19)."""
    from bipmoore import search

    task = search.SearchTask(d=5, m=19, mode="find-all")
    gaps = []
    for _ in range(POOL_PROBES):
        t0 = time.perf_counter()
        search.search_offsets(task, workers=1)
        t1 = time.perf_counter()
        search.search_offsets(task, workers=2)
        gaps.append(time.perf_counter() - t1 - (t1 - t0))
    return statistics.median(gaps)


def shard_max_share(d: int, m: int) -> float:
    """Largest first-offset shard's share of the nodes, from prefix-pinned calls."""
    from bipmoore import search

    nodes = [
        search.search_offsets(search.SearchTask(d=d, m=m, mode="find-all", prefix=(a,))).counters.nodes_visited
        for a in range(2, m - 1)
    ]
    return max(nodes) / sum(nodes)


def parallel_speedup(workload, inputs) -> float:
    """Wall time of the workload's search calls at one worker over two workers."""
    walls = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        workload.search_calls(inputs, workers)
        walls[workers] = time.perf_counter() - t0
    return walls[1] / walls[2]


def probe_metrics(seed: int) -> dict[str, float]:
    """Per-layer figures from a small fixed probe, for the layers a workload does
    not call: record 1, one relabelling and one perturbation certified, the two
    defect-4 witnesses, the audit, and ``max_m(7)`` scanned down from 41."""
    from bipmoore import search

    certify = workloads.WORKLOADS["certify"]
    tracer = Tracer()
    with tracer.installed():
        full = certify.build(seed)
        setup = round_metrics(tracer.spans, 0)
        first = len(tracer.spans)
        small = workloads.CertifyInputs((full.items[0], full.items[3], full.items[-1]), full.record1, full.witnesses)
        certify.round(small)
        search.max_m(7, 37, 41)
    return {**setup, **round_metrics(tracer.spans, first)}


def fits(start: float, last: float, seconds: float) -> bool:
    """Whether another round as long as the last one ends within ``seconds``."""
    return time.perf_counter() - start + last <= seconds


def untraced(workload, inputs, answer_sets: dict, seconds: float):
    rounds, start, last = [], time.perf_counter(), 0.0
    while not rounds or fits(start, last, seconds):
        t0 = time.perf_counter()
        rounds.append(timed_round(workload, inputs, answer_sets))
        last = time.perf_counter() - t0
    return rounds


def traced(workload, inputs, answer_sets: dict, setup_metrics, tracer, seconds: float, seed: int):
    """Alternate traced and untraced rounds, then take the extra figures."""
    rounds, layer_rounds, walls = [], [], {True: [], False: []}
    start, last = time.perf_counter(), 0.0
    while len(rounds) < 2 or fits(start, last, seconds):
        t0 = time.perf_counter()
        on = len(rounds) % 2 == 0
        if on:
            with tracer.installed():
                first = len(tracer.spans)
                rounds.append(timed_round(workload, inputs, answer_sets))
            layer_rounds.append(round_metrics(tracer.spans, first))
        else:
            rounds.append(timed_round(workload, inputs, answer_sets))
        walls[on].append(rounds[-1][1])
        last = time.perf_counter() - t0
    metrics = {**setup_metrics, **median_metrics(layer_rounds)}
    metrics["trace.overhead_share"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    metrics["search.shard_max_share"] = shard_max_share(*workload.largest_search)
    metrics["search.parallel_speedup"] = parallel_speedup(workload, inputs)
    metrics["search.pool_start_s"] = pool_start_seconds()
    metrics["cli.import_s"] = cli_import_seconds()
    probed = [name for name in LAYER_UNITS if name not in metrics]
    if probed:
        probe = probe_metrics(seed)
        metrics.update({name: probe[name] for name in probed})
    return rounds, metrics, probed


def load_metric_units():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


END_TO_END_UNITS, LAYER_UNITS = load_metric_units()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.import_package()
    workload = workloads.WORKLOADS[args.workload]
    answer_sets: dict[str, list[dict]] = {}
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            inputs = workload.build(args.seed)
        rounds, metrics, probed = traced(
            workload, inputs, answer_sets, round_metrics(tracer.spans, 0), tracer, args.seconds, args.seed
        )
        units = LAYER_UNITS
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        inputs = workload.build(args.seed)
        rounds = untraced(workload, inputs, answer_sets, args.seconds)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        wall, cpu = scaled_round(rounds)
        metrics = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": (own + kids) / 1024}
        units = END_TO_END_UNITS
        probed = []

    # networkx and numpy load only now, so they stay out of the timed rounds and peak RSS.
    from checks import Checker, tally

    checker = Checker(workload, inputs)
    statuses = {key: checker.check_round(answers) for key, answers in answer_sets.items()}
    attempted, failed, correct = tally([s for r in rounds for s in statuses[r[0]]])
    for message in dict.fromkeys(checker.messages):
        print(f"bench: {message}", file=sys.stderr)
    if not args.trace:
        probes = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = LOOP_REF_S * statistics.median(probes)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = {
        **result,
        "args": vars(args),
        "rounds": [{"wall_s": r[1], "cpu_s": r[2]} for r in rounds],
        "from_probe": probed,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    if probed:
        print("from_probe: " + " ".join(probed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
