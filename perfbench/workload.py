"""One sample of one clipbench workload, in a process of its own.

run.py spawns this script once per sample, with ``src`` of the same
checkout on PYTHONPATH:

    python3 perfbench/workload.py '{"workload": "bench_single", "seed": 1, "trace": false}'

The sample drives the clipbench CLI (``clipbench.cli.main``) over the
public entry points ``run_bench`` and ``run_verification``, checks what
they return and print, and writes one JSON line to stdout: the moment
set-up ended, the operations checked and how many failed, a fingerprint
of the outputs, and, when traced, the per-layer numbers.

Tracing wraps the calls into each module from outside the program:
``bench._materialize`` (stream generation), ``bench._ResultFold``
(checksum fold), ``verify.clip_exact`` (oracle), the kernels that
``run_verification`` looks up, and the two entry points.  A wrapped name
that is missing, or that a workload should call and never does, ends the
sample with exit code MISSING_LAYER_EXIT.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import defaultdict

ALGORITHMS = ("CS", "LB", "CB", "NLN", "Skala", "KWC", "Proposed")

# Sizes of one sample.  Each takes about half a second, so a run
# averages many of them and the reference work timed between them
# follows the host's drift; a 15 s sample drifts more than any reference
# timed beside it can follow.  bench_chunked lowers clipbench's CHUNK_SIZE
# (one million lines) to ``chunk_size``, as tests/test_bench.py does, so
# that its lines span four chunks and every chunk is regenerated for the
# warm-up and each rep, the path a run above a million lines takes.  It
# runs two algorithms so generation, not clipping, dominates.
SIZES = {
    "bench_single": {"lines": 15_000, "reps": 3, "algorithms": ALGORITHMS},
    "bench_chunked": {"lines": 15_000, "reps": 3, "algorithms": ("CS", "Proposed"),
                      "chunk_size": 4_000},
    "verify_sweep": {"cases": 5_000, "shift": 1e6},
}

DEFAULT_SPACE = (-960.0, -720.0, 960.0, 720.0)
DEFAULT_WINDOW = (-100.0, -75.0, 100.0, 75.0)

MISSING_LAYER_EXIT = 3


class MissingLayer(RuntimeError):
    """A layer entry point the trace wraps is absent or was never called."""


class Tracer:
    """Calls, total time and self time per layer, aggregated in memory.

    A layer's self time is its own duration minus the time spent in
    traced layers it called.
    """

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.items = defaultdict(int)
        self._inner = [0.0]  # traced-callee time of each open span, innermost last

    def wrap(self, layer, fn, count=None):
        inner, calls, total, self_time, items = (
            self._inner, self.calls, self.total, self.self_time, self.items)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            inner.append(0.0)
            t0 = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t0
            nested = inner.pop()
            inner[-1] += dt
            calls[layer] += 1
            total[layer] += dt
            self_time[layer] += dt - nested
            if count is not None:
                items[layer] += count(result)
            return result

        return traced

    def wrap_kernel(self, layer, fn):
        """Leaf wrapper for the hot per-segment kernels; also counts accepts."""
        inner, calls, total, items = self._inner, self.calls, self.total, self.items
        perf = time.perf_counter

        def traced(*args):
            t0 = perf()
            result = fn(*args)
            dt = perf() - t0
            inner[-1] += dt
            calls[layer] += 1
            total[layer] += dt
            if result is not None:
                items[layer] += 1
            return result

        return traced

    def traced_fold(self, fold_cls):
        """Subclass of the checksum fold whose update and digest are traced."""
        update = self.wrap("bench.fold", fold_cls.update)
        digest = self.wrap("bench.fold", fold_cls.digest)
        items = self.items

        class TracedFold(fold_cls):
            __slots__ = ()

            def update(self, results):
                before = self.accepted
                update(self, results)
                items["clippers.calls"] += len(results)
                items["clippers.accepted"] += self.accepted - before

            def digest(self):
                return digest(self)

        return TracedFold


@contextlib.contextmanager
def patched(changes):
    """Replace ``module.attr`` with ``make(original)`` for each change,
    restoring the originals on exit.  A missing attribute is a MissingLayer."""
    saved = []
    try:
        for module, attr, make in changes:
            if not hasattr(module, attr):
                raise MissingLayer(f"{module.__name__}.{attr} is missing")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _shifted(bounds, shift):
    return [repr(v + shift) for v in bounds]


def _call_cli(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_sample(spec, kernels=None):
    """Run one sample and return its JSON-ready record.

    ``spec`` holds ``workload``, ``seed`` and ``trace``; optional ``sizes``
    replace the workload's SIZES entry, which only the smoke test does.
    A ``chunk_size`` in the sizes replaces clipbench's CHUNK_SIZE.
    ``kernels`` is passed through to ``run_verification`` as kernel
    overrides.
    """
    from clipbench import bench, cli, verify

    workload = spec["workload"]
    sizes = spec.get("sizes") or SIZES[workload]
    tracer = Tracer() if spec["trace"] else None
    entries = []  # (monotonic time at entry, returned report) per entry-point call
    entry_name = "run_verification" if workload == "verify_sweep" else "run_bench"
    layer_name = ("verify." if workload == "verify_sweep" else "bench.") + entry_name

    def capture(fn):
        inner = tracer.wrap(layer_name, fn) if tracer else fn

        def entry(*args, **kwargs):
            ready = time.monotonic()
            if kernels:
                kwargs["kernels"] = {
                    algo: tracer.wrap_kernel("kernel." + algo.value, k) if tracer else k
                    for algo, k in kernels.items()
                }
            report = inner(*args, **kwargs)
            entries.append((ready, report))
            return report

        return entry

    changes = [(cli, entry_name, capture)]
    if "chunk_size" in sizes:
        changes.append((bench, "CHUNK_SIZE", lambda _: sizes["chunk_size"]))
    main = cli.main
    if tracer:
        main = tracer.wrap("cli", main)

        def generate(fn):
            return tracer.wrap("bench.generate", fn, count=lambda result: len(result[0]))

        changes += [
            (bench, "_materialize", generate),
            (verify, "_materialize", generate),
            (bench, "_ResultFold", tracer.traced_fold),
            (verify, "clip_exact", lambda fn: tracer.wrap("oracle", fn)),
            (verify, "KERNELS", lambda table: {
                algo: tracer.wrap_kernel("kernel." + algo.value, k) for algo, k in table.items()
            }),
        ]

    with patched(changes):
        if workload == "verify_sweep":
            record = _verify_sample(main, spec["seed"], sizes, entries)
        else:
            record = _bench_sample(main, spec["seed"], sizes, entries)
    record["ready"] = entries[0][0]
    if tracer:
        record["layers"] = _layers(tracer, [r for _, r in entries])
        _require_calls(tracer, workload)
    return record


def _bench_sample(main, seed, sizes, entries):
    from clipbench.bench import parse_report

    lines, reps, algorithms = sizes["lines"], sizes["reps"], sizes["algorithms"]
    argv = ["bench", "--lines", str(lines), "--reps", str(reps), "--seed", str(seed),
            "--format", "json", "--algorithms", ",".join(a.lower() for a in algorithms)]
    code, text = _call_cli(main, argv)
    errors = []
    ((_, report),) = entries
    if code != 0:
        errors.append(f"bench exited {code}")
    if parse_report(text) != report:
        errors.append("json report does not parse back to the returned report")
    if len(report.timings) != reps * len(algorithms):
        errors.append(f"{len(report.timings)} timings for {reps} reps x {len(algorithms)} algorithms")

    # README promises: one accepted count for the shared stream, and one
    # checksum per algorithm across reps.
    first = {}
    failed = 0
    for t in report.timings:
        ref = first.setdefault(t.algorithm, t)
        if t.accepted_count != report.timings[0].accepted_count or t.checksum != ref.checksum:
            failed += 1
    if failed:
        errors.append(f"{failed} timed passes break accepted-count agreement or checksum stability")
    return {
        "attempted": reps * len(algorithms),
        "failed": failed,
        "errors": errors,
        "kernel_calls": lines * (reps + 1) * len(algorithms),
        "fingerprint": {a.value: [t.accepted_count, f"{t.checksum:016x}"] for a, t in first.items()},
    }


def _verify_sample(main, seed, sizes, entries):
    cases, shift = sizes["cases"], sizes["shift"]
    errors = []
    attempted = failed = 0
    fingerprint = {}
    for origin in (0.0, shift):
        argv = ["verify", "--cases", str(cases), "--seed", str(seed),
                "--space", *_shifted(DEFAULT_SPACE, origin),
                "--window", *_shifted(DEFAULT_WINDOW, origin)]
        code, text = _call_cli(main, argv)
        report = entries[-1][1]
        total = cases + report.adversarial_cases
        printed = set(text.splitlines())
        if code != (0 if report.ok else 1):
            errors.append(f"verify at origin {origin} exited {code}, ok={report.ok}")
        if report.random_cases != cases:
            errors.append(f"verify ran {report.random_cases} cases, asked for {cases}")
        for check in report.checks:
            name = check.algorithm.value
            if check.matches + check.grazing_exempt + check.mismatches != total:
                errors.append(f"{name} tallies do not add up to {total} at origin {origin}")
            line = (f"{name}: {check.matches} match, {check.grazing_exempt} grazing-exempt, "
                    f"{check.mismatches} MISMATCH")
            if line not in printed:
                errors.append(f"missing summary line {line!r}")
        attempted += total * len(report.checks)
        if origin == 0.0:
            # At the default window every algorithm must agree with the
            # oracle; far from the origin mismatches are a measured
            # property (layer metric verify.failed_share), not a failure.
            default_mismatches = sum(c.mismatches for c in report.checks)
            failed += default_mismatches
            if default_mismatches:
                errors.append(f"{default_mismatches} oracle mismatches at the default window")
        fingerprint[repr(origin)] = {
            c.algorithm.value: [c.matches, c.grazing_exempt, c.mismatches] for c in report.checks
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "kernel_calls": attempted,
        "fingerprint": fingerprint,
    }


def _layers(tracer, reports):
    import statistics  # imported here, after set-up, to keep it out of setup_s

    total, calls, items = tracer.total, tracer.calls, tracer.items
    bench_reports = [r for r in reports if hasattr(r, "timings")]
    verify_reports = [r for r in reports if hasattr(r, "checks")]
    m = {}

    generated = items["bench.generate"]
    useful = (sum(r.config.lines_per_run for r in bench_reports)
              + sum(r.random_cases for r in verify_reports))
    timed = sum(t.seconds for r in bench_reports for t in r.timings)
    m["bench.generate_s"] = total["bench.generate"]
    m["bench.generated_segments"] = generated
    m["bench.generate_useful_ratio"] = useful / generated if generated else 0.0
    m["bench.fold_s"] = total["bench.fold"]
    m["bench.timed_clip_s"] = timed
    m["bench.untimed_s"] = (
        total["bench.run_bench"] - total["bench.generate"] - total["bench.fold"] - timed
        if bench_reports else 0.0
    )

    kernel_calls = sum(calls["kernel." + a] for a in ALGORITHMS)
    for name in ALGORITHMS:
        ns = 0.0
        for r in bench_reports:
            secs = [t.seconds for t in r.timings if t.algorithm.value == name]
            if secs:
                ns = statistics.median(secs) / r.config.lines_per_run * 1e9
        if calls["kernel." + name]:
            ns = total["kernel." + name] / calls["kernel." + name] * 1e9
        m[f"clippers.{name}.ns_per_segment"] = ns
    if bench_reports:
        clips, accepted = items["clippers.calls"], items["clippers.accepted"]
    else:
        clips, accepted = kernel_calls, sum(items["kernel." + a] for a in ALGORITHMS)
    m["clippers.calls"] = clips
    m["clippers.accept_ratio"] = accepted / clips if clips else 0.0

    m["oracle.calls"] = calls["oracle"]
    m["oracle.us_per_case"] = total["oracle"] / calls["oracle"] * 1e6 if calls["oracle"] else 0.0

    compared = sum(
        (r.random_cases + r.adversarial_cases) * len(r.checks) for r in verify_reports)
    mismatches = {name: 0 for name in ALGORITHMS}
    grazing = 0
    for r in verify_reports:
        for c in r.checks:
            mismatches[c.algorithm.value] += c.mismatches
            grazing += c.grazing_exempt
    m["verify.kernel_s"] = sum(total["kernel." + a] for a in ALGORITHMS)
    m["verify.self_s"] = tracer.self_time["verify.run_verification"]
    for name in ALGORITHMS:
        m[f"verify.{name}.mismatches"] = mismatches[name]
    m["verify.grazing_exempt"] = grazing
    m["verify.failed_share"] = sum(mismatches.values()) / compared if compared else 0.0
    m["cli.render_s"] = tracer.self_time["cli"]
    return m


def _require_calls(tracer, workload):
    if workload == "verify_sweep":
        layers = ["cli", "verify.run_verification", "bench.generate", "oracle"]
        layers += ["kernel." + a for a in ALGORITHMS]
    else:
        # Bench kernels run unwrapped inside the harness timer; their
        # calls are counted as results reaching the fold.
        layers = ["cli", "bench.run_bench", "bench.generate", "bench.fold", "clippers.calls"]
    silent = [name for name in layers if not (tracer.calls[name] or tracer.items[name])]
    if silent:
        raise MissingLayer(f"{workload}: traced layers never called: {', '.join(silent)}")


def main(argv) -> int:
    spec = json.loads(argv[1])
    try:
        record = run_sample(spec)
    except MissingLayer as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return MISSING_LAYER_EXIT
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
