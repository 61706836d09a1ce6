"""Benchmark of projflow: time to an exact, checked verdict.

    python3 bench/run.py --workload catalogue --seed 1 --seconds 15 --trace 0

One workload per run, in this process, with one thread.  The run

1. times set-up (``setup_s``) in fresh child processes: interpreter start,
   ``import projflow`` and a first ``canonicalize(canonical_flow(2))``;
2. builds the seeded inputs and their references with sympy (``workloads``),
   outside every timed region, and shuffles the cases with the seed;
3. repeats passes over the cases while one more pass is expected to end
   within ``--seconds`` (at least one pass), each case under the workload's
   per-case time limit;
4. checks every output against the references after its pass.

Times are scaled to a reference speed with a calibration computation timed
around and during every call (see ``CAL_REF_S``); the readable output gives
the ratio of measured to scaled time.  With ``--trace 1`` one more pass runs
with the public functions of every layer wrapped (``spans``), and the
per-layer metrics replace the end-to-end ones; the spans go to
``.bench_out/``.  Readable lines come first; the last line of standard
output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 7
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import projflow
from projflow import RationalFlow, canonical_flow, canonicalize
v = canonicalize(canonical_flow(2))
ok = isinstance(v, RationalFlow) and v.level == 2
print("ready" if ok and projflow.__file__.startswith(sys.argv[1]) else "wrong",
      flush=True)
sys.path.insert(0, sys.argv[2])
from run import _calibrate
_calibrate()
print(min(_calibrate() for _ in range(3)))
"""
# Calibration: one product of two 28-term polynomials with Fraction
# coefficients, the dictionary and Fraction work that dominates projflow.
# Other tenants of a shared host slow such work by up to 2x, in spells of a
# few seconds.  The calibration is timed before and after every timed call
# and, through SIGPROF, every SAMPLE_S of CPU time inside it; each stretch
# of the call is scaled by CAL_REF_S over the calibration time around it,
# which cancels the slowdown.  CAL_REF_S is the calibration time on a
# 2-core 2.0 GHz Xeon with Python 3.11 when nothing else runs, so scaled
# times read as seconds on that machine.
CAL_REF_S = 0.0025
SAMPLE_S = 0.25
_CAL = {(i, j): Fraction(i - 2 * j + 1, j + 1)
        for i in range(7) for j in range(7 - i)}
END_TO_END = {"setup_s": "s", "wall_s": "s", "case_p50_s": "s",
              "case_tail_s": "s", "decided_share": "ratio",
              "peak_rss_mb": "MB"}
# Failure kinds that are answers rather than missing answers: one of them
# outside the recorded baseline makes the run incorrect.
WRONG = ("wrong_verdict", "certificate")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


class CaseTimeout(BaseException):
    """Raised by the per-case alarm.  Not an Exception, so no handler in the
    library can swallow it."""


def _alarm(signum, frame):
    raise CaseTimeout()


def _calibrate():
    t0 = time.perf_counter()
    out = {}
    for e1, c1 in _CAL.items():
        for e2, c2 in _CAL.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return time.perf_counter() - t0


class Speed:
    """Times calls in seconds scaled to the reference speed."""

    def __init__(self):
        _calibrate()                      # the first run is cold
        self.last = _calibrate()
        self.raw = self.scaled = 0.0
        self.marks = []
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        cal = _calibrate()
        self.marks.append((start, cal, time.perf_counter()))

    def start(self):
        self.marks = []
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        self.begin = time.perf_counter()

    def stop(self):
        """Scaled seconds since ``start``, without the sampling itself."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        end = time.perf_counter()
        after = _calibrate()
        raw = scaled = 0.0
        t, cal = self.begin, self.last
        for start, now, resumed in self.marks + [(end, after, end)]:
            raw += start - t
            scaled += (start - t) * 2.0 * CAL_REF_S / (cal + now)
            t, cal = resumed, now
        self.last = after
        self.raw += raw
        self.scaled += scaled
        return scaled


# -- set-up --------------------------------------------------------------

def time_setup():
    """Seconds from starting a fresh interpreter to its first verdict,
    scaled by the calibrations run just before it (here) and just after it
    (in the child)."""
    _calibrate()
    before = _calibrate()
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, SRC, HERE],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    if line != "ready" or proc.returncode != 0:
        raise BenchError("set-up child failed (%r, exit %s): %s"
                         % (line, proc.returncode, err.strip()[-500:]))
    return elapsed * 2.0 * CAL_REF_S / (before + float(out))


# -- cases ---------------------------------------------------------------

class Case:
    """One call into projflow and the check of its output.

    ``call`` takes no arguments and looks its projflow function up at call
    time, so the traced pass sees the wrapped functions.  ``check`` maps the
    output to None or a failure kind; an output it cannot read is a wrong
    verdict.  ``key``, when given, maps the output to a hashable value so
    that an output seen in an earlier pass is not checked twice.
    """

    __slots__ = ("name", "call", "check", "key", "memo")

    def __init__(self, name, call, check, key=repr):
        self.name, self.call, self.check, self.key = name, call, check, key
        self.memo = {}

    def verdict(self, output):
        k = self.key(output) if self.key is not None else None
        if k is None or k not in self.memo:
            try:
                kind = self.check(output)
            except Exception:
                kind = "wrong_verdict"
            if k is None:
                return kind
            self.memo[k] = kind
        return self.memo[k]


def run_case(case, limit, speed):
    """(scaled seconds, output, failure kind or None, detail) for one call.
    A timeout costs exactly the limit."""
    detail = None
    speed.start()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        try:
            output = case.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = speed.stop()
        kind = None
    except CaseTimeout:
        output, kind, seconds = None, "timeout", limit
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        output, kind = None, "exception"
        detail = "%s: %s in %s" % (type(exc).__name__, exc, frame.name)
    return seconds, output, kind, detail


def run_pass(cases, limit, speed, tracer=None):
    """(pass time, [(seconds, failure kind, detail)]): the pass time is the
    sum of the case times.  The heap is collected before each case, outside
    the timed region, so that no case pays for garbage left by another."""
    results = []
    for i, case in enumerate(cases):
        gc.collect()
        if tracer is not None:
            tracer.start_case(i)
        results.append(run_case(case, limit, speed))
        if tracer is not None:
            tracer.end_case()
    checked = []
    for case, (seconds, output, kind, detail) in zip(cases, results):
        if kind is None:
            kind = case.verdict(output)
        checked.append((seconds, kind, detail))
    return sum(r[0] for r in results), checked


# -- the workloads as calls ------------------------------------------------

def _ratfn(pf, gen, f):
    num, den = gen.normal_pair(f)
    return pf.RatFn(pf.Poly(2, num), pf.Poly(2, den), reduce=False)


def _pair(pf, gen, pair, cls):
    return cls(_ratfn(pf, gen, pair[0]), _ratfn(pf, gen, pair[1]))


def _jets_terms(jets):
    return [(j.num.terms, j.den.terms) for j in jets]


def catalogue_cases(pf, gen, specs):
    from projflow import cli

    def make(spec):
        argv = ["classify", spec["text"], "--json"]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(output):
            code, text = output
            if code != 0:
                return "exit_code"
            payload = json.loads(text)
            if (payload.get("verdict") != "RationalFlow"
                    or abs(payload.get("level")) != spec["level"]):
                return "wrong_verdict"
            got = gen.parse(payload["orbit_W"])
            if not gen.proportional(got, spec["invariant"]):
                return "wrong_verdict"
            if spec["route"] == "flow":
                ell = payload["ell"]
                A = gen.parse(ell["P"]) / gen.parse(ell["Q"])
                L = tuple(gen.QQ(Fraction(c).numerator, Fraction(c).denominator)
                          for c in ell["L"])
                if not gen.certificate_holds(spec["flow"], spec["level"], A, L):
                    return "certificate"
            return None

        return Case(spec["name"], call, check)

    return [make(s) for s in specs]


def translation_cases(pf, gen, specs):
    def make(spec):
        flow = _pair(pf, gen, spec["pair"], pf.Flow)
        fn = spec["fn"]
        return Case(spec["name"], lambda: getattr(pf, fn)(flow),
                    lambda out: None if out is spec["expected"]
                    else "wrong_verdict")

    return [make(s) for s in specs]


def conjugate_cases(pf, gen, specs):
    def make(spec):
        flow = _pair(pf, gen, spec["pair"], pf.Flow)
        level = abs(spec["N"])

        def key(v):
            ell = getattr(v, "ell", None)
            if ell is None:
                return (v.kind, getattr(v, "level", None))
            return (v.kind, v.level, repr(ell))

        def check(v):
            if not isinstance(v, pf.RationalFlow) or v.level != level:
                return "wrong_verdict"
            ell = v.ell
            A = gen.K.new(gen.ring_poly(ell.P.terms), gen.ring_poly(ell.Q.terms))
            L = tuple(gen.QQ(c.numerator, c.denominator)
                      for c in (ell.L.a, ell.L.b, ell.L.c, ell.L.d))
            if not gen.certificate_holds(spec["pair"], level, A, L):
                return "certificate"
            return None

        return Case(spec["name"], lambda: pf.canonicalize(flow), check, key)

    return [make(s) for s in specs]


def series_cases(pf, gen, specs):
    def make(spec):
        order = spec["order"]
        if spec["kind"] == "flow":
            flow = _pair(pf, gen, spec["source"], pf.Flow)

            def jets():
                return pf.expand_flow(flow, order)
        else:
            vf = _pair(pf, gen, spec["source"], pf.VectorField)

            def jets():
                return pf.expand_from_vf(vf, order)

        def call():
            table = jets()
            if spec["growth"] is None:
                return table, None
            diag = pf.diagonal_series(table, spec["direction"])
            return table, pf.prime_growth_diagnostic(diag)

        def check(output):
            table, diagnostic = output
            if (_jets_terms(table.u_parts), _jets_terms(table.v_parts)) \
                    != spec["jets"]:
                return "wrong_verdict"
            if diagnostic is not None:
                flag = diagnostic["unbounded_denominator_primes_suspected"]
                if flag is not spec["growth"]:
                    return "wrong_verdict"
            return None

        return Case(spec["name"], call, check, key=None)

    return [make(s) for s in specs]


CASES = {"catalogue": catalogue_cases, "translation": translation_cases,
         "conjugates": conjugate_cases, "series": series_cases}


# -- metrics -----------------------------------------------------------------

def summarize(cases, passes, limit):
    """Median and tail of the per-case medians over the passes.  A failed
    execution misses the limit: it counts as the limit plus the time it
    took, so it ranks above every decided one."""
    per_case = []
    for i in range(len(cases)):
        times = [p[1][i][0] + (limit if p[1][i][1] else 0.0) for p in passes]
        per_case.append(statistics.median(times))
    order = sorted(range(len(cases)), key=per_case.__getitem__)
    n = len(order)
    if n < 11:
        raise BenchError("a tail needs at least 11 cases, not %d" % n)
    # the highest percentile with at least ten cases beyond it
    tail = order[n - 11]
    print("median case %s; tail case %s"
          % (cases[order[n // 2]].name, cases[tail].name))
    return (statistics.median(per_case), per_case[tail],
            100.0 * (n - 10) / n)


def report_failures(cases, passes, baseline):
    """Print failures by kind against the baseline; return (failed count,
    wrong answers outside the baseline)."""
    known, any_case = baseline
    seen = {}
    failed = 0
    for _, checked in passes:
        for case, (_, kind, detail) in zip(cases, checked):
            if kind is not None:
                failed += 1
                seen.setdefault((case.name, kind), detail)
    by_kind = {}
    for name, kind in seen:
        by_kind.setdefault(kind, []).append(name)
    for kind in sorted(by_kind):
        print("failures %-13s %d: %s" % (kind, len(by_kind[kind]),
                                         ", ".join(sorted(by_kind[kind]))))
    for (name, kind), detail in sorted(seen.items()):
        if detail:
            print("  %s: %s" % (name, detail))
    new = sorted(k for k in seen if k not in known and k[1] not in any_case)
    if new:
        print("failures not in the baseline: %s" % new)
    fixed = sorted(k for k in known if k not in seen)
    if fixed:
        print("baseline failures now passing: %s" % fixed)
    return failed, [k for k in new if k[1] in WRONG]


def baseline_for(workload):
    """Failures recorded when the benchmark was defined: (case, kind) pairs,
    and kinds expected on any case."""
    if workload == "catalogue":
        from catalogue import SEED_FAILURES
        return ({("vf/" + name, kind) for kind, names in SEED_FAILURES.items()
                 for name in names}, ())
    if workload == "conjugates":
        return set(), ("timeout",)
    return set(), ()


# -- main ------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup = [time_setup() for _ in range(SETUP_RUNS)]
    sys.path.insert(0, SRC)
    import projflow as pf
    if not pf.__file__.startswith(SRC):
        raise BenchError("projflow imported from %s, not %s" % (pf.__file__, SRC))
    pf.canonicalize(pf.canonical_flow(2))

    sys.path.insert(0, HERE)
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    t0 = time.perf_counter()
    import gen
    import workloads
    specs = workloads.BUILDERS[args.workload](args.seed)
    # A seeded order spreads cheap and expensive cases over the whole pass,
    # so a few seconds of interference from other processes on the machine
    # cannot land on one group of cases.
    random.Random(args.seed).shuffle(specs)
    cases = CASES[args.workload](pf, gen, specs)
    gen_s = time.perf_counter() - t0
    limit = workloads.LIMITS[args.workload]
    # Objects that live through the whole run (sympy, inputs, references)
    # are moved out of the collector's way.
    gc.collect()
    gc.freeze()
    speed = Speed()

    print("workload %s  seed %d  cases %d  per-case limit %.1f s"
          % (args.workload, args.seed, len(cases), limit))
    print("python %s  nproc %d  sympy %s  ground types %s"
          % (platform.python_version(), os.cpu_count(), sympy.__version__,
             GROUND_TYPES))
    print("input generation and references %.3f s (not in any metric)"
          % gen_s)

    signal.signal(signal.SIGALRM, _alarm)
    # Another pass runs while one more, as long as the last, would end
    # within --seconds; the first pass always runs.
    passes = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_pass(cases, limit, speed))
        now = time.perf_counter()
        if now - start + (now - begun) > args.seconds:
            break
    walls = [p[0] for p in passes]
    p50, tail, pct = summarize(cases, passes, limit)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(cases, limit, speed, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)

    attempted = len(cases) * len(passes)
    failed, wrong = report_failures(cases, passes, baseline_for(args.workload))
    decided = (attempted - failed) / attempted

    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(walls), len(walls)),
        "case_p50_s": (p50, len(cases)),
        "case_tail_s": (tail, len(cases)),
        "decided_share": (decided, attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }
    print("times scaled to the reference speed; measured / scaled = %.3f"
          % (speed.raw / speed.scaled))
    for name, (value, count) in values.items():
        note = "  (p%.1f)" % pct if name == "case_tail_s" else ""
        print("%-14s %12.6f %-5s n=%d%s" % (name, value, END_TO_END[name],
                                          count, note))
    metrics = {name: {"value": v, "unit": END_TO_END[name]}
               for name, (v, _) in values.items()}

    if tracer is not None:
        overhead = traced[0] - statistics.median(walls)
        print("traced wall_s %.6f s  untraced %.6f s  overhead %.6f s"
              % (traced[0], statistics.median(walls), overhead))
        units = spans.metric_units()
        layer = tracer.metrics()
        metrics = {name: {"value": layer[name], "unit": units[name][0]}
                   for name in units}
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "spans-%s-%d.tsv" % (args.workload,
                                                      args.seed))
        tracer.write(path)
        print("%d spans written to %s" % (len(tracer.starts),
                                          os.path.relpath(path, ROOT)))
        for name in units:
            print("%-48s %s" % (name, layer[name]))

    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        sys.exit(1)
