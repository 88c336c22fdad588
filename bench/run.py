"""Layered benchmark of limsolve on inputs with answers known by construction.

    python3 bench/run.py --workload forest-planted --seed 1 --seconds 16 --trace 0

Run from the root of a checkout: the program is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured with no tracing; with --trace 1 the run first
repeats the untraced loop, then traces the program's layers and reports
per-layer self times and counts per round.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_MIN_REPEATS = 5   # set-up repeats until both limits are reached,
SETUP_MIN_S = 1.0       # or SETUP_MAX_REPEATS
SETUP_MAX_REPEATS = 25
MIN_ROUNDS = 3
TAIL_BEYOND = 10    # the tail is the highest percentile with this many beyond

PER_LAYER = (
    ("jsonio.parse", "self_s"),
    ("graphs.fvs_exact", "self_s"), ("graphs.fvs_exact", "calls"),
    ("graphs.is_forest", "self_s"), ("graphs.remove_vertices", "self_s"),
    ("graphs.incidence", "self_s"),
    ("diagram.edge_data", "self_s"),
    ("diagram.filter_edge", "calls"), ("diagram.filter_edge", "self_s"),
    ("diagram.restrict_to_subgraph", "calls"),
    ("diagram.restrict_to_subgraph", "self_s"),
    ("solver.section_tests", "self_s"), ("solver.section_tests", "yielded"),
    ("solver.section_tests", "pruned_ratio"),
    ("solver.forest_initial", "self_s"), ("solver.forest_initial", "calls"),
    ("solver.image_tree", "self_s"), ("solver.extract_witness", "self_s"),
    ("solver.witness_violations", "self_s"),
    ("solver.witness_violations", "calls"),
    ("solver.inlim", "self_s"),
    ("cset.validate_cset_codecomp", "self_s"),
    ("cset.pointwise_slice", "self_s"), ("cset.inlim", "calls"),
    ("hom.validate_decomposition", "self_s"),
    ("hom.build_hom_codecomp", "self_s"),
    ("hom.hom_set", "calls"), ("hom.hom_set", "self_s"),
)
UNITS = {"self_s": "s", "calls": "count", "yielded": "count",
         "pruned_ratio": "1"}


def import_program():
    """Import limsolve from ./src of the checkout, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "limsolve" / "__init__.py").is_file():
        print(f"error: no program sources at {src}/limsolve", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import limsolve
    from limsolve import cset, graphs, hom, jsonio, solver
    if Path(limsolve.__file__).resolve().parent != (src / "limsolve").resolve():
        print(f"error: limsolve imported from {limsolve.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return {"cset": cset, "graphs": graphs, "hom": hom, "jsonio": jsonio,
            "solver": solver}


class Outcome(NamedTuple):
    """What one program call returned, reduced to plain values: the verdict
    (True = NONEMPTY / HOM) and whatever the checks and the traced-run
    comparison need."""

    nonempty: bool
    detail: tuple = ()


class Workload:
    """The program calls of one workload and the checks of their outputs.
    Program functions are looked up on their module at every call, so the
    tracer's wrappers take effect."""

    def __init__(self, mods):
        self.m = mods

    def load(self, text: str):
        return self.m["jsonio"].parse_diagram(json.loads(text))

    def has_witness(self, inst) -> bool:
        return True

    def answer_problems(self, inst, obj) -> list[str]:
        raise NotImplementedError

    def property_problems(self, inst, loaded) -> list[str]:
        return []


class ForestPlanted(Workload):
    def decide(self, d, inst):
        r = self.m["solver"].inlim(d)
        return Outcome(not r.verdict.empty_limit, (r.fvs, r.section_test_count))

    def witness(self, d, inst):
        r = self.m["solver"].inlim(d, want_witness=True)
        w = r.witness
        return Outcome(not r.verdict.empty_limit,
                       (r.fvs, w and w.vertex_elements, w and w.edge_elements))

    def answer_problems(self, inst, obj):
        return (checkers.check_family(obj, inst.planted)
                + checkers.check_fvs(obj["shape"], (), 0))

    def decide_problems(self, inst, out):
        fvs, _ = out.detail
        problems = checkers.check_verdict(True, out.nonempty)
        if fvs != ():
            problems.append(f"feedback set {fvs} on a forest")
        return problems

    def witness_problems(self, inst, out, obj):
        fvs, verts, edges = out.detail
        if verts is None:
            return ["no witness for a NONEMPTY diagram"]
        return (checkers.check_verdict(True, out.nonempty)
                + checkers.check_fvs(obj["shape"], fvs, 0)
                + checkers.check_family(obj, list(verts), list(edges)))

    def property_problems(self, inst, d):
        image = self.m["solver"].image_tree(d, d.full_mask())
        return checkers.check_image_contains(image.vertex, inst.planted)


class PinnedEmpty(Workload):
    def _solve(self, d, inst, want_witness):
        s = self.m["graphs"].VertexSet.of(inst.n, inst.fvs)
        r = self.m["solver"].inlim(d, fvs=s, want_witness=want_witness)
        return Outcome(not r.verdict.empty_limit,
                       (r.fvs, r.section_test_count, r.witness))

    def decide(self, d, inst):
        return self._solve(d, inst, False)

    def witness(self, d, inst):
        return self._solve(d, inst, True)

    def answer_problems(self, inst, obj):
        inst.extra["pinned_sizes"] = [obj["vertex_sets"][x]["size"]
                                      for x in inst.fvs]
        return (checkers.check_empty_bijective(obj)
                + checkers.check_fvs(obj["shape"], inst.fvs, inst.k))

    def decide_problems(self, inst, out):
        fvs, count, witness = out.detail
        problems = checkers.check_verdict(False, out.nonempty)
        if fvs != tuple(sorted(inst.fvs)):
            problems.append(f"solver used feedback set {fvs}, not {inst.fvs}")
        if witness is not None:
            problems.append("witness returned for an EMPTY diagram")
        return problems + checkers.check_section_count(
            inst.extra["pinned_sizes"], count)

    def witness_problems(self, inst, out, obj):
        return self.decide_problems(inst, out)


class CsetFvs(Workload):
    def load(self, text):
        obj = json.loads(text)
        jsonio = self.m["jsonio"]
        cat = jsonio.parse_fincat(obj["category"])
        return jsonio.parse_cset_diagram(obj["diagram"], cat)

    def decide(self, d, inst):
        v = self.m["cset"].cset_inlim(d, k_max=inst.k)
        return Outcome(not v.empty_limit)

    def witness(self, d, inst):
        """inlim with a witness on each pointwise slice in object order,
        up to the first NONEMPTY one: an element of the limit there."""
        cset, solver = self.m["cset"], self.m["solver"]
        slices = []
        for c in range(d.cat.object_count):
            r = solver.inlim(cset.pointwise_slice(d, c), k_max=inst.k,
                             want_witness=True)
            w = r.witness
            slices.append((c, r.fvs, w and w.vertex_elements,
                           w and w.edge_elements))
            if not r.verdict.empty_limit:
                return Outcome(True, tuple(slices))
        return Outcome(False, tuple(slices))

    def answer_problems(self, inst, obj):
        d = obj["diagram"]
        return (checkers.check_empty_bijective(checkers.cset_slice(d, 0))
                + checkers.check_family(checkers.cset_slice(d, 1),
                                        inst.planted))

    def decide_problems(self, inst, out):
        return checkers.check_verdict(True, out.nonempty)

    def witness_problems(self, inst, out, obj):
        problems = checkers.check_verdict(True, out.nonempty)
        if [c for c, *_ in out.detail] != [0, 1]:
            return problems + ["slice 0 is EMPTY and slice 1 NONEMPTY by "
                               "construction; the witness came elsewhere"]
        for _, fvs, _, _ in out.detail:
            problems += checkers.check_fvs(obj["diagram"]["shape"], fvs,
                                           inst.k)
        _, _, verts, edges = out.detail[1]
        if verts is None:
            return problems + ["no witness for the NONEMPTY slice"]
        return problems + checkers.check_family(
            checkers.cset_slice(obj["diagram"], 1), list(verts), list(edges))


class Hom3Col(Workload):
    def __init__(self, mods):
        super().__init__(mods)
        self.k3 = mods["graphs"].SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])

    def load(self, text):
        return self.m["jsonio"].parse_decomposition(json.loads(text))

    def has_witness(self, inst):
        return inst.nonempty

    def decide(self, b, inst):
        ok, _ = self.m["hom"].hom_exists(b, self.k3)
        return Outcome(ok)

    def witness(self, b, inst):
        ok, col = self.m["hom"].hom_exists(b, self.k3, want_coloring=True)
        return Outcome(ok, col)

    def answer_problems(self, inst, obj):
        if inst.nonempty:
            return checkers.check_coloring(obj["X"], inst.planted)
        return checkers.check_k4(obj["X"], inst.extra["k4"])

    def decide_problems(self, inst, out):
        return checkers.check_verdict(inst.nonempty, out.nonempty, "HOM")

    def witness_problems(self, inst, out, obj):
        return (checkers.check_verdict(True, out.nonempty, "HOM")
                + checkers.check_coloring(obj["X"], out.detail))


WORKLOADS = {
    "forest-planted": ForestPlanted,
    "pinned-empty": PinnedEmpty,
    "cset-fvs": CsetFvs,
    "hom-3col": Hom3Col,
}


class SpeedProbe:
    """A fixed reference computation that tracks the host's speed.

    The host's CPU speed swings by up to about 1.9x in phases lasting
    seconds, which no run length here averages out.  The probe is fixed
    benchmark code doing the two kinds of work the program does: the
    spanning-tree EMPTY check on one small diagram (pure-Python lists, dicts
    and ints) and json.loads of one 400-vertex diagram (allocation-heavy).
    Every timing is scaled by REFERENCE_S over the probe's time measured
    next to it, so timings read as at the speed where the probe takes
    exactly REFERENCE_S.  Editing checkers.check_empty_bijective or
    workloads.probe_inputs rescales every timing, so a baseline measured
    before such an edit no longer compares.
    """

    REFERENCE_S = 2e-3
    REPEATS = 3

    def __init__(self):
        self.diagram, self.text = workloads.probe_inputs()
        self.samples: list[float] = []

    def measure(self) -> float:
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            checkers.check_empty_bijective(self.diagram)
            json.loads(self.text)
            times.append(time.perf_counter() - t0)
        t = statistics.median(times)
        self.samples.append(t)
        return t


class Loop:
    """Whole rounds over the instance set; per instance, every round loads
    and decides, then loads again and solves with a witness.  Outputs are
    checked after the timer stops."""

    def __init__(self, wl: Workload, insts, probe: SpeedProbe, tracer=None):
        self.wl = wl
        self.insts = insts
        self.probe = probe
        self.tracer = tracer
        self.load_s = [[] for _ in insts]
        self.decide_s = [[] for _ in insts]
        self.witness_s = [[] for _ in insts]
        self.outcomes = [None] * len(insts)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0
        self.program_s = 0.0
        self.vertices = 0
        self._pending: list[tuple[list, float]] = []

    def _call(self, fn, *args):
        self.attempted += 1
        if self.tracer is not None:
            fn, args = self.tracer.span, ("op." + fn.__name__, fn) + args
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:   # a failed operation is counted, not fatal
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None, 0.0
        return out, time.perf_counter() - t0

    def _check(self, inst, problems):
        self.problems += [f"{inst.name}: {p}" for p in problems]

    def _load(self, i: int):
        # a full collection first, so each load-and-solve starts from a
        # collected heap; the automatic collector stays on, as in a CLI call
        gc.collect()
        obj, t = self._call(self.wl.load, self.insts[i].text)
        if obj is not None:
            self._pending.append((self.load_s[i], t))
        return obj

    def round(self) -> None:
        speed_before = self.probe.measure()
        for i, inst in enumerate(self.insts):
            self._instance(i, inst)
            speed_after = self.probe.measure()
            scale = 2 * self.probe.REFERENCE_S / (speed_before + speed_after)
            for samples, t in self._pending:
                samples.append(t * scale)
                self.program_s += t * scale
            self._pending.clear()
            if self.tracer is not None:
                self.tracer.commit(scale)
            speed_before = speed_after
        self.rounds += 1

    def _instance(self, i: int, inst) -> None:
        """Load and decide, then load and solve with a witness; raw times
        wait in _pending until the probe after the instance has run."""
        wl = self.wl
        obj = self._load(i)
        if obj is None:
            return
        out, t = self._call(wl.decide, obj, inst)
        del obj
        if out is None:
            return
        self._pending.append((self.decide_s[i], t))
        self.vertices += inst.n
        self._check(inst, wl.decide_problems(inst, out))
        keys = [out]
        if wl.has_witness(inst):
            obj = self._load(i)
            if obj is None:
                return
            wout, t = self._call(wl.witness, obj, inst)
            del obj
            if wout is None:
                return
            self._pending.append((self.witness_s[i], t))
            self._check(inst, wl.witness_problems(
                inst, wout, json.loads(inst.text)))
            keys.append(wout)
        if self.outcomes[i] is None:
            self.outcomes[i] = keys
        elif self.outcomes[i] != keys:
            self._check(inst, ["outputs differ between rounds"])

    def run(self, seconds: float, min_rounds: int) -> None:
        start = time.perf_counter()
        while self.rounds < min_rounds or time.perf_counter() - start < seconds:
            self.round()


def per_vertex_us(samples, n) -> float:
    return statistics.median(samples) / n * 1e6


def tail(values: list[float]) -> float:
    """The highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def scaling_exponent(insts, decide_s) -> float:
    """Least-squares slope of log(median decide time) on log(n), with one
    intercept per instance family (a fixed-effects fit), so that families
    of different cost per vertex share one slope."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for inst, samples in zip(insts, decide_s):
        if samples:
            groups.setdefault(inst.family, []).append(
                (math.log(inst.n), math.log(statistics.median(samples))))
    sxy = sxx = 0.0
    for points in groups.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
    return sxy / sxx


def peak_heap_mb(wl: Workload, insts) -> float:
    """Peak memory the program holds while deciding the workload's largest
    instance (the last one with the largest n): the freshly loaded object
    plus what the decide call allocates, as tracemalloc counts it.  The
    load's own transient peak (json.loads output and parse temporaries) is
    reset before the decide, because on forest-planted and cset-fvs it is
    larger than the decide's and would hide the solve.  Run after the timed
    loop, because tracing allocations slows them down."""
    n = max(i.n for i in insts)
    inst = [i for i in insts if i.n == n][-1]
    gc.collect()
    tracemalloc.start()
    try:
        obj = wl.load(inst.text)
        tracemalloc.reset_peak()
        wl.decide(obj, inst)
    except Exception:   # counted as failed by the loop; keep the peak so far
        pass
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def end_to_end(loop: Loop, insts, setup_s: float, peak_mb: float) -> dict:
    decide = [per_vertex_us(s, i.n) for s, i in zip(loop.decide_s, insts) if s]
    witness = [per_vertex_us(s, i.n)
               for s, i in zip(loop.witness_s, insts) if s]
    load = [per_vertex_us(s, i.n) for s, i in zip(loop.load_s, insts) if s]
    values = {
        "decide_us_per_vertex.p50": (statistics.median(decide), "us/vertex"),
        "decide_us_per_vertex.tail": (tail(decide), "us/vertex"),
        "witness_us_per_vertex.p50": (statistics.median(witness), "us/vertex"),
        "load_us_per_vertex.p50": (statistics.median(load), "us/vertex"),
        "vertices_per_s": (loop.vertices / loop.program_s, "vertices/s"),
        "scaling_exponent": (scaling_exponent(insts, loop.decide_s), "1"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(tracer, rounds: int, overhead: float) -> dict:
    out = {}
    for name, kind in PER_LAYER:
        if kind == "self_s":
            value = tracer.self_s[name] / rounds
        elif kind == "calls":
            value = tracer.calls[name] / rounds
        elif kind == "yielded":
            value = tracer.counts[name + ".yielded"] / rounds
        else:
            yielded = tracer.counts[name + ".yielded"]
            value = tracer.counts[name + ".pruned"] / yielded if yielded else 0.0
        out[f"{name}.{kind}"] = {"value": value, "unit": UNITS[kind]}
    out["trace.overhead_ratio"] = {"value": overhead, "unit": "1"}
    return out


def setup(workload: str, seed: int, probe: SpeedProbe):
    """Generate and serialise the inputs at least SETUP_MIN_REPEATS times
    and for at least SETUP_MIN_S, at most SETUP_MAX_REPEATS times; every
    repeat must produce the same text.  Returns the instances and the median
    set-up time, scaled by the speed probe like every other timing."""
    times = []
    insts = None
    start = time.perf_counter()
    before = probe.measure()
    while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_MIN_REPEATS
            or time.perf_counter() - start < SETUP_MIN_S):
        gc.collect()
        t0 = time.perf_counter()
        made = workloads.GENERATORS[workload](seed)
        elapsed = time.perf_counter() - t0
        after = probe.measure()
        times.append(elapsed * 2 * probe.REFERENCE_S / (before + after))
        before = after
        if insts is not None and [i.text for i in made] != [i.text for i in insts]:
            raise SystemExit("error: generation is not deterministic")
        insts = made
        del made
    return insts, statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = import_program()
    failures = checkers.self_test()
    if failures:
        print("error: checker self-test failed: " + "; ".join(failures),
              file=sys.stderr)
        return 1
    probe = SpeedProbe()
    insts, setup_s = setup(args.workload, args.seed, probe)
    wl = WORKLOADS[args.workload](mods)

    problems = []
    for inst in insts:
        parsed = json.loads(inst.text)
        problems += [f"{inst.name}: known answer not confirmed: {p}"
                     for p in wl.answer_problems(inst, parsed)]
        problems += [f"{inst.name}: {p}"
                     for p in wl.property_problems(inst, wl.load(inst.text))]

    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        loop = Loop(wl, insts, probe)
        loop.run(args.seconds, MIN_ROUNDS)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(loop, insts, setup_s, peak_heap_mb(wl, insts))
        attempted, failed = loop.attempted, loop.failed
        problems += loop.problems
        rounds = loop.rounds
        last = loop
    else:
        plain = Loop(wl, insts, probe)
        plain.run(args.seconds / 2, 2)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = Loop(wl, insts, probe, tracer)
            traced.run(args.seconds / 2, 2)
        finally:
            tracer.uninstall()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if plain.outcomes != traced.outcomes:
            problems.append("traced outputs differ from untraced outputs")
        overhead = (sum(statistics.median(s) for s in traced.decide_s if s)
                    / sum(statistics.median(s) for s in plain.decide_s if s))
        metrics = per_layer(tracer, traced.rounds, overhead)
        tracer.write(out_dir / f"trace-{tag}.jsonl")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        problems += plain.problems + traced.problems
        rounds = plain.rounds + traced.rounds
        last = traced

    for p in problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail = dict(result, instances=[
        {"name": i.name, "n": i.n,
         "decide_us_per_vertex": per_vertex_us(d, i.n) if d else None,
         "witness_us_per_vertex": per_vertex_us(w, i.n) if w else None,
         "load_us_per_vertex": per_vertex_us(ld, i.n) if ld else None}
        for i, d, w, ld in zip(insts, last.decide_s, last.witness_s,
                               last.load_s)])
    (out_dir / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    print(f"workload={args.workload} seed={args.seed} instances={len(insts)} "
          f"rounds={rounds} problems={len(problems)} "
          f"probe_ms_median={statistics.median(probe.samples) * 1e3:.4f} "
          f"probe_ms_min={min(probe.samples) * 1e3:.4f} "
          f"probe_ms_max={max(probe.samples) * 1e3:.4f} "
          f"loop_maxrss_mb={rss_kb / 1024:.1f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
