"""Layer tracing for the sweepout benchmark, installed from outside src/.

install() rebinds public functions in every loaded sweepout module that
holds them by name (``builder.find_lambda``, ``cli.find_lambda``,
``kernel.classify_tuples``, ...), and public methods on their classes,
with wrappers that record spans ``[name, start, end, parent, job]`` in
memory, or bare counts where a span per call would cost too much
(``compare``, ``Point.sign``, ``Point.enclosure``). uninstall() restores
the originals. metrics() reduces the spans to the per-layer metrics named
in BENCHMARK.json; a span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("lambda_search", "lattice", "measures", "builder", "cli")
CLI_COMMANDS = ("decompose", "lattice-count", "find-lambda", "build-eg",
                "build-witness", "verify", "trace", "check-conditions")
VERIFY_MODES = ("factor-exact", "sampled", "explicit-brute-force")

# (module, attribute or Class.method, span name); the layer is the name's
# first component. kernel.classify_tuples belongs to the lattice layer.
SPANS = (
    ("lambda_search", "find_lambda", "lambda_search.find_lambda"),
    ("lambda_search", "lambda_profile", "lambda_search.lambda_profile"),
    ("lambda_search", "frac_window_sets", "lambda_search.frac_window_sets"),
    ("lambda_search", "LambdaProfile.integral_at_least", "lambda_search.integral_at_least"),
    ("lattice", "decompose", "lattice.decompose"),
    ("lattice", "interval_count_ratio", "lattice.interval_count_ratio"),
    ("lattice", "lattice_count", "lattice.lattice_count"),
    ("lattice", "lattice_hits", "lattice.lattice_hits"),
    ("lattice", "shift_closure_check", "lattice.shift_closure_check"),
    ("kernel", "classify_tuples", "lattice.classify_tuples"),
    ("measures", "convolve_indicator", "measures.convolve_indicator"),
    ("measures", "step_profile", "measures.step_profile"),
    ("measures", "min_on_interval", "measures.min_on_interval"),
    ("measures", "check_condition_one", "measures.check_condition_one"),
    ("measures", "chebyshev_check", "measures.chebyshev_check"),
    ("builder", "build_witness", "builder.build_witness"),
    ("builder", "select_subsequence", "builder.select_subsequence"),
    ("builder", "build_eg", "builder.build_eg"),
    ("builder", "trim_witness", "builder.trim_witness"),
    ("builder", "verify_witness", None),  # named builder.verify.<mode>
    ("builder", "oscillation_trace", "builder.oscillation_trace"),
    ("builder", "SweepOutWitness.decode_near", "builder.decode_near"),
    ("cli", "main", None),  # named cli.<command>
)


def _verify_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "factor-exact")
    return f"builder.verify.{mode}"


def _cli_name(args, kwargs):
    argv = kwargs["argv"] if "argv" in kwargs else args[0]
    return f"cli.{argv[0]}"


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.job = None
        self._saved: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, hook=None):
        spans, stack, active, clock = self.spans, self.stack, self.active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            active[label] += 1
            rec[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                active[label] -= 1
            if hook is not None:
                hook(args, res)
            return res

        return wrapper

    def _hooks(self):
        counts = self.counts

        def pieces(args, prof):
            counts["pieces"] += len(prof.pieces)

        def full_mass(args, res):
            counts["find_full_mass"] += res.value == args[0].total_mass

        def tuples(args, res):
            n = 1
            for b in args[1]:
                n *= 2 * b + 1
            counts["tuples"] += n
            counts["uncertain"] += len(res[2])

        def hits(args, res):
            counts["hits"] += len(res)

        def selected(args, res):
            counts["selected"] += len(res.factors)

        return {"lambda_search.lambda_profile": pieces,
                "lambda_search.find_lambda": full_mass,
                "lattice.classify_tuples": tuples,
                "lattice.lattice_hits": hits,
                "builder.select_subsequence": selected}

    def _counters(self):
        from sweepout import cli, exactreal, lambda_search

        counts, active = self.counts, self.active
        compare, sign = exactreal.compare, exactreal.Point.sign
        enclosure, window_value = exactreal.Point.enclosure, lambda_search.window_value

        def compare_w(a, b):
            counts["compare"] += 1
            return compare(a, b)

        def sign_w(pt):
            counts["sign"] += 1
            return sign(pt)

        def enclosure_w(pt, bits):
            counts["enclosure"] += 1
            if bits > counts["max_bits"]:
                counts["max_bits"] = bits
            return enclosure(pt, bits)

        def window_value_w(mu, eps, lam):
            if active["lambda_search.find_lambda"]:
                counts["candidates"] += 1
            return window_value(mu, eps, lam)

        def written(fn):
            def wrapper(path, payload):
                fn(path, payload)
                counts["bytes"] += os.path.getsize(path)
            return wrapper

        return [(exactreal, "compare", compare_w),
                (exactreal, "Point.sign", sign_w),
                (exactreal, "Point.enclosure", enclosure_w),
                (lambda_search, "window_value", window_value_w),
                (cli, "_write_json", written(cli._write_json)),
                (cli, "_write_csv", written(cli._write_csv))]

    # -- install / uninstall ------------------------------------------------

    def _rebind(self, module, attr, wrapper):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            self._saved.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, wrapper)
            return
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "sweepout" or name.startswith("sweepout.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self):
        import importlib

        hooks = self._hooks()
        for mod_name, attr, name in SPANS:
            module = importlib.import_module(f"sweepout.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                fn = getattr(module, cls_name).__dict__[meth]
            else:
                fn = getattr(module, attr)
            label = name or (_verify_name if attr == "verify_witness" else _cli_name)
            self._rebind(module, attr, self._span(label, fn, hooks.get(name)))
        for module, attr, wrapper in self._counters():
            self._rebind(module, attr, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    # -- reduction ----------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)

    def metrics(self, traced_walls: list, untraced_walls: list) -> dict:
        """Per-layer metrics, per pass over the job list, from the wall
        times of the traced and untraced passes."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        incl = defaultdict(float)    # outermost spans of each name only
        self_t = defaultdict(float)
        calls = Counter()
        parent_name = [spans[s[3]][0] if s[3] >= 0 else None for s in spans]
        kernel_in_exact = 0.0
        profiles_in_find = 0
        finds_with_profile = set()
        hits_in_eg = 0
        eg_in_select = 0
        for i, s in enumerate(spans):
            name = s[0]
            calls[name] += 1
            self_t[name] += dur[i] - child[i]
            p = s[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += dur[i]
            if name == "lattice.classify_tuples":
                p = s[3]
                while p >= 0 and spans[p][0] not in ("lattice.lattice_count", "lattice.lattice_hits"):
                    p = spans[p][3]
                if p >= 0:
                    kernel_in_exact += dur[i]
            elif name == "lambda_search.lambda_profile" and parent_name[i] == "lambda_search.find_lambda":
                profiles_in_find += 1
                finds_with_profile.add(s[3])
            elif name == "lattice.lattice_hits" and parent_name[i] == "builder.build_eg":
                hits_in_eg += 1
            elif name == "builder.build_eg" and parent_name[i] == "builder.select_subsequence":
                eg_in_select += 1

        n = max(len(traced_walls), 1)
        traced_total = sum(traced_walls)
        # per-pass means, like every other per-pass metric here, so that the
        # layer self times of a pass add up to no more than its wall time
        traced_wall = statistics.mean(traced_walls) if traced_walls else 0.0
        untraced_wall = statistics.mean(untraced_walls) if untraced_walls else 0.0
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}

        def put(name, value, per_pass=True):
            out[name] = value / n if per_pass else value

        def timed(metric, span, with_calls=False):
            put(f"{metric}.s", incl[span])
            if with_calls:
                put(f"{metric}.calls", calls[span])

        timed("lambda_search.find_lambda", "lambda_search.find_lambda", True)
        timed("lambda_search.lambda_profile", "lambda_search.lambda_profile", True)
        put("lambda_search.floor_retries", profiles_in_find - len(finds_with_profile))
        put("lambda_search.pieces", c["pieces"])
        put("lambda_search.pieces_per_s", ratio(c["pieces"], incl["lambda_search.lambda_profile"]), False)
        put("lambda_search.candidates_probed", c["candidates"])
        put("lambda_search.full_mass_share",
            ratio(c["find_full_mass"], calls["lambda_search.find_lambda"]), False)
        timed("lambda_search.integral_at_least", "lambda_search.integral_at_least")
        timed("lambda_search.frac_window_sets", "lambda_search.frac_window_sets")

        timed("lattice.decompose", "lattice.decompose")
        timed("lattice.lattice_count", "lattice.lattice_count", True)
        timed("lattice.lattice_hits", "lattice.lattice_hits", True)
        put("lattice.hits", c["hits"])
        timed("lattice.shift_closure_check", "lattice.shift_closure_check")
        timed("lattice.classify_tuples", "lattice.classify_tuples")
        put("lattice.tuples", c["tuples"])
        put("lattice.tuples_per_s", ratio(c["tuples"], incl["lattice.classify_tuples"]), False)
        put("lattice.uncertain", c["uncertain"])
        put("lattice.uncertain_share", ratio(c["uncertain"], c["tuples"]), False)
        put("lattice.exact_s", incl["lattice.lattice_count"] + incl["lattice.lattice_hits"]
            - kernel_in_exact)

        timed("measures.convolve_indicator", "measures.convolve_indicator", True)
        timed("measures.step_profile", "measures.step_profile")
        timed("measures.min_on_interval", "measures.min_on_interval", True)
        timed("measures.check_condition_one", "measures.check_condition_one")
        timed("measures.chebyshev_check", "measures.chebyshev_check")

        timed("builder.build_witness", "builder.build_witness")
        timed("builder.select_subsequence", "builder.select_subsequence")
        put("builder.assembly_self_s", self_t["builder.build_witness"] + self_t["builder.trim_witness"])
        timed("builder.build_eg", "builder.build_eg", True)
        put("builder.build_eg.self_s", self_t["builder.build_eg"])
        put("builder.levels_tried", ratio(hits_in_eg / 2, calls["builder.build_eg"]), False)
        put("builder.select_yield", ratio(c["selected"], eg_in_select), False)
        timed("builder.trim_witness", "builder.trim_witness")
        for mode in VERIFY_MODES:
            timed(f"builder.verify.{mode}", f"builder.verify.{mode}")
        timed("builder.decode_near", "builder.decode_near", True)
        timed("builder.oscillation_trace", "builder.oscillation_trace")

        put("exactreal.compare.calls", c["compare"])
        put("exactreal.sign.calls", c["sign"])
        put("exactreal.refine_share", ratio(c["sign"], c["compare"]), False)
        put("exactreal.enclosure.calls", c["enclosure"])
        put("exactreal.enclosure.max_bits", c["max_bits"], False)

        for command in CLI_COMMANDS:
            timed(f"cli.{command}", f"cli.{command}")
        layer_self = defaultdict(float)
        for name, t in self_t.items():
            layer_self[name.split(".")[0]] += t
        put("cli.self_s", layer_self["cli"])
        put("cli.bytes_written", c["bytes"])

        for layer in LAYERS:
            put(f"layer.{layer}.self_s", layer_self[layer])
        put("layer.outside_s", traced_total - sum(layer_self.values()))
        for layer in LAYERS:
            put(f"layer.{layer}.share", ratio(layer_self[layer], traced_total), False)
        put("trace.overhead", ratio(traced_wall, untraced_wall), False)
        put("trace.wall_s", traced_wall, False)
        put("trace.untraced_wall_s", untraced_wall, False)
        put("trace.spans", len(spans))
        return out


def metric_names():
    """Every per-layer metric name, in the order metrics() emits them."""
    return list(Tracer().metrics([1.0], [1.0]))
