"""In-memory span tracer for the sparsetrig benchmark.

The tracer wraps the public functions listed in `TARGETS` and rebinds every
`sparsetrig` module name that refers to them (and the class attribute, for
methods), so calls made inside the package are traced as well as calls made
by the benchmark.  Each wrapped call is a span; a span's self time is its
duration minus the durations of its direct child spans.  `numpy.fft.fft` and
`numpy.fft.ifft` are wrapped without spans: their time and points are
attributed to the layer of the innermost open span.

Spans are kept in memory and written out by `write_spans` when the run ends.
There is one thread, so there is no waiting time to record.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT_KEY = "harness"

#: (layer, module, attribute path, metric name).  Several targets may share
#: one metric name (the four spectrum builders are `blocks.build_spectrum`).
TARGETS = [
    ("circle", "circle", "l0_of_abs", "l0_of_abs"),
    ("circle", "circle", "measure_fraction", "measure_fraction"),
    ("trigpoly", "trigpoly", "TrigPoly.__init__", "construct"),
    ("trigpoly", "trigpoly", "TrigPoly.values", "values"),
    ("trigpoly", "trigpoly", "coeff_norms", "coeff_norms"),
    ("trigpoly", "trigpoly", "multiply", "multiply"),
    ("trigpoly", "trigpoly", "s_star", "s_star"),
    ("trigpoly", "trigpoly", "s_star_star", "s_star_star"),
    ("trigpoly", "trigpoly", "special_product_window", "special_product_window"),
    ("trigpoly", "trigpoly", "partial_sum", "partial_sum"),
    ("blocks", "blocks", "build_hadamard_spectrum", "build_spectrum"),
    ("blocks", "blocks", "build_squares_spectrum", "build_spectrum"),
    ("blocks", "blocks", "build_analytic_hadamard_spectrum", "build_spectrum"),
    ("blocks", "blocks", "build_analytic_squares_spectrum", "build_spectrum"),
    ("blocks", "blocks", "linearize", "linearize"),
    ("blockpoly", "blockpoly", "BlockSum.values", "BlockSum.values"),
    ("blockpoly", "blockpoly", "BlockSum.sstar_star_bracket",
     "BlockSum.sstar_star_bracket"),
    ("blockpoly", "blockpoly", "ScaledProduct.values", "ScaledProduct.values"),
    ("blockpoly", "blockpoly", "ScaledProduct.sstar_upper",
     "ScaledProduct.sstar_upper"),
    ("blockpoly", "blockpoly", "contracted_index_map", "contracted_index_map"),
    ("blockpoly", "blockpoly", "BlockSum.iter_coeffs", "BlockSum.iter_coeffs"),
    ("approximants", "approximants", "analytic_unit", "analytic_unit"),
    ("approximants", "approximants", "korner_polynomial", "korner_polynomial"),
    ("approximants", "approximants", "analytic_korner", "analytic_korner"),
    ("approximants", "approximants", "block_approximant", "block_approximant"),
    ("approximants", "approximants", "analytic_block_approximant",
     "analytic_block_approximant"),
    ("approximants", "approximants", "fejer_until", "fejer_until"),
    ("approximants", "approximants", "symmetric_unit", "symmetric_unit"),
    ("riesz", "riesz", "cosine_product_bounds", "cosine_product_bounds"),
    ("riesz", "riesz", "analytic_product_diagnostics",
     "analytic_product_diagnostics"),
    ("riesz", "riesz", "cross_identity_max_error", "cross_identity_max_error"),
    ("riesz", "riesz", "clt_check", "clt_check"),
    ("riesz", "riesz", "almost_orthogonality", "almost_orthogonality"),
    ("numbertheory", "numbertheory", "squares_gap_certificate",
     "squares_gap_certificate"),
    ("numbertheory", "numbertheory", "find_nonresidue_run",
     "find_nonresidue_run"),
    ("engines", "engines", "run_ae_engine", "run_ae_engine"),
    ("engines", "engines", "run_squares_engine", "run_squares_engine"),
    ("engines", "engines", "run_asymptotic_l2_engine",
     "run_asymptotic_l2_engine"),
    ("engines", "engines", "run_infinity_mode", "run_infinity_mode"),
    ("engines", "engines", "run_stoptime_engine", "run_stoptime_engine"),
    ("engines", "engines", "run_measure_engine", "run_measure_engine"),
    ("cli", "cli", "cmd_build_spectrum", "command"),
    ("cli", "cli", "cmd_approximate", "command"),
    ("cli", "cli", "cmd_represent", "command"),
    ("cli", "cli", "cmd_riesz", "command"),
    ("cli", "cli", "cmd_sharpness", "command"),
]

#: TrigPoly.values is split by support size at the dense-evaluation threshold
VALUES_SPLIT = ("values.small", "values.large")

LAYERS = ("circle", "trigpoly", "blocks", "blockpoly", "approximants",
          "riesz", "numbertheory", "engines", "cli")

#: extra counters per layer: (name, unit, better)
EXTRA_COUNTS = {
    "trigpoly": [("construct.coeffs", "count", "lower"),
                 ("values.small.coeffs", "count", "lower"),
                 ("values.large.coeffs", "count", "lower"),
                 ("coeff_norms.coeffs", "count", "lower"),
                 ("s_star_star.cells", "count", "lower"),
                 ("s_star_star.bytes", "B", "lower"),
                 ("fft_s", "s", "lower"),
                 ("fft_points", "count", "lower"),
                 ("fft_points_nonsmooth", "count", "lower")],
    "blocks": [("build_spectrum.blocks_embedded", "count", "higher")],
    "blockpoly": [("BlockSum.sstar_star_bracket.segments", "count", "lower"),
                  ("BlockSum.sstar_star_bracket.bytes", "B", "lower"),
                  ("BlockSum.values.term_points", "count", "lower"),
                  ("BlockSum.iter_coeffs.coeffs", "count", "lower")],
    "approximants": [("infeasible", "count", "lower"),
                     ("feasible_frac", "ratio", "higher"),
                     ("fejer_until.degrees_tried", "count", "lower"),
                     ("fejer_until.stalled", "count", "lower"),
                     ("fft_s", "s", "lower"),
                     ("fft_points", "count", "lower"),
                     ("fft_points_nonsmooth", "count", "lower")],
    "engines": [("stages_requested", "count", "lower"),
                ("stages_ok", "count", "higher"),
                ("stage_ok_frac", "ratio", "higher")],
    "cli": [("bytes_written", "B", "lower"),
            ("rows_written", "count", "lower")],
}

HARNESS_METRICS = [("harness.self_s", "s", "lower"),
                   ("harness.wall_s", "s", "lower"),
                   ("harness.traced_jobs_per_s", "jobs/s", "higher")]

#: counters derived as ratios from two others: name -> (numerator, denominator)
RATIOS = {
    "approximants.feasible_frac": ("approximants.returned",
                                   "approximants.attempted"),
    "engines.stage_ok_frac": ("engines.stages_ok", "engines.stages_requested"),
}


def metric_functions():
    """(layer, metric name) of every traced function, in TARGETS order."""
    seen = []
    for layer, _, _, name in TARGETS:
        names = VALUES_SPLIT if name == "values" else (name,)
        for n in names:
            if (layer, n) not in seen:
                seen.append((layer, n))
    return seen


def per_layer_spec():
    """[(metric name, unit, better)] of every per-layer metric, in order."""
    out = []
    fns = metric_functions()
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        for lay, name in fns:
            if lay == layer:
                out.append((f"{layer}.{name}.calls", "count", "lower"))
                out.append((f"{layer}.{name}.self_s", "s", "lower"))
        for name, unit, better in EXTRA_COUNTS.get(layer, []):
            out.append((f"{layer}.{name}", unit, better))
    out.extend(HARNESS_METRICS)
    return out


def largest_prime_factor(n: int) -> int:
    best, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            best, n = f, n // f
        f += 1
    return max(best, n)


class Tracer:
    """Span stack, per-key self times and counters for one traced run."""

    def __init__(self):
        self.stack = []            # open frames: [key, layer, start, child_s]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.spans = []            # (key, start, end, depth)
        self._restore = []         # (setter, original) pairs
        self.paused = False        # True while the harness builds inputs
        self.missing = []          # targets the installed package lacks

    # -- spans -----------------------------------------------------------

    def push(self, key: str, layer: str):
        frame = [key, layer, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def pop(self, frame, end=None):
        end = perf_counter() if end is None else end
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError(f"span stack corrupted at {frame[0]}")
        key, _, start, child = frame
        dur = end - start
        self.self_s[key] += dur - child
        self.calls[key] += 1
        if self.stack:
            self.stack[-1][3] += dur
        self.spans.append((key, start, end, len(self.stack)))
        return dur

    def add_child_time(self, dur: float):
        """Charge `dur` to the open span as child time (aggregated spans)."""
        if self.stack:
            self.stack[-1][3] += dur

    def push_root(self):
        """Open the span that covers the whole measured loop."""
        return self.push(ROOT_KEY, ROOT_KEY)

    def layer_on_top(self) -> str:
        return self.stack[-1][1] if self.stack else ROOT_KEY

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer, key, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            k = pre(args, kwargs) if pre is not None else key
            frame = tracer.push(k, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.pop(frame)
                tracer._on_raise(layer, exc)
                raise
            tracer.pop(frame)
            if post is not None:
                post(args, kwargs, out)
            return out

        return wrapper

    def _wrap_generator(self, fn, layer, key):
        """Each next() is charged to `key`; one aggregated span per iterator."""
        tracer = self
        count_key = f"{key}.coeffs"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            start = perf_counter()
            busy = 0.0
            n = 0
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        busy += dt
                        tracer.add_child_time(dt)
                    n += 1
                    yield item
            finally:
                tracer.self_s[key] += busy
                tracer.calls[key] += 1
                tracer.counts[count_key] += n
                tracer.spans.append((key, start, start + busy,
                                     len(tracer.stack)))

        return wrapper

    def _on_raise(self, layer, exc):
        if layer == "approximants":
            self.counts["approximants.attempted"] += 1
            if type(exc).__name__ == "ConstructionInfeasible":
                self.counts["approximants.infeasible"] += 1

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target and rebind it across the package's modules."""
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "sparsetrig"
                                      or name.startswith("sparsetrig."))]
        by_name = {m.__name__.split(".")[-1]: m for m in mods}
        for layer, modname, path, name in TARGETS:
            mod = by_name.get(modname)
            owner, attr = mod, path
            if mod is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(mod, cls_name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self._make(layer, name, orig, mod)
            self._rebind(owner, attr, orig, wrapped, mods, "." in path)
        self._wrap_fft()
        return self

    def _make(self, layer, name, orig, mod):
        key = f"{layer}.{name}"
        counts = self.counts
        if name == "construct":
            def post(args, kwargs, out):
                counts["trigpoly.construct.coeffs"] += len(args[0])
            return self._wrap(orig, layer, key, post=post)
        if name == "values":
            thr = mod.DENSE_EVAL_THRESHOLD

            def pre(args, kwargs):
                n = len(args[0])
                k = f"trigpoly.{VALUES_SPLIT[n > thr]}"
                counts[f"{k}.coeffs"] += n
                return k
            return self._wrap(orig, layer, key, pre=pre)
        if name == "coeff_norms":
            def post(args, kwargs, out):
                counts["trigpoly.coeff_norms.coeffs"] += len(args[0])
            return self._wrap(orig, layer, key, post=post)
        if name == "s_star_star":
            def post(args, kwargs, out):
                s = len(args[0])
                m = _grid_size(args, kwargs)
                counts["trigpoly.s_star_star.cells"] += s * s * m / 2
                # prefix matrix plus the first row's difference and modulus
                counts["trigpoly.s_star_star.bytes"] += (s + 1) * m * 16 + s * m * 24
            return self._wrap(orig, layer, key, post=post)
        if name == "build_spectrum":
            def post(args, kwargs, out):
                counts["blocks.build_spectrum.blocks_embedded"] += len(out.manifest)
            return self._wrap(orig, layer, key, post=post)
        if name == "BlockSum.values":
            def post(args, kwargs, out):
                counts["blockpoly.BlockSum.values.term_points"] += \
                    len(args[0].terms) * _grid_size(args, kwargs)
            return self._wrap(orig, layer, key, post=post)
        if name == "BlockSum.sstar_star_bracket":
            def post(args, kwargs, out):
                segs = len(args[0]._segments)
                m = _grid_size(args, kwargs)
                counts["blockpoly.BlockSum.sstar_star_bracket.segments"] += segs
                counts["blockpoly.BlockSum.sstar_star_bracket.bytes"] += \
                    (segs + 1) * m * 16 + segs * m * 24
            return self._wrap(orig, layer, key, post=post)
        if name == "BlockSum.iter_coeffs":
            return self._wrap_generator(orig, layer, key)
        if layer == "approximants":
            def post(args, kwargs, out):
                counts["approximants.attempted"] += 1
                counts["approximants.returned"] += 1
                if name == "fejer_until":
                    counts["approximants.fejer_until.degrees_tried"] += \
                        _fejer_degrees_tried(args, kwargs, out)
                    if out[0] is None:
                        counts["approximants.fejer_until.stalled"] += 1
            return self._wrap(orig, layer, key, post=post)
        if layer == "engines":
            tracer = self

            def post(args, kwargs, out):
                # nested engine calls (measure -> stoptime) count once
                if any(f[1] == "engines" for f in tracer.stack):
                    return
                counts["engines.stages_requested"] += _stages_requested(
                    orig.__name__, args, kwargs)
                counts["engines.stages_ok"] += sum(1 for st in out.stages if st.ok)
            return self._wrap(orig, layer, key, post=post)
        return self._wrap(orig, layer, key)

    def _rebind(self, owner, attr, orig, wrapped, mods, is_method):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig))
        if is_method:
            return
        for m in mods:
            for k, v in list(vars(m).items()):
                if v is orig and not (m is owner and k == attr):
                    setattr(m, k, wrapped)
                    self._restore.append((m, k, orig))
                elif isinstance(v, dict) and k.isupper():
                    # dispatch tables such as cli.COMMANDS
                    for dk, dv in list(v.items()):
                        if dv is orig:
                            v[dk] = wrapped
                            self._restore.append((v, dk, orig))

    def _wrap_fft(self):
        tracer = self
        counts = self.counts
        for attr in ("fft", "ifft"):
            orig = getattr(np.fft, attr)

            def make(orig):
                @functools.wraps(orig)
                def fft_wrapper(a, *args, **kwargs):
                    t0 = perf_counter()
                    out = orig(a, *args, **kwargs)
                    dt = perf_counter() - t0
                    layer = tracer.layer_on_top()
                    n = out.shape[-1] if out.ndim else 1
                    counts[f"{layer}.fft_s"] += dt
                    counts[f"{layer}.fft_points"] += out.size
                    if largest_prime_factor(n) > 7:
                        counts[f"{layer}.fft_points_nonsmooth"] += out.size
                    return out
                return fft_wrapper

            setattr(np.fft, attr, make(orig))
            self._restore.append((np.fft, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric value but the run-level harness ones."""
        layer_self = self.layer_self_times()
        out = {"harness.self_s": (layer_self.get(ROOT_KEY, 0.0), "s")}
        for name, unit, _ in per_layer_spec():
            if name.startswith("harness."):
                continue
            if name.endswith(".self_s") and name.count(".") == 1:
                value = layer_self.get(name.split(".")[0], 0.0)
            elif name.endswith(".calls"):
                value = self.calls.get(name[:-len(".calls")], 0)
            elif name.endswith(".self_s"):
                value = self.self_s.get(name[:-len(".self_s")], 0.0)
            elif name in RATIOS:
                num, den = RATIOS[name]
                d = self.counts.get(den, 0.0)
                value = self.counts.get(num, 0.0) / d if d else 0.0
            else:
                value = self.counts.get(name, 0.0)
            out[name] = (value, unit)
        return out

    def layer_self_times(self):
        totals = defaultdict(float)
        for key, s in self.self_s.items():
            totals[key.split(".", 1)[0]] += s
        return dict(totals)

    def write_spans(self, path):
        """Write every span as `depth key start_s end_s`, in end order."""
        with open(path, "w") as fh:
            t0 = min((s[1] for s in self.spans), default=0.0)
            for key, start, end, depth in self.spans:
                fh.write(f"{depth} {key} {start - t0:.9f} {end - t0:.9f}\n")


def _grid_size(args, kwargs) -> int:
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    return int(grid.size)


def _fejer_degrees_tried(args, kwargs, out) -> int:
    """Degrees 0, 1, 2, 4, ... visited before returning."""
    poly, diag = out
    last = diag["degree"] if poly is not None else kwargs.get(
        "max_degree", args[3] if len(args) > 3 else 0)
    tried, deg = 0, 0
    while deg <= last:
        tried += 1
        deg = 1 if deg == 0 else deg * 2
    return tried


def _stages_requested(fn_name, args, kwargs) -> int:
    if fn_name == "run_stoptime_engine":
        return int(kwargs.get("max_stages", args[5] if len(args) > 5 else 40))
    if fn_name == "run_ae_engine":
        return int(kwargs.get("n_stages", args[2]))
    return int(kwargs.get("n_stages", args[1]))
