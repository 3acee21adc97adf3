"""In-memory span recorder for the traced benchmark run.

Every public function of the ``lognls`` layer modules is wrapped, in every
module namespace that holds it by name, so calls made through names bound at
import time (``from .grid import laplacian_array``) are recorded too.  A span
is ``[name, start_ns, end_ns, parent, rss_kb, ok, attrs]``: ``parent`` is the
index of the enclosing span (-1 at the root), ``rss_kb`` the process RSS
high-water mark right after the span, ``ok`` false when the call raised, and
``attrs`` a few numbers read from the call's arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

LAYER_MODULES = ("grid", "energy", "nehari", "potential", "minimax", "cli")

# Spans of these factories get their returned PotentialSpec's ``evaluate``
# wrapped as well: ``evaluate`` is a per-instance field, not a method.
POTENTIAL_FACTORIES = ("model_saddle", "constant_potential", "expression_potential")


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _attrs_ground_state(fn, args, kwargs, result) -> dict:
    return {"n": _bound(fn, args, kwargs)["grid"].points_per_axis, "iterations": result.iterations}


def _attrs_minimize(fn, args, kwargs, result) -> dict:
    return {"iterations": result[1]["iterations"]}


def _attrs_level_d(fn, args, kwargs, result) -> dict:
    return {"stage_iters": sum(s["iterations"] for s in result.stages)}


def _attrs_theta(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    return {
        "n_feasible": result.n_feasible,
        "n_perturb": a["n_perturb"],
        "n_magnitudes": sum(1 for m in a["perturb_magnitudes"] if m <= a["r"]),
        "included": int(result.included_minimizer),
    }


def _attrs_certificate(fn, args, kwargs, result) -> dict:
    dim, _, n = result.details["path_grid"]
    return {"eps": float(_bound(fn, args, kwargs)["eps"]), "path_nodes": n**dim}


def _attrs_atomic_write(fn, args, kwargs, result) -> dict:
    return {"bytes": len(_bound(fn, args, kwargs)["text"].encode("ascii"))}


ANNOTATORS = {
    "nehari.ground_state": _attrs_ground_state,
    "nehari.minimize_on_nehari": _attrs_minimize,
    "minimax.level_d": _attrs_level_d,
    "minimax.theta_r_estimate": _attrs_theta,
    "minimax.certificate": _attrs_certificate,
    "cli.atomic_write": _attrs_atomic_write,
}


class Tracer:
    """Records nested spans of one run; install() patches, uninstall() restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, annotate=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, 0, True, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = False
                raise
            finally:
                span[2] = clock()
                span[4] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                stack.pop()
            if annotate is not None:
                span[6] = annotate(fn, args, kwargs, result)
            return result

        return traced

    def _wrap_factory(self, name: str, fn):
        wrap = self.wrap

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            spec = fn(*args, **kwargs)
            evaluate = wrap(
                "potential.evaluate", spec.evaluate, lambda f, a, k, r: {"nodes": len(a[0])}
            )
            object.__setattr__(spec, "evaluate", evaluate)  # PotentialSpec is frozen
            return spec

        return self.wrap(name, factory)

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        # import_module returns the submodule even where a package attribute
        # shadows it (lognls.energy is the function energy)
        modules = {short: importlib.import_module(f"lognls.{short}") for short in LAYER_MODULES}
        namespaces = [m for key, m in list(sys.modules.items()) if key == "lognls" or key.startswith("lognls.")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if short == "potential" and attr in POTENTIAL_FACTORIES:
                    wrapped = self._wrap_factory(name, fn)
                else:
                    wrapped = self.wrap(name, fn, ANNOTATORS.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapped)
                            self._patched.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "start_ns", "end_ns", "parent", "rss_kb_after", "ok", "attrs"],
            "spans": self.spans,
        }


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _ok_children(spans: list[list], parent: int, name: str) -> int:
    return sum(1 for s in spans if s[3] == parent and s[0] == name and s[5])


def layer_metrics(spans: list[list], eps_keys, n_keys) -> dict:
    """Per-layer numbers from one run's spans (seconds, counts, MB)."""
    own = self_times_ns(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    for s, o in zip(spans, own):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_ns[s[0]] = self_ns.get(s[0], 0) + o
        incl_ns[s[0]] = incl_ns.get(s[0], 0) + (s[2] - s[1])

    def named(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    def attr_sum(name, key):
        return sum(s[6][key] for _, s in named(name) if s[6])

    m: dict[str, float] = {}
    minimize_iters = attr_sum("nehari.minimize_on_nehari", "iterations")
    lap_calls = calls.get("grid.laplacian_array", 0)
    m["grid.laplacian.calls"] = lap_calls
    m["grid.laplacian.self_s"] = self_ns.get("grid.laplacian_array", 0) / 1e9
    m["grid.laplacian.calls_per_iter"] = lap_calls / minimize_iters if minimize_iters else 0.0
    m["grid.integrate.calls"] = calls.get("grid.integrate_array", 0)
    m["grid.integrate.self_s"] = self_ns.get("grid.integrate_array", 0) / 1e9
    m["energy.potential_samples.calls"] = calls.get("energy.potential_samples", 0)
    m["energy.potential_samples.self_s"] = self_ns.get("energy.potential_samples", 0) / 1e9
    m["nehari.minimize.calls"] = calls.get("nehari.minimize_on_nehari", 0)
    m["nehari.minimize.iterations"] = minimize_iters
    m["nehari.minimize.self_s"] = self_ns.get("nehari.minimize_on_nehari", 0) / 1e9
    for n in n_keys:
        m[f"nehari.ground_state.iterations.n{n}"] = sum(
            s[6]["iterations"] for _, s in named("nehari.ground_state") if s[6] and s[6]["n"] == n
        )
    m["potential.evaluate.nodes"] = attr_sum("potential.evaluate", "nodes")
    m["potential.evaluate.self_s"] = self_ns.get("potential.evaluate", 0) / 1e9

    m["minimax.level_d.s"] = incl_ns.get("minimax.level_d", 0) / 1e9
    m["minimax.level_d.stage_iters"] = attr_sum("minimax.level_d", "stage_iters")
    theta = named("minimax.theta_r_estimate")
    # candidates the scan builds: every surviving path sample plus its
    # n_perturb x (magnitudes <= r) perturbations, plus an included minimizer
    candidates = sum(
        _ok_children(spans, i, "minimax.phi_path") * (1 + s[6]["n_perturb"] * s[6]["n_magnitudes"])
        + s[6]["included"]
        for i, s in theta
        if s[6]
    )
    feasible = attr_sum("minimax.theta_r_estimate", "n_feasible")
    m["minimax.theta_r_estimate.s"] = incl_ns.get("minimax.theta_r_estimate", 0) / 1e9
    m["minimax.theta_r_estimate.candidates"] = candidates
    m["minimax.theta_r_estimate.n_feasible"] = feasible
    m["minimax.theta_r_estimate.feasible_ratio"] = feasible / candidates if candidates else 0.0
    m["minimax.theta_r_estimate.rss_mb"] = max((s[4] for _, s in theta), default=0) / 1024.0
    m["minimax.phi_path.calls"] = calls.get("minimax.phi_path", 0)
    m["minimax.phi_path.self_s"] = self_ns.get("minimax.phi_path", 0) / 1e9
    m["minimax.phi_path.failed"] = sum(1 for _, s in named("minimax.phi_path") if not s[5])
    m["minimax.choose_r.s"] = incl_ns.get("minimax.choose_r", 0) / 1e9
    m["minimax.level_sup_x.s"] = incl_ns.get("minimax.level_sup_x", 0) / 1e9
    certs = [s for _, s in named("minimax.certificate") if s[6]]
    for eps in eps_keys:
        m[f"minimax.certificate.s.eps{eps:g}"] = sum(
            (s[2] - s[1]) / 1e9 for s in certs if s[6]["eps"] == eps
        )
        m[f"minimax.path_grid.nodes.eps{eps:g}"] = max(
            (s[6]["path_nodes"] for s in certs if s[6]["eps"] == eps), default=0
        )

    m["cli.config_s"] = incl_ns.get("cli.load_config", 0) / 1e9
    writers = ("cli.atomic_write", "cli.write_csv")
    m["cli.write_s"] = sum(
        (s[2] - s[1]) / 1e9 for s in spans if s[0] in writers and (s[3] < 0 or spans[s[3]][0] not in writers)
    )
    m["cli.output_bytes"] = attr_sum("cli.atomic_write", "bytes")
    m["trace.spans"] = len(spans)
    return m
