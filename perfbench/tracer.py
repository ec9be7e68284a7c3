"""In-memory span tracer around depthflow's cross-module functions.

The tracer wraps functions from outside the program: it replaces each
traced function in every loaded ``depthflow`` module that holds it by
name, so calls through ``from .resnet import resnet_forward`` style
imports are seen too. Each call becomes one span (name, parent, start,
end) kept in memory; counts taken from arguments and return values ride
on the span. The time spent taking counts is recorded separately so that
it is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _csv_rows(args, result):
    rows = args["rows"]
    return {"rows": len(rows)}


def _sample_eps(args, result):
    epsW, epsb = result
    return {"normals": epsW.size + epsb.size}


def _forward(args, result):
    # runners read one coordinate at the final time of each (draw, input)
    s = result.states
    return {"state_bytes": s.nbytes,
            "state_used_bytes": s.shape[0] * s.shape[1] * s.itemsize,
            "diverged": int(result.diverged.sum())}


def _freeze(args, result):
    before = args["diverged"]
    return {"flagged": int((result[1] & ~before).sum()),
            "checked": before.size}


def _abc_outputs(args, result):
    select = args.get("select")
    if select is None:
        return {}
    from depthflow.resnet import DRAW_CHUNK
    n = args["n_draws"]
    generated = sum(min(DRAW_CHUNK, n - rep * DRAW_CHUNK) for rep in select)
    return {"replay_generated": generated,
            "replay_kept": sum(len(v) for v in select.values())}


# (module, function, counter) for every traced boundary
TRACED = (
    ("experiments", "run_experiment", None),
    ("config", "make_rng", None),
    ("laws", "sample_eps", _sample_eps),
    ("laws", "scale_eps", None),
    ("resnet", "resnet_forward", _forward),
    ("resnet", "_freeze_diverged", _freeze),
    ("resnet", "_batched_psd_factor", None),
    ("resnet", "eoc_solve", None),
    ("sde", "simulate_paths", _forward),
    ("sde", "_batched_drift", None),
    ("sde", "_scaled_noise_term", None),
    ("stats", "kde1d", None),
    ("stats", "ks_two_sample", None),
    ("stats", "corr_over_inputs", None),
    ("stats", "summarize", None),
    ("experiments", "write_csv", _csv_rows),
    ("experiments", "svg_heatmap", None),
    ("experiments", "_abc_outputs", _abc_outputs),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, f, _ in TRACED)


class Tracer:
    """Collects spans as ``[name, parent, start, end, post, counts]``.

    ``end`` closes the wrapped call; ``post`` follows the count taking, so
    a parent's self time subtracts ``post - start`` of each child.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter=None):
        sig = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            span[4] = clock()
            return result

        return traced

    def install(self):
        """Rebind every traced function in every loaded depthflow module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "depthflow"
                                         or n.startswith("depthflow."))]
        for mod_name, fn_name, counter in TRACED:
            home = sys.modules[f"depthflow.{mod_name}"]
            original = getattr(home, fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def layer_totals(spans) -> dict:
    """Per span name: calls, self seconds and summed counts.

    ``spans`` is the list the tracer wrote; self time is duration minus
    the ``post - start`` interval of each direct child.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, post, counts in spans:
        if parent is not None:
            child_time[parent] += post - start
    totals = {}
    for k, (name, parent, start, end, post, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[k]
        for key, value in (counts or {}).items():
            t[key] = t.get(key, 0) + value
    return totals
