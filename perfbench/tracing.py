"""Spans around gel_expand's layer functions, recorded from outside the library.

``Tracer.instrument`` replaces each function named in ``spec.LAYER_FUNCTIONS``
in every ``gel_expand`` namespace that holds it (``expansion`` imports
``solve_stacked``, ``population`` imports ``_et_core``, the package
re-exports most names), wraps ``MomentModel.g_rows`` on the class and the
``sampler`` attribute of every model built while instrumented.
``uninstrument`` puts the originals back, so untraced rounds run the
library's own code path.

A span is (function id, start, end, parent span, round, extra). Spans stay
in memory; ``summary`` derives calls, self time and the solver ratios from
them, and ``write`` stores them when the run ends. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from spec import LAYER_FUNCTIONS

SETUP_ROUND = -1


def _jacobian_rows(args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return len(rows)


def _newton_iterations(args, kwargs, result):
    return result[2]


# Extra value stored with a span on normal return.
_EXTRAS = {
    "estimators.stacked_jacobian": _jacobian_rows,
    "estimators._newton_stacked": _newton_iterations,
}


class Tracer:
    """Patches gel_expand in place while instrumented and keeps every span."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.round = SETUP_ROUND
        self.names: list[str] = [
            f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns
        ]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._models: list[object] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        fid = self._ids[name]
        extra = _EXTRAS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            value = None
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    value = extra(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, tracer.round, value)

        return traced

    # -- patching ---------------------------------------------------------

    def _wrap_sampler(self, model) -> None:
        original = model.sampler
        self._patches.append((model, "sampler", original))
        object.__setattr__(model, "sampler", self._wrap("models.sampler", original))

    def instrument(self) -> None:
        """Wrap every traced function; models built from now on get a traced sampler."""
        if self._patches:
            raise RuntimeError("tracer already instrumented")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "gel_expand" or name.startswith("gel_expand."))
        ]
        models_mod = sys.modules["gel_expand.models"]
        for layer, fns in LAYER_FUNCTIONS.items():
            if layer == "models":
                continue
            home = sys.modules[f"gel_expand.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapped = self._wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    if mod.__dict__.get(fn) is original:
                        self._patches.append((mod, fn, original))
                        setattr(mod, fn, wrapped)

        cls = models_mod.MomentModel
        self._patches.append((cls, "g_rows", cls.__dict__["g_rows"]))
        cls.g_rows = self._wrap("models.g_rows", cls.__dict__["g_rows"])

        build = models_mod.build_model
        tracer = self

        def build_traced(*args, **kwargs):
            model = build(*args, **kwargs)
            tracer._models.append(model)
            tracer._wrap_sampler(model)
            return model

        for mod in modules:
            if mod.__dict__.get("build_model") is build:
                self._patches.append((mod, "build_model", build))
                setattr(mod, "build_model", build_traced)
        for model in self._models:
            self._wrap_sampler(model)

    def uninstrument(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            obj, attr, original = self._patches.pop()
            if attr == "sampler":
                object.__setattr__(obj, attr, original)
            else:
                setattr(obj, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self, body_datasets: int) -> dict:
        """Per-function calls and self time plus the derived solver ratios."""
        n_fn = len(self.names)
        calls = [0] * n_fn
        self_s = [0.0] * n_fn
        child = [0.0] * len(self.spans)
        for idx, span in enumerate(self.spans):
            fid, start, end, parent, rnd, _ = span
            if parent >= 0:
                child[parent] += end - start
        for idx, span in enumerate(self.spans):
            fid, start, end, parent, rnd, _ = span
            calls[fid] += 1
            self_s[fid] += (end - start) - child[idx]

        ids = self._ids
        body = [s for s in self.spans if s[4] != SETUP_ROUND]
        est_ids = {ids[f"estimators.{fn}"] for fn in LAYER_FUNCTIONS["estimators"]}
        est_calls = sum(1 for s in body if s[0] in est_ids)

        jac = ids["estimators.stacked_jacobian"]
        jac_rows = sum(s[5] for s in self.spans if s[0] == jac and s[5] is not None)

        newton, resid = ids["estimators._newton_stacked"], ids["estimators.stacked_residual"]
        newton_iters = sum(s[5] for s in self.spans if s[0] == newton and s[5] is not None)
        newton_resid = sum(
            1 for s in self.spans if s[0] == resid and s[3] >= 0 and self.spans[s[3]][0] == newton
        )

        solve, profile = ids["estimators.solve_stacked"], ids["estimators._profile_init"]
        inits: dict[int, int] = {}
        for idx, s in enumerate(self.spans):
            if s[0] == solve:
                inits.setdefault(idx, 0)
            elif s[0] == profile and s[3] >= 0 and self.spans[s[3]][0] == solve:
                inits[s[3]] = inits.get(s[3], 0) + 1
        retried = sum(1 for count in inits.values() if count > 1)

        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "estimators.calls_per_dataset": est_calls / body_datasets if body_datasets else 0.0,
            "estimators.stacked_jacobian.rows_per_s": jac_rows / self_s[jac] if self_s[jac] > 0 else 0.0,
            "estimators.step_accept_ratio": newton_iters / newton_resid if newton_resid else 0.0,
            "estimators.retry_share": retried / len(inits) if inits else 0.0,
        }

    def write(self, path: Path, meta: dict) -> None:
        """Store the spans, with times relative to the first span's start."""
        origin = min((s[1] for s in self.spans), default=0.0)
        payload = dict(meta)
        payload.update(
            {
                "run_id": self.run_id,
                "names": self.names,
                "span_fields": ["fn", "start_s", "end_s", "parent", "round", "extra"],
                "spans": [
                    [fid, start - origin, end - origin, parent, rnd, extra]
                    for fid, start, end, parent, rnd, extra in self.spans
                ],
            }
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
