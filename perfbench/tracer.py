"""Spans recorded from outside the program.

The tracer replaces module-level names that pwerpi's callers look up at call
time (for example `sim.build_design`, `pwer.mvprob.mvn_cdf` or
`mvprob.qmc.Sobol`) with wrappers that record a span around each call, and
puts the originals back afterwards. No program file changes.

A span is [id, parent id, name, start, end, round, info]; `info` holds
counts read from the call's return value. Spans are kept in memory and
written out once, when the traced pass ends. Forked pool workers inherit the
wrappers but do not record: worker-side spans are out of scope.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

ID, PARENT, NAME, START, END, ROUND, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []

    def _active(self) -> bool:
        return os.getpid() == self._pid

    def open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, self.round, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        popped = self._stack.pop()
        if popped != span[ID]:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Record a span around every call of `owner.attr`.

        `info(result)` turns the return value into the span's counts.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._active():
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[INFO] = {"raised": type(exc).__name__}
                raise
            finally:
                tracer.close(span)
            if info is not None:
                span[INFO] = info(result)
            return result

        self._patch(owner, attr, traced)

    def wrap_pool(self, owner, attr: str, name: str) -> None:
        """Record one span per executor, from construction to shutdown."""
        base = getattr(owner, attr)
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._span = tracer.open(name) if tracer._active() else None
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer.close(self._span)
                        self._span = None

        self._patch(owner, attr, TracedPool)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, pwerpi) -> None:
    """Wrap the layer boundaries of pwerpi's design, mvprob, pwer, boot and sim."""
    sim, pwer, mvprob, boot = pwerpi.sim, pwerpi.pwer, pwerpi.mvprob, pwerpi.boot
    tracer.wrap(sim, "run_study_distribution", "sim.run_study_distribution")
    tracer.wrap(sim, "run_scenario", "sim.run_scenario")
    tracer.wrap(sim, "_run_single", "sim._run_single")
    tracer.wrap(sim, "build_design", "design.build_design")
    tracer.wrap_pool(sim, "ProcessPoolExecutor", "sim.ProcessPoolExecutor")
    tracer.wrap(pwer, "build_test_model", "pwer.build_test_model")
    tracer.wrap(
        pwer, "solve_critical_values", "pwer.solve_critical_values",
        lambda cv: {"evaluations": cv.evaluations, "verify_gap": abs(cv.verified - cv.alpha)},
    )
    tracer.wrap(pwer.mvprob, "mvn_cdf", "mvprob.mvn_cdf", lambda r: {"error": r.error_estimate})
    tracer.wrap(pwer.mvprob, "mvt_cdf", "mvprob.mvt_cdf", lambda r: {"error": r.error_estimate})
    tracer.wrap(mvprob, "bvn_cdf_many", "mvprob.bvn_cdf_many")
    tracer.wrap(mvprob, "_randomized_qmc", "mvprob.qmc_integrate", lambda r: {"points": r.points_used})
    tracer.wrap(mvprob.qmc, "Sobol", "mvprob.qmc.Sobol")
    tracer.wrap(boot, "bootstrap_null_D", "boot.bootstrap_null_D")
    tracer.wrap(
        boot, "bootstrap_null_E", "boot.bootstrap_null_E",
        lambda null: {"rejected": null.rejected_resamples, "B": null.B},
    )
    tracer.wrap(boot, "solve_critical_empirical", "boot.solve_critical_empirical")
    tracer.wrap(boot, "fwer_curves", "boot.fwer_curves")
