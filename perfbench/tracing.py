"""Spans around calls into each onlinectrl module, from outside the package.

A traced run rebinds the public functions of src/onlinectrl to timing
wrappers: every module attribute that holds the original (for example
onlinectrl.learner.sample and onlinectrl.noise.sample) gets the wrapper,
and methods are replaced on their class. `installed` undoes every
rebinding on exit, so untimed and untraced runs see the original code.

Memory stays bounded by the number of cells, not steps: every span is
folded into a (name, parent) accumulator of calls, busy and self time,
and only cell-level spans are also kept whole.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

from onlinectrl.policy import admissible_radii

# (module, attribute, per_step). Per-step calls are only folded into the
# accumulators; the others run a few times per cell and are kept whole.
TARGETS = (
    ("harness", "run_batch", False),
    ("harness", "build_experiment", False),
    ("harness", "compute_theory_constants", False),
    ("harness", "write_outputs", False),
    ("harness", "_episode_job", False),
    ("stability", "certify", False),
    ("costs", "materialize", False),
    ("costs", "quadratic_cost", True),
    ("costs", "CostSchedule.reveal", True),
    ("rng", "keyed_rng", True),
    ("noise", "sample", True),
    ("learner", "run_episode", False),
    ("policy", "control_input", True),
    ("policy", "project", True),
    ("system", "recover_noise", True),
    ("surrogate", "SurrogateKernel.grad", True),
    ("comparator", "best_fixed_K", False),
    ("comparator", "regret", False),
)

KINDS = ("calls", "busy_s", "self_s")
_ORIGINAL = "__perfbench_original__"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(m, a) for m, a, _ in TARGETS)


class Tracer:
    """Nested spans of one thread, folded as they close.

    busy counts only the outermost span of a name, so recursion is not
    counted twice; self is a span's duration minus its children's.
    Time spent in a wrapper's own bookkeeping after the call (the clip
    count of `project`) is excluded from every enclosing span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.acc: dict = {}       # (name, parent) -> [calls, busy_s, self_s]
        self.spans: list = []     # whole spans: dicts with name, parent, times, tags
        self.counts = Counter()
        self._stack: list = []    # open frames: [name, start, child_s, excluded_s]
        self._open = Counter()

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, 0.0])
        self._open[name] += 1

    def exit(self, keep: bool = False, tags: dict | None = None) -> None:
        end = self.clock()
        name, start, child, excluded = self._stack.pop()
        self._open[name] -= 1
        dur = end - start - excluded
        parent = self._stack[-1][0] if self._stack else None
        acc = self.acc.setdefault((name, parent), [0, 0.0, 0.0])
        acc[0] += 1
        if self._open[name] == 0:
            acc[1] += dur
        acc[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
            self._stack[-1][3] += excluded
        if keep:
            self.spans.append({"name": name, "parent": parent, "start": start,
                               "busy_s": dur, "self_s": dur - child,
                               **(tags or {})})

    def exclude(self, seconds: float) -> None:
        """Remove seconds of bookkeeping from the innermost open span."""
        if self._stack:
            self._stack[-1][3] += seconds

    def totals(self, name: str) -> tuple:
        calls = busy = self_s = 0
        for (n, _), (c, b, s) in self.acc.items():
            if n == name:
                calls, busy, self_s = calls + c, busy + b, self_s + s
        return calls, busy, self_s

    def layer_metrics(self) -> dict:
        """`<module>.<function>.<kind>` for every target, zero when unused."""
        out = {}
        for name in SPAN_NAMES:
            for kind, value in zip(KINDS, self.totals(name)):
                out[f"{name}.{kind}"] = value
        return out

    def count_clipped(self, args: tuple) -> None:
        """Blocks whose top singular value exceeded the radius, and blocks
        projected. A block within its radius in Frobenius norm cannot
        clip, so only the others need an SVD."""
        blocks = args[0].blocks
        radii = admissible_radii(blocks.shape[0], *args[1:4])
        maybe = np.linalg.norm(blocks, axis=(1, 2)) > radii
        clipped = 0
        if maybe.any():
            top = np.linalg.svd(blocks[maybe], compute_uv=False)[:, 0]
            clipped = int(np.count_nonzero(top > radii[maybe]))
        self.counts["policy.project.blocks"] += blocks.shape[0]
        self.counts["policy.project.clipped_blocks"] += clipped


def _tags(name: str, args: tuple, kwargs: dict) -> dict | None:
    if name == "harness._episode_job":
        return {"T": args[1], "seed": args[2]}
    if name == "learner.run_episode":
        return {"T": args[6] if len(args) > 6 else kwargs["T"]}
    return None


def _wrap(tracer: Tracer, name: str, fn, per_step: bool):
    after = tracer.count_clipped if name == "policy.project" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(keep=not per_step,
                        tags=None if per_step else _tags(name, args, kwargs))
        if after is not None:
            t0 = tracer.clock()
            after(args)
            tracer.exclude(tracer.clock() - t0)
        return result

    setattr(wrapper, _ORIGINAL, fn)
    return wrapper


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == "onlinectrl" or n.startswith("onlinectrl.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every target to a wrapper feeding tracer; undo on exit."""
    undo = []
    try:
        for module, attr, per_step in TARGETS:
            mod = importlib.import_module(f"onlinectrl.{module}")
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                undo.append((owner, meth, orig))
                setattr(owner, meth, _wrap(tracer, name, orig, per_step))
                continue
            orig = getattr(mod, attr)
            wrapper = _wrap(tracer, name, orig, per_step)
            for m in _package_modules():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, key, orig))
                        setattr(m, key, wrapper)
        yield tracer
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)


def leftover_wrappers() -> list:
    """Names in the package (modules and classes) still bound to a wrapper."""
    found = []
    for m in _package_modules():
        for key, value in vars(m).items():
            if hasattr(value, _ORIGINAL):
                found.append(f"{m.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                found += [f"{m.__name__}.{key}.{k}"
                          for k, v in vars(value).items() if hasattr(v, _ORIGINAL)]
    return found
