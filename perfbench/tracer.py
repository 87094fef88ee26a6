"""Call tracing from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper, in the defining module and in every other
``vidtldr`` module that imported it by name, and ``uninstall`` puts the
originals back. The program's code is not edited.

Each wrapper records calls and inclusive time, and a stack of open
calls turns that into self time: a call's duration minus the time spent
in traced calls it made. A few wrappers also count work from their
arguments or results: the m*k*n multiply-adds and sampled elements of
every ``numerics.matmul``, the tokens entering each attention block,
the analytical MACs from ``costmodel.schedule_flops`` and the bytes
each ``tensorio.dump_tensor`` writes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

TRACED_MODULES = (
    "vidtldr.numerics",
    "vidtldr.model",
    "vidtldr.merging",
    "vidtldr.saliency",
    "vidtldr.costmodel",
    "vidtldr.harness.clips",
    "vidtldr.harness.config",
    "vidtldr.harness.runner",
    "vidtldr.harness.tensorio",
)


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    stats: dict = field(default_factory=lambda: defaultdict(Stat))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    matmul_samples: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, name: str, fn, after=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.incl_s += dt
                stat.self_s += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters computed from arguments and results

    def _after_matmul(self, args, out):
        a, b = np.asarray(args[0]), np.asarray(args[1])
        m, k = a.shape
        n = b.shape[1]
        self.counts["matmul_mac"] += m * k * n
        # Two elements per call, spread over the output by the call index.
        c = self.stats["numerics.matmul"].calls
        for i, j in ((c * 7919 % m, c * 104729 % n), (m - 1, n - 1)):
            self.matmul_samples.append(
                (a[i, :].astype(np.float32), b[:, j].astype(np.float32), out[i, j])
            )

    def _after_attention(self, args, out):
        self.counts["tokens_in"] += args[0].count

    def _after_schedule_flops(self, args, out):
        self.counts["model_mac"] += out.total_flops

    def _after_dump(self, args, out):
        self.counts["dump_bytes"] += 4 * np.asarray(args[1]).size

    def install(self) -> None:
        hooks = {
            "numerics.matmul": self._after_matmul,
            "model.attention_forward": self._after_attention,
            "costmodel.schedule_flops": self._after_schedule_flops,
            "harness.tensorio.dump_tensor": self._after_dump,
        }
        wrappers = {}
        for modname in TRACED_MODULES:
            mod = sys.modules[modname]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != modname:
                    continue
                name = modname.removeprefix("vidtldr.") + "." + attr
                wrappers[id(fn)] = (fn, self._wrap(name, fn, hooks.get(name)))
        # Rebind every module-level reference, including `from x import f` copies.
        for modname, mod in list(sys.modules.items()):
            if not (modname == "vidtldr" or modname.startswith("vidtldr.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def per_layer_metrics(tr: Tracer, clips: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced loop, each per clip (runner.run call)."""
    s = tr.stats

    def ms(name, kind="incl_s", *more):
        total = sum(getattr(s[n], kind) for n in (name,) + more)
        return 1e3 * total / clips, "ms"

    def calls(name):
        return s[name].calls / clips, "count"

    mm_gmac = tr.counts["matmul_mac"] / 1e9
    model_gmac = tr.counts["model_mac"] / 1e9
    mm_self = s["numerics.matmul"].self_s
    return {
        "numerics.matmul_ms": ms("numerics.matmul", "self_s"),
        "numerics.matmul_calls": calls("numerics.matmul"),
        "numerics.matmul_gmac": (mm_gmac / clips, "GMAC"),
        "numerics.matmul_gmac_per_s": (mm_gmac / mm_self if mm_self else 0.0, "GMAC/s"),
        "numerics.cosine_sim_ms": ms("numerics.cosine_sim"),
        "numerics.cosine_sim_calls": calls("numerics.cosine_sim"),
        "numerics.row_softmax_ms": ms("numerics.row_softmax"),
        "model.forward_ms": ms("model.forward_clip"),
        "model.attention_ms": ms("model.attention_forward"),
        "model.mlp_ms": ms("model.mlp_forward"),
        "model.embed_ms": ms("model.embed_clip"),
        "model.layer_norm_ms": ms("model.layer_norm"),
        "model.gelu_ms": ms("model.gelu"),
        "model.mean_frame_groups_ms": ms("model.mean_frame_groups"),
        "model.init_weights_ms": ms("model.init_weights"),
        "model.tokens_in": (tr.counts["tokens_in"] / clips, "count"),
        "merging.soft_match_ms": ms("merging.soft_match"),
        "merging.merge_ms": ms("merging.tome_merge", "incl_s", "merging.vidtldr_merge"),
        "merging.prune_ms": ms("merging.prune_lowest"),
        "merging.check_state_ms": ms("merging.check_state"),
        "saliency.rollout_ms": ms("saliency.attention_rollout"),
        "saliency.rollout_calls": calls("saliency.attention_rollout"),
        "saliency.sharpness_ms": ms("saliency.sharpness_saliency"),
        "saliency.attentiveness_ms": ms("saliency.attentiveness"),
        "costmodel.model_gmac": (model_gmac / clips, "GMAC"),
        "costmodel.executed_per_model": (mm_gmac / model_gmac if model_gmac else 0.0, "ratio"),
        "harness.clips.synth_ms": ms("harness.clips.synth_clip"),
        "harness.runner.self_ms": ms("harness.runner.run", "self_s"),
        "harness.config.load_ms": ms("harness.config.load_config"),
        "harness.runner.compare_ms": ms("harness.runner.compare"),
        "harness.tensorio.load_ms": ms("harness.tensorio.load_tensor"),
        "harness.tensorio.dump_ms": ms("harness.tensorio.dump_tensor"),
        "harness.tensorio.dump_mb": (tr.counts["dump_bytes"] / 1e6 / clips, "MB"),
    }
