"""Span tracer for the traced run: timing wrappers around the public functions
of each ``latentsketch`` layer, installed from outside the program.

A span records name, start, end, parent span and the operation it belongs to.
Spans stay in memory and are written once, at the end, as Chrome trace-event
JSON (load it in chrome://tracing or https://ui.perfetto.dev).  Only spans
opened while the tracer is active are kept, so warm-up ops and output checks
leave none.
"""

from __future__ import annotations

import functools
import json
import time

from latentsketch import autodiff, backbone, diffusion, grpo, inference, model, optim
from latentsketch import sequence, sft, toyvision, vocab


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.active = False
        self.op = -1          # -1: set-up; >= 0: index of the traced operation

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace owner.attr with a timing wrapper; info(args, kwargs, result)
        returns a dict kept on the span (computed after the span closes)."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = Span(name, time.perf_counter_ns(),
                        tracer.stack[-1] if tracer.stack else -1, tracer.op)
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter_ns()
                span.info = {"ok": False}
                raise
            finally:
                tracer.stack.pop()
            span.end = time.perf_counter_ns()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        setattr(owner, attr, traced)

    def write_chrome(self, path: str) -> None:
        t0 = min((s.start for s in self.spans), default=0)
        events = []
        for i, s in enumerate(self.spans):
            args = {"id": i, "parent": s.parent, "op": s.op}
            if s.info:
                args.update(s.info)
            events.append({"name": s.name, "ph": "X", "pid": 1, "tid": 1,
                           "ts": (s.start - t0) / 1e3, "dur": (s.end - s.start) / 1e3,
                           "args": args})
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# -- what each wrapped function records --------------------------------------------


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _forward_rows(args, kwargs, out):
    ids = _arg(args, kwargs, 2, "ids")
    mask = _arg(args, kwargs, 3, "text_mask")
    pad = int(((ids == vocab.PAD_ID) & (mask == 1.0)).sum())
    return {"rows": int(ids.size), "live_rows": int(ids.size) - pad}


def _append_rows(args, kwargs, out):
    return {"rows": int(len(_arg(args, kwargs, 1, "ids")))}


def _generation(args, kwargs, out):
    k = _arg(args, kwargs, 1, "model").bcfg.k_latent
    blocks = sum(1 for e in out.emissions if e.token_id == vocab.START_ID)
    last = out.seq.items[-1]
    return {"new_items": out.new_items, "blocks": blocks,
            "text_items": out.new_items - blocks * (k + 2),
            "finished": bool(last.kind == "ctrl" and last.value == "EOS")}


def _group(args, kwargs, out):
    items = sum(len(r.seq) for r in out.rollouts)
    prompt = sum(len(r.seq) - r.new_items for r in out.rollouts)
    return {"degenerate": bool(out.degenerate), "rollout_items": items, "prompt_items": prompt}


def _ok(args, kwargs, out):
    return {"ok": True}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point.  Callers that imported a name directly
    (sft and grpo import adamw_step and clip_grad_norm) are wrapped at the caller."""
    w = tracer.wrap
    w(autodiff, "backward", "autodiff.backward")
    w(backbone, "forward_batch", "backbone.forward_batch", _forward_rows)
    w(backbone.DecodeCache, "append", "backbone.decode_append", _append_rows)
    w(diffusion, "sample_latent", "diffusion.sample_latent")
    w(diffusion, "eps_forward", "diffusion.eps_forward")
    w(diffusion, "emit_block", "diffusion.emit_block")
    w(inference, "generate", "inference.generate", _generation)
    for owner in (optim, sft, grpo):
        w(owner, "adamw_step", "optim.adamw_step")
        w(owner, "clip_grad_norm", "optim.clip_grad_norm")
    w(sft, "joint_loss", "sft.joint_loss")
    w(sft, "build_example", "sft.build_example", _ok)
    w(toyvision, "encode_image", "toyvision.encode_image")
    w(sequence, "to_arrays", "sequence.to_arrays")
    w(sequence, "validate", "sequence.validate")
    w(grpo, "sample_group", "grpo.sample_group", _group)
    w(grpo, "score_rollout", "grpo.score_rollout")
    w(grpo, "grpo_objective", "grpo.objective")
    w(model, "load_model", "model.load_model")


# -- per-layer metrics ----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, op_seconds: float, denoise_steps: int) -> dict:
    """Per-operation figures over the spans of the timed operations.

    Times are inclusive span durations in ms per operation, counts are per
    operation, ratios are over the whole timed region.  A layer the workload
    never enters reads 0.
    """
    timed = [s for s in tracer.spans if s.op >= 0]
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in timed:
        ms[s.name] = ms.get(s.name, 0.0) + (s.end - s.start) / 1e6
        calls[s.name] = calls.get(s.name, 0) + 1

    def per_op(x):
        return x / n_ops

    def total(name, key):
        return sum(s.info[key] for s in timed if s.name == name and s.info)

    text_items = total("inference.generate", "text_items")
    # emit_block is only called from generate, so this is generate's own decoding time
    gen_outside = ms.get("inference.generate", 0.0) - ms.get("diffusion.emit_block", 0.0)
    generations = calls.get("inference.generate", 0)
    groups = calls.get("grpo.sample_group", 0)
    builds = calls.get("sft.build_example", 0)
    root_ms = sum((s.end - s.start) / 1e6 for s in timed if s.parent == -1)
    setup_loads = [s for s in tracer.spans if s.name == "model.load_model" and s.op < 0]

    return {
        "autodiff.backward_ms": per_op(ms.get("autodiff.backward", 0.0)),
        "autodiff.backward_calls": per_op(calls.get("autodiff.backward", 0)),
        "backbone.forward_batch_ms": per_op(ms.get("backbone.forward_batch", 0.0)),
        "backbone.forward_batch_rows": per_op(total("backbone.forward_batch", "rows")),
        "backbone.live_row_ratio": _ratio(total("backbone.forward_batch", "live_rows"),
                                          total("backbone.forward_batch", "rows")),
        "backbone.decode_append_ms": per_op(ms.get("backbone.decode_append", 0.0)),
        "backbone.decode_rows": per_op(total("backbone.decode_append", "rows")),
        "diffusion.sample_latent_ms": per_op(ms.get("diffusion.sample_latent", 0.0)),
        "diffusion.sample_latent_calls": per_op(calls.get("diffusion.sample_latent", 0)),
        "diffusion.eps_forward_ms": per_op(ms.get("diffusion.eps_forward", 0.0)),
        "diffusion.eps_forward_calls": per_op(calls.get("diffusion.eps_forward", 0)),
        "diffusion.denoise_steps": per_op(denoise_steps),
        "inference.generate_ms": per_op(ms.get("inference.generate", 0.0)),
        "inference.text_item_ms": _ratio(gen_outside, text_items),
        "inference.latent_block_ms": _ratio(ms.get("diffusion.emit_block", 0.0),
                                            calls.get("diffusion.emit_block", 0)),
        "inference.finished_ratio": _ratio(total("inference.generate", "finished"), generations),
        "optim.adamw_step_ms": per_op(ms.get("optim.adamw_step", 0.0)),
        "optim.clip_grad_norm_ms": per_op(ms.get("optim.clip_grad_norm", 0.0)),
        "sft.joint_loss_ms": per_op(ms.get("sft.joint_loss", 0.0)),
        "sft.build_example_ms": per_op(ms.get("sft.build_example", 0.0)),
        "sft.kept_example_ratio": _ratio(total("sft.build_example", "ok"), builds),
        "toyvision.encode_image_ms": per_op(ms.get("toyvision.encode_image", 0.0)),
        "sequence.to_arrays_ms": per_op(ms.get("sequence.to_arrays", 0.0)),
        "sequence.validate_ms": per_op(ms.get("sequence.validate", 0.0)),
        "grpo.sample_group_ms": per_op(ms.get("grpo.sample_group", 0.0)),
        "grpo.score_rollout_ms": per_op(ms.get("grpo.score_rollout", 0.0)),
        "grpo.score_rollout_calls": per_op(calls.get("grpo.score_rollout", 0)),
        "grpo.objective_ms": per_op(ms.get("grpo.objective", 0.0)),
        "grpo.live_group_ratio": _ratio(groups - total("grpo.sample_group", "degenerate"), groups),
        "grpo.prompt_share": _ratio(total("grpo.sample_group", "prompt_items"),
                                    total("grpo.sample_group", "rollout_items")),
        "model.load_model_ms": (sum((s.end - s.start) / 1e6 for s in setup_loads) / len(setup_loads)
                                if setup_loads else 0.0),
        "trace.layer_coverage": _ratio(root_ms, op_seconds * 1e3),
    }


def self_times(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Self time per layer in ms per operation: span duration minus the part
    its direct child spans cover (children never overlap on one thread)."""
    timed = [(i, s) for i, s in enumerate(tracer.spans) if s.op >= 0]
    child_ms = {}
    for _, s in timed:
        if s.parent >= 0:
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + (s.end - s.start) / 1e6
    out: dict[str, float] = {}
    for i, s in timed:
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) / 1e6 - child_ms.get(i, 0.0)
    return {k: v / n_ops for k, v in sorted(out.items(), key=lambda kv: -kv[1])}
