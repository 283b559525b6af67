"""Set-up and closed request loops of the three benchmark workloads.

Everything here calls crossview's public functions only. Set-up renders
the train and eval datasets as ``crossview gen-data`` does, runs both
training stages and loads the model, so the sampling workloads use block
weights the block stage really trained. A sampling request is one eval
object through the ``sample`` + ``eval`` path; a training step is one
optimizer step of ``pretrain_backbone`` or ``train_blocks``.

Loops are closed with one client: the next request starts when the
previous one and its output checks have ended. Requests come in cycles
that hold every (view count, elevation) pair once, so each run sees the
same mix whatever its seed; a loop stops at the first cycle boundary after
both its time and its minimum cycle count are reached.
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np

# Calls go through the defining modules' attributes, where the tracer's
# wrappers sit during a traced run.
from crossview import metrics, synthdata, tensorio, train
from crossview.engine import NonFiniteError

import checks
from tracing import Tracer, installed

__all__ = ["Artifacts", "Outcome", "cycles", "run_sampling", "run_training", "setup",
           "setup_checks", "subset_views"]


@dataclass
class Artifacts:
    """What set-up leaves behind for the measured loop."""

    train_reader: object
    eval_reader: object
    backbone_dir: str
    blocks_dir: str
    backbone_history: list
    block_history: list
    first_block_loss_call: tuple


@dataclass
class Outcome:
    """Measurements and check results of one pass over a workload."""

    latencies: list = field(default_factory=list)  # seconds per request or step
    busy_s: float = 0.0  # timed seconds, checks excluded
    view_steps: int = 0  # views x denoiser steps completed
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)  # name -> list of values
    stages: dict = field(default_factory=dict)  # training stage -> step latencies
    cycles: int = 0
    cycle_rates: list = field(default_factory=list)  # view steps per busy second

    def fail(self, count, problems):
        self.failed += count
        self.problems.extend(problems)

    def end_cycle(self, view_steps0, busy0):
        """Close a cycle that began when the totals were ``view_steps0, busy0``."""
        self.cycles += 1
        if self.busy_s > busy0:
            self.cycle_rates.append((self.view_steps - view_steps0) / (self.busy_s - busy0))


def setup(cfg, root):
    """Datasets, backbone and block checkpoints under ``root``."""
    common = dict(
        n_views=cfg.views,
        seed=cfg.seed,
        image_size=cfg.image_size,
        radius=cfg.radius,
        focal_scale=cfg.focal_scale,
        config_hash=cfg.content_hash(),
    )
    train_reader = synthdata.make_dataset(
        os.path.join(root, "data", "train"), cfg.train_objects,
        elevation=f"random:{cfg.elevation_max}", **common,
    )
    eval_reader = synthdata.make_dataset(
        os.path.join(root, "data", "eval"), cfg.eval_objects,
        elevation=tuple(cfg.eval_elevations), first_object=cfg.train_objects, **common,
    )
    backbone_dir = os.path.join(root, "ckpt", "backbone")
    blocks_dir = os.path.join(root, "ckpt", "blocks")
    backbone_history = train.pretrain_backbone(cfg, train_reader, backbone_dir)
    # Keep the arguments of train_blocks' first multiview_loss call, so the
    # first-loss check can recompute that batch without blocks.
    seen = []

    def keep_first(args, kwargs, out):
        if not seen:
            seen.append((args, kwargs))
        return {}

    with installed(Tracer(), [("first", "crossview.diffusion", "multiview_loss", keep_first)]):
        block_history = train.train_blocks(cfg, train_reader, backbone_dir, blocks_dir)
    return Artifacts(train_reader, eval_reader, backbone_dir, blocks_dir,
                     backbone_history, block_history, seen[0])


def setup_checks(art):
    """Problem lists of the checks on set-up's training output, one per check."""
    return [
        checks.check_losses(art.backbone_history),
        checks.check_losses(art.block_history),
        checks.check_frozen_backbone(art.backbone_dir, art.blocks_dir),
        checks.check_first_block_loss(art.first_block_loss_call, art.block_history),
    ]


@dataclass(frozen=True)
class Request:
    rid: int
    views: int
    elevation: float
    position: int  # eval dataset position
    seed: int


def cycles(spec, seed, eval_reader):
    """Endless seeded cycles of sampling requests."""
    rng = np.random.default_rng([seed, 17])
    pairs = [(v, float(e)) for v in spec["views"] for e in spec["elevations"]]
    by_elev = {}
    for pos, (_, _, elev, _) in enumerate(eval_reader.objects):
        by_elev.setdefault(float(elev), []).append(pos)
    rid = 0
    while True:
        cycle = []
        for k in rng.permutation(len(pairs)):
            views, elev = pairs[k]
            pos = by_elev[elev][int(rng.integers(len(by_elev[elev])))]
            cycle.append(Request(rid, views, elev, pos, int(rng.integers(2**31))))
            rid += 1
        yield cycle


def subset_views(obj, count):
    """``count`` evenly spaced azimuths of ``obj``, starting at view 0."""
    idx = list(range(0, len(obj.poses), len(obj.poses) // count))[:count]
    return synthdata.ObjectViews(
        index=obj.index, elevation=obj.elevation, scene_seed=obj.scene_seed,
        images=obj.images[idx], depths=obj.depths[idx], poses=[obj.poses[i] for i in idx],
    )


def _sample_request(cfg, params, ctx, reader, req, out_dir, out):
    t0 = time.perf_counter()
    obj = subset_views(reader.load_object(req.position), req.views)
    lats, imgs = train.generate_views(cfg, params, ctx, obj, req.seed)
    train.write_generated(out_dir, cfg, obj, lats, imgs, req.seed, ctx is not None)
    # Read back as ``crossview eval`` does (layout of train.write_generated).
    base = os.path.join(out_dir, f"obj_{obj.index:04d}")
    gen = [tensorio.load_tensor(os.path.join(base, f"gen_{v:02d}.img.ndt"))
           for v in range(len(imgs))]
    psnrs = [metrics.psnr(g, gt) for g, gt in zip(gen, obj.images)]
    ssims = [metrics.ssim(g, gt) for g, gt in zip(gen, obj.images)]
    ms = [metrics.ms_ssim(g, gt) for g, gt in zip(gen, obj.images)]
    try:
        rmse, _ = metrics.reprojection_consistency(gen, obj.depths, obj.poses)
    except ValueError:
        # No view pair shares a visible surface point in the ground truth
        # (common for 4 views 90 degrees apart): the score is undefined.
        rmse = None
    out.latencies.append(time.perf_counter() - t0)
    out.busy_s += out.latencies[-1]
    out.view_steps += req.views * cfg.sample_steps
    scores = {"psnr_db": float(np.mean(psnrs)), "ssim": float(np.mean(ssims)),
              "ms_ssim": float(np.mean(ms))}
    if rmse is not None:
        scores["reproj_rmse"] = rmse
    problems = checks.check_generated(lats, imgs, req.views, readback=gen)
    problems += [f"{k} is not finite" for k, v in scores.items() if not np.isfinite(v)]
    return scores, problems


def run_sampling(cfg, spec, seed, art, model, out_dir, seconds, min_cycles,
                 max_cycles=None, tracer=None):
    """Closed loop of sampling requests with one client.

    ``model`` is ``(params, ctx)``; ``None`` loads it from the block
    checkpoint first, as one ``crossview sample`` invocation does.
    """
    out = Outcome()
    start = time.perf_counter()
    if model is None:
        model = train.load_model(art.blocks_dir, cfg, with_blocks=spec["with_blocks"])
    params, ctx = model
    for cycle in cycles(spec, seed, art.eval_reader):
        mark = (out.view_steps, out.busy_s)
        for req in cycle:
            if tracer is not None:
                tracer.request = f"request-{req.rid}"
            out.attempted += 1
            try:
                scores, problems = _sample_request(cfg, params, ctx, art.eval_reader, req,
                                                   out_dir, out)
            except NonFiniteError as exc:
                out.fail(1, [f"request {req.rid}: {exc}"])
                continue
            if problems:
                out.fail(1, [f"request {req.rid}: {p}" for p in problems])
            for k, v in scores.items():
                out.quality.setdefault(k, []).append(v)
        out.end_cycle(*mark)
        if out.cycles == max_cycles or (
            out.cycles >= min_cycles and time.perf_counter() - start >= seconds
        ):
            return out


def _timed_stage(stage, call, tracer, round_no):
    """Run one training stage; returns its history and per-step end times.

    The first mark is the stage's start, so ``np.diff`` of the marks gives
    one latency per optimizer step.
    """
    marks = [time.perf_counter()]

    def log(_line):
        marks.append(time.perf_counter())
        if tracer is not None:
            tracer.request = f"round-{round_no}/{stage}-step-{len(marks) - 1}"

    if tracer is not None:
        tracer.request = f"round-{round_no}/{stage}-step-0"
    return call(log), marks


def run_training(cfg, art, out_root, seconds, min_cycles, max_cycles=None, tracer=None):
    """Closed loop of training rounds: ``pretrain_backbone`` then ``train_blocks``.

    Checkpoints land in ``out_root/backbone`` and ``out_root/blocks``. Step
    latencies come from the per-step log callback; the first step of each
    stage also carries the stage's data loading and model set-up.
    """
    out = Outcome(stages={"backbone": [], "blocks": []})
    backbone_dir = os.path.join(out_root, "backbone")
    blocks_dir = os.path.join(out_root, "blocks")
    views = {"backbone": cfg.backbone_batch, "blocks": cfg.train_views}
    steps = cfg.backbone_steps + cfg.block_steps
    start = time.perf_counter()
    while True:
        mark = (out.view_steps, out.busy_s)
        t0 = time.perf_counter()
        out.attempted += steps
        try:
            backbone = _timed_stage("backbone", lambda log: train.pretrain_backbone(
                cfg, art.train_reader, backbone_dir, log=log), tracer, out.cycles)
            blocks = _timed_stage("blocks", lambda log: train.train_blocks(
                cfg, art.train_reader, backbone_dir, blocks_dir, log=log), tracer, out.cycles)
        except NonFiniteError as exc:
            out.fail(steps, [f"round {out.cycles}: {exc}"])
        else:
            out.busy_s += time.perf_counter() - t0
            for stage, (_, marks) in (("backbone", backbone), ("blocks", blocks)):
                out.stages[stage].extend(np.diff(marks).tolist())
                out.latencies.extend(np.diff(marks).tolist())
                out.view_steps += views[stage] * (len(marks) - 1)
            problems = (checks.check_losses(backbone[0], art.backbone_history)
                        + checks.check_losses(blocks[0], art.block_history))
            if problems:
                out.fail(steps, [f"round {out.cycles}: {p}" for p in problems])
            out.quality.setdefault("backbone_loss_final", []).append(backbone[0][-1][1])
            out.quality.setdefault("block_loss_final", []).append(blocks[0][-1][1])
        out.end_cycle(*mark)
        if out.cycles == max_cycles or (
            out.cycles >= min_cycles and time.perf_counter() - start >= seconds
        ):
            return out
