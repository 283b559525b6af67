"""Output checks run by every benchmark run, outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct. A request or step whose checks report a problem counts as failed.
"""

import inspect
import math

import numpy as np

from crossview.diffusion import multiview_loss
from crossview.tensorio import load_checkpoint
from crossview.train import build_block_context, generate_views

__all__ = [
    "check_first_block_loss",
    "check_frozen_backbone",
    "check_generated",
    "check_identity",
    "check_losses",
]


def check_generated(lats, imgs, views, readback=None):
    """Latents finite, images in [0, 1], one of each per view.

    ``readback`` holds the images read back from disk; they must equal the
    generated ones bitwise.
    """
    problems = []
    if len(lats) != views or len(imgs) != views:
        problems.append(f"expected {views} views, got {len(lats)} latents and {len(imgs)} images")
    for v, lat in enumerate(lats):
        if not np.all(np.isfinite(lat)):
            problems.append(f"view {v}: non-finite latent values")
    for v, img in enumerate(imgs):
        if not (np.all(np.isfinite(img)) and img.min() >= 0.0 and img.max() <= 1.0):
            problems.append(f"view {v}: image values outside [0, 1]")
    if readback is not None:
        for v, (img, back) in enumerate(zip(imgs, readback)):
            if img.tobytes() != np.asarray(back).tobytes():
                problems.append(f"view {v}: image read back differs from the generated one")
    return problems


def check_identity(cfg, params, obj, seed):
    """Freshly initialised blocks must leave sampling bitwise unchanged."""
    fresh, _ = generate_views(cfg, params, build_block_context(cfg), obj, seed)
    plain, _ = generate_views(cfg, params, None, obj, seed)
    if any(a.tobytes() != b.tobytes() for a, b in zip(fresh, plain)):
        return ["sampling with fresh zero-output blocks differs from with_blocks=False"]
    return []


def check_frozen_backbone(backbone_dir, blocks_dir):
    """Every backbone tensor of the block checkpoint is frozen and unchanged."""
    base, _, _ = load_checkpoint(backbone_dir)
    tuned, frozen, _ = load_checkpoint(blocks_dir)
    problems = []
    for name, arr in base.items():
        if name not in tuned:
            problems.append(f"{name}: missing from the block checkpoint")
        elif name not in frozen:
            problems.append(f"{name}: not marked frozen in the block checkpoint")
        elif arr.tobytes() != tuned[name].tobytes():
            problems.append(f"{name}: changed during block training")
    return problems


def check_first_block_loss(first_call, block_history):
    """The first block-stage loss equals the frozen backbone's loss.

    ``first_call`` is the ``(args, kwargs)`` of the first ``multiview_loss``
    call made by ``train_blocks``; the loss is recomputed on the same batch
    without blocks.
    """
    args, kwargs = first_call
    bound = inspect.signature(multiview_loss).bind(*args, **kwargs).arguments
    bound["ctx"] = None
    loss, _ = multiview_loss(**bound)
    if float(loss.data) != block_history[0][1]:
        return [f"first block loss {block_history[0][1]!r} != backbone loss {float(loss.data)!r}"]
    return []


def check_losses(history, expected=None):
    """Losses finite, and equal to ``expected`` when a reference run exists."""
    problems = [f"step {s}: non-finite loss" for s, loss in history if not math.isfinite(loss)]
    if expected is not None and history != expected:
        problems.append("loss history differs from the set-up run under the same seed")
    return problems
