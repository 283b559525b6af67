"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from crossview.config import RunConfig  # noqa: E402
from crossview.synthdata import make_dataset  # noqa: E402
from crossview.tensorio import save_checkpoint  # noqa: E402
from crossview.train import build_block_context, generate_views  # noqa: E402
from crossview.unet import init_unet_params  # noqa: E402


class TestTail:
    @pytest.mark.parametrize("n", [11, 12, 20, 36, 99, 100, 101, 250])
    def test_keeps_ten_samples_beyond(self, n):
        values = [float(v) for v in np.random.default_rng(n).permutation(n)]
        value, pct = run.tail(values)
        assert sum(v > value for v in values) == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            run.tail([1.0] * 10)


def _spans(tracer, rows):
    """Load (name, start, end, parent) rows into a tracer."""
    for name, start, end, parent in rows:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.requests.append(None)


class TestSelfTime:
    def test_overlapping_children_counted_once(self):
        tr = tracing.Tracer()
        _spans(tr, [
            ("outer", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 3.0, 6.0, 0),  # overlaps a, as from another thread
            ("c", 9.0, 12.0, 0),  # runs past the parent's end
            ("a", 2.0, 3.0, 1),  # nested in a
        ])
        summary = tracing.summarize(tr)
        assert summary["outer"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
        assert summary["a"]["s"] == pytest.approx(3.0)  # the nested a adds nothing
        assert summary["a"]["self_s"] == pytest.approx(2.0 + 1.0)
        assert summary["a"]["calls"] == 2

    def test_union_length(self):
        assert tracing.union_length([]) == 0.0
        assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)

    def test_nested_calls_through_wrappers(self):
        ticks = iter(range(100))
        tr = tracing.Tracer(clock=lambda: float(next(ticks)))
        inner = tr.call("inner", lambda: None, (), {})
        assert inner is None

        def outer():
            tr.call("inner", lambda: None, (), {})
            tr.call("inner", lambda: None, (), {})

        tr.call("outer", outer, (), {})
        summary = tracing.summarize(tr)
        # outer spans ticks 2..7 and its two children cover 3..4 and 5..6.
        assert summary["outer"]["s"] == 5.0
        assert summary["outer"]["self_s"] == 3.0
        assert summary["inner"]["calls"] == 3
        assert tr.parents == [-1, -1, 1, 1]


def _fake_modules():
    home = types.ModuleType("fakehome")

    def boom(x):
        raise RuntimeError("boom")

    def fine(x):
        return x + 1

    home.boom = boom
    home.fine = fine
    alias = types.ModuleType("fakealias")
    alias.explode = boom  # imported under another name
    alias.fine = fine
    return home, alias


class TestWrappers:
    def test_restored_after_raising_call(self, monkeypatch):
        home, alias = _fake_modules()
        monkeypatch.setitem(sys.modules, "fakehome", home)
        originals = (home.boom, home.fine, alias.explode, alias.fine)
        tr = tracing.Tracer()
        targets = [("fake.boom", "fakehome", "boom", None),
                   ("fake.fine", "fakehome", "fine", None)]
        with pytest.raises(RuntimeError):
            with tracing.installed(tr, targets, modules=[home, alias]):
                assert alias.explode is not originals[0]
                assert alias.fine(1) == 2
                alias.explode(1)
        assert (home.boom, home.fine, alias.explode, alias.fine) == originals
        summary = tracing.summarize(tr)
        assert (summary["fake.boom"]["calls"], summary["fake.boom"]["failed"]) == (1, 1)
        assert (summary["fake.fine"]["calls"], summary["fake.fine"]["failed"]) == (1, 0)
        assert tr._stack == []

    def test_crossview_attributes_restored(self):
        import crossview.optim
        import crossview.unet

        modules = [m for k, m in sys.modules.items() if k.startswith("crossview")]
        before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        step = crossview.optim.AdamW.step
        with pytest.raises(KeyError):
            with tracing.installed(tracing.Tracer()):
                assert crossview.unet.conv2d is not before[("crossview.unet", "conv2d")]
                assert crossview.optim.AdamW.step is not step
                raise KeyError("body fails")
        after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        assert all(after[key] is value for key, value in before.items())
        assert crossview.optim.AdamW.step is step


def _tiny(tmp_path):
    cfg = RunConfig(image_size=16, views=4, train_views=2, train_objects=1, eval_objects=1,
                    grid_res=4, depth_count=3, enc_freqs=2, heads=2, widths=(8, 8, 8),
                    dec_width=8, emb_dim=8, t_dim=8, pose_freq=2, sample_steps=2)
    reader = make_dataset(str(tmp_path / "d"), 1, cfg.views, elevation=15.0, seed=0,
                          image_size=cfg.image_size)
    params = init_unet_params(
        np.random.default_rng(0), latent_channels=cfg.latent_channels, widths=cfg.widths,
        dec_width=cfg.dec_width, emb_dim=cfg.emb_dim, t_dim=cfg.t_dim, pose_freq=cfg.pose_freq)
    # A fresh head is zero, which would hide any block residual.
    shape = params.conv_out_k.shape
    params.conv_out_k.data = np.random.default_rng(1).uniform(-0.1, 0.1, shape).astype(np.float32)
    return cfg, params, reader.load_object(0)


class TestCounts:
    def test_counts_repeat_exactly(self, tmp_path):
        cfg, params, obj = _tiny(tmp_path)
        runs = []
        for _ in range(2):
            tr = tracing.Tracer()
            with tracing.installed(tr):
                generate_views(cfg, params, build_block_context(cfg), obj, seed=3)
            calls = {k: v["calls"] for k, v in tracing.summarize(tr).items()}
            runs.append((tr.counts, calls))
        assert runs[0] == runs[1]
        counts = runs[0][0]
        assert counts[("engine.conv2d", "gflop")] > 0
        assert counts[("engine.conv3d", "gflop")] > 0
        assert 0 < counts[("geometry.warp_to_frustum", "valid")] <= counts[
            ("geometry.warp_to_frustum", "tokens")]

    def test_conv_and_matmul_gflop(self):
        x = np.zeros((2, 3, 5, 7))
        k = np.zeros((4, 3, 3, 3))
        assert tracing._conv_gflop((x, k), {}, None)["gflop"] == pytest.approx(
            2 * 2 * 35 * 4 * 27 / 1e9)
        a = np.zeros((6, 1, 2, 3))
        b = np.zeros((5, 3, 4))
        assert tracing._matmul_gflop((a, b), {}, None)["gflop"] == pytest.approx(
            2 * 30 * 2 * 3 * 4 / 1e9)


class TestChecks:
    def test_generated_outputs(self):
        lats = [np.zeros((12, 4, 4), np.float32) for _ in range(2)]
        imgs = [np.full((3, 8, 8), 0.5, np.float32) for _ in range(2)]
        assert checks.check_generated(lats, imgs, 2, readback=imgs) == []
        bad = [lats[0], lats[1].copy()]
        bad[1][0, 0, 0] = np.nan
        assert checks.check_generated(bad, imgs, 2)
        over = [imgs[0], imgs[1] + 0.6]
        assert checks.check_generated(lats, over, 2)
        flipped = [imgs[0], imgs[1].copy()]
        flipped[1][0, 0, 0] = 0.25
        assert checks.check_generated(lats, imgs, 2, readback=flipped)
        assert checks.check_generated(lats[:1], imgs[:1], 2)

    def test_frozen_backbone_corruption(self, tmp_path):
        tensors = {"unet.w": np.arange(6, dtype=np.float32), "unet.b": np.ones(2, np.float32)}
        save_checkpoint(str(tmp_path / "base"), tensors)
        tuned = dict(tensors, **{"block0.w": np.zeros(3, np.float32)})
        save_checkpoint(str(tmp_path / "ok"), tuned, frozen={"unet.w", "unet.b"})
        assert checks.check_frozen_backbone(str(tmp_path / "base"), str(tmp_path / "ok")) == []
        moved = dict(tuned, **{"unet.w": tensors["unet.w"] + np.float32(1e-6)})
        save_checkpoint(str(tmp_path / "moved"), moved, frozen={"unet.w", "unet.b"})
        assert checks.check_frozen_backbone(str(tmp_path / "base"), str(tmp_path / "moved"))
        save_checkpoint(str(tmp_path / "thawed"), tuned, frozen={"unet.w"})
        assert checks.check_frozen_backbone(str(tmp_path / "base"), str(tmp_path / "thawed"))

    def test_losses(self):
        hist = [(0, 1.0), (1, 0.5)]
        assert checks.check_losses(hist, hist) == []
        assert checks.check_losses([(0, 1.0), (1, float("nan"))])
        assert checks.check_losses(hist, [(0, 1.0), (1, 0.25)])

    def test_identity_detects_nonzero_blocks(self, tmp_path, monkeypatch):
        cfg, params, obj = _tiny(tmp_path)
        assert checks.check_identity(cfg, params, obj, seed=1) == []

        def live_blocks(cfg_):
            ctx = build_block_context(cfg_)
            for bp in ctx.layers:
                bp.mlp_w2.data = np.full_like(bp.mlp_w2.data, 0.1)
            return ctx

        monkeypatch.setattr(checks, "build_block_context", live_blocks)
        assert checks.check_identity(cfg, params, obj, seed=1)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_names()
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
