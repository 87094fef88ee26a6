import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vidtldr.harness import clips
from vidtldr.model import ClipSpec

SPEC = ClipSpec(frames=8, height=64, width=64, tube=2, patch=16)
BIG = ClipSpec(frames=16, height=112, width=112, tube=2, patch=16)


def test_shapes_and_dtype():
    for pattern in clips.PATTERNS:
        out = clips.synth_clip(clips.SynthClip(SPEC, 0, pattern))
        assert out.shape == (8, 64, 64, 3)
        assert out.dtype == np.float32


def test_deterministic_in_seed():
    a = clips.SynthClip(SPEC, 5, "moving-blob")
    b = clips.SynthClip(SPEC, 5, "moving-blob")
    assert a == b
    assert_array_equal(clips.synth_clip(a), clips.synth_clip(b))
    assert a.foreground == b.foreground
    c = clips.SynthClip(SPEC, 6, "moving-blob")
    assert not np.array_equal(clips.synth_clip(a), clips.synth_clip(c))


def test_two_builds_are_bit_identical_and_read_only():
    synth = clips.SynthClip(SPEC, 7, "front-loaded")
    a, b = clips.synth_clip(synth), clips.synth_clip(synth)
    assert a is not b
    assert a.tobytes() == b.tobytes()
    for v in (a, b):
        assert not v.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0, 0, 0] = 0.0


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError, match="unknown clip pattern 'sine'"):
        clips.SynthClip(SPEC, 0, "sine")


def _blob_tubes(spec, seed, pattern):
    """Tubes whose voxels differ from the noise clip of the same seed."""
    diff = (clips.synth_clip(clips.SynthClip(spec, seed, pattern))
            != clips.synth_clip(clips.SynthClip(spec, seed, "noise")))
    per_tube = diff.reshape(
        spec.n_groups, spec.tube, spec.grid_h, spec.patch, spec.grid_w, spec.patch, -1
    ).any(axis=(1, 3, 5, 6))
    return tuple(int(t) for t in np.flatnonzero(per_tube))


@pytest.mark.parametrize("spec", [SPEC, BIG], ids=["desk", "392-token"])
@pytest.mark.parametrize("pattern", clips.PATTERNS)
def test_foreground_depends_on_spec_and_pattern_alone(spec, pattern):
    fg = clips.SynthClip(spec, 0, pattern).foreground
    for seed in (1, 2, 20240318, 2**63 - 1):
        assert clips.SynthClip(spec, seed, pattern).foreground == fg
    # ... and it is the set of tubes the blob's voxels cover
    assert fg == _blob_tubes(spec, 3, pattern)
    assert len(fg) == (0 if pattern == "noise" else 4 * spec.n_groups)


def test_noise_has_no_foreground():
    out = clips.SynthClip(SPEC, 1, "noise")
    assert out.foreground == ()
    # unit Gaussian, 98k voxels
    voxels = clips.synth_clip(out)
    assert abs(float(voxels.mean())) < 0.05
    assert abs(float(voxels.std()) - 1.0) < 0.05


def test_moving_blob_foreground_indices():
    out = clips.SynthClip(SPEC, 2, "moving-blob")
    per_group = SPEC.grid_h * SPEC.grid_w
    expect = []
    for g in range(SPEC.n_groups):
        row = g % (SPEC.grid_h - 1)
        col = g % (SPEC.grid_w - 1)
        expect.extend(
            g * per_group + (row + dr) * SPEC.grid_w + (col + dc)
            for dr in range(2)
            for dc in range(2)
        )
    assert out.foreground == tuple(expect)


def test_moving_blob_addition_profile():
    # same seed: the noise background is identical, so the difference
    # isolates exactly what the blob added
    seed = 9
    noise = clips.synth_clip(clips.SynthClip(SPEC, seed, "noise"))
    blob = clips.synth_clip(clips.SynthClip(SPEC, seed, "moving-blob"))
    diff = blob.astype(np.float64) - noise.astype(np.float64)
    nz = np.abs(diff) > 1e-6
    # the blob touches every frame (it covers whole frame groups)
    assert nz.any(axis=(1, 2, 3)).all()
    px = 2 * SPEC.patch
    frac = nz.mean()
    assert frac == pytest.approx((px * px) / (64.0 * 64.0), rel=0.01)


def test_moving_blob_tubes_share_texture():
    seed = 10
    noise = clips.synth_clip(clips.SynthClip(SPEC, seed, "noise"))
    blob = clips.synth_clip(clips.SynthClip(SPEC, seed, "moving-blob"))
    diff = blob - noise
    p = SPEC.patch
    # within one frame, the four covered patches carry the same tile
    g0 = diff[0]
    r0 = np.argwhere(np.abs(g0).sum(axis=(1, 2)) > 0)[0, 0]
    c0 = np.argwhere(np.abs(g0).sum(axis=(0, 2)) > 0)[0, 0]
    tiles = [
        g0[r0 + dr * p : r0 + (dr + 1) * p, c0 + dc * p : c0 + (dc + 1) * p]
        for dr in range(2)
        for dc in range(2)
    ]
    # subtracting the shared noise base leaves float32 rounding residue
    for t in tiles[1:]:
        assert_allclose(t, tiles[0], rtol=1e-5, atol=1e-5)


def test_front_loaded_amplitude_decays():
    seed = 11
    noise = clips.synth_clip(clips.SynthClip(SPEC, seed, "noise"))
    front = clips.synth_clip(clips.SynthClip(SPEC, seed, "front-loaded"))
    diff = np.abs(front.astype(np.float64) - noise.astype(np.float64))
    per_group = [
        diff[g * SPEC.tube : (g + 1) * SPEC.tube].sum() for g in range(SPEC.n_groups)
    ]
    assert per_group == sorted(per_group, reverse=True)
    assert per_group[-1] > 0.0
    ratio = per_group[-1] / per_group[0]
    assert ratio == pytest.approx(
        clips.FRONT_DECAY_END / clips.FRONT_DECAY_START, rel=1e-5
    )


def test_front_loaded_blob_is_static_and_centered():
    out = clips.SynthClip(SPEC, 12, "front-loaded")
    per_group = SPEC.grid_h * SPEC.grid_w
    first = [t % per_group for t in out.foreground[:4]]
    for g in range(1, SPEC.n_groups):
        assert [t % per_group for t in out.foreground[4 * g : 4 * g + 4]] == first


def test_blob_clamps_to_small_grids():
    tiny = ClipSpec(frames=2, height=16, width=16, tube=2, patch=16)
    out = clips.SynthClip(tiny, 0, "moving-blob")
    assert out.foreground == (0,)
