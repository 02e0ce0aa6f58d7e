"""Model assembly tests: output contracts, variant manifests, serialization,
and end-to-end gradients on a tiny configuration."""

import json
import os
import struct

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import autodiff as ad
from hybridgnn import model as mdl
from hybridgnn.training import batch_loss

TINY = dict(
    n_channels=4, feature_dim=4, proj_dim=4, out_dim=3, steps=2, region_steps=1,
    n_regions=2, extractor_layers=((5, 2, 1, 8), (3, 2, 8, 4)),
)


def tiny_config(variant="full", **over):
    return mdl.ModelConfig(variant=variant, **{**TINY, **over})


def groups(cfg):
    params = mdl.init_model(cfg, 0)
    return {params.group_of(n) for n, _ in params.named_tensors()}


def test_probs_are_distributions_for_all_variants():
    rng = np.random.default_rng(0)
    for variant in mdl.VARIANTS:
        cfg = tiny_config(variant)
        params = mdl.init_model(cfg, seed=1)
        probs, _ = mdl.forward_batch(rng.normal(size=(3, 4, 32)), params, cfg)
        assert probs.value.shape == (3, 2)
        assert np.all(probs.value >= 0)
        npt.assert_allclose(probs.value.sum(axis=1), 1.0, atol=1e-12)


def test_single_segment_forward_matches_batched():
    rng = np.random.default_rng(1)
    for variant in mdl.VARIANTS:
        cfg = tiny_config(variant)
        params = mdl.init_model(cfg, seed=2)
        segs = rng.normal(size=(3, 4, 32))
        stacked, diag = mdl.forward_batch(segs, params, cfg)
        for i in range(3):
            probs, d = mdl.forward(segs[i], params, cfg)
            # gemm kernels differ across batch sizes, so only near-exact
            npt.assert_allclose(probs, stacked.value[i], atol=1e-12)
            if diag["adj_inst"] is not None:
                npt.assert_allclose(d["adj_inst"], diag["adj_inst"].value[i], atol=1e-12)


def test_diagnostics_presence_per_variant():
    rng = np.random.default_rng(2)
    seg = rng.normal(size=(1, 4, 32))
    expect_assign = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 2, "full": 1}
    for variant in mdl.VARIANTS:
        cfg = tiny_config(variant)
        _probs, diag = mdl.forward_batch(seg, mdl.init_model(cfg, 3), cfg)
        has_inst = variant != "a"
        assert (diag["adj_inst"] is not None) == has_inst
        assert len(diag["assign"]) == expect_assign[variant]


def test_variant_manifests():
    assert groups(tiny_config("a")) == {"extractor", "common_adj", "cgnn", "head"}
    assert tiny_config("a").head_input_dim == 3
    groups_full = groups(tiny_config("full"))
    assert "pool_inst" in groups_full and "pool_common" not in groups_full
    assert tiny_config("full").head_input_dim == 6
    groups_e = groups(tiny_config("e"))
    assert "pool_inst" in groups_e and "pool_common" in groups_e


def test_param_shapes_follow_named_tensors_order():
    for variant in mdl.VARIANTS:
        for hidden in (0, 3):
            cfg = tiny_config(variant, classifier_hidden=hidden)
            named = mdl.init_model(cfg, 1).named_tensors()
            assert [(n, t.value.shape) for n, t in named] == list(mdl.param_shapes(cfg).items())


def test_variant_e_pools_are_independent():
    params = mdl.init_model(tiny_config("e"), seed=4)
    assert params.pool_inst.assign_proj is not params.pool_common.assign_proj
    assert not np.array_equal(
        params.pool_inst.assign_proj.value, params.pool_common.assign_proj.value
    )


def test_union_of_variant_groups_covers_full_parameter_set():
    union = set()
    for variant in mdl.VARIANTS:
        union |= groups(tiny_config(variant))
    assert union == {
        "extractor", "common_adj", "cgnn", "inst_adj", "ignn",
        "pool_inst", "pool_common", "head",
    }


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        tiny_config("z")


def test_channel_count_mismatch_rejected():
    cfg = tiny_config()
    params = mdl.init_model(cfg, 5)
    with pytest.raises(ValueError, match="segments"):
        mdl.forward_batch(np.zeros((2, 5, 32)), params, cfg)


def test_variant_b_probs_permutation_invariant():
    # individualized-only pipeline with the node-mean head
    rng = np.random.default_rng(6)
    cfg = tiny_config("b", n_channels=6)
    params = mdl.init_model(cfg, seed=7)
    seg = rng.normal(size=(6, 32))
    base, _ = mdl.forward(seg, params, cfg)
    for _ in range(10):
        probs, _ = mdl.forward(seg[rng.permutation(6)], params, cfg)
        npt.assert_allclose(probs, base, atol=1e-10)


def test_full_model_gradients_tiny_config():
    rng = np.random.default_rng(8)
    cfg = tiny_config("full")
    seg = rng.normal(size=(1, 4, 32))
    arrays = [n.value.copy() for _, n in mdl.init_model(cfg, seed=9).named_tensors()]

    def f(leaves):
        probs, diag = mdl.forward_batch(seg, mdl.bind_params(cfg, leaves), cfg)
        return batch_loss(probs, np.array([1]), diag["assign"], lam=1e-3)

    assert ad.gradient_check(f, arrays, eps=1e-5) < 1e-4


def test_bind_params_validates_count_and_shapes():
    cfg = tiny_config()
    nodes = [ad.param(n.value) for _, n in mdl.init_model(cfg, 10).named_tensors()]
    with pytest.raises(ValueError, match="tensors"):
        mdl.bind_params(cfg, nodes[:-1])
    bad = list(nodes)
    bad[0] = ad.param(np.zeros((1, 1, 1)))
    with pytest.raises(ValueError, match="shape"):
        mdl.bind_params(cfg, bad)


# --- parameter files ---------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path):
    cfg = tiny_config("e")
    params = mdl.init_model(cfg, seed=11)
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, params, cfg)
    loaded, loaded_cfg = mdl.load_params(path)
    assert loaded_cfg.to_dict() == cfg.to_dict()
    for (n1, a), (n2, b) in zip(params.named_tensors(), loaded.named_tensors()):
        assert n1 == n2
        npt.assert_array_equal(a.value, b.value)


def test_load_with_wrong_runtime_config(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 12), cfg)
    other = tiny_config(n_channels=5)
    with pytest.raises(mdl.ParamsConfigMismatchError):
        mdl.load_params(path, expected_config=other)


def test_truncated_file_is_corrupt_not_partial(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 13), cfg)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 100])
    with pytest.raises(mdl.ParamsCorruptError):
        mdl.load_params(path)


def test_wrong_magic_and_version_are_distinct_errors(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 14), cfg)
    blob = bytearray(open(path, "rb").read())
    bad = bytes(b"XXXX") + bytes(blob[4:])
    open(path, "wb").write(bad)
    with pytest.raises(mdl.ParamsCorruptError):
        mdl.load_params(path)
    blob[4] = 99  # bump the version field
    open(path, "wb").write(bytes(blob))
    with pytest.raises(mdl.ParamsVersionError):
        mdl.load_params(path)


def _rewrite_header(path, edit):
    """Apply `edit` to the JSON header of a parameter file, payload untouched."""
    blob = open(path, "rb").read()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen].decode())
    edit(header)
    new_header = json.dumps(header).encode()
    open(path, "wb").write(blob[:8] + struct.pack("<Q", len(new_header)) + new_header + blob[16 + hlen :])


def test_tampered_shape_table_detected(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 15), cfg)
    _rewrite_header(path, lambda h: h["tensors"][0].update(shape=[1, 2, 3]))
    with pytest.raises(mdl.ParamsShapeError):
        mdl.load_params(path)


def test_trailing_bytes_are_corrupt(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 16), cfg)
    with open(path, "ab") as fh:
        fh.write(bytes(24))
    with pytest.raises(mdl.ParamsCorruptError, match="trailing"):
        mdl.load_params(path)


@pytest.mark.parametrize("index, shift", [(0, 8), (1, 8), (-1, -8)])
def test_non_contiguous_offsets_are_corrupt(tmp_path, index, shift):
    # a gap before the first tensor, a gap between tensors, an overlap
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 17), cfg)

    def shift_offset(header):
        header["tensors"][index]["offset"] += shift

    _rewrite_header(path, shift_offset)
    with pytest.raises(mdl.ParamsCorruptError, match="offset"):
        mdl.load_params(path)


def test_table_entry_missing_key_is_corrupt(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 18), cfg)
    _rewrite_header(path, lambda h: h["tensors"][2].pop("offset"))
    with pytest.raises(mdl.ParamsCorruptError, match="unreadable header"):
        mdl.load_params(path)


# version-1 file written before the parameter shape spec existed; it must keep
# loading and saving to the same bytes
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "params_v1_tiny_e.bin")
V1_CONFIG = tiny_config("e", classifier_hidden=3)
V1_SEED = 2024


def test_v1_fixture_loads_bit_exact():
    loaded, _cfg = mdl.load_params(V1_FIXTURE, expected_config=V1_CONFIG)
    fresh = mdl.init_model(V1_CONFIG, V1_SEED).named_tensors()
    assert [n for n, _ in loaded.named_tensors()] == [n for n, _ in fresh]
    for (_n, a), (_m, b) in zip(loaded.named_tensors(), fresh):
        assert a.value.tobytes() == b.value.tobytes()


def test_v1_fixture_bytes_reproduced_by_save(tmp_path):
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(V1_CONFIG, V1_SEED), V1_CONFIG)
    assert open(path, "rb").read() == open(V1_FIXTURE, "rb").read()


def test_config_validation_bounds():
    with pytest.raises(ValueError, match="n_regions"):
        tiny_config(n_regions=9)
    with pytest.raises(ValueError, match="steps"):
        tiny_config(steps=-1)
    with pytest.raises(ValueError, match="positive"):
        tiny_config(out_dim=0)
    # zero propagation steps is legal: single-term projection per branch
    cfg = tiny_config(steps=0, region_steps=0)
    params = mdl.init_model(cfg, 1)
    assert len(params.common_weights) == 1 and len(params.pool_inst.region_weights) == 1
